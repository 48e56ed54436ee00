//! Both labelers allocate each module instance's path once and share it
//! among that instance's port labels: labeling a run makes at most one
//! allocation per compressed-tree node, plus a few for growing vectors. A
//! labeler that built a path per port would make two per item. This is its
//! own test binary because the counting allocator below sees every
//! allocation in the process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use wf_analysis::ProdGraph;
use wf_core::RunLabeler;
use wf_drl::Drl;
use wf_workloads::{bioaid, sample, views};

/// The system allocator, counting every request it served.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a relaxed atomic count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` comes from the caller under `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Vector growth: the label table, the tree's node tables and the per-step
/// path table each double O(log n) times.
const SLACK: usize = 128;

#[test]
fn labeling_allocates_once_per_tree_node() {
    let w = bioaid(7);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 20_000);
    let grammar = &w.spec.grammar;

    let (labeler, fvl_allocs) = allocations_during(|| RunLabeler::start(grammar, &pg, &run));
    let nodes = labeler.tree().node_count();
    assert_eq!(labeler.label_count(), run.item_count());
    assert!(
        fvl_allocs <= nodes + SLACK,
        "FVL: {fvl_allocs} allocations for {} items and {nodes} tree nodes",
        run.item_count()
    );

    let view = views::black_box_view(&w, &mut rng, grammar.composite_modules().count());
    let drl = Drl::new(&w.spec, &view).expect("a black-box view of BioAID is DRL's input");
    let (labels, drl_allocs) = allocations_during(|| drl.label_run(&run));
    assert!(labels.iter().count() > run.item_count() / 2, "the view hides most of the run");
    assert!(
        drl_allocs <= nodes + SLACK,
        "DRL: {drl_allocs} allocations for {} items and {nodes} FVL tree nodes",
        run.item_count()
    );
}
