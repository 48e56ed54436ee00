//! A durable publish writes its staged labels into the delta record through
//! borrowed labels over two reused path buffers, not through owned copies:
//! publishing 4 096 staged labels makes fewer allocations than it has
//! labels. Materializing each label to encode it made about four per label.
//! This is its own test binary because the counting allocator below sees
//! every allocation in the process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::Fvl;
use wf_engine::{DurableEngine, EngineWriter, LabelStore, LiveEngine};
use wf_snapshot::MemStorage;
use wf_workloads::{bioaid, sample};

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

#[test]
fn a_durable_publish_allocates_less_than_once_per_staged_label() {
    let w = bioaid(7);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 4_096);
    let labeler = fvl.labeler(&run);
    let labels = &labeler.labels()[..4_096];

    let storage = Box::new(MemStorage::new());
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl, storage, LabelStore::DEFAULT_SHARD_CAPACITY).unwrap();
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.try_insert_labels(labels).unwrap();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let gen = writer.publish_durable(&live, &mut durable).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(gen.store().len(), labels.len());
    assert!(
        allocations < labels.len(),
        "publishing {} staged labels made {allocations} allocations",
        labels.len()
    );
}
