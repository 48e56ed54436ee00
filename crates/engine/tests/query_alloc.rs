//! Steady-state serving makes no heap allocation under any of the three
//! variants: once a worker's scratch has answered a set of pairs, answering
//! them again, as one batch or one call at a time, allocates nothing.
//! Default and Query-Efficient borrow their stored matrices; Space-Efficient
//! searches the specification for each matrix on every access, into pooled
//! buffers and the scratch's port masks. This is its own test binary
//! because the counting allocator below sees every allocation in the
//! process.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
use wf_workloads::queries::{sample_pairs, PairDist};
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

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_queries_allocate_nothing() {
    let w = bioaid(7);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 20_000);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 8);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vid = writer.add_view(view);
    let vrefs = VariantKind::ALL.map(|kind| writer.compile(vid, kind).unwrap());
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let hot = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
    let pairs: Vec<_> = sample_pairs(&run, &mut rng, 20_000, hot)
        .into_iter()
        .map(|(a, b)| (items[a.0 as usize], items[b.0 as usize]))
        .collect();

    let core = gen.core();
    for vref in vrefs {
        let mut ws = WorkerScratch::new();
        let mut out = Vec::with_capacity(pairs.len());
        let per_call = |ws: &mut WorkerScratch| {
            for &(a, b) in &pairs {
                core.try_query(ws, vref, a, b).unwrap();
            }
        };
        for _ in 0..2 {
            core.try_query_batch_into(&mut ws, vref, &pairs, &mut out).unwrap();
            per_call(&mut ws);
        }
        let batch = allocations_during(|| {
            core.try_query_batch_into(&mut ws, vref, &pairs, &mut out).unwrap();
        });
        let calls = allocations_during(|| per_call(&mut ws));
        assert_eq!((batch, calls), (0, 0), "{:?}: allocations (batch, per call)", vref.kind);
        assert!(out.contains(&Some(true)), "{:?}: no dependent pair", vref.kind);
        if vref.kind == VariantKind::Default {
            assert!(ws.stats().1 > 0, "no pair reached a recursion chain");
        }
    }
}
