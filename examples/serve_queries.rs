//! Serving dependency queries through the `wf-engine` layer.
//!
//! The other examples query via `Fvl::query`, which rebuilds its decode
//! context and scratch buffers on every call. This one sets up the serving
//! stack a provenance service would run: register views once (compiled per
//! §6.3 variant, addressed by dense handles), intern the run's labels into
//! the prefix-sharing store through the engine's one writer, publish, then
//! answer batches and all-pairs sweeps allocation-free.
//!
//! Run with: `cargo run --example serve_queries`

use std::sync::Arc;
use wfprov::engine::{EngineWriter, LiveEngine, WorkerScratch};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::model::fixtures::paper_example;
use wfprov::run::fixtures::figure3_run;

fn main() {
    // The Figure 2 specification and its Figure 3 run, labeled once.
    let ex = paper_example();
    let fvl =
        Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).expect("strictly linear-recursive"));
    let (run, ids) = figure3_run(&ex);
    let labeler = fvl.labeler(&run);

    // The writer interns every label: shared path prefixes are stored once
    // in a trie, and items get dense ids aligned with the run's DataIds.
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();

    // Register both views of the running example. One view can be compiled
    // under several variants; each (view, variant) pair is built once.
    let u1 = writer.add_view(ex.view_u1());
    let u2 = writer.add_view(ex.view_u2());
    let u1_default = writer.compile(u1, VariantKind::Default).unwrap();
    let u1_qe = writer.compile(u1, VariantKind::QueryEfficient).unwrap();
    let u2_default = writer.compile(u2, VariantKind::Default).unwrap();

    // Publishing freezes the staged state into an immutable generation.
    let live = LiveEngine::new(writer.base().clone());
    let gen = writer.publish(&live);
    let (stored, raw) = gen.store().edge_stats();
    println!(
        "label store: {} items, {} trie edges for {} raw path edges ({:.0}% saved)",
        gen.store().len(),
        stored,
        raw,
        100.0 * (1.0 - stored as f64 / raw as f64)
    );
    println!(
        "registry: {} views, {} compiled labels",
        gen.registry().view_count(),
        gen.registry().compiled_count()
    );

    // A batch against each view — Example 8's pair among them. The answers
    // are view-dependent; the engine's results match Fvl::query exactly.
    let d17 = items[ids.d17.0 as usize];
    let d21 = items[ids.d21.0 as usize];
    let d31 = items[ids.d31.0 as usize];
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    let mut answers = Vec::new();
    let batch = [(d17, d31), (d21, d31), (d31, d17)];
    core.try_query_batch_into(&mut ws, u1_default, &batch, &mut answers).unwrap();
    println!("U1 batch {batch:?} -> {answers:?}");
    core.try_query_batch_into(&mut ws, u2_default, &batch, &mut answers).unwrap();
    println!("U2 batch {batch:?} -> {answers:?}");
    // (d21, d31) answers None under U2: d21 is hidden inside C's grey box.

    // Variants agree on answers; they only trade label size for time.
    assert_eq!(
        core.try_query(&mut ws, u1_default, d17, d31),
        core.try_query(&mut ws, u1_qe, d17, d31)
    );

    // An all-pairs sweep: the dependency closure of a working set, e.g. to
    // materialize a lineage subgraph for one search result page.
    let page: Vec<_> = items.iter().copied().take(12).collect();
    let mut closure = Vec::new();
    core.try_all_pairs_into(&mut ws, u1_default, &page, &mut closure).unwrap();
    println!("all-pairs over {} items under U1: {} dependent pairs", page.len(), closure.len());

    // Steady state: repeating the batches allocates nothing — the scratch
    // (matrix pool + chain power caches) has reached its fixed point.
    for _ in 0..3 {
        core.try_query_batch_into(&mut ws, u1_default, &batch, &mut answers).unwrap();
        core.try_query_batch_into(&mut ws, u2_default, &batch, &mut answers).unwrap();
    }
    let (pooled, memoized) = ws.stats();
    println!("scratch fixed point: {pooled} pooled matrices, {memoized} in chain power caches");
}
