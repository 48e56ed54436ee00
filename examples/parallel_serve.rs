//! Multi-threaded query serving over a frozen engine core.
//!
//! `serve_queries` shows the single-threaded serving stack; this example
//! shows the parallel one: a published generation is an immutable, `Sync`
//! [`EngineCore`] that any number of worker threads query concurrently
//! through their own [`WorkerScratch`]es — no locks anywhere on the read
//! path — and `try_query_batch_into` / `try_all_pairs_into`, handed a
//! slice of scratches, split a workload across scoped threads, one chunk
//! per scratch, with answers *identical* to one scratch.
//!
//! [`EngineCore`]: wfprov::engine::EngineCore
//!
//! Run with: `cargo run --release --example parallel_serve`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wfprov::analysis::ProdGraph;
use wfprov::engine::{EngineWriter, LiveEngine, WorkerScratch};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::workloads::queries::{
    sample_mix, shard_round_robin, worker_streams, MixSpec, PairDist,
};
use wfprov::workloads::{bioaid, sample, views};

fn main() {
    // A BioAID-like workload: one run of 4000 items, labeled once.
    let w = bioaid(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 4_000);
    let labeler = fvl.labeler(&run);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let view_a = views::random_safe_view(&w, &mut rng, 8);
    let view_b = views::random_safe_view(&w, &mut rng, 12);
    let ra = writer.register_view(view_a, VariantKind::Default).unwrap();
    let rb = writer.register_view(view_b, VariantKind::QueryEfficient).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    let mut ws = WorkerScratch::new();

    // --- Fan-out: many scratches answer exactly like one, always. --------
    let dist = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
    let pairs: Vec<_> = worker_streams(&run, &mut rng, 1, 4_096, dist)
        .remove(0)
        .into_iter()
        .map(|(a, b)| (items[a.0 as usize], items[b.0 as usize]))
        .collect();
    let mut sequential = Vec::new();
    core.try_query_batch_into(&mut ws, ra, &pairs, &mut sequential).unwrap();
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut workers: Vec<_> = (0..threads.max(2)).map(|_| WorkerScratch::new()).collect();
    let mut parallel = Vec::new();
    core.try_query_batch_into(&mut workers, ra, &pairs, &mut parallel).unwrap();
    assert_eq!(parallel, sequential, "sharded answers must be bit-identical");
    let dependent = parallel.iter().filter(|r| **r == Some(true)).count();
    println!(
        "try_query_batch_into: {} pairs over {} scratches, {} dependent — identical to one scratch",
        pairs.len(),
        workers.len(),
        dependent
    );

    // --- Explicit workers: one frozen core, one scratch per thread. -----
    // A multi-view operation stream (75% view A / 25% view B), sharded
    // round-robin across workers; each worker serves its shard through its
    // own scratch, interleaving views freely (memos are uid-keyed).
    let spec = MixSpec { view_weights: vec![3.0, 1.0], dist };
    let ops = sample_mix(&run, &mut rng, 8_192, &spec);
    let shards = shard_round_robin(&ops, threads.max(2));
    let handles = [ra, rb];
    let items = &items;
    let served: usize = std::thread::scope(|s| {
        let workers: Vec<_> = shards
            .iter()
            .map(|shard| {
                s.spawn(move || {
                    let mut ws = WorkerScratch::new();
                    let mut answered = 0usize;
                    for op in shard {
                        let (a, b) = op.pair;
                        let q = core
                            .try_query(
                                &mut ws,
                                handles[op.view],
                                items[a.0 as usize],
                                items[b.0 as usize],
                            )
                            .unwrap();
                        answered += usize::from(q.is_some());
                    }
                    answered
                })
            })
            .collect();
        workers.into_iter().map(|h| h.join().expect("worker panicked")).sum()
    });
    println!(
        "explicit workers: {} ops across {} shards, {} answered (rest invisible in their view)",
        ops.len(),
        shards.len(),
        served
    );

    // --- All-pairs sweeps shard by rows, same order as one scratch. -----
    let subset: Vec<_> = items.iter().copied().step_by(37).collect();
    let mut seq_sweep = Vec::new();
    core.try_all_pairs_into(&mut ws, rb, &subset, &mut seq_sweep).unwrap();
    let mut par_sweep = Vec::new();
    core.try_all_pairs_into(&mut workers, rb, &subset, &mut par_sweep).unwrap();
    assert_eq!(par_sweep, seq_sweep, "row-sharded sweep must match one scratch");
    println!(
        "try_all_pairs_into: {}x{} sweep over {} scratches, {} dependent pairs — identical order \
         to one scratch",
        subset.len(),
        subset.len(),
        workers.len(),
        par_sweep.len()
    );

    // The typed API refuses foreign handles instead of panicking.
    let bogus =
        wfprov::engine::ViewRef { id: wfprov::engine::ViewId(99), kind: VariantKind::Default };
    match core.try_query_batch_into(&mut workers, bogus, &pairs, &mut parallel) {
        Err(e) => println!("typed rejection of a foreign handle: {e}"),
        Ok(()) => unreachable!("view 99 was never registered"),
    }
}
