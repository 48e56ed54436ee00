//! Live updates under serving: the generational engine end to end.
//!
//! `parallel_serve` shows many readers over one *frozen* engine; this
//! example shows what the generational refactor adds — writes landing
//! while those readers keep flowing. A single [`EngineWriter`] stages
//! label inserts and view registrations against copy-on-write clones and
//! publishes immutable [`EngineGeneration`]s through a [`LiveEngine`]
//! (atomic `Arc` swap; readers use a lock-free fast path and finish
//! in-flight work on whatever generation they hold). Every publish is
//! durable: [`EngineWriter::publish_durable`] frames its *delta record*,
//! appends and fsyncs it before the swap (into an in-memory store here;
//! `durable_serve` uses a directory), and a warm restart recovers base ‖
//! frames to exactly the last published state.
//!
//! Run with: `cargo run --release --example live_serve`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wfprov::analysis::ProdGraph;
use wfprov::engine::{DurableEngine, EngineWriter, LabelStore, LiveEngine, WorkerScratch};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::snapshot::{MemStorage, SnapshotError};
use wfprov::workloads::churn::{churn_stream, ChurnOp, ChurnSpec};
use wfprov::workloads::queries::PairDist;
use wfprov::workloads::{bioaid, sample, views};

fn main() {
    // A BioAID-like workload; the scheme *owns* its spec via Arc, so no
    // borrow chains anything to this stack frame.
    let w = bioaid(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 4_000);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 8);

    // --- Generation 1: initial state, the op-log's first frame. ---------
    let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap).unwrap();
    let initial = labels.len() / 2;
    let mut writer = EngineWriter::new(gen0);
    let items = writer.try_insert_labels(&labels[..initial]).unwrap();
    let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
    let live = LiveEngine::new(writer.base().clone());
    let g1 = writer.publish_durable(&live, &mut durable).unwrap();
    println!(
        "generation {}: {} items, {} view(s) — op-log {} bytes",
        g1.seqno(),
        g1.store().len(),
        g1.registry().view_count(),
        durable.status().bytes
    );

    // --- Readers serve while the writer churns and publishes. -----------
    let mut churn_rng = StdRng::seed_from_u64(13);
    let spec = ChurnSpec {
        initial_items: initial,
        insert_chunk: 64,
        batch: 256,
        view_weight: 0.08,
        dist: PairDist::HotKey { hot_items: 32, hot_prob: 0.5 },
        ..ChurnSpec::default()
    };
    let ops = churn_stream(&mut churn_rng, 60, &spec);
    let stop = AtomicBool::new(false);
    let publishes = std::thread::scope(|s| {
        let live_ref = &live;
        let stop_ref = &stop;
        let items_ref = &items;
        // Two readers: batched queries through the lock-free read path,
        // each batch against whatever generation is current.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(move || {
                    let mut ws = WorkerScratch::new();
                    let mut answers = Vec::new();
                    let mut batches = 0u64;
                    let pairs: Vec<_> = items_ref
                        .iter()
                        .zip(items_ref.iter().rev())
                        .map(|(&a, &b)| (a, b))
                        .take(256)
                        .collect();
                    while !stop_ref.load(Ordering::Relaxed) {
                        let gen = live_ref.read();
                        gen.core()
                            .try_query_batch_into(&mut ws, vref, &pairs, &mut answers)
                            .expect("a published view answers every in-range pair");
                        std::hint::black_box(&answers);
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        // The writer replays the churn stream: inserts and view
        // registrations stage up; every query op publishes what is staged
        // (its delta framed into the op-log first).
        let mut label_cursor = initial;
        let mut published = 0u32;
        let mut view_rng = StdRng::seed_from_u64(23);
        for op in &ops {
            match op {
                ChurnOp::Insert { count } => {
                    let end = (label_cursor + count).min(labels.len());
                    writer.try_insert_labels(&labels[label_cursor..end]).unwrap();
                    label_cursor = end;
                }
                ChurnOp::RegisterView { .. } => {
                    let v = views::random_safe_view(&w, &mut view_rng, 6);
                    writer.register_view(v, VariantKind::Default).unwrap();
                }
                ChurnOp::QueryBatch { .. } => {
                    if writer.has_staged_changes() {
                        writer.publish_durable(live_ref, &mut durable).unwrap();
                        published += 1;
                    }
                    // Yield the (possibly single) core so the readers
                    // demonstrably serve *between* publishes.
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        }
        if writer.has_staged_changes() {
            writer.publish_durable(live_ref, &mut durable).unwrap();
            published += 1;
        }
        stop.store(true, Ordering::Relaxed);
        let batches: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        assert!(batches > 0, "readers must have served while the writer published");
        println!("served {batches} read batches concurrently with {published} publishes");
        published
    });
    let last = live.snapshot();
    assert_eq!(last.seqno(), 1 + publishes as u64);
    println!(
        "generation {}: {} items, {} view(s) — op-log grew to {} bytes",
        last.seqno(),
        last.store().len(),
        last.registry().view_count(),
        durable.status().bytes
    );

    // --- Warm restart: recover base ‖ frames, compare against cold. -----
    let fvl2 = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let (_, replayed, _) = DurableEngine::open(fvl2, Box::new(storage.survivor()), cap).unwrap();
    assert_eq!(replayed.seqno(), last.seqno());
    assert_eq!(replayed.store().len(), last.store().len());
    assert_eq!(replayed.registry().view_count(), last.registry().view_count());

    let mut cold = EngineWriter::from_fvl(fvl.clone());
    let all_items = cold.try_insert_labels(&labels[..last.store().len()]).unwrap();
    let cold_ref = cold.register_view(view, VariantKind::Default).unwrap();
    assert_eq!(cold_ref, vref, "handles are chain-stable");
    let cold = cold.publish(&LiveEngine::new(cold.base().clone()));
    let sample: Vec<_> = all_items.iter().copied().step_by(7).collect();
    let mut ws = WorkerScratch::new();
    let (mut warm_answers, mut cold_answers) = (Vec::new(), Vec::new());
    replayed.core().try_all_pairs_into(&mut ws, vref, &sample, &mut warm_answers).unwrap();
    cold.core().try_all_pairs_into(&mut ws, cold_ref, &sample, &mut cold_answers).unwrap();
    assert_eq!(warm_answers, cold_answers, "recovered state must answer like a cold build");
    println!(
        "warm restart recovered {} generations: {} dependent pairs over a {}-item sample — \
         identical to a cold build",
        replayed.seqno(),
        warm_answers.len(),
        sample.len()
    );

    // --- A torn tail heals; damage before it is rejected, typed. ---------
    let (base, log) = storage.contents();
    let torn = MemStorage::with_state(base.clone(), log[..log.len() - 9].to_vec());
    let (_, healed, report) = DurableEngine::open(fvl.clone(), Box::new(torn), cap).unwrap();
    assert_eq!(healed.seqno(), last.seqno() - 1, "the torn final frame was never acknowledged");
    assert!(report.dropped_bytes > 0);
    let mut damaged = log;
    damaged[40] ^= 0x01; // inside the first frame's payload
    let damaged = MemStorage::with_state(base, damaged);
    let err = DurableEngine::open(fvl, Box::new(damaged), cap).err().expect("must fail");
    assert!(matches!(err, SnapshotError::LogCorrupted { .. }));
    println!(
        "torn tail healed to generation {} ({} bytes dropped); mid-log damage -> {err} — \
         live serving demo complete",
        healed.seqno(),
        report.dropped_bytes
    );
}
