//! Concurrent multi-producer ingest: the op-log pipeline end to end.
//!
//! `live_serve` shows one writer publishing under live readers; this
//! example shows what the ingest pipeline adds — *four* producer threads
//! feeding the same generation chain at once, with no writer hand-off
//! protocol between them. Each producer pushes typed [`IngestOp`]s into
//! the bounded [`IngestQueue`] (full queue = backpressure, never loss)
//! and gets a [`Ticket`] per op that resolves to the seqno of the
//! generation that published it. One publisher thread drains the queue,
//! coalesces ops into copy-on-write staging, frames and fsyncs every
//! publish's delta record into a durable op-log (in memory here), and
//! swaps generations into the [`LiveEngine`] — which two reader threads
//! query throughout, lock-free.
//!
//! Shutdown is graceful by contract: closing the queue lets the publisher
//! drain and publish everything already accepted, so every ticket
//! resolves. The store's `base ‖ frames` then recovers to the exact final
//! generation — and a *new* pipeline resumes ingesting on top of the
//! recovered state.
//!
//! Run with: `cargo run --release --example multi_ingest`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wfprov::engine::{
    shared_durable, DurableEngine, EngineWriter, IngestOp, IngestPipeline, ItemId, LabelStore,
    LiveEngine, PipelineOptions, PublishPolicy, Ticket, WorkerScratch,
};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::snapshot::MemStorage;
use wfprov::workloads::{bioaid, sample, views};

const PRODUCERS: usize = 4;
const READERS: usize = 2;
const CHUNK: usize = 32;
const PER_PRODUCER: usize = 1_024;

fn main() {
    let w = bioaid(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, 4_000);
    let mut pool = fvl.labeler(&run).labels().to_vec();
    let mut i = 0usize;
    while pool.len() < PRODUCERS * PER_PRODUCER {
        pool.push(pool[i].clone());
        i += 1;
    }
    let view = views::random_safe_view(&w, &mut rng, 8);

    // --- First generation: an initial view the readers can query, the
    // op-log's first frame. ----------------------------------------------
    let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap).unwrap();
    let mut writer = EngineWriter::new(gen0);
    let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    writer.publish_durable(&live, &mut durable).unwrap();
    println!("first generation framed: {} log bytes, 1 compiled view", durable.status().bytes);

    // --- The pipeline: one publisher thread, the durable op-log, and as
    // many producers as want to push. ------------------------------------
    let policy = PublishPolicy { max_batch_ops: 64, ..PublishPolicy::default() };
    let pipeline = IngestPipeline::spawn_with(
        writer,
        live.clone(),
        policy,
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );

    let stop = AtomicBool::new(false);
    let (tickets, read_batches) = std::thread::scope(|s| {
        // Two readers: batched queries through the lock-free fast path,
        // each batch against whatever generation is current — publishes
        // from four producers land *under* them, atomically.
        let (live_ref, stop_ref) = (&live, &stop);
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                s.spawn(move || {
                    let mut ws = WorkerScratch::new();
                    let mut answers = Vec::new();
                    let mut batches = 0u64;
                    while !stop_ref.load(Ordering::Relaxed) {
                        let gen = live_ref.read();
                        let n = gen.store().len() as u32;
                        let pairs: Vec<_> = (0..256u32)
                            .map(|k| (ItemId(k % n.max(1)), ItemId((k * 7 + 3) % n.max(1))))
                            .collect();
                        if n > 0 {
                            gen.core()
                                .try_query_batch_into(&mut ws, vref, &pairs, &mut answers)
                                .expect("a published view answers every in-range pair");
                            std::hint::black_box(&answers);
                        }
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        // Four producers, each pushing its own disjoint slice of labels in
        // chunks, plus the shared view (the registry dedups — no producer
        // needs to know the others compile it too).
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = pipeline.queue().clone();
                let slice = &pool[p * PER_PRODUCER..(p + 1) * PER_PRODUCER];
                let view = view.clone();
                s.spawn(move || {
                    let mut tickets: Vec<Ticket> = Vec::new();
                    for (k, chunk) in slice.chunks(CHUNK).enumerate() {
                        tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
                        if k % 8 == 0 {
                            tickets.push(
                                q.push(IngestOp::CompileView(view.clone(), VariantKind::Default))
                                    .unwrap(),
                            );
                        }
                    }
                    tickets
                })
            })
            .collect();

        let mut tickets: Vec<Ticket> = Vec::new();
        for h in producers {
            tickets.extend(h.join().expect("producer panicked"));
        }
        stop.store(true, Ordering::Relaxed);
        let batches: u64 = readers.into_iter().map(|r| r.join().expect("reader panicked")).sum();
        (tickets, batches)
    });

    // --- Graceful shutdown: the queue closes, the publisher drains, and
    // every accepted op's ticket resolves with its publishing seqno. ------
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none(), "op-log persist failed");
    assert_eq!(report.stats.op_errors, 0);
    assert_eq!(report.stats.labels_ingested as usize, PRODUCERS * PER_PRODUCER);
    let mut max_seq = 0u64;
    for t in &tickets {
        let seq = t.wait().expect("drained pipeline resolves every ticket");
        max_seq = max_seq.max(seq);
    }
    let last = live.snapshot();
    assert!(last.seqno() >= max_seq, "every resolved seqno is live");
    println!(
        "{PRODUCERS} producers ingested {} labels over {} publishes while {READERS} readers \
         served {read_batches} batches; final generation {} holds {} items",
        report.stats.labels_ingested,
        report.stats.publishes,
        last.seqno(),
        last.store().len(),
    );

    // --- The racing run is recoverable: base ‖ frames lands on the exact
    // final generation, answers included. --------------------------------
    let fvl2 = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let (durable, replayed, recovery) =
        DurableEngine::open(fvl2, Box::new(storage.survivor()), cap).unwrap();
    assert_eq!(replayed.seqno(), last.seqno());
    assert_eq!(replayed.store().len(), last.store().len());

    let mut cold = EngineWriter::from_fvl(fvl.clone());
    // The store's id order *is* the global apply order — materialize it
    // back out to rebuild the same state cold.
    let store = report.writer.base().store();
    let ordered: Vec<_> = (0..store.len() as u32).map(|i| store.materialize(ItemId(i))).collect();
    let all_items = cold.try_insert_labels(&ordered).unwrap();
    let cold_ref = cold.register_view(view, VariantKind::Default).unwrap();
    assert_eq!(cold_ref, vref);
    let cold = cold.publish(&LiveEngine::new(cold.base().clone()));
    let sample_items: Vec<_> = all_items.iter().copied().step_by(13).collect();
    let mut ws = WorkerScratch::new();
    let (mut warm_answers, mut cold_answers) = (Vec::new(), Vec::new());
    replayed.core().try_all_pairs_into(&mut ws, vref, &sample_items, &mut warm_answers).unwrap();
    cold.core().try_all_pairs_into(&mut ws, cold_ref, &sample_items, &mut cold_answers).unwrap();
    assert_eq!(warm_answers, cold_answers, "recovered state must answer like a cold build");
    println!(
        "warm restart replayed {} frames to generation {} — answers identical to a cold build",
        recovery.replayed_frames,
        replayed.seqno()
    );

    // --- Resume: a fresh pipeline on the recovered generation keeps
    // ingesting (durably) where the old one left off. --------------------
    let live2 = Arc::new(LiveEngine::new(replayed));
    let pipeline2 = IngestPipeline::spawn_with(
        EngineWriter::new(live2.snapshot()),
        live2.clone(),
        policy,
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );
    let t = pipeline2.queue().push(IngestOp::InsertLabels(pool[..CHUNK].to_vec())).unwrap();
    let seq = t.wait().expect("resumed pipeline serves new ops");
    let report2 = pipeline2.shutdown();
    assert_eq!(report2.stats.labels_ingested as usize, CHUNK);
    assert_eq!(live2.snapshot().store().len(), last.store().len() + CHUNK);
    println!(
        "resumed pipeline published generation {seq}: {} items — multi-producer ingest demo \
         complete",
        live2.snapshot().store().len()
    );
}
