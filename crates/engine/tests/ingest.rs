//! The ingest pipeline under fire: racing producers must converge to the
//! same chain a sequential writer would build, the durable op-log must
//! recover byte-identical generations, and shutdown must drain — every
//! accepted op resolves, none is silently dropped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{
    shared_durable, DurableEngine, EngineError, EngineWriter, IngestOp, IngestPipeline, LiveEngine,
    PipelineOptions, PublishPolicy, WorkerScratch,
};
use wf_snapshot::MemStorage;
use wf_workloads::{bioaid, sample, views, Workload};

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

/// Four producers race label chunks and view compilations through the
/// pipeline while the durable op-log frames every publish. Afterwards:
/// all tickets resolved `Ok` in per-producer submission order, the live
/// chain contains every label exactly once, and recovering `base ‖ frames`
/// yields a generation whose `save` bytes equal the live generation's —
/// the multi-producer run and its recovery are indistinguishable.
#[test]
fn racing_producers_converge_and_the_oplog_recovers_byte_identically() {
    let w = bioaid(5);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(77);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 240);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view_a = views::random_safe_view(&w, &mut rng, 4);
    let view_b = views::random_safe_view(&w, &mut rng, 8);

    // First generation: seeded directly through the façade, framed as the
    // log head the pipeline's frames chain onto.
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let mut writer = EngineWriter::new(gen0);
    writer.try_insert_labels(&labels[..labels.len() / 5]).unwrap();
    writer.register_view(view_a.clone(), VariantKind::Default).unwrap();
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    writer.publish_durable(&live, &mut durable).unwrap();

    let policy = PublishPolicy {
        queue_capacity: 64,
        max_batch_ops: 16,
        max_delay: std::time::Duration::from_millis(1),
    };
    let options =
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() };
    let pipeline = IngestPipeline::spawn_with(writer, live.clone(), policy, options);

    // Four producers, each owning a disjoint slice of the remaining pool;
    // two also race structurally-identical view compilations (dedup must
    // make the duplicates no-ops on every interleaving).
    let rest = &labels[labels.len() / 5..];
    let per = rest.len() / 4;
    std::thread::scope(|s| {
        for p in 0..4usize {
            let q = pipeline.queue().clone();
            let slice = &rest[p * per..(p + 1) * per];
            let (va, vb) = (view_a.clone(), view_b.clone());
            s.spawn(move || {
                let mut tickets = Vec::new();
                for chunk in slice.chunks(7) {
                    tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
                }
                if p % 2 == 0 {
                    tickets.push(
                        q.push(IngestOp::CompileView(va, VariantKind::QueryEfficient)).unwrap(),
                    );
                    tickets.push(q.push(IngestOp::CompileView(vb, VariantKind::Default)).unwrap());
                }
                // Per-producer ordering: seqnos and apply indexes follow
                // this producer's submission order.
                let mut last_seq = 0u64;
                let mut last_ix = 0u64;
                for t in &tickets {
                    let seq = t.wait().expect("accepted ops must publish");
                    let ix = t.apply_index().expect("applied ops carry their order");
                    assert!(seq >= last_seq, "a producer's ops publish in submission order");
                    assert!(ix >= last_ix, "a producer's ops apply in submission order");
                    last_seq = seq;
                    last_ix = ix;
                }
            });
        }
    });

    let report = pipeline.shutdown();
    assert_eq!(report.stats.op_errors, 0);
    assert_eq!(report.stats.labels_ingested, (per * 4) as u64);
    assert!(report.stats.publishes >= 1);
    assert!(report.persist_error.is_none());

    // Every label landed exactly once; both views compiled despite races.
    let final_gen = live.snapshot();
    assert_eq!(final_gen.store().len(), labels.len() / 5 + per * 4);
    assert_eq!(final_gen.registry().view_count(), 2);
    assert_eq!(final_gen.registry().compiled_count(), 3);

    // Recovery from the surviving bytes must be byte-identical to the
    // live result.
    let (_, replayed, _) =
        DurableEngine::open(shared_fvl(&w), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!(replayed.seqno(), final_gen.seqno());
    let (mut a, mut b) = (Vec::new(), Vec::new());
    final_gen.save(&mut a).unwrap();
    replayed.save(&mut b).unwrap();
    assert_eq!(a, b, "the recovered op-log must reproduce the live generation byte-for-byte");

    // And the recovered generation answers like the live one.
    let mut ws = WorkerScratch::new();
    let items: Vec<_> =
        (0..final_gen.store().len() as u32).step_by(9).map(wf_engine::ItemId).collect();
    for vref in [
        wf_engine::ViewRef { id: wf_engine::ViewId(0), kind: VariantKind::Default },
        wf_engine::ViewRef { id: wf_engine::ViewId(0), kind: VariantKind::QueryEfficient },
        wf_engine::ViewRef { id: wf_engine::ViewId(1), kind: VariantKind::Default },
    ] {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        replayed.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
        final_gen.core().try_all_pairs_into(&mut ws, vref, &items, &mut want).unwrap();
        assert_eq!(got, want);
    }

    // Warm restart *continues the chain*: a new pipeline over the recovered
    // generation publishes seqno n+1 and the log keeps recovering.
    let survivor = storage.survivor();
    let (durable, replayed, _) =
        DurableEngine::open(shared_fvl(&w), Box::new(survivor.clone()), 64).unwrap();
    let writer2 = EngineWriter::new(replayed);
    let live2 = Arc::new(LiveEngine::new(writer2.base().clone()));
    let pipeline2 = IngestPipeline::spawn_with(
        writer2,
        live2.clone(),
        PublishPolicy::default(),
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );
    let t = pipeline2.queue().push(IngestOp::InsertLabels(labels[..3].to_vec())).unwrap();
    let resumed_seq = t.wait().unwrap();
    assert_eq!(resumed_seq, final_gen.seqno() + 1);
    pipeline2.shutdown();
    let (_, resumed, _) =
        DurableEngine::open(shared_fvl(&w), Box::new(survivor.survivor()), 64).unwrap();
    assert_eq!(resumed.seqno(), resumed_seq);
    assert_eq!(resumed.store().len(), live2.snapshot().store().len());
}

/// The backpressure contract at the pipeline level: with a tiny queue and
/// many eager producers, `try_push` sheds with the typed error (op not
/// accepted), blocking `push` parks and lands everything, and shutdown
/// resolves every accepted ticket — accepted ops are never dropped even
/// when close races the producers.
#[test]
fn backpressure_sheds_typed_and_shutdown_drains_every_accepted_op() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(9);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 80);
    let labels = fvl.labeler(&run).labels().to_vec();

    let writer = EngineWriter::from_fvl(fvl);
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    // A queue of 2 with generous batch budgets: producers outpace the
    // publisher and must hit backpressure.
    let policy = PublishPolicy {
        queue_capacity: 2,
        max_batch_ops: 64,
        max_delay: std::time::Duration::from_millis(1),
    };
    let pipeline =
        IngestPipeline::spawn_with(writer, live.clone(), policy, PipelineOptions::default());

    let mut accepted = Vec::new();
    let mut backpressured = 0usize;
    let q = pipeline.queue().clone();
    for chunk in labels.chunks(3) {
        // Non-blocking first; on backpressure fall back to the blocking
        // push, which must land the op.
        match q.try_push(IngestOp::InsertLabels(chunk.to_vec())) {
            Ok(t) => accepted.push((t, chunk.len())),
            Err(EngineError::IngestBackpressure { queued }) => {
                assert!(queued >= 1, "backpressure reports the queue depth");
                backpressured += 1;
                accepted
                    .push((q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap(), chunk.len()));
            }
            Err(other) => panic!("unexpected push error: {other}"),
        }
    }

    let report = pipeline.shutdown();
    let landed: usize = accepted
        .iter()
        .map(|(t, n)| {
            t.wait().expect("every accepted op resolves Ok");
            n
        })
        .sum();
    assert_eq!(landed, labels.len(), "every accepted label landed exactly once");
    assert_eq!(live.snapshot().store().len(), labels.len());
    assert_eq!(report.stats.labels_ingested, labels.len() as u64);
    assert_eq!(report.stats.op_errors, 0);
    // On a single-core box the publisher may keep up sporadically, but the
    // accounting above holds either way; when backpressure did fire, the
    // fallback blocking pushes must still have landed everything.
    let _ = backpressured;

    // After shutdown the queue is closed for good.
    assert!(matches!(q.push(IngestOp::InsertLabels(Vec::new())), Err(EngineError::IngestClosed)));
}
