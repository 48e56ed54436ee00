//! Crash-safe durability end to end: the durable pipeline must never
//! lose an acknowledged op, every torn prefix of the op-log must recover
//! to a published generation's exact state or fail typed (never panic,
//! never answer wrongly), and background compaction must trim the log
//! without changing what recovery rebuilds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{
    serialize_base, shared_durable, CompactionPolicy, DurableEngine, EngineGeneration,
    EngineWriter, IngestOp, IngestPipeline, LiveEngine, PipelineOptions, PublishPolicy,
    SnapshotError, WorkerScratch,
};
use wf_snapshot::{FaultKind, FaultPlan, MemStorage};
use wf_workloads::{bioaid, sample, views, Workload};

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

fn save_bytes(gen: &EngineGeneration) -> Vec<u8> {
    serialize_base(gen).expect("serializing a generation cannot fail in memory")
}

/// Build a durable chain of several publishes (with one mid-chain
/// compaction) directly through the writer, returning the shared storage
/// handle and the save-bytes of every published generation by seqno.
fn build_chain(seed: u64) -> (MemStorage, Vec<Vec<u8>>, Arc<Fvl<'static>>) {
    let w = bioaid(seed % 3);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 80);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 4);

    let storage = MemStorage::new();
    let (mut durable, gen0, report) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).expect("fresh open");
    assert_eq!(report.recovered_seqno, 0);
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0.clone());
    let mut golden = vec![save_bytes(&gen0)];

    let chunks: Vec<&[wf_core::DataLabel]> = labels.chunks(labels.len() / 5 + 1).collect();
    for (i, chunk) in chunks.iter().enumerate() {
        writer.try_insert_labels(chunk).unwrap();
        if i == 1 {
            writer.register_view(view.clone(), VariantKind::Default).unwrap();
        }
        let gen = writer.publish_durable(&live, &mut durable).unwrap();
        golden.push(save_bytes(&gen));
        if i == 2 {
            // Fold the head into a fresh base mid-chain so recovery must
            // handle base_seqno > 0 and frames both sides of it.
            let base = save_bytes(&gen);
            let stats = durable.install_base(&base, gen.seqno()).unwrap().expect("compacts");
            assert_eq!(stats.covered_seqno, gen.seqno());
        }
    }
    (storage, golden, fvl)
}

/// The satellite property: truncate the durable op-log at **every** byte
/// offset. Each prefix either recovers to a published generation's exact
/// state (identical save bytes, element-identical answers) or fails with
/// a typed error — never a panic, never a wrong answer.
#[test]
fn every_byte_truncation_recovers_a_published_prefix_or_fails_typed() {
    for seed in [3u64, 11, 42] {
        let (storage, golden, fvl) = build_chain(seed);
        let (base, log) = storage.contents();
        let base = base.expect("chain has a base");
        let base_covered = 4u64.min(golden.len() as u64 - 1);
        for cut in 0..=log.len() {
            let truncated = MemStorage::with_state(Some(base.clone()), log[..cut].to_vec());
            let opened = std::panic::catch_unwind(|| {
                DurableEngine::open(fvl.clone(), Box::new(truncated), 64)
            })
            .unwrap_or_else(|_| panic!("seed {seed} cut {cut}: recovery panicked"));
            match opened {
                Ok((_, gen, report)) => {
                    let seq = gen.seqno();
                    assert!(
                        seq >= base_covered.min(report.base_seqno) && (seq as usize) < golden.len(),
                        "seed {seed} cut {cut}: recovered seqno {seq} out of range"
                    );
                    assert_eq!(
                        save_bytes(&gen),
                        golden[seq as usize],
                        "seed {seed} cut {cut}: recovered state diverges from published seqno {seq}"
                    );
                    assert_eq!(report.recovered_seqno, seq);
                }
                Err(_typed) => {
                    // Typed rejection is legal for prefixes that corrupt
                    // the *base* chain invariants; reaching here without
                    // a panic is the property.
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Randomized chains stay recoverable at every truncation, and the
    /// final state always recovers exactly.
    #[test]
    fn truncation_property_holds_on_random_chains(seed in 100u64..10_000) {
        let (storage, golden, fvl) = build_chain(seed);
        let (base, log) = storage.contents();
        let base = base.expect("chain has a base");
        // Full log: exact final state.
        let full = MemStorage::with_state(Some(base.clone()), log.clone());
        let (_, gen, report) = DurableEngine::open(fvl.clone(), Box::new(full), 64).unwrap();
        prop_assert_eq!(gen.seqno() as usize, golden.len() - 1);
        prop_assert_eq!(report.dropped_bytes, 0);
        prop_assert_eq!(&save_bytes(&gen), golden.last().unwrap());
        // A sampled set of cuts (the exhaustive sweep runs in the
        // deterministic test above).
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC07);
        for _ in 0..40 {
            let cut = rand::Rng::gen_range(&mut rng, 0..=log.len());
            let truncated = MemStorage::with_state(Some(base.clone()), log[..cut].to_vec());
            if let Ok((_, gen, _)) = DurableEngine::open(fvl.clone(), Box::new(truncated), 64) {
                let seq = gen.seqno() as usize;
                prop_assert!(seq < golden.len());
                prop_assert_eq!(&save_bytes(&gen), &golden[seq]);
            }
        }
    }
}

/// The durable pipeline round trip: ingest through producers, crash
/// (drop everything), reopen, and the recovered generation must be
/// byte-identical to the last acknowledged live state — including after
/// background compactions trimmed the log.
#[test]
fn durable_pipeline_with_compaction_recovers_exactly() {
    let w = bioaid(7);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(909);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 200);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 5);

    let storage = MemStorage::new();
    let (durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let shared = shared_durable(durable);
    let policy = PublishPolicy {
        max_batch_ops: 8,
        max_delay: Duration::from_millis(1),
        ..PublishPolicy::default()
    };
    let options = PipelineOptions {
        durable: Some(shared.clone()),
        // Tiny thresholds: compact after every few publishes.
        compaction: Some(CompactionPolicy { max_log_bytes: 1 << 14, max_log_frames: 4 }),
        ..PipelineOptions::default()
    };
    let pipeline =
        IngestPipeline::spawn_with(EngineWriter::new(gen0), live.clone(), policy, options);
    let q = pipeline.queue().clone();
    let mut tickets = Vec::new();
    for chunk in labels.chunks(9) {
        tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
    }
    tickets.push(q.push(IngestOp::CompileView(view.clone(), VariantKind::Default)).unwrap());
    for t in &tickets {
        t.wait().expect("acknowledged");
    }
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none());
    let totals = report.compaction.expect("driver ran");
    assert!(totals.compactions >= 1, "tiny thresholds must have compacted");
    assert!(totals.last_error.is_none(), "compaction failed: {:?}", totals.last_error);

    let final_gen = live.snapshot();
    // "Crash": forget the pipeline, reopen from the surviving bytes.
    let (recovered_durable, recovered, rec) =
        DurableEngine::open(fvl.clone(), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!(rec.recovered_seqno, final_gen.seqno());
    assert_eq!(save_bytes(&recovered), save_bytes(&final_gen));
    assert_eq!(recovered_durable.last_seqno(), final_gen.seqno());

    // Element-identical answers on the recovered engine.
    let mut ws = WorkerScratch::new();
    let vref = wf_engine::ViewRef { id: wf_engine::ViewId(0), kind: VariantKind::Default };
    let sample: Vec<_> =
        (0..recovered.store().len().min(40) as u32).map(wf_engine::ItemId).collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    recovered.core().try_all_pairs_into(&mut ws, vref, &sample, &mut got).unwrap();
    final_gen.core().try_all_pairs_into(&mut ws, vref, &sample, &mut want).unwrap();
    assert_eq!(got, want);
}

/// A zero shard capacity is rejected typed before the storage is touched:
/// opening at capacity 0 neither heals a torn tail nor bootstraps a base
/// (both are writes).
#[test]
fn open_at_zero_shard_capacity_is_rejected_before_touching_storage() {
    let (storage, _, fvl) = build_chain(5);
    let (base, log) = storage.contents();
    let torn_log = log[..log.len() - 3].to_vec();
    let fresh = MemStorage::new();
    let torn = MemStorage::with_state(base.clone(), torn_log.clone());
    for store in [&fresh, &torn] {
        let Err(SnapshotError::Io(e)) =
            DurableEngine::open(fvl.clone(), Box::new(store.clone()), 0)
        else {
            panic!("a zero shard capacity must be rejected as an i/o error");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    }
    assert_eq!(fresh.contents(), (None, Vec::new()), "no base was bootstrapped");
    assert_eq!(torn.contents(), (base, torn_log), "the torn tail was not healed");
}

/// Transient storage faults are absorbed by the retry policy; fatal ones
/// stop the pipeline with every ticket resolved `Err`, never hung.
#[test]
fn transient_faults_retry_and_fatal_faults_resolve_tickets() {
    let w = bioaid(2);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(55);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let labels = fvl.labeler(&run).labels().to_vec();

    // Two transient failures on the first two append calls: the retry
    // policy must absorb both and acknowledge everything.
    let storage = MemStorage::with_plan(FaultPlan::new().transient_calls(0, 2));
    let (durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let options =
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() };
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live.clone(),
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        options,
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(labels.clone())).unwrap();
    t.wait().expect("retries absorb transient faults");
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none());
    assert!(report.stats.persist_retries >= 1, "retries must be counted");
    // The surviving log replays to the acknowledged state.
    let (_, recovered, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!(recovered.seqno(), live.snapshot().seqno());

    // A fatal fault (permission denied) gives up immediately: the ticket
    // resolves Err(Persist) and the pipeline reports the failure.
    let storage = MemStorage::with_plan(
        FaultPlan::new().at_call(0, FaultKind::Fail(std::io::ErrorKind::PermissionDenied)),
    );
    let (durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(storage), 64).unwrap();
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let options =
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() };
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live.clone(),
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        options,
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(labels)).unwrap();
    match t.wait() {
        Err(wf_engine::IngestError::Persist(msg)) => {
            assert!(msg.contains("injected fault"), "unexpected persist error: {msg}")
        }
        other => panic!("expected a persist failure, got {other:?}"),
    }
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_some());
    assert_eq!(report.stats.persist_retries, 0, "fatal errors must not burn retries");
}

/// A writer whose base is behind the log (here: based on generation 1
/// while seqno 2 is already durable) must be refused before any byte is
/// framed — accepting its seqno-2 record would leave a frame that does not
/// chain, and every frame after it would become unrecoverable.
#[test]
fn stale_writer_is_rejected_before_any_byte_is_written() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(21);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let labels = fvl.labeler(&run).labels().to_vec();
    let (first, rest) = labels.split_at(labels.len() / 2);

    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.try_insert_labels(first).unwrap();
    let g1 = writer.publish_durable(&live, &mut durable).unwrap();
    writer.try_insert_labels(rest).unwrap();
    let g2 = writer.publish_durable(&live, &mut durable).unwrap();
    assert_eq!((g1.seqno(), g2.seqno()), (1, 2));
    let (_, log_before) = storage.contents();

    let mut stale = EngineWriter::new(g1);
    stale.try_insert_labels(rest).unwrap();
    let Err(err) = stale.publish_durable(&live, &mut durable) else {
        panic!("a stale seqno-2 publish must fail");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(stale.has_staged_changes(), "a refused publish consumes nothing");
    assert_eq!(live.seqno(), 2, "a refused publish swaps nothing");
    assert_eq!(storage.contents().1, log_before, "no byte of the stale frame was written");

    let (reopened, recovered, _) =
        DurableEngine::open(fvl, Box::new(storage.survivor()), 64).expect("store reopens");
    assert_eq!(recovered.seqno(), 2);
    assert_eq!(reopened.last_seqno(), 2);
    assert_eq!(save_bytes(&recovered), save_bytes(&g2));
}

/// A short write inside the second frame fails that publish, and the
/// append rolls the torn prefix back: the log is byte for byte what it was,
/// the staged batch survives, and retrying the publish lands it as if the
/// fault never happened.
#[test]
fn a_short_write_rolls_the_append_back_and_the_retry_lands() {
    let w = bioaid(4);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(77);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 60);
    let labels = fvl.labeler(&run).labels().to_vec();
    let (first, rest) = labels.split_at(labels.len() / 2);
    // One durable publish of `first` over `storage`.
    let publish_first = |storage: &MemStorage| {
        let (mut durable, gen0, _) =
            DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
        let live = LiveEngine::new(gen0.clone());
        let mut writer = EngineWriter::new(gen0);
        writer.try_insert_labels(first).unwrap();
        writer.publish_durable(&live, &mut durable).unwrap();
        (durable, live, writer)
    };
    let first_frame = publish_first(&MemStorage::new()).0.status().bytes;

    let cut = first_frame + 40;
    let storage = MemStorage::with_plan(FaultPlan::new().at_byte(cut, FaultKind::ShortWrite));
    let (mut durable, live, mut writer) = publish_first(&storage);
    let (_, log_before) = storage.contents();
    assert_eq!(log_before.len() as u64, first_frame);

    writer.try_insert_labels(rest).unwrap();
    let Err(err) = writer.publish_durable(&live, &mut durable) else {
        panic!("a short write must fail the publish");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    assert_eq!(storage.contents().1, log_before, "the torn prefix was rolled back");
    assert!(writer.has_staged_changes(), "a failed publish consumes nothing");
    assert_eq!(live.seqno(), 1, "a failed publish swaps nothing");

    let g2 = writer.publish_durable(&live, &mut durable).expect("the retried publish lands");
    assert_eq!((g2.seqno(), g2.store().len()), (2, labels.len()));
    assert!(storage.contents().1.len() as u64 > cut, "the fault fell inside the second frame");
    let (_, recovered, report) =
        DurableEngine::open(fvl, Box::new(storage.survivor()), 64).expect("store reopens");
    assert_eq!((recovered.seqno(), report.dropped_bytes), (2, 0));
    assert_eq!(save_bytes(&recovered), save_bytes(&g2));
}

/// `wait_timeout` bounds waiting on a stalled pipeline: `None` while the
/// op is in flight, the real outcome once the publisher gets to it.
#[test]
fn wait_timeout_bounds_stalled_waits() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let writer = EngineWriter::from_fvl(fvl);
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    // A policy that effectively never publishes on its own.
    let policy = PublishPolicy {
        max_batch_ops: usize::MAX,
        max_delay: Duration::from_secs(3600),
        ..PublishPolicy::default()
    };
    let pipeline = IngestPipeline::spawn_with(writer, live, policy, PipelineOptions::default());
    let t = pipeline
        .queue()
        .push(IngestOp::AddView(views::random_safe_view(&w, &mut StdRng::seed_from_u64(9), 3)))
        .unwrap();
    assert!(
        t.wait_timeout(Duration::from_millis(30)).is_none(),
        "an unpublished op must time out, not resolve"
    );
    // Shutdown publishes the staged op; the same ticket now resolves.
    let report = pipeline.shutdown();
    assert!(t.wait_timeout(Duration::from_millis(100)).expect("resolved").is_ok());
    assert_eq!(report.stats.op_errors, 0);
}
