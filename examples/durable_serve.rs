//! Crash-safe durable serving, end to end on real files.
//!
//! `multi_ingest` shows the pipeline framing its op-log in memory; this
//! example puts that log on real files and then attacks it, in four acts:
//!
//! 1. **Serve durably** — a [`DurableEngine`] over [`DiskStorage`] (a
//!    `base.wfs` snapshot plus a framed, checksummed, fsynced
//!    `oplog.wfl`) backs an ingest pipeline with background compaction.
//!    Every acknowledged ticket is covered by an append+fsync *before*
//!    its generation is swapped live.
//! 2. **Survive faults** — the same pipeline over a fault-injecting
//!    storage: transient I/O errors on the append path are retried with
//!    a bounded backoff (counted, acked); a fatal error resolves every
//!    in-flight ticket `Err` and surfaces in the report — never a hang,
//!    never a silent drop.
//! 3. **Crash mid-compaction** — a metered storage is killed between the
//!    base rename and the log rewrite; reopening recovers the full acked
//!    state by skipping the frames the fresh base already covers.
//! 4. **Reopen and verify** — the on-disk bytes from act 1 (plus a torn
//!    tail appended to simulate a crash mid-append) reopen to the exact
//!    acknowledged generation — answers identical, torn suffix healed,
//!    zero acked ops lost — and the recovered engine keeps serving.
//!
//! Run with: `cargo run --release --example durable_serve`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use wfprov::engine::{
    serialize_base, shared_durable, CompactionPolicy, DurableEngine, EngineWriter, IngestError,
    IngestOp, IngestPipeline, ItemId, LiveEngine, PipelineOptions, PublishPolicy, WorkerScratch,
};
use wfprov::fvl::{Fvl, VariantKind};
use wfprov::snapshot::{encode_frame, DiskStorage, FaultKind, FaultPlan, MemStorage, LOG_FILE};
use wfprov::workloads::{bioaid, sample, views};

const CHUNK: usize = 24;

fn main() {
    let w = bioaid(3);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("strictly linear-recursive"));
    let mut rng = StdRng::seed_from_u64(11);
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, 3_000);
    let pool = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 8);

    let dir = std::env::temp_dir().join(format!("wfprov-durable-serve-{}", std::process::id()));

    // --- Act 1: serve with disk durability + background compaction. -----
    let storage = DiskStorage::open(&dir).expect("storage directory");
    let (durable, gen0, report) =
        DurableEngine::open(fvl.clone(), Box::new(storage), 1024).expect("fresh open");
    assert_eq!(report.recovered_seqno, 0, "a fresh directory bootstraps empty");
    let live = Arc::new(LiveEngine::new(gen0.clone()));
    let shared = shared_durable(durable);
    let policy = PublishPolicy { max_batch_ops: 8, ..PublishPolicy::default() };
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live.clone(),
        policy,
        PipelineOptions {
            durable: Some(shared.clone()),
            // Aggressive thresholds so the demo compacts while serving.
            compaction: Some(CompactionPolicy { max_log_bytes: 1 << 15, max_log_frames: 24 }),
            ..PipelineOptions::default()
        },
    );
    let q = pipeline.queue().clone();
    let mut tickets = Vec::new();
    tickets.push(q.push(IngestOp::AddView(view.clone())).unwrap());
    tickets.push(q.push(IngestOp::CompileView(view.clone(), VariantKind::Default)).unwrap());
    for chunk in pool.chunks(CHUNK) {
        tickets.push(q.push(IngestOp::InsertLabels(chunk.to_vec())).unwrap());
    }
    for t in &tickets {
        t.wait().expect("durable pipeline acks every op");
    }
    let acked = live.snapshot();
    let report = pipeline.shutdown();
    assert!(report.persist_error.is_none());
    let totals = report.compaction.expect("compaction driver ran");
    assert!(totals.compactions >= 1, "demo thresholds must have compacted");
    println!(
        "act 1: acked {} labels over {} publishes (generation {}), {} background compaction(s) \
         reclaimed {} log bytes",
        report.stats.labels_ingested,
        report.stats.publishes,
        acked.seqno(),
        totals.compactions,
        totals.reclaimed_bytes,
    );

    // --- Act 2: fault injection on the append path. ----------------------
    // Transient faults: three consecutive injected I/O errors, absorbed by
    // retrying the append — the op is still acknowledged.
    let mem = MemStorage::with_plan(FaultPlan::new().transient_calls(0, 3));
    let (durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(mem), 1024).unwrap();
    let live2 = Arc::new(LiveEngine::new(gen0.clone()));
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live2.clone(),
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(pool[..CHUNK].to_vec())).unwrap();
    t.wait().expect("transient faults are retried, not surfaced");
    let rep = pipeline.shutdown();
    assert!(rep.stats.persist_retries >= 1);
    println!(
        "act 2: {} transient append fault(s) absorbed by retrying, op still acked",
        rep.stats.persist_retries
    );

    // A fatal fault: the pipeline gives up, the ticket resolves Err (never
    // hangs), and the report names the failure.
    let mem = MemStorage::with_plan(
        FaultPlan::new().at_call(0, FaultKind::Fail(std::io::ErrorKind::PermissionDenied)),
    );
    let (durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(mem), 1024).unwrap();
    let live3 = Arc::new(LiveEngine::new(gen0.clone()));
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live3,
        PublishPolicy { max_delay: Duration::from_millis(1), ..PublishPolicy::default() },
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(pool[..CHUNK].to_vec())).unwrap();
    match t.wait() {
        Err(IngestError::Persist(msg)) => {
            println!("act 2: fatal fault resolved the ticket Err({msg:?}) — no hang, no loss")
        }
        other => panic!("fatal fault must surface as a persist error, got {other:?}"),
    }
    assert!(pipeline.shutdown().persist_error.is_some());

    // --- Act 3: crash mid-compaction, recover the acked state. -----------
    // Rebuild a small durable run on a metered storage, then replay the
    // compaction with a crash injected between the base swap and the log
    // rewrite: recovery must skip the now-stale frames.
    let mem = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(mem.clone()), 1024).unwrap();
    let live4 = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.register_view(view.clone(), VariantKind::Default).unwrap();
    for chunk in pool[..8 * CHUNK].chunks(CHUNK) {
        writer.try_insert_labels(chunk).unwrap();
        writer.publish_durable(&live4, &mut durable).unwrap();
    }
    let acked_gen = live4.snapshot();
    let base = serialize_base(&acked_gen).unwrap();
    // The compaction replays replace_base (2 points: temp write, rename)
    // then replace_log; crash one point after the base rename lands.
    let crash_point = mem.points() + 2;
    mem.crash_at_point(crash_point);
    let err = durable.install_base(&base, acked_gen.seqno());
    assert!(err.is_err(), "the injected crash must interrupt the swap");
    let (_, recovered, rec) =
        DurableEngine::open(fvl.clone(), Box::new(mem.survivor()), 1024).unwrap();
    assert_eq!(recovered.seqno(), acked_gen.seqno());
    assert!(rec.stale_frames > 0, "recovery must skip the frames the new base covers");
    println!(
        "act 3: crashed mid-compaction (after the base rename); reopen skipped {} stale \
         frame(s) and recovered acked generation {}",
        rec.stale_frames,
        recovered.seqno()
    );

    // --- Act 4: reopen act 1's directory, torn tail included. ------------
    // Simulate one more crash: a half-written (never acknowledged) frame
    // appended to the on-disk log.
    let log_path = dir.join(LOG_FILE);
    let torn = encode_frame(acked.seqno() + 1, &vec![0u8; 512]);
    let mut bytes = std::fs::read(&log_path).expect("log exists");
    bytes.extend_from_slice(&torn[..torn.len() / 3]);
    std::fs::write(&log_path, &bytes).expect("append torn tail");

    let storage = DiskStorage::open(&dir).expect("reopen storage");
    let (_, recovered, rec) =
        DurableEngine::open(fvl.clone(), Box::new(storage), 1024).expect("recovery");
    assert!(rec.dropped_bytes > 0, "the torn tail must be healed");
    assert_eq!(rec.recovered_seqno, acked.seqno(), "zero acked ops lost");
    let vref =
        wfprov::engine::ViewRef { id: wfprov::engine::ViewId(0), kind: VariantKind::Default };
    let sample_items: Vec<_> = (0..acked.store().len() as u32).step_by(17).map(ItemId).collect();
    let mut ws = WorkerScratch::new();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    recovered.core().try_all_pairs_into(&mut ws, vref, &sample_items, &mut got).unwrap();
    acked.core().try_all_pairs_into(&mut ws, vref, &sample_items, &mut want).unwrap();
    assert_eq!(got, want, "recovered answers must match the acknowledged state");

    // The recovered engine keeps serving durably.
    let storage = DiskStorage::open(&dir).expect("reopen again");
    let (durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(storage), 1024).unwrap();
    let live5 = Arc::new(LiveEngine::new(gen0.clone()));
    let pipeline = IngestPipeline::spawn_with(
        EngineWriter::new(gen0),
        live5.clone(),
        PublishPolicy::default(),
        PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
    );
    let t = pipeline.queue().push(IngestOp::InsertLabels(pool[..CHUNK].to_vec())).unwrap();
    let seq = t.wait().expect("recovered pipeline keeps acking");
    pipeline.shutdown();
    println!(
        "act 4: healed a {}-byte torn tail, recovered generation {} with answers identical to \
         the acked state, and resumed durable serving at generation {seq}",
        rec.dropped_bytes, rec.recovered_seqno
    );

    let _ = std::fs::remove_dir_all(&dir);
    println!("durable serve demo complete");
}
