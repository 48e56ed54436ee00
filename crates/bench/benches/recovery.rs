//! Recovery economics: what background compaction buys a restarting
//! process, and what a torn tail costs.
//!
//! The durable layer gives two restart paths over the same acknowledged
//! state (10^5 items here):
//!
//! * **full-log replay** — a bootstrap-empty base plus the entire op-log:
//!   recovery re-decodes every delta frame and re-applies it through the
//!   copy-on-write staging path, one publish at a time;
//! * **post-compaction recovery** — the head folded into a fresh base
//!   snapshot (write-temp → fsync → atomic rename) with only the
//!   uncovered log suffix left to replay: recovery bulk-loads the
//!   trie-interned base image.
//!
//! Replay pays the raw wire-form decode plus per-frame seqno/fingerprint
//! checks and per-publish shard copies; the base image loads interned and
//! already compiled. The gap is the replay-cost budget the compaction
//! policy's thresholds spend — `bench_check` asserts compacted recovery
//! ≥ 3× faster, so an accidental regression in either path fails CI.
//!
//! A third row tears the log mid-frame (a crash inside an unacknowledged
//! append) and asserts recovery heals it losing **zero acknowledged
//! ops** (`acked_ops_lost` is gated to 0).
//!
//! Writes `BENCH_recovery.txt` (workspace root); CI regenerates it in
//! `--test` mode and `bench_check` gates the claims above.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use wf_analysis::ProdGraph;
use wf_bench::report::Report;
use wf_core::{Fvl, VariantKind};
use wf_engine::{serialize_base, DurableEngine, EngineWriter, LiveEngine, RecoveryReport};
use wf_snapshot::{encode_frame, MemStorage};
use wf_workloads::{sample, synthetic, views, SynthParams};

/// Labels in the acknowledged state (the 10^5-item recovery point).
const ITEMS: usize = 100_000;
/// Publishes the log is divided into (one frame each) — 16 labels per
/// frame, the granularity the ingest pipeline's chunked ops actually
/// produce (16-label chunks, small publish batches).
const PUBLISHES: usize = 6_250;

/// Minimum-of-`repeats` open time in milliseconds, plus the last report.
fn open_ms(
    fvl: &Arc<Fvl<'static>>,
    base: &Option<Vec<u8>>,
    log: &[u8],
    repeats: usize,
) -> (f64, RecoveryReport) {
    let mut best = f64::INFINITY;
    let mut last = RecoveryReport::default();
    for _ in 0..repeats {
        let storage = MemStorage::with_state(base.clone(), log.to_vec());
        let t = Instant::now();
        let (_, gen, report) =
            DurableEngine::open(fvl.clone(), Box::new(storage), 1024).expect("recovery succeeds");
        let elapsed = t.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(gen);
        best = best.min(elapsed);
        last = report;
    }
    (best, last)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    let repeats = if quick { 3 } else { 7 };

    // The deep synthetic family: long nesting chains give labels with
    // long, heavily shared paths — the shape where the base's merged trie
    // (each prefix stored once) and the log's raw per-label wire paths
    // genuinely differ, as they do for recursion-heavy §6.5 workloads.
    let w = synthetic(&SynthParams { nesting_depth: 8, ..SynthParams::default() });
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(42);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 5_000);
    let pool = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut StdRng::seed_from_u64(7), 8);

    // --- Build the acknowledged run: PUBLISHES framed appends. ----------
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 1024).expect("bootstrap");
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.register_view(view, VariantKind::Default).expect("bench view compiles");
    let per = ITEMS / PUBLISHES;
    let mut pool_iter = pool.iter().cycle();
    for _ in 0..PUBLISHES {
        for _ in 0..per {
            writer.try_insert_label(pool_iter.next().expect("pool cycles")).unwrap();
        }
        writer.publish_durable(&live, &mut durable).expect("in-memory append");
    }
    let final_gen = live.snapshot();
    let (boot_base, full_log) = storage.contents();
    let log_bytes = full_log.len();

    // --- Path 1: full-log replay from the bootstrap base. ---------------
    let (full_ms, full_report) = open_ms(&fvl, &boot_base, &full_log, repeats);
    assert_eq!(full_report.recovered_seqno, final_gen.seqno());

    // --- Path 2: compact, then recover from the fresh base. -------------
    let base = serialize_base(&final_gen).expect("base serializes");
    let stats = durable
        .install_base(&base, final_gen.seqno())
        .expect("atomic swap")
        .expect("covers new seqnos");
    let (compact_base, compact_log) = storage.contents();
    let (compact_ms, compact_report) = open_ms(&fvl, &compact_base, &compact_log, repeats);
    assert_eq!(compact_report.recovered_seqno, final_gen.seqno());
    let speedup = full_ms / compact_ms;

    // --- Path 3: a torn tail (crash mid-append, op never acked). --------
    let unacked = encode_frame(final_gen.seqno() + 1, &vec![0xA5u8; 4096]);
    let mut torn_log = full_log.clone();
    torn_log.extend_from_slice(&unacked[..unacked.len() / 2]);
    let (torn_ms, torn_report) = open_ms(&fvl, &boot_base, &torn_log, 1.max(repeats / 2));
    assert!(torn_report.dropped_bytes > 0, "the torn suffix must be healed");
    // Every *acknowledged* op survives; only the torn unacked frame drops.
    let acked_ops_lost = final_gen.seqno().saturating_sub(torn_report.recovered_seqno);

    let mut rep = Report::new("recovery");
    rep.metric("items", ITEMS as f64);
    rep.metric("publishes", PUBLISHES as f64);
    rep.metric("log_bytes", log_bytes as f64);
    rep.metric("base_bytes", base.len() as f64);
    rep.info(
        "metric_note",
        format!(
            "One durable run: {ITEMS} labels acknowledged across {PUBLISHES} framed op-log \
             appends (one compiled view). full_replay reopens from the bootstrap base plus the \
             whole log (per-frame decode + copy-on-write apply); compacted reopens after \
             install_base folded the head into a fresh trie-interned base image (atomic \
             rename), log truncated to the covered point. torn_tail appends half an \
             unacknowledged frame to the full log: recovery must heal it (dropped_bytes > 0) \
             losing zero acked ops. Times are min-of-{repeats} DurableEngine::open calls over \
             in-memory storage — pure recovery-compute, no disk variance."
        ),
    );
    rep.metric("full_replay.ms", full_ms);
    rep.metric("full_replay.frames", full_report.replayed_frames as f64);
    rep.metric("full_replay.recovered_seqno", full_report.recovered_seqno as f64);
    rep.metric("compacted.ms", compact_ms);
    rep.metric("compacted.frames", compact_report.replayed_frames as f64);
    rep.metric("compacted.reclaimed_bytes", stats.reclaimed_bytes as f64);
    rep.metric("compacted.recovered_seqno", compact_report.recovered_seqno as f64);
    rep.metric("speedup_compacted_vs_full", speedup);
    rep.metric("torn_tail.ms", torn_ms);
    rep.metric("torn_tail.dropped_bytes", torn_report.dropped_bytes as f64);
    rep.metric("torn_tail.acked_seqno", final_gen.seqno() as f64);
    rep.metric("torn_tail.recovered_seqno", torn_report.recovered_seqno as f64);
    rep.metric("torn_tail.acked_ops_lost", acked_ops_lost as f64);
    rep.write();
}
