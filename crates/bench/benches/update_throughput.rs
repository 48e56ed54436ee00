//! Live-update serving: what publishing costs the writer — across store
//! sizes from 4k to 10⁶ items — and what it costs the *readers*, which,
//! with RCU-style generations over a sharded store, should be
//! approximately nothing at every size.
//!
//! The headline claim under test is the sharded copy-on-write store's cost
//! model: a publish stages against a clone that shares every shard with
//! the served generation and un-shares only the tail shard(s) the insert
//! batch lands in, so publish latency tracks the *increment* (touched
//! shards), not the store size. The sweep measures, per store size:
//!
//! * `publish_ns` — one stage-and-publish cycle (stage a 16-label chunk,
//!   freeze, Arc-swap) on the sharded store: mean / p50 / p95 / p99 /
//!   p999 / max and the cycle count over ≥100 cycles (fixed-bucket
//!   histogram, `wf_bench::LatencyHistogram`), plus the mean number of
//!   shards each cycle touched.
//! * `publish_baseline_ns` — the same cycles against a store built with
//!   `shard_capacity = u32::MAX`: one ever-growing shard, i.e. exactly
//!   the pre-shard (PR 5) store whose clone is O(n). This column is the
//!   recorded linear baseline the flat sharded column is judged against.
//! * `publish_skewed_ns` — publish cycles whose insert sizes come from
//!   `wf_workloads::churn::InsertLocality::Skewed` (log-uniform bursts up
//!   to 512 × chunk): bursty ingest spans several shards per publish, so
//!   the touched-shards axis moves while total size does not matter.
//! * `reader_qps` — sustained single-reader throughput (batched queries
//!   through the lock-free `LiveEngine::read` fast path) while the writer
//!   publishes at 0 Hz and 1 Hz. The read path takes no lock and the swap
//!   is O(directory), so 1 Hz must sit within a few percent of 0 Hz at
//!   *every* size (`qps_ratio_1hz_vs_0hz`).
//!
//! The run writes `BENCH_update_throughput.txt` (workspace root); CI's
//! bench-smoke step regenerates it in `--test` mode and `bench_check`
//! asserts the sweep shape plus the scaling sanity bound (sharded publish
//! p50 at the largest size ≤ 3× the smallest — an accidental O(n)
//! regression fails CI even on a noisy one-core container).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_bench::report::{host_cores, Report};
use wf_bench::{Bench, LatencyHistogram};
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_engine::{EngineWriter, ItemId, LabelStore, LiveEngine, ViewRef, WorkerScratch};
use wf_workloads::churn::{ChurnOp, ChurnSpec, InsertLocality};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CHUNK: usize = 16;
const BATCH: usize = 1024;
const BURST: usize = 512;

/// One measured sweep point.
struct SweepRow {
    items: usize,
    shards: usize,
    publish: LatencyHistogram,
    publish_touched_mean: f64,
    baseline: LatencyHistogram,
    skewed: LatencyHistogram,
    skewed_touched_mean: f64,
    /// `(rate_hz, best qps, publishes in the best trial)`.
    qps: Vec<(u64, f64, u64)>,
}

/// Stage `count` labels from the cycling pool and publish; returns
/// `(latency_ns, shards touched)`.
fn publish_cycle<'a>(
    writer: &mut EngineWriter,
    live: &LiveEngine,
    pool: &mut impl Iterator<Item = &'a DataLabel>,
    count: usize,
) -> (u64, usize) {
    let base_len = writer.base().store().len();
    let t = Instant::now();
    for _ in 0..count {
        writer.try_insert_label(pool.next().expect("pool cycles forever")).unwrap();
    }
    let gen = writer.publish(live);
    (t.elapsed().as_nanos() as u64, gen.store().shards_touched_since(base_len))
}

/// Hot-key query pairs over the live population `0..items`.
fn reader_pairs(rng: &mut StdRng, items: usize) -> Vec<(ItemId, ItemId)> {
    let population = items as u32;
    let hot = population.min(64);
    (0..BATCH)
        .map(|_| {
            let draw = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    rng.gen_range(0..hot)
                } else {
                    rng.gen_range(0..population)
                }
            };
            (ItemId(draw(rng)), ItemId(draw(rng)))
        })
        .collect()
}

/// Best-of-`trials` reader throughput while this thread publishes at
/// `rate` Hz (0 = no publishes). Returns `(qps, publishes)` of the best
/// trial — peak-of-N is robust against the scheduling noise a sub-second
/// window picks up on a busy host, and capacity is the quantity under
/// test.
#[allow(clippy::too_many_arguments)]
fn reader_qps_at<'a>(
    writer: &mut EngineWriter,
    live: &LiveEngine,
    vref: ViewRef,
    pairs: &[(ItemId, ItemId)],
    pool: &mut impl Iterator<Item = &'a DataLabel>,
    rate: u64,
    window: Duration,
    trials: usize,
) -> (f64, u64) {
    let mut best = (0.0f64, 0u64);
    for _ in 0..trials {
        // Warm the reader path (scratch, trie, caches).
        live.read()
            .core()
            .try_query_batch_into(&mut WorkerScratch::new(), vref, pairs, &mut Vec::new())
            .unwrap();
        let stop = AtomicBool::new(false);
        let (qps, publishes) = std::thread::scope(|s| {
            let stop_ref = &stop;
            let reader = s.spawn(move || {
                let mut ws = WorkerScratch::new();
                let mut out = Vec::new();
                let mut answered = 0u64;
                while !stop_ref.load(Ordering::Relaxed) {
                    let gen = live.read();
                    gen.core().try_query_batch_into(&mut ws, vref, pairs, &mut out).unwrap();
                    std::hint::black_box(&out);
                    answered += pairs.len() as u64;
                }
                answered
            });
            let t = Instant::now();
            let mut publishes = 0u64;
            if let Some(period_ns) = 1_000_000_000u64.checked_div(rate) {
                // Publishes land at t = 0, 1/rate, 2/rate, …: every trial
                // at rate R performs exactly ⌈window·R⌉ of them.
                let period = Duration::from_nanos(period_ns);
                let mut next = Duration::ZERO;
                loop {
                    let now = t.elapsed();
                    if now >= window {
                        break;
                    }
                    if now >= next {
                        publish_cycle(writer, live, pool, CHUNK);
                        publishes += 1;
                        next += period;
                    } else {
                        std::thread::sleep(next.min(window) - now);
                    }
                }
            } else {
                // rate 0: the quiet baseline — no publisher at all.
                std::thread::sleep(window);
            }
            stop.store(true, Ordering::Relaxed);
            let answered = reader.join().expect("reader thread panicked");
            (answered as f64 / t.elapsed().as_secs_f64(), publishes)
        });
        if qps > best.0 {
            best = (qps, publishes);
        }
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    // The quick sweep still spans ≥4 sizes up to ≥256k: CI's bench-smoke
    // regenerates the report in `--test` mode, and `bench_check` asserts the
    // sweep shape on whatever the last run wrote.
    let sizes: &[usize] = if quick {
        &[4_096, 32_768, 131_072, 262_144]
    } else {
        &[4_096, 65_536, 262_144, 1_048_576]
    };
    let cycles = if quick { 100 } else { 150 };
    let window = if quick { Duration::from_millis(150) } else { Duration::from_millis(500) };
    let trials = if quick { 1 } else { 6 };
    let rates_hz: [u64; 2] = [0, 1];

    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let run = bench.run_of(42, 5_000);
    // The label pool: a real run's labels, cycled to fill any store size
    // (re-interning an already seen label is legal and realistic —
    // repeated sub-runs — and keeps pool construction out of the measured
    // path).
    let pool_labels = fvl.labeler(&run).labels().to_vec();
    let view = bench.safe_view(7, 8);

    // Skewed insert sizes, drawn once from the churn generator so the
    // bench exercises the same locality axis the workloads crate defines.
    let skew_spec = ChurnSpec {
        initial_items: 0,
        insert_weight: 1.0,
        view_weight: 0.0,
        query_weight: 0.0,
        insert_chunk: CHUNK,
        locality: InsertLocality::Skewed { burst: BURST },
        ..ChurnSpec::default()
    };
    let skew_counts: Vec<usize> =
        wf_workloads::churn::churn_stream(&mut StdRng::seed_from_u64(11), cycles, &skew_spec)
            .into_iter()
            .map(|op| match op {
                ChurnOp::Insert { count } => count,
                other => unreachable!("pure-insert mix produced {other:?}"),
            })
            .collect();

    let mut rows: Vec<SweepRow> = Vec::new();

    for &size in sizes {
        let mut pool = pool_labels.iter().cycle();
        // Sharded writer at the default capacity, filled to `size`.
        let mut writer = EngineWriter::from_fvl(fvl.clone());
        for _ in 0..size {
            writer.try_insert_label(pool.next().expect("pool cycles forever")).unwrap();
        }
        let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
        let live = LiveEngine::new(writer.base().clone());
        writer.publish(&live);
        let shards = writer.base().store().shard_count();

        // The pre-shard baseline: same labels, one unbounded shard, so
        // every staged chunk re-clones the whole store.
        let mut baseline_writer = EngineWriter::from_fvl_with_shard_capacity(fvl.clone(), u32::MAX);
        for _ in 0..size {
            baseline_writer.try_insert_label(pool.next().expect("pool cycles forever")).unwrap();
        }
        let baseline_live = LiveEngine::new(baseline_writer.base().clone());
        baseline_writer.publish(&baseline_live);

        // Reader throughput first, while the store is at exactly `size`.
        let pairs = reader_pairs(&mut StdRng::seed_from_u64(9), size);
        // Untimed warm-up window: a size's first measured windows
        // otherwise run against cold caches (and a not-yet-ramped CPU
        // governor), which depresses whichever rate happens to go first
        // — observed as a 0 Hz baseline sitting well under its own 1 Hz
        // neighbour at the smallest size.
        let _ = reader_qps_at(&mut writer, &live, vref, &pairs, &mut pool, 0, window / 2, 1);
        let qps: Vec<(u64, f64, u64)> = rates_hz
            .iter()
            .map(|&rate| {
                let (qps, publishes) = reader_qps_at(
                    &mut writer,
                    &live,
                    vref,
                    &pairs,
                    &mut pool,
                    rate,
                    window,
                    trials,
                );
                (rate, qps, publishes)
            })
            .collect();

        // Publish latency, sharded vs baseline, fixed 16-label chunks.
        let mut publish = LatencyHistogram::new();
        let mut touched_total = 0usize;
        for _ in 0..cycles {
            let (ns, touched) = publish_cycle(&mut writer, &live, &mut pool, CHUNK);
            publish.record(ns);
            touched_total += touched;
        }
        let mut baseline = LatencyHistogram::new();
        for _ in 0..cycles {
            let (ns, _) = publish_cycle(&mut baseline_writer, &baseline_live, &mut pool, CHUNK);
            baseline.record(ns);
        }

        // Publish latency under bursty (skewed-locality) ingest: the
        // touched-shards axis moves, the latency should track it.
        let mut skewed = LatencyHistogram::new();
        let mut skew_touched_total = 0usize;
        for &count in &skew_counts {
            let (ns, touched) = publish_cycle(&mut writer, &live, &mut pool, count);
            skewed.record(ns);
            skew_touched_total += touched;
        }

        rows.push(SweepRow {
            items: size,
            shards,
            publish,
            publish_touched_mean: touched_total as f64 / cycles as f64,
            baseline,
            skewed,
            skewed_touched_mean: skew_touched_total as f64 / skew_counts.len() as f64,
            qps,
        });
    }

    let mut rep = Report::new("update_throughput");
    rep.metric("shard_capacity", LabelStore::DEFAULT_SHARD_CAPACITY as f64);
    rep.metric("insert_chunk", CHUNK as f64);
    rep.metric("skew_burst", BURST as f64);
    rep.metric("batch", BATCH as f64);
    rep.metric("host_cores", host_cores() as f64);
    rep.info(
        "metric_note",
        format!(
            "Per swept store size: publish_ns = stage {CHUNK} labels + freeze + Arc swap on the \
             sharded (capacity {}) store; publish_baseline_ns = identical cycles on a \
             single-shard (capacity = u32::MAX, i.e. pre-shard O(n) clone) store; \
             publish_skewed_ns = cycles whose insert sizes are log-uniform bursts up to \
             {BURST}x chunk (InsertLocality::Skewed), moving the touched-shards axis. reader_qps \
             = one reader thread, batched hot-key queries via the lock-free LiveEngine::read \
             fast path, while the writer publishes at the keyed rate (Hz); best of {trials} \
             trial(s). Sharded p50 should stay roughly flat across sizes while the baseline \
             grows linearly.",
            LabelStore::DEFAULT_SHARD_CAPACITY
        ),
    );
    for (i, row) in rows.iter().enumerate() {
        let at = |field: &str| format!("sweep.{i}.{field}");
        rep.metric(&at("items"), row.items as f64);
        rep.metric(&at("shards"), row.shards as f64);
        rep.hist(&at("publish_ns"), &row.publish);
        rep.metric(&at("publish_touched_shards_mean"), row.publish_touched_mean);
        rep.hist(&at("publish_baseline_ns"), &row.baseline);
        rep.hist(&at("publish_skewed_ns"), &row.skewed);
        rep.metric(&at("skewed_touched_shards_mean"), row.skewed_touched_mean);
        for &(rate, qps, publishes) in &row.qps {
            rep.metric(&at(&format!("reader_qps.{rate}.qps")), qps);
            rep.metric(&at(&format!("reader_qps.{rate}.publishes")), publishes as f64);
        }
        rep.metric(&at("qps_ratio_1hz_vs_0hz"), row.qps[1].1 / row.qps[0].1);
    }
    let (first, last_row) = (&rows[0], &rows[rows.len() - 1]);
    let p50 = |h: &LatencyHistogram| h.percentile(0.5) as f64;
    rep.metric("scaling.smallest_items", first.items as f64);
    rep.metric("scaling.largest_items", last_row.items as f64);
    rep.metric(
        "scaling.publish_p50_ratio_largest_vs_smallest",
        p50(&last_row.publish) / p50(&first.publish),
    );
    rep.metric(
        "scaling.baseline_p50_ratio_largest_vs_smallest",
        p50(&last_row.baseline) / p50(&first.baseline),
    );
    rep.write();
}
