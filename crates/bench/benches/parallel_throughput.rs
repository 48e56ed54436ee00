//! Serving throughput: the per-call and session reference paths, and
//! `EngineCore::try_query_batch_into` over 1/2/4/8 worker scratches, across
//! the three §6.3 variants. One scratch answers the batch inline; more
//! split it into one contiguous chunk per scratch on `std::thread::scope`
//! workers.
//!
//! The run writes `BENCH_parallel_throughput.txt` (workspace root). Per
//! variant it reports two reference latencies over the same hot-key pairs:
//!
//! * `per_call_ns` — `Fvl::query`, which builds a fresh scratch (matrix
//!   pool, search masks, chain power caches) on every query;
//! * `session_ns` — one [`wf_core::FvlSession`], which reuses its scratch.
//!
//! The decode context is three references and caches nothing, so both
//! paths, and the batch, search every Space-Efficient matrix at query time
//! (§6.3); only the scratch's warmth differs.
//!
//! and two rates per (variant, threads) point:
//!
//! * `wall_qps` — total queries / wall seconds. This is end-to-end
//!   throughput, and is bounded above by the host's core count: a 1-core
//!   CI box shows a flat wall curve no matter how good the code is.
//! * `aggregate_qps` — `threads × (queries / process-CPU-second)`. Each
//!   worker owns a contiguous shard and runs lock-free, so per-CPU-second
//!   efficiency times the worker count is the throughput the read path
//!   sustains when every worker has a core of its own; on a host with
//!   ≥ `threads` cores the two rates coincide (up to memory bandwidth).
//!   `host_cores` is recorded so readers can tell which regime a number
//!   was measured in.
//!
//! `bench_check` gates the scaling curve and, for every variant, the
//! one-scratch batch at or under the per-call latency: the batch reuses one
//! warmed scratch, so losing to per-call fresh scratches would be a
//! regression of the serving layer.
//!
//! Before anything is timed, the one-scratch batch and the session must
//! equal `Fvl::query` on every pair, and every fanned-out result must equal
//! the one-scratch batch — the numbers are for the *same answers*.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use wf_bench::report::{host_cores, Report};
use wf_bench::{ns_per, process_cpu_ns, Bench};
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
use wf_workloads::queries::{sample_pairs, PairDist};

const PAIRS: usize = 8192;
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn scratches(count: usize) -> Vec<WorkerScratch> {
    (0..count).map(|_| WorkerScratch::new()).collect()
}

/// Wall + (if available) CPU time of `rounds` runs of `f`, as
/// `(wall_ns, Some(cpu_ns))`. `None` when the platform has no process CPU
/// clock — callers must then *not* extrapolate per-core rates.
fn timed(rounds: usize, mut f: impl FnMut()) -> (f64, Option<f64>) {
    let cpu0 = process_cpu_ns();
    let t = Instant::now();
    for _ in 0..rounds {
        f();
    }
    let wall = t.elapsed().as_secs_f64() * 1e9;
    let cpu = match (cpu0, process_cpu_ns()) {
        (Some(a), Some(b)) => Some((b - a) as f64),
        _ => None,
    };
    (wall, cpu)
}

fn main() {
    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let run = bench.run_of(42, 8_000);
    let labeler = fvl.labeler(&run);
    let labels = labeler.labels();
    let view = bench.safe_view(7, 8);

    let mut rng = StdRng::seed_from_u64(9);
    let dist = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
    let pairs = sample_pairs(&run, &mut rng, PAIRS, dist);

    let variants = [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labels).unwrap();
    let vid = writer.add_view(view.clone());
    let vrefs = variants.map(|kind| writer.compile(vid, kind).unwrap());
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    let mut rep = Report::new("parallel_throughput");
    rep.metric("pairs", PAIRS as f64);
    rep.metric("host_cores", host_cores() as f64);
    // Whether aggregate_qps figures below are CPU-normalized (true) or a
    // wall-rate fallback (false, no process CPU clock): bench_check only
    // trusts the aggregate gate on a small host when this is true.
    rep.info("cpu_clock", process_cpu_ns().is_some());
    rep.info("unit", "queries_per_sec");
    rep.info(
        "metric_note",
        "per_call_ns = ns per Fvl::query (fresh scratch per call), session_ns = ns per query \
         through one FvlSession. aggregate_qps = threads x queries/process-CPU-second (lock-free \
         shards, so this is the rate with one core per worker; equals wall_qps when host_cores \
         >= threads). wall_qps is end-to-end and capped by host_cores.",
    );

    for (kind, vref) in variants.into_iter().zip(vrefs) {
        let vl = fvl.label_view(&view, kind).unwrap();
        let pair_labels = |i: usize| {
            let (a, b) = pairs[i];
            (&labels[a.0 as usize], &labels[b.0 as usize])
        };

        // Guards: the one-scratch batch and a session must agree with the
        // reference on every pair, and every scratch count must reproduce
        // the one-scratch batch exactly, before any number is reported.
        let (mut sequential, mut out) = (Vec::new(), Vec::new());
        core.try_query_batch_into(&mut WorkerScratch::new(), vref, &id_pairs, &mut sequential)
            .unwrap();
        let mut session = fvl.session(&vl);
        for (i, &answer) in sequential.iter().enumerate() {
            let (a, b) = pair_labels(i);
            let reference = fvl.query(&vl, a, b);
            assert_eq!(answer, reference, "{kind:?} batch diverges at pair {i}");
            assert_eq!(session.query(a, b), reference, "{kind:?} session diverges at pair {i}");
        }
        for threads in THREADS {
            core.try_query_batch_into(&mut scratches(threads), vref, &id_pairs, &mut out).unwrap();
            assert_eq!(out, sequential, "{kind:?} x{threads} diverges from the one-scratch batch");
        }

        let per_call_ns = ns_per(pairs.len(), |i| {
            let (a, b) = pair_labels(i);
            fvl.query(&vl, a, b)
        });
        let session_ns = ns_per(pairs.len(), |i| {
            let (a, b) = pair_labels(i);
            session.query(a, b)
        });
        rep.metric(&format!("variants.{kind:?}.per_call_ns"), per_call_ns);
        rep.metric(&format!("variants.{kind:?}.session_ns"), session_ns);

        let mut agg_by_threads = Vec::new();
        for &threads in &THREADS {
            // Persistent per-worker scratches: the steady-state serving
            // shape, where pools and chain-power memos stay warm across
            // batches instead of re-warming on every call.
            let mut workers = scratches(threads);
            let mut batch = || {
                core.try_query_batch_into(&mut workers, vref, &id_pairs, &mut out).unwrap();
                std::hint::black_box(&out);
            };
            // Warm-up batch (settles scratches, shared trie, predictors).
            batch();
            // Adaptive rounds: enough to dominate clock noise (>= ~0.2 s
            // wall), few enough to keep the CI smoke fast.
            let (w1, _) = timed(1, &mut batch);
            let rounds = ((2e8 / w1.max(1.0)).ceil() as usize).clamp(2, 256);
            let (wall_ns, cpu_ns) = timed(rounds, &mut batch);
            let queries = (rounds * PAIRS) as f64;
            let wall_qps = queries / (wall_ns / 1e9);
            // Without a CPU clock there is no honest per-core rate to
            // extrapolate from: report the measured wall rate as the
            // aggregate rather than fabricating scaling.
            let (cpu_qps, aggregate_qps) = match cpu_ns {
                Some(cpu) => {
                    let per_cpu = queries / (cpu / 1e9);
                    (per_cpu, per_cpu * threads as f64)
                }
                None => (wall_qps, wall_qps),
            };
            agg_by_threads.push(aggregate_qps);
            let at = |field: &str| format!("variants.{kind:?}.{threads}.{field}");
            rep.metric(&at("wall_qps"), wall_qps);
            rep.metric(&at("cpu_qps"), cpu_qps);
            rep.metric(&at("aggregate_qps"), aggregate_qps);
        }
        rep.metric(
            &format!("variants.{kind:?}.aggregate_speedup_4v1"),
            agg_by_threads[2] / agg_by_threads[0],
        );
    }
    rep.write();
}
