//! Figure 26 at production scale: the query path swept 10⁴ → 10⁵ → 10⁶
//! items with tail-latency SLOs, not just means, and the restart economics
//! at every size.
//!
//! The paper's §6.5 scalability experiment sweeps workflow size and plots
//! labeling/query cost curves; our publish-side benches already cover 10⁶
//! items but the *query* path had only been measured at 8k pairs and
//! reported as a mean. This sweep drives a real engine at each size
//! through:
//!
//! * `seq_query_ns` — per-query latency (mean/p50/p95/p99/p999/max via
//!   [`wf_bench::LatencyHistogram`]) of the batched sequential path, one
//!   `Instant` pair per query, hot-key pair mix over the full population;
//! * `par_query_ns` — the same workload fanned out across `par_workers`
//!   scoped threads sharing one frozen [`wf_engine::EngineCore`], each
//!   worker recording into its own histogram, merged after the join
//!   (`host_cores` is recorded: on a box with fewer cores than workers the
//!   tail reflects time-slicing, which is exactly what an SLO on a small
//!   host looks like);
//! * restart economics — §6.1 reports labeling time apart from query time
//!   because labels are computed once; a snapshot is what lets a serving
//!   process bank that cost across restarts. `cold_build_ms` (FVL-label
//!   the sampled run, intern every label, compile all three §6.3 variants
//!   of the view, publish, free the labels) vs `save_ms`/`warm_load_ms`
//!   (snapshot round-trip through [`wf_engine::EngineGeneration::save`]/
//!   `load`, which restores interned labels and compiled view labels
//!   without relabeling). Each is the median of `repeats` timings; cold
//!   builds and warm loads alternate, and the generation each one returns
//!   is dropped after its timer stops. Warm answers are spot-checked
//!   against cold ones for every variant;
//! * memory — `rss_bytes` (`VmRSS`) after each size's first build, plus
//!   the process-wide `peak_rss_bytes` (`VmHWM`) after the largest.
//!
//! Writes `BENCH_scale_sweep.txt` (workspace root); `--test` shrinks the
//! sweep to a 10⁴ top size for CI's bench-smoke. `bench_check` gates warm
//! ≤ cold at every size.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use wf_bench::report::{host_cores, Report};
use wf_bench::{current_rss_bytes, ms, peak_rss_bytes, Bench, LatencyHistogram};
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineGeneration, EngineWriter, ItemId, LiveEngine, WorkerScratch};

/// Parallel fan-out width (recorded in the report next to `host_cores`).
const PAR_WORKERS: usize = 4;
/// Timings behind each median restart figure.
const REPEATS: usize = 5;

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

/// One measured sweep point.
struct SweepRow {
    items: usize,
    cold_build_ms: f64,
    seq: LatencyHistogram,
    seq_qps: f64,
    par: LatencyHistogram,
    par_wall_qps: f64,
    save_ms: f64,
    warm_load_ms: f64,
    snapshot_bytes: usize,
    rss_bytes: u64,
}

/// Hot-key query mix over the interned population: half the endpoints from
/// a 64-item hot set, half uniform — the same distribution the
/// parallel-throughput bench serves.
fn query_pairs(rng: &mut StdRng, items: &[ItemId], count: usize) -> Vec<(ItemId, ItemId)> {
    let hot = items.len().min(64);
    (0..count)
        .map(|_| {
            let draw = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    items[rng.gen_range(0..hot)]
                } else {
                    items[rng.gen_range(0..items.len())]
                }
            };
            (draw(rng), draw(rng))
        })
        .collect()
}

/// The middle value of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::args().any(|a| a == "--test");
    // Full mode is the committed Figure 26 axis; quick keeps the same
    // 3-point monotone shape with a 10⁴ top size for CI's bench-smoke.
    let sizes: &[usize] =
        if quick { &[1_000, 4_000, 10_000] } else { &[10_000, 100_000, 1_000_000] };
    let queries = if quick { 4_000 } else { 20_000 };

    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let view = bench.safe_view(7, 8);

    let mut rows: Vec<SweepRow> = Vec::new();

    for &size in sizes {
        // A real run of this size — sampled outside the cold-build timer
        // (the provenance already exists when a server starts; what a cold
        // start must repeat is labeling + interning + compiling).
        let run = bench.run_of(42 + size as u64, size);

        // --- Cold build: label the run, intern every label, compile every
        // variant, publish. The labels are freed inside the build, as a
        // load frees its decode tables inside the load; only each path's
        // result, a generation, is dropped outside its timer. -------------
        let build_cold = || {
            let labeler = fvl.labeler(&run);
            let mut writer = EngineWriter::from_fvl(fvl.clone());
            let items = writer.try_insert_labels(labeler.labels()).unwrap();
            let vid = writer.add_view(view.clone());
            let vrefs = VARIANTS.map(|kind| writer.compile(vid, kind).unwrap());
            (writer.publish(&LiveEngine::new(writer.base().clone())), items, vrefs)
        };
        let (engine, items, vrefs) = build_cold();
        let size = items.len(); // the sampler lands near, not on, the target
        let rss_bytes = current_rss_bytes().unwrap_or(0);
        let vref = vrefs[1]; // Default, the variant the latency histograms time

        let pairs = query_pairs(&mut StdRng::seed_from_u64(9), &items, queries);

        // --- Sequential per-query latency. ------------------------------
        let core = engine.core();
        let mut ws = WorkerScratch::new();
        // Warm the scratch (pool, chain memo, store caches) untimed.
        for &(a, b) in pairs.iter().take(256) {
            std::hint::black_box(core.try_query(&mut ws, vref, a, b).unwrap());
        }
        let mut seq = LatencyHistogram::new();
        let t_seq = Instant::now();
        for &(a, b) in &pairs {
            let t = Instant::now();
            std::hint::black_box(core.try_query(&mut ws, vref, a, b).unwrap());
            seq.record(t.elapsed().as_nanos() as u64);
        }
        let seq_qps = pairs.len() as f64 / t_seq.elapsed().as_secs_f64();

        // --- Parallel per-query latency: PAR_WORKERS scoped threads over
        // one shared frozen core, per-worker histograms merged after the
        // join (bucket-exact, see LatencyHistogram::merge). --------------
        let chunk = pairs.len().div_ceil(PAR_WORKERS);
        let t_par = Instant::now();
        let worker_hists = std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|shard| {
                    s.spawn(move || {
                        let mut ws = WorkerScratch::new();
                        let mut h = LatencyHistogram::new();
                        for &(a, b) in shard {
                            let t = Instant::now();
                            std::hint::black_box(core.try_query(&mut ws, vref, a, b).unwrap());
                            h.record(t.elapsed().as_nanos() as u64);
                        }
                        h
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect::<Vec<_>>()
        });
        let par_wall_qps = pairs.len() as f64 / t_par.elapsed().as_secs_f64();
        let mut par = LatencyHistogram::new();
        for h in &worker_hists {
            par.merge(h);
        }

        // --- Warm restart: snapshot round-trip vs the cold build, medians
        // of REPEATS, cold and warm alternating. --------------------------
        let mut snapshot = Vec::new();
        let save_ms = median(
            (0..REPEATS)
                .map(|_| {
                    snapshot = Vec::new();
                    ms(|| engine.save(&mut snapshot).unwrap())
                })
                .collect(),
        );
        let load = || EngineGeneration::load(fvl.clone(), &mut snapshot.as_slice()).unwrap();
        // Spot-check: the restarted generation answers exactly like the
        // cold one, for every variant, on a slice of the workload. The
        // snapshot carries the compiled labels: `vrefs` are valid as is.
        let warm = load();
        let probe = &pairs[..pairs.len().min(200)];
        let (mut warm_answers, mut cold_answers) = (Vec::new(), Vec::new());
        for vref in vrefs {
            warm.core().try_query_batch_into(&mut ws, vref, probe, &mut warm_answers).unwrap();
            core.try_query_batch_into(&mut ws, vref, probe, &mut cold_answers).unwrap();
            assert_eq!(
                warm_answers, cold_answers,
                "{:?}: warm restart must answer identically at size {size}",
                vref.kind
            );
        }
        drop(warm);
        let (mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new());
        for _ in 0..REPEATS {
            let mut cold = None;
            cold_ms.push(ms(|| cold = Some(build_cold())));
            drop(cold);
            let mut warm = None;
            warm_ms.push(ms(|| warm = Some(load())));
            drop(warm);
        }

        rows.push(SweepRow {
            items: size,
            cold_build_ms: median(cold_ms),
            seq,
            seq_qps,
            par,
            par_wall_qps,
            save_ms,
            warm_load_ms: median(warm_ms),
            snapshot_bytes: snapshot.len(),
            rss_bytes,
        });
    }

    let peak_rss = peak_rss_bytes().unwrap_or(0);

    let mut rep = Report::new("scale_sweep");
    rep.metric("host_cores", host_cores() as f64);
    rep.metric("par_workers", PAR_WORKERS as f64);
    rep.metric("queries_per_size", queries as f64);
    rep.metric("variants_compiled", VARIANTS.len() as f64);
    rep.metric("repeats", REPEATS as f64);
    rep.info(
        "metric_note",
        format!(
            "Figure 26-style scale sweep over real sampled runs. Per size: cold_build_ms = \
             FVL-label the run + intern every label + compile all three variants of the view + \
             publish + free the labels (everything a cold start repeats; run sampling itself is \
             untimed); seq_query_ns = per-query wall latency through EngineCore::try_query \
             (hot-key mix, one WorkerScratch); par_query_ns = same workload across \
             {PAR_WORKERS} scoped workers sharing the frozen core, per-worker histograms merged \
             (on host_cores < par_workers the tail includes time-slicing, by design); \
             warm_load_ms = EngineGeneration::load \
             from a save() snapshot — no relabeling, each stored trie node copied once — \
             gated <= cold_build_ms at every size; cold_build_ms, save_ms and warm_load_ms are \
             medians of {REPEATS}, cold builds alternating with warm loads, each returned \
             generation dropped after its timer; rss_bytes = VmRSS after the first build."
        ),
    );
    for (i, row) in rows.iter().enumerate() {
        let at = |field: &str| format!("sweep.{i}.{field}");
        rep.metric(&at("items"), row.items as f64);
        rep.metric(&at("cold_build_ms"), row.cold_build_ms);
        rep.hist(&at("seq_query_ns"), &row.seq);
        rep.metric(&at("seq_qps"), row.seq_qps);
        rep.hist(&at("par_query_ns"), &row.par);
        rep.metric(&at("par_wall_qps"), row.par_wall_qps);
        rep.metric(&at("save_ms"), row.save_ms);
        rep.metric(&at("warm_load_ms"), row.warm_load_ms);
        rep.metric(&at("warm_vs_cold_speedup"), row.cold_build_ms / row.warm_load_ms.max(0.001));
        rep.metric(&at("snapshot_bytes"), row.snapshot_bytes as f64);
        rep.metric(&at("rss_bytes"), row.rss_bytes as f64);
    }
    rep.metric("peak_rss_bytes", peak_rss as f64);
    rep.write();
}
