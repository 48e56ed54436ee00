//! `labelbench` — the repository benchmark: one command that takes a
//! workload name and a seed, builds that workload's inputs outside every
//! timer, drives the engine's public API from one load thread (a closed
//! loop with one client), checks the answers, and prints every metric by
//! name and unit.
//!
//! ```text
//! cargo run --release --manifest-path labelbench/Cargo.toml -- \
//!     --workload point_large --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload and seed with spans around every call the benchmark makes into
//! a layer and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Any failed operation makes the command exit nonzero.
//!
//! `--dir <path>` sets the work directory, where `durable_ingest` keeps its
//! storage and traced runs write their spans (default `labelbench/work`);
//! `WORKLOADS.md` records why each workload exists and which layers it
//! loads.

mod durable_ingest;
mod host;
mod multi_view;
mod point_large;
mod query;
mod stats;
mod trace;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Layer, Tracer};
use wf_analysis::ProdGraph;
use wf_core::{Fvl, RunLabeler, VariantKind};
use wf_engine::{EngineGeneration, EngineWriter, ItemId, LiveEngine, ViewRef};
use wf_model::View;
use wf_run::Run;
use wf_workloads::Workload;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("query_p50_ns", "ns"),
    ("query_p99_ns", "ns"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_label", "bytes"),
];

/// End-to-end metrics printed beside the JSON result line but left out of
/// it: some workloads lack them, or they did not repeat closely enough
/// between runs to gate on (see `WORKLOADS.md`).
pub const PRINTED_ONLY: [(&str, &str); 5] = [
    ("query_per_s", "1/s"),
    ("batch_query_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("acked_labels_per_s", "1/s"),
    ("op_failure_ratio", "ratio"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("labeler.ns_per_label", "ns"),
    ("labeler.label_bits_avg", "bits"),
    ("labeler.label_bits_max", "bits"),
    ("store.intern_ns_per_label", "ns"),
    ("store.fetch_ns", "ns"),
    ("store.resident_mb", "MiB"),
    ("store.stored_to_raw_edges", "ratio"),
    ("registry.compile_us.default", "us"),
    ("registry.compile_us.query_efficient", "us"),
    ("registry.compile_us.space_efficient", "us"),
    ("registry.view_label_kbits_avg", "kbit"),
    ("decode.visible_ns", "ns"),
    ("decode.pi_ns.default", "ns"),
    ("decode.pi_ns.query_efficient", "ns"),
    ("decode.pi_ns.space_efficient", "ns"),
    ("decode.memo_powers", "count"),
    ("decode.pooled_mats", "count"),
    ("frozen.batch_ns_per_pair", "ns"),
    ("frozen.unattributed_ns", "ns"),
    ("generation.read_ns", "ns"),
    ("generation.publishes", "count"),
    ("generation.labels_per_publish", "count"),
    ("generation.reader_p99_ns", "ns"),
    ("ingest.push_ns", "ns"),
    ("ingest.window_wait_ns", "ns"),
    ("ingest.lag_p50_us", "us"),
    ("ingest.ack_p99_us", "us"),
    ("ingest.op_errors", "count"),
    ("ingest.persist_retries", "count"),
    ("durability.open_s", "s"),
    ("durability.replayed_frames", "count"),
    ("durability.stale_frames", "count"),
    ("durability.dropped_bytes", "bytes"),
    ("durability.compactions", "count"),
    ("durability.reclaimed_mb", "MiB"),
    ("durability.disk_bytes_per_acked_label", "bytes"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.bytes_per_label", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Work directory: `durable_ingest`'s storage and the span files.
    pub dir: PathBuf,
    /// Internal: build the durable base into this directory and exit.
    pub prepare: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/work")),
        prepare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--dir" => args.dir = PathBuf::from(value()?),
            "--prepare" => args.prepare = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// The workflow every workload runs: the BioAID stand-in with its
/// fine-grained dependencies.
pub struct Scheme {
    pub workload: Workload,
    pub pg: ProdGraph,
    pub fvl: Arc<Fvl<'static>>,
}

impl Scheme {
    pub fn new() -> Result<Self, String> {
        let workload = wf_workloads::bioaid(1);
        let pg = ProdGraph::new(&workload.spec.grammar);
        let fvl = Fvl::from_arc(Arc::new(workload.spec.clone())).map_err(|e| e.to_string())?;
        Ok(Self { workload, pg, fvl: Arc::new(fvl) })
    }
}

/// An independent random stream per input of one seed.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// A stream of a workload's dataset — its runs and registered views. The
/// dataset is the same on every seed: run shape (recursion depth, label
/// length) swings store size and set-up cost far more between seeds than
/// any code change should be allowed to, so `--seed` varies the traffic and
/// the dataset stays put.
pub fn data_rng(stream: u64) -> StdRng {
    rng(1, stream)
}

/// What a run measured and checked.
pub struct Report {
    info: Vec<(String, String)>,
    metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Self {
            info: Vec::new(),
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Records a provenance fact (sizes, settings, host).
    pub fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.into(), value.to_string()));
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.metrics.insert(name, value);
    }

    /// Counts `n` failed operations, keeping the first descriptions.
    pub fn fail(&mut self, n: u64, what: impl ToString) {
        if n == 0 {
            return;
        }
        self.failed += n;
        if self.failures.len() < 20 {
            self.failures.push(format!("{n} × {}", what.to_string()));
        }
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(&PRINTED_ONLY)
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map_or("", |&(_, u)| u)
    }

    /// Prints the run: provenance, every metric with its unit, failures,
    /// then the JSON result line with the metrics `--trace` selects.
    fn print(&mut self, trace: bool) {
        if !trace {
            self.metric("op_failure_ratio", self.failed as f64 / self.attempted.max(1) as f64);
        }
        for (k, v) in &self.info {
            println!("info {k}={v}");
        }
        for (name, value) in &self.metrics {
            println!("metric {name} {value} {}", Self::unit_of(name));
        }
        for f in &self.failures {
            println!("failure {f}");
        }
        let selected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let body: Vec<String> = selected
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(v) => *v,
                    None if trace => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

/// A cold-built, published engine: every label of a run interned and every
/// view compiled.
pub struct Built {
    pub gen: Arc<EngineGeneration>,
    pub items: Vec<ItemId>,
    pub views: Vec<ViewRef>,
    /// The run's labels, kept for the label-size statistics.
    pub labeler: RunLabeler,
    /// RSS growth over `insert_labels`, MiB.
    pub insert_rss_mb: f64,
}

/// One cold build, timed as a whole: `Fvl::labeler` over the run,
/// `EngineWriter::insert_labels`, `register_view` for every view, then
/// `publish`. Each call is a span when `tr` is enabled.
fn cold_build(
    fvl: &Arc<Fvl<'static>>,
    run: &Run,
    views: &[(View, VariantKind)],
    tr: &mut Tracer,
) -> Result<(Duration, Built), String> {
    let start = Instant::now();
    let root = tr.open("setup", None);
    let labeler = tr.span("labeler.label_run", Layer::Labeler, || fvl.labeler(run));
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let rss_before = host::rss_mb();
    let items =
        tr.span("store.insert_labels", Layer::Store, || writer.try_insert_labels(labeler.labels()));
    let insert_rss_mb = host::rss_mb() - rss_before;
    let items = items.map_err(|e| format!("insert_labels: {e}"))?;
    let mut refs = Vec::with_capacity(views.len());
    for (view, kind) in views {
        let name = compile_span(*kind);
        let r = tr.span(name, Layer::Registry, || writer.register_view(view.clone(), *kind));
        refs.push(r.map_err(|e| format!("register_view: {e}"))?);
    }
    let live = LiveEngine::new(writer.base().clone());
    let gen = tr.span("generation.publish", Layer::Generation, || writer.publish(&live));
    tr.close(root);
    Ok((start.elapsed(), Built { gen, items, views: refs, labeler, insert_rss_mb }))
}

/// `count` cold builds (one when traced), each dropped before the next:
/// the set-up times in seconds and the last build.
pub fn cold_builds(
    fvl: &Arc<Fvl<'static>>,
    run: &Run,
    views: &[(View, VariantKind)],
    count: usize,
    tr: &mut Tracer,
) -> Result<(Vec<f64>, Built), String> {
    let count = if tr.is_enabled() { 1 } else { count };
    let mut times = Vec::with_capacity(count);
    let mut built = None;
    for _ in 0..count {
        drop(built.take());
        let (t, b) = cold_build(fvl, run, views, tr)?;
        times.push(t.as_secs_f64());
        built = Some(b);
    }
    Ok((times, built.expect("at least one set-up ran")))
}

/// The span name of one `register_view` by variant.
pub fn compile_span(kind: VariantKind) -> &'static str {
    match kind {
        VariantKind::Default => "registry.register_view.default",
        VariantKind::QueryEfficient => "registry.register_view.query_efficient",
        VariantKind::SpaceEfficient => "registry.register_view.space_efficient",
    }
}

/// The set-up per-layer metrics of one traced cold build that started at
/// `mark`: labeling, interning and view compilation.
pub fn report_setup_layers(
    tr: &Tracer,
    mark: usize,
    built: &Built,
    fvl: &Fvl<'_>,
    rep: &mut Report,
) {
    let setup = tr.since(mark);
    let n = built.items.len().max(1) as f64;
    let (bits_avg, bits_max) = wf_bench::label_bits_stats(fvl, built.labeler.labels());
    rep.metric("labeler.ns_per_label", trace::mean_ns(setup, "labeler.label_run") / n);
    rep.metric("labeler.label_bits_avg", bits_avg);
    rep.metric("labeler.label_bits_max", bits_max as f64);
    rep.metric("store.intern_ns_per_label", trace::mean_ns(setup, "store.insert_labels") / n);
    rep.metric("store.resident_mb", built.insert_rss_mb);
    let (stored, raw) = built.gen.store().edge_stats();
    rep.metric("store.stored_to_raw_edges", stored as f64 / raw.max(1) as f64);
    for (metric, kind) in [
        ("registry.compile_us.default", VariantKind::Default),
        ("registry.compile_us.query_efficient", VariantKind::QueryEfficient),
        ("registry.compile_us.space_efficient", VariantKind::SpaceEfficient),
    ] {
        rep.metric(metric, trace::mean_ns(setup, compile_span(kind)) / 1e3);
    }
    let bits: Vec<usize> = built
        .views
        .iter()
        .filter_map(|&v| built.gen.registry().label(v).map(|l| l.size_bits()))
        .collect();
    let avg = bits.iter().sum::<usize>() as f64 / bits.len().max(1) as f64;
    rep.metric("registry.view_label_kbits_avg", avg / 1e3);
    print_rollup("setup", tr, mark, rep);
}

/// `setup_s` as the median of one run's set-ups, with the samples recorded
/// beside it.
pub fn report_setup(times: &[f64], rep: &mut Report) {
    rep.metric("setup_s", stats::median(times));
    let samples: Vec<String> = times.iter().map(|t| format!("{t:.4}")).collect();
    rep.info("setup_samples_s", samples.join(","));
}

/// Saves the served generation: `stored_bytes_per_label` untraced, the
/// snapshot layer's metrics traced.
pub fn report_save(
    gen: &EngineGeneration,
    tr: &mut Tracer,
    rep: &mut Report,
) -> Result<(), String> {
    let mark = tr.mark();
    let root = tr.open("save", None);
    let mut bytes = Vec::new();
    let saved = tr.span("snapshot.save", Layer::Snapshot, || gen.save(&mut bytes));
    tr.close(root);
    saved.map_err(|e| format!("save: {e}"))?;
    let per_label = bytes.len() as f64 / gen.store().len().max(1) as f64;
    if tr.is_enabled() {
        rep.metric("snapshot.save_ms", trace::mean_ns(tr.since(mark), "snapshot.save") / 1e6);
        rep.metric("snapshot.bytes_per_label", per_label);
        print_rollup("save", tr, mark, rep);
    } else {
        rep.metric("stored_bytes_per_label", per_label);
    }
    Ok(())
}

/// Prints one traced phase's per-layer self times and checks that they
/// reconcile with its traced total.
pub fn print_rollup(phase: &str, tr: &Tracer, mark: usize, rep: &mut Report) {
    let r = tr.rollup_since(mark);
    for l in Layer::ALL {
        if r.layer(l) > 0 {
            println!(
                "self {phase} {} {} ns {:.2}%",
                l.name(),
                r.layer(l),
                100.0 * r.layer(l) as f64 / r.total_ns.max(1) as f64
            );
        }
    }
    println!(
        "self {phase} unattributed {} ns {:.2}%  (traced total {} ns over {} requests)",
        r.unattributed_ns,
        100.0 * r.unattributed_ns as f64 / r.total_ns.max(1) as f64,
        r.total_ns,
        r.requests
    );
    if let Err(e) = r.reconcile() {
        rep.fail(1, format!("{phase}: trace does not reconcile: {e}"));
    }
}

/// Records `trace.overhead_pct` of a traced phase from its mean traced and
/// untraced request times, and fails the run when it is below
/// [`trace::OVERHEAD_MIN_PCT`] or above `max_pct`.
pub fn report_overhead(
    phase: &str,
    traced_ns: f64,
    untraced_ns: f64,
    max_pct: f64,
    rep: &mut Report,
) {
    let pct = trace::overhead_pct(traced_ns, untraced_ns);
    println!("overhead {phase} traced {traced_ns:.1} ns untraced {untraced_ns:.1} ns per request");
    if let Err(e) = trace::check_overhead(pct, max_pct) {
        rep.fail(1, format!("{phase}: {e}"));
    }
    if pct.is_finite() {
        rep.metric("trace.overhead_pct", pct);
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("labelbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.prepare {
        if let Err(e) = durable_ingest::prepare(dir) {
            eprintln!("labelbench: preparing {}: {e}", dir.display());
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = std::fs::create_dir_all(&args.dir) {
        eprintln!("labelbench: {}: {e}", args.dir.display());
        std::process::exit(1);
    }
    let mut rep = Report::new();
    rep.info("workload", &args.workload);
    rep.info("seed", args.seed);
    rep.info("seconds", args.seconds);
    rep.info("trace", u8::from(args.trace));
    let mut tr = if args.trace { Tracer::new() } else { Tracer::disabled() };
    let outcome = match args.workload.as_str() {
        "point_large" => point_large::run(&args, &mut tr, &mut rep),
        "multi_view" => multi_view::run(&args, &mut tr, &mut rep),
        "durable_ingest" => durable_ingest::run(&args, &mut tr, &mut rep),
        other => {
            Err(format!("unknown workload {other:?} (point_large, multi_view or durable_ingest)"))
        }
    };
    if let Err(e) = outcome {
        eprintln!("labelbench: {e}");
        std::process::exit(1);
    }
    if args.trace {
        let path = args.dir.join(format!("trace-{}.tsv", args.workload));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            tr.write_tsv(&mut out)?;
            out.flush()
        });
        match written {
            Ok(()) => rep.info("spans", format!("{} in {}", tr.spans().len(), path.display())),
            Err(e) => rep.fail(1, format!("writing {}: {e}", path.display())),
        }
    }
    rep.print(args.trace);
    if rep.failed > 0 {
        std::process::exit(1);
    }
}
