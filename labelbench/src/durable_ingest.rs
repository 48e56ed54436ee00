//! `durable_ingest`: writes beside reads — the only workload that writes.
//!
//! Untimed preparation (in a child process, so its memory peak stays out of
//! this process's `VmHWM`) leaves a `DiskStorage` directory holding a
//! compacted base of about 10^6 labels and one compiled view. Set-up is a
//! warm open of that directory. Then the load thread feeds a fresh run step
//! by step: each step goes through `RunLabeler::on_step` and becomes one
//! `IngestOp::InsertLabels`, with 32 ops in flight (below the default
//! `max_batch_ops` of 256, so publishes follow the default 2 ms
//! `max_delay`); after each step it makes 16 per-call queries on
//! `LiveEngine::read()` over the base items. Default `PublishPolicy` and
//! `CompactionPolicy`, so compaction runs in the background. A store or
//! publish change that speeds reads but costs interning, copy-on-write,
//! delta encoding or appends shows here.

use crate::query::Request;
use crate::stats::Latencies;
use crate::trace::{self, Layer, Tracer};
use crate::{data_rng, host, print_rollup, report_save, rng, Args, Report, Scheme};
use rand::Rng;
use std::collections::VecDeque;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_core::{RunLabeler, VariantKind};
use wf_engine::{
    serialize_base, shared_durable, CompactionPolicy, CompactionTotals, DurableEngine,
    EngineGeneration, EngineWriter, IngestOp, IngestPipeline, IngestQueue, IngestStats, ItemId,
    LabelStore, LiveEngine, PipelineOptions, PublishPolicy, RecoveryReport, Ticket, ViewId,
    ViewRef, WorkerScratch,
};
use wf_model::ViewSpec;
use wf_run::{DataId, Derivation, Run, RunOracle, StepId};
use wf_snapshot::{DiskStorage, BASE_FILE, LOG_FILE};
use wf_workloads::queries::{sample_pairs, PairDist};
use wf_workloads::{sample, views};

const BASE_ITEMS: usize = 1_000_000;
/// Items streamed in per second of `--seconds`: about the rate the load
/// thread sustained on a 2-vCPU Xeon guest writing to ext4, so the phase
/// lasts about `--seconds` there. The amount
/// ingested is fixed, not the time: peak memory then follows the store, not
/// the ingest speed, and a faster write path shows as a shorter phase.
const ITEMS_PER_SECOND: usize = 40_000;
/// Ops in flight (pushed, not yet waited for).
const WINDOW: usize = 32;
const READS_PER_STEP: usize = 16;
/// Steps between two traced ones; prime, so the sample does not beat
/// against the 32-op window.
const TRACE_EVERY_STEP: usize = 7;
/// Warm opens per run; `setup_s` is their median.
const SETUPS: usize = 7;
const REQUESTS: usize = 1 << 20;
const HOT: PairDist = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
/// Sampled answers checked against the brute-force oracle, per run (base
/// items and streamed items).
const ORACLE_CHECKS: usize = 32;
/// Sampled pairs the reopened store must answer like the final generation.
const RECOVERY_CHECKS: usize = 4096;
/// The one view compiled into the base.
const VIEW: ViewRef = ViewRef { id: ViewId(0), kind: VariantKind::Default };

/// Builds the durable base into `dir` (replacing an earlier one): the base
/// run's labels and the view, published once and installed as a compacted
/// base.
pub fn prepare(dir: &Path) -> Result<(), String> {
    let scheme = Scheme::new()?;
    let w = &scheme.workload;
    let (_, run) = sample::sample_run(w, &scheme.pg, &mut data_rng(1), BASE_ITEMS);
    let view = views::random_safe_view(w, &mut data_rng(2), 8);
    let labeler = scheme.fvl.labeler(&run);
    let mut writer = EngineWriter::from_fvl(scheme.fvl.clone());
    writer.try_insert_labels(labeler.labels()).map_err(|e| e.to_string())?;
    let v = writer.register_view(view, VariantKind::Default).map_err(|e| e.to_string())?;
    assert_eq!(v, VIEW, "the base's only view is view 0");
    let live = LiveEngine::new(writer.base().clone());
    let gen = writer.publish(&live);
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
    }
    let storage = DiskStorage::open(dir).map_err(|e| e.to_string())?;
    let (mut durable, _, _) = DurableEngine::open(
        scheme.fvl.clone(),
        Box::new(storage),
        LabelStore::DEFAULT_SHARD_CAPACITY,
    )
    .map_err(|e| e.to_string())?;
    let bytes = serialize_base(&gen).map_err(|e| e.to_string())?;
    durable.install_base(&bytes, gen.seqno()).map_err(|e| e.to_string())?;
    Ok(())
}

/// A warm-opened, serving, ingesting engine.
struct Opened {
    live: Arc<LiveEngine>,
    pipeline: IngestPipeline,
}

/// Warm open, timed as a whole: `DiskStorage::open`, `DurableEngine::open`
/// and `IngestPipeline::spawn_with`.
fn warm_open(scheme: &Scheme, dir: &Path, tr: &mut Tracer) -> Result<(Duration, Opened), String> {
    let start = Instant::now();
    let root = tr.open("setup", None);
    let storage = tr.span("durability.disk_open", Layer::Durability, || DiskStorage::open(dir));
    let storage = storage.map_err(|e| format!("DiskStorage::open: {e}"))?;
    let opened = tr.span("durability.open", Layer::Durability, || {
        DurableEngine::open(
            scheme.fvl.clone(),
            Box::new(storage),
            LabelStore::DEFAULT_SHARD_CAPACITY,
        )
    });
    let (durable, gen, _) = opened.map_err(|e| format!("DurableEngine::open: {e}"))?;
    let live = Arc::new(LiveEngine::new(gen.clone()));
    let options = PipelineOptions {
        durable: Some(shared_durable(durable)),
        compaction: Some(CompactionPolicy::default()),
        ..PipelineOptions::default()
    };
    let pipeline = tr.span("ingest.spawn_with", Layer::Ingest, || {
        IngestPipeline::spawn_with(
            EngineWriter::new(gen),
            live.clone(),
            PublishPolicy::default(),
            options,
        )
    });
    tr.close(root);
    Ok((start.elapsed(), Opened { live, pipeline }))
}

/// One pushed op not yet waited for.
struct InFlight {
    ticket: Ticket,
    pushed: Instant,
    labels: u64,
}

/// The load thread's state, carried across the phases of one run.
struct Stream<'a> {
    pg: &'a wf_analysis::ProdGraph,
    fresh: &'a Run,
    labeler: RunLabeler,
    /// Labels handed to the queue so far.
    pushed: usize,
    step: u32,
    window: VecDeque<InFlight>,
    queue: Arc<IngestQueue>,
    live: Arc<LiveEngine>,
    ws: WorkerScratch,
    reqs: &'a [Request],
    next_read: usize,
    /// Answers to the first pass over `reqs`.
    answers: Vec<Option<bool>>,
}

/// What one streaming phase measured: totals, the reads' `try_query`
/// latencies (alone and with their `LiveEngine::read`), and the acks'
/// push → ack latencies and ticket lags. Figures are whole-phase: background
/// compaction recurs every second or two, so short windows would alternate
/// between compacting and quiet ones.
struct StreamStats {
    steps: u64,
    reads: u64,
    acked_labels: u64,
    ops: u64,
    errors: u64,
    failed_tickets: u64,
    wall: Duration,
    query: Latencies,
    reader: Latencies,
    acks: Latencies,
    lags: Latencies,
}

impl StreamStats {
    fn new() -> Self {
        Self {
            steps: 0,
            reads: 0,
            acked_labels: 0,
            ops: 0,
            errors: 0,
            failed_tickets: 0,
            wall: Duration::ZERO,
            query: Latencies::new(),
            reader: Latencies::new(),
            acks: Latencies::new(),
            lags: Latencies::new(),
        }
    }

    /// Adds `other`'s counts (not its samples) to these.
    fn add_totals(&mut self, other: &StreamStats) {
        self.steps += other.steps;
        self.reads += other.reads;
        self.acked_labels += other.acked_labels;
        self.ops += other.ops;
        self.errors += other.errors;
        self.failed_tickets += other.failed_tickets;
    }

    fn per_s(&self, events: u64) -> f64 {
        events as f64 / self.wall.as_secs_f64()
    }
}

impl Stream<'_> {
    /// Waits for the oldest op in flight.
    fn wait_oldest(&mut self, tr: &mut Tracer, st: &mut StreamStats) {
        let Some(f) = self.window.pop_front() else { return };
        let outcome = tr.span("ingest.wait", Layer::Ingest, || f.ticket.wait());
        st.acks.record(f.pushed.elapsed().as_nanos() as u64);
        if let Some(lag) = f.ticket.lag_ns() {
            st.lags.record(lag);
        }
        match outcome {
            Ok(_) => st.acked_labels += f.labels,
            Err(_) => st.failed_tickets += 1,
        }
    }

    /// Pushes the labels made since the last push as one op, first waiting
    /// for the oldest ops while the window is full.
    fn push(&mut self, tr: &mut Tracer, st: &mut StreamStats) {
        let labels = self.labeler.labels()[self.pushed..].to_vec();
        self.pushed = self.labeler.label_count();
        while self.window.len() >= WINDOW {
            self.wait_oldest(tr, st);
        }
        let n = labels.len() as u64;
        let pushed = Instant::now();
        let ticket = tr
            .span("ingest.push", Layer::Ingest, || self.queue.push(IngestOp::InsertLabels(labels)));
        st.ops += 1;
        match ticket {
            Ok(ticket) => self.window.push_back(InFlight { ticket, pushed, labels: n }),
            Err(_) => st.errors += 1,
        }
    }

    /// One step of the run, pushed, then the reads that follow it.
    fn step(&mut self, tr: &mut Tracer, st: &mut StreamStats) {
        let root = tr.open("step", None);
        if self.pushed == 0 {
            // The start module's boundary labels go first, on their own.
            self.push(tr, st);
        }
        let step = StepId(self.step);
        tr.span("labeler.on_step", Layer::Labeler, || {
            self.labeler.on_step(self.pg, self.fresh, step)
        });
        self.step += 1;
        self.push(tr, st);
        for _ in 0..READS_PER_STEP {
            let i = self.next_read % self.reqs.len();
            self.next_read += 1;
            let (v, a, b) = self.reqs[i];
            let t_read = Instant::now();
            let gen = tr.span("generation.read", Layer::Generation, || self.live.read());
            let t0 = Instant::now();
            let call = tr.open("frozen.try_query", Some(Layer::Frozen));
            let r = std::hint::black_box(gen.core().try_query(&mut self.ws, v, a, b));
            tr.close(call);
            let t1 = Instant::now();
            st.query.record((t1 - t0).as_nanos() as u64);
            st.reader.record((t1 - t_read).as_nanos() as u64);
            match r {
                Ok(answer) if self.next_read <= self.reqs.len() => self.answers[i] = answer,
                Ok(_) => {}
                Err(_) => st.errors += 1,
            }
            st.reads += 1;
        }
        tr.close(root);
        st.steps += 1;
    }

    /// Streams the next `steps` steps of the run, then waits for every op
    /// still in flight.
    fn run(&mut self, tr: &mut Tracer, steps: u32) -> StreamStats {
        let mut st = StreamStats::new();
        let start = Instant::now();
        let end = (self.step + steps).min(self.fresh.step_count() as u32);
        let mut untraced = Tracer::disabled();
        while self.step < end {
            // Steps are traced one in TRACE_EVERY_STEP: most of their spans
            // are sub-µs reads.
            let sampled = self.step as usize % TRACE_EVERY_STEP == 0;
            self.step(if sampled { &mut *tr } else { &mut untraced }, &mut st);
        }
        while !self.window.is_empty() {
            let root = tr.open("drain", None);
            self.wait_oldest(tr, &mut st);
            tr.close(root);
        }
        st.wall = start.elapsed();
        st
    }
}

fn file_len(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name)).map_or(0, |m| m.len())
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let scheme = Scheme::new()?;
    let w = &scheme.workload;
    let dir = args.dir.join("durable");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(exe)
        .args(["--workload", "durable_ingest", "--prepare"])
        .arg(&dir)
        .status()
        .map_err(|e| format!("starting the preparation: {e}"))?;
    if !status.success() {
        return Err(format!("preparing {} failed: {status}", dir.display()));
    }

    let (_, base_run) = sample::sample_run(w, &scheme.pg, &mut data_rng(1), BASE_ITEMS);
    let view = views::random_safe_view(w, &mut data_rng(2), 8);
    let pairs = sample_pairs(&base_run, &mut rng(args.seed, 3), REQUESTS, HOT);
    // The base interned the base run's labels in order: item id = data id.
    let reqs: Vec<Request> = pairs.iter().map(|&(a, b)| (VIEW, ItemId(a.0), ItemId(b.0))).collect();
    let items = ITEMS_PER_SECOND * args.seconds as usize;
    let (derivation, fresh) = sample::sample_run(w, &scheme.pg, &mut data_rng(5), items);
    let grammar = &w.spec.grammar;
    rep.info("items", format!("{} base + {} streamed", base_run.item_count(), fresh.item_count()));
    rep.info("views", "1 default");
    rep.info(
        "pair_mix",
        "hot-key over base items: each endpoint from the 64 lowest ids w.p. 0.5, else uniform",
    );
    rep.info("window", WINDOW);
    rep.info("reads_per_step", READS_PER_STEP);
    rep.info("publish_policy", format!("{:?}", PublishPolicy::default()));
    rep.info("compaction_policy", format!("{:?}", CompactionPolicy::default()));
    rep.info("durable_dir", dir.display());
    for (k, v) in host::facts(&dir) {
        rep.info(k, v);
    }

    let setups = if tr.is_enabled() { 1 } else { SETUPS };
    let mut times = Vec::new();
    let setup_mark = tr.mark();
    let mut opened: Option<Opened> = None;
    for _ in 0..setups {
        if let Some(o) = opened.take() {
            o.pipeline.shutdown();
        }
        let (t, o) = warm_open(&scheme, &dir, tr)?;
        times.push(t.as_secs_f64());
        opened = Some(o);
    }
    let Opened { live, pipeline } = opened.expect("at least one set-up ran");
    let base_len = live.read().store().len();
    if tr.is_enabled() {
        let open = trace::mean_ns(tr.since(setup_mark), "durability.open");
        rep.metric("durability.open_s", open / 1e9);
        print_rollup("setup", tr, setup_mark, rep);
    }

    let mut stream = Stream {
        pg: &scheme.pg,
        fresh: &fresh,
        labeler: RunLabeler::start(grammar, &scheme.pg, &Run::start(grammar)),
        pushed: 0,
        step: 0,
        window: VecDeque::new(),
        queue: pipeline.queue().clone(),
        live: live.clone(),
        ws: WorkerScratch::new(),
        reqs: &reqs,
        next_read: 0,
        answers: vec![None; reqs.len()],
    };
    let steps = fresh.step_count() as u32;
    let st = if tr.is_enabled() {
        let base = stream.run(&mut Tracer::disabled(), steps / 2);
        let mark = tr.mark();
        let mut st = stream.run(tr, steps - steps / 2);
        let spans = tr.since(mark);
        // Only sampled steps have spans: per label is per traced step over
        // the labels a step makes on average.
        let labels_per_step = st.acked_labels as f64 / st.steps.max(1) as f64;
        let on_step = trace::mean_ns(spans, "labeler.on_step");
        rep.metric("labeler.ns_per_label", on_step / labels_per_step.max(1.0));
        let (avg, max) = wf_bench::label_bits_stats(&scheme.fvl, stream.labeler.labels());
        rep.metric("labeler.label_bits_avg", avg);
        rep.metric("labeler.label_bits_max", max as f64);
        rep.metric("generation.read_ns", trace::mean_ns(spans, "generation.read"));
        rep.metric("generation.reader_p99_ns", st.reader.quantile(0.99) as f64);
        rep.metric("ingest.push_ns", trace::mean_ns(spans, "ingest.push"));
        rep.metric("ingest.window_wait_ns", trace::mean_ns(spans, "ingest.wait"));
        rep.metric("ingest.lag_p50_us", st.lags.quantile(0.5) as f64 / 1e3);
        rep.metric("ingest.ack_p99_us", st.acks.quantile(0.99) as f64 / 1e3);
        let (pooled, memo) = stream.ws.stats();
        rep.metric("decode.memo_powers", memo as f64);
        rep.metric("decode.pooled_mats", pooled as f64);
        let per_step = |s: &StreamStats| s.wall.as_nanos() as f64 / s.steps.max(1) as f64;
        let max = trace::STEP_OVERHEAD_MAX_PCT;
        crate::report_overhead("stream", per_step(&st), per_step(&base), max, rep);
        let roll = tr.rollup_since(mark);
        let unattributed = roll.unattributed_ns as f64 / roll.total_ns.max(1) as f64;
        rep.metric("trace.unattributed_pct", 100.0 * unattributed);
        print_rollup("stream", tr, mark, rep);
        st.add_totals(&base);
        st
    } else {
        let st = stream.run(tr, steps);
        rep.metric("peak_rss_mb", host::peak_rss_mb());
        crate::report_setup(&times, rep);
        rep.metric("query_p50_ns", st.query.quantile(0.5) as f64);
        rep.metric("query_p99_ns", st.query.quantile(0.99) as f64);
        rep.metric("query_per_s", st.per_s(st.reads));
        rep.metric("ack_p50_us", st.acks.quantile(0.5) as f64 / 1e3);
        rep.metric("acked_labels_per_s", st.per_s(st.acked_labels));
        st
    };
    rep.attempted += st.reads + st.ops;
    rep.fail(st.errors, "query or push returned Err");
    rep.fail(st.failed_tickets, "ticket resolved Err");
    rep.info("steps", st.steps);
    rep.info("acked_labels", st.acked_labels);
    rep.info("reads", st.reads);
    rep.info("stream_s", format!("{:.3}", st.wall.as_secs_f64()));

    let answers = stream.answers;
    let steps_ingested = stream.step as usize;
    let fresh_labels = stream.labeler.labels()[..stream.pushed].to_vec();
    drop(stream.labeler);
    drop(stream.ws);
    let report = pipeline.shutdown();
    rep.fail(u64::from(report.persist_error.is_some()), "the op-log stopped persisting");
    let totals: CompactionTotals = report.compaction.clone().unwrap_or_default();
    report_ingest(&report.stats, &totals, tr.is_enabled(), rep);
    let last = live.snapshot();
    drop(report);
    drop(live);
    report_save(&last, tr, rep)?;
    let disk = file_len(&dir, BASE_FILE) + file_len(&dir, LOG_FILE);
    let held = last.store().len().max(1) as f64;
    rep.info("disk_bytes", disk);
    if tr.is_enabled() {
        rep.metric("durability.disk_bytes_per_acked_label", disk as f64 / held);
    }

    // Correctness: reopen the directory; the recovered store must hold
    // every acked label and answer like the final live generation.
    let storage = DiskStorage::open(&dir).map_err(|e| e.to_string())?;
    let (_, recovered, recovery) = DurableEngine::open(
        scheme.fvl.clone(),
        Box::new(storage),
        LabelStore::DEFAULT_SHARD_CAPACITY,
    )
    .map_err(|e| format!("reopen: {e}"))?;
    if tr.is_enabled() {
        report_recovery(&recovery, rep);
    }
    check_recovered(args.seed, &last, &recovered, base_len, &fresh_labels, st.acked_labels, rep);
    drop(last);

    // The base reads against the brute-force oracle over the base run, and
    // streamed items, answered by the recovered store, against the oracle
    // over the part of the streamed run that was ingested.
    let spec = &w.spec;
    let vs = ViewSpec::new(spec, &view);
    let mut pick = rng(args.seed, 6);
    let mut wrong = 0;
    let reached = &answers[..(st.reads as usize).min(answers.len())];
    let oracle = RunOracle::new(grammar, &vs, &base_run).map_err(|e| format!("oracle: {e:?}"))?;
    for _ in 0..ORACLE_CHECKS {
        let i = pick.gen_range(0..reached.len());
        let (a, b) = pairs[i];
        wrong += u64::from(oracle.depends_on(a, b) != reached[i]);
    }
    drop(oracle);
    let streamed = fresh_labels.len() as u32;
    let ingested = Derivation { steps: derivation.steps[..steps_ingested].to_vec() }
        .replay(grammar)
        .map_err(|e| format!("replaying the ingested steps: {e}"))?;
    let fresh_oracle =
        RunOracle::new(grammar, &vs, &ingested).map_err(|e| format!("oracle: {e:?}"))?;
    let core = recovered.core();
    let mut ws = WorkerScratch::new();
    for _ in 0..ORACLE_CHECKS {
        let (a, b) = (pick.gen_range(0..streamed), pick.gen_range(0..streamed));
        let (ia, ib) = (ItemId(base_len as u32 + a), ItemId(base_len as u32 + b));
        let got = core.try_query(&mut ws, VIEW, ia, ib);
        wrong += u64::from(got.ok() != Some(fresh_oracle.depends_on(DataId(a), DataId(b))));
    }
    rep.attempted += 2 * ORACLE_CHECKS as u64;
    rep.fail(wrong, "answer disagrees with the oracle");
    rep.info("oracle_checks", 2 * ORACLE_CHECKS);
    Ok(())
}

/// The publisher's and the background compaction's own counters.
fn report_ingest(stats: &IngestStats, totals: &CompactionTotals, traced: bool, rep: &mut Report) {
    rep.fail(stats.op_errors, "op failed in the publisher");
    rep.info("publishes", stats.publishes);
    rep.info("compactions", totals.compactions);
    if let Some(e) = &totals.last_error {
        rep.info("compaction_error", e);
    }
    if !traced {
        return;
    }
    rep.metric("generation.publishes", stats.publishes as f64);
    rep.metric(
        "generation.labels_per_publish",
        stats.labels_ingested as f64 / stats.publishes.max(1) as f64,
    );
    rep.metric("ingest.op_errors", stats.op_errors as f64);
    rep.metric("ingest.persist_retries", stats.persist_retries as f64);
    rep.metric("durability.compactions", totals.compactions as f64);
    rep.metric("durability.reclaimed_mb", totals.reclaimed_bytes as f64 / (1 << 20) as f64);
}

fn report_recovery(r: &RecoveryReport, rep: &mut Report) {
    rep.metric("durability.replayed_frames", r.replayed_frames as f64);
    rep.metric("durability.stale_frames", r.stale_frames as f64);
    rep.metric("durability.dropped_bytes", r.dropped_bytes as f64);
}

/// Every acked label must be in the recovered store, in push order after
/// the base, and sampled pairs over the whole store must be answered like
/// the final live generation.
fn check_recovered(
    seed: u64,
    last: &EngineGeneration,
    recovered: &EngineGeneration,
    base_len: usize,
    pushed: &[wf_core::DataLabel],
    acked: u64,
    rep: &mut Report,
) {
    let held = recovered.store().len();
    let acked = acked as usize;
    let present = held.saturating_sub(base_len).min(acked);
    let mut missing = (acked - present) as u64;
    for (k, label) in pushed[..present].iter().enumerate() {
        if recovered.store().materialize(ItemId((base_len + k) as u32)) != *label {
            missing += 1;
        }
    }
    rep.attempted += acked as u64;
    rep.fail(missing, "acked label missing after reopen");

    // The store holds two runs, the base and the streamed one; pairs stay
    // within one run (a pair across runs asks nothing of either).
    let n = held.min(last.store().len()) as u32;
    let base = base_len as u32;
    let mut pick = rng(seed, 7);
    let (mut ws1, mut ws2) = (WorkerScratch::new(), WorkerScratch::new());
    let mut differ = 0;
    for k in 0..RECOVERY_CHECKS {
        let ids = if k % 2 == 0 || n == base { 0..base } else { base..n };
        let (a, b) = (ItemId(pick.gen_range(ids.clone())), ItemId(pick.gen_range(ids)));
        let want = last.core().try_query(&mut ws1, VIEW, a, b);
        let got = recovered.core().try_query(&mut ws2, VIEW, a, b);
        differ += u64::from(want.is_err() || got.is_err() || want.ok() != got.ok());
    }
    rep.attempted += RECOVERY_CHECKS as u64;
    rep.fail(differ, "reopened store answers unlike the final generation");
    rep.info("recovery_checks", format!("{acked} labels, {RECOVERY_CHECKS} pairs"));
}
