//! The pair → answer path, driven from one load thread: per-call
//! `try_query`, per-view `try_query_batch_into`, and the traced replay of
//! the call sequence `try_query` runs.

use crate::stats::Latencies;
use crate::trace::{self, Layer, Tracer};
use crate::Report;
use std::hint::black_box;
use std::time::{Duration, Instant};
use wf_core::{is_visible_ref, pi_with, QueryScratch, VariantKind};
use wf_engine::{EngineCore, ItemId, ViewRef, WorkerScratch};
use wf_run::EdgeLabel;

/// One query: a view and an ordered item pair.
pub type Request = (ViewRef, ItemId, ItemId);

/// Requests answered before any timer starts.
const WARMUP: usize = 20_000;

/// What a timed phase measured. Its figures are whole-phase: on a shared
/// host the machine's speed moves in plateaus lasting seconds, and a
/// quantile over every call follows the share of time spent on each
/// plateau, where a median over short windows jumps between them.
pub struct Phase {
    /// Latency of every timed call.
    pub lat: Latencies,
    /// Requests (or pairs, for batches) answered.
    pub done: u64,
    /// Timed calls and their summed latency.
    pub calls: u64,
    pub call_ns: u128,
    /// `Err` results.
    pub errors: u64,
    /// Wall time of the phase.
    pub wall: Duration,
    /// The answer to each request of the first pass over the input.
    pub answers: Vec<Option<bool>>,
}

impl Phase {
    pub fn new(requests: usize) -> Self {
        Self {
            lat: Latencies::new(),
            done: 0,
            calls: 0,
            call_ns: 0,
            errors: 0,
            wall: Duration::ZERO,
            answers: vec![None; requests],
        }
    }

    /// Counts one timed call of `ns` nanoseconds.
    fn record(&mut self, ns: u64) {
        self.lat.record(ns);
        self.calls += 1;
        self.call_ns += ns as u128;
    }

    /// Mean latency of one timed call.
    pub fn mean_ns(&self) -> f64 {
        self.call_ns as f64 / self.calls.max(1) as f64
    }

    /// Requests (or pairs) answered per second of the phase.
    pub fn rate(&self) -> f64 {
        self.done as f64 / self.wall.as_secs_f64()
    }

    /// The recorded answers of the requests the phase reached.
    pub fn answered(&self) -> &[Option<bool>] {
        &self.answers[..(self.done as usize).min(self.answers.len())]
    }
}

/// Answers `reqs` untimed until the scratch memo and caches are warm.
pub fn warm_up(core: &EngineCore<'_>, ws: &mut WorkerScratch, reqs: &[Request]) {
    for &(v, a, b) in reqs.iter().take(WARMUP) {
        let _ = black_box(core.try_query(ws, v, a, b));
    }
}

/// Per-call `try_query` over `reqs` (cycled) for `length`, one timer pair
/// per call.
pub fn per_call(
    core: &EngineCore<'_>,
    ws: &mut WorkerScratch,
    reqs: &[Request],
    length: Duration,
) -> Phase {
    let mut phase = Phase::new(reqs.len());
    let start = Instant::now();
    let deadline = start + length;
    for (i, &(v, a, b)) in reqs.iter().cycle().enumerate() {
        let t0 = Instant::now();
        let r = black_box(core.try_query(ws, v, a, b));
        let t1 = Instant::now();
        phase.record((t1 - t0).as_nanos() as u64);
        match r {
            Ok(answer) if i < reqs.len() => phase.answers[i] = answer,
            Ok(_) => {}
            Err(_) => phase.errors += 1,
        }
        phase.done += 1;
        if t1 >= deadline {
            break;
        }
    }
    phase.wall = start.elapsed();
    phase
}

/// Per-view batches through `try_query_batch_into` for `length`: batch `k`
/// is the `k`-th run of `batch` pairs of `pairs`, asked under `views[k]`
/// (both cycled; `pairs.len() == views.len() * batch`). Latencies are per
/// batch; `done` counts pairs. Each call is a `frozen` span under a `batch`
/// request when `tr` is enabled.
pub fn batched(
    tr: &mut Tracer,
    core: &EngineCore<'_>,
    ws: &mut WorkerScratch,
    views: &[ViewRef],
    pairs: &[(ItemId, ItemId)],
    batch: usize,
    length: Duration,
) -> Phase {
    assert_eq!(pairs.len(), views.len() * batch, "one view per batch");
    let batches = || views.iter().zip(pairs.chunks_exact(batch));
    let mut phase = Phase::new(pairs.len());
    let mut out = Vec::with_capacity(batch);
    for (&v, chunk) in batches().take(WARMUP / batch) {
        let _ = black_box(core.try_query_batch_into(ws, v, chunk, &mut out));
    }
    let start = Instant::now();
    let deadline = start + length;
    for (k, (&v, chunk)) in batches().cycle().enumerate() {
        let root = tr.open("batch", None);
        let t0 = Instant::now();
        let call = tr.open("frozen.try_query_batch_into", Some(Layer::Frozen));
        let r = black_box(core.try_query_batch_into(ws, v, chunk, &mut out));
        tr.close(call);
        let t1 = Instant::now();
        tr.close(root);
        phase.record((t1 - t0).as_nanos() as u64);
        match r {
            Ok(()) if k < views.len() => phase.answers[k * batch..][..batch].copy_from_slice(&out),
            Ok(()) => {}
            Err(_) => phase.errors += 1,
        }
        phase.done += batch as u64;
        if t1 >= deadline {
            break;
        }
    }
    phase.wall = start.elapsed();
    phase
}

/// The benchmark's own copy of the state `try_query` threads through a
/// query: a [`QueryScratch`] and the four label path buffers.
#[derive(Default)]
pub struct ReplayScratch {
    scratch: QueryScratch,
    o1: Vec<EdgeLabel>,
    i1: Vec<EdgeLabel>,
    o2: Vec<EdgeLabel>,
    i2: Vec<EdgeLabel>,
}

fn pi_span(kind: VariantKind) -> &'static str {
    match kind {
        VariantKind::Default => "decode.pi_with.default",
        VariantKind::QueryEfficient => "decode.pi_with.query_efficient",
        VariantKind::SpaceEfficient => "decode.pi_with.space_efficient",
    }
}

/// Replays one `try_query` call by call, each call in its own span under a
/// `query` request span: `EngineCore::context`, `label_ref` for both items,
/// `is_visible_ref` (short-circuiting like `try_query`), then `pi_with`.
/// Item handles must already be valid.
pub fn traced_query(
    tr: &mut Tracer,
    core: &EngineCore<'_>,
    rs: &mut ReplayScratch,
    (view, a, b): Request,
) -> Result<Option<bool>, wf_engine::EngineError> {
    let store = core.store();
    let root = tr.open("query", None);
    let s = tr.open("frozen.context", Some(Layer::Frozen));
    let ctx = core.context(view);
    tr.close(s);
    let ctx = match ctx {
        Ok(ctx) => ctx,
        Err(e) => {
            tr.close(root);
            return Err(e);
        }
    };
    let s = tr.open("store.label_ref", Some(Layer::Store));
    let r1 = store.label_ref(a, &mut rs.o1, &mut rs.i1);
    tr.close(s);
    let s = tr.open("store.label_ref", Some(Layer::Store));
    let r2 = store.label_ref(b, &mut rs.o2, &mut rs.i2);
    tr.close(s);
    let s = tr.open("decode.is_visible_ref", Some(Layer::Decode));
    let mut visible = is_visible_ref(r1, ctx.vl, ctx.pg);
    tr.close(s);
    if visible {
        let s = tr.open("decode.is_visible_ref", Some(Layer::Decode));
        visible = is_visible_ref(r2, ctx.vl, ctx.pg);
        tr.close(s);
    }
    let answer = if visible {
        let s = tr.open(pi_span(view.kind), Some(Layer::Decode));
        let answer = pi_with(&ctx, &mut rs.scratch, r1, r2);
        tr.close(s);
        answer
    } else {
        None
    };
    tr.close(root);
    Ok(answer)
}

/// Requests between two traced ones: sub-µs query spans are sampled.
pub const TRACE_EVERY: usize = 64;

/// What the traced query phase found.
pub struct TracedPhase {
    pub traced: u64,
    /// Traced answers that differ from `try_query`'s.
    pub mismatches: u64,
    pub errors: u64,
}

impl TracedPhase {
    pub fn report(&self, rep: &mut Report) {
        rep.attempted += self.traced;
        rep.fail(self.mismatches, "traced answer differs from try_query");
        rep.fail(self.errors, "traced query returned Err");
    }
}

/// Runs `reqs` (cycled) for `length`: one request in [`TRACE_EVERY`] is
/// replayed under spans and checked against `try_query`; the rest go
/// through `try_query` untraced.
pub fn traced_per_call(
    tr: &mut Tracer,
    core: &EngineCore<'_>,
    ws: &mut WorkerScratch,
    rs: &mut ReplayScratch,
    reqs: &[Request],
    length: Duration,
) -> TracedPhase {
    let mut out = TracedPhase { traced: 0, mismatches: 0, errors: 0 };
    let deadline = Instant::now() + length;
    for (i, &req) in reqs.iter().cycle().enumerate() {
        let (v, a, b) = req;
        if i % TRACE_EVERY == 0 {
            let traced = traced_query(tr, core, rs, req);
            let direct = core.try_query(ws, v, a, b);
            out.traced += 1;
            match (traced, direct) {
                (Ok(x), Ok(y)) if x == y => {}
                (Ok(_), Ok(_)) => out.mismatches += 1,
                _ => out.errors += 1,
            }
            if Instant::now() >= deadline {
                break;
            }
        } else if black_box(core.try_query(ws, v, a, b)).is_err() {
            out.errors += 1;
        }
    }
    out
}

/// Warms the replay scratch (memo, pool) on the warm-up requests, untraced.
pub fn warm_up_replay(core: &EngineCore<'_>, rs: &mut ReplayScratch, reqs: &[Request]) {
    let mut off = Tracer::disabled();
    for &req in reqs.iter().take(WARMUP) {
        let _ = black_box(traced_query(&mut off, core, rs, req));
    }
}

/// The query-path per-layer metrics of a traced phase that started at
/// `mark`, given the untraced mean `try_query` latency of the same traffic.
pub fn report_query_layers(
    tr: &Tracer,
    mark: usize,
    untraced_mean_ns: f64,
    ws: &WorkerScratch,
    rep: &mut Report,
) {
    let spans = tr.since(mark);
    rep.metric("store.fetch_ns", trace::mean_ns(spans, "store.label_ref"));
    rep.metric("decode.visible_ns", trace::mean_ns(spans, "decode.is_visible_ref"));
    for (metric, kind) in [
        ("decode.pi_ns.default", VariantKind::Default),
        ("decode.pi_ns.query_efficient", VariantKind::QueryEfficient),
        ("decode.pi_ns.space_efficient", VariantKind::SpaceEfficient),
    ] {
        rep.metric(metric, trace::mean_ns(spans, pi_span(kind)));
    }
    let (pooled, memo) = ws.stats();
    rep.metric("decode.memo_powers", memo as f64);
    rep.metric("decode.pooled_mats", pooled as f64);
    let roll = tr.rollup_since(mark);
    let requests = roll.requests.max(1) as f64;
    let parts = roll.total_ns - roll.unattributed_ns;
    rep.metric("frozen.unattributed_ns", untraced_mean_ns - parts as f64 / requests);
    let traced_mean_ns = roll.total_ns as f64 / requests;
    let max = trace::QUERY_OVERHEAD_MAX_PCT;
    crate::report_overhead("query", traced_mean_ns, untraced_mean_ns, max, rep);
    rep.metric(
        "trace.unattributed_pct",
        100.0 * roll.unattributed_ns as f64 / roll.total_ns.max(1) as f64,
    );
}
