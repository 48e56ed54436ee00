//! `multi_view`: many views over a small store — the paper's multi-view
//! setting.
//!
//! A BioAID-fine run of about 2×10^4 items (its store fits in L2) and about
//! a thousand distinct safe views split evenly over the three variants.
//! Queries spread over the views with Zipf skew, first per call through
//! `try_query`, then per view through `try_query_batch_into`. View labeling
//! dominates set-up and π over many views' compiled labels dominates
//! queries, while label fetches stay cheap. Loads `registry`, `decode` and
//! `frozen` batching; bypasses store misses and the write path.

use crate::query::{self, ReplayScratch, Request};
use crate::trace::{self, Tracer};
use crate::{cold_builds, data_rng, host, print_rollup, report_save, report_setup_layers, rng};
use crate::{Args, Report, Scheme};
use rand::Rng;
use std::collections::hash_map::{Entry, HashMap};
use std::time::Duration;
use wf_core::VariantKind;
use wf_engine::{ItemId, ViewRegistry, WorkerScratch};
use wf_model::{View, ViewSpec};
use wf_run::{DataId, RunOracle};
use wf_workloads::queries::{sample_mix, MixSpec, PairDist};
use wf_workloads::{sample, views, Workload};

const ITEMS: usize = 20_000;
/// Distinct views, assigned to `VariantKind::ALL` round robin.
const VIEWS: usize = 999;
/// Cold builds per run; `setup_s` is their median.
const SETUPS: usize = 15;
const REQUESTS: usize = 1 << 20;
const BATCH: usize = 64;
/// Zipf exponent of the view popularity: view of rank `r` (from 1) draws
/// weight `1 / r^s`. No trace of per-view traffic exists for this system,
/// so this is Zipf's law in its original form, `s = 1`.
const ZIPF_S: f64 = 1.0;
/// Answers checked against the brute-force oracle, per phase.
const ORACLE_CHECKS: usize = 128;

/// `count` distinct safe views of random sizes (structural duplicates are
/// drawn again).
fn distinct_views(w: &Workload, count: usize) -> Result<Vec<View>, String> {
    let mut r = data_rng(2);
    let mut seen = ViewRegistry::new();
    let mut out = Vec::with_capacity(count);
    for _ in 0..count * 20 {
        if out.len() == count {
            return Ok(out);
        }
        let size = r.gen_range(2..=14);
        let v = views::random_safe_view(w, &mut r, size);
        if seen.add_view(v.clone()).0 as usize == out.len() {
            out.push(v);
        }
    }
    Err(format!("only {} distinct views in {} draws", out.len(), count * 20))
}

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let scheme = Scheme::new()?;
    let w = &scheme.workload;
    let (_, run) = sample::sample_run(w, &scheme.pg, &mut data_rng(1), ITEMS);
    let views = distinct_views(w, VIEWS)?;
    let kinded: Vec<(View, VariantKind)> = views
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), VariantKind::ALL[i % VariantKind::ALL.len()]))
        .collect();
    // Each request draws its view on its own; the per-call phase asks them
    // in order, the batch phase asks batch k's pairs under the view of
    // request k·BATCH.
    let mix = MixSpec {
        view_weights: (1..=VIEWS).map(|r| 1.0 / (r as f64).powf(ZIPF_S)).collect(),
        dist: PairDist::Uniform,
    };
    let asks = sample_mix(&run, &mut rng(args.seed, 3), REQUESTS, &mix);
    rep.info("items", run.item_count());
    rep.info("views", format!("{VIEWS} distinct, round robin over {:?}", VariantKind::ALL));
    rep.info("view_mix", format!("zipf s={ZIPF_S}, drawn per query"));
    rep.info("pair_mix", "uniform");
    rep.info("requests", REQUESTS);
    rep.info("batch", BATCH);
    for (k, v) in host::facts(&args.dir) {
        rep.info(k, v);
    }

    let setup_mark = tr.mark();
    let (times, built) = cold_builds(&scheme.fvl, &run, &kinded, SETUPS, tr)?;
    let gen = built.gen.clone();
    let item = |d: DataId| -> ItemId { built.items[d.0 as usize] };
    let reqs: Vec<Request> =
        asks.iter().map(|q| (built.views[q.view], item(q.pair.0), item(q.pair.1))).collect();
    let batch_views: Vec<_> = reqs.iter().step_by(BATCH).map(|r| r.0).collect();
    let batch_pairs: Vec<(ItemId, ItemId)> = reqs.iter().map(|&(_, a, b)| (a, b)).collect();
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    query::warm_up(&core, &mut ws, &reqs);
    // Per-call queries get three quarters of the time: their latency is the
    // noisier figure, so it is sampled over the longer span.
    let length = Duration::from_secs(args.seconds);
    let (call_len, batch_len) = (length * 3 / 4, length / 4);

    let (calls, batches) = if tr.is_enabled() {
        report_setup_layers(tr, setup_mark, &built, &scheme.fvl, rep);
        let calls = query::per_call(&core, &mut ws, &reqs, call_len / 2);
        let mut rs = ReplayScratch::default();
        query::warm_up_replay(&core, &mut rs, &reqs);
        let mark = tr.mark();
        let traced = query::traced_per_call(tr, &core, &mut ws, &mut rs, &reqs, call_len / 2);
        traced.report(rep);
        query::report_query_layers(tr, mark, calls.mean_ns(), &ws, rep);
        print_rollup("query", tr, mark, rep);
        let mark = tr.mark();
        let batches =
            query::batched(tr, &core, &mut ws, &batch_views, &batch_pairs, BATCH, batch_len);
        let per_pair = trace::mean_ns(tr.since(mark), "frozen.try_query_batch_into") / BATCH as f64;
        rep.metric("frozen.batch_ns_per_pair", per_pair);
        print_rollup("batch", tr, mark, rep);
        (calls, batches)
    } else {
        let calls = query::per_call(&core, &mut ws, &reqs, call_len);
        let batches =
            query::batched(tr, &core, &mut ws, &batch_views, &batch_pairs, BATCH, batch_len);
        rep.metric("peak_rss_mb", host::peak_rss_mb());
        crate::report_setup(&times, rep);
        rep.metric("query_p50_ns", calls.lat.quantile(0.5) as f64);
        rep.metric("query_p99_ns", calls.lat.quantile(0.99) as f64);
        rep.metric("query_per_s", calls.rate());
        rep.metric("batch_query_per_s", batches.rate());
        (calls, batches)
    };
    for phase in [&calls, &batches] {
        rep.attempted += phase.done;
        rep.fail(phase.errors, "query returned Err");
    }
    rep.info("queries", calls.done);
    rep.info("batched_pairs", batches.done);
    report_save(&gen, tr, rep)?;

    // Correctness: seeded samples of both phases' answers against one
    // brute-force oracle per sampled view.
    let spec = &w.spec;
    let mut oracles: HashMap<usize, RunOracle> = HashMap::new();
    let mut pick = rng(args.seed, 4);
    let mut wrong = 0;
    let mut checked = 0;
    // A batch's pairs are asked under the view of its first request.
    for (answers, group) in [(calls.answered(), 1), (batches.answered(), BATCH)] {
        for _ in 0..ORACLE_CHECKS.min(answers.len()) {
            let i = pick.gen_range(0..answers.len());
            let (a, b) = asks[i].pair;
            let v = asks[i / group * group].view;
            let oracle = match oracles.entry(v) {
                Entry::Occupied(o) => o.into_mut(),
                Entry::Vacant(slot) => slot.insert(
                    RunOracle::new(&spec.grammar, &ViewSpec::new(spec, &views[v]), &run)
                        .map_err(|e| format!("oracle: {e:?}"))?,
                ),
            };
            wrong += u64::from(oracle.depends_on(a, b) != answers[i]);
            checked += 1;
        }
    }
    rep.attempted += checked;
    rep.fail(wrong, "answer disagrees with the oracle");
    rep.info("oracle_checks", format!("{checked} over {} views", oracles.len()));
    Ok(())
}
