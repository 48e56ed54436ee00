//! `point_large`: point queries over a store far larger than the cache.
//!
//! A BioAID-fine run of about 3×10^6 items and one Default-variant safe
//! view, cold-built; then per-call `try_query` over the hot-key mix (each
//! endpoint from the 64 lowest ids with probability ½, else uniform). The
//! resident store is well past the last-level cache, so label fetches miss
//! to DRAM. Loads `labeler` and `store`; bypasses `registry` (one view),
//! the mix of variants and the write path.

use crate::query::{self, ReplayScratch};
use crate::trace::Tracer;
use crate::{cold_builds, data_rng, host, print_rollup, report_save, report_setup_layers, rng};
use crate::{Args, Report, Scheme};
use std::time::Duration;
use wf_core::VariantKind;
use wf_engine::WorkerScratch;
use wf_model::ViewSpec;
use wf_run::RunOracle;
use wf_workloads::queries::{sample_pairs, PairDist};
use wf_workloads::{sample, views};

const ITEMS: usize = 3_000_000;
/// Cold builds per run; `setup_s` is their median.
const SETUPS: usize = 5;
const REQUESTS: usize = 1 << 21;
const HOT: PairDist = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
/// Answers checked against the brute-force oracle (each one reachability
/// search over the whole run).
const ORACLE_CHECKS: usize = 48;

pub fn run(args: &Args, tr: &mut Tracer, rep: &mut Report) -> Result<(), String> {
    let scheme = Scheme::new()?;
    let w = &scheme.workload;
    let (_, run) = sample::sample_run(w, &scheme.pg, &mut data_rng(1), ITEMS);
    let view = views::random_safe_view(w, &mut data_rng(2), 8);
    let pairs = sample_pairs(&run, &mut rng(args.seed, 3), REQUESTS, HOT);
    rep.info("items", run.item_count());
    rep.info("views", "1 default");
    rep.info("pair_mix", "hot-key: each endpoint from the 64 lowest ids w.p. 0.5, else uniform");
    rep.info("requests", REQUESTS);
    for (k, v) in host::facts(&args.dir) {
        rep.info(k, v);
    }

    let setup_mark = tr.mark();
    let (times, built) =
        cold_builds(&scheme.fvl, &run, &[(view.clone(), VariantKind::Default)], SETUPS, tr)?;
    let gen = built.gen.clone();
    let vref = built.views[0];
    let reqs: Vec<query::Request> = pairs
        .iter()
        .map(|&(a, b)| (vref, built.items[a.0 as usize], built.items[b.0 as usize]))
        .collect();
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    query::warm_up(&core, &mut ws, &reqs);
    let length = Duration::from_secs(args.seconds);

    let phase = if tr.is_enabled() {
        report_setup_layers(tr, setup_mark, &built, &scheme.fvl, rep);
        let half = length / 2;
        let base = query::per_call(&core, &mut ws, &reqs, half);
        let mut rs = ReplayScratch::default();
        query::warm_up_replay(&core, &mut rs, &reqs);
        let mark = tr.mark();
        let traced = query::traced_per_call(tr, &core, &mut ws, &mut rs, &reqs, half);
        traced.report(rep);
        query::report_query_layers(tr, mark, base.mean_ns(), &ws, rep);
        print_rollup("query", tr, mark, rep);
        base
    } else {
        let phase = query::per_call(&core, &mut ws, &reqs, length);
        rep.metric("peak_rss_mb", host::peak_rss_mb());
        crate::report_setup(&times, rep);
        rep.metric("query_p50_ns", phase.lat.quantile(0.5) as f64);
        rep.metric("query_p99_ns", phase.lat.quantile(0.99) as f64);
        rep.metric("query_per_s", phase.rate());
        phase
    };
    rep.attempted += phase.done;
    rep.fail(phase.errors, "try_query returned Err");
    rep.info("queries", phase.done);
    report_save(&gen, tr, rep)?;

    // Correctness, after the measured phase and the RSS reading: a seeded
    // sample of the answers against the brute-force oracle.
    let answers = phase.answered().to_vec();
    drop(phase);
    drop(built);
    drop(gen);
    let spec = &w.spec;
    let oracle = RunOracle::new(&spec.grammar, &ViewSpec::new(spec, &view), &run)
        .map_err(|e| format!("oracle: {e:?}"))?;
    let mut pick = rng(args.seed, 4);
    let mut wrong = 0;
    for _ in 0..ORACLE_CHECKS {
        let i = rand::Rng::gen_range(&mut pick, 0..answers.len());
        let (a, b) = pairs[i];
        wrong += u64::from(oracle.depends_on(a, b) != answers[i]);
    }
    rep.attempted += ORACLE_CHECKS as u64;
    rep.fail(wrong, "answer disagrees with the oracle");
    rep.info("oracle_checks", ORACLE_CHECKS);
    Ok(())
}
