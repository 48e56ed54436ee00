//! The adversarial correctness sweep: grammar-driven differential fuzzing
//! plus decoder mutation fuzzing, at configurable scale.
//!
//! Three campaigns run back to back:
//!
//! 1. **Differential specs** — each case generates an adversarial spec
//!    from the grammar (bathtub-biased structure), a run, a set of
//!    adversarial view partitions and a query set, then demands
//!    element-identical answers from all three labeling variants, the
//!    naive run-graph reachability oracle, and the interned engine path.
//! 2. **Live churn** — each case replays a generated churn stream through
//!    `EngineWriter`/`LiveEngine`, comparing every published generation
//!    against a sequential reference writer and finishing with a warm
//!    recovery of its durable base ‖ frames store.
//!    Campaign 2½, **multi-producer ingest**, rides alongside: each case
//!    races a fleet of producer threads through the `IngestPipeline`
//!    (fleet width cycling 1/2/4) and demands every published generation
//!    match a sequential replay in global ticket order *and* a
//!    byte-identical recovery of its op-log prefix.
//!    Campaign 2¾, **crash injection**, follows: each campaign drives a
//!    deterministic publish/compact schedule over a metered in-memory
//!    storage and kills it at every mutation point (every log byte,
//!    fsync, truncation and atomic rename), demanding recovery to a
//!    byte-identical published generation with no acked loss.
//! 3. **Decoder mutants** — durable `(base, log)` stores are mutated (bit
//!    flips, truncations, splices, frame reorderings, checksum-resealed
//!    forgeries with re-encoded frames) and every mutant must be rejected
//!    with a typed error or recover to a provably pristine prefix state.
//!
//! Every failure prints the case seed; rerun just that case with
//! `--case <seed>`. The sweep writes `BENCH_fuzz_coverage.txt` at the
//! workspace root, which `bench_check` gates.
//!
//! Run with: `cargo run --release --example fuzz_sweep -- --specs 10000 --mutants 10000`

use std::process::ExitCode;
use wf_bench::report::Report;
use wfprov::fuzz::{
    case_seed, check_live_churn, check_multi_producer, check_spec, crash_campaign, mutation_corpus,
    mutation_round, FuzzReport,
};

struct Args {
    seed: u64,
    specs: u64,
    live: u64,
    multi: u64,
    mutants: usize,
    crash: u64,
    budget: usize,
    case: Option<u64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        seed: 0xF022,
        specs: 500,
        live: 50,
        multi: 30,
        mutants: 2000,
        crash: 6,
        budget: 12,
        case: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| panic!("{name} needs a value")).parse::<u64>().unwrap()
        };
        match flag.as_str() {
            "--seed" => a.seed = val("--seed"),
            "--specs" => a.specs = val("--specs"),
            "--live" => a.live = val("--live"),
            "--multi" => a.multi = val("--multi"),
            "--mutants" => a.mutants = val("--mutants") as usize,
            "--crash" => a.crash = val("--crash"),
            "--budget" => a.budget = val("--budget") as usize,
            "--case" => a.case = Some(val("--case")),
            other => panic!("unknown flag {other} (see examples/fuzz_sweep.rs)"),
        }
    }
    a
}

/// The sweep's coverage and findings as the `fuzz_coverage` bench report.
fn coverage_report(report: &FuzzReport) -> Report {
    let m = &report.mutation;
    let mut rep = Report::new("fuzz_coverage");
    rep.info("seed", report.seed);
    for (name, n) in [
        ("spec_cases", report.spec_cases),
        ("live_cases", report.live_cases),
        ("multi_cases", report.multi_cases),
        ("views_checked", report.views),
        ("queries_checked", report.queries),
        ("items_labeled", report.items),
        ("divergences", report.divergences),
        ("crash_cases", report.crash_cases),
        ("crash_points", report.crash_points),
        ("crash_torn_tails", report.crash_torn_tails),
        ("crash_stale_frames", report.crash_stale_frames),
        ("mutants", m.mutants),
        ("mutant_panics", m.panics),
        ("mutant_silent_corruption", m.wrong),
        ("mutants_ok_valid_prefix", m.ok_valid_prefix),
        ("mutants_ok_forged", m.ok_forged),
        ("rejection_classes", m.classes() as u64),
    ] {
        rep.metric(name, n as f64);
    }
    for (class, n) in &m.rejected {
        rep.metric(&format!("rejections.{class}"), *n as f64);
    }
    rep
}

/// Fleet width for multi-producer case `i`: cycle 1 → 2 → 4 so every
/// width shares the sweep and a failing seed names its width.
fn fleet_width(i: u64) -> usize {
    [1usize, 2, 4][(i % 3) as usize]
}

fn main() -> ExitCode {
    let args = parse_args();

    // Single-case reproduction mode: replay one differential case (and its
    // live-churn sibling) under both budgets a sweep uses.
    if let Some(seed) = args.case {
        println!("replaying case seed {seed:#x} (budget {})", args.budget);
        match check_spec(seed, args.budget) {
            Ok(out) => println!("  spec case: ok ({} views, {} queries)", out.views, out.queries),
            Err(d) => {
                println!("  spec case: DIVERGENCE\n  {d}");
                return ExitCode::FAILURE;
            }
        }
        match check_live_churn(seed, args.budget, 40) {
            Ok(out) => println!("  live case: ok ({} queries)", out.queries),
            Err(d) => {
                println!("  live case: DIVERGENCE\n  {d}");
                return ExitCode::FAILURE;
            }
        }
        for producers in [1usize, 2, 4] {
            match check_multi_producer(seed, args.budget, producers, 24) {
                Ok(out) => {
                    println!("  multi case ({producers} producers): ok ({} items)", out.items)
                }
                Err(d) => {
                    println!("  multi case ({producers} producers): DIVERGENCE\n  {d}");
                    return ExitCode::FAILURE;
                }
            }
        }
        match crash_campaign(seed, args.budget, 6, 1) {
            Ok(stats) => println!(
                "  crash case: ok ({} crash points, {} torn tails)",
                stats.crashes, stats.torn_tails
            ),
            Err(d) => {
                println!("  crash case: VIOLATION\n  {d}");
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }

    let mut report = FuzzReport { seed: args.seed, ..FuzzReport::default() };

    // --- Campaign 1: differential spec cases. ---------------------------
    println!("differential sweep: {} spec cases (budget {})…", args.specs, args.budget);
    for i in 0..args.specs {
        let seed = case_seed(args.seed, i);
        match check_spec(seed, args.budget) {
            Ok(out) => report.absorb_spec(&out),
            Err(d) => {
                report.divergences += 1;
                eprintln!("DIVERGENCE (spec case {i}, reproduce with --case {seed}):\n  {d}");
            }
        }
        if (i + 1) % 1000 == 0 {
            println!("  {} / {} cases, {} answers compared", i + 1, args.specs, report.queries);
        }
    }

    // --- Campaign 2: live-engine churn replay. --------------------------
    println!("live-churn sweep: {} cases…", args.live);
    for i in 0..args.live {
        let seed = case_seed(args.seed ^ 0x11FE, i);
        match check_live_churn(seed, args.budget, 40) {
            Ok(out) => report.absorb_live(&out),
            Err(d) => {
                report.divergences += 1;
                eprintln!("DIVERGENCE (live case {i}, reproduce with --case {seed}):\n  {d}");
            }
        }
    }

    // --- Campaign 2½: multi-producer ingest racing. ---------------------
    println!("multi-producer sweep: {} cases (fleets of 1/2/4)…", args.multi);
    for i in 0..args.multi {
        let seed = case_seed(args.seed ^ 0x111E57, i);
        match check_multi_producer(seed, args.budget, fleet_width(i), 24) {
            Ok(out) => report.absorb_multi(&out),
            Err(d) => {
                report.divergences += 1;
                eprintln!("DIVERGENCE (multi case {i}, reproduce with --case {seed}):\n  {d}");
            }
        }
    }

    // --- Campaign 2¾: crash injection on the durable write path. --------
    println!("crash-injection sweep: {} campaigns (stride 1, every mutation point)…", args.crash);
    for i in 0..args.crash {
        let seed = case_seed(args.seed ^ 0xC8A5, i);
        match crash_campaign(seed, args.budget, 6, 1) {
            Ok(stats) => report.absorb_crash(&stats),
            Err(d) => {
                report.divergences += 1;
                eprintln!("CRASH VIOLATION (campaign {i}, reproduce with --case {seed}):\n  {d}");
            }
        }
    }

    // --- Campaign 3: decoder mutation fuzzing. --------------------------
    println!("mutation sweep: {} mutants…", args.mutants);
    let corpus = mutation_corpus(args.seed);
    report.mutation = mutation_round(args.seed ^ 0xD0D0, &corpus, args.mutants);

    let coverage = coverage_report(&report);
    print!("{coverage}");
    coverage.write();

    let m = &report.mutation;
    if report.divergences > 0 || m.panics > 0 || m.wrong > 0 {
        eprintln!(
            "FUZZ FAILURES: {} divergences, {} decoder panics, {} silent corruptions",
            report.divergences, m.panics, m.wrong
        );
        return ExitCode::FAILURE;
    }
    println!(
        "all clear: {} spec cases, {} live cases, {} multi-producer cases, {} crash points \
         ({} torn tails), {} mutants ({} rejection classes)",
        report.spec_cases,
        report.live_cases,
        report.multi_cases,
        report.crash_points,
        report.crash_torn_tails,
        m.mutants,
        m.classes()
    );
    ExitCode::SUCCESS
}
