//! Bounded fuzz sweeps as ordinary `cargo test` suites — deterministic
//! seeds, small fixed iteration counts, so they run in every tier-1 pass.
//! The CI fuzz-smoke job runs the same campaigns at 10 000+ iterations
//! via `examples/fuzz_sweep.rs`; any failure here or there prints the case
//! seed, and `--example fuzz_sweep -- --case <seed>` replays it.

use wf_fuzz::{
    case_seed, check_live_churn, check_multi_producer, check_spec, crash_campaign, mutation_corpus,
    mutation_round, FuzzReport,
};

/// The differential campaign, bounded: adversarial specs at three size
/// budgets, every answer compared across the three variants, the naive
/// oracle, and the engine path.
#[test]
fn bounded_differential_sweep() {
    let mut report = FuzzReport::default();
    for (budget, cases) in [(4usize, 40u64), (10, 40), (20, 20)] {
        for i in 0..cases {
            let seed = case_seed(0x5EED ^ budget as u64, i);
            match check_spec(seed, budget) {
                Ok(out) => report.absorb_spec(&out),
                Err(d) => panic!("differential divergence (budget {budget}): {d}"),
            }
        }
    }
    assert!(report.queries > 5_000, "sweep compared too little: {report:?}");
    assert!(report.views > 100, "sweep checked too few views: {report:?}");
}

/// The live-engine campaign, bounded: churn streams with randomized op
/// mixes replayed through writer/live-engine against a sequential
/// reference, each case ending in a warm recovery of its durable store.
#[test]
fn bounded_live_churn_sweep() {
    let mut report = FuzzReport::default();
    for i in 0..12u64 {
        let seed = case_seed(0x11FE5EED, i);
        match check_live_churn(seed, 10, 36) {
            Ok(out) => report.absorb_live(&out),
            Err(d) => panic!("live-engine divergence: {d}"),
        }
    }
    assert!(report.items > 0, "live sweep published nothing: {report:?}");
}

/// The multi-producer campaign, bounded: producer fleets of 1, 2 and 4
/// race generated churn streams through the ingest pipeline; every
/// published generation must match a sequential replay in global ticket
/// order and a byte-identical recovery of its op-log prefix.
#[test]
fn bounded_multi_producer_sweep() {
    let mut report = FuzzReport::default();
    for i in 0..6u64 {
        let seed = case_seed(0x111E57EED, i);
        let producers = [1usize, 2, 4][(i % 3) as usize];
        match check_multi_producer(seed, 8, producers, 18) {
            Ok(out) => report.absorb_multi(&out),
            Err(d) => panic!("multi-producer divergence ({producers} producers): {d}"),
        }
    }
    assert!(report.items > 0, "multi-producer sweep published nothing: {report:?}");
    assert!(report.queries > 0, "multi-producer sweep compared nothing: {report:?}");
}

/// The crash-injection campaign, bounded: a handful of seeds, strided
/// crash points over each publish/compact schedule. Every injected kill
/// must recover a published generation byte-identically, at least as new
/// as the last acknowledged append — the CI fuzz-smoke job runs the same
/// campaign exhaustively at stride 1.
#[test]
fn bounded_crash_sweep() {
    let mut report = FuzzReport::default();
    for i in 0..4u64 {
        let seed = case_seed(0xC8A5, i);
        match crash_campaign(seed, 6, 5, 53) {
            Ok(stats) => report.absorb_crash(&stats),
            Err(d) => panic!("crash-recovery violation: {d}"),
        }
    }
    assert!(report.crash_points > 20, "sweep injected too few crashes: {report:?}");
    assert!(report.crash_torn_tails > 0, "no crash ever tore the log tail: {report:?}");
}

/// The decoder campaign, bounded: every mutant is rejected with a typed
/// error, decodes to a pristine prefix, or (checksum-forged only) decodes
/// to a fully functional state. No panics, no silent corruption, and the
/// rejection histogram must span several error classes.
#[test]
fn bounded_mutation_sweep() {
    let corpus = mutation_corpus(0x5EED);
    let stats = mutation_round(0x5EED ^ 0xD0D0, &corpus, 1_500);
    assert_eq!(stats.panics, 0, "decoder panicked: {stats:?}");
    assert_eq!(stats.wrong, 0, "silent corruption: {stats:?}");
    assert_eq!(stats.mutants, 1_500);
    assert!(stats.classes() >= 4, "rejection histogram too flat: {stats:?}");
}
