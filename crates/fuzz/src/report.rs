//! Corpus/divergence accounting: what a sweep covered and what it found.
//! `examples/fuzz_sweep.rs` files it as `BENCH_fuzz_coverage.txt`, which
//! `bench_check` gates.

use crate::crash::CrashStats;
use crate::differential::DiffOutcome;
use crate::mutate::MutationStats;

/// Aggregated sweep results: what the corpus covered and what it found.
/// Equal seeds and budgets give equal reports.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuzzReport {
    /// Base seed the whole sweep derives from.
    pub seed: u64,
    /// Differential spec cases executed / the answers they compared.
    pub spec_cases: u64,
    pub views: u64,
    pub queries: u64,
    pub items: u64,
    /// Live-engine churn cases executed.
    pub live_cases: u64,
    /// Multi-producer ingest-pipeline cases executed.
    pub multi_cases: u64,
    /// Differential divergences observed (a healthy tree reports zero;
    /// the sweep aborts loudly on the first one, so nonzero means the
    /// report was written by a failing run).
    pub divergences: u64,
    /// Crash-injection campaigns executed against the durable write path.
    pub crash_cases: u64,
    /// Crash points injected across all campaigns (each one a process
    /// kill mid-mutation followed by a verified recovery).
    pub crash_points: u64,
    /// Recoveries that healed a torn log tail.
    pub crash_torn_tails: u64,
    /// Compaction-stale frames skipped during crash recoveries.
    pub crash_stale_frames: u64,
    /// Decoder mutation results.
    pub mutation: MutationStats,
}

impl FuzzReport {
    pub fn absorb_spec(&mut self, out: &DiffOutcome) {
        self.spec_cases += 1;
        self.views += out.views;
        self.queries += out.queries;
        self.items += out.items;
    }

    pub fn absorb_live(&mut self, out: &DiffOutcome) {
        self.live_cases += 1;
        self.views += out.views;
        self.queries += out.queries;
        self.items += out.items;
    }

    pub fn absorb_multi(&mut self, out: &DiffOutcome) {
        self.multi_cases += 1;
        self.views += out.views;
        self.items += out.items;
    }

    pub fn absorb_crash(&mut self, stats: &CrashStats) {
        self.crash_cases += 1;
        self.crash_points += stats.crashes;
        self.crash_torn_tails += stats.torn_tails;
        self.crash_stale_frames += stats.stale_frames;
    }
}
