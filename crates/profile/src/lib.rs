//! Scoped profiling counters for the query hot path.
//!
//! The decode pipeline (`wf-core::decode`) and the engine batch path are
//! instrumented with [`scope`] guards and [`count`] ticks keyed by [`Stage`].
//! Each guard records one invocation plus the monotonic nanoseconds between
//! construction and drop into **thread-local `Cell`s** — no atomics, no
//! locks, no allocation on the measured path. Counters from threads that
//! have already exited are flushed into process-wide atomics by the
//! thread-local destructor, so reports see scoped worker threads too.
//!
//! Everything is compiled to a no-op unless the `enabled` cargo feature is
//! on (downstream crates forward it as their own `profile` feature). With
//! the feature off, `scope` returns a zero-sized guard and the optimizer
//! deletes the call entirely; the instrumented binaries are bit-for-bit as
//! fast as uninstrumented ones.
//!
//! Timing is *inclusive*: a [`Stage::Pi`] scope contains the
//! [`Stage::Matmul`] scopes it triggers, so nested stage totals can exceed
//! their parent only across threads, never within one (the smoke test in
//! `wf-core` pins this nesting invariant).

/// The instrumented pipeline stages, in rough hot-path order.
///
/// `PowMemoHit`/`PowMemoMiss` are count-only (their cost is attributed to
/// the enclosing [`Stage::ChainEval`] scope); the rest carry nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Stage {
    /// Materializing the two endpoint labels out of the sharded store.
    LabelFetch = 0,
    /// Building/searching a per-production port graph (Space-Efficient
    /// decode recomputes; Default hits the `OnceLock` cache).
    PortGraphWalk = 1,
    /// One boolean matrix product (`matmul_into` and friends).
    Matmul = 2,
    /// One matrix transpose (`transpose_into`).
    Transpose = 3,
    /// One `chain_into` fold over a parse-tree path (contains its matmuls).
    ChainEval = 4,
    /// A power request answered from the `PowMemo`/`PowerCache`.
    PowMemoHit = 5,
    /// A power request that had to run square-and-multiply.
    PowMemoMiss = 6,
    /// One full `pi` decode (Algorithm 2), visibility checks excluded.
    Pi = 7,
    /// One engine batch call (`try_query_batch_into` / `try_all_pairs_into` / a parallel
    /// worker's chunk), containing everything above.
    Batch = 8,
}

/// Number of [`Stage`] variants; also the length of the arrays in
/// [`ProfileReport`].
pub const STAGE_COUNT: usize = 9;

/// All stages, index-aligned with the report arrays.
pub const STAGES: [Stage; STAGE_COUNT] = [
    Stage::LabelFetch,
    Stage::PortGraphWalk,
    Stage::Matmul,
    Stage::Transpose,
    Stage::ChainEval,
    Stage::PowMemoHit,
    Stage::PowMemoMiss,
    Stage::Pi,
    Stage::Batch,
];

impl Stage {
    /// Stable snake_case name, used as the JSON key in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::LabelFetch => "label_fetch",
            Stage::PortGraphWalk => "port_graph_walk",
            Stage::Matmul => "matmul",
            Stage::Transpose => "transpose",
            Stage::ChainEval => "chain_eval",
            Stage::PowMemoHit => "pow_memo_hit",
            Stage::PowMemoMiss => "pow_memo_miss",
            Stage::Pi => "pi",
            Stage::Batch => "batch",
        }
    }
}

/// Aggregated counters, produced by [`take_report`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfileReport {
    /// Invocations per stage, indexed by `Stage as usize`.
    pub calls: [u64; STAGE_COUNT],
    /// Inclusive nanoseconds per stage, indexed by `Stage as usize`.
    pub ns: [u64; STAGE_COUNT],
}

impl ProfileReport {
    #[inline]
    pub fn calls_of(&self, s: Stage) -> u64 {
        self.calls[s as usize]
    }

    #[inline]
    pub fn ns_of(&self, s: Stage) -> u64 {
        self.ns[s as usize]
    }

    /// True iff no counter ticked (always true with the feature off).
    pub fn is_empty(&self) -> bool {
        self.calls.iter().all(|&c| c == 0) && self.ns.iter().all(|&n| n == 0)
    }

    /// Stages ranked by inclusive nanoseconds, hottest first; count-only
    /// stages (zero ns) rank by calls after every timed stage.
    pub fn ranked(&self) -> [Stage; STAGE_COUNT] {
        let mut order = STAGES;
        order.sort_by_key(|&s| {
            (std::cmp::Reverse(self.ns_of(s)), std::cmp::Reverse(self.calls_of(s)))
        });
        order
    }
}

/// Whether the counters are compiled in.
#[inline(always)]
pub fn is_enabled() -> bool {
    cfg!(feature = "enabled")
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{ProfileReport, Stage, STAGE_COUNT};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// Counters flushed from exited threads (and drained by `take_report`).
    static GLOBAL_CALLS: [AtomicU64; STAGE_COUNT] = [const { AtomicU64::new(0) }; STAGE_COUNT];
    static GLOBAL_NS: [AtomicU64; STAGE_COUNT] = [const { AtomicU64::new(0) }; STAGE_COUNT];

    struct Cells {
        calls: [Cell<u64>; STAGE_COUNT],
        ns: [Cell<u64>; STAGE_COUNT],
    }

    impl Cells {
        const fn new() -> Self {
            Cells {
                calls: [const { Cell::new(0) }; STAGE_COUNT],
                ns: [const { Cell::new(0) }; STAGE_COUNT],
            }
        }

        fn flush(&self) {
            for i in 0..STAGE_COUNT {
                let c = self.calls[i].replace(0);
                if c != 0 {
                    GLOBAL_CALLS[i].fetch_add(c, Ordering::Relaxed);
                }
                let n = self.ns[i].replace(0);
                if n != 0 {
                    GLOBAL_NS[i].fetch_add(n, Ordering::Relaxed);
                }
            }
        }
    }

    impl Drop for Cells {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static CELLS: Cells = const { Cells::new() };
    }

    /// Times one stage invocation from construction to drop.
    pub struct ScopeGuard {
        stage: Stage,
        start: Instant,
    }

    impl Drop for ScopeGuard {
        #[inline]
        fn drop(&mut self) {
            let elapsed = self.start.elapsed().as_nanos() as u64;
            let i = self.stage as usize;
            // `try_with`: a guard may drop during thread teardown, after
            // the thread-local itself was destructed (and flushed).
            let _ = CELLS.try_with(|c| {
                c.calls[i].set(c.calls[i].get() + 1);
                c.ns[i].set(c.ns[i].get() + elapsed);
            });
        }
    }

    #[inline]
    pub fn scope(stage: Stage) -> ScopeGuard {
        ScopeGuard { stage, start: Instant::now() }
    }

    #[inline]
    pub fn count(stage: Stage) {
        let i = stage as usize;
        let _ = CELLS.try_with(|c| c.calls[i].set(c.calls[i].get() + 1));
    }

    pub fn take_report() -> ProfileReport {
        // Move the calling thread's cells into the globals, then drain the
        // globals. Live *other* threads keep their unflushed deltas — the
        // contract is "aggregate what has completed", which covers both the
        // single-threaded benches and scoped workers that joined already.
        CELLS.with(|c| c.flush());
        let mut r = ProfileReport::default();
        for i in 0..STAGE_COUNT {
            r.calls[i] = GLOBAL_CALLS[i].swap(0, Ordering::Relaxed);
            r.ns[i] = GLOBAL_NS[i].swap(0, Ordering::Relaxed);
        }
        r
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::{ProfileReport, Stage};

    /// Zero-sized no-op stand-in; the optimizer removes it entirely.
    pub struct ScopeGuard;

    #[inline(always)]
    pub fn scope(_stage: Stage) -> ScopeGuard {
        ScopeGuard
    }

    #[inline(always)]
    pub fn count(_stage: Stage) {}

    #[inline(always)]
    pub fn take_report() -> ProfileReport {
        ProfileReport::default()
    }
}

pub use imp::{count, scope, take_report, ScopeGuard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors_are_index_aligned() {
        let mut r = ProfileReport::default();
        r.calls[Stage::Matmul as usize] = 7;
        r.ns[Stage::Matmul as usize] = 900;
        assert_eq!(r.calls_of(Stage::Matmul), 7);
        assert_eq!(r.ns_of(Stage::Matmul), 900);
        assert!(!r.is_empty());
        assert_eq!(r.ranked()[0], Stage::Matmul);
    }

    #[test]
    fn ranked_orders_by_ns_then_calls() {
        let mut r = ProfileReport::default();
        r.ns[Stage::Matmul as usize] = 500;
        r.ns[Stage::Pi as usize] = 900;
        r.calls[Stage::PowMemoHit as usize] = 12; // count-only stage
        let ranked = r.ranked();
        assert_eq!(ranked[0], Stage::Pi);
        assert_eq!(ranked[1], Stage::Matmul);
        assert_eq!(ranked[2], Stage::PowMemoHit);
    }

    #[test]
    fn stage_names_are_unique() {
        let mut names: Vec<_> = STAGES.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STAGE_COUNT);
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn counters_accumulate_and_reset() {
        let _ = take_report(); // drain anything from sibling tests
        {
            let _g = scope(Stage::Matmul);
            std::hint::black_box(0u64);
        }
        count(Stage::PowMemoHit);
        let r = take_report();
        assert_eq!(r.calls_of(Stage::Matmul), 1);
        assert_eq!(r.calls_of(Stage::PowMemoHit), 1);
        let r2 = take_report();
        assert_eq!(r2.calls_of(Stage::Matmul), 0, "take_report must reset");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn exited_threads_flush_into_the_report() {
        let _ = take_report();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = scope(Stage::Batch);
                    count(Stage::PowMemoMiss);
                });
            }
        });
        let r = take_report();
        assert_eq!(r.calls_of(Stage::Batch), 4);
        assert_eq!(r.calls_of(Stage::PowMemoMiss), 4);
    }

    #[cfg(not(feature = "enabled"))]
    #[test]
    fn disabled_build_reports_nothing() {
        {
            let _g = scope(Stage::Matmul);
        }
        count(Stage::PowMemoHit);
        assert!(take_report().is_empty());
        assert!(!is_enabled());
        assert_eq!(std::mem::size_of::<ScopeGuard>(), 0);
    }
}
