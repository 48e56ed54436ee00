//! Benchmark harness for the paper's §6 evaluation.
//!
//! The library is a thin layer of shared fixtures and timers; the actual
//! experiments live in the crate's binaries and bench targets:
//!
//! * `src/bin/experiments.rs` — `cargo run --release --bin experiments
//!   [fig17|…|fig25|tab1|ablation|all]` reprints every figure/table series
//!   of §6 (label lengths, construction times, query times, multi-view
//!   scaling) on the BioAID-like and synthetic workloads;
//! * `benches/` — five report benches (`update_throughput`,
//!   `ingest_throughput`, `recovery`, `parallel_throughput` and
//!   `scale_sweep`), each a plain `main` that writes its
//!   `BENCH_<bench>.txt` report at the workspace root (`-- --test` runs
//!   it shrunk, as CI's bench smoke does);
//! * `src/bin/bench_check.rs` — the gate that reads those reports back and
//!   checks each one's claims.
//!
//! Exported helpers: [`Bench`] (one prepared workload + production graph,
//! with seeded runs, views and query pairs), the [`ms`]/[`ns_per`] timers,
//! the label-size accessor [`label_bits_stats`], the π timer [`query_ns`], and
//! [`report::Report`], the one format every `BENCH_*.txt` report is written
//! in and `src/bin/bench_check.rs` reads.

pub mod report;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use wf_analysis::ProdGraph;
use wf_core::{DataLabel, Fvl, ViewLabel};
use wf_model::View;
use wf_run::{DataId, Run};
use wf_workloads::{sample, views, Workload};

/// Milliseconds with fractional precision.
pub fn ms(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}

/// Mean nanoseconds per iteration of `f` over `iters` calls.
pub fn ns_per<T>(iters: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        std::hint::black_box(f(i));
    }
    t.elapsed().as_secs_f64() * 1e9 / iters as f64
}

/// CPU time consumed by the whole process so far, in nanoseconds
/// (`CLOCK_PROCESS_CPUTIME_ID`; covers every thread). `None` where the
/// clock is unavailable (non-Linux).
///
/// The parallel-throughput bench pairs this with wall time: on a box with
/// fewer cores than workers, wall time cannot show scaling, but
/// `queries / CPU-second` still exposes whether the parallel path adds
/// per-query overhead (locks, contention, cold caches) — which is the
/// component of scaling the *code* controls, the rest being core count.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, writable `timespec`-layout struct and
        // the clock id is a compile-time constant the kernel knows.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Some(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64);
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// A fixed-bucket log-linear latency histogram: tail percentiles from a
/// few KB of memory, no per-sample storage, no sorting.
///
/// Publish latencies are the canonical customer: a mean over 6 cycles
/// (what the update bench reported before this existed) hides exactly the
/// tail a flat-publish claim is about. The bucket layout is the HDR idea
/// at its smallest — values below 64 are exact; above, each power-of-two
/// octave splits into 32 linear sub-buckets, bounding relative error at
/// ~3% (half a sub-bucket) across the full `u64` range in 1920 buckets.
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

/// Sub-buckets per octave (and the threshold below which values are exact).
const HIST_SUB: u64 = 32;
/// `log2(HIST_SUB)` — octaves below this need no splitting.
const HIST_SUB_BITS: u32 = 5;

impl LatencyHistogram {
    pub fn new() -> Self {
        // Highest index: z = 63 → (63 - 5) * 32 + 63 = 1919.
        Self { buckets: vec![0; 1920], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index of `v`: identity below `2 * HIST_SUB`, then
    /// `(octave, sub-bucket)` with the sub-bucket being the top
    /// `HIST_SUB_BITS` bits after the leading one.
    fn index(v: u64) -> usize {
        if v < 2 * HIST_SUB {
            return v as usize;
        }
        let z = 63 - v.leading_zeros(); // v in [2^z, 2^(z+1))
        let shift = z - HIST_SUB_BITS;
        ((shift as u64 * HIST_SUB) + (v >> shift)) as usize
    }

    /// Midpoint of bucket `idx`'s value range — what percentiles report.
    fn midpoint(idx: usize) -> u64 {
        if idx < 2 * HIST_SUB as usize {
            return idx as u64;
        }
        let shift = (idx as u64 / HIST_SUB) as u32 - 1;
        let lo = (idx as u64 % HIST_SUB + HIST_SUB) << shift;
        lo + ((1u64 << shift) >> 1)
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Merges `other` into `self`. Both share the same fixed bucket
    /// layout, so a merge is bucket-wise addition and the result is
    /// *exactly* the histogram that recording both sample sets into one
    /// would have produced — per-producer histograms recorded without
    /// sharing or locking fold into one fleet-wide distribution after the
    /// threads join (the ingest bench's publish-lag path).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `p` in `[0, 1]` (0.5 = median, 0.999 = p999):
    /// the midpoint of the bucket holding the `⌈p·count⌉`-th smallest
    /// sample, clamped to the observed min/max so tiny sample counts never
    /// report a value outside what was recorded. Returns 0 on an empty
    /// histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n as u64;
            if seen >= rank {
                return Self::midpoint(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Resident-set size of this process right now, in bytes (`VmRSS` from
/// `/proc/self/status`). `None` off Linux or if the file is unreadable.
/// The scale sweep samples this after each engine build for its
/// memory-vs-items curve.
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

/// Peak resident-set size of this process, in bytes (`VmHWM`). The
/// high-water mark covers the whole process lifetime, so a sweep reports
/// it once, for its largest configuration.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Parses one `kB` field out of `/proc/self/status`.
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line[field.len()..].trim().trim_end_matches(" kB").trim().parse().ok()?;
    Some(kb * 1024)
}

/// Average and maximum encoded data-label size, in bits.
pub fn label_bits_stats(fvl: &Fvl<'_>, labels: &[DataLabel]) -> (f64, usize) {
    let mut total = 0usize;
    let mut max = 0usize;
    for l in labels {
        let bits = fvl.codec().encoded_bits(l);
        total += bits;
        max = max.max(bits);
    }
    (total as f64 / labels.len() as f64, max)
}

/// One prepared experiment context: workload + runs + views.
pub struct Bench {
    pub workload: Workload,
    pub pg: ProdGraph,
}

impl Bench {
    pub fn fine(seed: u64) -> Self {
        let workload = wf_workloads::bioaid(seed);
        let pg = ProdGraph::new(&workload.spec.grammar);
        Self { workload, pg }
    }

    pub fn coarse(seed: u64) -> Self {
        let workload = wf_workloads::bioaid_coarse(seed);
        let pg = ProdGraph::new(&workload.spec.grammar);
        Self { workload, pg }
    }

    pub fn run_of(&self, seed: u64, items: usize) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        sample::sample_run(&self.workload, &self.pg, &mut rng, items).1
    }

    pub fn safe_view(&self, seed: u64, size: usize) -> View {
        let mut rng = StdRng::seed_from_u64(seed);
        views::random_safe_view(&self.workload, &mut rng, size)
    }

    pub fn black_view(&self, seed: u64, size: usize) -> View {
        let mut rng = StdRng::seed_from_u64(seed);
        views::black_box_view(&self.workload, &mut rng, size)
    }

    pub fn queries(&self, run: &Run, seed: u64, count: usize) -> Vec<(DataId, DataId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        sample::sample_query_pairs(run, &mut rng, count)
    }
}

/// Times π over prepared pairs, round-robin over the view labels `vls`
/// (pair `i` under `vls[i % vls.len()]`), through one [`Fvl::session`] per
/// view label. An untimed pass over the pairs warms each session's matrix
/// pool and power caches first, so the timed pass measures decode as a
/// serving worker runs it, not a fresh scratch per query.
pub fn query_ns(
    fvl: &Fvl<'_>,
    vls: &[ViewLabel],
    labels: &[DataLabel],
    pairs: &[(DataId, DataId)],
) -> f64 {
    let mut sessions: Vec<_> = vls.iter().map(|vl| fvl.session(vl)).collect();
    let mut query = |i: usize| {
        let (a, b) = pairs[i];
        sessions[i % vls.len()].query_unchecked(&labels[a.0 as usize], &labels[b.0 as usize])
    };
    for i in 0..pairs.len() {
        std::hint::black_box(query(i));
    }
    ns_per(pairs.len(), query)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_below_the_linear_threshold() {
        let mut h = LatencyHistogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert!((h.mean() - 31.5).abs() < 1e-9);
        // Small values land in exact buckets: quantiles are exact ranks.
        assert_eq!(h.percentile(0.5), 31);
        assert_eq!(h.percentile(1.0), 63);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn histogram_percentiles_stay_within_relative_error() {
        // 1..=100_000 uniformly: every percentile is known in closed form.
        let mut h = LatencyHistogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (p, expect) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.999, 99_900.0)] {
            let got = h.percentile(p) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(rel < 0.03, "p{p}: got {got}, want ~{expect} (rel err {rel:.4})");
        }
        assert!((h.mean() - 50_000.5).abs() < 1.0);
    }

    #[test]
    fn histogram_handles_edges() {
        let mut empty = LatencyHistogram::new();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.min(), 0);
        empty.record(u64::MAX); // the top bucket exists
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.percentile(0.5), u64::MAX, "clamped to the observed max");
        // A single sample reports itself at every quantile.
        let mut one = LatencyHistogram::new();
        one.record(74_029);
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let got = one.percentile(p);
            let rel = (got as f64 - 74_029.0).abs() / 74_029.0;
            assert!(rel < 0.03, "p{p} of a single sample: got {got}");
        }
    }

    #[test]
    fn merging_shards_equals_recording_into_one() {
        // Split one deterministic sample stream across three shards; the
        // merged result must be indistinguishable from recording the whole
        // stream into a single histogram — same count, sum (via mean),
        // extremes, and the same bucket contents at every quantile.
        let mut combined = LatencyHistogram::new();
        let mut shards =
            [LatencyHistogram::new(), LatencyHistogram::new(), LatencyHistogram::new()];
        let mut v = 0x2545F4914F6CDD1Du64;
        for i in 0..30_000usize {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let sample = v >> (v % 50); // spread across many octaves
            combined.record(sample);
            shards[i % 3].record(sample);
        }
        let mut merged = LatencyHistogram::new();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged.count(), combined.count(), "merge preserves the sample count");
        assert_eq!(merged.min(), combined.min());
        assert_eq!(merged.max(), combined.max());
        assert!((merged.mean() - combined.mean()).abs() < 1e-9);
        for p in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(
                merged.percentile(p),
                combined.percentile(p),
                "buckets must align exactly at p{p}"
            );
        }
    }

    #[test]
    fn merging_an_empty_histogram_is_the_identity() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        h.record(9_000);
        let empty = LatencyHistogram::new();
        h.merge(&empty);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 42);
        assert_eq!(h.max(), 9_000);
        // And merging *into* an empty one adopts the other side verbatim.
        let mut target = LatencyHistogram::new();
        target.merge(&h);
        assert_eq!(target.count(), 2);
        assert_eq!(target.min(), 42);
        assert_eq!(target.max(), 9_000);
        assert_eq!(target.percentile(0.5), h.percentile(0.5));
    }

    /// The exact/log-linear seam sits at 64 (= `2 * HIST_SUB`), and every
    /// octave boundary is a power of two: values on either side of those
    /// edges must land in distinct buckets, stay exact below the seam, and
    /// respect the ~3% relative-error bound above it — including at the
    /// extreme quantiles `percentile(0.0)`/`percentile(1.0)` and `max()`.
    #[test]
    fn quantiles_at_bucket_boundaries() {
        // Below the seam: single-value histograms are exact at every q.
        for v in [0u64, 1, 31, 62, 63] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            for q in [0.0, 0.5, 0.999, 1.0] {
                assert_eq!(h.percentile(q), v, "exact bucket for {v} at q={q}");
            }
            assert_eq!(h.max(), v);
        }
        // Across the seam and octave boundaries: clamping to observed
        // min/max keeps single samples exact even in shared buckets.
        for v in [64u64, 65, 127, 128, 2047, 2048, 1 << 40] {
            let mut h = LatencyHistogram::new();
            h.record(v);
            assert_eq!(h.percentile(0.0), v, "min-clamp at {v}");
            assert_eq!(h.percentile(1.0), v, "max-clamp at {v}");
            assert_eq!(h.max(), v);
        }
        // Adjacent values straddling the seam and an octave edge must be
        // distinguishable: the lower one never reports above the higher.
        let mut h = LatencyHistogram::new();
        for _ in 0..1000 {
            h.record(63);
        }
        for _ in 0..10 {
            h.record(64);
        }
        assert_eq!(h.percentile(0.5), 63, "median is in the exact range");
        assert_eq!(h.percentile(0.99), 63);
        assert_eq!(h.max(), 64);
        // p999 rank (ceil(0.999*1010) = 1010) falls on the 64-bucket.
        assert_eq!(h.percentile(0.999), 64);
        // Ordering sanity on a mixed stream: quantiles are monotone in q.
        let mut m = LatencyHistogram::new();
        let mut v = 3u64;
        for _ in 0..5_000 {
            v = v.wrapping_mul(48271) % 0x7FFF_FFFF;
            m.record(v);
        }
        let (p50, p99, p999) = (m.percentile(0.5), m.percentile(0.99), m.percentile(0.999));
        assert!(p50 <= p99 && p99 <= p999 && p999 <= m.max());
    }

    /// RSS introspection: both fields parse on Linux, peak ≥ current, and
    /// both are nonzero for a live process.
    #[test]
    fn rss_helpers_report_plausible_values() {
        let (Some(cur), Some(peak)) = (current_rss_bytes(), peak_rss_bytes()) else {
            return; // not a procfs platform; nothing to pin
        };
        assert!(cur > 0, "a running process has resident pages");
        assert!(peak >= cur / 2, "HWM cannot be far below current RSS (peak {peak}, cur {cur})");
        assert!(peak > 0);
    }

    #[test]
    fn process_cpu_time_is_monotone_and_advances_under_load() {
        let Some(before) = process_cpu_ns() else {
            return; // clock unavailable on this platform; nothing to pin
        };
        // Burn a visible amount of CPU (~a few ms even on slow hosts).
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let after = process_cpu_ns().expect("clock was available a moment ago");
        assert!(after > before, "CPU clock must advance under load");
    }
}
