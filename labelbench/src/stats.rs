//! The benchmark's own arithmetic: exact latency quantiles and medians.
//! (The run-to-run spread is computed where it is used, in
//! `check_spread.py`.)

/// Latencies up to this many nanoseconds are counted in one bucket per
/// nanosecond; longer ones are kept verbatim.
const LINEAR_NS: usize = 1 << 16;

/// Exact latency recorder: a counter per nanosecond below [`LINEAR_NS`]
/// (256 KiB, no per-sample growth on the query path) plus the rare longer
/// samples kept as they are. Quantiles are exact rather than bucket
/// midpoints (as `wf_bench::LatencyHistogram`'s are, within ~3%): a steady
/// figure read through 3% buckets can come out identical on every run, and
/// any change smaller than a bucket is lost.
pub struct Latencies {
    counts: Vec<u32>,
    over: Vec<u64>,
    n: u64,
}

impl Latencies {
    pub fn new() -> Self {
        Self { counts: vec![0; LINEAR_NS], over: Vec::new(), n: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.n += 1;
    }

    /// The nearest-rank quantile: the `⌈q·n⌉`-th smallest sample (at least
    /// the first). 0 when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = nearest_rank(q, self.n);
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            seen += c as u64;
            if seen >= rank {
                return ns as u64;
            }
        }
        let mut over = self.over.clone();
        over.sort_unstable();
        over[(rank - seen - 1) as usize]
    }
}

/// 1-based rank of quantile `q` among `n` samples (nearest-rank method).
pub fn nearest_rank(q: f64, n: u64) -> u64 {
    ((q * n as f64).ceil() as u64).clamp(1, n)
}

/// Median of a sample set (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Nearest-rank quantile of a sample slice (sorted in place) — the
    /// reference the recorder is checked against.
    fn quantile(values: &mut [u64], q: f64) -> u64 {
        if values.is_empty() {
            return 0;
        }
        values.sort_unstable();
        values[(nearest_rank(q, values.len() as u64) - 1) as usize]
    }

    #[test]
    fn nearest_rank_at_small_counts() {
        // One sample answers every quantile.
        assert_eq!(quantile(&mut [7], 0.0), 7);
        assert_eq!(quantile(&mut [7], 0.5), 7);
        assert_eq!(quantile(&mut [7], 0.99), 7);
        // Two samples: the median is the lower one, anything above is the upper.
        assert_eq!(quantile(&mut [9, 3], 0.5), 3);
        assert_eq!(quantile(&mut [9, 3], 0.51), 9);
        // Ten samples: p50 is the 5th smallest, p99 the 10th.
        let mut ten: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(quantile(&mut ten, 0.5), 5);
        assert_eq!(quantile(&mut ten, 0.9), 9);
        assert_eq!(quantile(&mut ten, 0.99), 10);
        assert_eq!(quantile(&mut [], 0.5), 0);
    }

    #[test]
    fn recorder_matches_sorted_samples_across_the_overflow_seam() {
        let samples = [5u64, 1, 65_535, 65_536, 70_000, 3, 1 << 40, 200, 200];
        let mut lat = Latencies::new();
        for &s in &samples {
            lat.record(s);
        }
        assert_eq!(lat.n, samples.len() as u64);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let mut sorted = samples.to_vec();
            assert_eq!(lat.quantile(q), quantile(&mut sorted, q), "q = {q}");
        }
        let empty = Latencies::new();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn median_at_small_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[9.0, 3.0]), 6.0);
        assert_eq!(median(&[2.0, 9.0, 4.0]), 4.0);
        assert_eq!(median(&[2.0, 9.0, 4.0, 1.0]), 3.0);
    }
}
