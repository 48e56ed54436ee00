//! Query-workload generation: the *serving* shape, not just the §6.1
//! uniform pair sampling.
//!
//! Repository-search and lineage-tracing services (cf. the workloads of
//! Davidson et al.'s repository search and Huang et al.'s reachability
//! queries over provenance) do not issue uniformly random pairs: a few hot
//! items (popular datasets, recent outputs) appear in most queries, and
//! queries spread across a mix of views (each user group holds its own).
//! This module generates those shapes deterministically per seed, to drive
//! the `wf-engine` serving layer and the `parallel_throughput` bench.

use rand::Rng;
use wf_run::{DataId, Run};

/// How the endpoints of a query pair are drawn.
#[derive(Clone, Copy, Debug)]
pub enum PairDist {
    /// Both endpoints uniform over the run's items (§6.1 methodology).
    Uniform,
    /// Hot-key skew: with probability `hot_prob`, an endpoint is drawn from
    /// the `hot_items` lowest item ids (the run's earliest — and in a
    /// top-down derivation, shallowest — items); otherwise uniform.
    HotKey { hot_items: usize, hot_prob: f64 },
}

/// Draws one endpoint. Callers guarantee `run.item_count() > 0` — the
/// public entry points return empty workloads for empty runs instead of
/// reaching the `gen_range(0..0)` panic this would otherwise hit.
fn draw(run: &Run, rng: &mut impl Rng, dist: PairDist) -> DataId {
    let n = run.item_count() as u32;
    debug_assert!(n > 0, "draw requires a non-empty run");
    match dist {
        PairDist::Uniform => DataId(rng.gen_range(0..n)),
        PairDist::HotKey { hot_items, hot_prob } => {
            let hot = (hot_items as u32).clamp(1, n);
            if rng.gen_bool(hot_prob) {
                DataId(rng.gen_range(0..hot))
            } else {
                DataId(rng.gen_range(0..n))
            }
        }
    }
}

/// `count` ordered query pairs drawn per `dist`. An empty run has no items
/// to query, so it yields an empty workload (not a panic) — a freshly
/// started [`Run`] has zero items until its first derivation step.
pub fn sample_pairs(
    run: &Run,
    rng: &mut impl Rng,
    count: usize,
    dist: PairDist,
) -> Vec<(DataId, DataId)> {
    if run.item_count() == 0 {
        return Vec::new();
    }
    (0..count).map(|_| (draw(run, rng, dist), draw(run, rng, dist))).collect()
}

/// One operation of a multi-view serving mix: which registered view the
/// query targets, and the pair itself.
#[derive(Clone, Copy, Debug)]
pub struct QueryOp {
    /// Index into the caller's view list (whatever handles it keeps).
    pub view: usize,
    pub pair: (DataId, DataId),
}

/// A per-view traffic mix: relative weights (need not sum to 1) plus the
/// pair distribution shared by all views.
#[derive(Clone, Debug)]
pub struct MixSpec {
    pub view_weights: Vec<f64>,
    pub dist: PairDist,
}

/// `count` operations, views drawn proportionally to their weights.
///
/// # Panics
/// If `view_weights` is empty, contains a non-finite or negative weight,
/// or sums to zero. Per-weight validation matters: a NaN weight would slip
/// through a `total > 0.0` check only to poison the cumulative scan (NaN
/// comparisons are all false, silently biasing every draw to the last
/// view), and a negative weight shifts every successor's share.
pub fn sample_mix(run: &Run, rng: &mut impl Rng, count: usize, spec: &MixSpec) -> Vec<QueryOp> {
    assert!(!spec.view_weights.is_empty(), "a mix needs at least one view");
    for (i, &w) in spec.view_weights.iter().enumerate() {
        assert!(
            w.is_finite() && w >= 0.0,
            "view weight {i} is {w}: weights must be finite and non-negative"
        );
    }
    let total: f64 = spec.view_weights.iter().sum();
    assert!(total > 0.0, "view weights must have positive mass");
    if run.item_count() == 0 {
        return Vec::new();
    }
    (0..count)
        .map(|_| {
            let mut x = rng.gen_range(0.0..total);
            let mut view = spec.view_weights.len() - 1;
            for (i, w) in spec.view_weights.iter().enumerate() {
                if x < *w {
                    view = i;
                    break;
                }
                x -= w;
            }
            QueryOp { view, pair: (draw(run, rng, spec.dist), draw(run, rng, spec.dist)) }
        })
        .collect()
}

/// Per-worker query streams for concurrent serving: `workers` independent
/// streams of `per_worker` pairs each, all drawn from `dist`. Streams are
/// materialized worker-by-worker from the single `rng`, so the whole
/// workload is deterministic per seed while no two workers share a stream
/// — the shape a parallel read path (`wf-engine`'s `try_query_batch_into`
/// over several scratches, or per-thread `WorkerScratch` serving) is
/// driven with. An empty run yields `workers` empty streams.
pub fn worker_streams(
    run: &Run,
    rng: &mut impl Rng,
    workers: usize,
    per_worker: usize,
    dist: PairDist,
) -> Vec<Vec<(DataId, DataId)>> {
    (0..workers).map(|_| sample_pairs(run, rng, per_worker, dist)).collect()
}

/// Shards a multi-view operation stream round-robin across `workers`,
/// preserving each worker's relative order — the deterministic split used
/// when one generated [`sample_mix`] stream is served by several threads.
/// Operation `i` lands on worker `i % workers`, so re-interleaving the
/// shards reproduces the original stream exactly.
///
/// # Panics
/// If `workers` is zero.
pub fn shard_round_robin(ops: &[QueryOp], workers: usize) -> Vec<Vec<QueryOp>> {
    assert!(workers > 0, "sharding requires at least one worker");
    let mut shards = vec![Vec::with_capacity(ops.len().div_ceil(workers)); workers];
    for (i, &op) in ops.iter().enumerate() {
        shards[i % workers].push(op);
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bioaid, sample};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_analysis::ProdGraph;

    fn test_run() -> Run {
        let w = bioaid(1);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(1);
        sample::sample_run(&w, &pg, &mut rng, 300).1
    }

    #[test]
    fn uniform_pairs_stay_in_range() {
        let run = test_run();
        let mut rng = StdRng::seed_from_u64(2);
        for (a, b) in sample_pairs(&run, &mut rng, 2_000, PairDist::Uniform) {
            assert!((a.0 as usize) < run.item_count());
            assert!((b.0 as usize) < run.item_count());
        }
    }

    #[test]
    fn hot_key_skew_concentrates_traffic() {
        let run = test_run();
        let mut rng = StdRng::seed_from_u64(3);
        let dist = PairDist::HotKey { hot_items: 16, hot_prob: 0.8 };
        let pairs = sample_pairs(&run, &mut rng, 4_000, dist);
        let hot_hits =
            pairs.iter().flat_map(|&(a, b)| [a, b]).filter(|d| (d.0 as usize) < 16).count();
        // ≥ 80% of endpoints from the hot set (plus uniform spillover);
        // leave slack for sampling noise.
        assert!(hot_hits as f64 >= 0.7 * 8_000.0, "only {hot_hits} hot endpoint draws");
        // And the cold tail is still exercised.
        assert!(pairs.iter().any(|&(a, b)| a.0 >= 16 || b.0 >= 16));
    }

    #[test]
    fn hot_set_larger_than_run_is_clamped() {
        let run = test_run();
        let mut rng = StdRng::seed_from_u64(4);
        let dist = PairDist::HotKey { hot_items: 10 * run.item_count(), hot_prob: 1.0 };
        for (a, b) in sample_pairs(&run, &mut rng, 500, dist) {
            assert!((a.0 as usize) < run.item_count());
            assert!((b.0 as usize) < run.item_count());
        }
    }

    #[test]
    fn mix_respects_view_weights() {
        let run = test_run();
        let mut rng = StdRng::seed_from_u64(5);
        let spec = MixSpec { view_weights: vec![3.0, 1.0], dist: PairDist::Uniform };
        let ops = sample_mix(&run, &mut rng, 4_000, &spec);
        let first = ops.iter().filter(|op| op.view == 0).count();
        assert!(ops.iter().all(|op| op.view < 2));
        let share = first as f64 / ops.len() as f64;
        assert!((0.68..0.82).contains(&share), "view-0 share {share}");
    }

    #[test]
    fn empty_run_yields_empty_workloads() {
        // Regression: a run with zero items used to hit `gen_range(0..0)`
        // and panic inside `draw`.
        let empty = Run::empty();
        assert_eq!(empty.item_count(), 0);
        let mut rng = StdRng::seed_from_u64(6);
        for dist in [PairDist::Uniform, PairDist::HotKey { hot_items: 4, hot_prob: 0.9 }] {
            assert!(sample_pairs(&empty, &mut rng, 100, dist).is_empty());
        }
        let spec = MixSpec { view_weights: vec![1.0, 2.0], dist: PairDist::Uniform };
        assert!(sample_mix(&empty, &mut rng, 100, &spec).is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_weight_rejected() {
        // Regression: NaN sums to NaN, so the old `total > 0.0` assert let
        // it through and the cumulative scan silently picked the last view.
        let run = test_run();
        let spec = MixSpec { view_weights: vec![1.0, f64::NAN], dist: PairDist::Uniform };
        sample_mix(&run, &mut StdRng::seed_from_u64(7), 10, &spec);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_weight_rejected() {
        let run = test_run();
        let spec = MixSpec { view_weights: vec![2.0, -1.0, 1.0], dist: PairDist::Uniform };
        sample_mix(&run, &mut StdRng::seed_from_u64(8), 10, &spec);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_weight_rejected() {
        let run = test_run();
        let spec = MixSpec { view_weights: vec![1.0, f64::INFINITY], dist: PairDist::Uniform };
        sample_mix(&run, &mut StdRng::seed_from_u64(9), 10, &spec);
    }

    #[test]
    fn worker_streams_are_disjoint_draws_and_deterministic() {
        let run = test_run();
        let dist = PairDist::HotKey { hot_items: 8, hot_prob: 0.5 };
        let a = worker_streams(&run, &mut StdRng::seed_from_u64(21), 4, 64, dist);
        let b = worker_streams(&run, &mut StdRng::seed_from_u64(21), 4, 64, dist);
        assert_eq!(a.len(), 4);
        assert!(a.iter().all(|s| s.len() == 64));
        assert_eq!(a, b, "same seed, same streams");
        // Streams are drawn sequentially from one rng, so worker 0's stream
        // is exactly what a single-stream sample would produce.
        let solo = sample_pairs(&run, &mut StdRng::seed_from_u64(21), 64, dist);
        assert_eq!(a[0], solo);
        // And the workers differ from each other (independent draws).
        assert_ne!(a[0], a[1]);
        // Empty runs: every worker gets an empty stream, no panic.
        let empty = worker_streams(&Run::empty(), &mut StdRng::seed_from_u64(1), 3, 10, dist);
        assert_eq!(empty, vec![Vec::new(), Vec::new(), Vec::new()]);
    }

    #[test]
    fn round_robin_sharding_partitions_and_preserves_order() {
        let run = test_run();
        let mut rng = StdRng::seed_from_u64(22);
        let spec = MixSpec { view_weights: vec![2.0, 1.0, 1.0], dist: PairDist::Uniform };
        let ops = sample_mix(&run, &mut rng, 101, &spec);
        let shards = shard_round_robin(&ops, 4);
        assert_eq!(shards.iter().map(Vec::len).sum::<usize>(), ops.len());
        // Re-interleaving the shards reproduces the stream exactly.
        for (i, op) in ops.iter().enumerate() {
            let got = shards[i % 4][i / 4];
            assert_eq!((got.view, got.pair), (op.view, op.pair), "op {i}");
        }
        // More workers than ops: trailing shards are just empty.
        let wide = shard_round_robin(&ops[..2], 5);
        assert_eq!(wide.iter().filter(|s| !s.is_empty()).count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_worker_sharding_rejected() {
        shard_round_robin(&[], 0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let run = test_run();
        let dist = PairDist::HotKey { hot_items: 8, hot_prob: 0.5 };
        let a = sample_pairs(&run, &mut StdRng::seed_from_u64(9), 64, dist);
        let b = sample_pairs(&run, &mut StdRng::seed_from_u64(9), 64, dist);
        assert_eq!(a, b);
    }
}
