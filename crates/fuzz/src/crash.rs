//! Crash-injection campaign for the durable write path.
//!
//! The durability contract (`DESIGN.md` §12) is *point-wise*: kill the
//! process at **any** storage mutation — any appended log byte, any fsync,
//! either half of an atomic base/log swap, any truncation — and reopening
//! the surviving bytes must rebuild exactly one previously published
//! generation, at least as new as the last *acknowledged* publish. This
//! module enforces that contract exhaustively:
//!
//! 1. A **golden run** drives a deterministic publish/compact schedule
//!    (adversarial spec, fuzzed chunking, fuzzed compaction points) over
//!    a [`MemStorage`] that meters every mutation point and records the
//!    exact save image of every published generation.
//! 2. For each crash point `p` (optionally strided), the identical
//!    schedule is re-driven over a fresh storage armed with
//!    [`MemStorage::crash_at_point`]`(p)`: mutations `0..p` succeed, then
//!    the storage dies mid-operation exactly as a killed process would.
//! 3. The surviving bytes are reopened with [`DurableEngine::open`]. The
//!    campaign demands, at every point: **no panic**, **no typed error**
//!    (a clean crash of a healthy run is always recoverable — torn tails
//!    heal, stale compaction frames skip), **no acked loss** (recovered
//!    seqno ≥ last acknowledged append), and **no silent corruption**
//!    (the recovered state is byte-identical to the golden save image of
//!    the seqno it claims).
//!
//! Failures are [`Divergence`]s naming the seed and crash point; the
//! harness itself never panics on an injected fault.

use crate::differential::Divergence;
use crate::specgen::{adversarial_workload, SpecShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_engine::{serialize_base, DurableEngine, EngineWriter, LiveEngine};
use wf_snapshot::MemStorage;
use wf_workloads::{sample, views, Workload};

macro_rules! diverge {
    ($($arg:tt)*) => { return Err(Divergence(format!($($arg)*))) };
}

/// What one crash campaign covered.
#[derive(Clone, Copy, Debug, Default)]
pub struct CrashStats {
    /// Total storage mutation points the golden run produced.
    pub points: u64,
    /// Crash points actually injected (every `stride`-th plus the end).
    pub crashes: u64,
    /// Recoveries that reproduced the newest acknowledged publish.
    pub recovered_acked: u64,
    /// Recoveries that additionally surfaced an unacknowledged-but-durable
    /// publish (crash after the frame landed, before the ack returned).
    pub recovered_ahead: u64,
    /// Torn tails healed (recoveries reporting `dropped_bytes > 0`).
    pub torn_tails: u64,
    /// Compaction-stale frames skipped across all recoveries.
    pub stale_frames: u64,
    /// Publishes in the golden schedule.
    pub publishes: u64,
}

/// One step of the deterministic publish schedule: insert a label chunk,
/// maybe register a view, publish durably, maybe fold into a new base.
struct Step {
    labels: std::ops::Range<usize>,
    view: Option<View>,
    compact: bool,
}

use wf_model::View;

/// The result of driving the schedule over one storage: every publish
/// whose append was *acknowledged* (seqno, save image), and whether the
/// run died on an injected fault.
struct Drive {
    acked: Vec<(u64, Vec<u8>)>,
    crashed: bool,
}

/// Replays the schedule over `storage`, stopping (as a killed process
/// would) at the first storage error. Deterministic: two drives of the
/// same schedule perform the identical mutation sequence byte for byte.
fn drive(
    storage: MemStorage,
    fvl: &Arc<Fvl<'static>>,
    labels: &[DataLabel],
    steps: &[Step],
) -> Result<Drive, Divergence> {
    let opened = DurableEngine::open(fvl.clone(), Box::new(storage), 64);
    let (mut durable, gen0, _) = match opened {
        Ok(v) => v,
        // Bootstrap hit the injected fault: the "process" dies before
        // publishing anything.
        Err(_) => return Ok(Drive { acked: Vec::new(), crashed: true }),
    };
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    let mut acked = Vec::new();
    for step in steps {
        writer
            .try_insert_labels(&labels[step.labels.clone()])
            .map_err(|e| Divergence(format!("schedule labels rejected: {e}")))?;
        if let Some(view) = &step.view {
            writer
                .register_view(view.clone(), VariantKind::Default)
                .map_err(|e| Divergence(format!("schedule view rejected: {e}")))?;
        }
        // Frame + append + fsync, then swap: only the storage can fail
        // here, and a failed publish is never visible.
        let Ok(gen) = writer.publish_durable(&live, &mut durable) else {
            return Ok(Drive { acked, crashed: true });
        };
        let save =
            serialize_base(&gen).map_err(|e| Divergence(format!("save failed in memory: {e}")))?;
        acked.push((gen.seqno(), save));
        if step.compact {
            let base = serialize_base(&gen)
                .map_err(|e| Divergence(format!("base serialization failed: {e}")))?;
            if durable.install_base(&base, gen.seqno()).is_err() {
                return Ok(Drive { acked, crashed: true });
            }
        }
    }
    Ok(Drive { acked, crashed: false })
}

fn fail_ctx(seed: u64, shape: &SpecShape) -> String {
    format!("[crash seed {seed:#x}, shape {shape:?}]")
}

/// Builds the deterministic fuzzed schedule for one seed.
fn build_schedule(
    rng: &mut StdRng,
    w: &Workload,
    fvl: &Arc<Fvl<'static>>,
    publishes: usize,
) -> (Vec<DataLabel>, Vec<Step>) {
    let per_publish: Vec<usize> = (0..publishes).map(|_| rng.gen_range(1..12)).collect();
    let needed: usize = per_publish.iter().sum::<usize>().max(1);
    let (_, run) = sample::sample_run(w, fvl.prod_graph(), rng, needed);
    let mut labels = fvl.labeler(&run).labels().to_vec();
    // Degenerate acyclic specs bound the run size; pad by cycling (fresh
    // ids per insert keep the arithmetic exact, shared labels stress the
    // trie — same trick as the live-churn harness).
    let mut i = 0usize;
    while labels.len() < needed {
        labels.push(labels[i].clone());
        i += 1;
    }
    let mut steps = Vec::with_capacity(publishes);
    let mut cursor = 0usize;
    for (ix, count) in per_publish.into_iter().enumerate() {
        let view = (ix == 0 || rng.gen_bool(0.2)).then(|| {
            let target = rng.gen_range(2..6);
            views::random_safe_view(w, rng, target)
        });
        // Compact after roughly a third of publishes (never the first, so
        // recovery always sees at least one pre-compaction frame era).
        let compact = ix > 0 && rng.gen_bool(0.35);
        steps.push(Step { labels: cursor..cursor + count, view, compact });
        cursor += count;
    }
    (labels, steps)
}

/// Runs one crash campaign: golden run, then a crash at every
/// `stride`-th storage mutation point (the final point always included).
///
/// `stride = 1` is the exhaustive every-byte/every-fsync/every-rename
/// campaign the CI smoke job runs; larger strides keep tier-1 bounded.
pub fn crash_campaign(
    seed: u64,
    budget: usize,
    publishes: usize,
    stride: u64,
) -> Result<CrashStats, Divergence> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (shape, w) = adversarial_workload(&mut rng, budget);
    let fvl = match Fvl::from_arc(Arc::new(w.spec.clone())) {
        Ok(f) => Arc::new(f),
        Err(e) => diverge!("{}: generated spec rejected by Fvl: {e}", fail_ctx(seed, &shape)),
    };
    let (labels, steps) = build_schedule(&mut rng, &w, &fvl, publishes.max(1));

    // Golden run: fault-free, meters the full mutation-point range and
    // records the canonical save image of every published generation.
    let golden_storage = MemStorage::new();
    let golden = drive(golden_storage.clone(), &fvl, &labels, &steps)?;
    if golden.crashed {
        diverge!("{}: golden run crashed without fault injection", fail_ctx(seed, &shape));
    }
    // Seqno 0 (the bootstrapped empty generation) is a legal recovery
    // target for crashes inside the first append.
    let empty = serialize_base(EngineWriter::from_fvl(fvl.clone()).base())
        .map_err(|e| Divergence(format!("empty save failed: {e}")))?;
    let mut golden_by_seq: HashMap<u64, &Vec<u8>> = HashMap::new();
    for (seq, save) in &golden.acked {
        golden_by_seq.insert(*seq, save);
    }
    golden_by_seq.entry(0).or_insert(&empty);

    let total = golden_storage.points();
    let mut stats =
        CrashStats { points: total, publishes: golden.acked.len() as u64, ..CrashStats::default() };

    let stride = stride.max(1);
    let mut point = 0u64;
    loop {
        // Arm the identical schedule to die mid-mutation at `point`.
        let storage = MemStorage::new();
        storage.crash_at_point(point);
        let crashed_run = drive(storage.clone(), &fvl, &labels, &steps)?;
        let last_acked = crashed_run.acked.last().map(|(s, _)| *s).unwrap_or(0);

        // Reopen the surviving bytes, exactly as a restart would.
        let survivor = storage.survivor();
        let opened = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DurableEngine::open(fvl.clone(), Box::new(survivor), 64)
        }));
        let (gen, report) = match opened {
            Err(_) => diverge!(
                "{}: recovery PANICKED at crash point {point}/{total}",
                fail_ctx(seed, &shape)
            ),
            Ok(Err(e)) => diverge!(
                "{}: crash point {point}/{total} left unrecoverable storage \
                 (a clean crash must always recover): {e}",
                fail_ctx(seed, &shape)
            ),
            Ok(Ok((_, gen, report))) => (gen, report),
        };
        let seq = gen.seqno();
        if seq < last_acked {
            diverge!(
                "{}: crash point {point}/{total} LOST ACKED OPS — recovered seqno {seq} \
                 but append {last_acked} was acknowledged",
                fail_ctx(seed, &shape)
            );
        }
        match golden_by_seq.get(&seq) {
            Some(want) => {
                let got = serialize_base(&gen)
                    .map_err(|e| Divergence(format!("recovered save failed: {e}")))?;
                if got != **want {
                    diverge!(
                        "{}: crash point {point}/{total} SILENT CORRUPTION — recovered \
                         seqno {seq} decodes but its state diverges from the published image",
                        fail_ctx(seed, &shape)
                    );
                }
            }
            None => diverge!(
                "{}: crash point {point}/{total} recovered seqno {seq}, which was never \
                 published",
                fail_ctx(seed, &shape)
            ),
        }
        stats.crashes += 1;
        if seq == last_acked {
            stats.recovered_acked += 1;
        } else {
            stats.recovered_ahead += 1;
        }
        if report.dropped_bytes > 0 {
            stats.torn_tails += 1;
        }
        stats.stale_frames += report.stale_frames;

        if point >= total {
            break;
        }
        point = (point + stride).min(total);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exhaustive stride-1 campaign on one small schedule: every
    /// single mutation point of a real publish/compact run.
    #[test]
    fn exhaustive_small_campaign_is_clean() {
        let stats = crash_campaign(0xC8A5, 6, 4, 1).expect("campaign must be clean");
        assert!(stats.points > 100, "campaign metered too little: {stats:?}");
        assert_eq!(stats.crashes, stats.points + 1, "stride 1 must hit every point");
        assert!(stats.torn_tails > 0, "some crash points must tear the tail");
        assert!(stats.recovered_acked > 0);
    }

    #[test]
    fn campaign_exercises_compaction_staleness() {
        // Larger schedule: with ~35% compaction probability some run in
        // these seeds skips stale frames during recovery.
        let mut stale = 0u64;
        for seed in [1u64, 2, 3, 4] {
            let stats = crash_campaign(seed, 6, 6, 97).expect("campaign must be clean");
            stale += stats.stale_frames;
        }
        assert!(stale > 0, "no campaign recovery ever skipped a stale frame");
    }
}
