//! Self-healing recovery and background compaction over the durable
//! op-log (`wf_snapshot::durable`) — the engine's one persisted format.
//!
//! The persisted shape is two files: a base snapshot
//! ([`EngineGeneration::save`]) and an append-only frame log, each frame
//! wrapping one publish's delta record tagged with its seqno. Frames are
//! written only by [`crate::EngineWriter::publish_durable`] (append +
//! fsync, then swap). [`DurableEngine::open`] is the recovery reader:
//!
//! 1. the log layer scans to the last intact frame and truncates a torn
//!    tail (mid-stream damage stays a hard
//!    [`SnapshotError::LogCorrupted`]);
//! 2. frames whose `seq` tag is ≤ the base's seqno are *stale* — already
//!    folded into the base by a compaction whose log rewrite a crash
//!    interrupted — and are skipped without decoding;
//! 3. the rest replay in order through the chain-checked `apply_delta`
//!    path, and each frame's tag must match the seqno its delta produces.
//!
//! Compaction rewrites the replayed head into a fresh base (write-temp →
//! fsync → rename, both files) and drops the covered frames. The
//! expensive half — serializing the current generation — runs against an
//! immutable `Arc<EngineGeneration>` with **no lock held**, so producers
//! keep appending and readers keep answering; only the brief file swap
//! itself serializes with appends. Crash at any point leaves the old
//! base (full log intact) or the new base (stale head skipped): never
//! neither — see DESIGN.md §12 for the full crash matrix.

use crate::generation::{EngineGeneration, LiveEngine};
use crate::store::check_shard_capacity;
use std::io;
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use wf_bitio::BitReader;
use wf_core::Fvl;
use wf_snapshot::{read_container, spec_fingerprint, DurableLog, SnapshotError, Storage};

/// What [`DurableEngine::open`] found, healed and replayed.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Seqno the base snapshot covered (0 for a fresh store).
    pub base_seqno: u64,
    /// Seqno serving resumes at (base + replayed frames).
    pub recovered_seqno: u64,
    /// Frames decoded and applied on top of the base.
    pub replayed_frames: u64,
    /// Frames skipped because the base already covered them (evidence of
    /// a crash between compaction's base rename and its log rewrite).
    pub stale_frames: u64,
    /// Torn-tail bytes truncated away (unacknowledged by construction).
    pub dropped_bytes: u64,
}

/// Log size after an append — what the publisher feeds the
/// [`CompactionPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct LogStatus {
    /// Bytes currently in the op-log.
    pub bytes: u64,
    /// Frames currently in the op-log.
    pub frames: u64,
}

/// One compaction's outcome.
#[derive(Clone, Copy, Debug)]
pub struct CompactionStats {
    /// The seqno the new base covers.
    pub covered_seqno: u64,
    /// Log bytes reclaimed by dropping covered frames.
    pub reclaimed_bytes: u64,
    /// Log size after the rewrite.
    pub log: LogStatus,
}

/// When the publisher asks the background driver to compact: as soon as
/// the op-log exceeds either bound, replay cost is deemed too high and
/// the replayed head is folded into a fresh base.
#[derive(Clone, Copy, Debug)]
pub struct CompactionPolicy {
    /// Compact once the log holds this many bytes.
    pub max_log_bytes: u64,
    /// Compact once the log holds this many frames (publishes).
    pub max_log_frames: u64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { max_log_bytes: 8 << 20, max_log_frames: 512 }
    }
}

impl CompactionPolicy {
    /// Whether a log of this size should be compacted.
    pub fn due(&self, log: LogStatus) -> bool {
        log.bytes >= self.max_log_bytes || log.frames >= self.max_log_frames
    }
}

/// Serialize `gen` into base-snapshot bytes — the slow half of a
/// compaction, deliberately a free function over `&EngineGeneration` so
/// callers run it *without* holding the [`DurableEngine`] lock.
pub fn serialize_base(gen: &EngineGeneration) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = Vec::new();
    gen.save(&mut bytes)?;
    Ok(bytes)
}

/// The engine's handle on its durable storage: a recovered
/// [`DurableLog`] plus the seqno bookkeeping that keeps appends chained
/// and compactions monotone.
pub struct DurableEngine {
    log: DurableLog,
    base_seqno: u64,
    last_seqno: u64,
}

impl DurableEngine {
    /// Open (or bootstrap) a durable store and recover the newest
    /// generation from it. A fresh directory gets an empty base written
    /// immediately, so every subsequent state is reachable from disk; an
    /// op-log without any base is rejected as malformed. A zero
    /// `shard_capacity` is [`SnapshotError::Io`] of kind
    /// [`io::ErrorKind::InvalidInput`], returned before the storage is
    /// touched (opening can write: it heals a torn tail).
    pub fn open(
        fvl: Arc<Fvl<'static>>,
        storage: Box<dyn Storage>,
        shard_capacity: u32,
    ) -> Result<(Self, Arc<EngineGeneration>, RecoveryReport), SnapshotError> {
        check_shard_capacity(shard_capacity)?;
        let (mut log, opened) = DurableLog::open(storage)?;
        let base_bytes = match opened.base {
            Some(bytes) => bytes,
            None => {
                if !opened.records.is_empty() {
                    return Err(SnapshotError::Malformed("op-log present without a base snapshot"));
                }
                let empty = EngineGeneration::empty_with_shard_capacity(fvl, shard_capacity);
                let bytes = serialize_base(&empty)?;
                log.install_base(&bytes, 0)?;
                let durable = Self { log, base_seqno: 0, last_seqno: 0 };
                return Ok((durable, Arc::new(empty), RecoveryReport::default()));
            }
        };

        let mut gen = EngineGeneration::load_with_shard_capacity(
            fvl.clone(),
            &mut &base_bytes[..],
            shard_capacity,
        )?;
        let base_seqno = gen.seqno();
        let expected = spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
        let mut report = RecoveryReport {
            base_seqno,
            recovered_seqno: base_seqno,
            dropped_bytes: opened.dropped_bytes,
            ..RecoveryReport::default()
        };
        for (seq, payload) in &opened.records {
            if *seq <= base_seqno {
                report.stale_frames += 1;
                continue;
            }
            let container = read_container(&mut &payload[..])?;
            if container.fingerprint != expected {
                return Err(SnapshotError::SpecMismatch { expected, found: container.fingerprint });
            }
            let mut r = BitReader::new(&container.payload);
            gen = gen.apply_delta(&mut r)?;
            if r.remaining() != 0 {
                return Err(SnapshotError::Malformed("trailing payload bits"));
            }
            if gen.seqno() != *seq {
                return Err(SnapshotError::Malformed("frame seq tag does not match its delta"));
            }
            report.replayed_frames += 1;
        }
        report.recovered_seqno = gen.seqno();
        let durable = Self { log, base_seqno, last_seqno: gen.seqno() };
        Ok((durable, Arc::new(gen), report))
    }

    /// Append one publish's delta record under its seqno and fsync — the
    /// acknowledgement barrier. `Ok` means the record survives any crash
    /// from here on. A seqno that does not chain onto the newest durable
    /// one (a stale or skipping writer) is rejected with
    /// [`io::ErrorKind::InvalidInput`] before any byte is written: framing
    /// it would make every later frame unrecoverable.
    pub(crate) fn append(&mut self, seqno: u64, record: &[u8]) -> io::Result<LogStatus> {
        if seqno != self.last_seqno + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "publish seqno {seqno} does not chain onto durable seqno {}",
                    self.last_seqno
                ),
            ));
        }
        self.log.append(seqno, record)?;
        self.last_seqno = seqno;
        Ok(self.status())
    }

    /// Commit a compaction: atomically install `base` (covering every
    /// publish through `covered_seqno`), then drop the covered frames
    /// from the log. No-op (`None`) if an installed base already covers
    /// `covered_seqno` — a stale trigger, not an error.
    pub fn install_base(
        &mut self,
        base: &[u8],
        covered_seqno: u64,
    ) -> io::Result<Option<CompactionStats>> {
        if covered_seqno <= self.base_seqno {
            return Ok(None);
        }
        let reclaimed = self.log.install_base(base, covered_seqno)?;
        self.base_seqno = covered_seqno;
        self.last_seqno = self.last_seqno.max(covered_seqno);
        Ok(Some(CompactionStats { covered_seqno, reclaimed_bytes: reclaimed, log: self.status() }))
    }

    /// Current log size.
    pub fn status(&self) -> LogStatus {
        LogStatus { bytes: self.log.log_bytes(), frames: self.log.frames() }
    }

    /// Seqno the installed base covers.
    pub fn base_seqno(&self) -> u64 {
        self.base_seqno
    }

    /// Seqno of the newest durable publish.
    pub fn last_seqno(&self) -> u64 {
        self.last_seqno
    }
}

/// A shared, poison-tolerant handle on a [`DurableEngine`] — the
/// publisher appends through it while background compaction swaps bases
/// behind it.
pub type SharedDurable = Arc<Mutex<DurableEngine>>;

/// Wrap a recovered engine for pipeline use.
pub fn shared_durable(engine: DurableEngine) -> SharedDurable {
    Arc::new(Mutex::new(engine))
}

/// Lock a [`SharedDurable`] even if a previous holder panicked: the
/// on-disk state is always an append prefix plus atomic swaps, so the
/// worst a poisoned counter can do is mistime a compaction trigger.
pub(crate) fn lock_durable(durable: &SharedDurable) -> MutexGuard<'_, DurableEngine> {
    durable.lock().unwrap_or_else(|p| p.into_inner())
}

/// Aggregate outcome of a driver's lifetime, in the pipeline report.
#[derive(Clone, Debug, Default)]
pub struct CompactionTotals {
    /// Compactions that installed a new base.
    pub compactions: u64,
    /// Log bytes reclaimed across them.
    pub reclaimed_bytes: u64,
    /// The most recent compaction failure, if any (compaction errors
    /// never stop serving — the log just keeps growing until the next
    /// successful pass).
    pub last_error: Option<String>,
}

/// The background compaction thread. It waits on a one-slot trigger
/// channel, and each trigger it receives is one pass folding the *current*
/// published generation into a fresh base. Serialization happens against
/// the immutable generation with no lock held; only the file swap briefly
/// serializes with the publisher's appends.
pub(crate) struct CompactionDriver {
    policy: CompactionPolicy,
    trigger: SyncSender<()>,
    handle: JoinHandle<CompactionTotals>,
}

impl CompactionDriver {
    /// Spawn the driver over a shared durable store, compacting to
    /// whatever `live` serves when a trigger fires.
    pub(crate) fn spawn(
        durable: SharedDurable,
        live: Arc<LiveEngine>,
        policy: CompactionPolicy,
    ) -> Self {
        let (trigger, passes) = mpsc::sync_channel(1);
        let handle = std::thread::Builder::new()
            .name("wf-compaction".into())
            .spawn(move || {
                let mut totals = CompactionTotals::default();
                // Ends once the sender is gone and a pending trigger has run.
                for () in passes {
                    match compact_once(&durable, &live) {
                        Ok(Some(stats)) => {
                            totals.compactions += 1;
                            totals.reclaimed_bytes += stats.reclaimed_bytes;
                        }
                        Ok(None) => {}
                        Err(e) => totals.last_error = Some(e),
                    }
                }
                totals
            })
            .expect("spawning the compaction thread failed");
        Self { policy, trigger, handle }
    }

    /// Ask for a pass if a log of this size is due one. The channel's one
    /// slot coalesces triggers: one landing during a pass schedules
    /// exactly one more, and later ones fold into it.
    pub(crate) fn after_append(&self, log: LogStatus) {
        if self.policy.due(log) {
            // `Full` is that coalescing; `Disconnected` means the thread
            // panicked, which `shutdown` surfaces.
            let _ = self.trigger.try_send(());
        }
    }

    /// Finish any pending pass and join the thread.
    pub(crate) fn shutdown(self) -> CompactionTotals {
        drop(self.trigger);
        self.handle.join().expect("compaction thread panicked")
    }
}

/// One compaction pass: snapshot the live generation, serialize it with
/// no lock held, then take the durable lock only for the atomic swap.
fn compact_once(
    durable: &SharedDurable,
    live: &LiveEngine,
) -> Result<Option<CompactionStats>, String> {
    let gen = live.snapshot();
    // Racing ahead of the log is impossible: the publisher appends before
    // it swaps, so every published generation is already durable.
    if gen.seqno() <= lock_durable(durable).base_seqno() {
        return Ok(None);
    }
    let bytes = serialize_base(&gen).map_err(|e| e.to_string())?;
    lock_durable(durable).install_base(&bytes, gen.seqno()).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generation::EngineWriter;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;
    use wf_snapshot::MemStorage;

    #[test]
    fn driver_compacts_only_when_due_and_shutdown_runs_the_pending_pass() {
        let ex = paper_example();
        let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
        let labels = fvl.labeler(&figure3_run(&ex).0).labels().to_vec();
        let (first, rest) = labels.split_at(labels.len() / 2);
        let storage = MemStorage::new();
        let (durable, gen0, _) = DurableEngine::open(fvl, Box::new(storage.clone()), 64).unwrap();
        let live = Arc::new(LiveEngine::new(gen0.clone()));
        let shared = shared_durable(durable);
        let mut writer = EngineWriter::new(gen0);
        let mut publish = |labels: &[wf_core::DataLabel]| {
            writer.try_insert_labels(labels).unwrap();
            let mut durable = lock_durable(&shared);
            writer.publish_durable(&live, &mut durable).unwrap();
            durable.status()
        };
        let log = publish(first);

        let idle =
            CompactionDriver::spawn(shared.clone(), live.clone(), CompactionPolicy::default());
        idle.after_append(log);
        assert_eq!(idle.shutdown().compactions, 0, "a log under the bounds is left alone");

        // Due at any size. The first pass runs while the driver lives on.
        let policy = CompactionPolicy { max_log_bytes: 0, max_log_frames: 0 };
        let driver = CompactionDriver::spawn(shared.clone(), live.clone(), policy);
        driver.after_append(log);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        while lock_durable(&shared).base_seqno() < 1 {
            assert!(std::time::Instant::now() < deadline, "the triggered pass never ran");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Then a burst of triggers and an immediate shutdown: the trigger
        // still waiting in the channel runs before the thread ends, and the
        // rest coalesce into it or find the generation already folded.
        let log = publish(rest);
        for _ in 0..3 {
            driver.after_append(log);
        }
        let totals = driver.shutdown();
        assert_eq!(totals.compactions, 2);
        assert!(totals.last_error.is_none(), "{:?}", totals.last_error);
        assert_eq!(lock_durable(&shared).base_seqno(), 2);
        assert!(storage.contents().1.is_empty(), "the covered frames were dropped");
    }
}
