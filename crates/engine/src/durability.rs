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
use std::sync::{Arc, Condvar, Mutex};
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
/// publisher appends through it while the [`CompactionDriver`] swaps
/// bases behind it.
pub type SharedDurable = Arc<Mutex<DurableEngine>>;

/// Wrap a recovered engine for pipeline use.
pub fn shared_durable(engine: DurableEngine) -> SharedDurable {
    Arc::new(Mutex::new(engine))
}

/// Lock a [`SharedDurable`] even if a previous holder panicked: the
/// on-disk state is always an append prefix plus atomic swaps, so the
/// worst a poisoned counter can do is mistime a compaction trigger.
pub fn lock_durable(durable: &SharedDurable) -> std::sync::MutexGuard<'_, DurableEngine> {
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

struct DriverState {
    pending: bool,
    stop: bool,
    totals: CompactionTotals,
}

struct DriverShared {
    state: Mutex<DriverState>,
    cv: Condvar,
}

impl DriverShared {
    fn lock(&self) -> std::sync::MutexGuard<'_, DriverState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// The background compaction thread: parked until triggered, then folds
/// the *current* published generation into a fresh base. Serialization
/// happens against the immutable generation with no lock held; only the
/// file swap briefly serializes with the publisher's appends.
pub struct CompactionDriver {
    shared: Arc<DriverShared>,
    handle: JoinHandle<()>,
}

impl CompactionDriver {
    /// Spawn the driver over a shared durable store, compacting to
    /// whatever `live` serves when a trigger fires.
    pub fn spawn(durable: SharedDurable, live: Arc<LiveEngine>) -> Self {
        let shared = Arc::new(DriverShared {
            state: Mutex::new(DriverState {
                pending: false,
                stop: false,
                totals: CompactionTotals::default(),
            }),
            cv: Condvar::new(),
        });
        let sh = shared.clone();
        let handle = std::thread::Builder::new()
            .name("wf-compaction".into())
            .spawn(move || {
                loop {
                    let work = {
                        let mut st = sh.lock();
                        while !st.pending && !st.stop {
                            st = sh.cv.wait(st).unwrap_or_else(|p| p.into_inner());
                        }
                        if st.pending {
                            // Clear before working: a trigger landing while
                            // we compact schedules another pass.
                            st.pending = false;
                            true
                        } else {
                            false
                        }
                    };
                    if work {
                        let outcome = compact_once(&durable, &live);
                        let mut st = sh.lock();
                        match outcome {
                            Ok(Some(stats)) => {
                                st.totals.compactions += 1;
                                st.totals.reclaimed_bytes += stats.reclaimed_bytes;
                            }
                            Ok(None) => {}
                            Err(e) => st.totals.last_error = Some(e),
                        }
                        continue;
                    }
                    break;
                }
            })
            .expect("spawning the compaction thread failed");
        Self { shared, handle }
    }

    /// Ask for a compaction pass (cheap; coalesces with a pending one).
    pub fn trigger(&self) {
        let mut st = self.shared.lock();
        st.pending = true;
        self.shared.cv.notify_one();
    }

    /// Finish any pending pass and join the thread.
    pub fn shutdown(self) -> CompactionTotals {
        {
            let mut st = self.shared.lock();
            st.stop = true;
            self.shared.cv.notify_one();
        }
        self.handle.join().expect("compaction thread panicked");
        let st = self.shared.lock();
        st.totals.clone()
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
