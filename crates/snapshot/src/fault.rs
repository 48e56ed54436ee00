//! Deterministic fault injection for the persistence stack.
//!
//! Two layers, both script-driven and repeatable:
//!
//! * [`FaultPlan`] — a script of faults, each firing at the N-th append
//!   call or the N-th byte of the cumulative appended stream: fail with a
//!   chosen [`std::io::ErrorKind`] or short-write.
//! * [`MemStorage`] — a fault-injectable in-memory
//!   [`crate::durable::Storage`] that *counts mutation points* (every
//!   appended byte, every atomic rename/truncate, every fsync) and can
//!   be told to crash at exactly one of them. The crash-injection fuzz
//!   campaign enumerates `0..points()` to kill the write path at every
//!   frame and byte boundary, then recovers from the surviving bytes.

use std::io;
use std::sync::{Arc, Mutex};

use crate::durable::Storage;

/// What a planned fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Return `Err` of this kind; the append lands nothing.
    /// `ErrorKind::Interrupted` / `WouldBlock` / `TimedOut` model
    /// transient failures the ingest pipeline retries.
    Fail(io::ErrorKind),
    /// Land only the bytes up to the trigger, then fail the append with
    /// `ErrorKind::WriteZero`. (Crashes, which fail everything after them,
    /// are [`MemStorage::crash_at_point`]'s job.)
    ShortWrite,
}

/// When a planned fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAt {
    /// On the N-th append call (0-based), before any of its bytes.
    Call(u64),
    /// When the cumulative accepted byte stream reaches offset N.
    Byte(u64),
}

#[derive(Debug, Clone)]
struct PlannedFault {
    at: FaultAt,
    kind: FaultKind,
}

/// A deterministic script of injected faults. One-shot: each fault is
/// consumed when it fires.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
    calls: u64,
    bytes: u64,
}

/// What the plan decided for one write attempt.
enum FaultAction {
    /// No fault: accept the whole buffer.
    Pass,
    /// Return this error (the append lands nothing).
    Fail { error: io::Error },
    /// Accept `accept` bytes and report a short write.
    Short { accept: usize },
}

impl FaultPlan {
    /// An empty plan (never faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fault firing at write call `n` (0-based).
    pub fn at_call(mut self, n: u64, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { at: FaultAt::Call(n), kind });
        self
    }

    /// Add a fault firing when the output stream reaches byte `n`.
    pub fn at_byte(mut self, n: u64, kind: FaultKind) -> Self {
        self.faults.push(PlannedFault { at: FaultAt::Byte(n), kind });
        self
    }

    /// Add `count` transient failures on consecutive calls starting at
    /// the `from`-th write call.
    pub fn transient_calls(mut self, from: u64, count: u64) -> Self {
        for i in 0..count {
            self = self.at_call(from + i, FaultKind::Fail(io::ErrorKind::Interrupted));
        }
        self
    }

    /// Decide what happens to a write of `len` bytes, advancing the call
    /// and byte counters.
    fn on_write(&mut self, len: usize) -> FaultAction {
        let call = self.calls;
        self.calls += 1;
        // Earliest applicable fault wins: call faults fire before any
        // byte of this write, byte faults at their offset within it.
        let mut best: Option<(usize, usize)> = None; // (accept, fault index)
        for (i, f) in self.faults.iter().enumerate() {
            let accept = match f.at {
                FaultAt::Call(n) if n == call => 0,
                FaultAt::Byte(n) if n >= self.bytes && n < self.bytes + len as u64 => {
                    (n - self.bytes) as usize
                }
                _ => continue,
            };
            if best.is_none_or(|(a, _)| accept < a) {
                best = Some((accept, i));
            }
        }
        let Some((accept, idx)) = best else {
            self.bytes += len as u64;
            return FaultAction::Pass;
        };
        self.bytes += accept as u64;
        match self.faults.remove(idx).kind {
            FaultKind::Fail(ek) => {
                FaultAction::Fail { error: io::Error::new(ek, "injected fault") }
            }
            FaultKind::ShortWrite => FaultAction::Short { accept },
        }
    }
}

fn crash_error() -> io::Error {
    io::Error::other("injected crash: storage is gone")
}

/// Shared inner state of a [`MemStorage`].
#[derive(Default)]
struct MemInner {
    base: Option<Vec<u8>>,
    log: Vec<u8>,
    /// Mutation points executed so far (bytes appended + atomic ops).
    points: u64,
    /// Crash instead of executing this mutation point.
    crash_at: Option<u64>,
    crashed: bool,
    /// Call-indexed fault script for `append_log` (transient-error and
    /// short-write experiments; crashes use the point counter instead).
    plan: FaultPlan,
}

/// Fault-injectable in-memory [`Storage`].
///
/// Every mutation is metered in *points*: one per appended log byte, one
/// per fsync, and one per atomic operation (base/log replace counts a
/// temp write and a rename, truncate counts one). `crash_at_point(p)`
/// makes mutation `p` — and everything after it — fail as if the process
/// died there, preserving exactly the bytes accepted before it. Clones
/// share state, so a test can keep a handle while a `DurableLog` owns a
/// boxed clone; [`MemStorage::survivor`] deep-copies the surviving bytes
/// into a fresh, fault-free storage for recovery.
#[derive(Clone, Default)]
pub struct MemStorage(Arc<Mutex<MemInner>>);

impl MemStorage {
    /// Empty storage with no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty storage with an append-path fault script.
    pub fn with_plan(plan: FaultPlan) -> Self {
        let s = Self::default();
        s.lock().plan = plan;
        s
    }

    /// Storage pre-seeded with explicit file contents.
    pub fn with_state(base: Option<Vec<u8>>, log: Vec<u8>) -> Self {
        let s = Self::default();
        {
            let mut inner = s.lock();
            inner.base = base;
            inner.log = log;
        }
        s
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemInner> {
        // A panicking holder must not wedge the storage: the state is a
        // plain byte model, valid whatever the panic interrupted.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Mutation points executed so far (enumerate `0..points()` to crash
    /// everywhere).
    pub fn points(&self) -> u64 {
        self.lock().points
    }

    /// Arrange for mutation point `p` to crash the storage.
    pub fn crash_at_point(&self, p: u64) {
        self.lock().crash_at = Some(p);
    }

    /// True once the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Deep-copy the surviving file contents into a fresh, fault-free
    /// storage — what a recovering process would find on disk.
    pub fn survivor(&self) -> MemStorage {
        let inner = self.lock();
        Self::with_state(inner.base.clone(), inner.log.clone())
    }

    /// Current (base, log) contents, for inspection.
    pub fn contents(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        let inner = self.lock();
        (inner.base.clone(), inner.log.clone())
    }
}

impl MemInner {
    /// Execute one atomic mutation point (or crash there).
    fn step(&mut self) -> io::Result<()> {
        if self.crashed {
            return Err(crash_error());
        }
        if self.crash_at == Some(self.points) {
            self.crashed = true;
            return Err(crash_error());
        }
        self.points += 1;
        Ok(())
    }
}

impl Storage for MemStorage {
    fn read_base(&mut self) -> io::Result<Option<Vec<u8>>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_error());
        }
        Ok(inner.base.clone())
    }

    fn replace_base(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        inner.step()?; // temp-file write (crash → old base, temp ignored)
        inner.step()?; // rename (crash → old base)
        inner.base = Some(bytes.to_vec());
        Ok(())
    }

    fn read_log(&mut self) -> io::Result<Vec<u8>> {
        let inner = self.lock();
        if inner.crashed {
            return Err(crash_error());
        }
        Ok(inner.log.clone())
    }

    fn append_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        if inner.crashed {
            return Err(crash_error());
        }
        match inner.plan.on_write(bytes.len()) {
            FaultAction::Fail { error } => return Err(error),
            FaultAction::Short { accept } => {
                // Model a short write that the caller never resumes: only
                // the accepted prefix lands (byte points still metered).
                for &b in &bytes[..accept] {
                    inner.step()?;
                    inner.log.push(b);
                }
                return Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"));
            }
            FaultAction::Pass => {}
        }
        // Fast path when no crash is scheduled inside this append.
        let end = inner.points + bytes.len() as u64;
        if inner.crash_at.is_none_or(|c| c >= end) {
            inner.points = end;
            inner.log.extend_from_slice(bytes);
            return Ok(());
        }
        for &b in bytes {
            inner.step()?;
            inner.log.push(b);
        }
        Ok(())
    }

    fn sync_log(&mut self) -> io::Result<()> {
        self.lock().step()
    }

    fn truncate_log(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.lock();
        inner.step()?;
        inner.log.truncate(len as usize);
        Ok(())
    }

    fn replace_log(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut inner = self.lock();
        inner.step()?; // temp-file write
        inner.step()?; // rename (crash → old log intact)
        inner.log = bytes.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_fault_fires_once_then_clears() {
        let plan = FaultPlan::new().at_call(1, FaultKind::Fail(io::ErrorKind::Interrupted));
        let mut s = MemStorage::with_plan(plan);
        s.append_log(b"one").unwrap();
        let err = s.append_log(b"two").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        s.append_log(b"two").unwrap();
        assert_eq!(s.read_log().unwrap(), b"onetwo");
    }

    #[test]
    fn short_write_accepts_a_prefix() {
        let plan = FaultPlan::new().at_byte(2, FaultKind::ShortWrite);
        let mut s = MemStorage::with_plan(plan);
        let err = s.append_log(b"abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(s.read_log().unwrap(), b"ab");
        // One-shot: the rest of the stream flows normally.
        s.append_log(b"cdef").unwrap();
        assert_eq!(s.read_log().unwrap(), b"abcdef");
    }

    #[test]
    fn transient_calls_build_consecutive_failures() {
        let plan = FaultPlan::new().transient_calls(0, 2);
        let mut s = MemStorage::with_plan(plan);
        assert!(s.append_log(b"x").is_err());
        assert!(s.append_log(b"x").is_err());
        s.append_log(b"x").unwrap();
        assert_eq!(s.read_log().unwrap(), b"x");
    }

    #[test]
    fn mem_storage_counts_points_and_crashes_at_each() {
        // Golden run: 2 appends + syncs, then a base install.
        let run = |storage: MemStorage| -> io::Result<()> {
            let mut s = storage;
            s.append_log(b"aaaa")?;
            s.sync_log()?;
            s.append_log(b"bb")?;
            s.sync_log()?;
            s.replace_base(b"B")?;
            s.replace_log(b"")?;
            Ok(())
        };
        let golden = MemStorage::new();
        run(golden.clone()).unwrap();
        let total = golden.points();
        // 4 + 1 + 2 + 1 bytes/syncs + 2 (base) + 2 (log replace) = 12.
        assert_eq!(total, 12);
        for p in 0..total {
            let s = MemStorage::new();
            s.crash_at_point(p);
            assert!(run(s.clone()).is_err(), "crash point {p} must error");
            assert!(s.crashed());
            let (base, log) = s.survivor().contents();
            // Atomicity: base is either absent or fully installed.
            assert!(base.is_none() || base.as_deref() == Some(&b"B"[..]));
            // Log bytes are always a prefix of the appended stream, or
            // empty after the final replace.
            let full = b"aaaabb";
            assert!(log.is_empty() || full.starts_with(&log) || log == *b"");
        }
        // Survivor of a non-crashed run matches the final state.
        let (base, log) = golden.contents();
        assert_eq!(base.as_deref(), Some(&b"B"[..]));
        assert!(log.is_empty());
    }

    #[test]
    fn mem_storage_survivor_is_fault_free() {
        let s = MemStorage::new();
        s.crash_at_point(2);
        let mut h = s.clone();
        assert!(h.append_log(b"abcdef").is_err());
        let mut survivor = s.survivor();
        assert_eq!(survivor.read_log().unwrap(), b"ab");
        survivor.append_log(b"cd").unwrap();
        assert_eq!(survivor.read_log().unwrap(), b"abcd");
    }
}
