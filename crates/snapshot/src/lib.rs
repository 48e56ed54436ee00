//! `wf-snapshot` — the versioned binary snapshot format for labeled runs.
//!
//! The paper's economics are "label once, query forever" (§4, §6.1): data
//! labels are assigned online as the run executes and never change
//! (Definition 10), and view labels are static per view. Yet without
//! persistence every process restart re-pays the full labeling and
//! view-compilation cost, and the §4.4.3 power caches re-run cycle-finding.
//! This crate defines the on-disk container that makes warm starts cheap —
//! in the spirit of the §5 bit-level codec (labels are *designed* to be
//! compact enough to store) and of repository-scale provenance services,
//! which assume a persisted index shared by many query processes.
//!
//! Its modules:
//!
//! * [`container`] — the byte-level envelope: magic, format version,
//!   specification fingerprint, payload bit-length, FNV-1a checksum, then
//!   the payload as one contiguous [`wf_bitio`] stream. Truncation,
//!   corruption, version skew and spec mismatch are all rejected with
//!   typed [`SnapshotError`]s before any payload bit is interpreted.
//! * [`fingerprint`] — the structural spec hash stored in the header.
//! * [`view`] — the snapshot form of a registered view `(Δ′, λ′)`.
//! * [`delta`] — the snapshot form of a *generation increment* (the data
//!   labels and views one publish added), validated on read.
//! * [`oplog`] — the op-framed layout of a delta payload: the increment as
//!   the typed ingest ops that produced it, in application order, so each
//!   delta record doubles as the ingest pipeline's op-log entry.
//! * [`durable`] — the one persisted stream: a base snapshot plus an
//!   append-only log of checksummed frames, one delta record each, with
//!   fsync acknowledgement points, a recovery reader that truncates a torn
//!   tail (mid-stream damage stays a hard [`SnapshotError::LogCorrupted`]),
//!   and the atomic write-temp → fsync → rename base swap compaction
//!   relies on. [`DiskStorage`] keeps it in a directory, [`MemStorage`] in
//!   memory.
//! * [`fault`] — deterministic fault injection ([`FaultPlan`] scripts and
//!   the crash-point-metered [`MemStorage`]) so every torn write and kill
//!   point above is exercisable in tests and fuzzing.
//!
//! The payload *sections* live with the data they serialize:
//! [`wf_core::snapshot`] provides matrix / dependency-assignment
//! primitives and `ViewLabel::{write,read}_snapshot`; `wf-engine` layers
//! the label-store trie and registry sections on top and exposes the
//! user-facing `EngineGeneration::save` / `EngineGeneration::load` and
//! `DurableEngine::open`.

pub mod container;
pub mod delta;
pub mod durable;
pub mod error;
pub mod fault;
pub mod fingerprint;
pub mod oplog;
pub mod view;

pub use container::{
    read_container, reseal_container, write_container, Container, FORMAT_VERSION, MAGIC,
};
pub use delta::{edge_target_module, read_label, write_label};
pub use durable::{
    encode_frame, scan_log, DiskStorage, DurableLog, LogOpen, LogScan, ScannedFrame, Storage,
    BASE_FILE, FRAME_HEADER_BYTES, FRAME_MAGIC, LOG_FILE,
};
pub use error::SnapshotError;
pub use fault::{FaultAt, FaultKind, FaultPlan, MemStorage};
pub use fingerprint::spec_fingerprint;
pub use view::{read_view, write_view};
