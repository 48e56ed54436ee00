//! Typed serving-layer errors.

use crate::registry::{ViewId, ViewRef};
use crate::store::ItemId;
use wf_core::FvlError;

/// What can go wrong when querying, writing to or feeding an engine: a
/// handle refers to a view that was never registered or a `(view,
/// variant)` that was never compiled here, an item id falls outside the
/// interned store, a view fails to compile, or a capacity runs out (the
/// store's dense id space, the ingest queue). Every entry point surfaces
/// these as values — a handle error is a *caller* mistake, but services
/// accept handles from untrusted sessions and must answer the next one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum EngineError {
    /// The view id was never registered in this engine (or belongs to a
    /// different engine).
    ViewNotRegistered { id: ViewId },
    /// The `(view, variant)` pair was registered but never compiled in this
    /// engine (or the id belongs to a different engine).
    ViewNotCompiled { view: ViewRef },
    /// Compiling a registered view failed (for example, the view is unsafe
    /// for the requested variant). The registration itself stands.
    Compile(FvlError),
    /// A non-empty batch or sweep was handed no worker scratch to run on.
    NoWorkerScratch,
    /// The item id is not an index into this engine's label store.
    ItemOutOfRange { item: ItemId, len: usize },
    /// The label store's id space is exhausted: interning one more path
    /// node (or label) would overflow the dense `u32` id range. `what`
    /// names the exhausted table. Unlike the two handle errors above this
    /// is a *capacity* condition — long-lived ingest loops reach it only
    /// near 2³² entries, but a service must see it as a typed error, not a
    /// panic, to fail the one insert and keep serving.
    StoreFull { what: &'static str, capacity: u64 },
    /// [`EngineError::StoreFull`], raised from a batch insert: `index` is
    /// the position within the batch of the label that could not be
    /// stored. Labels before it *are* stored (batch inserts are not
    /// transactional — ids stay dense), so a caller can retry exactly
    /// `labels[index..]` against a fresh store without double-inserting
    /// the prefix.
    BatchStoreFull { index: usize, what: &'static str, capacity: u64 },
    /// A non-blocking `try_push` found the ingest queue full: `queued` ops
    /// are waiting for the publisher. The op was **not** enqueued — the
    /// queue never silently drops — so the producer decides: retry,
    /// shed load, or switch to the blocking `push`. Like
    /// [`EngineError::StoreFull`] this is a capacity condition, not a bug.
    IngestBackpressure { queued: usize },
    /// The ingest queue was closed (pipeline shutting down) before the op
    /// could be enqueued; nothing was accepted.
    IngestClosed,
}

impl EngineError {
    /// Attaches a batch position to a capacity error: `StoreFull` becomes
    /// [`EngineError::BatchStoreFull`] at `index`; every other error (and
    /// an already-indexed one) passes through unchanged.
    pub(crate) fn at_batch_index(self, index: usize) -> Self {
        match self {
            EngineError::StoreFull { what, capacity } => {
                EngineError::BatchStoreFull { index, what, capacity }
            }
            other => other,
        }
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ViewNotRegistered { id } => {
                write!(f, "view {id:?} is not registered in this engine")
            }
            EngineError::ViewNotCompiled { view } => {
                write!(f, "view {:?}/{:?} was not compiled in this engine", view.id, view.kind)
            }
            EngineError::Compile(e) => write!(f, "view compilation failed: {e}"),
            EngineError::NoWorkerScratch => {
                write!(f, "a non-empty batch or sweep needs at least one worker scratch")
            }
            EngineError::ItemOutOfRange { item, len } => {
                write!(f, "item {:?} is out of range for a store of {len} labels", item)
            }
            EngineError::StoreFull { what, capacity } => {
                write!(f, "label store is full: {what} capacity of {capacity} entries exhausted")
            }
            EngineError::BatchStoreFull { index, what, capacity } => {
                write!(
                    f,
                    "label store is full at batch index {index}: {what} capacity of \
                     {capacity} entries exhausted (earlier labels are stored; retry the rest)"
                )
            }
            EngineError::IngestBackpressure { queued } => {
                write!(
                    f,
                    "ingest queue is full ({queued} ops queued); the op was not enqueued — \
                     retry, shed load, or use the blocking push"
                )
            }
            EngineError::IngestClosed => {
                write!(f, "ingest queue is closed; the pipeline is shutting down")
            }
        }
    }
}

impl std::error::Error for EngineError {}
