//! `wf-engine` — the batched, allocation-free query-serving layer over FVL.
//!
//! The paper proves π answers a dependency query in constant time from
//! compact labels (§4.4, Theorem 10); this crate makes that constant small
//! under the workload shape a provenance service actually faces: *many
//! queries against few views over one labeled run*. Its pieces:
//!
//! * [`ViewRegistry`] — views registered once, their [`wf_core::ViewLabel`]s
//!   precompiled per §6.3 variant and addressed by dense [`ViewRef`]s;
//! * [`LabelStore`] — data labels interned with trie-shared path prefixes
//!   and addressed by dense [`ItemId`]s, partitioned into fixed-capacity
//!   copy-on-write shards so cloning a store is a directory copy and
//!   mutating it touches only the shards an insert batch lands in;
//! * [`EngineCore`] / [`WorkerScratch`] — the immutable, `Sync` read path
//!   plus per-thread mutable state: `try_query` / `try_query_batch_into` /
//!   `try_all_pairs_into` thread one reusable [`wf_core::QueryScratch`]
//!   through the scratch-aware decode path ([`wf_core::pi_with`]), so
//!   steady-state serving performs no heap allocation under any variant
//!   (Space-Efficient searches each matrix per access into the scratch's
//!   pooled buffers), and a Default or Space-Efficient recursion chain's
//!   power cache is
//!   built once per scratch, not per query; handed a slice of scratches
//!   instead of one, the batch and the sweep split their input into one
//!   contiguous chunk per scratch on `std::thread::scope` workers and
//!   merge in chunk order, answering exactly like one scratch;
//! * [`EngineGeneration`] / [`EngineWriter`] / [`LiveEngine`] — the one
//!   write path: owned, immutable generations published by atomic `Arc`
//!   swap, a copy-on-write staging writer, and a lock-free reader fast
//!   path, so labels and views keep landing while readers keep answering;
//! * [`IngestQueue`] / [`IngestPipeline`] — concurrent multi-producer
//!   ingest over that same writer: producers submit typed [`IngestOp`]s
//!   into a bounded MPSC queue (typed backpressure, never silent drops)
//!   and a publisher thread batches, coalesces and publishes them on a
//!   [`PublishPolicy`] cadence (op count or deadline);
//! * [`DurableEngine`] / [`CompactionPolicy`] — the one log: every
//!   persisted publish ([`EngineWriter::publish_durable`]) is a framed,
//!   checksummed, fsynced append — the acknowledgement barrier — before
//!   its generation swap; a recovery reader heals torn tails and skips
//!   compaction-stale frames, a background compaction thread folds the
//!   replayed head into a fresh base by atomic rename once the log
//!   outgrows the policy, and the pipeline retries transient storage
//!   faults with a bounded backoff.
//!
//! Generations persist themselves: [`EngineGeneration::save`] writes the
//! interned store, the registered views and every compiled label (power
//! caches included) into the versioned, checksummed `wf-snapshot`
//! container, and [`EngineGeneration::load`] restores a serving-ready
//! generation without re-running labeling, view compilation or
//! cycle-finding — the "label once, query forever" economics of §4
//! survive process restarts.
//!
//! Semantics are identical to [`wf_core::Fvl::query`] — the agreement is
//! enforced by the engine tests here and by the workspace-level property
//! tests; only the cost model changes.
//!
//! Every fallible operation has one form, and it returns the failures a
//! caller can cause — a foreign view or item handle, an unsafe view, a full
//! store or queue, bad snapshot bytes — as typed errors ([`EngineError`],
//! [`IngestError`], [`SnapshotError`]). The exceptions say so where they
//! live: the `Self`-returning constructors that take a shard capacity
//! assert it is non-zero, and [`LabelStore::label_ref`] /
//! [`LabelStore::materialize`] are unchecked accessors.
//!
//! ```
//! use std::sync::Arc;
//! use wf_core::{Fvl, VariantKind};
//! use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
//! use wf_model::fixtures::paper_example;
//! use wf_run::fixtures::figure3_run;
//!
//! let ex = paper_example();
//! let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
//! let (run, ids) = figure3_run(&ex);
//! let labels = fvl.labeler(&run).labels().to_vec();
//!
//! let mut writer = EngineWriter::from_fvl(fvl);
//! let items = writer.try_insert_labels(&labels).unwrap();
//! let u2 = writer.register_view(ex.view_u2(), VariantKind::Default).unwrap();
//! let live = LiveEngine::new(writer.base().clone());
//! let gen = writer.publish(&live);
//!
//! // Example 8 as a batch of one:
//! let d17 = items[ids.d17.0 as usize];
//! let d31 = items[ids.d31.0 as usize];
//! let mut ws = WorkerScratch::new();
//! let mut answers = Vec::new();
//! gen.core().try_query_batch_into(&mut ws, u2, &[(d17, d31)], &mut answers).unwrap();
//! assert_eq!(answers, vec![Some(true)]);
//! ```

// Library code reports failures as typed errors, never `panic!` (tests may).
#![cfg_attr(not(test), deny(clippy::panic))]

mod durability;
mod error;
mod frozen;
mod generation;
mod ingest;
mod registry;
mod staging;
mod store;

pub use durability::{
    serialize_base, shared_durable, CompactionPolicy, CompactionStats, CompactionTotals,
    DurableEngine, LogStatus, RecoveryReport, SharedDurable,
};
pub use error::EngineError;
pub use frozen::{EngineCore, WorkerScratch};
pub use generation::{EngineGeneration, EngineWriter, LiveEngine};
pub use ingest::{
    IngestError, IngestOp, IngestOutcome, IngestPipeline, IngestQueue, IngestStats,
    PipelineOptions, PipelineReport, PublishPolicy, Ticket,
};
pub use registry::{ViewId, ViewRef, ViewRegistry};
pub use store::{ItemId, LabelStore};
// The error type `EngineGeneration::save` / `EngineGeneration::load` and
// `DurableEngine::open` surface, so engine users need not name
// `wf-snapshot` directly.
pub use wf_snapshot::SnapshotError;
