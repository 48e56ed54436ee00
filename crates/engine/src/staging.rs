//! The staging core shared by [`crate::EngineWriter`] and the ingest
//! pipeline's publisher.
//!
//! Everything a publish adds is staged here first: copy-on-write clones of
//! the base generation's registry and store absorb mutations, and a
//! *journal* records the ops in application order. The journal is what the
//! delta record is written from — the op-log wire form
//! ([`wf_snapshot::oplog`]) frames the increment as the same typed ops the
//! ingest queue carries, in the order they were applied, so a replayed
//! stream re-applies exactly what the live publisher did. Contiguous
//! insert runs coalesce into one journal entry (the store only ever grows
//! at the tail, so adjacent inserts are one id range no matter how many
//! producers' ops they came from); view registrations and compilations
//! journal once per *new* registration or compilation, because dedup and
//! idempotent-compile make the repeats no-ops that replay must not see.
//!
//! The staged store is the single copy of the inserted labels — the delta
//! writer reads the journaled id ranges back from it on demand, so heavy
//! ingest never pays double storage for its increment.

use crate::error::EngineError;
use crate::generation::EngineGeneration;
use crate::registry::{ViewId, ViewRef, ViewRegistry};
use crate::store::{ItemId, LabelStore};
use std::sync::Arc;
use wf_bitio::BitWriter;
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_model::View;
use wf_snapshot::{oplog, write_label};

/// One journaled mutation, in application order.
pub(crate) enum StagedOp {
    /// Labels interned at ids `from..to` of the staged store.
    Insert { from: u32, to: u32 },
    /// A view newly registered under `id`.
    AddView(ViewId),
    /// A `(view, kind)` newly compiled.
    Compile(ViewRef),
}

/// The writer's working state between publishes.
pub(crate) struct StagedState {
    pub registry: ViewRegistry,
    pub store: LabelStore,
    journal: Vec<StagedOp>,
    /// Store length the journal covers so far; lets every insert path
    /// (single, batch, partial-batch-then-error) journal by observed
    /// growth instead of by claimed success.
    journaled_len: usize,
}

impl StagedState {
    pub fn from_base(base: &EngineGeneration) -> Self {
        Self {
            registry: base.registry().clone(),
            store: base.store().clone(),
            journal: Vec::new(),
            journaled_len: base.store().len(),
        }
    }

    /// Extends the journal to cover every label the store gained since the
    /// last call — adjacent insert runs fuse into one entry.
    fn journal_store_growth(&mut self) {
        let len = self.store.len();
        if len == self.journaled_len {
            return;
        }
        match self.journal.last_mut() {
            Some(StagedOp::Insert { to, .. }) if *to as usize == self.journaled_len => {
                *to = len as u32;
            }
            _ => self
                .journal
                .push(StagedOp::Insert { from: self.journaled_len as u32, to: len as u32 }),
        }
        self.journaled_len = len;
    }

    pub fn try_insert(&mut self, d: &DataLabel) -> Result<ItemId, EngineError> {
        let r = self.store.try_insert(d);
        self.journal_store_growth();
        r
    }

    /// Batch insert; on [`EngineError::BatchStoreFull`] the stored prefix
    /// is journaled (ids stay dense — replay must see it).
    pub fn try_insert_all(&mut self, labels: &[DataLabel]) -> Result<Vec<ItemId>, EngineError> {
        let r = self.store.try_insert_all(labels);
        self.journal_store_growth();
        r
    }

    pub fn add_view(&mut self, view: View) -> ViewId {
        let before = self.registry.view_count();
        let id = self.registry.add_view(view);
        if self.registry.view_count() > before {
            self.journal.push(StagedOp::AddView(id));
        }
        id
    }

    pub fn compile(
        &mut self,
        fvl: &Arc<Fvl<'static>>,
        id: ViewId,
        kind: VariantKind,
    ) -> Result<ViewRef, EngineError> {
        let was_compiled = self.registry.is_compiled(id, kind);
        let r = self.registry.compile(fvl.as_ref(), id, kind)?;
        if !was_compiled {
            self.journal.push(StagedOp::Compile(r));
        }
        Ok(r)
    }

    /// Serializes the staged increment as the `SECTION_DELTA` op-log
    /// payload chaining `base_seqno → base_seqno + 1` (framing per
    /// [`wf_snapshot::oplog`]; the caller seals the container). Labels are
    /// read back through [`LabelStore::label_ref`] into two reused path
    /// buffers, so writing them allocates nothing per label.
    pub fn write_delta(&self, fvl: &Fvl<'static>, base_seqno: u64, w: &mut BitWriter) {
        let grammar = &fvl.spec().grammar;
        let (mut out_buf, mut inp_buf) = (Vec::new(), Vec::new());
        w.write_gamma(base_seqno + 1);
        w.write_gamma(base_seqno + 2);
        w.write_gamma(self.journal.len() as u64 + 1);
        for op in &self.journal {
            match op {
                StagedOp::Insert { from, to } => {
                    oplog::write_insert_header(w, (to - from) as usize);
                    for i in *from..*to {
                        let d = self.store.label_ref(ItemId(i), &mut out_buf, &mut inp_buf);
                        write_label(w, fvl.codec(), d);
                    }
                }
                StagedOp::AddView(id) => {
                    let view = self
                        .registry
                        .view(*id)
                        .expect("staged registrations are present in the staged registry");
                    oplog::write_add_view(w, grammar, id.0, view);
                }
                StagedOp::Compile(vr) => {
                    let vl = self
                        .registry
                        .label(*vr)
                        .expect("staged compilations are present in the staged registry");
                    oplog::write_compile_view(w, vr.id.0, vl);
                }
            }
        }
    }
}
