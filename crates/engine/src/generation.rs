//! The generational engine: owned, atomically-published generations that
//! let writes land while reads keep flowing.
//!
//! [`crate::EngineCore`] is borrow-chained to one [`Fvl`], registry and
//! store: correct, fast — and *static*. Any mutation (a new view, freshly
//! labeled items) would need `&mut` access to what every frozen reader
//! borrows; a serving process would have to stop the world to grow. Real
//! provenance stores never stop growing: runs are append-heavy, and views
//! accrete as users search and refine them.
//!
//! The split here is RCU-shaped — readers pay nothing, writers pay copies:
//!
//! * [`EngineGeneration`] — one immutable, *owned* engine state: shared
//!   scheme ([`Fvl::from_arc`], so no borrow chain), view registry, label
//!   store, and a sequence number. `Send + Sync` is a compile-checked
//!   invariant; a generation answers queries through `&self` exactly like
//!   the frozen core (it *is* one, via [`EngineGeneration::core`]).
//! * [`EngineWriter`] — the single writer, and the engine's one write
//!   path. Mutations stage against a lazy copy-on-write clone of the base
//!   generation (registry clones are refcount bumps per compiled label;
//!   the store clone is a refcount bump per *shard*, and staging un-shares
//!   only the tail shards an insert batch lands in — see [`LabelStore`]),
//!   so nothing a reader can see is ever mutated in place, and the cost of
//!   a publish cycle tracks the *increment*, not the store size.
//! * [`LiveEngine`] — the publication point. `publish` swaps the current
//!   `Arc<EngineGeneration>` under a `std::sync::Mutex` (publishes are
//!   rare); readers obtain the current generation with a **lock-free fast
//!   path** — an atomic seqno check against a thread-local cache, then a
//!   lock-free `Arc` clone — and fall back to the brief mutex only on the
//!   first read after a publish. In-flight readers simply finish on the
//!   generation they hold; its memory is reclaimed when the last `Arc`
//!   drops. No reader ever blocks a writer, and a writer never blocks the
//!   query path.
//!
//! Persistence has one format: [`EngineGeneration::save`] writes a full
//! base snapshot, and [`EngineWriter::publish_durable`] appends each
//! publish's *delta record* (just what the publish added) as a
//! checksummed, fsynced frame of a [`DurableEngine`] op-log before the
//! swap. [`DurableEngine::open`] warm-starts from base ‖ frames — restart
//! cost proportional to what changed since the last compaction, not to the
//! store.

use crate::durability::DurableEngine;
use crate::error::EngineError;
use crate::frozen::EngineCore;
use crate::registry::{ViewId, ViewRef, ViewRegistry};
use crate::staging::StagedState;
use crate::store::{ItemId, LabelStore};
use std::cell::RefCell;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use wf_bitio::{BitReader, BitWriter};
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_model::View;
use wf_snapshot::{
    oplog::{self, OplogOp},
    read_container, read_label, spec_fingerprint, write_container, SnapshotError,
};

/// Section tags inside the snapshot payload (one byte each, in order). A
/// base snapshot is `0x03` (seqno) ‖ `0x01` (store) ‖ `0x02` (registry); a
/// delta record opens with `0x04`. A payload opening directly with `0x01`
/// is the single-generation snapshot older builds wrote, and loads as the
/// origin generation (seqno 0).
const SECTION_STORE: u64 = 0x01;
const SECTION_REGISTRY: u64 = 0x02;
const SECTION_GENERATION: u64 = 0x03;
const SECTION_DELTA: u64 = 0x04;

/// One immutable, owned engine state: everything the read path needs, with
/// no borrow reaching outside the `Arc` it is published in.
pub struct EngineGeneration {
    fvl: Arc<Fvl<'static>>,
    registry: ViewRegistry,
    store: LabelStore,
    seqno: u64,
}

// The whole point of owning the parts: a generation crosses threads freely
// behind its `Arc`, and `LiveEngine` is shared by every reader and the
// writer. If any field ever gains a borrow or interior mutability that
// breaks this, the build fails here.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<EngineGeneration>();
    shared_across_threads::<LiveEngine>();
};

impl EngineGeneration {
    /// The empty first generation (seqno 0): no items, no views. Mutations
    /// flow through an [`EngineWriter`] from here.
    pub fn empty(fvl: Arc<Fvl<'static>>) -> Self {
        Self::empty_with_shard_capacity(fvl, LabelStore::DEFAULT_SHARD_CAPACITY)
    }

    /// [`EngineGeneration::empty`] over a store of `shard_capacity`-item
    /// shards (see [`LabelStore::with_shard_capacity`]). The capacity is
    /// inherited by every later generation of the chain: staging clones the
    /// store, and the clone keeps its layout.
    ///
    /// # Panics
    ///
    /// If `shard_capacity` is 0.
    pub fn empty_with_shard_capacity(fvl: Arc<Fvl<'static>>, shard_capacity: u32) -> Self {
        Self {
            fvl,
            registry: ViewRegistry::new(),
            store: LabelStore::with_shard_capacity(shard_capacity),
            seqno: 0,
        }
    }

    pub fn fvl(&self) -> &Arc<Fvl<'static>> {
        &self.fvl
    }

    /// The generation's position in the publish chain (0 = empty origin;
    /// each publish increments by exactly one).
    pub fn seqno(&self) -> u64 {
        self.seqno
    }

    pub fn store(&self) -> &LabelStore {
        &self.store
    }

    pub fn registry(&self) -> &ViewRegistry {
        &self.registry
    }

    /// The generation as a frozen serving core — the lock-free, `Sync`,
    /// `&self` read path and the generation's only query surface: one
    /// query, one batch and one all-pairs sweep, the last two fanned out
    /// when handed several scratches. Building one is free.
    pub fn core(&self) -> EngineCore<'_> {
        EngineCore::new(self.fvl.as_ref(), &self.registry, &self.store)
    }

    fn fingerprint(&self) -> u64 {
        spec_fingerprint(&self.fvl.spec().grammar, self.fvl.prod_graph())
    }

    /// Persists this generation as a *base* snapshot: seqno, then the
    /// interned label store (trie nodes in creation order, so shared
    /// prefixes stay shared on disk), every registered view and every
    /// compiled `ViewLabel` including the Query-Efficient power caches,
    /// under the versioned, checksummed container. Scratch state (matrix
    /// pool, chain-power memo) is *not* persisted: it is a per-process
    /// warm-up artifact that rebuilds in a handful of queries.
    pub fn save(&self, to: &mut impl Write) -> Result<(), SnapshotError> {
        let mut w = BitWriter::new();
        w.write_bits(SECTION_GENERATION, 8);
        w.write_gamma(self.seqno + 1);
        w.write_bits(SECTION_STORE, 8);
        self.store.write_snapshot(self.fvl.codec(), &mut w);
        w.write_bits(SECTION_REGISTRY, 8);
        self.registry.write_snapshot(&self.fvl.spec().grammar, &mut w);
        write_container(to, self.fingerprint(), &w.finish())
    }

    /// Restores one base snapshot written by [`EngineGeneration::save`]
    /// against the *same* specification (enforced by the header
    /// fingerprint — a snapshot of a different spec is rejected with
    /// [`SnapshotError::SpecMismatch`] before any payload bit is read).
    /// A single-generation snapshot from an older build (store and
    /// registry sections only) loads as seqno 0.
    ///
    /// `ItemId`s and `ViewId`s are stable across save/load: the store is
    /// re-sharded from the persisted creation-order node list into the
    /// shard layout a cold build produces (only the open tail shard gets
    /// an interning map back), and views keep their registration order.
    /// A warm start never re-runs labeling, compilation or cycle-finding.
    /// Truncated, corrupted or version-mismatched input yields a typed
    /// [`SnapshotError`]; this constructor never panics on bad bytes.
    pub fn load(fvl: Arc<Fvl<'static>>, from: &mut impl Read) -> Result<Self, SnapshotError> {
        Self::load_with_shard_capacity(fvl, from, LabelStore::DEFAULT_SHARD_CAPACITY)
    }

    /// [`EngineGeneration::load`] re-sharding the store at `shard_capacity`
    /// — the wire format carries no layout (see
    /// [`LabelStore::write_snapshot`]), so a snapshot saved at any capacity
    /// (including pre-shard snapshots) loads at any other. A zero capacity
    /// is [`SnapshotError::Io`] of kind [`io::ErrorKind::InvalidInput`].
    pub fn load_with_shard_capacity(
        fvl: Arc<Fvl<'static>>,
        from: &mut impl Read,
        shard_capacity: u32,
    ) -> Result<Self, SnapshotError> {
        let container = read_container(from)?;
        let expected = spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
        if container.fingerprint != expected {
            return Err(SnapshotError::SpecMismatch { expected, found: container.fingerprint });
        }
        let mut r = BitReader::new(&container.payload);
        let seqno = match r.read_bits(8)? {
            SECTION_GENERATION => {
                let seqno = r.read_gamma()? - 1;
                expect_section(&mut r, SECTION_STORE)?;
                seqno
            }
            SECTION_STORE => 0,
            _ => return Err(SnapshotError::Malformed("unexpected section tag")),
        };
        let store = LabelStore::read_snapshot_with_capacity(
            &mut r,
            fvl.codec(),
            &fvl.spec().grammar,
            fvl.prod_graph(),
            shard_capacity,
        )?;
        expect_section(&mut r, SECTION_REGISTRY)?;
        let registry = ViewRegistry::read_snapshot(&mut r, &fvl.spec().grammar, fvl.prod_graph())?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed("trailing payload bits"));
        }
        Ok(Self { fvl, registry, store, seqno })
    }

    /// Applies one decoded delta record, yielding the successor generation
    /// (recovery calls this once per op-log frame). The payload is the
    /// op-log framing ([`wf_snapshot::oplog`]): the increment as typed ops
    /// in the order the publisher applied them. Replay reproduces exactly
    /// what was staged: labels re-intern into the same dense ids, views
    /// re-register (structural dedup makes that deterministic) and must
    /// land on their recorded ids, and compiled labels install into empty
    /// slots only.
    pub(crate) fn apply_delta(
        &self,
        r: &mut BitReader<'_>,
    ) -> Result<EngineGeneration, SnapshotError> {
        expect_section(r, SECTION_DELTA)?;
        let base = r.read_gamma()? - 1;
        let seqno = r.read_gamma()? - 1;
        if base != self.seqno || seqno != self.seqno + 1 {
            return Err(SnapshotError::Malformed("delta does not chain onto this generation"));
        }
        let grammar = &self.fvl.spec().grammar;
        let pg = self.fvl.prod_graph();
        let cycles =
            pg.cycles().map_err(|_| SnapshotError::Malformed("spec has no cycle tables"))?;
        let mut store = self.store.clone();
        let mut registry = self.registry.clone();

        let op_count = (r.read_gamma()? - 1) as usize;
        for _ in 0..op_count {
            match oplog::read_op(r, grammar, pg)? {
                OplogOp::InsertLabels { count } => {
                    for _ in 0..count {
                        let d = read_label(r, self.fvl.codec(), grammar, cycles)?;
                        store.try_insert(&d).map_err(|_| {
                            SnapshotError::Malformed("label store overflow during replay")
                        })?;
                    }
                }
                OplogOp::AddView { id, view } => {
                    if registry.add_view(view).0 != id {
                        return Err(SnapshotError::Malformed("view id drift during delta replay"));
                    }
                }
                OplogOp::CompileView { id, label } => {
                    registry.adopt_compiled(ViewId(id), label)?;
                }
            }
        }
        Ok(EngineGeneration { fvl: self.fvl.clone(), registry, store, seqno })
    }
}

/// The single-producer façade over the staging core (the crate-private
/// `StagedState`) — one thread mutating, publishing, and optionally
/// persisting a generation chain directly. Every write to the engine goes
/// through one of these.
///
/// Mutations stage against a lazy copy-on-write clone of the base
/// generation — the first mutation after a publish pays the clone, and
/// readers of the published generations are never affected. `publish`
/// freezes the staged state into the next [`EngineGeneration`] and swaps
/// it into a [`LiveEngine`]; the writer then continues from the new base.
///
/// Concurrent producers do not share an `EngineWriter`: they feed an
/// [`crate::IngestQueue`] and the pipeline's publisher drives one writer
/// on their behalf ([`crate::IngestPipeline`]) — same staging core, same
/// publish path, same delta frames, so a single-producer chain and a
/// multi-producer one are indistinguishable on disk and on recovery.
///
/// Ids are stable across publishes: an [`ItemId`] or [`ViewRef`] handed
/// out while staging is valid in the generation that publish produces and
/// in every later one (the store and registry only grow).
pub struct EngineWriter {
    base: Arc<EngineGeneration>,
    staged: Option<StagedState>,
}

impl EngineWriter {
    /// A writer continuing the chain from `base` (freshly built, loaded,
    /// or the result of an earlier publish).
    pub fn new(base: Arc<EngineGeneration>) -> Self {
        Self { base, staged: None }
    }

    /// A writer starting a brand-new chain from the empty generation.
    pub fn from_fvl(fvl: Arc<Fvl<'static>>) -> Self {
        Self::new(Arc::new(EngineGeneration::empty(fvl)))
    }

    /// [`EngineWriter::from_fvl`] with an explicit store shard capacity
    /// (see [`EngineGeneration::empty_with_shard_capacity`]).
    ///
    /// # Panics
    ///
    /// If `shard_capacity` is 0.
    pub fn from_fvl_with_shard_capacity(fvl: Arc<Fvl<'static>>, shard_capacity: u32) -> Self {
        Self::new(Arc::new(EngineGeneration::empty_with_shard_capacity(fvl, shard_capacity)))
    }

    /// The generation this writer's staged changes build on (the most
    /// recently published one, once anything was published).
    pub fn base(&self) -> &Arc<EngineGeneration> {
        &self.base
    }

    /// Whether anything is staged and unpublished.
    pub fn has_staged_changes(&self) -> bool {
        self.staged.is_some()
    }

    fn staged(&mut self) -> &mut StagedState {
        self.staged.get_or_insert_with(|| StagedState::from_base(&self.base))
    }

    /// Stages one data label; the returned id is valid from the next
    /// publish on. A full store is [`EngineError::StoreFull`]. The staged
    /// store is the single copy of the label — the delta writer
    /// re-materializes the `base.len()..staged.len()` id range on demand,
    /// so heavy ingest never pays double storage for its increment.
    pub fn try_insert_label(&mut self, d: &DataLabel) -> Result<ItemId, EngineError> {
        self.staged().try_insert(d)
    }

    /// Stages a slice of labels in order, stopping at the first label that
    /// cannot be staged and leaving the earlier ones staged. The error is
    /// [`EngineError::BatchStoreFull`] with the failing label's batch
    /// index, so the caller can retry `labels[index..]`.
    pub fn try_insert_labels(&mut self, labels: &[DataLabel]) -> Result<Vec<ItemId>, EngineError> {
        self.staged().try_insert_all(labels)
    }

    /// Stages a view registration (structural dedup applies: re-adding a
    /// known view returns its existing id and stages nothing).
    pub fn add_view(&mut self, view: View) -> ViewId {
        self.staged().add_view(view)
    }

    /// Stages the compilation of `(id, kind)` (idempotent across the whole
    /// chain: a label compiled in any earlier generation is reused). An id
    /// never registered in this chain is [`EngineError::ViewNotRegistered`];
    /// a failed compilation is [`EngineError::Compile`].
    pub fn compile(&mut self, id: ViewId, kind: VariantKind) -> Result<ViewRef, EngineError> {
        let fvl = self.base.fvl.clone();
        self.staged().compile(&fvl, id, kind)
    }

    /// Register + compile in one step.
    pub fn register_view(&mut self, view: View, kind: VariantKind) -> Result<ViewRef, EngineError> {
        let id = self.add_view(view);
        self.compile(id, kind)
    }

    fn freeze_staged(&mut self, st: StagedState) -> Arc<EngineGeneration> {
        let gen = Arc::new(EngineGeneration {
            fvl: self.base.fvl.clone(),
            registry: st.registry,
            store: st.store,
            seqno: self.base.seqno + 1,
        });
        self.base = gen.clone();
        gen
    }

    /// Freezes the staged state into the next generation and publishes it
    /// on `live`. In-flight readers finish on their old generation; new
    /// reads see this one. With nothing staged this is a no-op returning
    /// the current base (publishing an unchanged state would only churn
    /// reader caches).
    pub fn publish(&mut self, live: &LiveEngine) -> Arc<EngineGeneration> {
        match self.staged.take() {
            None => self.base.clone(),
            Some(st) => {
                let gen = self.freeze_staged(st);
                live.publish(gen.clone());
                gen
            }
        }
    }

    /// [`EngineWriter::publish`] made durable, and the one function that
    /// orders a persisted publish: encode the staged increment as a delta
    /// record, append it to `durable` as a checksummed frame and fsync
    /// (the acknowledgement barrier), and only then swap the next
    /// generation into `live` — so a crash at any point loses at most an
    /// unacknowledged publish, never a published one.
    ///
    /// On `Err` nothing is consumed: the staged state stays intact for a
    /// retry, no generation is published, and the log keeps its last frame
    /// boundary. A writer whose base no longer matches the log's newest
    /// seqno (a stale writer) is rejected with
    /// [`io::ErrorKind::InvalidInput`] before any byte is written. With
    /// nothing staged this appends nothing and returns the current base.
    pub fn publish_durable(
        &mut self,
        live: &LiveEngine,
        durable: &mut DurableEngine,
    ) -> io::Result<Arc<EngineGeneration>> {
        if self.staged.is_none() {
            return Ok(self.base.clone());
        }
        durable.append(self.base.seqno + 1, &self.delta_record()?)?;
        Ok(self.publish(live))
    }

    /// Serializes the staged increment into one container-framed delta
    /// record — the op-log of this publish, in application order
    /// (borrowing the staged state — nothing is consumed).
    fn delta_record(&self) -> io::Result<Vec<u8>> {
        let st = self.staged.as_ref().expect("caller checked staged presence");
        let fvl = &self.base.fvl;
        let mut w = BitWriter::new();
        w.write_bits(SECTION_DELTA, 8);
        st.write_delta(fvl, self.base.seqno, &mut w);
        let fp = spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
        let mut record = Vec::new();
        write_container(&mut record, fp, &w.finish()).map_err(io::Error::other)?;
        Ok(record)
    }
}

fn expect_section(r: &mut BitReader<'_>, tag: u64) -> Result<(), SnapshotError> {
    if r.read_bits(8)? != tag {
        return Err(SnapshotError::Malformed("unexpected section tag"));
    }
    Ok(())
}

/// Global id source for [`LiveEngine`]s — what keys the thread-local
/// reader cache, so generations of distinct live engines can never be
/// confused for one another.
static NEXT_LIVE_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread reader cache: `(live engine id, seqno, generation)` of
    /// the last generation this thread read. One entry suffices — a thread
    /// serving one live engine (the overwhelmingly common shape) hits it
    /// every time; alternating between several live engines falls back to
    /// the brief mutex path, never to wrong answers.
    static READER_CACHE: RefCell<Option<(u64, u64, Arc<EngineGeneration>)>> =
        const { RefCell::new(None) };
}

/// The publication point readers poll and the writer swaps.
///
/// Reads are wait-free in steady state: one atomic load, one thread-local
/// compare, one lock-free `Arc` refcount bump. The `Mutex` is touched only
/// by `publish` (rare by construction) and by the first read after a
/// publish — and it guards nothing but the pointer swap, so even that read
/// blocks for nanoseconds, never for the duration of anyone's query.
pub struct LiveEngine {
    id: u64,
    seq: AtomicU64,
    current: Mutex<Arc<EngineGeneration>>,
}

impl LiveEngine {
    pub fn new(initial: Arc<EngineGeneration>) -> Self {
        Self {
            id: NEXT_LIVE_ID.fetch_add(1, Ordering::Relaxed),
            seq: AtomicU64::new(initial.seqno),
            current: Mutex::new(initial),
        }
    }

    /// The seqno of the most recently published generation.
    pub fn seqno(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// The current generation via the mutex (no thread-local involvement;
    /// diagnostics and single-shot callers).
    pub fn snapshot(&self) -> Arc<EngineGeneration> {
        self.current.lock().expect("live engine mutex poisoned").clone()
    }

    /// The current generation via the lock-free fast path. Always returns
    /// *some published* generation; immediately after a publish it may be
    /// the previous one (a reader that must observe its own writer's
    /// publish should use [`LiveEngine::snapshot`]).
    ///
    /// The thread-local cache retains one `Arc` per thread until that
    /// thread's next `read` — an idle reader thread therefore keeps at
    /// most one old generation alive, a deliberate trade for a read path
    /// with no locks and no reclamation machinery.
    pub fn read(&self) -> Arc<EngineGeneration> {
        let seq = self.seq.load(Ordering::Acquire);
        let hit = READER_CACHE.with(|c| match &*c.borrow() {
            Some((id, s, gen)) if *id == self.id && *s == seq => Some(gen.clone()),
            _ => None,
        });
        if let Some(gen) = hit {
            return gen;
        }
        let gen = self.snapshot();
        READER_CACHE.with(|c| *c.borrow_mut() = Some((self.id, gen.seqno, gen.clone())));
        gen
    }

    /// Atomically replaces the current generation. Readers holding the old
    /// generation finish undisturbed; new reads see `gen`. Panics if `gen`
    /// does not advance the chain (a writer bug, not an input).
    pub fn publish(&self, gen: Arc<EngineGeneration>) {
        let mut cur = self.current.lock().expect("live engine mutex poisoned");
        assert!(
            gen.seqno > cur.seqno,
            "published generations must have strictly increasing seqnos ({} -> {})",
            cur.seqno,
            gen.seqno
        );
        *cur = gen;
        self.seq.store(cur.seqno, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::WorkerScratch;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    fn shared_fvl() -> Arc<Fvl<'static>> {
        let ex = paper_example();
        Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap())
    }

    #[test]
    fn writer_stages_and_publishes_without_disturbing_readers() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let (run, ids) = figure3_run(&ex);
        let labels = Fvl::new(&ex.spec).unwrap().labeler(&run).labels().to_vec();

        let mut writer = EngineWriter::from_fvl(fvl);
        let items = writer.try_insert_labels(&labels).unwrap();
        let u2 = writer.register_view(ex.view_u2(), VariantKind::Default).unwrap();
        let live = LiveEngine::new(writer.base().clone());
        assert_eq!(live.seqno(), 0, "nothing published yet");
        let g1 = writer.publish(&live);
        assert_eq!(g1.seqno(), 1);
        assert_eq!(live.seqno(), 1);

        // Example 8 answered by the published generation.
        let mut ws = WorkerScratch::new();
        let (d17, d31) = (items[ids.d17.0 as usize], items[ids.d31.0 as usize]);
        let old = live.read();
        assert_eq!(old.core().try_query(&mut ws, u2, d17, d31).unwrap(), Some(true));

        // Stage + publish a second view; the held generation is unchanged.
        let u1 = writer.register_view(ex.view_u1(), VariantKind::Default).unwrap();
        let g2 = writer.publish(&live);
        assert_eq!(g2.seqno(), 2);
        assert_eq!(old.seqno(), 1, "readers keep their generation across publishes");
        assert!(old.registry().label(u1).is_none(), "old generation never sees new views");
        let new = live.read();
        assert_eq!(new.seqno(), 2);
        assert_eq!(new.core().try_query(&mut ws, u1, d17, d31).unwrap(), Some(false));
        assert_eq!(new.core().try_query(&mut ws, u2, d17, d31).unwrap(), Some(true));

        // Publishing with nothing staged is a no-op.
        assert!(!writer.has_staged_changes());
        let g2b = writer.publish(&live);
        assert_eq!(g2b.seqno(), 2);
        assert_eq!(live.seqno(), 2);
    }

    #[test]
    fn read_fast_path_tracks_publishes() {
        let fvl = shared_fvl();
        let mut writer = EngineWriter::from_fvl(fvl);
        let live = LiveEngine::new(writer.base().clone());
        // Warm the thread-local cache, then publish and read again: the
        // fast path must move to the new generation (seqno check), and a
        // repeated read must hit the cache (same Arc).
        let a = live.read();
        assert_eq!(a.seqno(), 0);
        let ex = paper_example();
        writer.add_view(ex.view_u1());
        writer.publish(&live);
        let b = live.read();
        assert_eq!(b.seqno(), 1);
        let c = live.read();
        assert!(Arc::ptr_eq(&b, &c), "cached fast path returns the same generation");
    }

    #[test]
    fn compile_reuses_labels_across_generations() {
        let ex = paper_example();
        let fvl = shared_fvl();
        let mut writer = EngineWriter::from_fvl(fvl);
        let v = writer.register_view(ex.view_u1(), VariantKind::Default).unwrap();
        // An id never registered in this chain is a typed error.
        let foreign = ViewId(v.id.0 + 1);
        assert_eq!(
            writer.compile(foreign, VariantKind::Default),
            Err(EngineError::ViewNotRegistered { id: foreign })
        );
        let live = LiveEngine::new(writer.base().clone());
        let g1 = writer.publish(&live);
        let uid1 = g1.registry().label(v).unwrap().uid();
        // A later generation that recompiles the same pair shares the
        // compiled label (same uid — scratch memos stay warm and sound).
        writer.add_view(ex.view_u2());
        let v_again = writer.compile(v.id, VariantKind::Default).unwrap();
        assert_eq!(v_again, v);
        let g2 = writer.publish(&live);
        assert_eq!(g2.registry().label(v).unwrap().uid(), uid1);
    }
}
