//! The frozen serving core: an immutable, `Sync` read path over a compiled
//! engine, plus the per-worker mutable state that makes queries cheap.
//!
//! A query both *reads* compiled state and *mutates* scratch (path
//! buffers, chain-power memos); bundling the two would make every query
//! `&mut self` and cap a service at one core. The split here separates
//! what a query reads from what it mutates:
//!
//! * [`EngineCore`] — registry, label store and scheme references, all
//!   accessed through `&self`. Every field is plain owned data (asserted
//!   `Send + Sync` at compile time in `wf-core`/`wf-boolmat`), so one core
//!   can be shared by any number of worker threads.
//! * [`WorkerScratch`] — one worker's mutable state: the [`QueryScratch`]
//!   (matrix pool + uid-keyed chain-power memo) and the four `EdgeLabel`
//!   path buffers the store materializes borrowed labels into. Workers
//!   never share scratches, so there is no locking anywhere on the query
//!   path; each worker's memo warms up independently and stays warm.
//!
//! [`EngineCore::try_par_query_batch`] and [`EngineCore::try_par_all_pairs`]
//! fan a workload out across `std::thread::scope` workers over contiguous
//! shards and merge deterministically: results are written into (or
//! concatenated in) shard order, so the output is element-for-element
//! identical to the sequential path no matter the thread count or
//! scheduling.

use crate::error::EngineError;
use crate::registry::{ViewRef, ViewRegistry};
use crate::store::{ItemId, LabelStore};
use wf_core::{is_visible_ref, pi_with, DecodeCtx, Fvl, QueryScratch};
use wf_profile::Stage;
use wf_run::EdgeLabel;

/// One worker's mutable query state: scratch (pool + memo) and the label
/// path buffers. Create one per thread — construction is cheap and the
/// buffers warm up within a handful of queries.
#[derive(Default)]
pub struct WorkerScratch {
    pub(crate) scratch: QueryScratch,
    pub(crate) buf_o1: Vec<EdgeLabel>,
    pub(crate) buf_i1: Vec<EdgeLabel>,
    pub(crate) buf_o2: Vec<EdgeLabel>,
    pub(crate) buf_i2: Vec<EdgeLabel>,
    /// Evaluation-order indices for grouped batches (reused across calls).
    pub(crate) order: Vec<u32>,
}

impl WorkerScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the chain-power memo, recycling its matrices into the pool
    /// (bounds memo memory in very long-lived workers).
    pub fn clear_memo(&mut self) {
        self.scratch.clear_memo();
    }

    /// Scratch diagnostics: (pooled matrices, memoized chain powers).
    pub fn stats(&self) -> (usize, usize) {
        (self.scratch.pooled_mats(), self.scratch.memoized_powers())
    }
}

/// Visibility pre-check + π over store-interned items — the per-pair
/// kernel shared by the sequential and parallel paths.
pub(crate) fn query_pair(
    store: &LabelStore,
    ctx: &DecodeCtx<'_>,
    ws: &mut WorkerScratch,
    a: ItemId,
    b: ItemId,
) -> Option<bool> {
    let (r1, r2) = {
        let _f = wf_profile::scope(Stage::LabelFetch);
        (
            store.label_ref(a, &mut ws.buf_o1, &mut ws.buf_i1),
            store.label_ref(b, &mut ws.buf_o2, &mut ws.buf_i2),
        )
    };
    if !is_visible_ref(r1, ctx.vl, ctx.pg) || !is_visible_ref(r2, ctx.vl, ctx.pg) {
        return None;
    }
    pi_with(ctx, &mut ws.scratch, r1, r2)
}

/// The all-pairs row sweep: every `rows × items` ordered pair with both
/// endpoints visible and `π == true`, pushed onto `out` in row-major
/// order. One kernel for the sequential path (`rows == items`) and each
/// parallel shard, so the two can never drift apart semantically.
fn sweep_rows(
    store: &LabelStore,
    ctx: &DecodeCtx<'_>,
    ws: &mut WorkerScratch,
    rows: &[ItemId],
    items: &[ItemId],
    out: &mut Vec<(ItemId, ItemId)>,
) {
    for &a in rows {
        let r1 = {
            let _f = wf_profile::scope(Stage::LabelFetch);
            store.label_ref(a, &mut ws.buf_o1, &mut ws.buf_i1)
        };
        if !is_visible_ref(r1, ctx.vl, ctx.pg) {
            continue;
        }
        for &b in items {
            let r2 = {
                let _f = wf_profile::scope(Stage::LabelFetch);
                store.label_ref(b, &mut ws.buf_o2, &mut ws.buf_i2)
            };
            if !is_visible_ref(r2, ctx.vl, ctx.pg) {
                continue;
            }
            if pi_with(ctx, &mut ws.scratch, r1, r2) == Some(true) {
                out.push((a, b));
            }
        }
    }
}

/// The immutable half of a serving engine: everything a query reads,
/// behind `&self`. Obtained from [`crate::EngineGeneration::core`] (or
/// built directly from the parts); holds only references, so building one
/// is free and many cores can coexist.
#[derive(Clone, Copy)]
pub struct EngineCore<'e> {
    fvl: &'e Fvl<'e>,
    registry: &'e ViewRegistry,
    store: &'e LabelStore,
}

// The whole point of the split: a core is shareable across threads. If a
// field ever gains interior mutability, this fails to compile.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<EngineCore<'static>>();
    const fn moved_into_a_thread<T: Send>() {}
    moved_into_a_thread::<WorkerScratch>();
};

impl<'e> EngineCore<'e> {
    pub fn new(fvl: &'e Fvl<'e>, registry: &'e ViewRegistry, store: &'e LabelStore) -> Self {
        Self { fvl, registry, store }
    }

    pub fn fvl(&self) -> &'e Fvl<'e> {
        self.fvl
    }

    pub fn registry(&self) -> &'e ViewRegistry {
        self.registry
    }

    pub fn store(&self) -> &'e LabelStore {
        self.store
    }

    /// The decode context of one compiled view — build once per (view,
    /// batch) and reuse; it is `Sync`, so one context can serve every
    /// worker of a fan-out (the Space-Efficient port-graph cache inside it
    /// is then also shared, built once instead of once per worker).
    pub fn context(&self, view: ViewRef) -> Result<DecodeCtx<'e>, EngineError> {
        let vl = self.registry.label(view).ok_or(EngineError::ViewNotCompiled { view })?;
        Ok(DecodeCtx::new(&self.fvl.spec().grammar, self.fvl.prod_graph(), vl))
    }

    fn check_item(&self, item: ItemId) -> Result<(), EngineError> {
        let len = self.store.len();
        if (item.0 as usize) < len {
            Ok(())
        } else {
            Err(EngineError::ItemOutOfRange { item, len })
        }
    }

    /// One dependency query (semantics of [`wf_core::Fvl::query`]): `None`
    /// iff either item is invisible in the view.
    ///
    /// A store may intern the labels of several runs. A pair whose items
    /// come from two different runs has no dependency to decide: it gets an
    /// unspecified answer (`Some(true)`, `Some(false)` or `None`), but never
    /// a panic.
    pub fn try_query(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        a: ItemId,
        b: ItemId,
    ) -> Result<Option<bool>, EngineError> {
        let ctx = self.context(view)?;
        self.check_item(a)?;
        self.check_item(b)?;
        Ok(query_pair(self.store, &ctx, ws, a, b))
    }

    /// Answers a batch of pairs into `out` (cleared first), reusing one
    /// worker's scratch across the whole batch; steady state performs no
    /// allocation. Validates the view and every item before answering
    /// anything, so a failed call leaves `out` empty rather than partial.
    ///
    /// Evaluation is *grouped*, not in input order: the batch is sorted
    /// (through a reused index buffer) by `(a, b)` item id, so every run of
    /// pairs sharing a first item fetches and visibility-checks `a`'s label
    /// once, and neighboring ids — interned in insertion order, so sharing
    /// production-path prefixes and store shards — keep the scratch's
    /// chain-power memo and the store's trie nodes hot. Results are written
    /// back through the index, so `out` is element-for-element identical to
    /// input-order evaluation (π is pure per pair; see
    /// `grouped_batch_matches_per_call_queries` in `tests/serving.rs`).
    pub fn try_query_batch_into(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        pairs: &[(ItemId, ItemId)],
        out: &mut Vec<Option<bool>>,
    ) -> Result<(), EngineError> {
        out.clear();
        let ctx = self.context(view)?;
        for &(a, b) in pairs {
            self.check_item(a)?;
            self.check_item(b)?;
        }
        let _batch = wf_profile::scope(Stage::Batch);
        out.resize(pairs.len(), None);
        let WorkerScratch { scratch, buf_o1, buf_i1, buf_o2, buf_i2, order } = ws;
        order.clear();
        order.extend(0..pairs.len() as u32);
        order.sort_unstable_by_key(|&i| {
            let (a, b) = pairs[i as usize];
            (a.0, b.0)
        });
        let mut at = 0;
        while at < order.len() {
            let a = pairs[order[at] as usize].0;
            let r1 = {
                let _f = wf_profile::scope(Stage::LabelFetch);
                self.store.label_ref(a, buf_o1, buf_i1)
            };
            let visible1 = is_visible_ref(r1, ctx.vl, ctx.pg);
            while at < order.len() {
                let slot = order[at] as usize;
                let (a2, b) = pairs[slot];
                if a2 != a {
                    break;
                }
                out[slot] = if !visible1 {
                    None
                } else {
                    let r2 = {
                        let _f = wf_profile::scope(Stage::LabelFetch);
                        self.store.label_ref(b, buf_o2, buf_i2)
                    };
                    if is_visible_ref(r2, ctx.vl, ctx.pg) {
                        pi_with(&ctx, scratch, r1, r2)
                    } else {
                        None
                    }
                };
                at += 1;
            }
        }
        Ok(())
    }

    /// Sweeps every ordered pair of `items`, collecting the dependent ones
    /// (`Some(true)`) into `out` (cleared first), in row-major order.
    pub fn try_all_pairs_into(
        &self,
        ws: &mut WorkerScratch,
        view: ViewRef,
        items: &[ItemId],
        out: &mut Vec<(ItemId, ItemId)>,
    ) -> Result<(), EngineError> {
        out.clear();
        let ctx = self.context(view)?;
        for &a in items {
            self.check_item(a)?;
        }
        let _batch = wf_profile::scope(Stage::Batch);
        sweep_rows(self.store, &ctx, ws, items, items, out);
        Ok(())
    }

    /// [`EngineCore::try_query_batch_into`] fanned out across `threads`
    /// scoped workers. The pair slice is split into contiguous chunks, each
    /// worker answers its chunk with its own [`WorkerScratch`] into a
    /// disjoint slice of the output, and one shared [`DecodeCtx`] serves
    /// them all — the result is element-for-element identical to the
    /// sequential batch regardless of thread count or scheduling.
    ///
    /// `threads` is clamped to `1..=pairs.len()`; pass
    /// `std::thread::available_parallelism()` for a sensible default.
    pub fn try_par_query_batch(
        &self,
        view: ViewRef,
        pairs: &[(ItemId, ItemId)],
        threads: usize,
    ) -> Result<Vec<Option<bool>>, EngineError> {
        let mut scratches: Vec<WorkerScratch> =
            (0..threads.clamp(1, pairs.len().max(1))).map(|_| WorkerScratch::new()).collect();
        self.try_par_query_batch_with(&mut scratches, view, pairs)
    }

    /// [`EngineCore::try_par_query_batch`] over caller-owned worker
    /// scratches — the steady-state serving form. One worker runs per
    /// scratch; a service that keeps `scratches` alive across batches gets
    /// the same allocation-free, memo-warm steady state per worker that
    /// the sequential batch path has, instead of re-warming pools and
    /// chain-power memos on every call. A non-empty batch with no scratch
    /// to run on is [`EngineError::NoWorkerScratch`] (checked after the
    /// view and items).
    pub fn try_par_query_batch_with(
        &self,
        scratches: &mut [WorkerScratch],
        view: ViewRef,
        pairs: &[(ItemId, ItemId)],
    ) -> Result<Vec<Option<bool>>, EngineError> {
        let ctx = self.context(view)?;
        for &(a, b) in pairs {
            self.check_item(a)?;
            self.check_item(b)?;
        }
        let mut out = vec![None; pairs.len()];
        if pairs.is_empty() {
            return Ok(out);
        }
        if scratches.is_empty() {
            return Err(EngineError::NoWorkerScratch);
        }
        let chunk = pairs.len().div_ceil(scratches.len());
        let store = self.store;
        let ctx = &ctx;
        std::thread::scope(|s| {
            // `zip` pairs each input chunk with its disjoint output chunk
            // (and its own scratch); writes land exactly where the
            // sequential loop would put them. With fewer pairs than
            // scratches, trailing scratches simply idle this batch.
            for ((in_chunk, out_chunk), ws) in
                pairs.chunks(chunk).zip(out.chunks_mut(chunk)).zip(scratches.iter_mut())
            {
                s.spawn(move || {
                    let _batch = wf_profile::scope(Stage::Batch);
                    for (slot, &(a, b)) in out_chunk.iter_mut().zip(in_chunk) {
                        *slot = query_pair(store, ctx, ws, a, b);
                    }
                });
            }
        });
        Ok(out)
    }

    /// [`EngineCore::try_all_pairs_into`] sharded by *rows* across scoped
    /// workers: each worker sweeps a contiguous range of `items` against
    /// all of `items`, collecting its dependent pairs locally; shards are
    /// concatenated in order, which is exactly the sequential row-major
    /// output.
    pub fn try_par_all_pairs(
        &self,
        view: ViewRef,
        items: &[ItemId],
        threads: usize,
    ) -> Result<Vec<(ItemId, ItemId)>, EngineError> {
        let ctx = self.context(view)?;
        for &a in items {
            self.check_item(a)?;
        }
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let threads = threads.clamp(1, items.len());
        let chunk = items.len().div_ceil(threads);
        let store = self.store;
        let ctx = &ctx;
        let shards = std::thread::scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|rows| {
                    s.spawn(move || {
                        let _batch = wf_profile::scope(Stage::Batch);
                        let mut ws = WorkerScratch::new();
                        let mut local = Vec::new();
                        sweep_rows(store, ctx, &mut ws, rows, items, &mut local);
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("all-pairs worker panicked"))
                .collect::<Vec<_>>()
        });
        Ok(shards.concat())
    }
}
