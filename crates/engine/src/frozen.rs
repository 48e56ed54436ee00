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
//!   (matrix pool, Space-Efficient search masks and uid-keyed chain-power
//!   memo) and the four `EdgeLabel`
//!   path buffers the store materializes borrowed labels into. Workers
//!   never share scratches, so there is no locking anywhere on the query
//!   path; each worker's memo warms up independently and stays warm.
//!
//! A query fetches and checks `a`, then `b`, then runs π. Each fetch is the
//! store's visibility-checked walk: §5's per-edge rule
//! ([`wf_core::visibility::edge_visible`]) judges every edge as the walk
//! reads it, leaf first, and the fetch answers `None` at the first edge
//! outside the view. So a pair whose first item is hidden answers `None`
//! without reading its second item's label, and a hidden item costs its
//! label entry and the trie nodes up to that edge, not its whole label.
//!
//! [`EngineCore::try_query_batch_into`] and [`EngineCore::try_all_pairs_into`]
//! take one scratch or a slice of them. One scratch answers inline; `k`
//! scratches split the input into contiguous chunks, each run by the same
//! kernel with its own scratch on a `std::thread::scope` worker, and merge
//! in chunk order — batch answers land in disjoint slices of the output,
//! sweep hits are concatenated — so the output is element-for-element
//! identical to one scratch no matter the scratch count or scheduling.

use crate::error::EngineError;
use crate::registry::{ViewRef, ViewRegistry};
use crate::store::{ItemId, LabelStore};
use wf_core::{pi_with, DecodeCtx, Fvl, QueryScratch};
use wf_run::EdgeLabel;

/// One worker's mutable query state: scratch (pool + memo), the label
/// path buffers and the reusable batch buffers. Keep one per worker and
/// pass it to every query, or pass a slice of them to fan a batch or sweep
/// out — construction is cheap and the buffers warm up within a handful of
/// queries.
#[derive(Default)]
pub struct WorkerScratch {
    pub(crate) scratch: QueryScratch,
    pub(crate) buf_o1: Vec<EdgeLabel>,
    pub(crate) buf_i1: Vec<EdgeLabel>,
    pub(crate) buf_o2: Vec<EdgeLabel>,
    pub(crate) buf_i2: Vec<EdgeLabel>,
    /// Evaluation-order indices for grouped batches (reused across calls).
    pub(crate) order: Vec<u32>,
    /// This worker's rows of a fanned-out all-pairs sweep (reused across
    /// calls; read only when this scratch ran in the current call).
    hits: Vec<(ItemId, ItemId)>,
}

impl WorkerScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the recursion-chain power caches (bounds memo memory in very
    /// long-lived workers).
    pub fn clear_memo(&mut self) {
        self.scratch.clear_memo();
    }

    /// Scratch diagnostics: (pooled matrices, matrices held by the chain
    /// power caches).
    pub fn stats(&self) -> (usize, usize) {
        (self.scratch.pooled_mats(), self.scratch.memoized_powers())
    }
}

/// One scratch is a one-worker slice, so the batch methods take either.
impl AsMut<[WorkerScratch]> for WorkerScratch {
    fn as_mut(&mut self) -> &mut [WorkerScratch] {
        std::slice::from_mut(self)
    }
}

/// One query over store-interned items: fetch-and-check `a`, then `b`,
/// then π. A hidden `a` answers `None` before `b`'s label is read.
pub(crate) fn query_pair(
    store: &LabelStore,
    ctx: &DecodeCtx<'_>,
    ws: &mut WorkerScratch,
    a: ItemId,
    b: ItemId,
) -> Option<bool> {
    let r1 = store.visible_ref(a, ctx, &mut ws.buf_o1, &mut ws.buf_i1)?;
    let r2 = store.visible_ref(b, ctx, &mut ws.buf_o2, &mut ws.buf_i2)?;
    pi_with(ctx, &mut ws.scratch, r1, r2)
}

/// The grouped batch kernel: answers `pairs` into the same-length `out`,
/// fetching and visibility-checking each distinct first item once (see
/// [`EngineCore::try_query_batch_into`]). One kernel for the inline batch
/// and every fanned-out chunk, so the two can never drift apart.
fn query_grouped(
    store: &LabelStore,
    ctx: &DecodeCtx<'_>,
    ws: &mut WorkerScratch,
    pairs: &[(ItemId, ItemId)],
    out: &mut [Option<bool>],
) {
    let WorkerScratch { scratch, buf_o1, buf_i1, buf_o2, buf_i2, order, .. } = ws;
    order.clear();
    order.extend(0..pairs.len() as u32);
    order.sort_unstable_by_key(|&i| {
        let (a, b) = pairs[i as usize];
        (a.0, b.0)
    });
    let mut at = 0;
    while at < order.len() {
        let a = pairs[order[at] as usize].0;
        let r1 = store.visible_ref(a, ctx, buf_o1, buf_i1);
        while at < order.len() {
            let slot = order[at] as usize;
            let (a2, b) = pairs[slot];
            if a2 != a {
                break;
            }
            out[slot] = r1.and_then(|r1| {
                let r2 = store.visible_ref(b, ctx, buf_o2, buf_i2)?;
                pi_with(ctx, scratch, r1, r2)
            });
            at += 1;
        }
    }
}

/// The all-pairs row sweep: every `rows × items` ordered pair with both
/// endpoints visible and `π == true`, pushed onto `out` in row-major
/// order. A hidden row reads no column. One kernel for the inline sweep
/// (`rows == items`) and every fanned-out row range, so the two can never
/// drift apart.
fn sweep_rows(
    store: &LabelStore,
    ctx: &DecodeCtx<'_>,
    ws: &mut WorkerScratch,
    rows: &[ItemId],
    items: &[ItemId],
    out: &mut Vec<(ItemId, ItemId)>,
) {
    for &a in rows {
        let Some(r1) = store.visible_ref(a, ctx, &mut ws.buf_o1, &mut ws.buf_i1) else {
            continue;
        };
        for &b in items {
            let Some(r2) = store.visible_ref(b, ctx, &mut ws.buf_o2, &mut ws.buf_i2) else {
                continue;
            };
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

    /// The decode context of one compiled view: three references, so it
    /// is free to build per call, and `Sync`, so one context serves every
    /// worker of a fan-out. It caches nothing; what a query writes lives in
    /// the worker's [`WorkerScratch`].
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

    /// Answers a batch of pairs into `out` (cleared first). `workers` is one
    /// [`WorkerScratch`] or a slice of them. One scratch answers the batch
    /// inline, and steady state performs no allocation under any variant.
    /// `k > 1` scratches split it into contiguous
    /// chunks of ⌈n/k⌉ pairs, each answered by its own scratch on a
    /// `std::thread::scope` worker into a disjoint slice of `out`;
    /// trailing scratches idle when there are fewer chunks.
    ///
    /// Validates the view and every item before answering anything, so a
    /// failed call leaves `out` empty rather than partial. An empty batch
    /// needs no scratch; a non-empty one handed none is
    /// [`EngineError::NoWorkerScratch`].
    ///
    /// Evaluation is *grouped*, not in input order: each chunk is sorted
    /// (through its scratch's reused index buffer) by `(a, b)` item id, so
    /// every run of pairs sharing a first item fetches and
    /// visibility-checks `a`'s label once (a hidden `a` answers the whole
    /// run `None` without reading any second item), and neighboring ids —
    /// interned in insertion order, so sharing production-path prefixes
    /// and store shards — keep the scratch's chain-power memo and the
    /// store's trie nodes hot. Results are written back through the index, so `out` is
    /// element-for-element identical to input-order evaluation for any
    /// scratch count (π is pure per pair; see
    /// `grouped_batch_matches_per_call_queries` in `tests/serving.rs` and
    /// the `parallel` suite).
    pub fn try_query_batch_into<W: AsMut<[WorkerScratch]> + ?Sized>(
        &self,
        workers: &mut W,
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
        if pairs.is_empty() {
            return Ok(());
        }
        let workers = workers.as_mut();
        if workers.is_empty() {
            return Err(EngineError::NoWorkerScratch);
        }
        let chunk = pairs.len().div_ceil(workers.len());
        out.resize(pairs.len(), None);
        let (store, ctx) = (self.store, &ctx);
        if chunk == pairs.len() {
            query_grouped(store, ctx, &mut workers[0], pairs, out);
        } else {
            std::thread::scope(|s| {
                for ((pairs, out), ws) in
                    pairs.chunks(chunk).zip(out.chunks_mut(chunk)).zip(workers)
                {
                    s.spawn(move || query_grouped(store, ctx, ws, pairs, out));
                }
            });
        }
        Ok(())
    }

    /// Sweeps every ordered pair of `items`, collecting the dependent ones
    /// (`Some(true)`) into `out` (cleared first), in row-major order.
    /// `workers` and validation work as in
    /// [`EngineCore::try_query_batch_into`]: one scratch sweeps inline;
    /// `k > 1` scratches each sweep a contiguous range of ⌈n/k⌉ rows
    /// against all of `items` into a hit buffer kept in that scratch, and
    /// the buffers of the scratches that ran are appended to `out` in row
    /// order, so the output is the one-scratch sweep exactly.
    pub fn try_all_pairs_into<W: AsMut<[WorkerScratch]> + ?Sized>(
        &self,
        workers: &mut W,
        view: ViewRef,
        items: &[ItemId],
        out: &mut Vec<(ItemId, ItemId)>,
    ) -> Result<(), EngineError> {
        out.clear();
        let ctx = self.context(view)?;
        for &a in items {
            self.check_item(a)?;
        }
        if items.is_empty() {
            return Ok(());
        }
        let workers = workers.as_mut();
        if workers.is_empty() {
            return Err(EngineError::NoWorkerScratch);
        }
        let chunk = items.len().div_ceil(workers.len());
        let (store, ctx) = (self.store, &ctx);
        if chunk == items.len() {
            sweep_rows(store, ctx, &mut workers[0], items, items, out);
        } else {
            let ran = &mut workers[..items.len().div_ceil(chunk)];
            std::thread::scope(|s| {
                for (rows, ws) in items.chunks(chunk).zip(ran.iter_mut()) {
                    s.spawn(move || {
                        let mut hits = std::mem::take(&mut ws.hits);
                        hits.clear();
                        sweep_rows(store, ctx, ws, rows, items, &mut hits);
                        ws.hits = hits;
                    });
                }
            });
            for ws in ran.iter() {
                out.extend_from_slice(&ws.hits);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineWriter, LiveEngine};
    use std::sync::Arc;
    use wf_core::{is_visible, VariantKind};
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    /// An edge no stored label holds: whatever the kernels write into a
    /// second item's path buffers replaces it.
    const SENTINEL: EdgeLabel = EdgeLabel::Rec { s: u16::MAX, t: u16::MAX, i: u64::MAX };

    fn seed_sentinels(workers: &mut [WorkerScratch]) {
        for ws in workers {
            ws.buf_o2 = vec![SENTINEL];
            ws.buf_i2 = vec![SENTINEL];
        }
    }

    fn sentinels_intact(workers: &[WorkerScratch]) -> bool {
        workers.iter().all(|ws| ws.buf_o2 == [SENTINEL] && ws.buf_i2 == [SENTINEL])
    }

    /// On the Figure 3 run under U2, under every variant: a pair whose
    /// first item is hidden answers `None` through every query form without
    /// reading its second item, a pair whose second item is hidden still
    /// answers `None`, and every answer is `Fvl::query`'s on the owned
    /// labels.
    #[test]
    fn a_hidden_first_item_never_reads_the_second() {
        let ex = paper_example();
        let fvl = Arc::new(Fvl::from_arc(Arc::new(ex.spec.clone())).unwrap());
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let labels = labeler.labels();
        let view = ex.view_u2();
        let mut writer = EngineWriter::from_fvl(fvl.clone());
        let items = writer.try_insert_labels(labels).unwrap();
        let vid = writer.add_view(view.clone());
        let kinds =
            [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];
        let vrefs = kinds.map(|kind| writer.compile(vid, kind).unwrap());
        let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
        let core = gen.core();

        for (kind, vref) in kinds.into_iter().zip(vrefs) {
            let vl = fvl.label_view(&view, kind).unwrap();
            let visible = |a: ItemId| is_visible(&labels[a.0 as usize], &vl, fvl.prod_graph());
            let want = |(a, b): (ItemId, ItemId)| {
                fvl.query(&vl, &labels[a.0 as usize], &labels[b.0 as usize])
            };
            let hidden: Vec<ItemId> = items.iter().copied().filter(|&a| !visible(a)).collect();
            assert!(!hidden.is_empty(), "U2 hides items of the Figure 3 run");
            let all: Vec<(ItemId, ItemId)> =
                items.iter().flat_map(|&a| items.iter().map(move |&b| (a, b))).collect();
            let hidden_first: Vec<_> = all.iter().copied().filter(|&(a, _)| !visible(a)).collect();

            // A hidden first item: `None`, and the second is never read.
            let mut workers = [WorkerScratch::new(), WorkerScratch::new()];
            seed_sentinels(&mut workers);
            for &(a, b) in &hidden_first {
                assert_eq!(core.try_query(&mut workers[0], vref, a, b).unwrap(), None);
            }
            let mut out = Vec::new();
            for k in [1, 2] {
                core.try_query_batch_into(&mut workers[..k], vref, &hidden_first, &mut out)
                    .unwrap();
                assert!(out.iter().all(Option::is_none), "{kind:?}, {k} scratches");
            }
            let mut hits = Vec::new();
            for k in [1, 2] {
                core.try_all_pairs_into(&mut workers[..k], vref, &hidden, &mut hits).unwrap();
                assert!(hits.is_empty(), "{kind:?}, {k} scratches");
            }
            assert!(sentinels_intact(&workers), "{kind:?}: a second item was read");

            // Every pair, hidden second items included, answers as the
            // owned labels do, per call, batched and swept.
            for &(a, b) in &all {
                let got = core.try_query(&mut workers[0], vref, a, b).unwrap();
                assert_eq!(got, want((a, b)), "{kind:?} {a:?} -> {b:?}");
                if visible(a) && !visible(b) {
                    assert_eq!(got, None, "{kind:?} {a:?} -> hidden {b:?}");
                }
            }
            let expected: Vec<Option<bool>> = all.iter().map(|&p| want(p)).collect();
            for k in [1, 2] {
                core.try_query_batch_into(&mut workers[..k], vref, &all, &mut out).unwrap();
                assert_eq!(out, expected, "{kind:?}, {k} scratches");
            }
            let dependent: Vec<_> =
                all.iter().copied().filter(|&p| want(p) == Some(true)).collect();
            core.try_all_pairs_into(&mut workers[..], vref, &items, &mut hits).unwrap();
            assert_eq!(hits, dependent, "{kind:?}");
        }
    }
}
