//! Differential oracles: three labeling variants, the naive run-graph
//! oracle, the interned engine path, and the generational live path must
//! all give element-identical answers on every generated case.
//!
//! The equivalence contract, precisely:
//!
//! * For every generated `(spec, run, view)` and every ordered item pair
//!   `(d1, d2)`: `Fvl::query` under Space-Efficient, Default and
//!   Query-Efficient, the [`wf_run::RunOracle`]'s brute-force reachability
//!   over the flattened run graph, and batched queries against a published
//!   [`EngineGeneration`] over trie-interned labels agree **as
//!   `Option<bool>`** — visibility (`None`) included, not just the boolean.
//! * When the spec is coarse-grained and the view black-box (§6.4), the
//!   Matrix-Free predicate (`Fvl::query_structural`) and DRL (`Drl::query`
//!   over `Drl::label_run`'s labels) answer every pair whose items the
//!   oracle shows exactly as the oracle does; a DRL rejection of the view,
//!   or a visible item DRL left unlabeled, is a divergence too.
//! * For every churn stream replayed through `EngineWriter` /
//!   [`LiveEngine`] (every publish a durable frame): each published
//!   generation answers every batch exactly like a sequential reference
//!   writer holding the same published state, and recovering the
//!   base ‖ frames store with [`DurableEngine::open`] reproduces the final
//!   generation's answers.
//! * For every producer fleet raced through the [`IngestPipeline`]: each
//!   published generation is element-identical to a sequential replay of
//!   the ops in global ticket order, and the op-log prefix that produced
//!   it recovers to a **byte-identical** `save` image
//!   ([`check_multi_producer`]).
//!
//! Any violation is reported as a [`Divergence`] naming the case seed it
//! reproduces from; the harness never panics on a generated input.

use crate::specgen::{adversarial_workload, SpecShape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use wf_core::{DataLabel, Fvl, QueryScratch, VariantKind};
use wf_drl::Drl;
use wf_engine::{
    shared_durable, DurableEngine, EngineError, EngineGeneration, EngineWriter, IngestOp,
    IngestPipeline, IngestQueue, ItemId, LabelStore, LiveEngine, PipelineOptions, PublishPolicy,
    Ticket, ViewRef, WorkerScratch,
};
use wf_model::{View, ViewSpec};
use wf_run::{DataId, Run, RunOracle};
use wf_snapshot::{scan_log, MemStorage};
use wf_workloads::churn::{churn_stream, producer_churn_streams, ChurnOp, ChurnSpec};
use wf_workloads::{sample, views, Workload};

/// A differential disagreement (or a generated input the stack rejected),
/// with enough context to reproduce and localize it.
#[derive(Debug)]
pub struct Divergence(pub String);

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

macro_rules! diverge {
    ($($arg:tt)*) => { return Err(Divergence(format!($($arg)*))) };
}

/// What one differential case covered (aggregated into sweep stats). Every
/// count is a function of the case seed alone, so a sweep's report
/// reproduces: a multi-producer case leaves `queries` at zero, because both
/// its racing reads and its per-generation sweeps follow thread timing.
#[derive(Clone, Copy, Debug, Default)]
pub struct DiffOutcome {
    pub views: u64,
    pub queries: u64,
    pub items: u64,
}

/// Generates and checks one full differential case from one seed: an
/// adversarial spec, a run (sizes biased to include empty and single-item
/// runs), a set of adversarial view partitions, and an all-variant /
/// oracle / engine comparison over a query set (the full pair square on
/// small runs).
pub fn check_spec(seed: u64, budget: usize) -> Result<DiffOutcome, Divergence> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (shape, w) = adversarial_workload(&mut rng, budget);
    check_workload(seed, &shape, &w, &mut rng)
}

fn fail_ctx(seed: u64, shape: &SpecShape) -> String {
    format!("case seed {seed:#x} (shape {shape:?})")
}

/// `gen`'s batch answers for `pairs` into `out`, fanned out when `ws` holds
/// more than one scratch. The harness issues only handles it owns, so an
/// engine error here is a divergence under `ctx`.
fn answer_batch(
    gen: &EngineGeneration,
    ws: &mut [WorkerScratch],
    view: ViewRef,
    pairs: &[(ItemId, ItemId)],
    out: &mut Vec<Option<bool>>,
    ctx: &str,
) -> Result<(), Divergence> {
    gen.core().try_query_batch_into(ws, view, pairs, out).map_err(|e| {
        Divergence(format!("{ctx}: batch on {view:?} at seqno {} failed: {e}", gen.seqno()))
    })
}

/// `gen`'s dependent pairs of `items` into `out` (errors as in
/// [`answer_batch`]).
fn sweep_all_pairs(
    gen: &EngineGeneration,
    ws: &mut [WorkerScratch],
    view: ViewRef,
    items: &[ItemId],
    out: &mut Vec<(ItemId, ItemId)>,
    ctx: &str,
) -> Result<(), Divergence> {
    gen.core().try_all_pairs_into(ws, view, items, out).map_err(|e| {
        Divergence(format!("{ctx}: all-pairs on {view:?} at seqno {} failed: {e}", gen.seqno()))
    })
}

fn check_workload(
    seed: u64,
    shape: &SpecShape,
    w: &Workload,
    rng: &mut StdRng,
) -> Result<DiffOutcome, Divergence> {
    let fvl = match Fvl::from_arc(Arc::new(w.spec.clone())) {
        Ok(f) => Arc::new(f),
        Err(e) => diverge!("{}: generated spec rejected by Fvl: {e}", fail_ctx(seed, shape)),
    };
    let pg = fvl.prod_graph();

    // Run sizes bathtub-biased: minimal runs (wind-down only) are the
    // single-item edge case; larger ones exercise recursion unrolling.
    let target = match rng.gen_range(0..4u8) {
        0 => 0,
        1 => 1,
        _ => rng.gen_range(2..48usize),
    };
    let (_, run) = sample::sample_run(w, pg, rng, target);
    let labels = fvl.labeler(&run).labels().to_vec();

    // Query set: the full ordered square on small runs, sampled otherwise.
    let n = run.item_count();
    let pairs: Vec<(DataId, DataId)> = if n <= 16 {
        (0..n as u32).flat_map(|a| (0..n as u32).map(move |b| (DataId(a), DataId(b)))).collect()
    } else {
        sample::sample_query_pairs(&run, rng, 64)
    };

    // Adversarial view partitions: the default view (everything expanded
    // that can be), a minimal view (start only), and random partitions in
    // between — sizes bathtub-biased across the composite count.
    let composites = w.spec.grammar.composite_modules().count();
    let mut view_set: Vec<View> = vec![w.spec.default_view()];
    for _ in 0..3 {
        let size = match rng.gen_range(0..3u8) {
            0 => 1,
            1 => composites.max(1),
            _ => rng.gen_range(1..=composites.max(1)),
        };
        view_set.push(views::random_safe_view(w, rng, size));
    }

    // The engine path runs alongside: labels interned once, each view
    // registered under every variant and published, batches compared
    // element-wise.
    let mut engine = EngineWriter::from_fvl(fvl.clone());
    let engine_live = LiveEngine::new(engine.base().clone());
    // Odd case seeds answer every engine batch through two scratches, so
    // the fan-out is checked against the oracle too.
    let mut ws: Vec<_> = (0..1 + seed % 2).map(|_| WorkerScratch::new()).collect();
    let items = match engine.try_insert_labels(&labels) {
        Ok(items) => items,
        Err(e) => diverge!("{}: engine rejected the run's labels: {e}", fail_ctx(seed, shape)),
    };
    let engine_pairs: Vec<(ItemId, ItemId)> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    let mut out = DiffOutcome { views: 0, queries: 0, items: n as u64 };
    let mut scratch = QueryScratch::new();
    for (vix, view) in view_set.iter().enumerate() {
        let vs = ViewSpec::new(&w.spec, view);
        let oracle = match RunOracle::new(&w.spec.grammar, &vs, &run) {
            Ok(o) => o,
            Err(e) => diverge!(
                "{}: view {vix} rejected by the oracle (unsafe?): {e:?}",
                fail_ctx(seed, shape)
            ),
        };
        if w.spec.is_coarse_grained() && view.is_black_box(&w.spec.grammar) {
            let ctx = format!("{}: view {vix}", fail_ctx(seed, shape));
            out.queries += check_structural(&fvl, view, &run, &labels, &pairs, &oracle, &ctx)?;
        }
        let mut variant_labels = Vec::new();
        for kind in VariantKind::ALL {
            match fvl.label_view(view, kind) {
                Ok(vl) => variant_labels.push((kind, vl)),
                Err(e) => diverge!(
                    "{}: view {vix} rejected by {} labeling: {e}",
                    fail_ctx(seed, shape),
                    kind.name()
                ),
            }
        }
        let mut engine_refs: Vec<(VariantKind, ViewRef)> = Vec::new();
        for kind in VariantKind::ALL {
            match engine.register_view(view.clone(), kind) {
                Ok(r) => engine_refs.push((kind, r)),
                Err(e) => diverge!(
                    "{}: view {vix} rejected by engine registration ({}): {e}",
                    fail_ctx(seed, shape),
                    kind.name()
                ),
            }
        }

        for (pix, &(d1, d2)) in pairs.iter().enumerate() {
            let expected = oracle.depends_on(d1, d2);
            for (kind, vl) in &variant_labels {
                let got = fvl.query_with(
                    vl,
                    &mut scratch,
                    &labels[d1.0 as usize],
                    &labels[d2.0 as usize],
                );
                if got != expected {
                    diverge!(
                        "{}: view {vix} pair {pix} ({},{}) — {} answered {:?}, oracle {:?}",
                        fail_ctx(seed, shape),
                        d1.0,
                        d2.0,
                        kind.name(),
                        got,
                        expected
                    );
                }
            }
            out.queries += 1;
        }
        let gen = engine.publish(&engine_live);
        let mut batch = Vec::new();
        for (kind, vref) in &engine_refs {
            answer_batch(&gen, &mut ws, *vref, &engine_pairs, &mut batch, &fail_ctx(seed, shape))?;
            for (pix, (&(d1, d2), got)) in pairs.iter().zip(&batch).enumerate() {
                let expected = oracle.depends_on(d1, d2);
                if *got != expected {
                    diverge!(
                        "{}: view {vix} pair {pix} ({},{}) — engine {} answered {:?}, oracle {:?}",
                        fail_ctx(seed, shape),
                        d1.0,
                        d2.0,
                        kind.name(),
                        got,
                        expected
                    );
                }
            }
        }
        out.views += 1;
    }
    Ok(out)
}

/// Matrix-Free FVL and DRL against the oracle on a black-box view of a
/// coarse-grained spec: every pair of `pairs` whose items the oracle shows
/// must get the oracle's answer from both. Returns the number of pairs
/// checked.
fn check_structural(
    fvl: &Fvl,
    view: &View,
    run: &Run,
    labels: &[DataLabel],
    pairs: &[(DataId, DataId)],
    oracle: &RunOracle,
    ctx: &str,
) -> Result<u64, Divergence> {
    let idx = fvl.structural_index(view);
    let drl = match Drl::new(fvl.spec(), view) {
        Ok(drl) => drl,
        Err(e) => diverge!("{ctx}: DRL rejected the black-box view: {e}"),
    };
    let drl_labels = drl.label_run(run);
    if let Some(d) = run.items().find(|&d| oracle.is_visible(d) && drl_labels.label(d).is_none()) {
        diverge!("{ctx}: DRL left visible item {} unlabeled", d.0);
    }
    let mut checked = 0;
    for &(d1, d2) in pairs.iter().filter(|&&(a, b)| oracle.is_visible(a) && oracle.is_visible(b)) {
        let expected = oracle.depends_on(d1, d2);
        let mf = fvl.query_structural(&idx, &labels[d1.0 as usize], &labels[d2.0 as usize]);
        let drl_got =
            drl_labels.label(d1).zip(drl_labels.label(d2)).and_then(|(l1, l2)| drl.query(l1, l2));
        if mf != expected || drl_got != expected {
            diverge!(
                "{ctx}: pair ({},{}) — Matrix-Free answered {mf:?}, DRL {drl_got:?}, oracle \
                 {expected:?}",
                d1.0,
                d2.0
            );
        }
        checked += 1;
    }
    Ok(checked)
}

/// The live-engine differential: one seed generates an adversarial spec, a
/// label pool and a churn stream (mix itself randomized between
/// insert-heavy, view-heavy and query-heavy), then replays the stream
/// through an [`EngineWriter`] publishing into a [`LiveEngine`] (every
/// publish a durable frame over [`MemStorage`]). Every query batch is
/// answered by the *published* generation via the lock-free read path and
/// compared to a sequential reference writer mirroring exactly the
/// published ops; at the end the store is recovered cold and must
/// reproduce the final generation's answers.
pub fn check_live_churn(seed: u64, budget: usize, ops: usize) -> Result<DiffOutcome, Divergence> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (shape, w) = adversarial_workload(&mut rng, budget);
    let fvl = match Fvl::from_arc(Arc::new(w.spec.clone())) {
        Ok(f) => Arc::new(f),
        Err(e) => diverge!("{}: generated spec rejected by Fvl: {e}", fail_ctx(seed, &shape)),
    };

    // The op mix is part of the fuzzed input.
    let (iw, vw, qw) = match rng.gen_range(0..3u8) {
        0 => (0.7, 0.05, 0.25), // insert-heavy
        1 => (0.15, 0.4, 0.45), // view-heavy
        _ => (0.1, 0.02, 0.88), // query-heavy
    };
    let spec = ChurnSpec {
        initial_items: rng.gen_range(0..24),
        insert_weight: iw,
        view_weight: vw,
        query_weight: qw,
        insert_chunk: rng.gen_range(1..8),
        batch: rng.gen_range(1..24),
        ..ChurnSpec::default()
    };
    let stream = churn_stream(&mut rng, ops, &spec);

    // Label pool: one run large enough to feed every insert in the stream.
    let needed = spec.initial_items
        + stream
            .iter()
            .map(|op| match op {
                ChurnOp::Insert { count } => *count,
                _ => 0,
            })
            .sum::<usize>();
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, needed.max(1));
    let mut labels = fvl.labeler(&run).labels().to_vec();
    if labels.is_empty() {
        diverge!("{}: a run produced zero data items", fail_ctx(seed, &shape));
    }
    // Degenerate acyclic specs have a *bounded* maximum run size, so the
    // pool may undershoot the stream's demand — pad by cycling. The store
    // assigns a fresh id to every insert (duplicates included), so the
    // population arithmetic stays exact and repeated labels maximize trie
    // sharing, itself a corner worth fuzzing.
    let mut i = 0usize;
    while labels.len() < needed {
        labels.push(labels[i].clone());
        i += 1;
    }

    let storage = MemStorage::new();
    let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
    let (mut durable, gen0, _) = DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap)
        .map_err(|e| {
        Divergence(format!("{}: durable open failed: {e}", fail_ctx(seed, &shape)))
    })?;
    let mut writer = EngineWriter::new(gen0);
    let ctx = fail_ctx(seed, &shape);
    let mut next_label = 0usize;
    let mut insert_next = |writer: &mut EngineWriter, count: usize| {
        let staged = writer.try_insert_labels(&labels[next_label..next_label + count]);
        next_label += count;
        staged.map_err(|e| Divergence(format!("{ctx}: live insert rejected: {e}")))
    };
    insert_next(&mut writer, spec.initial_items)?;
    let live = LiveEngine::new(writer.base().clone());
    // Initial items land in generation 1 (the empty origin is generation 0).
    writer.publish_durable(&live, &mut durable).map_err(|e| {
        Divergence(format!("{}: initial publish failed: {e}", fail_ctx(seed, &shape)))
    })?;

    // The sequential reference mirrors *published* state only: ops applied
    // to the writer stay pending until the next publish drains them, and
    // the reference publishes its own chain after each drain.
    let reference_insert = |reference: &mut EngineWriter, range: std::ops::Range<usize>| {
        let staged = reference.try_insert_labels(&labels[range]);
        staged.map_err(|e| Divergence(format!("{ctx}: reference insert rejected: {e}")))
    };
    let mut reference = EngineWriter::from_fvl(fvl.clone());
    reference_insert(&mut reference, 0..spec.initial_items)?;
    let reference_live = LiveEngine::new(reference.base().clone());
    let mut reference_gen = reference.publish(&reference_live);
    let mut pending: Vec<ChurnOp> = Vec::new();
    let mut compiled: Vec<ViewRef> = Vec::new();
    let mut pending_compiled: Vec<ViewRef> = Vec::new();
    let publish_every = rng.gen_range(1..=5usize);

    let mut out = DiffOutcome::default();
    let mut ws = [WorkerScratch::new()];
    let (mut got, mut expected) = (Vec::new(), Vec::new());
    let mut since_publish = 0usize;
    for (opix, op) in stream.iter().enumerate() {
        match op {
            ChurnOp::Insert { count } => {
                insert_next(&mut writer, *count)?;
                pending.push(op.clone());
            }
            ChurnOp::RegisterView { seed: vseed } => {
                let (view, kind) = churn_view(&w, *vseed);
                let vref = writer.register_view(view, kind).map_err(|e| {
                    Divergence(format!(
                        "{}: live view registration rejected: {e}",
                        fail_ctx(seed, &shape)
                    ))
                })?;
                if !compiled.contains(&vref) && !pending_compiled.contains(&vref) {
                    pending_compiled.push(vref);
                }
                pending.push(op.clone());
            }
            ChurnOp::QueryBatch { pairs } => {
                let gen = live.read();
                let population = gen.store().len() as u32;
                if population == 0 || compiled.is_empty() {
                    continue;
                }
                let item_pairs: Vec<(ItemId, ItemId)> = pairs
                    .iter()
                    .map(|&(a, b)| (ItemId(a % population), ItemId(b % population)))
                    .collect();
                for &vref in &compiled {
                    answer_batch(&gen, &mut ws, vref, &item_pairs, &mut got, &ctx)?;
                    answer_batch(&reference_gen, &mut ws, vref, &item_pairs, &mut expected, &ctx)?;
                    if got != expected {
                        diverge!(
                            "{}: op {opix} — generation {} disagrees with the sequential \
                             reference on view {vref:?}",
                            fail_ctx(seed, &shape),
                            gen.seqno()
                        );
                    }
                    out.queries += item_pairs.len() as u64;
                }
            }
        }
        since_publish += 1;
        if since_publish >= publish_every && writer.has_staged_changes() {
            since_publish = 0;
            writer.publish_durable(&live, &mut durable).map_err(|e| {
                Divergence(format!("{}: publish failed: {e}", fail_ctx(seed, &shape)))
            })?;
            // Drain the published ops into the sequential reference.
            for p in pending.drain(..) {
                match p {
                    ChurnOp::Insert { .. } => {}
                    ChurnOp::RegisterView { seed: vseed } => {
                        let (view, kind) = churn_view(&w, vseed);
                        let r = reference.register_view(view, kind).map_err(|e| {
                            Divergence(format!(
                                "{}: reference view registration rejected: {e}",
                                fail_ctx(seed, &shape)
                            ))
                        })?;
                        out.views += 1;
                        if !compiled.contains(&r) {
                            compiled.push(r);
                        }
                    }
                    ChurnOp::QueryBatch { .. } => unreachable!("queries are never staged"),
                }
            }
            // Inserts: mirror the published store length exactly.
            let published_len = writer.base().store().len();
            let from = reference_gen.store().len();
            if from < published_len {
                reference_insert(&mut reference, from..published_len)?;
            }
            reference_gen = reference.publish(&reference_live);
            pending_compiled.retain(|r| {
                if !compiled.contains(r) {
                    compiled.push(*r);
                }
                false
            });
            if !handles_match(&compiled, &reference_gen) {
                diverge!("{}: view handles drifted from the reference", fail_ctx(seed, &shape));
            }
        }
    }

    // Final barrier: publish the tail, then recover the durable store cold
    // and compare all-pairs sweeps per compiled view.
    writer.publish_durable(&live, &mut durable).map_err(|e| {
        Divergence(format!("{}: final publish failed: {e}", fail_ctx(seed, &shape)))
    })?;
    let final_gen = live.snapshot();
    let published_len = final_gen.store().len();
    let from = reference_gen.store().len();
    if from < published_len {
        reference_insert(&mut reference, from..published_len)?;
    }
    for p in pending.drain(..) {
        if let ChurnOp::RegisterView { seed: vseed } = p {
            let (view, kind) = churn_view(&w, vseed);
            let r = reference.register_view(view, kind).map_err(|e| {
                Divergence(format!("{}: reference rejected: {e}", fail_ctx(seed, &shape)))
            })?;
            out.views += 1;
            if !compiled.contains(&r) {
                compiled.push(r);
            }
        }
    }
    let reference_gen = reference.publish(&reference_live);

    let fvl2 = Fvl::from_arc(Arc::new(w.spec.clone()))
        .map_err(|e| Divergence(format!("{}: replay Fvl: {e}", fail_ctx(seed, &shape))))?;
    let (_, replayed, _) = DurableEngine::open(Arc::new(fvl2), Box::new(storage.survivor()), cap)
        .map_err(|e| {
        Divergence(format!("{}: warm recovery failed: {e}", fail_ctx(seed, &shape)))
    })?;
    if replayed.seqno() != final_gen.seqno() || replayed.store().len() != final_gen.store().len() {
        diverge!(
            "{}: warm replay landed on generation {} ({} items), live is {} ({} items)",
            fail_ctx(seed, &shape),
            replayed.seqno(),
            replayed.store().len(),
            final_gen.seqno(),
            final_gen.store().len()
        );
    }
    let all_items: Vec<ItemId> = (0..published_len as u32).map(ItemId).collect();
    let (mut got, mut expected) = (Vec::new(), Vec::new());
    // The live and replayed sweeps fan out over two scratches; the
    // reference sweeps on one.
    let mut two = [WorkerScratch::new(), WorkerScratch::new()];
    for &vref in &compiled {
        sweep_all_pairs(&reference_gen, &mut ws, vref, &all_items, &mut expected, &ctx)?;
        sweep_all_pairs(&final_gen, &mut two, vref, &all_items, &mut got, &ctx)?;
        if got != expected {
            diverge!("{}: final generation diverges on {vref:?}", fail_ctx(seed, &shape));
        }
        sweep_all_pairs(&replayed, &mut two, vref, &all_items, &mut got, &ctx)?;
        if got != expected {
            diverge!("{}: warm replay diverges on {vref:?}", fail_ctx(seed, &shape));
        }
    }
    out.items = published_len as u64;
    Ok(out)
}

fn handles_match(compiled: &[ViewRef], reference: &EngineGeneration) -> bool {
    compiled.iter().all(|r| reference.registry().label(*r).is_some())
}

/// Materializes a `ChurnOp::RegisterView` seed into the concrete
/// `(view, kind)` pair — every replayer (live writer, sequential
/// reference, racing producer) must derive the same view from the same
/// seed for the differential to be meaningful.
fn churn_view(w: &Workload, vseed: u64) -> (View, VariantKind) {
    let mut vrng = StdRng::seed_from_u64(vseed);
    let composites = w.spec.grammar.composite_modules().count().max(1);
    let size = vrng.gen_range(1..=composites);
    (views::random_safe_view(w, &mut vrng, size), VariantKind::ALL[(vseed % 3) as usize])
}

/// What one racing producer submitted, in its own submission order —
/// enough to re-derive the exact op for the sequential replay.
enum ProducerOp {
    /// Labels `pool[from..to]` (the producer's own disjoint pool slice).
    Insert { from: usize, to: usize },
    /// `churn_view(w, vseed)` registered and compiled.
    Compile { vseed: u64 },
}

/// Producer-side submit with a fuzzed entry point: every third op goes
/// through the non-blocking [`IngestQueue::try_push`] first, falling back
/// to the blocking [`IngestQueue::push`] on backpressure — both paths must
/// land the op (the backpressure contract says a full queue sheds, never
/// drops what it accepted).
fn submit(q: &IngestQueue, opix: usize, build: impl Fn() -> IngestOp) -> Result<Ticket, String> {
    if opix % 3 == 0 {
        match q.try_push(build()) {
            Ok(t) => return Ok(t),
            Err(EngineError::IngestBackpressure { .. }) => {}
            Err(e) => return Err(format!("try_push rejected an op: {e}")),
        }
    }
    q.push(build()).map_err(|e| format!("push rejected an op: {e}"))
}

/// One producer thread: drives its churn stream into the pipeline
/// (inserts from its own pool slice, view compilations from its stream's
/// seeds) and, on query ops, races the lock-free read path against the
/// publisher. Returns the `(ticket, op)` journal in submission order.
fn producer_run(
    q: &IngestQueue,
    live: &LiveEngine,
    w: &Workload,
    pool: &[DataLabel],
    start: usize,
    stream: &[ChurnOp],
    base_vref: ViewRef,
) -> Result<Vec<(Ticket, ProducerOp)>, String> {
    let mut ws = [WorkerScratch::new()];
    let mut got = Vec::new();
    let mut cursor = start;
    let mut recorded = Vec::new();
    for (opix, op) in stream.iter().enumerate() {
        match op {
            ChurnOp::Insert { count } => {
                let (from, to) = (cursor, cursor + count);
                cursor = to;
                let t = submit(q, opix, || IngestOp::InsertLabels(pool[from..to].to_vec()))?;
                recorded.push((t, ProducerOp::Insert { from, to }));
            }
            ChurnOp::RegisterView { seed } => {
                let t = submit(q, opix, || {
                    let (view, kind) = churn_view(w, *seed);
                    IngestOp::CompileView(view, kind)
                })?;
                recorded.push((t, ProducerOp::Compile { vseed: *seed }));
            }
            ChurnOp::QueryBatch { pairs } => {
                // A racing read: whatever generation is live right now
                // must answer the full batch (publishes never leave a
                // half-visible store behind).
                let gen = live.read();
                let population = gen.store().len() as u32;
                if population == 0 {
                    continue;
                }
                let item_pairs: Vec<(ItemId, ItemId)> = pairs
                    .iter()
                    .map(|&(a, b)| (ItemId(a % population), ItemId(b % population)))
                    .collect();
                answer_batch(&gen, &mut ws, base_vref, &item_pairs, &mut got, "racing read")
                    .map_err(|d| d.0)?;
                if got.len() != item_pairs.len() {
                    return Err(format!(
                        "racing read on generation {} returned {} of {} answers",
                        gen.seqno(),
                        got.len(),
                        item_pairs.len()
                    ));
                }
            }
        }
    }
    Ok(recorded)
}

/// The multi-producer ingest differential: one seed generates an
/// adversarial spec, a fleet of per-producer churn streams
/// ([`producer_churn_streams`] — producer `p`'s stream is identical at
/// every fleet width) and a randomized [`PublishPolicy`], then races
/// `producers` threads through an [`IngestPipeline`] while its durable
/// op-log (over [`MemStorage`]) frames every publish. Three oracles must
/// agree:
///
/// 1. **Sequential replay** — applying the ops one by one in the global
///    [`Ticket::apply_index`] order through a single reference writer must
///    reproduce *every published generation* element-identically
///    (store length, and the all-pairs sweep over every compiled view).
/// 2. **Op-log prefix recovery** — for every published generation,
///    [`DurableEngine::open`] over `base ‖ frames-up-to-its-seqno` must
///    land on a **byte-identical** `save` image: the racing run and its
///    log are indistinguishable at every publish point, not just at the
///    end.
/// 3. **Ticket contract** — every accepted op resolves `Ok`, one
///    producer's seqnos are non-decreasing in its submission order, and
///    no op resolves past the final published generation.
pub fn check_multi_producer(
    seed: u64,
    budget: usize,
    producers: usize,
    ops_per_producer: usize,
) -> Result<DiffOutcome, Divergence> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (shape, w) = adversarial_workload(&mut rng, budget);
    let ctx = fail_ctx(seed, &shape);
    let fvl = match Fvl::from_arc(Arc::new(w.spec.clone())) {
        Ok(f) => Arc::new(f),
        Err(e) => diverge!("{ctx}: generated spec rejected by Fvl: {e}"),
    };

    // The op mix is part of the fuzzed input (as in the live churn), but
    // every mix keeps enough inserts to grow the store under contention.
    let (iw, vw, qw) = match rng.gen_range(0..3u8) {
        0 => (0.7, 0.05, 0.25), // insert-heavy
        1 => (0.3, 0.35, 0.35), // view-heavy
        _ => (0.25, 0.05, 0.7), // read-heavy
    };
    let spec = ChurnSpec {
        initial_items: rng.gen_range(0..12),
        insert_weight: iw,
        view_weight: vw,
        query_weight: qw,
        insert_chunk: rng.gen_range(1..6),
        batch: rng.gen_range(1..16),
        ..ChurnSpec::default()
    };
    let streams = producer_churn_streams(seed, producers, ops_per_producer, &spec);

    // Label pool: one run covering the base seed plus every producer's
    // inserts, cycle-padded like the live churn. Each producer owns a
    // disjoint slice, so the *content* each op inserts is independent of
    // the interleaving — only the id assignment order races.
    let per_needed: Vec<usize> = streams
        .iter()
        .map(|s| {
            s.iter()
                .map(|op| match op {
                    ChurnOp::Insert { count } => *count,
                    _ => 0,
                })
                .sum()
        })
        .collect();
    let needed = spec.initial_items + per_needed.iter().sum::<usize>();
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, needed.max(1));
    let mut pool = fvl.labeler(&run).labels().to_vec();
    if pool.is_empty() {
        diverge!("{ctx}: a run produced zero data items");
    }
    let mut i = 0usize;
    while pool.len() < needed {
        pool.push(pool[i].clone());
        i += 1;
    }
    let mut offsets = Vec::with_capacity(producers);
    let mut acc = spec.initial_items;
    for n in &per_needed {
        offsets.push(acc);
        acc += n;
    }

    // First generation: seeded through the façade (initial items plus one
    // compiled view the racing readers can query), framed as the log head
    // every prefix recovery replays first.
    let storage = MemStorage::new();
    let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap)
            .map_err(|e| Divergence(format!("{ctx}: durable open failed: {e}")))?;
    let mut writer = EngineWriter::new(gen0);
    writer
        .try_insert_labels(&pool[..spec.initial_items])
        .map_err(|e| Divergence(format!("{ctx}: initial labels rejected: {e}")))?;
    let base_vref = writer
        .register_view(w.spec.default_view(), VariantKind::Default)
        .map_err(|e| Divergence(format!("{ctx}: base view rejected: {e}")))?;
    let live = Arc::new(LiveEngine::new(writer.base().clone()));
    let first = writer
        .publish_durable(&live, &mut durable)
        .map_err(|e| Divergence(format!("{ctx}: first publish failed: {e}")))?;

    // The sequential reference starts from the same first generation.
    let mut reference = EngineWriter::from_fvl(fvl.clone());
    reference
        .try_insert_labels(&pool[..spec.initial_items])
        .map_err(|e| Divergence(format!("{ctx}: reference initial labels rejected: {e}")))?;
    let ref_vref = reference
        .register_view(w.spec.default_view(), VariantKind::Default)
        .map_err(|e| Divergence(format!("{ctx}: reference base view rejected: {e}")))?;
    if ref_vref != base_vref {
        diverge!("{ctx}: base view handle drifted between writer and reference");
    }
    let reference_live = LiveEngine::new(reference.base().clone());

    // Publish cadence is fuzzed too: tiny op budgets force publishes to
    // split producer batches; short deadlines race the coalescing window
    // against the producers.
    let policy = PublishPolicy {
        queue_capacity: rng.gen_range(2..24),
        max_batch_ops: rng.gen_range(1..24),
        max_delay: std::time::Duration::from_micros(rng.gen_range(100..2000)),
    };
    // Every published generation, in publish order.
    let published: Arc<Mutex<Vec<Arc<EngineGeneration>>>> = Arc::new(Mutex::new(vec![first]));
    let hook = {
        let published = published.clone();
        move |g: &Arc<EngineGeneration>| {
            published.lock().expect("publish log poisoned").push(g.clone());
        }
    };
    let pipeline = IngestPipeline::spawn_with(
        writer,
        live.clone(),
        policy,
        PipelineOptions {
            durable: Some(shared_durable(durable)),
            on_publish: Some(Box::new(hook)),
            ..PipelineOptions::default()
        },
    );

    // Race the fleet.
    let mut producer_results = Vec::with_capacity(producers);
    std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(p, stream)| {
                let q = pipeline.queue().clone();
                let live = live.clone();
                let (pool, w) = (&pool, &w);
                let start = offsets[p];
                s.spawn(move || producer_run(&q, &live, w, pool, start, stream, base_vref))
            })
            .collect();
        for h in handles {
            producer_results.push(h.join().expect("producer thread panicked"));
        }
    });
    let report = pipeline.shutdown();
    if let Some(e) = &report.persist_error {
        diverge!("{ctx}: op-log persist failed: {e}");
    }
    if report.stats.labels_ingested != (needed - spec.initial_items) as u64 {
        diverge!(
            "{ctx}: {} labels submitted, {} ingested",
            needed - spec.initial_items,
            report.stats.labels_ingested
        );
    }

    // Collect every ticket: all must resolve Ok, per-producer seqnos must
    // be non-decreasing, and the apply indexes define the global order the
    // sequential replay follows.
    let mut out = DiffOutcome::default();
    let mut ordered: Vec<(u64, u64, ProducerOp)> = Vec::new();
    for result in producer_results {
        let recorded = result.map_err(|e| Divergence(format!("{ctx}: {e}")))?;
        let mut last_seq = 0u64;
        for (t, desc) in recorded {
            let seqno = match t.wait() {
                Ok(s) => s,
                Err(e) => diverge!("{ctx}: a racing op failed: {e}"),
            };
            if seqno < last_seq {
                diverge!("{ctx}: a producer's ops published out of submission order");
            }
            last_seq = seqno;
            let Some(ix) = t.apply_index() else {
                diverge!("{ctx}: a resolved op never got an apply index");
            };
            ordered.push((ix, seqno, desc));
        }
    }
    ordered.sort_by_key(|&(ix, _, _)| ix);
    let published = std::mem::take(&mut *published.lock().expect("publish log poisoned"));
    let (base_bytes, oplog) = storage.contents();
    let frames = scan_log(&oplog).map_err(|e| Divergence(format!("{ctx}: op-log scan: {e}")))?;

    // Walk the published chain: before comparing generation s, apply every
    // op that resolved with seqno ≤ s to the sequential reference (ops a
    // dedup made no-ops resolve with an older seqno and are no-ops in the
    // reference too, so the early application is harmless).
    let mut ws = [WorkerScratch::new()];
    let (mut got, mut expected) = (Vec::new(), Vec::new());
    let mut compiled: Vec<ViewRef> = vec![base_vref];
    let mut ptr = 0usize;
    let mut last_published = 0u64;
    for gen in &published {
        if gen.seqno() <= last_published {
            diverge!("{ctx}: published seqnos are not strictly increasing");
        }
        last_published = gen.seqno();
        while ptr < ordered.len() && ordered[ptr].1 <= gen.seqno() {
            match &ordered[ptr].2 {
                ProducerOp::Insert { from, to } => {
                    reference.try_insert_labels(&pool[*from..*to]).map_err(|e| {
                        Divergence(format!("{ctx}: sequential replay rejected labels: {e}"))
                    })?;
                }
                ProducerOp::Compile { vseed } => {
                    let (view, kind) = churn_view(&w, *vseed);
                    let r = reference.register_view(view, kind).map_err(|e| {
                        Divergence(format!("{ctx}: sequential replay rejected a view: {e}"))
                    })?;
                    if !compiled.contains(&r) {
                        compiled.push(r);
                        out.views += 1;
                    }
                }
            }
            ptr += 1;
        }

        // Element-identical with the sequential replay.
        let reference = reference.publish(&reference_live);
        if reference.store().len() != gen.store().len() {
            diverge!(
                "{ctx}: generation {} holds {} items, the sequential replay {}",
                gen.seqno(),
                gen.store().len(),
                reference.store().len()
            );
        }
        let n = gen.store().len() as u32;
        let step = (n as usize / 14).max(1);
        let items: Vec<ItemId> = (0..n).step_by(step).map(ItemId).collect();
        for &vref in &compiled {
            sweep_all_pairs(&reference, &mut ws, vref, &items, &mut expected, &ctx)?;
            sweep_all_pairs(gen, &mut ws, vref, &items, &mut got, &ctx)?;
            if got != expected {
                diverge!(
                    "{ctx}: generation {} diverges from the sequential replay on {vref:?}",
                    gen.seqno()
                );
            }
        }

        // Byte-identical with the op-log prefix recovery.
        let prefix_len = frames
            .frames
            .iter()
            .find(|f| f.seq == gen.seqno())
            .map(|f| f.payload.end)
            .ok_or_else(|| Divergence(format!("{ctx}: seqno {} has no frame", gen.seqno())))?;
        let prefix = MemStorage::with_state(base_bytes.clone(), oplog[..prefix_len].to_vec());
        let (_, replayed, _) =
            DurableEngine::open(fvl.clone(), Box::new(prefix), cap).map_err(|e| {
                Divergence(format!("{ctx}: op-log recovery failed at seqno {}: {e}", gen.seqno()))
            })?;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        gen.save(&mut a).map_err(|e| Divergence(format!("{ctx}: live save failed: {e}")))?;
        replayed.save(&mut b).map_err(|e| Divergence(format!("{ctx}: replay save failed: {e}")))?;
        if a != b {
            diverge!("{ctx}: op-log recovery is not byte-identical at seqno {}", gen.seqno());
        }
    }
    if ptr < ordered.len() {
        diverge!("{ctx}: {} ops resolved past the final published generation", ordered.len() - ptr);
    }

    out.items = live.snapshot().store().len() as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_known_seed_sweep_is_divergence_free() {
        for i in 0..12u64 {
            let seed = crate::case_seed(0xD1FF, i);
            let out = check_spec(seed, 10).unwrap_or_else(|d| panic!("{d}"));
            assert!(out.queries > 0, "case {i} asked nothing");
        }
    }

    #[test]
    fn live_churn_seeds_are_divergence_free() {
        for i in 0..4u64 {
            let seed = crate::case_seed(0x11FE, i);
            check_live_churn(seed, 8, 24).unwrap_or_else(|d| panic!("{d}"));
        }
    }

    #[test]
    fn multi_producer_seeds_are_divergence_free() {
        for (i, producers) in [(0u64, 1usize), (1, 2), (2, 4)] {
            let seed = crate::case_seed(0x111E57, i);
            let out = check_multi_producer(seed, 8, producers, 16)
                .unwrap_or_else(|d| panic!("{producers} producers: {d}"));
            assert!(out.items > 0, "{producers} producers published nothing");
        }
    }
}
