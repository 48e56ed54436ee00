//! The decoding predicate π (Algorithms 1 and 2, §4.4) and the Matrix-Free
//! structural fast path for black-box views (§6.4).
//!
//! All indices here are 0-based (the paper counts from 1): a recursion-chain
//! label `Rec{s, t, i}` denotes the `i`-th chain child, whose `Inputs`
//! matrix is the product of `i` per-step matrices `I(C(s)[t]), …,
//! I(C(s)[t+i−1])` (wrapping around the cycle). The chain products reduce to
//! `X_t^q · P_t(r)` where `X_t` is the full-cycle product, whose powers come
//! from its `Xᵃ = Xᵇ` [`PowerCache`] (Lemma 5) in O(1): stored in the label
//! by Query-Efficient, built on first use in the session's
//! [`QueryScratch`] by Default and Space-Efficient.
//!
//! Every entry point returns `Option<bool>`: `None` means the labels refer
//! to productions outside the view (the item is invisible, §5); callers
//! that pre-check visibility can unwrap.
//!
//! Default and Query-Efficient labels store every `I`/`O`/`Z` matrix, and
//! π borrows them. A Space-Efficient label stores λ\* alone, so π searches
//! the production for each matrix it needs, on every access, into a pooled
//! buffer of the session's [`QueryScratch`] ([`wf_analysis::search_into`]);
//! nothing is cached between accesses, and a warmed scratch allocates
//! nothing under any variant.
//!
//! # The parting rule
//!
//! Both predicates decide a pair of intermediate items at the parse-tree
//! node where two of their paths *part*: π parts d₁'s producer path from
//! d₂'s consumer path, and Matrix-Free parts d₁'s consumer path from d₂'s
//! producer path (§6.4's anchors: black boxes spread every flow, so the
//! instance consuming d₁ and the one producing d₂ decide). The rule has
//! three results:
//!
//! * *nested*: one path is a prefix of the other (Algorithm 2's Case 1).
//!   π answers `false`, since an output never reaches back inside its own
//!   module's expansion; Matrix-Free answers `true`, since entering a black
//!   box floods its interior.
//! * a *fork* `(k, from, to)`: the first path leaves production `k`
//!   through position `from`, the second through `to`, and each has the
//!   rest of its path left below. At a production node (Case 2a) `k` is
//!   the node's production. At a recursive node whose chain children
//!   `a ≠ b` differ (Case 2b, `a < b` and `a > b`), `k` expands the
//!   shallower child `min(a, b)`: the shallower side leaves it through its
//!   own next edge, the deeper side through the cycle's next position, and
//!   that side first runs down the chain to its own child. The run is
//!   itself the chain edge `Rec(s, (t + min(a, b) + 1) mod l, |a − b| − 1)`
//!   on a cycle of length `l`, so it leads the deeper side's rest, and the
//!   two arms are one fork with the sides swapped.
//! * *foreign*: no single run holds both paths. The edges at the fork name
//!   different productions or chains, or the edge leaving the shallower
//!   chain child names another production than the one its cycle expands
//!   that child with.
//!
//! π answers a fork with one product `Oᵀ · Z(k, from, to) · I`: `O` folded
//! down the first path's rest, `I` down the second's. Matrix-Free reads
//! `k`'s instance closure at `(from, to)`. On a foreign pair π answers
//! `false` and Matrix-Free `None`, so neither reads a matrix of the wrong
//! production.

use crate::label::{LabelRef, PortRef};
use crate::viewlabel::ViewLabel;
use std::collections::HashMap;
use wf_analysis::{search_into, CycleInfo, ProdGraph, Reached, Slot};
use wf_boolmat::{BoolMat, MatPool, PowerCache};
use wf_model::{Grammar, ProdId};
use wf_run::EdgeLabel;

/// Reusable per-session query state: a [`MatPool`] of matrix buffers, the
/// port masks a Space-Efficient search sweeps through, and a memo of
/// recursion-chain [`PowerCache`]s, so that in steady state π allocates
/// nothing under any variant, and a Default or Space-Efficient chain's
/// full-cycle product is built, and its powers found, once per session
/// rather than once per query.
///
/// The memo is keyed by `(view uid, cycle, offset, direction)` — the uid
/// ([`ViewLabel::uid`]) is process-unique, so one scratch serves any
/// interleaving of views without cross-view poisoning, and every view's
/// caches stay warm. Each entry is the cache a Query-Efficient label of the
/// same view stores for that key, so it holds at most `b − 1` powers plus
/// the identity; long-lived multi-view sessions can still drop the memo
/// with [`QueryScratch::clear_memo`].
pub struct QueryScratch {
    pool: MatPool,
    reached: Vec<Reached>,
    memo: HashMap<(u64, u16, u32, bool), PowerCache>,
}

impl QueryScratch {
    pub fn new() -> Self {
        Self { pool: MatPool::new(), reached: Vec::new(), memo: HashMap::new() }
    }

    /// Drops the chain power caches.
    pub fn clear_memo(&mut self) {
        self.memo.clear();
    }

    /// Number of matrices the chain power caches hold (diagnostic).
    pub fn memoized_powers(&self) -> usize {
        self.memo.values().map(|cache| cache.stored() + 1).sum() // + identity
    }

    /// Number of pooled scratch matrices (diagnostic).
    pub fn pooled_mats(&self) -> usize {
        self.pool.pooled()
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Everything a query reads: the (static) grammar and production graph
/// plus one view label — three references, so building one is free; build
/// it per call or once per session (e.g. via [`crate::Fvl::session`]),
/// and share it across worker threads. Everything a query writes lives in
/// the caller's [`QueryScratch`].
pub struct DecodeCtx<'a> {
    pub grammar: &'a Grammar,
    pub pg: &'a ProdGraph,
    pub vl: &'a ViewLabel,
}

impl<'a> DecodeCtx<'a> {
    pub fn new(grammar: &'a Grammar, pg: &'a ProdGraph, vl: &'a ViewLabel) -> Self {
        Self { grammar, pg, vl }
    }

    /// Runs `f` on matrix `slot` of production `k`: borrowed from the label
    /// when it stores the production's matrices, searched into a pooled
    /// buffer when it does not (Space-Efficient). `None` if `k` is outside
    /// the view.
    fn with_mat<R>(
        &self,
        scratch: &mut QueryScratch,
        k: ProdId,
        slot: Slot,
        f: impl FnOnce(&BoolMat) -> R,
    ) -> Option<R> {
        if !self.vl.prod_active(k) {
            return None;
        }
        if let Some(m) = self.vl.materialized(k) {
            return Some(f(m.get(slot)));
        }
        let mut found = scratch.pool.take();
        search_into(self.grammar, k, slot, self.vl.lambda_star(), &mut scratch.reached, &mut found);
        let res = f(&found);
        scratch.pool.put(found);
        Some(res)
    }

    /// Input (`inputs`) or output arity of the module at position `i` of
    /// production `k`.
    fn dim(&self, k: ProdId, i: u32, inputs: bool) -> usize {
        let sig = self.grammar.sig(self.grammar.production(k).rhs.nodes()[i as usize]);
        if inputs {
            sig.inputs()
        } else {
            sig.outputs()
        }
    }

    /// Input or output arity of the module at offset `t < len` of `cycle`.
    fn cycle_dim(&self, cycle: &CycleInfo, t: usize, inputs: bool) -> usize {
        let sig = self.grammar.sig(cycle.modules[t]);
        if inputs {
            sig.inputs()
        } else {
            sig.outputs()
        }
    }

    /// Product of `n` consecutive per-step matrices starting at cycle
    /// offset `from < len`, written into `out`.
    fn partial_into(
        &self,
        scratch: &mut QueryScratch,
        cycle: &CycleInfo,
        from: usize,
        n: usize,
        inputs: bool,
        out: &mut BoolMat,
    ) -> Option<()> {
        out.assign_identity(self.cycle_dim(cycle, from, inputs));
        let mut tmp = scratch.pool.take();
        let res = (0..n).try_for_each(|a| {
            let (k, i) = cycle.edge_at(from + a);
            self.with_mat(scratch, k, io_slot(i, inputs), |m| out.matmul_into(m, &mut tmp))?;
            std::mem::swap(out, &mut tmp);
            Some(())
        });
        scratch.pool.put(tmp);
        res
    }

    /// The chain product `P_t(count)`, written into `out`: with
    /// `count = q·l + r`, it is `X_t^q · P_t(r)`, `X_t^q` read from the
    /// label's power cache (Query-Efficient) or the session's (Default /
    /// Space-Efficient).
    fn chain_into(
        &self,
        scratch: &mut QueryScratch,
        s: u16,
        t: usize,
        count: u64,
        inputs: bool,
        out: &mut BoolMat,
    ) -> Option<()> {
        let cycle = self.pg.cycles().ok()?.get(s as usize)?;
        let l = cycle.len();
        let t = t % l;
        if count == 0 {
            out.assign_identity(self.cycle_dim(cycle, t, inputs));
            return Some(());
        }
        let q = count / l as u64;
        let r = (count % l as u64) as usize;
        // Query-Efficient: O(1) via prefix products + power cache (§4.4.3).
        if let Some(cache) = self.vl.cycle_cache(s) {
            let (power, prefix) = if inputs {
                (cache.i_power[t].power(q), &cache.i_prefix[t][r])
            } else {
                (cache.o_power[t].power(q), &cache.o_prefix[t][r])
            };
            power.matmul_into(prefix, out);
            return Some(());
        }
        // Default / Space-Efficient: per-step matrices below one cycle; the
        // first full cycle on a key builds X_t and its power cache, and
        // every later chain on that key folds X_t^q · P_t(r) from it.
        if q == 0 {
            return self.partial_into(scratch, cycle, t, r, inputs, out);
        }
        let key = (self.vl.uid(), s, t as u32, inputs);
        if !scratch.memo.contains_key(&key) {
            let mut x_t = BoolMat::default();
            self.partial_into(scratch, cycle, t, l, inputs, &mut x_t)?;
            scratch.memo.insert(key, PowerCache::new(x_t));
        }
        let mut prefix = scratch.pool.take();
        let res = self.partial_into(scratch, cycle, t, r, inputs, &mut prefix).map(|()| {
            scratch.memo[&key].power(q).matmul_into(&prefix, out);
        });
        scratch.pool.put(prefix);
        res
    }

    /// Left-fold of `Inputs` (`inputs = true`) or `Outputs` matrices over
    /// a path's rest, starting from the identity on `init_dim` ports.
    fn fold_into(
        &self,
        scratch: &mut QueryScratch,
        rest: Rest<'_>,
        init_dim: usize,
        inputs: bool,
        out: &mut BoolMat,
    ) -> Option<()> {
        out.assign_identity(init_dim);
        let mut tmp = scratch.pool.take();
        let mut chain = scratch.pool.take();
        let res = (|| {
            for e in rest.lead.iter().chain(rest.tail) {
                match *e {
                    EdgeLabel::Plain { k, i } => {
                        self.with_mat(scratch, k, io_slot(i, inputs), |m| {
                            out.matmul_into(m, &mut tmp)
                        })?;
                    }
                    EdgeLabel::Rec { s, t, i } => {
                        self.chain_into(scratch, s, t as usize, i, inputs, &mut chain)?;
                        out.matmul_into(&chain, &mut tmp);
                    }
                }
                std::mem::swap(out, &mut tmp);
            }
            Some(())
        })();
        scratch.pool.put(tmp);
        scratch.pool.put(chain);
        res
    }
}

/// `I(k, i)` (`inputs`) or `O(k, i)`.
fn io_slot(i: u32, inputs: bool) -> Slot {
    if inputs {
        Slot::I(i as usize)
    } else {
        Slot::O(i as usize)
    }
}

// The parallel serving path (`wf-engine`) shares one `DecodeCtx` across
// worker threads (`&self` access only) and moves one `QueryScratch` into
// each worker. These bounds are load-bearing API, not accidents of the
// current field types: adding interior mutability without a thread-safe
// primitive, or an `Rc`, must fail to compile here rather than at a
// distant use site.
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    const fn moved_into_a_thread<T: Send>() {}
    shared_across_threads::<DecodeCtx<'static>>();
    shared_across_threads::<ViewLabel>();
    shared_across_threads::<Grammar>();
    shared_across_threads::<ProdGraph>();
    moved_into_a_thread::<QueryScratch>();
};

/// What a path has left below the node where it parts from another: its
/// own suffix, led on the deeper side of a chain fork by the chain edge
/// down to its chain child.
#[derive(Clone, Copy)]
struct Rest<'a> {
    lead: Option<EdgeLabel>,
    tail: &'a [EdgeLabel],
}

impl<'a> Rest<'a> {
    fn path(tail: &'a [EdgeLabel]) -> Self {
        Self { lead: None, tail }
    }
}

/// Where two paths part (see the module doc's parting rule).
enum Parting<'a> {
    /// One path is a prefix of the other.
    Nested,
    /// No single run holds both paths.
    Foreign,
    /// The first path leaves production `k` through position `from`, the
    /// second through `to`; `rest` holds what each has left below.
    Fork { k: ProdId, from: u32, to: u32, rest: [Rest<'a>; 2] },
}

/// The parting rule over two port labels' paths. Always inlined, so that
/// `pi_structural`, which reads only where the fork is, builds no rests:
/// an out-of-line call cost Matrix-Free and DRL about 3 of their 31 ns in
/// `experiments fig23` on a 2-vCPU host.
#[inline(always)]
fn parting<'a>(pg: &ProdGraph, p: PortRef<'a>, q: PortRef<'a>) -> Parting<'a> {
    let div = p.common_prefix_len(&q);
    let (Some(&e), Some(&f)) = (p.path.get(div), q.path.get(div)) else {
        return Parting::Nested;
    };
    let (p, q) = (&p.path[div + 1..], &q.path[div + 1..]);
    match (e, f) {
        (EdgeLabel::Plain { k, i }, EdgeLabel::Plain { k: k2, i: j }) if k == k2 => {
            Parting::Fork { k, from: i, to: j, rest: [Rest::path(p), Rest::path(q)] }
        }
        (EdgeLabel::Rec { s, t, i: a }, EdgeLabel::Rec { s: s2, t: t2, i: b })
            if (s, t) == (s2, t2) =>
        {
            let Some(cycle) = pg.cycles().ok().and_then(|c| c.get(s as usize)) else {
                return Parting::Foreign;
            };
            // The shallower child, the path below it and the deeper side's.
            let (near, below, deeper) = if a < b { (a, p, q) } else { (b, q, p) };
            let Some(&EdgeLabel::Plain { k, i }) = below.first() else {
                return if below.is_empty() { Parting::Nested } else { Parting::Foreign };
            };
            // One divide places the shallower child on the cycle. A chain
            // child index near `u64::MAX` needs more steps than any run.
            let Some(pos) = near.checked_add(u64::from(t)) else {
                return Parting::Foreign;
            };
            let pos = (pos % cycle.len() as u64) as usize;
            let (next_k, j) = cycle.edges[pos];
            if k != next_k {
                return Parting::Foreign;
            }
            let next = if pos + 1 == cycle.len() { 0 } else { pos + 1 };
            let lead = EdgeLabel::Rec { s, t: next as u16, i: a.abs_diff(b) - 1 };
            let (own, down) = (Rest::path(&below[1..]), Rest { lead: Some(lead), tail: deeper });
            if a < b {
                Parting::Fork { k, from: i, to: j, rest: [own, down] }
            } else {
                Parting::Fork { k, from: j, to: i, rest: [down, own] }
            }
        }
        _ => Parting::Foreign,
    }
}

/// Algorithm 2: `π(φr(d1), φr(d2), φv(U))` — true iff `d2` depends on `d1`
/// w.r.t. the view; `None` when a label refers outside the view. Borrowed
/// labels and caller-owned scratch state make it allocation-free in steady
/// state; serving paths reach it through [`crate::FvlSession`] or the
/// `wf-engine` batch engine, which reuse the buffers and the chain power
/// caches across queries.
pub fn pi_with(
    ctx: &DecodeCtx<'_>,
    scratch: &mut QueryScratch,
    d1: LabelRef<'_>,
    d2: LabelRef<'_>,
) -> Option<bool> {
    // Case I: d1 is a final output or d2 is an initial input.
    let Some(i1) = d1.inp else { return Some(false) };
    let Some(o2) = d2.out else { return Some(false) };
    match (d1.out, d2.inp) {
        // Case II: initial input -> final output: λ*(S) decides directly.
        (None, None) => Some(ctx.vl.lambda_star_s().get(i1.port as usize, o2.port as usize)),
        // Case III: initial input -> intermediate: chain the I-matrices
        // down d2's consumer path.
        (None, Some(i2)) => {
            let (mut m, dim) = (scratch.pool.take(), ctx.vl.lambda_star_s().rows());
            let res = ctx
                .fold_into(scratch, Rest::path(i2.path), dim, true, &mut m)
                .map(|()| m.get(i1.port as usize, i2.port as usize));
            scratch.pool.put(m);
            res
        }
        // Case IV: intermediate -> final output: chain O-matrices down d1's
        // producer path (reversed orientation).
        (Some(o1), None) => {
            let (mut m, dim) = (scratch.pool.take(), ctx.vl.lambda_star_s().cols());
            let res = ctx
                .fold_into(scratch, Rest::path(o1.path), dim, false, &mut m)
                .map(|()| m.get(o2.port as usize, o1.port as usize));
            scratch.pool.put(m);
            res
        }
        // Main cases: both intermediate.
        (Some(o1), Some(i2)) => main_case(ctx, scratch, o1, i2),
    }
}

/// Algorithm 2's main cases, decided where d₁'s producer path and d₂'s
/// consumer path part: `Oᵀ · Z(k, from, to) · I` at a fork.
fn main_case(
    ctx: &DecodeCtx<'_>,
    scratch: &mut QueryScratch,
    o1: PortRef<'_>,
    i2: PortRef<'_>,
) -> Option<bool> {
    // Nested: an output port never reaches back inside its own module's
    // expansion. Foreign: no single run holds the pair (labels of two runs
    // interned in one store can form one), so it answers `Some(false)`
    // instead of indexing matrices of the wrong production.
    let Parting::Fork { k, from, to, rest: [o_rest, i_rest] } = parting(ctx.pg, o1, i2) else {
        return Some(false);
    };
    if from >= to {
        return Some(false); // Z(k, from, to) is empty
    }
    if !ctx.vl.prod_active(k) {
        return None; // Z(k, from, to) lies outside the view
    }
    let [mut o, mut im, mut t1, mut t2] = std::array::from_fn(|_| scratch.pool.take());
    // Oᵀ × Z × I, evaluated through pooled temporaries; the closure keeps
    // every taken buffer on the put path even when a fold bails out of the
    // view.
    let res = (|| {
        ctx.fold_into(scratch, o_rest, ctx.dim(k, from, false), false, &mut o)?;
        ctx.fold_into(scratch, i_rest, ctx.dim(k, to, true), true, &mut im)?;
        o.transpose_into(&mut t1);
        ctx.with_mat(scratch, k, Slot::Z(from as usize, to as usize), |z| {
            t1.matmul_into(z, &mut t2)
        })?;
        t2.matmul_into(&im, &mut t1);
        Some(t1.get(o1.port as usize, i2.port as usize))
    })();
    for m in [o, im, t1, t2] {
        scratch.pool.put(m);
    }
    res
}

pub mod structural {
    //! Matrix-Free decoding for black-box (coarse-grained) views (§6.4).
    //!
    //! Under black-box dependencies every module passes everything through,
    //! so dependency collapses to *instance-level* reachability: `d₂ depends
    //! on d₁` iff the consumer instance of `d₁` reaches the producer
    //! instance of `d₂` in the flattened run DAG. That is decidable from the
    //! two parse-tree paths plus one static per-production instance closure
    //! — no matrix multiplication at all. (This is also exactly how the DRL
    //! baseline decodes.)
    //!
    //! Contract: only valid for validated coarse-grained views
    //! ([`wf_model::Spec::is_coarse_grained`]-style structure), and for
    //! *visible* labels — pre-check visibility.

    use super::*;
    use crate::label::DataLabel;
    use wf_analysis::rhs_closure;

    /// Per-production instance-level reflexive-transitive closures.
    pub struct StructuralIndex {
        closures: Vec<Option<BoolMat>>,
    }

    impl StructuralIndex {
        /// Builds closures for the active productions of a view.
        pub fn build(grammar: &Grammar, active: impl Fn(ProdId) -> bool) -> Self {
            let closures = grammar
                .productions()
                .map(|(k, _)| active(k).then(|| rhs_closure(grammar, k)))
                .collect();
            Self { closures }
        }

        /// Instance `j` reachable from instance `i` within production `k`.
        pub fn reach(&self, k: ProdId, i: u32, j: u32) -> Option<bool> {
            self.closures[k.index()].as_ref().map(|m| m.get(i as usize, j as usize))
        }
    }

    /// Matrix-free π: the parting rule over d1's *consumer* and d2's
    /// *producer* paths (black boxes spread flows completely, making these
    /// the exact anchors). Nested paths depend, since entering any input of
    /// a black box floods all of its interior and outputs; a fork reads the
    /// instance closure; a foreign pair, which no run holds, answers `None`.
    pub fn pi_structural(
        pg: &ProdGraph,
        idx: &StructuralIndex,
        d1: &DataLabel,
        d2: &DataLabel,
    ) -> Option<bool> {
        let Some(i1) = &d1.inp else { return Some(false) }; // d1 final output
        let Some(o2) = &d2.out else { return Some(false) }; // d2 initial input
        if d1 == d2 {
            // A data item depends on itself through its own edge (the o→i
            // reading of §2.3); the consumer/producer anchors below would
            // wrongly ask for a backward instance path.
            return Some(true);
        }
        match parting(pg, i1.to_ref(), o2.to_ref()) {
            Parting::Nested => Some(true),
            Parting::Fork { k, from, to, .. } => idx.reach(k, from, to),
            Parting::Foreign => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{DataLabel, PortLabel};
    use crate::{Fvl, VariantKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use wf_boolmat::pow;
    use wf_model::fixtures::paper_example;
    use wf_model::{DepAssignment, GrammarBuilder, ModelError, Spec, View, ViewSpec};
    use wf_run::fixtures::figure3_run;
    use wf_run::{Run, RunOracle};

    /// A right-hand side of more than 64 nodes is a typed error from
    /// `Grammar::new`, not a 64-column `BoolMat` panic when the structural
    /// index takes its closure; a 64-node chain builds the index, and its
    /// first node reaches its last.
    #[test]
    fn structural_index_holds_the_longest_rhs() {
        let chain = |n: usize| {
            let mut b = GrammarBuilder::new();
            let s = b.composite("S", 1, 1);
            let a = b.atomic("a", 1, 1);
            b.start(s);
            b.production(s, vec![a; n], (1..n).map(|j| ((j - 1, 0), (j, 0))).collect());
            b.finish()
        };
        assert_eq!(chain(65).err(), Some(ModelError::TooManyRhsNodes { prod: ProdId(0) }));
        let grammar = chain(64).unwrap();
        let deps = DepAssignment::black_box(grammar.sigs(), grammar.atomic_modules());
        let spec = Spec::new(grammar, deps).unwrap();
        let idx = Fvl::new(&spec).unwrap().structural_index(&spec.default_view());
        assert_eq!(idx.reach(ProdId(0), 0, 63), Some(true));
        assert_eq!(idx.reach(ProdId(0), 63, 0), Some(false));
    }

    /// `chain_into` under Space-Efficient, Default and Query-Efficient for
    /// every cycle, offset and direction the view keeps intact, at counts
    /// from 0 to a few cycles, far past any fuzzed chain, and near
    /// `u64::MAX`. Each is checked against `X_t^q · P_t(r)` with `X_t^q`
    /// from binary exponentiation and, for the small counts, against the
    /// plain product of the per-step matrices. The session variants run
    /// twice per count, so all but the first full-cycle read of a key come
    /// from the session's power cache, and afterwards that cache must be
    /// the one the Query-Efficient label stores for the key. Returns the
    /// number of (cycle, offset, direction) keys checked.
    fn chains_agree_across_variants(spec: &Spec, view: &View) -> usize {
        let fvl = Fvl::new(spec).unwrap();
        let (grammar, pg) = (&spec.grammar, fvl.prod_graph());
        let label = |kind| fvl.label_view(view, kind).unwrap();
        let se = label(VariantKind::SpaceEfficient);
        let de = label(VariantKind::Default);
        let qe = label(VariantKind::QueryEfficient);
        let sessions = [DecodeCtx::new(grammar, pg, &se), DecodeCtx::new(grammar, pg, &de)];
        let qe_ctx = DecodeCtx::new(grammar, pg, &qe);
        let mut scratch = QueryScratch::new();
        let mut keys = 0;
        for (s, cycle) in pg.cycles().unwrap().iter().enumerate() {
            let s = s as u16;
            if qe.cycle_cache(s).is_none() {
                continue;
            }
            let l = cycle.len();
            let small = 3 * l as u64 + 1;
            let counts = (0..=small).chain([(1 << 20) + 1, (1 << 40) + 3, u64::MAX / 3]);
            for t in 0..l {
                for inputs in [true, false] {
                    // P_t(r) as the plain product of r per-step matrices.
                    let product = |r: u64| {
                        let sig = grammar.sig(cycle.modules[t]);
                        let dim = if inputs { sig.inputs() } else { sig.outputs() };
                        (0..r as usize).fold(BoolMat::identity(dim), |acc, a| {
                            let (k, i) = cycle.edge_at(t + a);
                            acc.matmul(de.materialized(k).unwrap().get(io_slot(i, inputs)))
                        })
                    };
                    let x_t = product(l as u64);
                    for count in counts.clone() {
                        let (q, r) = (count / l as u64, count % l as u64);
                        let want = pow(&x_t, q).matmul(&product(r));
                        if count <= small {
                            assert_eq!(want, product(count), "cycle {s} offset {t} count {count}");
                        }
                        let mut got = BoolMat::default();
                        qe_ctx.chain_into(&mut scratch, s, t, count, inputs, &mut got).unwrap();
                        assert_eq!(got, want, "QE cycle {s} offset {t} in {inputs} count {count}");
                        for (ctx, kind) in sessions.iter().zip(["SE", "Default"]) {
                            for read in 0..2 {
                                ctx.chain_into(&mut scratch, s, t, count, inputs, &mut got)
                                    .unwrap();
                                assert_eq!(
                                    got, want,
                                    "{kind} read {read} cycle {s} offset {t} in {inputs} count \
                                     {count}"
                                );
                            }
                        }
                    }
                    keys += 1;
                }
            }
        }
        // One power cache per session label and key, each the label's own.
        assert_eq!(scratch.memo.len(), 2 * keys);
        let mut held = 0;
        for (&(uid, s, t, inputs), cache) in &scratch.memo {
            assert!(uid == se.uid() || uid == de.uid(), "a cache keyed by a foreign view");
            let cycle = qe.cycle_cache(s).unwrap();
            let stored =
                if inputs { &cycle.i_power[t as usize] } else { &cycle.o_power[t as usize] };
            assert_eq!(
                (cache.pre_period(), cache.repeat_at()),
                (stored.pre_period(), stored.repeat_at())
            );
            for e in 0..cache.repeat_at() {
                assert_eq!(cache.power(e), stored.power(e), "cycle {s} offset {t} power {e}");
            }
            held += stored.stored() + 1; // X¹ … X^(b−1) and the identity
        }
        assert_eq!(scratch.memoized_powers(), held);
        scratch.clear_memo();
        assert_eq!(scratch.memoized_powers(), 0);
        keys
    }

    /// Every `I`, `O` and `Z` a Space-Efficient decode searches under
    /// `view` equals the one the Default label stores, for every active
    /// production and slot (Z with `i ≥ j` included), and every search
    /// leaves its pooled buffer behind. Returns the number of slots checked.
    fn searched_matrices_equal_stored(spec: &Spec, view: &View) -> usize {
        let fvl = Fvl::new(spec).unwrap();
        let (grammar, pg) = (&spec.grammar, fvl.prod_graph());
        let se = fvl.label_view(view, VariantKind::SpaceEfficient).unwrap();
        let de = fvl.label_view(view, VariantKind::Default).unwrap();
        let ctx = DecodeCtx::new(grammar, pg, &se);
        let mut scratch = QueryScratch::new();
        let mut slots = 0;
        for (k, p) in grammar.productions().filter(|&(k, _)| de.prod_active(k)) {
            assert!(se.materialized(k).is_none(), "a Space-Efficient label stored {k}");
            let stored = de.materialized(k).unwrap();
            let n = p.rhs.node_count();
            let all = (0..n)
                .flat_map(|i| [Slot::I(i), Slot::O(i)])
                .chain((0..n).flat_map(|i| (0..n).map(move |j| Slot::Z(i, j))));
            for slot in all {
                let same = ctx.with_mat(&mut scratch, k, slot, |m| m == stored.get(slot));
                assert_eq!(same, Some(true), "production {k} {slot:?}");
                slots += 1;
            }
        }
        assert_eq!(scratch.pooled_mats(), 1, "one buffer serves every search");
        slots
    }

    #[test]
    fn space_efficient_searches_equal_default_matrices() {
        let ex = paper_example();
        for view in [ex.view_u1(), ex.view_u2()] {
            assert!(searched_matrices_equal_stored(&ex.spec, &view) > 0);
        }
        let w = wf_workloads::bioaid(1);
        let view = wf_workloads::views::random_safe_view(&w, &mut StdRng::seed_from_u64(2), 8);
        assert!(searched_matrices_equal_stored(&w.spec, &view) > 0);
    }

    #[test]
    fn paper_example_chains_agree_across_variants_at_any_count() {
        let ex = paper_example();
        let mut keys = 0;
        for view in [ex.spec.default_view(), ex.view_u1(), ex.view_u2()] {
            keys += chains_agree_across_variants(&ex.spec, &view);
        }
        assert!(keys > 0, "no view keeps a recursion intact");
    }

    #[test]
    fn bioaid_chains_agree_across_variants_at_any_count() {
        let w = wf_workloads::bioaid(1);
        let view = wf_workloads::views::random_safe_view(&w, &mut StdRng::seed_from_u64(2), 8);
        assert!(chains_agree_across_variants(&w.spec, &view) > 0, "the view breaks every cycle");
        assert!(chains_agree_across_variants(&w.spec, &w.spec.default_view()) > 0);
    }

    /// Labels of two runs that part under `A`'s two productions, p₃ = (e, C)
    /// and p₂ = (d, B, C), are foreign: Matrix-Free answers `None` in both
    /// orders instead of reading p₃'s two-node closure at one of p₂'s three
    /// positions.
    #[test]
    fn matrix_free_never_reads_another_productions_closure() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let idx = fvl.structural_index(&ex.spec.default_view());
        let (p2, p3) = (ProdId(1), ProdId(2));
        let mut checked = 0;
        for d in labeler.labels() {
            let Some(consumer) = &d.inp else { continue };
            let Some(&EdgeLabel::Plain { k, .. }) = consumer.path.last() else { continue };
            if k != p3 {
                continue;
            }
            for i in 0..ex.spec.grammar.production(p2).rhs.node_count() as u32 {
                let mut path = consumer.path.to_vec();
                *path.last_mut().unwrap() = EdgeLabel::Plain { k: p2, i };
                let producer = PortLabel::new(path, consumer.port);
                let forged = DataLabel::final_output(producer.clone());
                assert_eq!(fvl.query_structural(&idx, d, &forged), None, "{d:?} then p2 at {i}");
                let (d1, d2) =
                    (DataLabel::initial_input(producer), DataLabel::final_output(consumer.clone()));
                assert_eq!(fvl.query_structural(&idx, &d1, &d2), None, "p2 at {i} then {d:?}");
                checked += 1;
            }
        }
        assert!(checked > 0, "no Figure 3 label is consumed under p3");
    }

    /// How the (o₁, i₂) paths of a pair part.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum Shape {
        Plain,
        /// A chain fork whose shallower child lies on d₁'s side (`a < b`)
        /// or on d₂'s; `far` when the children are two or more steps
        /// apart, so the deeper side's lead chain edge is not empty.
        Chain {
            d1_shallower: bool,
            far: bool,
        },
        Nested,
        Foreign,
    }

    const SHAPES: [Shape; 6] = [
        Shape::Plain,
        Shape::Chain { d1_shallower: true, far: false },
        Shape::Chain { d1_shallower: true, far: true },
        Shape::Chain { d1_shallower: false, far: false },
        Shape::Chain { d1_shallower: false, far: true },
        Shape::Nested,
    ];

    fn shape(pg: &ProdGraph, d1: &DataLabel, d2: &DataLabel) -> Shape {
        let (o1, i2) = (d1.to_ref().out.unwrap(), d2.to_ref().inp.unwrap());
        match parting(pg, o1, i2) {
            Parting::Nested => Shape::Nested,
            Parting::Foreign => Shape::Foreign,
            Parting::Fork { rest: [r1, r2], .. } => match (r1.lead, r2.lead) {
                (None, None) => Shape::Plain,
                (None, Some(EdgeLabel::Rec { i, .. })) => {
                    Shape::Chain { d1_shallower: true, far: i > 0 }
                }
                (Some(EdgeLabel::Rec { i, .. }), None) => {
                    Shape::Chain { d1_shallower: false, far: i > 0 }
                }
                leads => panic!("a fork led by {leads:?}"),
            },
        }
    }

    /// Classifies every ordered pair `(d₁, d₂)` of `run`'s items that has a
    /// producer path o₁ and a consumer path i₂ (`d₁ = d₂` included) by how
    /// those paths part, and checks up to `per_shape` pairs of each shape
    /// against `RunOracle` under every variant and view. Returns the count
    /// of each shape.
    fn shapes_match_oracle(
        spec: &Spec,
        run: &Run,
        views: &[View],
        per_shape: usize,
    ) -> BTreeMap<Shape, usize> {
        let fvl = Fvl::new(spec).unwrap();
        let labeler = fvl.labeler(run);
        let items = || run.items().map(|d| (d, labeler.label(d)));
        let mut counts = BTreeMap::new();
        let mut sample = Vec::new();
        for (a, d1) in items().filter(|(_, d)| d.out.is_some()) {
            for (b, d2) in items().filter(|(_, d)| d.inp.is_some()) {
                let n = counts.entry(shape(fvl.prod_graph(), d1, d2)).or_insert(0);
                *n += 1;
                if *n <= per_shape {
                    sample.push((a, b));
                }
            }
        }
        let mut scratch = QueryScratch::new();
        for view in views {
            let oracle = RunOracle::new(&spec.grammar, &ViewSpec::new(spec, view), run).unwrap();
            for kind in VariantKind::ALL {
                let vl = fvl.label_view(view, kind).unwrap();
                for &(a, b) in &sample {
                    let got = fvl.query_with(&vl, &mut scratch, labeler.label(a), labeler.label(b));
                    assert_eq!(got, oracle.depends_on(a, b), "{} {a:?} -> {b:?}", kind.name());
                }
            }
        }
        counts
    }

    /// Every shape the one `Oᵀ · Z · I` product decides occurs (a plain
    /// fork, and a chain fork with either side's child the shallower, one
    /// or more steps apart), nested pairs too, and every answer equals the
    /// oracle's: the Figure 3 run in full under U1, U2 and the default
    /// view, and a sampled BioAID run under its default view and a random
    /// safe one.
    #[test]
    fn every_parting_shape_matches_the_oracle() {
        let ex = paper_example();
        let (run, _) = figure3_run(&ex);
        let views = [ex.spec.default_view(), ex.view_u1(), ex.view_u2()];
        let counts = shapes_match_oracle(&ex.spec, &run, &views, usize::MAX);
        let want = SHAPES.iter().copied().zip([639, 54, 114, 24, 102, 549]).collect();
        assert_eq!(counts, want);

        let w = wf_workloads::bioaid(1);
        let mut rng = StdRng::seed_from_u64(3);
        let (_, run) = wf_workloads::sample::sample_run(
            &w,
            Fvl::new(&w.spec).unwrap().prod_graph(),
            &mut rng,
            2_000,
        );
        let views = [w.spec.default_view(), wf_workloads::views::random_safe_view(&w, &mut rng, 8)];
        let counts = shapes_match_oracle(&w.spec, &run, &views, 200);
        for s in SHAPES {
            assert!(counts.get(&s).is_some_and(|&n| n > 0), "no {s:?} pair in {counts:?}");
        }
        assert_eq!(counts.get(&Shape::Foreign), None, "one run holds every pair");
    }
}
