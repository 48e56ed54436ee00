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

use crate::label::{DataLabel, LabelRef, PortRef};
use crate::viewlabel::ViewLabel;
use std::collections::HashMap;
use wf_analysis::{search_into, ProdGraph, Reached, Slot};
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

    /// Input arity of the module at position `i` of production `k`.
    fn in_dim(&self, k: ProdId, i: u32) -> usize {
        self.grammar.sig(self.grammar.production(k).rhs.nodes()[i as usize]).inputs()
    }

    fn out_dim(&self, k: ProdId, i: u32) -> usize {
        self.grammar.sig(self.grammar.production(k).rhs.nodes()[i as usize]).outputs()
    }

    /// Input arity of the cycle module at offset `pos` (wrapping).
    fn cycle_in_dim(&self, s: u16, pos: usize) -> Option<usize> {
        let cycle = self.pg.cycles().ok()?.get(s as usize)?;
        Some(self.grammar.sig(cycle.modules[pos % cycle.len()]).inputs())
    }

    fn cycle_out_dim(&self, s: u16, pos: usize) -> Option<usize> {
        let cycle = self.pg.cycles().ok()?.get(s as usize)?;
        Some(self.grammar.sig(cycle.modules[pos % cycle.len()]).outputs())
    }

    /// Product of `n` consecutive per-step matrices starting at cycle
    /// offset `from`, written into `out`.
    fn partial_into(
        &self,
        scratch: &mut QueryScratch,
        s: u16,
        from: usize,
        n: usize,
        inputs: bool,
        out: &mut BoolMat,
    ) -> Option<()> {
        let cycle = self.pg.cycles().ok()?.get(s as usize)?;
        let dim = if inputs { self.cycle_in_dim(s, from)? } else { self.cycle_out_dim(s, from)? };
        out.assign_identity(dim);
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
            let dim = if inputs { self.cycle_in_dim(s, t)? } else { self.cycle_out_dim(s, t)? };
            out.assign_identity(dim);
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
            return self.partial_into(scratch, s, t, r, inputs, out);
        }
        let key = (self.vl.uid(), s, t as u32, inputs);
        if !scratch.memo.contains_key(&key) {
            let mut x_t = BoolMat::default();
            self.partial_into(scratch, s, t, l, inputs, &mut x_t)?;
            scratch.memo.insert(key, PowerCache::new(x_t));
        }
        let mut prefix = scratch.pool.take();
        let res = self.partial_into(scratch, s, t, r, inputs, &mut prefix).map(|()| {
            scratch.memo[&key].power(q).matmul_into(&prefix, out);
        });
        scratch.pool.put(prefix);
        res
    }

    /// Left-fold of `Inputs` (`inputs = true`) or `Outputs` matrices over a
    /// path suffix, starting from the identity on `init_dim` ports.
    fn fold_into(
        &self,
        scratch: &mut QueryScratch,
        labels: &[EdgeLabel],
        init_dim: usize,
        inputs: bool,
        out: &mut BoolMat,
    ) -> Option<()> {
        out.assign_identity(init_dim);
        let mut tmp = scratch.pool.take();
        let mut chain = scratch.pool.take();
        let res = (|| {
            for e in labels {
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

/// Algorithm 2: `π(φr(d1), φr(d2), φv(U))` — true iff `d2` depends on `d1`
/// w.r.t. the view. `None` when a label refers outside the view.
///
/// Convenience wrapper building a throwaway [`QueryScratch`]; serving paths
/// use [`pi_with`] (via [`crate::FvlSession`] or the `wf-engine` batch
/// engine) to reuse buffers and the chain power caches across queries.
pub fn pi(ctx: &DecodeCtx<'_>, d1: &DataLabel, d2: &DataLabel) -> Option<bool> {
    let mut scratch = QueryScratch::new();
    pi_with(ctx, &mut scratch, d1.to_ref(), d2.to_ref())
}

/// Algorithm 2 over borrowed labels with caller-owned scratch state — the
/// allocation-free (in steady state) serving form of [`pi`].
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
            let mut m = scratch.pool.take();
            let res = ctx
                .fold_into(scratch, i2.path, ctx.vl.lambda_star_s().rows(), true, &mut m)
                .map(|()| m.get(i1.port as usize, i2.port as usize));
            scratch.pool.put(m);
            res
        }
        // Case IV: intermediate -> final output: chain O-matrices down d1's
        // producer path (reversed orientation).
        (Some(o1), None) => {
            let mut m = scratch.pool.take();
            let res = ctx
                .fold_into(scratch, o1.path, ctx.vl.lambda_star_s().cols(), false, &mut m)
                .map(|()| m.get(o2.port as usize, o1.port as usize));
            scratch.pool.put(m);
            res
        }
        // Main cases: both intermediate.
        (Some(o1), Some(i2)) => main_case(ctx, scratch, o1, i2),
    }
}

fn main_case(
    ctx: &DecodeCtx<'_>,
    scratch: &mut QueryScratch,
    o1: PortRef<'_>,
    i2: PortRef<'_>,
) -> Option<bool> {
    let l1 = o1.path;
    let l2 = i2.path;
    let div = o1.common_prefix_len(&i2);
    // Case 1: same node or ancestor/descendant — an output port never
    // reaches back inside its own module's expansion.
    if div == l1.len() || div == l2.len() {
        return Some(false);
    }
    // Within one run, the two edges below the divergence point are siblings
    // of one parse-tree node, so they share its production (or recursion)
    // and each chain child expands through its cycle production. Labels of
    // two different runs interned in one store can break all of that; no
    // single run holds such a pair, so it answers `Some(false)` instead of
    // indexing matrices of the wrong production.
    match (l1[div], l2[div]) {
        // Case 2a: the least common ancestor is an ordinary production node.
        (EdgeLabel::Plain { k, i }, EdgeLabel::Plain { k: k2, i: j }) => {
            if k != k2 {
                return Some(false);
            }
            if i >= j {
                return Some(false); // Z(k,i,j) is empty for i ≥ j
            }
            if !ctx.vl.prod_active(k) {
                return None; // Z(k,i,j) lies outside the view
            }
            let mut o = scratch.pool.take();
            let mut im = scratch.pool.take();
            let mut t1 = scratch.pool.take();
            let mut t2 = scratch.pool.take();
            // Oᵀ × Z × I, evaluated through pooled temporaries; the closure
            // keeps every taken buffer on the put path even when a fold
            // bails out of the view.
            let res = (|| {
                ctx.fold_into(scratch, &l1[div + 1..], ctx.out_dim(k, i), false, &mut o)?;
                ctx.fold_into(scratch, &l2[div + 1..], ctx.in_dim(k, j), true, &mut im)?;
                o.transpose_into(&mut t1);
                ctx.with_mat(scratch, k, Slot::Z(i as usize, j as usize), |z| {
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
        // Case 2b: the least common ancestor is a recursive node.
        (EdgeLabel::Rec { s, t, i: a }, EdgeLabel::Rec { s: s2, t: t2, i: b }) => {
            if (s, t) != (s2, t2) {
                return Some(false);
            }
            let cycle = ctx.pg.cycles().ok()?.get(s as usize)?;
            if a < b {
                // d1's branch is an ancestor level of d2's chain position.
                if l1.len() == div + 1 {
                    return Some(false); // o1 is a port of chain child a itself
                }
                let EdgeLabel::Plain { k: kp, i: ip } = l1[div + 1] else {
                    return Some(false);
                };
                let (k_exp, jp) = cycle.edge_at(t as usize + a as usize);
                if kp != k_exp || ip >= jp {
                    return Some(false); // Z(k', i', j') is empty, or a cross-run pair
                }
                if !ctx.vl.prod_active(kp) {
                    return None; // Z(k', i', j') lies outside the view
                }
                let in_dim = ctx.cycle_in_dim(s, t as usize + b as usize)?;
                let mut o = scratch.pool.take();
                let mut i_chain = scratch.pool.take();
                let mut i_fold = scratch.pool.take();
                let mut t1 = scratch.pool.take();
                let mut t2 = scratch.pool.take();
                // Oᵀ × Z × chain × I (buffers pooled on every exit path).
                let res = (|| {
                    ctx.fold_into(scratch, &l1[div + 2..], ctx.out_dim(kp, ip), false, &mut o)?;
                    let start = t as usize + a as usize + 1;
                    ctx.chain_into(scratch, s, start, b - a - 1, true, &mut i_chain)?;
                    ctx.fold_into(scratch, &l2[div + 1..], in_dim, true, &mut i_fold)?;
                    o.transpose_into(&mut t1);
                    ctx.with_mat(scratch, kp, Slot::Z(ip as usize, jp as usize), |z| {
                        t1.matmul_into(z, &mut t2)
                    })?;
                    t2.matmul_into(&i_chain, &mut t1);
                    t1.matmul_into(&i_fold, &mut t2);
                    Some(t2.get(o1.port as usize, i2.port as usize))
                })();
                for m in [o, i_chain, i_fold, t1, t2] {
                    scratch.pool.put(m);
                }
                res
            } else {
                // a > b: d2's branch is the ancestor level.
                if l2.len() == div + 1 {
                    return Some(false); // i2 is a port of chain child b itself
                }
                let EdgeLabel::Plain { k: kq, i: iq } = l2[div + 1] else {
                    return Some(false);
                };
                let (k_exp, jq) = cycle.edge_at(t as usize + b as usize);
                if kq != k_exp || jq >= iq {
                    return Some(false); // Z(k'', j'', i'') is empty, or cross-run
                }
                if !ctx.vl.prod_active(kq) {
                    return None; // Z(k'', j'', i'') lies outside the view
                }
                let out_dim = ctx.cycle_out_dim(s, t as usize + a as usize)?;
                let mut o_chain = scratch.pool.take();
                let mut o_fold = scratch.pool.take();
                let mut i_fold = scratch.pool.take();
                let mut t1 = scratch.pool.take();
                let mut t2 = scratch.pool.take();
                // (chain × O)ᵀ × Z × I (buffers pooled on every exit path).
                let res = (|| {
                    let start = t as usize + b as usize + 1;
                    ctx.chain_into(scratch, s, start, a - b - 1, false, &mut o_chain)?;
                    ctx.fold_into(scratch, &l1[div + 1..], out_dim, false, &mut o_fold)?;
                    ctx.fold_into(scratch, &l2[div + 2..], ctx.in_dim(kq, iq), true, &mut i_fold)?;
                    o_chain.matmul_into(&o_fold, &mut t1);
                    t1.transpose_into(&mut t2);
                    ctx.with_mat(scratch, kq, Slot::Z(jq as usize, iq as usize), |z| {
                        t2.matmul_into(z, &mut t1)
                    })?;
                    t1.matmul_into(&i_fold, &mut t2);
                    Some(t2.get(o1.port as usize, i2.port as usize))
                })();
                for m in [o_chain, o_fold, i_fold, t1, t2] {
                    scratch.pool.put(m);
                }
                res
            }
        }
        _ => Some(false),
    }
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

    /// Matrix-free π: anchors on d1's *consumer* and d2's *producer* (black
    /// boxes spread flows completely, making these the exact anchors).
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
        let l1 = &i1.path;
        let l2 = &o2.path;
        let div = i1.common_prefix_len(o2);
        // Ancestor-or-equal (either direction) ⇒ dependent: entering any
        // input of a black box floods all of its interior and outputs.
        if div == l1.len() || div == l2.len() {
            return Some(true);
        }
        match (l1[div], l2[div]) {
            (EdgeLabel::Plain { k, i }, EdgeLabel::Plain { i: j, .. }) => idx.reach(k, i, j),
            (EdgeLabel::Rec { s, t, i: a }, EdgeLabel::Rec { i: b, .. }) => {
                let cycle = pg.cycles().ok()?.get(s as usize)?;
                if a < b {
                    // Consumer side sits at/above chain child a; the
                    // producer is nested inside child b ⊂ child a.
                    if l1.len() == div + 1 {
                        return Some(true); // consumer is chain child a itself
                    }
                    let EdgeLabel::Plain { k: kp, i: ip } = l1[div + 1] else {
                        return None;
                    };
                    let (_, jp) = cycle.edge_at(t as usize + a as usize);
                    idx.reach(kp, ip, jp)
                } else {
                    debug_assert_ne!(a, b);
                    if l2.len() == div + 1 {
                        return Some(true); // producer is chain child b itself
                    }
                    let EdgeLabel::Plain { k: kq, i: iq } = l2[div + 1] else {
                        return None;
                    };
                    let (_, jq) = cycle.edge_at(t as usize + b as usize);
                    idx.reach(kq, jq, iq)
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fvl, VariantKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_boolmat::pow;
    use wf_model::fixtures::paper_example;
    use wf_model::{DepAssignment, GrammarBuilder, ModelError, Spec, View};

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
}
