//! The FVL facade: one object tying together preprocessing, run labeling,
//! view labeling and querying.

use crate::codec::LabelCodec;
use crate::decode::{pi_with, structural, DecodeCtx, QueryScratch};
use crate::error::FvlError;
use crate::label::DataLabel;
use crate::labeler::RunLabeler;
use crate::viewlabel::{VariantKind, ViewLabel};
use crate::visibility::is_visible;
use std::sync::Arc;
use wf_analysis::{classify_with, ProdGraph, RecursionClass};
use wf_model::{ModuleId, Spec, View, ViewSpec};
use wf_run::Run;

/// How an [`Fvl`] holds its specification: borrowed from the caller (the
/// original construction path) or shared ownership via [`Arc`]. The `Arc`
/// form is what breaks the borrow chain for long-lived serving stacks — an
/// `Fvl<'static>` can be moved into generation objects, published across
/// threads and outlive every stack frame, while the borrowed form keeps
/// one-shot usage allocation-free. Both variants are covariant in `'a`, so
/// an `&Fvl<'static>` coerces wherever an `&'e Fvl<'e>` is expected.
enum SpecHolder<'a> {
    Borrowed(&'a Spec),
    Shared(Arc<Spec>),
}

impl SpecHolder<'_> {
    #[inline]
    fn get(&self) -> &Spec {
        match self {
            SpecHolder::Borrowed(s) => s,
            SpecHolder::Shared(s) => s,
        }
    }
}

/// The view-adaptive dynamic labeling scheme for one specification.
///
/// Construction performs the §4.1 preprocessing (production-graph edge ids
/// and cycle tables) and rejects grammars that are not strictly
/// linear-recursive — for those, compact dynamic labels do not exist
/// (Theorem 6), and for non-linear ones they do not exist even for
/// black-box dependencies (Theorem 3).
///
/// [`Fvl::new`] borrows the caller's [`Spec`]; [`Fvl::from_arc`] shares
/// ownership instead and yields an `Fvl<'static>` that serving layers can
/// own outright (see `wf-engine`'s generation objects).
pub struct Fvl<'a> {
    spec: SpecHolder<'a>,
    pg: ProdGraph,
    codec: LabelCodec,
    class: RecursionClass,
}

impl<'a> Fvl<'a> {
    pub fn new(spec: &'a Spec) -> Result<Self, FvlError> {
        Self::build(SpecHolder::Borrowed(spec))
    }

    /// [`Fvl::new`] over shared ownership: the scheme keeps the spec alive
    /// itself, so the result is `'static` — movable into owned, published
    /// engine generations instead of being borrow-chained to a stack frame.
    pub fn from_arc(spec: Arc<Spec>) -> Result<Fvl<'static>, FvlError> {
        Fvl::build(SpecHolder::Shared(spec))
    }

    fn build(holder: SpecHolder<'a>) -> Result<Self, FvlError> {
        let spec = holder.get();
        let pg = ProdGraph::new(&spec.grammar);
        let class = classify_with(&spec.grammar, &pg);
        if !class.is_strictly_linear() {
            let witness =
                pg.cycles().err().map(|c| ModuleId(c.witness.0)).unwrap_or(spec.grammar.start());
            return Err(FvlError::NotStrictlyLinear { witness });
        }
        let codec = LabelCodec::new(&spec.grammar, &pg);
        Ok(Self { spec: holder, pg, codec, class })
    }

    pub fn spec(&self) -> &Spec {
        self.spec.get()
    }

    pub fn prod_graph(&self) -> &ProdGraph {
        &self.pg
    }

    pub fn codec(&self) -> &LabelCodec {
        &self.codec
    }

    pub fn recursion_class(&self) -> RecursionClass {
        self.class
    }

    /// Attaches a dynamic labeler to a run (labels any existing history,
    /// then follows new steps via [`RunLabeler::on_step`]).
    pub fn labeler(&self, run: &Run) -> RunLabeler {
        RunLabeler::start(&self.spec.get().grammar, &self.pg, run)
    }

    /// Statically labels a view (§4.3). Fails on unsafe views (Theorem 1).
    pub fn label_view(&self, view: &View, kind: VariantKind) -> Result<ViewLabel, FvlError> {
        let vs = ViewSpec::new(self.spec.get(), view);
        ViewLabel::build(&vs, &self.pg, kind)
    }

    /// Opens a query session against one view label: one [`DecodeCtx`]
    /// and one [`QueryScratch`] reused across every query, so steady-state
    /// querying allocates nothing under any variant. This is the serving
    /// path; [`Fvl::query`] is the one-shot convenience form.
    pub fn session<'s>(&'s self, vl: &'s ViewLabel) -> FvlSession<'s> {
        FvlSession {
            ctx: DecodeCtx::new(&self.spec.get().grammar, &self.pg, vl),
            scratch: QueryScratch::new(),
        }
    }

    /// π with a visibility pre-check: `None` iff either item is invisible
    /// in the view; otherwise the (constant-time) dependency answer.
    ///
    /// Convenience wrapper: rebuilds the decode context and scratch per
    /// call. Many-query workloads should hold an [`FvlSession`] (or pass a
    /// scratch to [`Fvl::query_with`]) instead.
    pub fn query(&self, vl: &ViewLabel, d1: &DataLabel, d2: &DataLabel) -> Option<bool> {
        let mut scratch = QueryScratch::new();
        self.query_with(vl, &mut scratch, d1, d2)
    }

    /// [`Fvl::query`] with caller-owned scratch state. One scratch may be
    /// shared across any mix of view labels: its chain memo is keyed by
    /// [`ViewLabel::uid`], so views can never poison each other's entries
    /// ([`QueryScratch::clear_memo`] merely bounds long-session memory).
    pub fn query_with(
        &self,
        vl: &ViewLabel,
        scratch: &mut QueryScratch,
        d1: &DataLabel,
        d2: &DataLabel,
    ) -> Option<bool> {
        if !is_visible(d1, vl, &self.pg) || !is_visible(d2, vl, &self.pg) {
            return None;
        }
        let ctx = DecodeCtx::new(&self.spec.get().grammar, &self.pg, vl);
        pi_with(&ctx, scratch, d1.to_ref(), d2.to_ref())
    }

    /// Builds the Matrix-Free structural index for a black-box view (§6.4).
    pub fn structural_index(&self, view: &View) -> structural::StructuralIndex {
        structural::StructuralIndex::build(&self.spec.get().grammar, |k| {
            view.expands(self.spec.get().grammar.production(k).lhs)
        })
    }

    /// Matrix-Free query (only valid on coarse-grained views + visible
    /// items).
    pub fn query_structural(
        &self,
        idx: &structural::StructuralIndex,
        d1: &DataLabel,
        d2: &DataLabel,
    ) -> Option<bool> {
        structural::pi_structural(&self.pg, idx, d1, d2)
    }

    pub fn is_visible(&self, vl: &ViewLabel, d: &DataLabel) -> bool {
        is_visible(d, vl, &self.pg)
    }
}

// A frozen serving core shares `&Fvl` across worker threads; the scheme
// object must stay free of interior mutability (see the matching
// assertions in `decode`).
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Fvl<'static>>();
};

/// A query session: one [`DecodeCtx`] plus one [`QueryScratch`] reused
/// across queries. In steady state — once the pool and the search masks
/// have warmed up and every recursion chain met has its power cache — a
/// query performs no allocation at all, under any variant: Default and
/// Query-Efficient borrow their stored matrices, Space-Efficient searches
/// each one into pooled buffers.
pub struct FvlSession<'s> {
    ctx: DecodeCtx<'s>,
    scratch: QueryScratch,
}

impl<'s> FvlSession<'s> {
    /// The view label this session serves.
    pub fn view_label(&self) -> &'s ViewLabel {
        self.ctx.vl
    }

    /// π with the visibility pre-check (see [`Fvl::query`]).
    pub fn query(&mut self, d1: &DataLabel, d2: &DataLabel) -> Option<bool> {
        if !is_visible(d1, self.ctx.vl, self.ctx.pg) || !is_visible(d2, self.ctx.vl, self.ctx.pg) {
            return None;
        }
        pi_with(&self.ctx, &mut self.scratch, d1.to_ref(), d2.to_ref())
    }

    /// Raw π without the visibility pre-check: only meaningful for
    /// visible items (the timed path of the `experiments` figures).
    pub fn query_unchecked(&mut self, d1: &DataLabel, d2: &DataLabel) -> Option<bool> {
        pi_with(&self.ctx, &mut self.scratch, d1.to_ref(), d2.to_ref())
    }

    /// Session scratch diagnostics: (pooled matrices, memoized powers).
    pub fn scratch_stats(&self) -> (usize, usize) {
        (self.scratch.pooled_mats(), self.scratch.memoized_powers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::{nonstrict_example, paper_example};
    use wf_run::fixtures::figure3_run;

    #[test]
    fn rejects_nonstrict_grammar() {
        let spec = nonstrict_example();
        assert!(matches!(Fvl::new(&spec), Err(FvlError::NotStrictlyLinear { .. })));
    }

    /// End-to-end Example 8: label once, query under both views.
    #[test]
    fn example8_end_to_end() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, ids) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);

        let u1 = ex.view_u1();
        let u2 = ex.view_u2();
        let vl1 = fvl.label_view(&u1, VariantKind::Default).unwrap();
        let vl2 = fvl.label_view(&u2, VariantKind::Default).unwrap();

        let d17 = labeler.label(ids.d17);
        let d31 = labeler.label(ids.d31);
        // "Does d31 depend on d17?" — no in U1, yes in U2. Same data labels!
        assert_eq!(fvl.query(&vl1, d17, d31), Some(false));
        assert_eq!(fvl.query(&vl2, d17, d31), Some(true));
        // d21 is invisible in U2.
        let d21 = labeler.label(ids.d21);
        assert_eq!(fvl.query(&vl2, d21, d31), None);
        assert!(fvl.query(&vl1, d21, d31).is_some());
    }

    /// A session must answer exactly like the one-shot path, for every pair
    /// of the Figure 3 run under all three variants, and settle into an
    /// allocation-free steady state (pool/memo sizes stop growing).
    #[test]
    fn session_agrees_with_one_shot_queries() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let labels = labeler.labels();
        let u1 = ex.view_u1();
        for kind in [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient]
        {
            let vl = fvl.label_view(&u1, kind).unwrap();
            let mut session = fvl.session(&vl);
            for d1 in labels {
                for d2 in labels {
                    assert_eq!(session.query(d1, d2), fvl.query(&vl, d1, d2), "{kind:?}");
                }
            }
            // The first sweep warms the scratch up; after it the scratch
            // must be at a fixed point — no growth, i.e. no allocations, in
            // steady state.
            let warm = session.scratch_stats();
            for d1 in labels {
                for d2 in labels {
                    session.query(d1, d2);
                }
            }
            assert_eq!(session.scratch_stats(), warm, "{kind:?} steady state");
        }
    }
}
