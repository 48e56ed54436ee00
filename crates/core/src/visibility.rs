//! Data visibility under a view (§5).
//!
//! "Using only a data label φr(d) and a view label φv(U), one can decide in
//! constant time if d is visible in R_U by checking if the function I in
//! φv(U) is defined for all the edge labels in φr(d)." [`edge_visible`] is
//! that rule for one edge, and the only one: a plain edge must name an
//! active production, and a recursion-chain label at position `i` requires
//! the cycle productions along its first `min(i, l)` steps to be active.
//! [`is_visible_ref`] folds it over both paths of a label. Since the rule
//! reads one edge at a time, a reader may apply it as it reads a path and
//! stop at the first edge outside the view, which is how the label store's
//! serving fetch checks visibility.

use crate::label::{DataLabel, LabelRef};
use crate::viewlabel::ViewLabel;
use wf_analysis::ProdGraph;
use wf_run::EdgeLabel;

/// True iff the view label's `I` is defined for the edge label `e`.
#[inline]
pub fn edge_visible(e: &EdgeLabel, vl: &ViewLabel, pg: &ProdGraph) -> bool {
    match *e {
        EdgeLabel::Plain { k, .. } => vl.prod_active(k),
        EdgeLabel::Rec { s, t, i } => chain_visible(s, t, i, vl, pg),
    }
}

/// [`edge_visible`] for a recursion-chain label, kept out of line: the
/// label store inlines the rule into its path walk, and the chain loop
/// inlined there too crowded the walk's registers (a slower
/// `scale_sweep` query at 10⁶ items).
#[inline(never)]
fn chain_visible(s: u16, t: u16, i: u64, vl: &ViewLabel, pg: &ProdGraph) -> bool {
    let Ok(cycles) = pg.cycles() else { return false };
    let Some(cycle) = cycles.get(s as usize) else { return false };
    let needed = (i as usize).min(cycle.len());
    (0..needed).all(|a| vl.prod_active(cycle.edge_at(t as usize + a).0))
}

/// True iff the data item is part of the view of its run.
pub fn is_visible(d: &DataLabel, vl: &ViewLabel, pg: &ProdGraph) -> bool {
    is_visible_ref(d.to_ref(), vl, pg)
}

/// [`is_visible`] over a borrowed label: every edge of both paths passes
/// [`edge_visible`].
pub fn is_visible_ref(d: LabelRef<'_>, vl: &ViewLabel, pg: &ProdGraph) -> bool {
    d.out.iter().chain(&d.inp).flat_map(|p| p.path).all(|e| edge_visible(e, vl, pg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labeler::RunLabeler;
    use crate::viewlabel::{VariantKind, ViewLabel};
    use wf_model::fixtures::paper_example;
    use wf_model::ViewSpec;
    use wf_run::fixtures::figure3_run;
    use wf_run::RunProjection;

    /// Label-based visibility must agree with the run-projection ground
    /// truth on every item of the Figure 3 run, for both views.
    #[test]
    fn visibility_matches_projection() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let (run, _) = figure3_run(&ex);
        let labeler = RunLabeler::start(g, &pg, &run);
        for view in [ex.view_u1(), ex.view_u2()] {
            let vs = ViewSpec::new(&ex.spec, &view);
            let vl = ViewLabel::build(&vs, &pg, VariantKind::Default).unwrap();
            let proj = RunProjection::new(g, &run, &view);
            for d in run.items() {
                assert_eq!(
                    is_visible(labeler.label(d), &vl, &pg),
                    proj.item_visible(d),
                    "item {d:?}"
                );
            }
        }
    }

    /// Example-level spot check: d21 (inside C:4) is invisible in U₂,
    /// d17 (entering C:4) stays visible.
    #[test]
    fn u2_spot_checks() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let (run, ids) = figure3_run(&ex);
        let labeler = RunLabeler::start(g, &pg, &run);
        let u2 = ex.view_u2();
        let vs = ViewSpec::new(&ex.spec, &u2);
        let vl = ViewLabel::build(&vs, &pg, VariantKind::Default).unwrap();
        assert!(!is_visible(labeler.label(ids.d21), &vl, &pg));
        assert!(is_visible(labeler.label(ids.d17), &vl, &pg));
        assert!(is_visible(labeler.label(ids.d31), &vl, &pg));
    }
}
