//! User-defined views (§5): views that *group* existing modules into new
//! composite modules whose internals (including the data edges between
//! members) are hidden.
//!
//! The essential trick of §5: existing data labels are **reused**. The
//! user-defined view is projected back onto the original specification —
//! the new module `F` is expanded away — and the view label is computed
//! over the *original* production positions, but under the new dependency
//! assignment: within the grouped production, the members' internal
//! structure is replaced by `λ′(F)` arcs between the group's boundary
//! ports. Matrix entries at hidden ports are undefined (Example 19's
//! "the first column is undefined"); they are never consulted because
//! hidden items fail the visibility check first.

use crate::error::FvlError;
use crate::label::{DataLabel, PortLabel};
use crate::viewlabel::{VariantKind, ViewLabel};
use wf_analysis::{full_assignment, ProdGraph, ProductionMatrices};
use wf_boolmat::BoolMat;
use wf_digraph::{DiGraph, NodeId};
use wf_model::grouping::Grouping;
use wf_model::{
    DepAssignment, Grammar, InPortRef, ModuleId, NodeIx, OutPortRef, ProdId, Spec, View, ViewSpec,
};
use wf_run::EdgeLabel;

/// A user-defined view: a regular `(Δ′, λ′)` pair plus module groupings,
/// each with the perceived dependency matrix of its new composite module.
pub struct UserView {
    /// Modules the user may expand. Group members must not be expandable.
    pub expand: Vec<ModuleId>,
    /// λ′ for the unexpandable *original* modules.
    pub deps: DepAssignment,
    /// Groupings with their `λ′(F)` matrices (inputs × outputs of the
    /// group's boundary).
    pub groupings: Vec<(Grouping, BoolMat)>,
}

impl UserView {
    fn grouping_on(&self, k: ProdId) -> Option<&(Grouping, BoolMat)> {
        self.groupings.iter().find(|(g, _)| g.prod == k)
    }
}

/// Builds the view label of a user-defined view against the *original*
/// grammar, per §5. Returns the label plus the regular `View` it projects
/// onto (used for run projection and tests).
pub fn label_user_view(
    spec: &Spec,
    pg: &ProdGraph,
    uv: &UserView,
    kind: VariantKind,
) -> Result<(ViewLabel, View), FvlError> {
    let grammar = &spec.grammar;
    // Validate groupings and the member/expansion disjointness.
    for (g, f_mat) in &uv.groupings {
        g.validate(grammar)?;
        let b = g.boundary(grammar);
        if f_mat.rows() != b.f_inputs.len() || f_mat.cols() != b.f_outputs.len() {
            return Err(FvlError::Model(wf_model::ModelError::BadGrouping {
                prod: g.prod,
                detail: "λ'(F) shape does not match the group boundary",
            }));
        }
        let w = &grammar.production(g.prod).rhs;
        for &m in &g.members {
            if uv.expand.contains(&w.module_at(m)) {
                return Err(FvlError::Model(wf_model::ModelError::BadGrouping {
                    prod: g.prod,
                    detail: "group members must not be expandable in the view",
                }));
            }
        }
    }
    // The regular projection of the user view (F expanded away). Hidden
    // group members need no individual λ′ — View::new_structural skips the
    // coverage check that View::new would apply.
    let view = View::new_structural(grammar, uv.expand.iter().copied(), uv.deps.clone())?;

    // λ* over the *transformed* grammar (W9/W10 materialized, F terminal).
    let lambda = user_full_assignment(spec, uv, &view)?;
    let lambda_s = lambda.get(grammar.start()).expect("start has λ*").clone();

    let active: Vec<bool> = grammar.productions().map(|(_, p)| view.expands(p.lhs)).collect();
    let mats: Vec<Option<ProductionMatrices>> = grammar
        .productions()
        .map(|(k, _)| {
            if !active[k.index()] {
                return None;
            }
            Some(match uv.grouping_on(k) {
                None => wf_analysis::production_matrices(grammar, k, &lambda),
                Some((g, f_mat)) => grouped_matrices(grammar, k, g, f_mat, &lambda),
            })
        })
        .collect();

    let vl = ViewLabel::from_parts(kind, lambda, lambda_s, active, mats, grammar, pg);
    Ok((vl, view))
}

/// λ\* of the user view, computed on the transformed grammar of §5 and read
/// back on original module ids.
fn user_full_assignment(
    spec: &Spec,
    uv: &UserView,
    view: &View,
) -> Result<DepAssignment, FvlError> {
    let grammar = &spec.grammar;
    if uv.groupings.is_empty() {
        let vs = ViewSpec::new(spec, view);
        return Ok(full_assignment(&vs)?);
    }
    // Build the transformed grammar: replace each grouped production by
    // C → W9 and add F → W10.
    let mut modules = grammar.sigs().to_vec();
    let mut composite: Vec<bool> = grammar.modules().map(|m| grammar.is_composite(m)).collect();
    let mut productions: Vec<wf_model::Production> =
        grammar.productions().map(|(_, p)| p.clone()).collect();
    let mut deps = uv.deps.clone();
    for (g, f_mat) in &uv.groupings {
        let f_id = ModuleId(modules.len() as u32);
        let (f_sig, p_c, p_f) = g.materialize(grammar, f_id)?;
        modules.push(f_sig);
        composite.push(true); // F is composite in the transformed grammar…
        productions[g.prod.index()] = p_c;
        productions.push(p_f);
        deps.set(f_id, f_mat.clone()); // …but terminal in the view: λ′(F).
    }
    let tg = Grammar::new(modules, composite, grammar.start(), productions)?;
    let tdeps_atomic = {
        // Atomic λ for the transformed spec: original atomics only (F is
        // composite there); Spec::new validates atomics, reuse original λ.
        spec.deps.clone()
    };
    let tspec = Spec::new(tg, tdeps_atomic)?;
    let tview = View::new(&tspec.grammar, uv.expand.iter().copied(), deps)?;
    let vs = ViewSpec::new(&tspec, &tview);
    Ok(full_assignment(&vs)?)
}

/// `I`/`O`/`Z` of a grouped production over *original* positions, with the
/// members' internals replaced by `λ′(F)` boundary arcs. Entries at hidden
/// ports are left false (undefined).
#[allow(clippy::needless_range_loop)]
fn grouped_matrices(
    grammar: &Grammar,
    k: ProdId,
    g: &Grouping,
    f_mat: &BoolMat,
    lambda: &DepAssignment,
) -> ProductionMatrices {
    let p = grammar.production(k);
    let w = &p.rhs;
    let n = w.node_count();
    let sig = |i: usize| grammar.sig(w.nodes()[i]);
    let boundary = g.boundary(grammar);

    // Port graph with dense indices: inputs then outputs per node.
    let mut in_base = vec![0u32; n];
    let mut out_base = vec![0u32; n];
    let mut next = 0u32;
    for i in 0..n {
        in_base[i] = next;
        next += sig(i).inputs() as u32;
        out_base[i] = next;
        next += sig(i).outputs() as u32;
    }
    let in_ix = |p: InPortRef| in_base[p.node.index()] + p.port as u32;
    let out_ix = |p: OutPortRef| out_base[p.node.index()] + p.port as u32;
    let mut graph = DiGraph::with_nodes(next as usize);
    // Dependency arcs: non-members from λ*, the group from λ′(F).
    for i in 0..n {
        if g.is_member(NodeIx(i as u32)) {
            continue;
        }
        let mat = lambda.get(w.nodes()[i]).expect("λ* covers view modules");
        for (r, c) in mat.iter_ones() {
            graph.add_edge(NodeId(in_base[i] + r as u32), NodeId(out_base[i] + c as u32));
        }
    }
    for (r, c) in f_mat.iter_ones() {
        graph.add_edge(NodeId(in_ix(boundary.f_inputs[r])), NodeId(out_ix(boundary.f_outputs[c])));
    }
    // Data arcs: everything except intra-group (hidden) edges.
    for e in w.edges() {
        if g.is_member(e.from.node) && g.is_member(e.to.node) {
            continue;
        }
        graph.add_edge(NodeId(out_ix(e.from)), NodeId(in_ix(e.to)));
    }

    let lhs_sig = grammar.sig(p.lhs);
    let mut i_mats: Vec<BoolMat> =
        (0..n).map(|i| BoolMat::zeros(lhs_sig.inputs(), sig(i).inputs())).collect();
    let mut o_mats: Vec<BoolMat> =
        (0..n).map(|i| BoolMat::zeros(lhs_sig.outputs(), sig(i).outputs())).collect();
    let mut z_mats: Vec<Vec<BoolMat>> = (0..n)
        .map(|i| (0..n).map(|j| BoolMat::zeros(sig(i).outputs(), sig(j).inputs())).collect())
        .collect();
    for (x, &ip) in p.input_map.iter().enumerate() {
        let reach = graph.reachable_from(NodeId(in_ix(ip)));
        for i in 0..n {
            for y in 0..sig(i).inputs() {
                let port = InPortRef { node: NodeIx(i as u32), port: y as u8 };
                if reach.contains(in_ix(port) as usize) {
                    i_mats[i].set(x, y, true);
                }
            }
        }
    }
    for i in 0..n {
        for y in 0..sig(i).outputs() {
            let port = OutPortRef { node: NodeIx(i as u32), port: y as u8 };
            let reach = graph.reachable_from(NodeId(out_ix(port)));
            for (x, &op) in p.output_map.iter().enumerate() {
                if reach.contains(out_ix(op) as usize) {
                    o_mats[i].set(x, y, true);
                }
            }
            for j in i + 1..n {
                for z in 0..sig(j).inputs() {
                    let jp = InPortRef { node: NodeIx(j as u32), port: z as u8 };
                    if reach.contains(in_ix(jp) as usize) {
                        z_mats[i][j].set(y, z, true);
                    }
                }
            }
        }
    }
    ProductionMatrices { i_mats, o_mats, z_mats }
}

/// Visibility under a user-defined view: base visibility plus "the port is
/// not hidden inside a group".
pub fn is_visible_user(
    d: &DataLabel,
    vl: &ViewLabel,
    pg: &ProdGraph,
    grammar: &Grammar,
    uv: &UserView,
) -> bool {
    if !crate::visibility::is_visible(d, vl, pg) {
        return false;
    }
    let hidden_in = |p: &PortLabel| -> bool {
        let Some(&EdgeLabel::Plain { k, i }) = p.path.last() else { return false };
        uv.grouping_on(k).is_some_and(|(g, _)| {
            g.input_hidden(grammar, InPortRef { node: NodeIx(i), port: p.port })
        })
    };
    let hidden_out = |p: &PortLabel| -> bool {
        let Some(&EdgeLabel::Plain { k, i }) = p.path.last() else { return false };
        uv.grouping_on(k).is_some_and(|(g, _)| {
            g.output_hidden(grammar, OutPortRef { node: NodeIx(i), port: p.port })
        })
    };
    !d.inp.iter().any(&hidden_in) && !d.out.iter().any(&hidden_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{pi_with, DecodeCtx, QueryScratch};
    use crate::scheme::Fvl;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    /// Example 18/19: group D and E of W5 into F, keep Δ′ = {S, A, B, C}.
    fn example18(ex: &wf_model::fixtures::PaperExample) -> UserView {
        let g = ex.figure16_grouping();
        // F's boundary: 3 inputs (D.in0, D.in1, E.in2), 2 outputs (E.out0,
        // E.out1). Perceive F as: first two inputs -> first output, third
        // input -> second output (grey-box).
        let f_mat = BoolMat::from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)]);
        UserView {
            expand: vec![ex.s, ex.a_mod, ex.b_mod, ex.c_mod],
            deps: ex.spec.deps.clone(),
            groupings: vec![(g, f_mat)],
        }
    }

    #[test]
    fn user_view_label_builds() {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        let uv = example18(&ex);
        let (vl, view) = label_user_view(&ex.spec, &pg, &uv, VariantKind::Default).unwrap();
        assert!(view.expands(ex.c_mod));
        // I(5,3) of Example 19 = I(p5, position 2) here (module E): defined
        // for E's boundary input (in2) and undefined (false) for the hidden
        // ones is not observable directly; check the boundary column works:
        // C.in1 ↦ E.in2 is an identity-style entry.
        let im = &vl.materialized(ex.prods[4]).unwrap().i_mats[2];
        assert!(im.get(1, 2), "C.in1 reaches its own port E.in2");
    }

    /// Intra-group items are hidden; boundary items stay visible.
    #[test]
    fn user_view_visibility() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let fvl = Fvl::new(&ex.spec).unwrap();
        let pg = fvl.prod_graph();
        let uv = example18(&ex);
        let (vl, _) = label_user_view(&ex.spec, pg, &uv, VariantKind::Default).unwrap();
        let (run, ids) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        // d21 = b:2 -> D:1 crosses the group boundary: visible.
        assert!(is_visible_user(labeler.label(ids.d21), &vl, pg, g, &uv));
        // The D:1 -> E:1 items (W5 edges at positions 2,3: items 31,32) are
        // intra-group: hidden.
        assert!(!is_visible_user(labeler.label(wf_run::DataId(31)), &vl, pg, g, &uv));
        // d17 (enters C:4) is visible.
        assert!(is_visible_user(labeler.label(ids.d17), &vl, pg, g, &uv));
    }

    /// Queries through the grouped production follow λ′(F), not the true
    /// internals: with F's grey-box, C.in1 (boundary E.in2) now feeds
    /// F.out1 = E.out1 only — same as the true λ in this case — while
    /// d21's flow (into F.in1 = D.in1) exits F.out0 only.
    #[test]
    fn user_view_queries_follow_f_matrix() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let fvl = Fvl::new(&ex.spec).unwrap();
        let pg = fvl.prod_graph();
        let uv = example18(&ex);
        let (vl, _) = label_user_view(&ex.spec, pg, &uv, VariantKind::Default).unwrap();
        let (run, ids) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let ctx = DecodeCtx::new(g, pg, &vl);
        let mut scratch = QueryScratch::new();
        let mut pi = |d1: wf_run::DataId, d2: wf_run::DataId| {
            pi_with(&ctx, &mut scratch, labeler.label(d1).to_ref(), labeler.label(d2).to_ref())
        };
        // d21 flows into F.in1 (= D.in1) -> λ'(F) -> F.out0 (= E.out0) ->
        // c.in0 -> c.out0 = C:4.out0 -> … -> d31. Expect true.
        assert_eq!(pi(ids.d21, ids.d31), Some(true));
        // d17 (C.in1 ↦ E.in2 = F.in2) -> λ'(F) -> F.out1 = E.out1 -> c.in1
        // -> c.out1 = C:4.out1 ≠ d31's port: false, as in the true view.
        assert_eq!(pi(ids.d17, ids.d31), Some(false));
    }
}
