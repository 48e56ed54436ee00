//! DRL — the state-of-the-art baseline (\[5\]: Bao, Davidson, Milo, *Labeling
//! Recursive Workflow Executions On-the-Fly*, SIGMOD 2011), reimplemented
//! interface-equivalently for the §6 comparisons (see DESIGN.md, S3).
//!
//! DRL labels dynamic runs of **black-box** (coarse-grained) recursive
//! workflows. Its two defining contrasts with FVL:
//!
//! * **Not view-adaptive**: a DRL labeling is bound to one view — it labels
//!   the *view of the run* against the view grammar's production graph.
//!   `n` views ⇒ `n` labels per data item, re-labeling on every new view
//!   (Figures 21/22).
//! * **No matrices**: with black boxes, dependency is instance-level
//!   reachability, decided from two tree paths plus a static per-production
//!   instance closure — the same structural decode Matrix-Free FVL uses
//!   (Figure 23).
//!
//! Labels are compressed-parse-tree path pairs like FVL's, but encoded
//! without common-prefix factoring (the \[5\] encoding stores both endpoint
//! labels independently) — reproducing the paper's observation that FVL's
//! data labels come out slightly shorter (Figure 17).

use wf_analysis::ProdGraph;
use wf_core::decode::structural::{pi_structural, StructuralIndex};
use wf_core::labeler::{boundary_labels, step_labels};
use wf_core::{DataLabel, LabelCodec};
use wf_model::{Spec, View};
use wf_run::{CompressedTree, DataId, InstanceId, Run, RunProjection};

/// Why DRL refuses an input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DrlError {
    /// DRL's model is black-box only (Definition 8); the view carries
    /// fine-grained matrices.
    NotBlackBox,
    /// The view grammar is not linear-recursive: even black-box dynamic
    /// labels must be linear-size (Theorem 3 / \[5\]).
    NotLinearRecursive,
}

impl std::fmt::Display for DrlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DrlError::NotBlackBox => write!(f, "DRL supports black-box views only"),
            DrlError::NotLinearRecursive => write!(f, "DRL requires a linear-recursive grammar"),
        }
    }
}

impl std::error::Error for DrlError {}

/// The DRL scheme, bound to one `(specification, view)` pair.
pub struct Drl<'a> {
    spec: &'a Spec,
    view: &'a View,
    /// Production graph of the *view grammar* (restricted).
    pg: ProdGraph,
    idx: StructuralIndex,
    codec: LabelCodec,
}

impl<'a> Drl<'a> {
    /// Binds DRL to a black-box view of a specification.
    pub fn new(spec: &'a Spec, view: &'a View) -> Result<Self, DrlError> {
        if !view.is_black_box(&spec.grammar) {
            return Err(DrlError::NotBlackBox);
        }
        let active: Vec<bool> =
            spec.grammar.productions().map(|(_, p)| view.expands(p.lhs)).collect();
        let pg = ProdGraph::new_restricted(&spec.grammar, &active);
        if !wf_analysis::recursion::is_linear_recursive(&spec.grammar, &pg) {
            return Err(DrlError::NotLinearRecursive);
        }
        let idx = StructuralIndex::build(&spec.grammar, |k| active[k.index()]);
        let codec = LabelCodec::new(&spec.grammar, &pg);
        Ok(Self { spec, view, pg, idx, codec })
    }

    pub fn view(&self) -> &View {
        self.view
    }

    /// Labels the view of a run: one label per *visible* item. Steps are
    /// consumed in derivation order, skipping those the view hides — the
    /// online discipline of Definition 10 applied to the projected run.
    /// Labels are built by the same code as FVL's
    /// ([`wf_core::labeler::step_labels`]), so each visible instance's path
    /// is allocated once and shared by its port labels.
    pub fn label_run(&self, run: &Run) -> DrlLabels {
        let grammar = &self.spec.grammar;
        let proj = RunProjection::new(grammar, run, self.view);
        let mut tree = CompressedTree::new(grammar, &self.pg, InstanceId(0));
        let mut labels: Vec<Option<DataLabel>> = vec![None; run.item_count()];
        for (slot, l) in labels.iter_mut().zip(boundary_labels(grammar, &tree)) {
            *slot = Some(l);
        }
        for s in run.steps() {
            if !proj.step_projected(s) {
                continue;
            }
            tree.on_step(&self.pg, run, s);
            for (d, l) in run.step(s).items.clone().zip(step_labels(&tree, run, s)) {
                labels[d as usize] = Some(l);
            }
        }
        DrlLabels { labels }
    }

    /// Constant-time structural query over two DRL labels.
    pub fn query(&self, d1: &DataLabel, d2: &DataLabel) -> Option<bool> {
        pi_structural(&self.pg, &self.idx, d1, d2)
    }

    /// Wire size of a DRL label in bits (no prefix factoring — see S3).
    pub fn label_bits(&self, d: &DataLabel) -> usize {
        self.codec.encoded_bits_unfactored(d)
    }
}

/// Per-view labeling of one run.
pub struct DrlLabels {
    labels: Vec<Option<DataLabel>>,
}

impl DrlLabels {
    /// The label of a visible item (`None` for hidden ones).
    pub fn label(&self, d: DataId) -> Option<&DataLabel> {
        self.labels.get(d.0 as usize).and_then(|l| l.as_ref())
    }

    pub fn iter(&self) -> impl Iterator<Item = (DataId, &DataLabel)> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|l| (DataId(i as u32), l)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::sync::Arc;
    use wf_core::RunLabeler;
    use wf_model::{DepAssignment, GrammarBuilder, ViewSpec};
    use wf_run::fixtures::figure3_run;
    use wf_run::{random_derivation, EdgeLabel, RunOracle};

    /// A small coarse-grained recursive spec: S -> (src, L, sink),
    /// L -> (x, L) | (x); single source/sink per production.
    fn coarse_spec() -> Spec {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let l = b.composite("L", 1, 1);
        let src = b.atomic("src", 1, 2);
        let sink = b.atomic("sink", 2, 1);
        let x = b.atomic("x", 1, 1);
        b.start(s);
        b.production(
            s,
            vec![src, l, sink],
            vec![((0, 0), (1, 0)), ((0, 1), (2, 1)), ((1, 0), (2, 0))],
        );
        b.production(l, vec![x, l], vec![((0, 0), (1, 0))]);
        b.production(l, vec![x], vec![]);
        let g = b.finish().unwrap();
        let deps = DepAssignment::black_box(g.sigs(), [src, sink, x]);
        Spec::new(g, deps).unwrap()
    }

    #[test]
    fn rejects_fine_grained_views() {
        let ex = wf_model::fixtures::paper_example();
        let view = ex.view_u1();
        assert_eq!(Drl::new(&ex.spec, &view).err(), Some(DrlError::NotBlackBox));
    }

    #[test]
    fn coarse_spec_is_accepted_and_matches_oracle() {
        let spec = coarse_spec();
        assert!(spec.is_coarse_grained());
        let view = spec.default_view();
        let drl = Drl::new(&spec, &view).unwrap();
        let full_pg = ProdGraph::new(&spec.grammar);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
        for trial in 0..20 {
            let d = random_derivation(&spec.grammar, &full_pg, &mut rng, 40);
            let run = d.replay(&spec.grammar).unwrap();
            let labels = drl.label_run(&run);
            let vs = ViewSpec::new(&spec, &view);
            let oracle = RunOracle::new(&spec.grammar, &vs, &run).unwrap();
            for a in run.items() {
                for b in run.items() {
                    let (Some(la), Some(lb)) = (labels.label(a), labels.label(b)) else {
                        continue;
                    };
                    assert_eq!(
                        drl.query(la, lb),
                        oracle.depends_on(a, b),
                        "trial {trial}: {a:?} -> {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_bits_are_positive_and_logarithmic() {
        let spec = coarse_spec();
        let view = spec.default_view();
        let drl = Drl::new(&spec, &view).unwrap();
        let full_pg = ProdGraph::new(&spec.grammar);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let d = random_derivation(&spec.grammar, &full_pg, &mut rng, 2000);
        let run = d.replay(&spec.grammar).unwrap();
        let labels = drl.label_run(&run);
        let max_bits = labels.iter().map(|(_, l)| drl.label_bits(l)).max().unwrap();
        // 2000 items: log-size labels stay well under 200 bits.
        assert!(max_bits < 200, "max label was {max_bits} bits");
    }

    /// Every port label on one instance holds one path allocation, equal by
    /// value to the instance's path in `tree`.
    fn assert_one_path_per_instance<'l>(
        run: &Run,
        tree: &CompressedTree,
        labels: impl Iterator<Item = (DataId, &'l DataLabel)>,
    ) {
        let mut first: HashMap<InstanceId, Arc<[EdgeLabel]>> = HashMap::new();
        for (d, label) in labels {
            let item = run.item(d);
            for (end, port) in [(item.producer, &label.out), (item.consumer, &label.inp)] {
                let (Some((inst, _)), Some(port)) = (end, port) else { continue };
                let shared = first.entry(inst).or_insert_with(|| port.path.clone());
                assert!(Arc::ptr_eq(shared, &port.path), "{d:?}: {inst:?} has two path copies");
                assert_eq!(port.path[..], tree.path_of(tree.node_of(inst).unwrap())[..], "{d:?}");
            }
        }
    }

    /// FVL's labeler and DRL share each instance's path among its port
    /// labels: on the Figure 3 run under a black-box view of the paper's
    /// grammar, and on a BioAID run under a view that hides some steps.
    #[test]
    fn both_labelers_share_one_path_per_instance() {
        let ex = wf_model::fixtures::paper_example();
        let g = &ex.spec.grammar;
        let deps = DepAssignment::black_box(g.sigs(), g.atomic_modules());
        let paper_view = View::new(g, g.composite_modules(), deps).unwrap();
        let bio = wf_workloads::bioaid_coarse(1);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let bio_pg = ProdGraph::new(&bio.spec.grammar);
        let bio_run = wf_workloads::sample::sample_run(&bio, &bio_pg, &mut rng, 2_000).1;
        let bio_view = wf_workloads::views::black_box_view(&bio, &mut rng, 4);
        let cases = [(&ex.spec, paper_view, figure3_run(&ex).0), (&bio.spec, bio_view, bio_run)];
        for (spec, view, run) in &cases {
            let g = &spec.grammar;
            let labeler = RunLabeler::start(g, &ProdGraph::new(g), run);
            let fvl = run.items().map(|d| (d, labeler.label(d)));
            assert_one_path_per_instance(run, labeler.tree(), fvl);

            let drl = Drl::new(spec, view).unwrap();
            let labels = drl.label_run(run);
            // DRL's tree over the view's steps, built as `label_run` builds it.
            let proj = RunProjection::new(g, run, view);
            let mut tree = CompressedTree::new(g, &drl.pg, InstanceId(0));
            for s in run.steps().filter(|&s| proj.step_projected(s)) {
                tree.on_step(&drl.pg, run, s);
            }
            assert_one_path_per_instance(run, &tree, labels.iter());
        }
    }
}
