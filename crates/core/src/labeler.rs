//! The dynamic run labeler (§4.2.3): assigns every data item its label the
//! moment it is produced, never revising earlier labels.

use crate::label::{DataLabel, PortLabel};
use wf_analysis::ProdGraph;
use wf_model::Grammar;
use wf_run::{CompressedTree, DataId, InstanceId, Run, StepId};

/// Labels one run online. Feed it every derivation step in order (or let
/// [`RunLabeler::catch_up`] replay an existing run); labels come out in data
/// item order and are immutable once issued.
///
/// Port labels share their paths: the labeler holds one path allocation per
/// module instance, which every port label on that instance references
/// ([`crate::PortLabel`]), plus the compressed tree itself.
pub struct RunLabeler {
    tree: CompressedTree,
    labels: Vec<DataLabel>,
    processed_steps: u32,
}

impl RunLabeler {
    /// Attaches to a freshly started run (no steps applied yet) and labels
    /// the start module's boundary items.
    pub fn start(grammar: &Grammar, pg: &ProdGraph, run: &Run) -> Self {
        let tree = CompressedTree::new(grammar, pg, InstanceId(0));
        let labels = boundary_labels(grammar, &tree);
        let mut this = Self { tree, labels, processed_steps: 0 };
        // Catch up if the run already has history.
        this.catch_up(pg, run);
        this
    }

    /// Replays any steps not yet seen (steps are processed exactly once and
    /// in order).
    pub fn catch_up(&mut self, pg: &ProdGraph, run: &Run) {
        while (self.processed_steps as usize) < run.step_count() {
            self.on_step(pg, run, StepId(self.processed_steps));
        }
    }

    /// Incorporates one derivation step: extends the compressed tree, then
    /// labels the step's new data items from their creation endpoints.
    pub fn on_step(&mut self, pg: &ProdGraph, run: &Run, step: StepId) {
        assert_eq!(step.0, self.processed_steps, "steps must be fed in order");
        self.tree.on_step(pg, run, step);
        debug_assert_eq!(run.step(step).items.start as usize, self.labels.len());
        self.labels.extend(step_labels(&self.tree, run, step));
        self.processed_steps += 1;
    }

    /// The label of a data item.
    #[inline]
    pub fn label(&self, d: DataId) -> &DataLabel {
        &self.labels[d.0 as usize]
    }

    pub fn labels(&self) -> &[DataLabel] {
        &self.labels
    }

    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    pub fn tree(&self) -> &CompressedTree {
        &self.tree
    }
}

/// The labels of the start module's boundary items, inputs first, from a
/// tree no step has extended yet: all of them share the root's path. FVL's
/// [`RunLabeler`] and the DRL baseline both label through this and
/// [`step_labels`].
pub fn boundary_labels(grammar: &Grammar, tree: &CompressedTree) -> Vec<DataLabel> {
    let root = tree.fresh_path(InstanceId(0)).expect("a tree without steps holds the root's path");
    let sig = grammar.sig(grammar.start());
    let inputs =
        (0..sig.inputs() as u8).map(|p| DataLabel::initial_input(PortLabel::new(root.clone(), p)));
    let outputs =
        (0..sig.outputs() as u8).map(|p| DataLabel::final_output(PortLabel::new(root.clone(), p)));
    inputs.chain(outputs).collect()
}

/// The labels of the items `step` created, in item order, from a tree that
/// has just applied `step`: each port label takes its instance's shared
/// path ([`CompressedTree::fresh_path`]), so labeling allocates nothing per
/// item.
pub fn step_labels<'a>(
    tree: &'a CompressedTree,
    run: &'a Run,
    step: StepId,
) -> impl Iterator<Item = DataLabel> + 'a {
    let port = |(inst, port): (InstanceId, u8)| {
        let path = tree.fresh_path(inst).expect("a step's items run between instances it created");
        PortLabel::new(path.clone(), port)
    };
    run.step(step).items.clone().map(move |d| {
        let item = run.item(DataId(d));
        DataLabel::intermediate(
            port(item.producer.expect("step items have producers")),
            port(item.consumer.expect("step items have consumers")),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::paper_example;
    use wf_model::ProdId;
    use wf_run::fixtures::figure3_run;
    use wf_run::EdgeLabel;

    #[test]
    fn example15_d21_label() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let (run, ids) = figure3_run(&ex);
        let labeler = RunLabeler::start(g, &pg, &run);
        assert_eq!(labeler.label_count(), run.item_count());

        // φr(d21) per Example 15 (0-based transcription):
        //   φr(o) = {(1,3),(1,1,5),(3,2),(5,1), port 1}
        //         = [Plain(p1,2), Rec(0,0,4), Plain(p3,1), Plain(p5,0)], port 0
        //   φr(i) = same prefix + [Plain(p5,1), Rec(1,0,0)], port 1
        let d21 = labeler.label(ids.d21);
        let o = d21.out.as_ref().unwrap();
        assert_eq!(
            o.path[..],
            [
                EdgeLabel::Plain { k: ProdId(0), i: 2 },
                EdgeLabel::Rec { s: 0, t: 0, i: 4 },
                EdgeLabel::Plain { k: ProdId(2), i: 1 },
                EdgeLabel::Plain { k: ProdId(4), i: 0 },
            ]
        );
        assert_eq!(o.port, 0);
        let i = d21.inp.as_ref().unwrap();
        assert_eq!(
            i.path[..],
            [
                EdgeLabel::Plain { k: ProdId(0), i: 2 },
                EdgeLabel::Rec { s: 0, t: 0, i: 4 },
                EdgeLabel::Plain { k: ProdId(2), i: 1 },
                EdgeLabel::Plain { k: ProdId(4), i: 1 },
                EdgeLabel::Rec { s: 1, t: 0, i: 0 },
            ]
        );
        assert_eq!(i.port, 1);
        // "The first three edge labels can be factored out."
        assert_eq!(o.to_ref().common_prefix_len(&i.to_ref()), 3);
    }

    #[test]
    fn boundary_items_labeled_before_any_step() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let run = wf_run::Run::start(g);
        let labeler = RunLabeler::start(g, &pg, &run);
        assert_eq!(labeler.label_count(), 5);
        assert!(labeler.label(DataId(0)).is_initial_input());
        assert!(labeler.label(DataId(4)).is_final_output());
        assert_eq!(labeler.label(DataId(1)).inp.as_ref().unwrap().port, 1);
    }

    #[test]
    fn labels_are_stable_across_later_steps() {
        // Definition 10: labels never change after assignment.
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let mut run = wf_run::Run::start(g);
        let mut labeler = RunLabeler::start(g, &pg, &run);
        let s = run.apply(g, InstanceId(0), ex.prods[0]).unwrap();
        labeler.on_step(&pg, &run, s);
        let snapshot: Vec<DataLabel> = labeler.labels().to_vec();
        // Expand more.
        let a = run.nth_open_of(ex.a_mod, 0).unwrap();
        let s = run.apply(g, a, ex.prods[1]).unwrap();
        labeler.on_step(&pg, &run, s);
        for (i, old) in snapshot.iter().enumerate() {
            assert_eq!(labeler.label(DataId(i as u32)), old);
        }
    }

    /// A producer labels each step as it derives it; a late attacher
    /// replays the finished run. Both must issue the same labels.
    #[test]
    fn catch_up_equals_online() {
        let ex = paper_example();
        let bio = wf_workloads::bioaid(3);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let bio_pg = ProdGraph::new(&bio.spec.grammar);
        let bio_run = wf_workloads::sample::sample_run(&bio, &bio_pg, &mut rng, 2_000).1;
        for (g, full) in [(&ex.spec.grammar, figure3_run(&ex).0), (&bio.spec.grammar, bio_run)] {
            let pg = ProdGraph::new(g);
            let mut run = wf_run::Run::start(g);
            let mut online = RunLabeler::start(g, &pg, &run);
            for s in full.steps() {
                let st = full.step(s);
                let applied = run.apply(g, st.instance, st.prod).unwrap();
                online.on_step(&pg, &run, applied);
            }
            let replayed = RunLabeler::start(g, &pg, &full);
            assert_eq!(online.label_count(), full.item_count());
            assert_eq!(online.labels(), replayed.labels());
        }
    }
}
