//! The expanded port graph of a simple workflow — the ground truth for
//! every reachability statement in the paper.
//!
//! Given a simple workflow and a dependency matrix for each of its modules,
//! the port graph has one vertex per port, a *dependency* arc `input → output`
//! inside each instance for every pair in its matrix, and a *data* arc
//! `output → input` for every data edge. "Data item d₂ depends on d₁"
//! (w.r.t. a view) is reachability in this graph (§2.3). Only the
//! brute-force run oracle and the tests search it: the labels compute their
//! matrices with `wf-analysis`' forward sweep, so the oracle shares no
//! search code with what it checks.

use crate::deps::DepAssignment;
use crate::workflow::{InPortRef, OutPortRef, SimpleWorkflow};
use wf_digraph::{BitSet, DiGraph, NodeId};

/// A port of some instance in a simple workflow.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortRef {
    In(InPortRef),
    Out(OutPortRef),
}

/// Port graph with dense port indexing.
pub struct PortGraph {
    graph: DiGraph,
    /// Per node: base index of its input ports.
    in_base: Vec<u32>,
    /// Per node: base index of its output ports.
    out_base: Vec<u32>,
}

impl PortGraph {
    /// Builds the port graph of `w`, taking each instance's dependency
    /// matrix from `deps` (which must cover every module used by `w` —
    /// composites included, via a full assignment λ*).
    ///
    /// # Panics
    /// Panics if a module of `w` has no matrix in `deps`; callers are
    /// expected to have validated coverage (the safety checker does).
    pub fn build(w: &SimpleWorkflow, deps: &DepAssignment) -> Self {
        let mut in_base = Vec::with_capacity(w.node_count());
        let mut out_base = Vec::with_capacity(w.node_count());
        let mut next = 0u32;
        for &m in w.nodes() {
            let mat = deps
                .get(m)
                .unwrap_or_else(|| panic!("no dependency matrix for module {m} in port graph"));
            in_base.push(next);
            next += mat.rows() as u32;
            out_base.push(next);
            next += mat.cols() as u32;
        }
        let mut graph = DiGraph::with_nodes(next as usize);
        for (n, &m) in w.nodes().iter().enumerate() {
            let mat = deps.get(m).unwrap();
            for (i, o) in mat.iter_ones() {
                graph.add_edge(NodeId(in_base[n] + i as u32), NodeId(out_base[n] + o as u32));
            }
        }
        for e in w.edges() {
            graph.add_edge(
                NodeId(out_base[e.from.node.index()] + e.from.port as u32),
                NodeId(in_base[e.to.node.index()] + e.to.port as u32),
            );
        }
        Self { graph, in_base, out_base }
    }

    /// Dense index of an input port.
    #[inline]
    pub fn in_ix(&self, p: InPortRef) -> u32 {
        self.in_base[p.node.index()] + p.port as u32
    }

    /// Dense index of an output port.
    #[inline]
    pub fn out_ix(&self, p: OutPortRef) -> u32 {
        self.out_base[p.node.index()] + p.port as u32
    }

    #[inline]
    pub fn ix(&self, p: PortRef) -> u32 {
        match p {
            PortRef::In(q) => self.in_ix(q),
            PortRef::Out(q) => self.out_ix(q),
        }
    }

    pub fn port_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Ports reachable from `from` (reflexive), as a bitset over dense
    /// indices.
    pub fn reachable_from(&self, from: u32) -> BitSet {
        self.graph.reachable_from(NodeId(from))
    }

    /// Single reachability query (reflexive), BFS with early exit.
    pub fn reaches(&self, from: PortRef, to: PortRef) -> bool {
        let (s, t) = (self.ix(from), self.ix(to));
        if s == t {
            return true;
        }
        let mut seen = BitSet::with_capacity(self.port_count());
        seen.insert(s as usize);
        let mut stack = vec![NodeId(s)];
        while let Some(u) = stack.pop() {
            for &(_, v) in self.graph.out_edges(u) {
                if v.0 == t {
                    return true;
                }
                if seen.insert(v.0 as usize) {
                    stack.push(v);
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ModuleId;
    use crate::module::ModuleSig;
    use crate::workflow::{NodeIx, WorkflowBuilder};

    /// Two modules x(1 in, 2 out) -> y(2 in, 1 out); x passes input to both
    /// outputs, y's output depends only on its *second* input.
    fn setup() -> (SimpleWorkflow, DepAssignment) {
        let sigs = vec![ModuleSig::new("x", 1, 2), ModuleSig::new("y", 2, 1)];
        let mut b = WorkflowBuilder::new();
        let n0 = b.node(ModuleId(0));
        let n1 = b.node(ModuleId(1));
        b.edge((n0, 0), (n1, 0));
        b.edge((n0, 1), (n1, 1));
        let w = b.finish(&sigs).unwrap();
        let mut deps = DepAssignment::new();
        deps.set_pairs(ModuleId(0), &sigs[0], [(0, 0), (0, 1)]);
        deps.set_pairs(ModuleId(1), &sigs[1], [(1, 0), (0, 0)]);
        (w, deps)
    }

    #[test]
    fn data_and_dependency_arcs_compose() {
        let (w, deps) = setup();
        let pg = PortGraph::build(&w, &deps);
        let x_in = PortRef::In(InPortRef { node: NodeIx(0), port: 0 });
        let y_out = PortRef::Out(OutPortRef { node: NodeIx(1), port: 0 });
        assert!(pg.reaches(x_in, y_out));
    }

    #[test]
    fn fine_grained_blocking() {
        // Make y's output depend only on input 1; x's input still reaches it
        // through output 1 -> y.in1. But if x only feeds output 0, it cannot.
        let sigs = vec![ModuleSig::new("x", 1, 2), ModuleSig::new("y", 2, 1)];
        let mut b = WorkflowBuilder::new();
        let n0 = b.node(ModuleId(0));
        let n1 = b.node(ModuleId(1));
        b.edge((n0, 0), (n1, 0));
        b.edge((n0, 1), (n1, 1));
        let w = b.finish(&sigs).unwrap();
        let mut deps = DepAssignment::new();
        deps.set_pairs(ModuleId(0), &sigs[0], [(0, 0), (0, 1)]);
        deps.set_pairs(ModuleId(1), &sigs[1], [(1, 0)]);
        let pg = PortGraph::build(&w, &deps);
        assert!(pg.reaches(
            PortRef::In(InPortRef { node: NodeIx(0), port: 0 }),
            PortRef::Out(OutPortRef { node: NodeIx(1), port: 0 })
        ));
        // y's input 0 does not reach y's output (dep edge only from input 1).
        assert!(!pg.reaches(
            PortRef::In(InPortRef { node: NodeIx(1), port: 0 }),
            PortRef::Out(OutPortRef { node: NodeIx(1), port: 0 })
        ));
    }

    #[test]
    fn reachability_is_reflexive() {
        let (w, deps) = setup();
        let pg = PortGraph::build(&w, &deps);
        let p = PortRef::In(InPortRef { node: NodeIx(1), port: 1 });
        assert!(pg.reaches(p, p));
    }

    #[test]
    fn no_backward_reachability() {
        let (w, deps) = setup();
        let pg = PortGraph::build(&w, &deps);
        assert!(!pg.reaches(
            PortRef::Out(OutPortRef { node: NodeIx(1), port: 0 }),
            PortRef::In(InPortRef { node: NodeIx(0), port: 0 })
        ));
    }

    #[test]
    fn reachable_set_matches_single_queries() {
        let (w, deps) = setup();
        let pg = PortGraph::build(&w, &deps);
        let from = InPortRef { node: NodeIx(0), port: 0 };
        let set = pg.reachable_from(pg.in_ix(from));
        // Enumerate all ports and compare set membership with reaches().
        let ports = vec![
            PortRef::In(from),
            PortRef::Out(OutPortRef { node: NodeIx(0), port: 0 }),
            PortRef::Out(OutPortRef { node: NodeIx(0), port: 1 }),
            PortRef::In(InPortRef { node: NodeIx(1), port: 0 }),
            PortRef::In(InPortRef { node: NodeIx(1), port: 1 }),
            PortRef::Out(OutPortRef { node: NodeIx(1), port: 0 }),
        ];
        for &p in &ports {
            assert_eq!(set.contains(pg.ix(p) as usize), pg.reaches(PortRef::In(from), p), "{p:?}");
        }
        // x.in0 reaches everything in this tiny workflow.
        assert_eq!(set.len(), pg.port_count());
    }

    #[test]
    #[should_panic(expected = "no dependency matrix")]
    fn missing_matrix_panics() {
        let (w, _) = setup();
        PortGraph::build(&w, &DepAssignment::new());
    }
}
