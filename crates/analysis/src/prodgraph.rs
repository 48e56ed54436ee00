//! The production graph `P(G)` (Definition 15) and the §4.1 preprocessing.
//!
//! One vertex per module; for each production `pₖ = M → W` and each position
//! `i` of `W`, one edge `M → W[i]` identified by the pair `(k, i)` (0-based
//! here; the paper counts from 1). For strictly linear-recursive grammars
//! the cycles are vertex-disjoint and enumerated once: `C(s)` lists the
//! cycle's edges in order, starting from a canonical first edge.

use wf_digraph::{vertex_disjoint_cycles, CycleOverlap, DiGraph, NodeId};
use wf_model::{Grammar, ModuleId, ProdId};

/// A production-graph cycle `C(s)`: `edges[j]` goes from `modules[j]` to
/// `modules[(j+1) % len]`.
#[derive(Clone, Debug)]
pub struct CycleInfo {
    /// `(k, i)` edge ids along the cycle.
    pub edges: Vec<(ProdId, u32)>,
    /// Source module of each edge.
    pub modules: Vec<ModuleId>,
}

impl CycleInfo {
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The edge at position `t + a`, wrapping around (the paper's
    /// `k_{a+l} = k_a` convention in Algorithm 1).
    #[inline]
    pub fn edge_at(&self, pos: usize) -> (ProdId, u32) {
        self.edges[pos % self.edges.len()]
    }
}

/// The preprocessed production graph: edge ids, reachability, and (for
/// strictly linear-recursive grammars) the cycle tables.
pub struct ProdGraph {
    graph: DiGraph,
    /// Dense edge index per `(k, i)`: `edge_ix[k][i]`.
    edge_ix: Vec<Vec<u32>>,
    /// Reverse map: dense edge index -> `(k, i)`.
    edge_ref: Vec<(ProdId, u32)>,
    /// Module-level transitive closure of `P(G)` (reflexive).
    closure: wf_digraph::Closure,
    /// Cycle tables, present iff all cycles are vertex-disjoint.
    cycles: Result<Vec<CycleInfo>, CycleOverlap>,
    /// For each module: `(s, j)` = cycle index and position within it.
    cycle_of: Vec<Option<(u16, u16)>>,
}

impl ProdGraph {
    pub fn new(grammar: &Grammar) -> Self {
        let active = vec![true; grammar.production_count()];
        Self::new_restricted(grammar, &active)
    }

    /// Production graph of a *view grammar* `G_Δ′`: only productions whose
    /// LHS the view expands contribute edges. The DRL baseline labels runs
    /// against this restricted graph (its labels are per-view); FVL always
    /// uses the full graph.
    pub fn new_restricted(grammar: &Grammar, active: &[bool]) -> Self {
        let mut graph = DiGraph::with_nodes(grammar.module_count());
        let mut edge_ix: Vec<Vec<u32>> = Vec::with_capacity(grammar.production_count());
        let mut edge_ref = Vec::new();
        for (k, p) in grammar.productions() {
            if !active[k.index()] {
                edge_ix.push(Vec::new());
                continue;
            }
            let mut row = Vec::with_capacity(p.rhs.node_count());
            for (i, &child) in p.rhs.nodes().iter().enumerate() {
                let e = graph.add_edge(NodeId(p.lhs.0), NodeId(child.0));
                row.push(e.0);
                edge_ref.push((k, i as u32));
            }
            edge_ix.push(row);
        }
        let closure = graph.transitive_closure();
        let cycles = vertex_disjoint_cycles(&graph).map(|raw| {
            raw.into_iter()
                .map(|c| CycleInfo {
                    edges: c.edges.iter().map(|e| edge_ref[e.0 as usize]).collect(),
                    modules: c.nodes.iter().map(|n| ModuleId(n.0)).collect(),
                })
                .collect::<Vec<CycleInfo>>()
        });
        let mut cycle_of = vec![None; grammar.module_count()];
        if let Ok(cycles) = &cycles {
            // Cycles are vertex-disjoint and run through composite modules
            // only, which `Grammar::new` bounds at 2^16: both indexes fit.
            let narrow = |x: usize| u16::try_from(x).expect("at most 2^16 composite modules");
            for (s, c) in cycles.iter().enumerate() {
                for (j, &m) in c.modules.iter().enumerate() {
                    cycle_of[m.index()] = Some((narrow(s), narrow(j)));
                }
            }
        }
        Self { graph, edge_ix, edge_ref, closure, cycles, cycle_of }
    }

    /// Module-level reachability in `P(G)` (reflexive).
    #[inline]
    pub fn reaches(&self, from: ModuleId, to: ModuleId) -> bool {
        self.closure.reaches(NodeId(from.0), NodeId(to.0))
    }

    /// Number of edges (= total RHS positions over all productions).
    pub fn edge_count(&self) -> usize {
        self.edge_ref.len()
    }

    /// Dense index of edge `(k, i)`.
    #[inline]
    pub fn edge_index(&self, k: ProdId, i: u32) -> u32 {
        self.edge_ix[k.index()][i as usize]
    }

    /// The `(k, i)` pair of a dense edge index.
    #[inline]
    pub fn edge_pair(&self, dense: u32) -> (ProdId, u32) {
        self.edge_ref[dense as usize]
    }

    /// Cycle tables, if all cycles are vertex-disjoint.
    pub fn cycles(&self) -> Result<&[CycleInfo], &CycleOverlap> {
        match &self.cycles {
            Ok(c) => Ok(c),
            Err(e) => Err(e),
        }
    }

    /// `(s, j)`: the cycle a module belongs to and its position in it.
    /// A module on no cycle (or in a non-strict grammar) yields `None`.
    /// Both are `u16`, the width of `wf_run::EdgeLabel::Rec`'s fields:
    /// every cycle runs through composite modules only, and
    /// [`Grammar::new`] admits at most 2^16 of those.
    #[inline]
    pub fn cycle_of(&self, m: ModuleId) -> Option<(u16, u16)> {
        self.cycle_of[m.index()]
    }

    /// True iff `m` lies on a production-graph cycle ("recursive module").
    pub fn is_recursive_module(&self, m: ModuleId) -> bool {
        self.cycle_of(m).is_some()
    }

    /// Number of vertex-disjoint cycles (0 when non-strict).
    pub fn cycle_count(&self) -> usize {
        self.cycles.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    /// Longest cycle length (1 for self-loops, 0 if acyclic/non-strict).
    pub fn max_cycle_len(&self) -> usize {
        self.cycles.as_ref().map(|c| c.iter().map(CycleInfo::len).max().unwrap_or(0)).unwrap_or(0)
    }

    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::{nonstrict_example, paper_example};

    #[test]
    fn paper_example_edge_ids_match_figure12() {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        // 8 productions with RHS sizes 6,3,2,2,4,2,1,2 = 22 edges
        // (Figure 12 draws exactly these pairs).
        assert_eq!(pg.edge_count(), 22);
        // Edge (1,5) of the paper = 0-based (p1, 4): S -> c.
        let dense = pg.edge_index(ProdId(0), 4);
        assert_eq!(pg.edge_pair(dense), (ProdId(0), 4));
    }

    #[test]
    fn paper_example_cycles_match_example12() {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        let cycles = pg.cycles().expect("running example is strictly linear");
        assert_eq!(cycles.len(), 2);
        // C(1) = {(2,2),(4,2)} 1-based = {(p2, pos 1), (p4, pos 1)}.
        assert_eq!(cycles[0].edges, vec![(ProdId(1), 1), (ProdId(3), 1)]);
        assert_eq!(cycles[0].modules, vec![ex.a_mod, ex.b_mod]);
        // C(2) = {(6,2)} = {(p6, pos 1)} — the D self-loop.
        assert_eq!(cycles[1].edges, vec![(ProdId(5), 1)]);
        assert_eq!(cycles[1].modules, vec![ex.d_mod]);
        // cycle_of positions.
        assert_eq!(pg.cycle_of(ex.a_mod), Some((0, 0)));
        assert_eq!(pg.cycle_of(ex.b_mod), Some((0, 1)));
        assert_eq!(pg.cycle_of(ex.d_mod), Some((1, 0)));
        assert_eq!(pg.cycle_of(ex.s), None);
        assert!(pg.is_recursive_module(ex.a_mod));
        assert!(!pg.is_recursive_module(ex.e_mod));
        assert_eq!(pg.cycle_count(), 2);
        assert_eq!(pg.max_cycle_len(), 2);
    }

    #[test]
    fn paper_example_reachability() {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        assert!(pg.reaches(ex.s, ex.f));
        assert!(pg.reaches(ex.a_mod, ex.a_mod)); // reflexive
        assert!(pg.reaches(ex.b_mod, ex.a_mod)); // around the cycle
        assert!(!pg.reaches(ex.c_mod, ex.s));
    }

    #[test]
    fn nonstrict_example_has_no_cycle_tables() {
        let spec = nonstrict_example();
        let pg = ProdGraph::new(&spec.grammar);
        assert!(pg.cycles().is_err());
        assert_eq!(pg.cycle_count(), 0);
        assert_eq!(pg.cycle_of(spec.grammar.start()), None);
    }

    #[test]
    fn cycle_edge_wraparound() {
        let c = CycleInfo {
            edges: vec![(ProdId(1), 1), (ProdId(3), 1)],
            modules: vec![ModuleId(1), ModuleId(2)],
        };
        assert_eq!(c.edge_at(0), (ProdId(1), 1));
        assert_eq!(c.edge_at(3), (ProdId(3), 1));
        assert_eq!(c.edge_at(4), (ProdId(1), 1));
    }
}
