//! Adjacency-list directed multigraph with stable edge identities.

use crate::BitSet;

/// Dense node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Stable edge index: edges keep their insertion order, which lets callers
/// attach external identities (the paper's `(k, i)` production-graph pairs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EdgeId(pub u32);

/// A directed multigraph: parallel edges and self-loops are allowed (the
/// production graph needs both — Definition 15 explicitly keeps parallel
/// edges, and self-recursion `D → W₆` yields a self-loop).
#[derive(Clone, Default)]
pub struct DiGraph {
    out: Vec<Vec<(EdgeId, NodeId)>>,
    inc: Vec<Vec<(EdgeId, NodeId)>>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DiGraph {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_nodes(n: usize) -> Self {
        Self { out: vec![Vec::new(); n], inc: vec![Vec::new(); n], edges: Vec::new() }
    }

    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        assert!((from.0 as usize) < self.out.len(), "from out of range");
        assert!((to.0 as usize) < self.out.len(), "to out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push((from, to));
        self.out[from.0 as usize].push((id, to));
        self.inc[to.0 as usize].push((id, from));
        id
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Endpoints of an edge.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId) {
        self.edges[e.0 as usize]
    }

    pub fn out_edges(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.out[n.0 as usize]
    }

    pub fn in_edges(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        &self.inc[n.0 as usize]
    }

    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Kahn topological sort. Returns `None` if the graph has a cycle.
    /// Ties are broken by node index, making the order deterministic — the
    /// "fixed topological ordering" productions rely on (§4.1).
    pub fn topo_sort(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut indeg: Vec<usize> = vec![0; n];
        for &(_, to) in &self.edges {
            indeg[to.0 as usize] += 1;
        }
        // Min-heap by index for determinism; n is small, a sorted scan is fine.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<u32>> =
            (0..n as u32).filter(|&i| indeg[i as usize] == 0).map(std::cmp::Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            order.push(NodeId(i));
            for &(_, to) in &self.out[i as usize] {
                indeg[to.0 as usize] -= 1;
                if indeg[to.0 as usize] == 0 {
                    ready.push(std::cmp::Reverse(to.0));
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// True iff the graph contains a directed cycle (self-loops count).
    pub fn is_cyclic(&self) -> bool {
        self.topo_sort().is_none()
    }

    /// Set of nodes reachable from `start`, including `start` itself
    /// (footnote 4 of the paper: a vertex is reachable from itself).
    pub fn reachable_from(&self, start: NodeId) -> BitSet {
        let mut seen = BitSet::with_capacity(self.node_count());
        let mut stack = vec![start];
        seen.insert(start.0 as usize);
        while let Some(u) = stack.pop() {
            for &(_, v) in &self.out[u.0 as usize] {
                if seen.insert(v.0 as usize) {
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Full transitive closure as one reachability bitset per node
    /// (reflexive). O(V·E) — fine for the small graphs of this domain.
    pub fn transitive_closure(&self) -> Closure {
        let rows = self.nodes().map(|n| self.reachable_from(n)).collect();
        Closure { rows }
    }

    /// Strongly connected components (Tarjan), in reverse topological order
    /// of the condensation.
    pub fn sccs(&self) -> Vec<Vec<NodeId>> {
        crate::scc::tarjan(self)
    }
}

/// Precomputed reflexive transitive closure.
pub struct Closure {
    rows: Vec<BitSet>,
}

impl Closure {
    /// True iff `to` is reachable from `from` (reflexively).
    #[inline]
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.rows[from.0 as usize].contains(to.0 as usize)
    }
}

impl std::fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DiGraph(|V|={}, |E|={})", self.node_count(), self.edge_count())?;
        for (i, (from, to)) in self.edges.iter().enumerate() {
            writeln!(f, "  e{}: {} -> {}", i, from.0, to.0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        g
    }

    #[test]
    fn topo_sort_diamond() {
        assert_eq!(
            diamond().topo_sort().unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn topo_sort_detects_cycle_and_self_loop() {
        let mut g = diamond();
        g.add_edge(NodeId(3), NodeId(0));
        assert!(g.topo_sort().is_none());

        let mut g2 = DiGraph::with_nodes(1);
        g2.add_edge(NodeId(0), NodeId(0));
        assert!(g2.is_cyclic());
    }

    #[test]
    fn reachability_is_reflexive() {
        let g = diamond();
        let r = g.reachable_from(NodeId(3));
        assert!(r.contains(3));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn closure_matches_bfs() {
        let g = diamond();
        let c = g.transitive_closure();
        assert!(c.reaches(NodeId(0), NodeId(3)));
        assert!(!c.reaches(NodeId(1), NodeId(2)));
        assert!(c.reaches(NodeId(2), NodeId(2)));
    }

    #[test]
    fn parallel_edges_have_distinct_ids() {
        let mut g = DiGraph::with_nodes(2);
        let e1 = g.add_edge(NodeId(0), NodeId(1));
        let e2 = g.add_edge(NodeId(0), NodeId(1));
        assert_ne!(e1, e2);
        assert_eq!(g.edge(e1), g.edge(e2));
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
        assert_eq!(g.in_edges(NodeId(1)).len(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.topo_sort().unwrap(), Vec::<NodeId>::new());
        assert!(g.sccs().is_empty());
    }
}
