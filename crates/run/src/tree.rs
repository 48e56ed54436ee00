//! The compressed parse tree (Definitions 17–18) and its dynamic,
//! top-down construction (§4.2.3).
//!
//! The *basic* parse tree nests one node per production application, so its
//! depth grows with the run. The *compressed* tree flattens every unfolded
//! recursion: the chain `A:1 ⊃ B:1 ⊃ A:2 ⊃ B:2 ⊃ A:3` of nested expansions
//! becomes five ordered children of one **recursive node**, labeled
//! `(s, t, i)` — cycle `s` of the production graph, unfolded starting at its
//! `t`-th edge, chain position `i`. Every other parent→child edge keeps its
//! production-graph identity `(k, i)`. Because the grammar is strictly
//! linear-recursive, each module belongs to at most one cycle, the tree is
//! well-defined, and its depth is bounded by `2·|Δ|` (Lemma 4) — which is
//! why port labels (paths in this tree) are `O(log n)` bits.

use crate::run::{InstanceId, Run, StepId};
use std::convert::Infallible;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_model::{Grammar, ProdId};

/// A parent→child edge label in the compressed parse tree (§4.2.2).
/// The paper's 1-based `(k, i)` / `(s, t, i)` triples are 0-based here.
///
/// 16 bytes. Only the chain position `i` grows with the run; `s` and `t`
/// index the production graph's cycle tables, whose cycles run through
/// composite modules only, and [`Grammar::new`] admits at most 2^16 of
/// those, so every cycle index and offset fits in a `u16`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeLabel {
    /// Child `i` of a production application `pₖ` (a production-graph edge).
    Plain { k: ProdId, i: u32 },
    /// Chain position `i` under a recursive node denoting cycle `s`
    /// unfolded from its `t`-th edge.
    Rec { s: u16, t: u16, i: u64 },
}

/// A placeholder edge: the root's parent edge, which nothing reads, and a
/// path slot before its edge is written.
const NO_EDGE: EdgeLabel = EdgeLabel::Rec { s: 0, t: 0, i: 0 };

/// A port-label path of `len` edges in one allocation, whose edges (root
/// first) `fill` writes in place. Port labels share their paths as
/// `Arc<[EdgeLabel]>`, and collecting a `Vec` into an `Arc` would allocate
/// twice. `len` sizes the allocation, so a decoder bounds it by the bits it
/// has left first.
pub fn try_path<E>(
    len: usize,
    fill: impl FnOnce(&mut [EdgeLabel]) -> Result<(), E>,
) -> Result<Arc<[EdgeLabel]>, E> {
    // Placeholders: `fill` overwrites each one, or the path is dropped.
    let mut path: Arc<[EdgeLabel]> = std::iter::repeat_n(NO_EDGE, len).collect();
    fill(Arc::get_mut(&mut path).expect("a path just allocated has one owner"))?;
    Ok(path)
}

/// Node index within a [`CompressedTree`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TreeNodeId(pub u32);

/// One tree node in 24 bytes: the edge from its parent, that parent, and
/// its depth, which is its path length. The root has depth 0, and its
/// `edge` and `parent` are never read. A recursive node keeps no `(s, t)`
/// of its own: its chain children's `Rec` edges carry them.
#[derive(Clone, Copy, Debug)]
struct Node {
    edge: EdgeLabel,
    parent: u32,
    depth: u32,
}

// Every node and every path edge of a run costs these sizes; the store's
// trie nodes `(u32, EdgeLabel)` share the edge's.
const _: () = {
    assert!(std::mem::size_of::<EdgeLabel>() == 16);
    assert!(std::mem::size_of::<Node>() == 24);
};

/// A compressed parse tree built incrementally as a derivation unfolds.
///
/// The same builder serves FVL (over the full run) and DRL (over the
/// view-projected run): the caller simply skips invisible steps and passes
/// the production graph of the grammar it labels against. It also hands
/// both labelers their port-label paths ([`CompressedTree::fresh_path`]).
/// Each node takes 24 bytes: its parent edge, its parent and its depth.
#[derive(Clone, Debug)]
pub struct CompressedTree {
    nodes: Vec<Node>,
    /// Dense map instance → module node.
    node_of: Vec<Option<TreeNodeId>>,
    root: TreeNodeId,
    /// The paths of the instances the latest step created, in instance
    /// order from `fresh_from`; before any step, the root instance's.
    fresh: Vec<Arc<[EdgeLabel]>>,
    fresh_from: u32,
}

impl CompressedTree {
    /// Creates the tree for a fresh run: the start module's node, wrapped in
    /// a recursive root if the start module is itself recursive (§4.2.3,
    /// initialization case).
    pub fn new(grammar: &Grammar, pg: &ProdGraph, root_instance: InstanceId) -> Self {
        let root = TreeNodeId(0);
        let mut nodes = vec![Node { edge: NO_EDGE, parent: root.0, depth: 0 }];
        if let Some((s, t)) = pg.cycle_of(grammar.start()) {
            nodes.push(Node { edge: EdgeLabel::Rec { s, t, i: 0 }, parent: root.0, depth: 1 });
        }
        let module_node = TreeNodeId(nodes.len() as u32 - 1);
        let mut node_of = vec![None; root_instance.0 as usize + 1];
        node_of[root_instance.0 as usize] = Some(module_node);
        let mut tree =
            Self { nodes, node_of, root, fresh: Vec::new(), fresh_from: root_instance.0 };
        tree.fresh.push(tree.shared_path(module_node));
        tree
    }

    /// Incorporates one production application (§4.2.3's three insertion
    /// rules), and builds the path of every instance it creates
    /// ([`CompressedTree::fresh_path`]). The expanded instance must already
    /// have a node.
    pub fn on_step(&mut self, pg: &ProdGraph, run: &Run, step: StepId) {
        let st = run.step(step).clone();
        let u = self.node_of(InstanceId(st.instance.0)).expect("expanded instance not in tree");
        let k = st.prod;
        let m_u = run.instance(st.instance).module;
        let u_cycle = pg.cycle_of(m_u);
        self.fresh.clear();
        self.fresh_from = st.children.start;
        for (pos, child) in st.children.clone().enumerate() {
            let child_inst = InstanceId(child);
            let m_i = run.instance(child_inst).module;
            let i = pos as u32;
            let node = match pg.cycle_of(m_i) {
                // Rule 1: non-recursive child hangs off u directly.
                None => self.push_module(child_inst, u, EdgeLabel::Plain { k, i }),
                Some((s_i, t_i)) => {
                    if u_cycle.is_some_and(|(s_u, _)| s_u == s_i) {
                        // Rule 2a: continuing the recursion — next sibling of
                        // u under its recursive parent. Cycles are
                        // vertex-disjoint and each instance expands once, so
                        // only the chain's newest member, u, can yield the
                        // next one: its position is u's own plus one.
                        let Node { edge, parent: r, .. } = self.nodes[u.0 as usize];
                        let EdgeLabel::Rec { s, t, i: at } = edge else {
                            unreachable!("a recursive module node hangs off a chain edge")
                        };
                        debug_assert_eq!(s, s_i);
                        // The chain edge must be the cycle's next edge.
                        debug_assert_eq!(
                            pg.cycles().expect("a strict grammar has cycle tables")[s as usize]
                                .edge_at(t as usize + at as usize),
                            (k, i),
                            "chain extension must follow the cycle's edge order"
                        );
                        self.push_module(
                            child_inst,
                            TreeNodeId(r),
                            EdgeLabel::Rec { s, t, i: at + 1 },
                        )
                    } else {
                        // Rule 2b: entering a new recursion — fresh recursive
                        // node under u, child at chain position 0.
                        let r = self.push_node(u, EdgeLabel::Plain { k, i });
                        self.push_module(child_inst, r, EdgeLabel::Rec { s: s_i, t: t_i, i: 0 })
                    }
                }
            };
            self.fresh.push(self.shared_path(node));
        }
    }

    fn push_node(&mut self, parent: TreeNodeId, edge: EdgeLabel) -> TreeNodeId {
        let depth = self.nodes[parent.0 as usize].depth + 1;
        self.nodes.push(Node { edge, parent: parent.0, depth });
        TreeNodeId(self.nodes.len() as u32 - 1)
    }

    fn push_module(&mut self, inst: InstanceId, parent: TreeNodeId, edge: EdgeLabel) -> TreeNodeId {
        let id = self.push_node(parent, edge);
        if inst.0 as usize >= self.node_of.len() {
            self.node_of.resize(inst.0 as usize + 1, None);
        }
        self.node_of[inst.0 as usize] = Some(id);
        id
    }

    /// The module node of an instance, if it is in this tree (view-projected
    /// trees omit invisible instances).
    #[inline]
    pub fn node_of(&self, inst: InstanceId) -> Option<TreeNodeId> {
        self.node_of.get(inst.0 as usize).copied().flatten()
    }

    /// The path of `inst` (§4.2.2), built once when the step that created
    /// `inst` was applied: every port label on `inst` holds this one
    /// immutable allocation, and cloning it is a refcount bump. Only the
    /// latest step's new instances are kept (before any step, the root),
    /// because every item a step creates runs between two instances that
    /// step created. `None` for any other instance;
    /// [`CompressedTree::path_of`] walks any node.
    #[inline]
    pub fn fresh_path(&self, inst: InstanceId) -> Option<&Arc<[EdgeLabel]>> {
        self.fresh.get(inst.0.checked_sub(self.fresh_from)? as usize)
    }

    /// [`CompressedTree::path_of`] in one shared allocation: a node's depth
    /// is its path length, so the edges are written leaf first in place.
    fn shared_path(&self, node: TreeNodeId) -> Arc<[EdgeLabel]> {
        let len = self.nodes[node.0 as usize].depth as usize;
        let Ok(path) = try_path::<Infallible>(len, |slots| {
            let mut cur = node.0;
            for slot in slots.iter_mut().rev() {
                let Node { edge, parent, .. } = self.nodes[cur as usize];
                *slot = edge;
                cur = parent;
            }
            Ok(())
        });
        path
    }

    /// Edge labels from the root down to `node` (the port-label path of
    /// §4.2.2).
    pub fn path_of(&self, node: TreeNodeId) -> Vec<EdgeLabel> {
        self.shared_path(node).to_vec()
    }

    /// Maximum node depth — bounded by `2·|Δ|` + 1 (Lemma 4; +1 for a
    /// recursive root).
    pub fn depth(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn root(&self) -> TreeNodeId {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use wf_model::fixtures::paper_example;

    /// Drives the Figure 3 derivation prefix and checks the tree against
    /// Figure 14.
    #[test]
    fn figure14_structure() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let mut run = Run::start(g);
        let mut tree = CompressedTree::new(g, &pg, InstanceId(0));
        let drive = |run: &mut Run, tree: &mut CompressedTree, inst: u32, prod: usize| {
            let s = run.apply(g, InstanceId(inst), ex.prods[prod]).unwrap();
            tree.on_step(&pg, run, s);
        };
        // p1 @ S:1 -> children a:1 b:1 A:1 C:1 c:1 d:1 (ids 1..=6).
        drive(&mut run, &mut tree, 0, 0);
        // p2 @ A:1 (id 3) -> d:2 B:1 C:2 (ids 7,8,9).
        drive(&mut run, &mut tree, 3, 1);
        // p4 @ B:1 (id 8) -> e:1 A:2 (ids 10,11).
        drive(&mut run, &mut tree, 8, 3);
        // p2 @ A:2 (id 11) -> d:3 B:2 C:3 (ids 12,13,14).
        drive(&mut run, &mut tree, 11, 1);
        // p4 @ B:2 (id 13) -> e:2 A:3 (ids 15,16).
        drive(&mut run, &mut tree, 13, 3);
        // p3 @ A:3 (id 16) -> e:3 C:4 (ids 17,18).
        drive(&mut run, &mut tree, 16, 2);
        // p5 @ C:4 (id 18) -> b:2 D:1 E:1 c:2 (ids 19..=22).
        drive(&mut run, &mut tree, 18, 4);
        // p6 @ D:1 (id 20) -> f:1 D:2 (ids 23,24).
        drive(&mut run, &mut tree, 20, 5);
        // p6 @ D:2 (id 24) -> f:2 D:3 (ids 25,26).
        drive(&mut run, &mut tree, 24, 5);
        // p7 @ D:3 (id 26) -> f:3 (id 27).
        drive(&mut run, &mut tree, 26, 6);
        // p8 @ E:1 (id 21) -> f:4 c:3 (ids 28,29).
        drive(&mut run, &mut tree, 21, 7);

        // A:1, B:1, A:2, B:2, A:3 are flattened under one recursive node:
        // their paths all have the same length and share the parent.
        let path_a1 = tree.path_of(tree.node_of(InstanceId(3)).unwrap());
        let path_a3 = tree.path_of(tree.node_of(InstanceId(16)).unwrap());
        assert_eq!(path_a1.len(), 2); // (1,3)-ish plain edge + rec edge
        assert_eq!(path_a3.len(), 2);
        // Example 15's path for A:3: {(1,3), (1,1,5)} 1-based =
        // Plain{p1, 2}, Rec{s:0, t:0, i:4} 0-based.
        assert_eq!(path_a3[0], EdgeLabel::Plain { k: ex.prods[0], i: 2 });
        assert_eq!(path_a3[1], EdgeLabel::Rec { s: 0, t: 0, i: 4 });
        // b:2 under C:4 under A:3: path {(1,3),(1,1,5),(3,2),(5,1)} 1-based.
        let path_b2 = tree.path_of(tree.node_of(InstanceId(19)).unwrap());
        assert_eq!(
            path_b2,
            vec![
                EdgeLabel::Plain { k: ex.prods[0], i: 2 },
                EdgeLabel::Rec { s: 0, t: 0, i: 4 },
                EdgeLabel::Plain { k: ex.prods[2], i: 1 },
                EdgeLabel::Plain { k: ex.prods[4], i: 0 },
            ]
        );
        // The D-chain D:1 D:2 D:3 flattens under a second recursive node
        // with labels (2,1,1..3) 1-based = Rec{s:1,t:0,i:0..2}.
        let path_d1 = tree.path_of(tree.node_of(InstanceId(20)).unwrap());
        let path_d3 = tree.path_of(tree.node_of(InstanceId(26)).unwrap());
        assert_eq!(path_d1.last(), Some(&EdgeLabel::Rec { s: 1, t: 0, i: 0 }));
        assert_eq!(path_d3.last(), Some(&EdgeLabel::Rec { s: 1, t: 0, i: 2 }));
        assert_eq!(path_d1.len(), path_d3.len());
        // f:4 and c:3 under E:1 via plain edges (8,1),(8,2) 1-based.
        let path_f4 = tree.path_of(tree.node_of(InstanceId(28)).unwrap());
        assert_eq!(path_f4.last(), Some(&EdgeLabel::Plain { k: ex.prods[7], i: 0 }));
    }

    /// Lemma 4: tree depth never exceeds 2·|Δ| (+1 for a recursive root).
    #[test]
    fn depth_bound_on_deep_recursion() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let mut run = Run::start(g);
        let mut tree = CompressedTree::new(g, &pg, InstanceId(0));
        let s = run.apply(g, InstanceId(0), ex.prods[0]).unwrap();
        tree.on_step(&pg, &run, s);
        // Unroll the A/B recursion 50 times.
        for _ in 0..50 {
            let a = run.nth_open_of(ex.a_mod, 0).unwrap();
            let s = run.apply(g, a, ex.prods[1]).unwrap();
            tree.on_step(&pg, &run, s);
            let b = run.nth_open_of(ex.b_mod, 0).unwrap();
            let s = run.apply(g, b, ex.prods[3]).unwrap();
            tree.on_step(&pg, &run, s);
        }
        let n_composite = g.composite_modules().count() as u32;
        assert!(tree.depth() <= 2 * n_composite + 1, "depth {}", tree.depth());
        // The last A sits at chain index 100.
        let a_last = run.nth_open_of(ex.a_mod, 0).unwrap();
        let path = tree.path_of(tree.node_of(a_last).unwrap());
        assert_eq!(path.last(), Some(&EdgeLabel::Rec { s: 0, t: 0, i: 100 }));
    }
}
