//! Per-production reachability: the `I`, `O`, `Z` functions of §4.3 and
//! the λ\* a production induces (Lemma 1), all written by one forward
//! [`sweep`].
//!
//! For a production `pₖ = M →f W` and positions `i`, `j` of `W` (0-based):
//!
//! * `I(k,i)[x][y]` — input `y` of instance `i` is reachable from `M`'s
//!   input `x` (i.e. from the initial input `f(x)` of `W`) in `W^λ*`;
//! * `O(k,i)[x][y]` — `M`'s output `x` (the final output `f(x)`) is
//!   reachable **from** output `y` of instance `i` (the paper's "reversed"
//!   orientation);
//! * `Z(k,i,j)[x][y]` — input `y` of instance `j` is reachable from output
//!   `x` of instance `i`; empty whenever `i ≥ j` (topological order).
//!
//! A sweep starts at one port and visits `W`'s nodes in index order,
//! keeping one `u64` input mask and one `u64` output mask per node
//! ([`Reached`]) in a buffer the caller owns. One pass is exact because
//! [`wf_model::SimpleWorkflow::new`] admits only edges that run forward, so
//! a node's inputs are final once every earlier node is done; and one word
//! per side holds all of a node's ports because [`Grammar::new`] rejects
//! right-hand-side modules with more than 64 inputs or outputs. λ is read
//! straight from the assignment: no port graph is built and nothing is
//! allocated once the buffer has grown.
//!
//! [`search_into`] writes one matrix into a reused buffer: Space-Efficient
//! decode runs it on every access, so it searches the specification at
//! query time (§6.3) without allocating, and Default and Query-Efficient
//! compilation run it once per slot ([`production_matrices`]).

use wf_boolmat::BoolMat;
use wf_model::{
    DepAssignment, Grammar, InPortRef, NodeIx, OutPortRef, PortRef, ProdId, SimpleWorkflow,
};

/// The ports of one node a [`sweep`] reached: bit `p` of `ins` (`outs`) is
/// the node's input (output) port `p`.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Reached {
    pub ins: u64,
    pub outs: u64,
}

/// Forward reachability from `from` inside `w` under `lambda` (which must
/// cover every module of `w`). Afterwards `reached[n]` holds the ports of
/// node `n` that `from` reaches (reflexively) for every `n ≤ until`; later
/// nodes are not visited, and `reached` has `until + 1` entries.
pub fn sweep(
    w: &SimpleWorkflow,
    lambda: &DepAssignment,
    from: PortRef,
    until: usize,
    reached: &mut Vec<Reached>,
) {
    reached.clear();
    reached.resize(until + 1, Reached::default());
    let (start, seed) = match from {
        PortRef::In(p) => (p.node.index(), Reached { ins: 1 << p.port, outs: 0 }),
        PortRef::Out(p) => (p.node.index(), Reached { ins: 0, outs: 1 << p.port }),
    };
    if start > until {
        return;
    }
    reached[start] = seed;
    for n in start..=until {
        let Reached { ins, mut outs } = reached[n];
        if ins != 0 {
            let dep = lambda.get(w.nodes()[n]).expect("λ covers every module of the workflow");
            outs = bits(ins).fold(outs, |acc, r| acc | dep.row_bits(r));
            reached[n].outs = outs;
        }
        for y in bits(outs) {
            let port = OutPortRef { node: NodeIx(n as u32), port: y as u8 };
            if let Some(e) = w.edge_out_of(port) {
                if let Some(next) = reached.get_mut(e.to.node.index()) {
                    next.ins |= 1 << e.to.port;
                }
            }
        }
    }
}

/// Indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 64).then_some(bit)
    })
}

/// True iff `reached` holds output port `p`.
fn reaches_out(reached: &[Reached], p: OutPortRef) -> bool {
    reached[p.node.index()].outs >> p.port & 1 == 1
}

/// The input→output matrix `w` induces between the boundary ports
/// `inputs` (rows) and `outputs` (columns) under `lambda`: for a
/// production's port maps, the λ\*(M) of Lemma 1.
pub fn lhs_matrix(
    w: &SimpleWorkflow,
    inputs: &[InPortRef],
    outputs: &[OutPortRef],
    lambda: &DepAssignment,
) -> BoolMat {
    let mut mat = BoolMat::zeros(inputs.len(), outputs.len());
    let mut reached = Vec::with_capacity(w.node_count());
    for (x, &ip) in inputs.iter().enumerate() {
        sweep(w, lambda, PortRef::In(ip), w.node_count() - 1, &mut reached);
        for (y, &op) in outputs.iter().enumerate() {
            mat.set(x, y, reaches_out(&reached, op));
        }
    }
    mat
}

/// One matrix of a production: `I(k, i)`, `O(k, i)` or `Z(k, i, j)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    I(usize),
    O(usize),
    Z(usize, usize),
}

/// All `I`/`O`/`Z` matrices of one production.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProductionMatrices {
    /// `i_mats[i]` = `I(k, i)`.
    pub i_mats: Vec<BoolMat>,
    /// `o_mats[i]` = `O(k, i)`.
    pub o_mats: Vec<BoolMat>,
    /// `z_mats[i][j]` = `Z(k, i, j)`; all-false when `i ≥ j`.
    pub z_mats: Vec<Vec<BoolMat>>,
}

impl ProductionMatrices {
    /// The stored matrix of `slot`.
    #[inline]
    pub fn get(&self, slot: Slot) -> &BoolMat {
        match slot {
            Slot::I(i) => &self.i_mats[i],
            Slot::O(i) => &self.o_mats[i],
            Slot::Z(i, j) => &self.z_mats[i][j],
        }
    }

    /// Total payload bits (for the Figure 19 space accounting).
    pub fn payload_bits(&self) -> usize {
        self.i_mats.iter().map(BoolMat::payload_bits).sum::<usize>()
            + self.o_mats.iter().map(BoolMat::payload_bits).sum::<usize>()
            + self
                .z_mats
                .iter()
                .flat_map(|row| row.iter().map(BoolMat::payload_bits))
                .sum::<usize>()
    }
}

/// Computes the matrices of production `k` under `lambda` (λ\* — it must
/// cover every module instantiated by the production's RHS): each one the
/// [`search_into`] a Space-Efficient decode runs for its slot at query
/// time, so stored and searched matrices come from one code path.
pub fn production_matrices(
    grammar: &Grammar,
    k: ProdId,
    lambda: &DepAssignment,
) -> ProductionMatrices {
    let n = grammar.production(k).rhs.node_count();
    let (mut reached, mut found) = (Vec::with_capacity(n), BoolMat::default());
    // Cloning the reused buffer stores each matrix at its exact row count.
    let mut search = |slot| {
        search_into(grammar, k, slot, lambda, &mut reached, &mut found);
        found.clone()
    };
    let i_mats = (0..n).map(|i| search(Slot::I(i))).collect();
    let o_mats = (0..n).map(|i| search(Slot::O(i))).collect();
    let z_mats = (0..n).map(|i| (0..n).map(|j| search(Slot::Z(i, j))).collect()).collect();
    ProductionMatrices { i_mats, o_mats, z_mats }
}

/// Writes the one matrix `slot` of production `k` under `lambda` into
/// `out`, by the sweeps that decide it: one per LHS input for `I(k, i)`,
/// one per output of instance `i` for `O(k, i)` and `Z(k, i, j)`. This is
/// what Space-Efficient decode runs on every access (§6.3); it allocates
/// nothing once `reached` and `out` have grown.
pub fn search_into(
    grammar: &Grammar,
    k: ProdId,
    slot: Slot,
    lambda: &DepAssignment,
    reached: &mut Vec<Reached>,
    out: &mut BoolMat,
) {
    let p = grammar.production(k);
    let w = &p.rhs;
    let sig = |i: usize| grammar.sig(w.nodes()[i]);
    let lhs_sig = grammar.sig(p.lhs);
    match slot {
        Slot::I(i) => {
            out.reset(lhs_sig.inputs(), sig(i).inputs());
            for (x, &ip) in p.input_map.iter().enumerate() {
                sweep(w, lambda, PortRef::In(ip), i, reached);
                out.set_row_bits(x, reached[i].ins);
            }
        }
        Slot::O(i) => {
            out.reset(lhs_sig.outputs(), sig(i).outputs());
            for y in 0..sig(i).outputs() {
                let port = OutPortRef { node: NodeIx(i as u32), port: y as u8 };
                sweep(w, lambda, PortRef::Out(port), w.node_count() - 1, reached);
                for (x, &op) in p.output_map.iter().enumerate() {
                    out.set(x, y, reaches_out(reached, op));
                }
            }
        }
        Slot::Z(i, j) => {
            out.reset(sig(i).outputs(), sig(j).inputs());
            if i >= j {
                return; // topological order: always empty
            }
            for y in 0..sig(i).outputs() {
                let port = OutPortRef { node: NodeIx(i as u32), port: y as u8 };
                sweep(w, lambda, PortRef::Out(port), j, reached);
                out.set_row_bits(y, reached[j].ins);
            }
        }
    }
}

/// Reflexive-transitive *instance-level* closure of a production's RHS:
/// `closure[i][j]` iff node `j` is reachable from node `i` through data
/// edges. Depends only on the grammar (not on any λ); this is the entire
/// "index" the black-box structural decode needs (Matrix-Free FVL and DRL,
/// §6.4).
pub fn rhs_closure(grammar: &Grammar, k: ProdId) -> BoolMat {
    let w = &grammar.production(k).rhs;
    let n = w.node_count();
    let mut mat = BoolMat::identity(n);
    // Nodes are listed topologically: processing sources of edges in
    // reverse topological order, one sweep computes the closure.
    for i in (0..n).rev() {
        let mut acc = mat.row_bits(i);
        for e in w.edges() {
            if e.from.node.index() == i {
                acc |= mat.row_bits(e.to.node.index());
            }
        }
        mat.set_row_bits(i, acc);
    }
    mat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::safety::full_assignment_default;
    use wf_model::fixtures::paper_example;

    /// Example 16's function shapes on the running example (values are
    /// specific to this transcription's wiring; the *shapes* and the
    /// trivially-checkable entries are asserted).
    #[test]
    fn running_example_matrices() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let lambda = full_assignment_default(&ex.spec).unwrap();
        let m = production_matrices(g, ex.prods[0], &lambda);

        // I(1,5) of the paper = i_mats[4] here (production p1, module c):
        // rows = inputs of S (2), cols = inputs of c (3).
        assert_eq!(m.i_mats[4].rows(), 2);
        assert_eq!(m.i_mats[4].cols(), 3);
        // S.in0 reaches c.in0 (through A); S.in1 does not reach c.in0.
        assert!(m.i_mats[4].get(0, 0));
        assert!(!m.i_mats[4].get(1, 0));

        // O(1,2) = o_mats[1] (module b): rows = outputs of S (3), cols = 2.
        assert_eq!(m.o_mats[1].rows(), 3);
        assert_eq!(m.o_mats[1].cols(), 2);
        // S's first output (c.out1) is reachable from both b outputs; the d
        // outputs are not.
        assert!(m.o_mats[1].get(0, 0));
        assert!(m.o_mats[1].get(0, 1));
        assert!(!m.o_mats[1].get(1, 0));
        assert!(!m.o_mats[1].get(2, 1));

        // Z(1,2,5) = z_mats[1][4] (b -> c): 2x3; b reaches c's inputs 1 and
        // 2 through C, but not c.in0 (fed only by A).
        assert_eq!(m.z_mats[1][4].rows(), 2);
        assert_eq!(m.z_mats[1][4].cols(), 3);
        assert!(!m.z_mats[1][4].get(0, 0));
        assert!(m.z_mats[1][4].get(0, 1));
        assert!(m.z_mats[1][4].get(0, 2));

        // Z is empty for i >= j.
        assert!(m.z_mats[4][1].is_empty());
        assert!(m.z_mats[2][2].is_empty());
    }

    /// Identity sanity: I(k, i) for a node whose inputs *are* initial inputs
    /// contains the identity-like mapping.
    #[test]
    fn initial_input_positions_are_reflexively_reachable() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let lambda = full_assignment_default(&ex.spec).unwrap();
        // p3 = A -> (e, C): A.in0 ↦ e.in0, A.in1 ↦ C.in1.
        let m = production_matrices(g, ex.prods[2], &lambda);
        assert!(m.i_mats[0].get(0, 0)); // A.in0 reaches e.in0 (it *is* it)
        assert!(m.i_mats[1].get(1, 1)); // A.in1 reaches C.in1
        assert!(!m.i_mats[0].get(1, 0)); // A.in1 does not reach e.in0
    }

    /// The composed matrices agree with λ*: multiplying I up to a node and
    /// its λ* and O back down can never produce a dependency λ*(M) lacks.
    #[test]
    fn ioz_consistent_with_full_assignment() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let lambda = full_assignment_default(&ex.spec).unwrap();
        for (k, p) in g.productions() {
            let m = production_matrices(g, k, &lambda);
            let lhs = lambda.get(p.lhs).unwrap();
            for (i, &child) in p.rhs.nodes().iter().enumerate() {
                let child_mat = lambda.get(child).unwrap();
                // I(k,i) ; λ*(child) ; O(k,i)ᵀ ⊆ λ*(lhs)
                let through = m.i_mats[i].matmul(child_mat).matmul(&m.o_mats[i].transpose());
                assert!(
                    through.is_subset_of(lhs),
                    "production {k}: path through child {i} exceeds λ*"
                );
            }
        }
    }
}
