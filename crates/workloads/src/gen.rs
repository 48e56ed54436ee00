//! Shared machinery for generating *guaranteed-safe* random specifications.
//!
//! Safety (Definition 13) constrains modules with multiple productions: all
//! of them must induce the same λ\*. Random dependency assignments would
//! almost never satisfy this, so the generators build recursion in a shape
//! that is safe *by construction*:
//!
//! * every composite module has exactly one **base** production (random
//!   workflow) — a single production imposes no consistency constraint;
//! * recursive productions wrap the cycle successor between two **identity
//!   adapters** (`pre`/`post` atomics wired port-to-port with identity λ),
//!   so the induced matrix is λ\*(successor) verbatim — consistent for any
//!   base assignment;
//! * where a module needs a second non-recursive production (the BioAID
//!   production count), it gets a **mirror**: a single atomic whose λ is
//!   *set to* the module's λ\* computed from its base production.
//!
//! Coarse-grained variants (single-source/single-sink, black-box λ) use
//! complete-λ adapters instead; completeness of composite λ\* (footnote 3)
//! makes those consistent too.

use rand::Rng;
use wf_boolmat::BoolMat;

/// Raw wiring: `((from_node, out_port), (to_node, in_port))` pairs over
/// positions in a node list (the [`wf_model::GrammarBuilder`] convention).
pub type RawEdges = [((usize, u8), (usize, u8))];
use wf_model::{
    DepAssignment, GrammarBuilder, InPortRef, ModuleId, ModuleSig, OutPortRef, SimpleWorkflow,
};

/// Tunables shared by the generators.
#[derive(Clone, Debug)]
pub struct GenParams {
    /// Target number of nodes in a base workflow (§6.5 "workflow size").
    pub workflow_size: usize,
    /// Ports per generated module (§6.5 "module degree"): inputs and
    /// outputs of fill atomics are drawn from `1..=module_degree`.
    pub module_degree: u8,
    /// Probability of each λ entry for fill atomics (then repaired to be
    /// proper).
    pub dep_density: f64,
    /// Maximum boundary ports (initial inputs / final outputs) a generated
    /// workflow may expose.
    pub max_in: usize,
    pub max_out: usize,
    /// Coarse-grained mode: single-source/single-sink wiring + black-box λ.
    pub coarse: bool,
}

impl Default for GenParams {
    fn default() -> Self {
        Self {
            workflow_size: 8,
            module_degree: 3,
            dep_density: 0.4,
            max_in: 4,
            max_out: 7,
            coarse: false,
        }
    }
}

/// Incrementally builds a grammar + dependency assignment with derived
/// composite signatures.
pub struct SpecGen {
    pub gb: GrammarBuilder,
    /// λ for atomic modules (what the final Spec carries).
    pub deps: DepAssignment,
    /// Working assignment: λ plus the derived λ\* of every composite built
    /// so far (needed to compute enclosing matrices and mirrors).
    pub lambda: DepAssignment,
    pub sigs: Vec<ModuleSig>,
    pub composite: Vec<bool>,
    counter: usize,
}

impl SpecGen {
    pub fn new() -> Self {
        Self {
            gb: GrammarBuilder::new(),
            deps: DepAssignment::new(),
            lambda: DepAssignment::new(),
            sigs: Vec::new(),
            composite: Vec::new(),
            counter: 0,
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.counter += 1;
        format!("{prefix}{}", self.counter)
    }

    /// Declares an atomic module with a random proper λ.
    pub fn fill_atomic(&mut self, rng: &mut impl Rng, p: &GenParams) -> ModuleId {
        let n_in = rng.gen_range(1..=p.module_degree);
        let n_out = rng.gen_range(1..=p.module_degree);
        let name = self.fresh_name("x");
        let id = self.gb.atomic(&name, n_in, n_out);
        self.push_sig(&name, n_in, n_out, false);
        let mat = if p.coarse {
            BoolMat::complete(n_in as usize, n_out as usize)
        } else {
            random_proper_matrix(rng, n_in as usize, n_out as usize, p.dep_density)
        };
        self.deps.set(id, mat.clone());
        self.lambda.set(id, mat);
        id
    }

    /// Declares an atomic with an explicit signature and matrix.
    pub fn special_atomic(&mut self, prefix: &str, n_in: u8, n_out: u8, mat: BoolMat) -> ModuleId {
        let name = self.fresh_name(prefix);
        let id = self.gb.atomic(&name, n_in, n_out);
        self.push_sig(&name, n_in, n_out, false);
        self.deps.set(id, mat.clone());
        self.lambda.set(id, mat);
        id
    }

    fn push_sig(&mut self, name: &str, n_in: u8, n_out: u8, comp: bool) {
        self.sigs.push(ModuleSig::new(name, n_in, n_out));
        self.composite.push(comp);
    }

    pub fn sig(&self, m: ModuleId) -> &ModuleSig {
        &self.sigs[m.index()]
    }

    /// Builds a random base workflow over `inner` composite instances plus
    /// `fill` fresh atomics, wires it (respecting boundary caps, inserting
    /// aggregators as needed), declares the composite `name` with the
    /// derived signature and registers the production. Returns the new
    /// composite id.
    pub fn base_production(
        &mut self,
        rng: &mut impl Rng,
        p: &GenParams,
        name: &str,
        inner: &[ModuleId],
        fill: usize,
    ) -> ModuleId {
        // Node list: coarse mode pins a source atomic first; inner modules
        // and fill atomics are interleaved randomly after it. A zero-width
        // request (no inner modules, zero fill) would materialize an empty
        // RHS, which the grammar rightly rejects (`EmptyWorkflow`) — floor
        // the plan at one fill atomic so degenerate callers (the grammar
        // fuzzer reaches this corner) still get a valid spec.
        let fill = if inner.is_empty() { fill.max(1) } else { fill };
        let mut mids: Vec<ModuleId> = inner.to_vec();
        for _ in 0..fill {
            mids.push(self.fill_atomic(rng, p));
        }
        // Shuffle (Fisher-Yates) for structural variety.
        for i in (1..mids.len()).rev() {
            let j = rng.gen_range(0..=i);
            mids.swap(i, j);
        }
        if p.coarse {
            let n_in = rng.gen_range(1..=p.max_in.min(p.module_degree as usize)) as u8;
            let k = rng.gen_range(1..=p.module_degree);
            let src =
                self.special_atomic("src", n_in, k, BoolMat::complete(n_in as usize, k as usize));
            mids.insert(0, src);
        }

        // Wire inputs. Nodes are placed one at a time; when a node needs
        // more upstream outputs than are open, duplicator atomics (1 in,
        // several out, pass-through λ) are injected before it — this keeps
        // the single-source invariant of coarse mode and the boundary caps
        // of fine-grained mode.
        let mut placed: Vec<ModuleId> = Vec::with_capacity(mids.len() + 4);
        let mut edges: Vec<((usize, u8), (usize, u8))> = Vec::new();
        let mut open: Vec<(usize, u8)> = Vec::new(); // (node index, out port)
        let mut n_initial = 0usize;
        for (plan_ix, &m) in mids.iter().enumerate() {
            let sig = self.sig(m).clone();
            // Decide, per input, whether it stays initial or connects.
            let mut connects: Vec<u8> = Vec::new();
            for port in 0..sig.n_in {
                let stay = if plan_ix == 0 {
                    true // the first node seeds the boundary (src in coarse)
                } else if p.coarse {
                    false
                } else {
                    n_initial < p.max_in && rng.gen_bool(0.15)
                };
                if stay {
                    n_initial += 1;
                } else {
                    connects.push(port);
                }
            }
            // Ensure enough open outputs, injecting duplicators (net +2/+3
            // opens each). `open` is nonempty whenever any node was placed.
            while open.len() < connects.len() {
                if open.is_empty() {
                    // Only possible before anything produced an output: the
                    // first planned node; it stays all-initial, so connects
                    // is empty. Defensive fallback: demote to initial.
                    n_initial += connects.len();
                    connects.clear();
                    break;
                }
                let dup = self.special_atomic("dup", 1, 4, BoolMat::complete(1, 4));
                let ix = placed.len();
                let pick = rng.gen_range(0..open.len());
                let (sn, sp) = open.swap_remove(pick);
                placed.push(dup);
                edges.push(((sn, sp), (ix, 0)));
                for out in 0..4u8 {
                    open.push((ix, out));
                }
            }
            let ix = placed.len();
            placed.push(m);
            for port in connects {
                // Prefer recent outputs (chains) half the time.
                let pick =
                    if rng.gen_bool(0.5) { open.len() - 1 } else { rng.gen_range(0..open.len()) };
                let (sn, sp) = open.swap_remove(pick);
                edges.push(((sn, sp), (ix, port)));
            }
            for port in 0..sig.n_out {
                open.push((ix, port));
            }
        }
        let mut mids = placed;

        // Boundary repair: if the first node starved the boundary caps, add
        // aggregators consuming surplus open outputs.
        let max_out = p.max_out;
        while open.len() > max_out || (p.coarse && open.len() > 1) {
            let take = open.len().min(4);
            let agg = self.special_atomic("agg", take as u8, 1, BoolMat::complete(take, 1));
            let node_ix = mids.len();
            mids.push(agg);
            for port in 0..take {
                let (sn, sp) = open.remove(0);
                edges.push(((sn, sp), (node_ix, port as u8)));
            }
            open.push((node_ix, 0));
        }

        // Materialize, derive the signature, declare the composite, and
        // record its λ* (single base production ⇒ this *is* λ*(id)).
        let lhs_mat = self.lhs_matrix(&mids, &edges);
        let (n_in, n_out) = (lhs_mat.rows(), lhs_mat.cols());
        debug_assert_eq!(n_initial, n_in, "initial-input accounting");
        let id = self.gb.composite(name, n_in as u8, n_out as u8);
        self.push_sig(name, n_in as u8, n_out as u8, true);
        self.lambda.set(id, lhs_mat);
        self.gb.production(id, mids, edges);
        id
    }

    /// Registers a composite declared without a base production (cycle
    /// members): same signature and λ* as its cycle entry.
    pub fn cycle_member(&mut self, name: &str, entry: ModuleId) -> ModuleId {
        let sig = self.sig(entry).clone();
        let id = self.gb.composite(name, sig.n_in, sig.n_out);
        self.push_sig(name, sig.n_in, sig.n_out, true);
        if let Some(m) = self.lambda.get(entry) {
            let m = m.clone();
            self.lambda.set(id, m);
        }
        id
    }

    /// Adds the identity-adapter recursive production `m → (pre, succ,
    /// post)`; `m` and `succ` must share a signature.
    pub fn recursive_production(&mut self, m: ModuleId, succ: ModuleId, coarse: bool) {
        let sig = self.sig(m).clone();
        assert_eq!(
            (sig.n_in, sig.n_out),
            (self.sig(succ).n_in, self.sig(succ).n_out),
            "cycle members must share signatures"
        );
        let adapter = |g: &mut Self, n: u8| {
            let mat = if coarse {
                BoolMat::complete(n as usize, n as usize)
            } else {
                BoolMat::identity(n as usize)
            };
            g.special_atomic("ad", n, n, mat)
        };
        let pre = adapter(self, sig.n_in);
        let post = adapter(self, sig.n_out);
        let mut edges = Vec::new();
        for port in 0..sig.n_in {
            edges.push(((0usize, port), (1usize, port)));
        }
        for port in 0..sig.n_out {
            edges.push(((1usize, port), (2usize, port)));
        }
        self.gb.production(m, vec![pre, succ, post], edges);
    }

    /// Adds a mirror production `m → (atomic with λ := λ*(m from base))`.
    /// `base_lhs_matrix` must be λ\*(m) as induced by m's base production.
    pub fn mirror_production(&mut self, m: ModuleId, base_lhs_matrix: BoolMat) {
        let sig = self.sig(m).clone();
        let mirror = self.special_atomic("mir", sig.n_in, sig.n_out, base_lhs_matrix);
        self.gb.production(m, vec![mirror], vec![]);
    }

    /// Computes the LHS matrix a finished workflow induces (used to build
    /// mirrors before the grammar is finalized).
    pub fn lhs_matrix(&self, nodes: &[ModuleId], edges: &RawEdges) -> BoolMat {
        let data_edges: Vec<wf_model::DataEdge> = edges
            .iter()
            .map(|&((fp, fo), (tp, ti))| wf_model::DataEdge {
                from: OutPortRef { node: wf_model::NodeIx(fp as u32), port: fo },
                to: InPortRef { node: wf_model::NodeIx(tp as u32), port: ti },
            })
            .collect();
        let w = SimpleWorkflow::new(nodes.to_vec(), data_edges, &self.sigs)
            .expect("generated wiring is valid");
        wf_analysis::lhs_matrix(&w, w.initial_inputs(), w.final_outputs(), &self.lambda)
    }
}

impl Default for SpecGen {
    fn default() -> Self {
        Self::new()
    }
}

/// A random proper dependency matrix: density-`p` entries, then every empty
/// row/column receives one random entry (Definition 6).
pub fn random_proper_matrix(rng: &mut impl Rng, rows: usize, cols: usize, p: f64) -> BoolMat {
    let mut m = BoolMat::zeros(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if rng.gen_bool(p) {
                m.set(r, c, true);
            }
        }
    }
    for r in 0..rows {
        if m.row_bits(r) == 0 {
            m.set(r, rng.gen_range(0..cols), true);
        }
    }
    let t = m.transpose();
    for c in 0..cols {
        if t.row_bits(c) == 0 {
            m.set(rng.gen_range(0..rows), c, true);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_proper_matrices_are_proper() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let rows = rng.gen_range(1..8);
            let cols = rng.gen_range(1..8);
            let m = random_proper_matrix(&mut rng, rows, cols, 0.3);
            for r in 0..rows {
                assert_ne!(m.row_bits(r), 0);
            }
            let t = m.transpose();
            for c in 0..cols {
                assert_ne!(t.row_bits(c), 0);
            }
        }
    }

    #[test]
    fn base_production_derives_consistent_signature() {
        let mut rng = StdRng::seed_from_u64(9);
        let p = GenParams::default();
        let mut g = SpecGen::new();
        let leaf = g.base_production(&mut rng, &p, "Leaf", &[], 5);
        assert!(g.sig(leaf).inputs() <= p.max_in);
        assert!(g.sig(leaf).outputs() <= p.max_out);
        let mid = g.base_production(&mut rng, &p, "Mid", &[leaf], 4);
        g.gb.start(mid);
        let grammar = g.gb.finish().unwrap();
        grammar.check_proper(&grammar.full_expand()).unwrap();
    }

    /// Regression (surfaced by the `wf-fuzz` grammar fuzzer): a zero-width
    /// request — no inner modules, zero fill — used to materialize an
    /// empty RHS and die with `EmptyWorkflow`. The generator now floors
    /// the plan at one atomic instead of emitting a spec the grammar
    /// rejects.
    #[test]
    fn zero_width_base_production_still_builds_a_valid_spec() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = GenParams::default();
        let mut g = SpecGen::new();
        let a = g.base_production(&mut rng, &p, "A", &[], 0);
        assert!(g.sig(a).inputs() >= 1 && g.sig(a).outputs() >= 1);
        // Zero fill *with* inner modules stays zero-fill (the inner
        // modules are the width).
        let b = g.base_production(&mut rng, &p, "B", &[a], 0);
        g.gb.start(b);
        let grammar = g.gb.finish().unwrap();
        grammar.check_proper(&grammar.full_expand()).unwrap();
        assert_eq!(grammar.composite_modules().count(), 2);
    }

    /// Regression (surfaced by the `wf-fuzz` grammar fuzzer): degenerate
    /// parameter corners — single-port modules, density 0 and 1, boundary
    /// caps of 1 — must all produce proper, safe specs the engine accepts.
    #[test]
    fn degenerate_parameter_corners_build_safe_specs() {
        use wf_analysis::{classify, is_safe, RecursionClass};
        use wf_model::{Spec, ViewSpec};
        for (density, degree) in [(0.0, 1u8), (1.0, 1), (0.0, 6), (1.0, 6)] {
            let mut rng = StdRng::seed_from_u64(7);
            let p = GenParams {
                workflow_size: 0,
                module_degree: degree,
                dep_density: density,
                max_in: 1,
                max_out: 1,
                coarse: false,
            };
            let mut g = SpecGen::new();
            let a = g.base_production(&mut rng, &p, "A", &[], 1);
            let b = g.base_production(&mut rng, &p, "B", &[a], 0);
            g.gb.start(b);
            let grammar = g.gb.finish().unwrap();
            assert_eq!(classify(&grammar), RecursionClass::NonRecursive);
            let spec = Spec::new(grammar, g.deps).unwrap();
            let dv = spec.default_view();
            assert!(
                is_safe(&ViewSpec::new(&spec, &dv)),
                "density {density} degree {degree} built an unsafe spec"
            );
        }
    }
}
