//! Context-free workflow grammars (Definition 4) and properness
//! (Definition 5).

use crate::error::ModelError;
use crate::ids::{ModuleId, ProdId};
use crate::module::ModuleSig;
use crate::production::Production;
use crate::workflow::{DataEdge, InPortRef, NodeIx, OutPortRef, SimpleWorkflow};

/// Most inputs, or outputs, a module on a right-hand side may have: the
/// column bound of every `λ`, `I`, `O` and `Z` matrix over its ports.
const MAX_PORTS: usize = 64;

/// Most nodes a right-hand side may have: the structural index keeps one
/// 64-bit reachability row per node of a production's workflow.
const MAX_RHS_NODES: usize = 64;

/// Most composite modules a grammar may have. Production-graph cycles run
/// through composite modules only, so every cycle index and every offset
/// into a cycle fits the 16-bit fields of a recursion-chain edge label.
const MAX_COMPOSITES: usize = 1 << 16;

/// A context-free workflow grammar `G = (Σ, Δ, S, P)`.
///
/// `Σ` is the module table, `Δ` the composite subset, `S` the start module
/// and `P` the production list. Production and module ids are **stable**:
/// views never renumber them, so production-graph edge ids `(k, i)` mean the
/// same thing in every view — the property that makes data labels reusable
/// across views.
#[derive(Clone, Debug)]
pub struct Grammar {
    modules: Vec<ModuleSig>,
    composite: Vec<bool>,
    start: ModuleId,
    productions: Vec<Production>,
    prods_of: Vec<Vec<ProdId>>,
}

impl Grammar {
    /// Validates and indexes a grammar. Checks performed:
    /// signatures have ports; the start module exists and is composite;
    /// every production's LHS is composite; every production's RHS and port
    /// bijection validate against the module table; no RHS module has more
    /// than 64 inputs or outputs, nor the start module more than 64
    /// outputs, since every matrix over them keeps one 64-bit word per row;
    /// no RHS has more than 64 nodes, for the same reason; and at most
    /// 2^16 modules are composite, so cycle indexes fit in 16 bits.
    ///
    /// Properness (Definition 5) is *not* required here — call
    /// [`Grammar::check_proper`]; the paper likewise separates the two.
    pub fn new(
        modules: Vec<ModuleSig>,
        composite: Vec<bool>,
        start: ModuleId,
        productions: Vec<Production>,
    ) -> Result<Self, ModelError> {
        assert_eq!(modules.len(), composite.len(), "composite mask length mismatch");
        for (i, sig) in modules.iter().enumerate() {
            if !sig.has_ports() {
                return Err(ModelError::PortlessModule { module: ModuleId(i as u32) });
            }
        }
        if start.index() >= modules.len() || !composite[start.index()] {
            return Err(ModelError::BadStartModule);
        }
        let composites = composite.iter().filter(|&&c| c).count();
        if composites > MAX_COMPOSITES {
            return Err(ModelError::TooManyComposites { count: composites });
        }
        if modules[start.index()].outputs() > MAX_PORTS {
            return Err(ModelError::TooManyPorts { module: start });
        }
        let mut prods_of: Vec<Vec<ProdId>> = vec![Vec::new(); modules.len()];
        for (k, p) in productions.iter().enumerate() {
            let id = ProdId(k as u32);
            if p.lhs.index() >= modules.len() || !composite[p.lhs.index()] {
                return Err(ModelError::LhsNotComposite { prod: id });
            }
            // RHS validated structurally at construction; re-validate the
            // bijections against this module table.
            p.validate(id, &modules)?;
            if p.rhs.node_count() > MAX_RHS_NODES {
                return Err(ModelError::TooManyRhsNodes { prod: id });
            }
            for &m in p.rhs.nodes() {
                let sig = &modules[m.index()];
                if sig.inputs() > MAX_PORTS || sig.outputs() > MAX_PORTS {
                    return Err(ModelError::TooManyPorts { module: m });
                }
            }
            prods_of[p.lhs.index()].push(id);
        }
        Ok(Self { modules, composite, start, productions, prods_of })
    }

    #[inline]
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    #[inline]
    pub fn sig(&self, m: ModuleId) -> &ModuleSig {
        &self.modules[m.index()]
    }

    pub fn sigs(&self) -> &[ModuleSig] {
        &self.modules
    }

    #[inline]
    pub fn is_composite(&self, m: ModuleId) -> bool {
        self.composite[m.index()]
    }

    #[inline]
    pub fn start(&self) -> ModuleId {
        self.start
    }

    #[inline]
    pub fn production_count(&self) -> usize {
        self.productions.len()
    }

    #[inline]
    pub fn production(&self, k: ProdId) -> &Production {
        &self.productions[k.index()]
    }

    pub fn productions(&self) -> impl Iterator<Item = (ProdId, &Production)> {
        self.productions.iter().enumerate().map(|(k, p)| (ProdId(k as u32), p))
    }

    /// Productions whose LHS is `m`.
    pub fn productions_of(&self, m: ModuleId) -> &[ProdId] {
        &self.prods_of[m.index()]
    }

    pub fn modules(&self) -> impl Iterator<Item = ModuleId> {
        (0..self.modules.len() as u32).map(ModuleId)
    }

    pub fn composite_modules(&self) -> impl Iterator<Item = ModuleId> + '_ {
        self.modules().filter(|&m| self.is_composite(m))
    }

    pub fn atomic_modules(&self) -> impl Iterator<Item = ModuleId> + '_ {
        self.modules().filter(|&m| !self.is_composite(m))
    }

    /// Finds a module by name (fixtures and tests).
    pub fn module_named(&self, name: &str) -> Option<ModuleId> {
        self.modules.iter().position(|s| s.name == name).map(|i| ModuleId(i as u32))
    }

    /// Largest number of input or output ports over all modules — the
    /// constant `c` of Theorem 10's analysis.
    pub fn max_ports(&self) -> usize {
        self.modules.iter().map(|s| s.inputs().max(s.outputs())).max().unwrap_or(0)
    }

    /// Largest RHS node count over all productions.
    pub fn max_rhs_len(&self) -> usize {
        self.productions.iter().map(|p| p.rhs.node_count()).max().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Properness (Definition 5), parameterized by a view's expansion set so
    // the same machinery validates both grammars and views. `expand[m]`
    // tells whether module `m` may be rewritten; productions of unexpandable
    // modules are inactive.
    // ------------------------------------------------------------------

    /// True if production `k` is active under `expand`.
    #[inline]
    pub fn prod_active(&self, k: ProdId, expand: &[bool]) -> bool {
        expand[self.productions[k.index()].lhs.index()]
    }

    /// Modules derivable from the start module using active productions
    /// (the start module is derivable by definition).
    pub fn derivable_modules(&self, expand: &[bool]) -> Vec<bool> {
        let mut derivable = vec![false; self.modules.len()];
        derivable[self.start.index()] = true;
        let mut stack = vec![self.start];
        while let Some(m) = stack.pop() {
            if !expand[m.index()] {
                continue;
            }
            for &k in &self.prods_of[m.index()] {
                for &child in self.productions[k.index()].rhs.nodes() {
                    if !derivable[child.index()] {
                        derivable[child.index()] = true;
                        stack.push(child);
                    }
                }
            }
        }
        derivable
    }

    /// Modules that can derive a workflow of terminals only. Terminals under
    /// `expand` are exactly the unexpandable modules.
    pub fn productive_modules(&self, expand: &[bool]) -> Vec<bool> {
        let mut productive: Vec<bool> = (0..self.modules.len()).map(|m| !expand[m]).collect();
        loop {
            let mut changed = false;
            for p in &self.productions {
                if !expand[p.lhs.index()] || productive[p.lhs.index()] {
                    continue;
                }
                if p.rhs.nodes().iter().all(|c| productive[c.index()]) {
                    productive[p.lhs.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                return productive;
            }
        }
    }

    /// Checks Definition 5 under an expansion set: every expandable module
    /// is derivable and productive, and unit productions (single-node RHS)
    /// form no cycle `M ⇒+ M`.
    pub fn check_proper(&self, expand: &[bool]) -> Result<(), ModelError> {
        let derivable = self.derivable_modules(expand);
        let productive = self.productive_modules(expand);
        for m in self.modules() {
            if !expand[m.index()] {
                continue;
            }
            if !derivable[m.index()] {
                return Err(ModelError::Underivable { module: m });
            }
            if !productive[m.index()] {
                return Err(ModelError::Unproductive { module: m });
            }
        }
        // Unit-production cycles: M ⇒+ M is only possible through a chain of
        // productions whose RHS is a single module (rewriting can never
        // shrink a workflow).
        let mut unit = wf_digraph::DiGraph::with_nodes(self.modules.len());
        for p in &self.productions {
            if expand[p.lhs.index()] && p.rhs.node_count() == 1 {
                unit.add_edge(wf_digraph::NodeId(p.lhs.0), wf_digraph::NodeId(p.rhs.nodes()[0].0));
            }
        }
        if unit.is_cyclic() {
            // Find a witness on a unit cycle for the error message.
            let witness = self
                .modules()
                .find(|&m| {
                    expand[m.index()]
                        && unit
                            .out_edges(wf_digraph::NodeId(m.0))
                            .iter()
                            .any(|&(_, t)| unit.reachable_from(t).contains(m.index()))
                })
                .unwrap_or(self.start);
            return Err(ModelError::UnitCycle { module: witness });
        }
        Ok(())
    }

    /// Expansion mask for the *default* view: all composite modules.
    pub fn full_expand(&self) -> Vec<bool> {
        self.composite.clone()
    }
}

/// Raw production description used by [`GrammarBuilder`]: LHS, RHS node
/// modules, and `((from_pos, out_port), (to_pos, in_port))` edges.
pub type RawProduction = (ModuleId, Vec<ModuleId>, Vec<((usize, u8), (usize, u8))>);

/// Ergonomic construction of grammars for fixtures and generators.
pub struct GrammarBuilder {
    modules: Vec<ModuleSig>,
    composite: Vec<bool>,
    start: Option<ModuleId>,
    productions: Vec<RawProduction>,
}

impl GrammarBuilder {
    pub fn new() -> Self {
        Self { modules: Vec::new(), composite: Vec::new(), start: None, productions: Vec::new() }
    }

    /// Declares a composite module.
    pub fn composite(&mut self, name: &str, n_in: u8, n_out: u8) -> ModuleId {
        self.modules.push(ModuleSig::new(name, n_in, n_out));
        self.composite.push(true);
        ModuleId(self.modules.len() as u32 - 1)
    }

    /// Declares an atomic module.
    pub fn atomic(&mut self, name: &str, n_in: u8, n_out: u8) -> ModuleId {
        self.modules.push(ModuleSig::new(name, n_in, n_out));
        self.composite.push(false);
        ModuleId(self.modules.len() as u32 - 1)
    }

    pub fn start(&mut self, m: ModuleId) -> &mut Self {
        self.start = Some(m);
        self
    }

    /// Adds a production `lhs → (nodes, edges)` with canonical port maps.
    /// `edges` are `((from_pos, out_port), (to_pos, in_port))` pairs over
    /// node positions in `nodes`.
    pub fn production(
        &mut self,
        lhs: ModuleId,
        nodes: Vec<ModuleId>,
        edges: Vec<((usize, u8), (usize, u8))>,
    ) -> &mut Self {
        self.productions.push((lhs, nodes, edges));
        self
    }

    pub fn finish(self) -> Result<Grammar, ModelError> {
        let start = self.start.ok_or(ModelError::BadStartModule)?;
        let mut prods = Vec::with_capacity(self.productions.len());
        for (lhs, nodes, edges) in self.productions {
            let edges = edges
                .into_iter()
                .map(|((fp, fo), (tp, ti))| DataEdge {
                    from: OutPortRef { node: NodeIx(fp as u32), port: fo },
                    to: InPortRef { node: NodeIx(tp as u32), port: ti },
                })
                .collect();
            let rhs = SimpleWorkflow::new(nodes, edges, &self.modules)?;
            prods.push(Production::with_canonical_maps(lhs, rhs));
        }
        Grammar::new(self.modules, self.composite, start, prods)
    }
}

impl Default for GrammarBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// S -> (a); S -> (S') where S' -> (a): tiny grammar for properness.
    fn tiny() -> GrammarBuilder {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let a = b.atomic("a", 1, 1);
        b.start(s);
        b.production(s, vec![a], vec![]);
        b
    }

    #[test]
    fn builds_minimal_grammar() {
        let g = tiny().finish().unwrap();
        assert_eq!(g.module_count(), 2);
        assert_eq!(g.production_count(), 1);
        assert!(g.is_composite(g.start()));
        g.check_proper(&g.full_expand()).unwrap();
    }

    #[test]
    fn rejects_atomic_lhs() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let a = b.atomic("a", 1, 1);
        b.start(s);
        b.production(a, vec![a], vec![]);
        assert!(matches!(b.finish(), Err(ModelError::LhsNotComposite { .. })));
    }

    #[test]
    fn rejects_portless_module() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        b.atomic("weird", 0, 1);
        b.start(s);
        let a2 = ModuleId(1);
        b.production(s, vec![a2], vec![]);
        assert!(matches!(b.finish(), Err(ModelError::PortlessModule { .. })));
    }

    /// A 65-input module on a right-hand side is a typed error, not a
    /// 64-column `BoolMat` panic at the first compilation or query; so is
    /// a start module whose λ*(S) would need 65 columns. 64 ports on an
    /// RHS module build, and so do 65 start inputs (rows, not columns).
    #[test]
    fn rejects_modules_too_wide_for_a_matrix() {
        // S → (a, b) with `wired` edges a.out p → b.in p.
        let grammar = |s_sig: (u8, u8), a: (u8, u8), b_sig: (u8, u8), wired: u8| {
            let mut b = GrammarBuilder::new();
            let s = b.composite("S", s_sig.0, s_sig.1);
            let nodes = vec![b.atomic("a", a.0, a.1), b.atomic("b", b_sig.0, b_sig.1)];
            b.start(s);
            b.production(s, nodes, (0..wired).map(|p| ((0, p), (1, p))).collect());
            b.finish().map(|g| g.max_ports())
        };
        let wide = Err(ModelError::TooManyPorts { module: ModuleId(1) });
        assert_eq!(grammar((65, 1), (65, 1), (1, 1), 1), wide);
        assert_eq!(grammar((1, 2), (1, 65), (64, 1), 64), wide);
        let start = Err(ModelError::TooManyPorts { module: ModuleId(0) });
        assert_eq!(grammar((2, 65), (1, 33), (1, 32), 0), start);
        assert_eq!(grammar((64, 64), (64, 64), (64, 64), 64), Ok(64));
        assert_eq!(grammar((65, 2), (64, 1), (1, 1), 0), Ok(65));
    }

    /// At most 2^16 composite modules, so a recursion-chain edge label's
    /// 16-bit cycle index and offset address every cycle: the bound builds,
    /// and one more composite module is a typed error.
    #[test]
    fn bounds_composite_modules_for_16_bit_cycle_indexes() {
        let grammar = |composites: usize| {
            let mut modules = vec![ModuleSig::new("a", 1, 1)];
            modules.extend((0..composites).map(|m| ModuleSig::new(format!("M{m}"), 1, 1)));
            let composite = (0..=composites).map(|m| m > 0).collect();
            let g = Grammar::new(modules, composite, ModuleId(1), Vec::new())?;
            Ok::<_, ModelError>(g.composite_modules().count())
        };
        assert_eq!(grammar(MAX_COMPOSITES), Ok(1 << 16));
        let over = MAX_COMPOSITES + 1;
        assert_eq!(grammar(over), Err(ModelError::TooManyComposites { count: over }));
    }

    #[test]
    fn rejects_missing_start() {
        let mut b = GrammarBuilder::new();
        let _ = b.composite("S", 1, 1);
        assert!(matches!(b.finish(), Err(ModelError::BadStartModule)));
    }

    #[test]
    fn underivable_detected() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let orphan = b.composite("X", 1, 1);
        let a = b.atomic("a", 1, 1);
        b.start(s);
        b.production(s, vec![a], vec![]);
        b.production(orphan, vec![a], vec![]);
        let g = b.finish().unwrap();
        assert_eq!(
            g.check_proper(&g.full_expand()),
            Err(ModelError::Underivable { module: orphan })
        );
    }

    #[test]
    fn unproductive_detected() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let x = b.composite("X", 1, 1);
        b.start(s);
        // S -> X, X -> X: X never terminates.
        b.production(s, vec![x], vec![]);
        b.production(x, vec![x], vec![]);
        let g = b.finish().unwrap();
        assert!(matches!(g.check_proper(&g.full_expand()), Err(ModelError::Unproductive { .. })));
    }

    #[test]
    fn unit_cycle_detected() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let x = b.composite("X", 1, 1);
        let a = b.atomic("a", 1, 1);
        b.start(s);
        // S -> X, X -> S (unit cycle), S -> a (so both are productive).
        b.production(s, vec![x], vec![]);
        b.production(x, vec![s], vec![]);
        b.production(s, vec![a], vec![]);
        let g = b.finish().unwrap();
        assert!(matches!(g.check_proper(&g.full_expand()), Err(ModelError::UnitCycle { .. })));
    }

    #[test]
    fn view_restriction_changes_properness() {
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let x = b.composite("X", 1, 1);
        let a = b.atomic("a", 1, 1);
        b.start(s);
        b.production(s, vec![x], vec![]);
        b.production(x, vec![a], vec![]);
        let g = b.finish().unwrap();
        g.check_proper(&g.full_expand()).unwrap();
        // Restricting to {X} alone: X is no longer derivable (S cannot be
        // rewritten), so the view is improper.
        let mut expand = vec![false; g.module_count()];
        expand[x.index()] = true;
        assert!(matches!(g.check_proper(&expand), Err(ModelError::Underivable { .. })));
        // Restricting to {S}: X becomes a terminal; proper.
        let mut expand = vec![false; g.module_count()];
        expand[s.index()] = true;
        g.check_proper(&expand).unwrap();
    }

    #[test]
    fn recursion_is_not_a_unit_cycle() {
        // A -> (a, A) is recursive but not a unit production; properness holds
        // as long as a base production exists.
        let mut b = GrammarBuilder::new();
        let s = b.composite("S", 1, 1);
        let a_mod = b.composite("A", 1, 1);
        let x = b.atomic("x", 1, 1);
        b.start(s);
        b.production(s, vec![a_mod], vec![]);
        b.production(a_mod, vec![x, a_mod], vec![((0, 0), (1, 0))]);
        b.production(a_mod, vec![x], vec![]);
        let g = b.finish().unwrap();
        g.check_proper(&g.full_expand()).unwrap();
    }

    #[test]
    fn grammar_constants() {
        let g = tiny().finish().unwrap();
        assert_eq!(g.max_ports(), 1);
        assert_eq!(g.max_rhs_len(), 1);
        assert_eq!(g.module_named("a"), Some(ModuleId(1)));
        assert_eq!(g.module_named("zzz"), None);
    }
}
