//! Validation errors for model construction.

use crate::ids::{ModuleId, ProdId};

/// Why a workflow, production, grammar, specification or view was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelError {
    /// A simple workflow must contain at least one module.
    EmptyWorkflow,
    /// A node references a module id outside the grammar's module table.
    UnknownModule { module: ModuleId },
    /// A data edge references a port outside its module's signature.
    PortOutOfRange { node: usize, port: u8, is_input: bool },
    /// Two data edges touch the same port — violates the pairwise
    /// non-adjacency assumption of Definition 2.
    AdjacentEdges { node: usize, port: u8, is_input: bool },
    /// A data edge goes backwards (or is a self-edge) w.r.t. the node
    /// listing; simple workflows must be listed in topological order so
    /// positions agree with the fixed ordering of §4.1.
    EdgeNotForward { from_node: usize, to_node: usize },
    /// A production's left-hand side is not a composite module.
    LhsNotComposite { prod: ProdId },
    /// The port bijection `f` of a production is not a bijection between the
    /// LHS ports and the RHS boundary ports.
    BadPortMap { prod: ProdId, detail: &'static str },
    /// The start module must exist and be composite.
    BadStartModule,
    /// A module has zero input or zero output ports; no proper dependency
    /// assignment exists for it (Definition 6).
    PortlessModule { module: ModuleId },
    /// A module on a right-hand side has more than 64 inputs or outputs
    /// (or the start module more than 64 outputs): its `λ`, `I`, `O` and
    /// `Z` matrices keep one 64-bit word per row, so none can hold it.
    TooManyPorts { module: ModuleId },
    /// A production's right-hand side has more than 64 nodes: the
    /// structural index's reachability matrix over them keeps one 64-bit
    /// word per row.
    TooManyRhsNodes { prod: ProdId },
    /// More than 2^16 modules are composite: a recursion-chain edge label
    /// keeps its cycle index and offset in 16 bits each, and production-graph
    /// cycles run through composite modules only.
    TooManyComposites { count: usize },
    /// Properness (Definition 5): a composite module is not derivable from
    /// the start module.
    Underivable { module: ModuleId },
    /// Properness: a composite module cannot derive any all-atomic workflow.
    Unproductive { module: ModuleId },
    /// Properness: unit productions form a cycle `M ⇒+ M`.
    UnitCycle { module: ModuleId },
    /// A dependency assignment is missing for a module that needs one.
    MissingDeps { module: ModuleId },
    /// A dependency matrix has the wrong shape for its module.
    DepsShapeMismatch { module: ModuleId },
    /// A dependency assignment violates Definition 6: some input contributes
    /// to no output, or some output depends on no input.
    ImproperDeps { module: ModuleId },
    /// A view's expansion set contains a module that is not composite.
    ExpandNotComposite { module: ModuleId },
    /// A user-defined view grouping is invalid (non-contiguous flows, wrong
    /// production, empty member set, …).
    BadGrouping { prod: ProdId, detail: &'static str },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use ModelError::*;
        match self {
            EmptyWorkflow => write!(f, "simple workflow has no modules"),
            UnknownModule { module } => write!(f, "unknown module {module}"),
            PortOutOfRange { node, port, is_input } => write!(
                f,
                "{} port {port} of node {node} out of range",
                if *is_input { "input" } else { "output" }
            ),
            AdjacentEdges { node, port, is_input } => write!(
                f,
                "two data edges touch {} port {port} of node {node}",
                if *is_input { "input" } else { "output" }
            ),
            EdgeNotForward { from_node, to_node } => {
                write!(f, "data edge {from_node} -> {to_node} is not forward in the node listing")
            }
            LhsNotComposite { prod } => {
                write!(f, "production {prod} rewrites a non-composite module")
            }
            BadPortMap { prod, detail } => {
                write!(f, "production {prod} port bijection invalid: {detail}")
            }
            BadStartModule => write!(f, "start module missing or not composite"),
            PortlessModule { module } => write!(f, "module {module} has no inputs or no outputs"),
            TooManyPorts { module } => {
                write!(f, "module {module} has more ports on a side than a 64-bit matrix row holds")
            }
            TooManyRhsNodes { prod } => {
                write!(f, "production {prod} has more RHS nodes than a 64-bit matrix row holds")
            }
            TooManyComposites { count } => {
                write!(f, "{count} composite modules, more than 16-bit cycle indexes address")
            }
            Underivable { module } => write!(f, "composite module {module} is underivable"),
            Unproductive { module } => write!(f, "composite module {module} is unproductive"),
            UnitCycle { module } => write!(f, "unit productions form a cycle through {module}"),
            MissingDeps { module } => write!(f, "no dependency assignment for module {module}"),
            DepsShapeMismatch { module } => {
                write!(f, "dependency matrix shape mismatch for {module}")
            }
            ImproperDeps { module } => write!(f, "improper dependency assignment for {module}"),
            ExpandNotComposite { module } => {
                write!(f, "view expands non-composite module {module}")
            }
            BadGrouping { prod, detail } => write!(f, "invalid grouping on {prod}: {detail}"),
        }
    }
}

impl std::error::Error for ModelError {}
