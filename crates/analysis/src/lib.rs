//! Static analysis of workflow specifications (§3 and §4.1 of the paper).
//!
//! Three analyses, all polynomial in the size of the specification:
//!
//! * **Safety** ([`safety`]) — Definition 13 / Lemma 1: a specification (or
//!   view) is safe iff a unique *full dependency assignment* λ\* extends λ to
//!   composite modules consistently across all productions. Safety is
//!   exactly the feasibility frontier of dynamic labeling (Theorem 1).
//! * **Recursion classification** ([`recursion`]) — Definitions 14/16,
//!   Theorem 7: linear recursion bounds label growth for black-box
//!   workflows; *strict* linear recursion (all production-graph cycles
//!   vertex-disjoint) is what compact fine-grained labeling requires
//!   (Theorems 6 and 8).
//! * **Preprocessing** ([`prodgraph`]) — §4.1: fixes the `(k, i)` edge ids
//!   of the production graph and the cycle tables `C(s)` that both run
//!   labels and view labels refer to.
//!
//! [`matrices`] computes the per-production reachability matrices (`I`, `O`,
//! `Z` of §4.3) from a full assignment — shared by every view-label variant
//! — and the λ\* a production induces, all through one forward sweep.

pub mod matrices;
pub mod prodgraph;
pub mod recursion;
pub mod safety;

pub use matrices::{
    lhs_matrix, production_matrices, rhs_closure, search_into, sweep, ProductionMatrices, Reached,
    Slot,
};
pub use prodgraph::{CycleInfo, ProdGraph};
pub use recursion::{classify, classify_with, is_linear_recursive, RecursionClass};
pub use safety::{full_assignment, full_assignment_default, is_safe, SafetyError};
