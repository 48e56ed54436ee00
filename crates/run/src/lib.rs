//! Workflow executions: derivations, runs, parse trees and oracles.
//!
//! A **run** is derived from the start module by applying productions one at
//! a time (the *derivation-based* dynamic model of Definition 10 — labels
//! must be assignable per step, knowing nothing of future steps). This crate
//! keeps the full derivation history:
//!
//! * [`run`] — instances, data items and steps; the online [`Run::apply`]
//!   engine. A run in progress is a *partial* run and is fully queryable,
//!   which is the point of dynamic labeling ("users may wish to query
//!   partial executions", §1).
//! * [`tree`] — the **compressed parse tree** (Definition 18): the basic
//!   parse tree with every unfolded recursion chain flattened under a
//!   *recursive node*, keeping depth ≤ 2·|Δ| (Lemma 4). Both FVL and the
//!   DRL baseline build their labels from this structure.
//! * [`viewproj`] — projection of a run onto a view (`R_U` of Definition 9):
//!   visibility of instances and data items.
//! * [`flatten`] — materializes the view of a run as a flat
//!   [`wf_model::SimpleWorkflow`] and answers ground-truth dependency
//!   queries over its port graph; every labeling scheme is tested against
//!   this oracle.
//! * [`derivation`] — replayable derivation scripts and the seeded random
//!   sampler used throughout the evaluation (§6.1 "we simulated runs by
//!   applying a random sequence of productions").
//! * [`fixtures`] — the Figure 3/4 run of the paper's running example.

pub mod derivation;
pub mod fixtures;
pub mod flatten;
pub mod run;
pub mod tree;
pub mod viewproj;

pub use derivation::{random_derivation, Derivation};
pub use flatten::{FlatRun, RunOracle};
pub use run::{DataId, InstanceId, Run, RunError, StepId};
pub use tree::{try_path, CompressedTree, EdgeLabel, TreeNodeId};
pub use viewproj::RunProjection;
