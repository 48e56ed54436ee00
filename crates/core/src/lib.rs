//! FVL — the **view-adaptive dynamic labeling scheme** of *Labeling
//! Workflow Views with Fine-Grained Dependencies* (VLDB 2012), §4–§5.
//!
//! The scheme splits reachability information between two kinds of labels
//! that are produced independently and combined only at query time:
//!
//! * **Data labels** ([`label`], [`labeler`]) encode *where* a data item was
//!   created: the pair of paths (producer / consumer port) in the compressed
//!   parse tree of the run, `O(log n)` bits each. They know nothing about
//!   dependencies, so they are *view-adaptive*: one labeling of a run serves
//!   every view, and views can be added or changed without touching data.
//! * **View labels** ([`viewlabel`]) encode *how* dependencies flow through
//!   each production of the view: `λ*(S)` plus the reachability-matrix
//!   functions `I`, `O`, `Z` of §4.3. Three variants trade label size for
//!   query time (§4.3, §4.4.3): *Space-Efficient* (store λ\* only, search at
//!   query time), *Default* (materialize `I`/`O`/`Z`), *Query-Efficient*
//!   (additionally materialize recursion-chain prefix products and the
//!   `Xᵃ = Xᵇ` power caches for O(1) chain evaluation).
//!
//! The decoding predicate π ([`decode`], Algorithms 1–2) multiplies a
//! constant number of small boolean matrices selected by the two data labels
//! and answers "does d₂ depend on d₁ w.r.t. the view" in constant time
//! (Theorem 10). For black-box (coarse-grained) views, the **Matrix-Free**
//! fast path ([`decode::structural`]) skips the matrices entirely (§6.4).
//!
//! Supporting pieces: bit-exact label encoding ([`codec`]), data-visibility
//! checks and user-defined views (§5: [`visibility`], [`userview`]), and the
//! reductions to *basic* (single-view) dynamic labeling used by Theorems 1
//! and 8 ([`basic`]).

pub mod basic;
pub mod codec;
pub mod decode;
pub mod error;
pub mod label;
pub mod labeler;
pub mod scheme;
pub mod snapshot;
pub mod userview;
pub mod viewlabel;
pub mod visibility;

pub use codec::LabelCodec;
pub use decode::{pi_with, DecodeCtx, QueryScratch};
pub use error::FvlError;
pub use label::{DataLabel, LabelRef, PortLabel, PortRef};
pub use labeler::RunLabeler;
pub use scheme::{Fvl, FvlSession};
pub use viewlabel::{VariantKind, ViewLabel};
pub use visibility::{is_visible, is_visible_ref};
