//! The view registry: precompiled [`ViewLabel`]s keyed by view id + variant.
//!
//! View labels are static per view (§4.3) but expensive relative to a query
//! — building one walks every active production and, for Query-Efficient,
//! materializes chain caches. A serving layer therefore compiles each
//! `(view, variant)` combination exactly once and addresses it by a dense
//! [`ViewRef`] afterwards. (Scratch-memo soundness across views is carried
//! by [`ViewLabel::uid`], which every compiled label gets at build time.)

use crate::error::EngineError;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_bitio::{BitReader, BitWriter};
use wf_core::{Fvl, VariantKind, ViewLabel};
use wf_model::{Grammar, View};
use wf_snapshot::{read_view, write_view, SnapshotError};

/// Dense id of a registered view (assigned by [`ViewRegistry::add_view`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewId(pub u32);

/// A compiled `(view, variant)` pair — the handle queries are issued
/// against.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ViewRef {
    pub id: ViewId,
    pub kind: VariantKind,
}

const VARIANTS: usize = 3;

fn slot(kind: VariantKind) -> usize {
    kind.code() as usize
}

/// Structural fingerprint of a view: its expand mask plus every perceived
/// dependency matrix, hashed in module order. Used as a dedup *index* only
/// — candidates still compare structurally before an id is reused, so a
/// hash collision can never alias two distinct views.
fn view_fingerprint(view: &View) -> u64 {
    let mut h = DefaultHasher::new();
    view.expand_mask().hash(&mut h);
    for (m, mat) in view.deps.iter() {
        m.hash(&mut h);
        mat.hash(&mut h);
    }
    h.finish()
}

/// Structural identity: same expand mask, same perceived matrices.
fn views_structurally_equal(a: &View, b: &View) -> bool {
    a.expand_mask() == b.expand_mask()
        && a.deps.iter().count() == b.deps.iter().count()
        && a.deps.iter().all(|(m, mat)| b.deps.get(m) == Some(mat))
}

/// Registered views plus their per-variant compiled labels.
///
/// Compiled labels are held behind [`Arc`], which makes cloning a registry
/// — the copy-on-write step of the generational engine — cost a refcount
/// bump per label instead of a deep copy of its matrices and power caches.
/// Shared labels keep their uid, so scratch memos warmed against one
/// generation stay warm (and sound — identical uid ⇒ identical label
/// content) across every generation that shares the compilation.
#[derive(Clone)]
pub struct ViewRegistry {
    views: Vec<View>,
    compiled: Vec<[Option<Arc<ViewLabel>>; VARIANTS]>,
    /// Structural-dedup index: fingerprint → candidate ids.
    by_fingerprint: HashMap<u64, Vec<ViewId>>,
}

impl ViewRegistry {
    pub fn new() -> Self {
        Self { views: Vec::new(), compiled: Vec::new(), by_fingerprint: HashMap::new() }
    }

    /// Registers a view. The registry owns its copy, so engines outlive
    /// caller-side view values. Registration *dedups structurally*: a view
    /// identical to an already registered one (same expand mask, same
    /// perceived matrices) returns the existing [`ViewId`] — and with it
    /// every label already compiled for it — instead of allocating a fresh
    /// id and recompiling from scratch. Repository traffic re-registers
    /// the same views constantly (every session "creates" its view of
    /// record); dedup makes that free.
    pub fn add_view(&mut self, view: View) -> ViewId {
        let fp = view_fingerprint(&view);
        if let Some(ids) = self.by_fingerprint.get(&fp) {
            for &id in ids {
                if views_structurally_equal(&self.views[id.0 as usize], &view) {
                    return id;
                }
            }
        }
        self.push_view(view, fp)
    }

    /// Appends a view unconditionally (still indexing its fingerprint for
    /// later dedup lookups). The snapshot read path uses this directly: it
    /// must reproduce the writing engine's id sequence *exactly*, and
    /// snapshots written before structural dedup existed may legitimately
    /// carry duplicate views under distinct ids.
    fn push_view(&mut self, view: View, fp: u64) -> ViewId {
        let id = ViewId(self.views.len() as u32);
        self.views.push(view);
        self.compiled.push([None, None, None]);
        self.by_fingerprint.entry(fp).or_default().push(id);
        id
    }

    /// The registered view of `id` (`None` if `id` was never registered
    /// here, like [`ViewRegistry::label`] for foreign handles).
    pub fn view(&self, id: ViewId) -> Option<&View> {
        self.views.get(id.0 as usize)
    }

    /// Compiles (or reuses) the label of `(id, kind)`. Idempotent: the
    /// interned label is built at most once per combination. An id that
    /// was never registered is [`EngineError::ViewNotRegistered`]; a view
    /// the scheme cannot label is [`EngineError::Compile`].
    pub fn compile(
        &mut self,
        fvl: &Fvl<'_>,
        id: ViewId,
        kind: VariantKind,
    ) -> Result<ViewRef, EngineError> {
        let (Some(view), Some(slots)) =
            (self.views.get(id.0 as usize), self.compiled.get_mut(id.0 as usize))
        else {
            return Err(EngineError::ViewNotRegistered { id });
        };
        let cell = &mut slots[slot(kind)];
        if cell.is_none() {
            *cell = Some(Arc::new(fvl.label_view(view, kind).map_err(EngineError::Compile)?));
        }
        Ok(ViewRef { id, kind })
    }

    /// Whether `(id, kind)` already has a compiled label — what a
    /// generation writer consults to record only *new* compilations in its
    /// delta.
    pub fn is_compiled(&self, id: ViewId, kind: VariantKind) -> bool {
        self.compiled.get(id.0 as usize).is_some_and(|slots| slots[slot(kind)].is_some())
    }

    /// Installs an externally decoded label into an *empty* `(id, kind)`
    /// slot — the delta-replay path. Rejects foreign ids, labels whose
    /// stored variant does not match the slot, and double installation.
    pub(crate) fn adopt_compiled(
        &mut self,
        id: ViewId,
        vl: ViewLabel,
    ) -> Result<ViewRef, SnapshotError> {
        let kind = vl.kind();
        let Some(slots) = self.compiled.get_mut(id.0 as usize) else {
            return Err(SnapshotError::Malformed("compiled label for unknown view"));
        };
        let cell = &mut slots[slot(kind)];
        if cell.is_some() {
            return Err(SnapshotError::Malformed("compiled label for an already compiled slot"));
        }
        *cell = Some(Arc::new(vl));
        Ok(ViewRef { id, kind })
    }

    /// The compiled label of a handle (`None` if never compiled, or if the
    /// id belongs to some other registry — foreign handles must surface as
    /// a typed error through the engine's `try_*` API, never a panic).
    pub fn label(&self, r: ViewRef) -> Option<&ViewLabel> {
        self.compiled.get(r.id.0 as usize).and_then(|slots| slots[slot(r.kind)].as_deref())
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Number of compiled `(view, variant)` labels.
    pub fn compiled_count(&self) -> usize {
        self.compiled.iter().flatten().filter(|c| c.is_some()).count()
    }

    /// Serializes every registered view and every compiled label: per view,
    /// the `(Δ′, λ′)` pair, one presence bit per variant slot, then the
    /// present labels in slot order.
    pub fn write_snapshot(&self, grammar: &Grammar, w: &mut BitWriter) {
        w.write_gamma(self.views.len() as u64 + 1);
        for (view, compiled) in self.views.iter().zip(&self.compiled) {
            write_view(w, grammar, view);
            for cell in compiled {
                w.push_bit(cell.is_some());
            }
            for cell in compiled.iter().flatten() {
                cell.write_snapshot(w);
            }
        }
    }

    /// Inverse of [`ViewRegistry::write_snapshot`]. Views re-pass grammar
    /// validation; each label's stored variant must match the slot it sits
    /// in. Loaded labels carry fresh uids, so a scratch shared with labels
    /// compiled earlier in this process stays sound. Registration bypasses
    /// structural dedup on purpose: the id sequence must reproduce the
    /// writing engine's exactly, and snapshots written before dedup
    /// existed may carry structural duplicates under distinct ids (the
    /// rebuilt fingerprint index still dedups every *future*
    /// [`ViewRegistry::add_view`] against them).
    pub fn read_snapshot(
        r: &mut BitReader<'_>,
        grammar: &Grammar,
        pg: &ProdGraph,
    ) -> Result<Self, SnapshotError> {
        let view_count = (r.read_gamma()? - 1) as usize;
        let mut reg = Self::new();
        for _ in 0..view_count {
            let view = read_view(r, grammar)?;
            let fp = view_fingerprint(&view);
            let id = reg.push_view(view, fp);
            let mut present = [false; VARIANTS];
            for p in &mut present {
                *p = r.read_bit()?;
            }
            for (s, &p) in present.iter().enumerate() {
                if !p {
                    continue;
                }
                let vl = ViewLabel::read_snapshot(r, grammar, pg)?;
                if vl.kind().code() as usize != s {
                    return Err(SnapshotError::Malformed("view label in wrong variant slot"));
                }
                reg.compiled[id.0 as usize][s] = Some(Arc::new(vl));
            }
        }
        Ok(reg)
    }
}

impl Default for ViewRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::paper_example;

    #[test]
    fn compile_is_idempotent_and_keyed_by_variant() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let mut reg = ViewRegistry::new();
        let u1 = reg.add_view(ex.view_u1());
        let u2 = reg.add_view(ex.view_u2());
        assert_eq!(reg.view_count(), 2);
        assert_eq!(reg.compiled_count(), 0);

        let r1 = reg.compile(&fvl, u1, VariantKind::Default).unwrap();
        let r1b = reg.compile(&fvl, u1, VariantKind::Default).unwrap();
        assert_eq!(r1, r1b);
        assert_eq!(reg.compiled_count(), 1, "recompiling the same pair is a no-op");

        let r1q = reg.compile(&fvl, u1, VariantKind::QueryEfficient).unwrap();
        let r2 = reg.compile(&fvl, u2, VariantKind::Default).unwrap();
        assert_eq!(reg.compiled_count(), 3);
        assert!(reg.label(r1).is_some());
        assert!(reg.label(r1q).is_some());
        assert!(reg.label(r2).is_some());
        assert!(reg.label(ViewRef { id: u2, kind: VariantKind::QueryEfficient }).is_none());

        // An id this registry never handed out is a typed miss, not a panic.
        let foreign = ViewId(2);
        assert!(reg.view(foreign).is_none());
        assert_eq!(
            reg.compile(&fvl, foreign, VariantKind::Default),
            Err(EngineError::ViewNotRegistered { id: foreign })
        );
        assert_eq!(reg.compiled_count(), 3, "a rejected compile installs nothing");
        assert!(reg.view(u2).is_some_and(|v| views_structurally_equal(v, &ex.view_u2())));

        // Compiled labels carry pairwise-distinct uids — what keeps one
        // scratch's chain-power memo sound across interleaved views.
        let uids = [
            reg.label(r1).unwrap().uid(),
            reg.label(r1q).unwrap().uid(),
            reg.label(r2).unwrap().uid(),
        ];
        assert!(uids[0] != uids[1] && uids[1] != uids[2] && uids[0] != uids[2]);
    }

    /// Registering a structurally identical view must return the existing
    /// id and reuse its compilations — `compiled_count` is pinned to show
    /// no label is ever rebuilt for a duplicate registration.
    #[test]
    fn add_view_dedups_structurally_identical_views() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let mut reg = ViewRegistry::new();
        let u1 = reg.add_view(ex.view_u1());
        let r1 = reg.compile(&fvl, u1, VariantKind::Default).unwrap();
        assert_eq!(reg.compiled_count(), 1);

        // Same view, freshly constructed: same id, nothing recompiled.
        let again = reg.add_view(ex.view_u1());
        assert_eq!(again, u1, "structural duplicate must reuse the id");
        assert_eq!(reg.view_count(), 1);
        assert_eq!(reg.compiled_count(), 1, "dedup must not recompile");
        assert!(reg.label(r1).is_some());

        // The duplicate's handle resolves to the *existing* compilation.
        let r1_again = reg.compile(&fvl, again, VariantKind::Default).unwrap();
        assert_eq!(r1_again, r1);
        assert_eq!(reg.compiled_count(), 1);

        // A structurally different view still gets its own id.
        let u2 = reg.add_view(ex.view_u2());
        assert_ne!(u2, u1);
        assert_eq!(reg.view_count(), 2);
    }
}
