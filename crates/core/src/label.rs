//! Data labels (§4.2.2): the view-independent half of the scheme.

use std::sync::Arc;
use wf_run::EdgeLabel;

/// The label of one port of one data item: the compressed-parse-tree path
/// from the root to the node of the module where the port was *first
/// created*, followed by the port index within that module.
///
/// Every port of one module instance carries the same path, so the path is
/// shared and immutable: the labelers build each instance's path once
/// ([`wf_run::CompressedTree::fresh_path`]) and every port label on that
/// instance holds the same allocation. Cloning a port label is a refcount
/// bump; equality, hashing and the wire form see only the edges.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PortLabel {
    pub path: Arc<[EdgeLabel]>,
    pub port: u8,
}

impl PortLabel {
    pub fn new(path: impl Into<Arc<[EdgeLabel]>>, port: u8) -> Self {
        Self { path: path.into(), port }
    }

    /// A borrowed view of this port label for the slice-based query path.
    #[inline]
    pub fn to_ref(&self) -> PortRef<'_> {
        PortRef { path: &self.path, port: self.port }
    }
}

/// A borrowed port label: the form the decoding predicate actually
/// evaluates. Owning [`PortLabel`]s convert via [`PortLabel::to_ref`];
/// interned stores (the `wf-engine` label store) build these directly over
/// their own path storage, so querying never materializes owned labels.
#[derive(Clone, Copy, Debug)]
pub struct PortRef<'a> {
    pub path: &'a [EdgeLabel],
    pub port: u8,
}

impl PortRef<'_> {
    /// Number of shared leading edge labels with another port label — the
    /// common prefix the wire encoding factors out ("the size of φr(d) can
    /// be reduced almost by half by factoring out the common prefix").
    pub fn common_prefix_len(&self, other: &PortRef<'_>) -> usize {
        self.path.iter().zip(other.path).take_while(|(a, b)| a == b).count()
    }
}

/// The label of a data item: producer-side and consumer-side port labels.
/// `out` is `None` for the run's initial inputs, `inp` is `None` for its
/// final outputs. Assigned once, never modified (Definition 10), which is
/// what lets its two paths be shared with every other label on the same
/// instances: cloning a data label is two refcount bumps, not two path
/// copies. This owned form is what producers, the wire and the ingest queue
/// carry; a store interns its paths ([`LabelRef`] is the borrowed form).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataLabel {
    /// φr(o): label of the producing output port.
    pub out: Option<PortLabel>,
    /// φr(i): label of the consuming input port.
    pub inp: Option<PortLabel>,
}

impl DataLabel {
    pub fn intermediate(out: PortLabel, inp: PortLabel) -> Self {
        Self { out: Some(out), inp: Some(inp) }
    }

    pub fn initial_input(inp: PortLabel) -> Self {
        Self { out: None, inp: Some(inp) }
    }

    pub fn final_output(out: PortLabel) -> Self {
        Self { out: Some(out), inp: None }
    }

    pub fn is_initial_input(&self) -> bool {
        self.out.is_none()
    }

    pub fn is_final_output(&self) -> bool {
        self.inp.is_none()
    }

    /// A borrowed view of this label for the slice-based query path.
    #[inline]
    pub fn to_ref(&self) -> LabelRef<'_> {
        LabelRef {
            out: self.out.as_ref().map(PortLabel::to_ref),
            inp: self.inp.as_ref().map(PortLabel::to_ref),
        }
    }
}

/// A borrowed data label ([`DataLabel`] is the owning form). `Copy`, so the
/// query entry points take it by value.
#[derive(Clone, Copy, Debug)]
pub struct LabelRef<'a> {
    pub out: Option<PortRef<'a>>,
    pub inp: Option<PortRef<'a>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::ProdId;

    fn plain(k: u32, i: u32) -> EdgeLabel {
        EdgeLabel::Plain { k: ProdId(k), i }
    }

    #[test]
    fn common_prefix() {
        let a = PortLabel::new(vec![plain(0, 1), plain(2, 3), plain(4, 5)], 0);
        let b = PortLabel::new(vec![plain(0, 1), plain(2, 3), plain(4, 6)], 1);
        let c = PortLabel::new(vec![plain(9, 9)], 0);
        let (a, b, c) = (a.to_ref(), b.to_ref(), c.to_ref());
        assert_eq!(a.common_prefix_len(&b), 2);
        assert_eq!(a.common_prefix_len(&c), 0);
        assert_eq!(a.common_prefix_len(&a), 3);
    }

    #[test]
    fn boundary_constructors() {
        let p = PortLabel::new(vec![], 1);
        assert!(DataLabel::initial_input(p.clone()).is_initial_input());
        assert!(!DataLabel::initial_input(p.clone()).is_final_output());
        assert!(DataLabel::final_output(p.clone()).is_final_output());
        let d = DataLabel::intermediate(p.clone(), p);
        assert!(!d.is_initial_input());
        assert!(!d.is_final_output());
    }
}
