//! Bit-level (de)serialization hooks for persisted engines.
//!
//! The §5 codec ([`crate::LabelCodec`]) defines the wire format of *data*
//! labels; this module adds the remaining primitives a snapshot of a serving
//! engine needs: boolean matrices and (partial) dependency assignments, both
//! written through [`wf_bitio`]'s appending writer so a snapshot is one
//! contiguous bit stream. The container format around these primitives
//! (header, versioning, checksum) lives in `wf-snapshot`; the engine-side
//! sections (label-store trie, view registry) live in `wf-engine`.
//!
//! Every reader is panic-free on arbitrary input: structural violations
//! (matrix wider than the 64-column [`BoolMat`] bound, module index past the
//! caller's cap, …) surface as [`ReadError::Malformed`], never as a panic —
//! a snapshot loaded from disk is untrusted input.

use wf_bitio::{BitReader, BitWriter, ReadError};
use wf_boolmat::BoolMat;
use wf_model::{DepAssignment, ModuleId};

/// Writes a matrix: γ-coded dimensions, then one `cols`-wide field per row.
pub fn write_mat(w: &mut BitWriter, m: &BoolMat) {
    w.write_gamma(m.rows() as u64 + 1);
    w.write_gamma(m.cols() as u64 + 1);
    for r in 0..m.rows() {
        w.write_bits(m.row_bits(r), m.cols() as u32);
    }
}

/// Reads a matrix (inverse of [`write_mat`]). Rejects more columns than
/// [`BoolMat`] holds, more rows than a module has ports (a port count is a
/// `u8`, and every persisted matrix maps ports to ports), and a
/// `rows × cols` payload longer than the bits left in `r`, *before*
/// constructing anything.
pub fn read_mat(r: &mut BitReader<'_>) -> Result<BoolMat, ReadError> {
    let rows = (r.read_gamma()? - 1) as usize;
    let cols = (r.read_gamma()? - 1) as usize;
    if cols > 64 || rows > u8::MAX as usize {
        return Err(ReadError::Malformed);
    }
    if rows * cols > r.remaining() {
        return Err(ReadError::OutOfBits);
    }
    let mut m = BoolMat::zeros(rows, cols);
    for row in 0..rows {
        m.set_row_bits(row, r.read_bits(cols as u32)?);
    }
    Ok(m)
}

/// Writes a dependency assignment: γ-coded entry count, then per entry the
/// γ-coded module index and its matrix.
pub fn write_deps(w: &mut BitWriter, d: &DepAssignment) {
    w.write_gamma(d.iter().count() as u64 + 1);
    for (m, mat) in d.iter() {
        w.write_gamma(m.0 as u64 + 1);
        write_mat(w, mat);
    }
}

/// Reads a dependency assignment (inverse of [`write_deps`]). `max_modules`
/// caps the module indices (the caller passes its grammar's module count),
/// so corrupt input cannot drive an unbounded allocation. Entries must be
/// strictly increasing — the order [`write_deps`] emits — so duplicate
/// indices (which `DepAssignment::set` would silently collapse, breaking
/// re-save byte identity) are rejected as malformed, and the encoding is
/// canonical.
pub fn read_deps(r: &mut BitReader<'_>, max_modules: usize) -> Result<DepAssignment, ReadError> {
    let count = (r.read_gamma()? - 1) as usize;
    if count > max_modules {
        return Err(ReadError::Malformed);
    }
    let mut d = DepAssignment::new();
    let mut prev: Option<usize> = None;
    for _ in 0..count {
        let idx = (r.read_gamma()? - 1) as usize;
        if idx >= max_modules || prev.is_some_and(|p| idx <= p) {
            return Err(ReadError::Malformed);
        }
        prev = Some(idx);
        d.set(ModuleId(idx as u32), read_mat(r)?);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_bitio::BitVec;

    fn roundtrip_mat(m: &BoolMat) -> BoolMat {
        let mut w = BitWriter::new();
        write_mat(&mut w, m);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        let back = read_mat(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        back
    }

    #[test]
    fn mat_roundtrips() {
        for m in [
            BoolMat::zeros(0, 0),
            BoolMat::zeros(3, 0),
            BoolMat::zeros(0, 7),
            BoolMat::identity(5),
            BoolMat::complete(2, 64),
            BoolMat::from_pairs(4, 6, [(0, 5), (2, 0), (3, 3)]),
        ] {
            assert_eq!(roundtrip_mat(&m), m);
        }
    }

    #[test]
    fn mat_rejects_oversized_dimensions() {
        let mut w = BitWriter::new();
        w.write_gamma(2); // 1 row
        w.write_gamma(66); // 65 columns: over the BoolMat bound
        w.write_bits(0, 64);
        let bits = w.finish();
        assert_eq!(read_mat(&mut BitReader::new(&bits)), Err(ReadError::Malformed));
        let empty = BitVec::new();
        assert_eq!(read_mat(&mut BitReader::new(&empty)), Err(ReadError::OutOfBits));
    }

    #[test]
    fn deps_roundtrip_and_cap() {
        let mut d = DepAssignment::new();
        d.set(ModuleId(0), BoolMat::identity(2));
        d.set(ModuleId(7), BoolMat::complete(1, 3));
        let mut w = BitWriter::new();
        write_deps(&mut w, &d);
        let bits = w.finish();
        let back = read_deps(&mut BitReader::new(&bits), 8).unwrap();
        assert_eq!(back.iter().count(), 2);
        assert_eq!(back.get(ModuleId(7)), d.get(ModuleId(7)));
        assert_eq!(back.get(ModuleId(0)), d.get(ModuleId(0)));
        // The same stream read under a tighter cap is rejected, not allocated.
        assert!(matches!(read_deps(&mut BitReader::new(&bits), 7), Err(ReadError::Malformed)));
    }

    #[test]
    fn deps_reject_duplicate_and_unordered_entries() {
        // Two entries for the same module would silently collapse through
        // DepAssignment::set (breaking re-save byte identity), and
        // out-of-order entries break the canonical encoding — both are
        // malformed, not accepted.
        for indices in [[3u64, 3], [4, 2]] {
            let mut w = BitWriter::new();
            w.write_gamma(3); // two entries
            for idx in indices {
                w.write_gamma(idx + 1);
                write_mat(&mut w, &BoolMat::identity(1));
            }
            let bits = w.finish();
            assert!(
                matches!(read_deps(&mut BitReader::new(&bits), 8), Err(ReadError::Malformed)),
                "{indices:?}"
            );
        }
    }
}
