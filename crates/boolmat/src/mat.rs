//! Dense boolean matrices with bitset rows.

/// A boolean matrix with up to 64 columns, one `u64` bitset per row.
///
/// Rows index the *from* side of a reachability relation, columns the *to*
/// side; `m.get(r, c)` reads "column-c port is reachable from row-r port".
/// The 64-column bound comfortably covers the paper's workloads (modules
/// have at most 10 ports in every experiment, §6.5).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BoolMat {
    rows: u16,
    cols: u16,
    data: Vec<u64>,
}

impl BoolMat {
    /// All-false matrix ("empty matrix" in the paper's terms).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(cols <= 64, "BoolMat supports at most 64 columns (got {cols})");
        assert!(rows <= u16::MAX as usize);
        Self { rows: rows as u16, cols: cols as u16, data: vec![0; rows] }
    }

    /// All-true matrix ("complete matrix": black-box dependencies).
    pub fn complete(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        let mask = Self::col_mask(cols);
        for row in &mut m.data {
            *row = mask;
        }
        m
    }

    /// Identity matrix (reflexive reachability: "a vertex is reachable from
    /// itself", footnote 4 of the paper).
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i] = 1u64 << i;
        }
        m
    }

    /// Re-dimensions the matrix to an all-false `rows × cols`, reusing the
    /// existing row storage (no allocation once capacity suffices) — the
    /// workhorse behind the `*_into` operations and [`crate::MatPool`].
    #[inline]
    pub fn reset(&mut self, rows: usize, cols: usize) {
        assert!(cols <= 64, "BoolMat supports at most 64 columns (got {cols})");
        assert!(rows <= u16::MAX as usize);
        self.rows = rows as u16;
        self.cols = cols as u16;
        self.data.clear();
        self.data.resize(rows, 0);
    }

    /// Turns the matrix into the `n × n` identity in place (cf.
    /// [`BoolMat::identity`], without the allocation).
    #[inline]
    pub fn assign_identity(&mut self, n: usize) {
        self.reset(n, n);
        for i in 0..n {
            self.data[i] = 1u64 << i;
        }
    }

    /// Makes `self` a copy of `other`, reusing storage.
    #[inline]
    pub fn copy_from(&mut self, other: &BoolMat) {
        self.rows = other.rows;
        self.cols = other.cols;
        self.data.clear();
        self.data.extend_from_slice(&other.data);
    }

    /// Builds a matrix from `(row, col)` pairs.
    pub fn from_pairs(
        rows: usize,
        cols: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for (r, c) in pairs {
            m.set(r, c, true);
        }
        m
    }

    #[inline]
    fn col_mask(cols: usize) -> u64 {
        if cols >= 64 {
            u64::MAX
        } else {
            (1u64 << cols) - 1
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows as usize
    }

    /// Allocated row capacity — lets callers (and tests) check that the
    /// in-place operations really reuse storage.
    #[inline]
    pub fn row_capacity(&self) -> usize {
        self.data.capacity()
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols as usize
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.rows as usize && c < self.cols as usize);
        (self.data[r] >> c) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        debug_assert!(r < self.rows as usize && c < self.cols as usize);
        if v {
            self.data[r] |= 1u64 << c;
        } else {
            self.data[r] &= !(1u64 << c);
        }
    }

    /// The whole row as a bitset.
    #[inline]
    pub fn row_bits(&self, r: usize) -> u64 {
        self.data[r]
    }

    /// Sets a whole row from a bitset (bits past `cols` are masked off).
    #[inline]
    pub fn set_row_bits(&mut self, r: usize, bits: u64) {
        self.data[r] = bits & Self::col_mask(self.cols as usize);
    }

    /// True iff no entry is set ("empty matrix, with only false values").
    pub fn is_empty(&self) -> bool {
        self.data.iter().all(|&r| r == 0)
    }

    /// True iff every entry is set (complete / black-box matrix).
    pub fn is_complete(&self) -> bool {
        let mask = Self::col_mask(self.cols as usize);
        self.cols == 0 || self.data.iter().all(|&r| r == mask)
    }

    /// Number of true entries.
    pub fn count_ones(&self) -> usize {
        self.data.iter().map(|r| r.count_ones() as usize).sum()
    }

    /// Boolean matrix product: `self` is `r×m`, `other` is `m×c`.
    ///
    /// `result[i][j] = ⋁ₖ self[i][k] ∧ other[k][j]` — relation composition,
    /// i.e. "first traverse `self`, then `other`". This is the orientation
    /// Algorithm 2 uses when chaining `Inputs`/`Outputs` products along parse
    /// tree paths.
    ///
    /// Implementation: for each set bit `k` of a row of `self`, OR in row `k`
    /// of `other` — no inner boolean loop.
    pub fn matmul(&self, other: &BoolMat) -> BoolMat {
        assert_eq!(
            self.cols, other.rows,
            "dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = BoolMat::zeros(self.rows as usize, other.cols as usize);
        self.matmul_bits(other, &mut out);
        out
    }

    /// [`BoolMat::matmul`] writing into a caller-owned matrix (the query hot
    /// path reuses one scratch matrix per product instead of allocating).
    /// `out` is re-dimensioned to `self.rows × other.cols`; it must not
    /// alias `self` or `other` (guaranteed by `&mut` exclusivity).
    #[inline]
    pub fn matmul_into(&self, other: &BoolMat, out: &mut BoolMat) {
        debug_assert_eq!(
            self.cols, other.rows,
            "dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reset(self.rows as usize, other.cols as usize);
        self.matmul_bits(other, out);
    }

    /// The product kernel behind [`BoolMat::matmul`] and
    /// [`BoolMat::matmul_into`] (`out` already reset to the result shape).
    fn matmul_bits(&self, other: &BoolMat, out: &mut BoolMat) {
        let full = Self::col_mask(other.cols as usize);
        for (i, &row) in self.data.iter().enumerate() {
            // All-zero source rows contribute nothing; `out` is freshly
            // reset, so the zero result is already in place.
            if row == 0 {
                continue;
            }
            let mut bits = row;
            let mut acc = 0u64;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                acc |= other.data[k];
                if acc == full {
                    // The row saturated every column: no further source bit
                    // can add anything (reachability rows close fast, so
                    // this fires often on transitively-closed matrices).
                    break;
                }
                bits &= bits - 1;
            }
            out.data[i] = acc;
        }
    }

    /// Matrix transpose. Algorithm 2 transposes the accumulated `Outputs`
    /// chain (`Oᵀ × Z × I`).
    pub fn transpose(&self) -> BoolMat {
        let mut out = BoolMat::zeros(self.cols as usize, self.rows as usize);
        self.transpose_bits(&mut out);
        out
    }

    /// [`BoolMat::transpose`] into a caller-owned matrix (re-dimensioned to
    /// `cols × rows`; must not alias `self`).
    #[inline]
    pub fn transpose_into(&self, out: &mut BoolMat) {
        out.reset(self.cols as usize, self.rows as usize);
        self.transpose_bits(out);
    }

    /// The transpose kernel behind [`BoolMat::transpose`] and
    /// [`BoolMat::transpose_into`]: scatter each set bit `(r, c)` to
    /// `(c, r)` of the reset `out`.
    fn transpose_bits(&self, out: &mut BoolMat) {
        for r in 0..self.rows as usize {
            let mut bits = self.data[r];
            while bits != 0 {
                let c = bits.trailing_zeros() as usize;
                out.data[c] |= 1u64 << r;
                bits &= bits - 1;
            }
        }
    }

    /// True iff `self[r][c] ⇒ other[r][c]` for all entries (`⊆` on relations).
    pub fn is_subset_of(&self, other: &BoolMat) -> bool {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).all(|(&a, &b)| a & !b == 0)
    }

    /// Iterates over the true `(row, col)` entries.
    pub fn iter_ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.data.iter().enumerate().flat_map(|(r, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let c = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some((r, c))
            })
        })
    }

    /// Storage size of the matrix payload in bits (used when measuring view
    /// label sizes, Figure 19).
    pub fn payload_bits(&self) -> usize {
        self.rows as usize * self.cols as usize
    }
}

/// The empty `0 × 0` matrix — what [`crate::MatPool::take`] hands out when
/// the pool is dry (every `*_into` operation re-dimensions its output).
impl Default for BoolMat {
    fn default() -> Self {
        BoolMat::zeros(0, 0)
    }
}

impl std::fmt::Debug for BoolMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "BoolMat {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows as usize {
            write!(f, "  ")?;
            for c in 0..self.cols as usize {
                write!(f, "{}", if self.get(r, c) { '1' } else { '0' })?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_complete() {
        let z = BoolMat::zeros(3, 5);
        assert!(z.is_empty());
        assert!(!z.is_complete());
        let c = BoolMat::complete(3, 5);
        assert!(c.is_complete());
        assert!(!c.is_empty());
        assert_eq!(c.count_ones(), 15);
    }

    #[test]
    fn zero_dimension_matrices() {
        let m = BoolMat::zeros(0, 5);
        assert!(m.is_empty());
        let m2 = BoolMat::zeros(3, 0);
        assert!(m2.is_empty());
        assert!(m2.is_complete()); // vacuously complete
                                   // Products through a zero dimension yield all-false.
        let a = BoolMat::complete(2, 0);
        let b = BoolMat::complete(0, 3);
        let p = a.matmul(&b);
        assert_eq!((p.rows(), p.cols()), (2, 3));
        assert!(p.is_empty());
    }

    #[test]
    fn matmul_is_relation_composition() {
        // a: {0->1}, b: {1->2}; a;b = {0->2}.
        let a = BoolMat::from_pairs(2, 2, [(0, 1)]);
        let b = BoolMat::from_pairs(2, 3, [(1, 2)]);
        let p = a.matmul(&b);
        assert!(p.get(0, 2));
        assert_eq!(p.count_ones(), 1);
    }

    #[test]
    fn identity_is_neutral() {
        let m = BoolMat::from_pairs(4, 4, [(0, 1), (1, 3), (2, 2), (3, 0)]);
        assert_eq!(BoolMat::identity(4).matmul(&m), m);
        assert_eq!(m.matmul(&BoolMat::identity(4)), m);
    }

    #[test]
    fn matmul_not_commutative() {
        let a = BoolMat::from_pairs(2, 2, [(0, 1)]);
        let b = BoolMat::from_pairs(2, 2, [(1, 0)]);
        assert_ne!(a.matmul(&b), b.matmul(&a));
    }

    #[test]
    fn transpose_involution() {
        let m = BoolMat::from_pairs(3, 5, [(0, 4), (1, 0), (2, 3)]);
        assert_eq!(m.transpose().transpose(), m);
        assert!(m.transpose().get(4, 0));
    }

    #[test]
    fn empty_matrix_annihilates() {
        // Z(k,i,j) with i >= j is empty; any product through it is empty
        // (the short-circuit Algorithm 2 exploits at lines 25-27).
        let o = BoolMat::complete(3, 4);
        let z = BoolMat::zeros(4, 2);
        let i = BoolMat::complete(2, 5);
        assert!(o.matmul(&z).matmul(&i).is_empty());
    }

    #[test]
    fn subset_relation() {
        let small = BoolMat::from_pairs(2, 2, [(0, 0)]);
        let big = BoolMat::from_pairs(2, 2, [(0, 0), (1, 1)]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(big.is_subset_of(&big));
    }

    #[test]
    fn iter_ones_matches_get() {
        let m = BoolMat::from_pairs(4, 6, [(0, 5), (2, 0), (3, 3), (3, 4)]);
        let ones: Vec<_> = m.iter_ones().collect();
        assert_eq!(ones, vec![(0, 5), (2, 0), (3, 3), (3, 4)]);
    }

    #[test]
    fn matmul_into_matches_matmul_and_reuses_storage() {
        let a = BoolMat::from_pairs(3, 4, [(0, 1), (1, 3), (2, 0)]);
        let b = BoolMat::from_pairs(4, 5, [(1, 2), (3, 4), (0, 0)]);
        let mut out = BoolMat::zeros(7, 7); // wrong dims on purpose
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Stale contents never leak through a reset.
        let mut dirty = BoolMat::complete(3, 5);
        a.matmul_into(&b, &mut dirty);
        assert_eq!(dirty, a.matmul(&b));
    }

    #[test]
    fn transpose_into_matches_transpose() {
        let m = BoolMat::from_pairs(3, 5, [(0, 4), (1, 0), (2, 3)]);
        let mut out = BoolMat::complete(1, 1);
        m.transpose_into(&mut out);
        assert_eq!(out, m.transpose());
    }

    #[test]
    fn reset_and_assign_identity_reuse_capacity() {
        let mut m = BoolMat::complete(8, 8);
        let cap = m.row_capacity();
        m.reset(4, 6);
        assert_eq!((m.rows(), m.cols()), (4, 6));
        assert!(m.is_empty());
        assert_eq!(m.row_capacity(), cap, "reset must not shrink capacity");
        m.assign_identity(5);
        assert_eq!(m, BoolMat::identity(5));
        let mut c = BoolMat::default();
        c.copy_from(&m);
        assert_eq!(c, m);
    }

    /// `matmul_bits` carries two shortcuts (zero-row skip, saturated-row
    /// early exit); pin its output to the definitional triple loop on
    /// pseudo-random matrices, deliberately including all-zero rows,
    /// saturating rows, and the 0-column edge.
    #[test]
    fn matmul_matches_naive_product_on_random_matrices() {
        let naive = |a: &BoolMat, b: &BoolMat| {
            let mut out = BoolMat::zeros(a.rows(), b.cols());
            for i in 0..a.rows() {
                for j in 0..b.cols() {
                    let mut v = false;
                    for k in 0..a.cols() {
                        v = v || (a.get(i, k) && b.get(k, j));
                    }
                    out.set(i, j, v);
                }
            }
            out
        };
        let mut seed = 0xD1B5_4A32u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            seed >> 33
        };
        for trial in 0..200 {
            let (r, m, c) = (1 + trial % 7, 1 + (trial / 7) % 9, (trial / 63) % 11);
            let mut a = BoolMat::zeros(r, m);
            let mut b = BoolMat::zeros(m, c);
            for i in 0..r {
                // Every fourth row all-zero (exercises the skip); every
                // fifth all-ones (drives saturation in one step).
                let bits = match i % 5 {
                    0 if i % 4 == 0 => 0,
                    4 => u64::MAX,
                    _ => next(),
                };
                a.set_row_bits(i, bits);
            }
            for k in 0..m {
                b.set_row_bits(k, if k % 3 == 0 { u64::MAX } else { next() });
            }
            assert_eq!(a.matmul(&b), naive(&a, &b), "trial {trial}: {r}x{m} * {m}x{c}");
            // The in-place form must agree bit-for-bit, even over a dirty
            // output buffer.
            let mut out = BoolMat::complete(3, 3);
            a.matmul_into(&b, &mut out);
            assert_eq!(out, naive(&a, &b), "trial {trial} (into)");
        }
    }

    #[test]
    fn full_width_64_columns() {
        let m = BoolMat::complete(2, 64);
        assert!(m.is_complete());
        assert_eq!(m.row_bits(0), u64::MAX);
        let p = m.matmul(&BoolMat::identity(64));
        assert!(p.is_complete());
    }
}
