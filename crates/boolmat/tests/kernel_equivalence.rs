//! Kernel-equivalence pins: the bit-serial matmul (with its saturated-row
//! early exit) and the scatter transpose must be element-identical to the
//! naive definitional loops on random matrices across the full dimension
//! range, including the 0-row/0-col degenerates and the 64-wide edge.

use proptest::prelude::*;
use wf_boolmat::BoolMat;

/// Definitional transpose: `out[c][r] = m[r][c]` by scalar get/set.
fn naive_transpose(m: &BoolMat) -> BoolMat {
    let mut out = BoolMat::zeros(m.cols(), m.rows());
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if m.get(r, c) {
                out.set(c, r, true);
            }
        }
    }
    out
}

/// Definitional product: the triple loop, no shortcuts.
fn naive_matmul(a: &BoolMat, b: &BoolMat) -> BoolMat {
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
}

/// Deterministic pseudo-random matrix with a mix of empty, full and
/// random rows (exercises the zero-skip and saturation shortcuts).
fn random_mat(rows: usize, cols: usize, seed: u64) -> BoolMat {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 11
    };
    let mut m = BoolMat::zeros(rows, cols);
    for r in 0..rows {
        let bits = match next() % 4 {
            0 => 0,
            1 => u64::MAX,
            _ => next(),
        };
        m.set_row_bits(r, bits);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `transpose_into` (into a dirty output) and `transpose` agree with
    /// the definitional loop for every `rows ≤ 64, cols ≤ 64` (transpose
    /// needs `rows ≤ 64` so the output fits the column bound).
    #[test]
    fn transpose_kernels_match_naive(
        rows in 0usize..=64,
        cols in 0usize..=64,
        seed in 0u64..u64::MAX,
    ) {
        let m = random_mat(rows, cols, seed);
        let expect = naive_transpose(&m);
        let mut into = BoolMat::complete(3, 3); // dirty on purpose
        m.transpose_into(&mut into);
        prop_assert_eq!(&into, &expect);
        prop_assert_eq!(&m.transpose(), &expect);
    }

    /// `matmul_into` (into a dirty output) and `matmul` agree with the
    /// triple loop across random dimensions, including the degenerate
    /// 0-row/0-col/0-inner shapes.
    #[test]
    fn matmul_kernels_match_naive(
        r in 0usize..=64,
        m in 0usize..=64,
        c in 0usize..=64,
        seed in 0u64..u64::MAX,
    ) {
        let a = random_mat(r, m, seed);
        let b = random_mat(m, c, seed.rotate_left(17) ^ 0x9E37_79B9);
        let expect = naive_matmul(&a, &b);
        let mut into = BoolMat::complete(7, 2); // dirty on purpose
        a.matmul_into(&b, &mut into);
        prop_assert_eq!(&into, &expect);
        prop_assert_eq!(&a.matmul(&b), &expect);
    }
}

/// Fixed shapes around the paper's port counts and the 64-wide edge, pinned
/// independently of the random dimension draws above.
#[test]
fn fixed_shapes_agree_with_naive() {
    for (rows, cols) in [(15, 17), (16, 16), (16, 15), (17, 15), (4, 64), (64, 4), (64, 64)] {
        let m = random_mat(rows, cols, (rows * 131 + cols) as u64);
        let mut out = BoolMat::default();
        m.transpose_into(&mut out);
        assert_eq!(out, naive_transpose(&m), "transpose at {rows}x{cols}");
    }
    for (r, m, c) in [(3, 64, 8), (4, 15, 8), (4, 16, 8), (5, 17, 9), (64, 64, 64)] {
        let a = random_mat(r, m, (r * 17 + m) as u64);
        let b = random_mat(m, c, (m * 31 + c) as u64);
        let mut out = BoolMat::default();
        a.matmul_into(&b, &mut out);
        assert_eq!(out, naive_matmul(&a, &b), "matmul at {r}x{m}x{c}");
    }
}

/// Full-width involution: a dense 64×64 random matrix survives
/// transpose∘transpose bit-for-bit.
#[test]
fn transpose_is_an_involution_at_full_width() {
    let m = random_mat(64, 64, 0xFEED_5EED);
    let mut t = BoolMat::default();
    let mut back = BoolMat::default();
    m.transpose_into(&mut t);
    t.transpose_into(&mut back);
    assert_eq!(back, m);
}
