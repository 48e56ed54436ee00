//! Powers of a square boolean matrix: logarithmic-time exponentiation and
//! the eventually-periodic power cache behind constant-time queries.
//!
//! §4.4.3 of the paper: a recursion chain of length `i` requires the product
//! of `i−1` per-step matrices. The per-step matrices repeat with the cycle
//! length `l`, so the product reduces to `X^⌊(i−1)/l⌋ · (prefix)` where `X`
//! is the product over one full cycle. Because there are at most `2^(c²)`
//! distinct `c×c` boolean matrices, the sequence `X¹, X², …` must enter a
//! cycle: there exist `a < b ≤ 2^(c²)+1` with `Xᵃ = Xᵇ`. [`PowerCache`]
//! finds `(a, b)` once and afterwards answers `Xᵉ` for any `e ≥ 1` in O(1).
//! Query-Efficient labels store one per cycle offset and direction; Default
//! and Space-Efficient serving sessions build the same cache on first use.

use crate::BoolMat;

/// Computes `x^e` for `e >= 0` by binary exponentiation (`x⁰ = I`) — the
/// "divide and conquer … runs in O(log i) time" evaluation of §4.4.3, kept
/// as the reference [`PowerCache`] is checked against.
///
/// The accumulator starts from the lowest *set* bit of `e` rather than the
/// identity, so when `e` is a power of two the whole computation is exactly
/// `log₂ e` squarings plus one copy — no trailing `I · x^e` multiply.
pub fn pow(x: &BoolMat, e: u64) -> BoolMat {
    assert_eq!(x.rows(), x.cols(), "pow requires a square matrix");
    if e == 0 {
        return BoolMat::identity(x.rows());
    }
    let mut base = x.clone();
    let mut tmp = BoolMat::default();
    let mut e = e;
    // Square past the trailing zero bits without touching the accumulator.
    while e & 1 == 0 {
        base.matmul_into(&base, &mut tmp);
        std::mem::swap(&mut base, &mut tmp);
        e >>= 1;
    }
    let mut out = base.clone();
    e >>= 1;
    while e > 0 {
        base.matmul_into(&base, &mut tmp);
        std::mem::swap(&mut base, &mut tmp);
        if e & 1 == 1 {
            out.matmul_into(&base, &mut tmp);
            std::mem::swap(&mut out, &mut tmp);
        }
        e >>= 1;
    }
    out
}

/// Materialized powers `X¹ … X^(b−1)` of a square boolean matrix together
/// with the cycle parameters `(a, b)` such that `Xᵃ = Xᵇ`, giving O(1)
/// lookup of `Xᵉ` for arbitrary `e`.
///
/// This is what Query-Efficient FVL stores per recursion in the view label
/// ("materialize a and b, as well as X¹, X², …" — §4.4.3).
#[derive(Clone, Debug)]
pub struct PowerCache {
    /// `powers[p - 1] = X^p` for `p = 1 ..= b - 1`.
    powers: Vec<BoolMat>,
    /// Smallest exponent from which the power sequence is periodic.
    a: u64,
    /// Smallest exponent `> a` with `X^b = X^a`; the period is `b - a`.
    b: u64,
    /// Identity of the same dimension, returned for `e = 0`.
    identity: BoolMat,
}

impl PowerCache {
    /// Builds the cache by stepping through `X¹, X², …` until a repeat.
    ///
    /// In practice `a` and `b` are tiny (the paper: "a, b and c are all
    /// small constants"); reachability matrices are transitively closed very
    /// quickly, typically within a handful of steps. `b` being small is also
    /// why the repeat scan compares against the stored powers directly
    /// instead of hashing them into a side table.
    pub fn new(x: BoolMat) -> Self {
        assert_eq!(x.rows(), x.cols(), "PowerCache requires a square matrix");
        let identity = BoolMat::identity(x.rows());
        let mut powers = vec![x];
        loop {
            // powers holds X¹ … Xⁿ and next == X^(n+1); a match at index
            // `first` means X^(first+1) == X^(n+1), so (a, b) = (first+1, n+1).
            let next = powers[powers.len() - 1].matmul(&powers[0]);
            if let Some(first) = powers.iter().position(|p| *p == next) {
                let b = powers.len() as u64 + 1;
                return Self { powers, a: first as u64 + 1, b, identity };
            }
            powers.push(next);
        }
    }

    /// Reassembles a cache from its stored parts (the inverse of reading
    /// `pre_period` / `repeat_at` / `power(1..b)` — what a persisted
    /// snapshot holds). Returns `None` unless the parts describe a valid
    /// periodic power sequence: `1 ≤ a < b`, exactly `b − 1` square stored
    /// powers of one dimension, each the successor-product of the previous,
    /// and `X^(b−1) · X = X^a`. The result is therefore *internally
    /// consistent* — every answer really is a power of the stored base and
    /// the periodic folding is sound — though whether that base is the
    /// matrix the caller expects is the caller's (or a checksum's) concern.
    pub fn from_parts(powers: Vec<BoolMat>, a: u64, b: u64) -> Option<Self> {
        if a == 0 || a >= b || powers.len() as u64 != b - 1 {
            return None;
        }
        let n = powers[0].rows();
        if powers.iter().any(|p| p.rows() != n || p.cols() != n) {
            return None;
        }
        for w in powers.windows(2) {
            if w[0].matmul(&powers[0]) != w[1] {
                return None;
            }
        }
        let wrap = powers[powers.len() - 1].matmul(&powers[0]);
        if wrap != powers[(a - 1) as usize] {
            return None;
        }
        Some(Self { powers, a, b, identity: BoolMat::identity(n) })
    }

    /// The pre-period length `a` (first exponent of the periodic part).
    pub fn pre_period(&self) -> u64 {
        self.a
    }

    /// The exponent `b > a` with `X^b = X^a`.
    pub fn repeat_at(&self) -> u64 {
        self.b
    }

    /// Number of matrices materialized (`b − 1`).
    pub fn stored(&self) -> usize {
        self.powers.len()
    }

    /// Returns `Xᵉ` in O(1).
    pub fn power(&self, e: u64) -> &BoolMat {
        if e == 0 {
            return &self.identity;
        }
        if e < self.b {
            return &self.powers[(e - 1) as usize];
        }
        let period = self.b - self.a;
        let folded = self.a + (e - self.a) % period;
        &self.powers[(folded - 1) as usize]
    }

    /// Total payload bits of the stored matrices — the "small extra space
    /// overhead" of Query-Efficient FVL measured in Figure 19.
    pub fn payload_bits(&self) -> usize {
        self.powers.iter().map(|m| m.payload_bits()).sum::<usize>() + self.identity.payload_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow_zero_is_identity() {
        let x = BoolMat::from_pairs(3, 3, [(0, 1), (1, 2)]);
        assert_eq!(pow(&x, 0), BoolMat::identity(3));
    }

    #[test]
    fn pow_matches_iterated_product() {
        let x = BoolMat::from_pairs(4, 4, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]);
        let mut acc = BoolMat::identity(4);
        for e in 0..20u64 {
            assert_eq!(pow(&x, e), acc, "e={e}");
            acc = acc.matmul(&x);
        }
    }

    #[test]
    fn nilpotent_matrix_powers_vanish() {
        // Strictly upper-triangular: x^3 = 0 for 3x3.
        let x = BoolMat::from_pairs(3, 3, [(0, 1), (1, 2)]);
        assert!(pow(&x, 3).is_empty());
        let cache = PowerCache::new(x);
        assert!(cache.power(3).is_empty());
        assert!(cache.power(1_000_000_007).is_empty());
    }

    #[test]
    fn permutation_matrix_is_purely_periodic() {
        // A 3-cycle permutation: period 3, pre-period... X^1 != X^4? X^4 = X.
        let x = BoolMat::from_pairs(3, 3, [(0, 1), (1, 2), (2, 0)]);
        let cache = PowerCache::new(x.clone());
        assert_eq!(cache.pre_period(), 1);
        assert_eq!(cache.repeat_at(), 4);
        for e in 1..50u64 {
            assert_eq!(*cache.power(e), pow(&x, e), "e={e}");
        }
    }

    #[test]
    fn idempotent_matrix_fixes_immediately() {
        // Reflexive transitive matrices are idempotent: X^2 = X.
        let x = BoolMat::from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)]);
        let cache = PowerCache::new(x.clone());
        assert_eq!(cache.repeat_at(), 2);
        assert_eq!(*cache.power(7), x);
    }

    #[test]
    fn cache_agrees_with_pow_on_random_like_matrices() {
        // Deterministic pseudo-random fill; cross-validate the two
        // implementations over a range of exponents.
        let mut seed = 0x9E37_79B9u64;
        for trial in 0..50 {
            let n = 1 + (trial % 6);
            let mut x = BoolMat::zeros(n, n);
            for r in 0..n {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x.set_row_bits(r, seed >> 32);
            }
            let cache = PowerCache::new(x.clone());
            for e in [0u64, 1, 2, 3, 5, 8, 13, 100, 12345] {
                assert_eq!(*cache.power(e), pow(&x, e), "trial={trial} e={e}");
            }
        }
    }

    #[test]
    fn pow_of_power_of_two_matches_iterated_product() {
        // The power-of-two fast path (squarings + copy, no identity
        // multiply) must stay value-correct.
        let x = BoolMat::from_pairs(3, 3, [(0, 1), (1, 2), (2, 0), (0, 0)]);
        for k in 0..9u64 {
            let mut m = BoolMat::identity(3);
            for _ in 0..(1u64 << k) {
                m = m.matmul(&x);
            }
            assert_eq!(pow(&x, 1 << k), m, "e=2^{k}");
        }
    }

    #[test]
    fn from_parts_roundtrips_and_rejects_forgeries() {
        let x = BoolMat::from_pairs(3, 3, [(0, 1), (1, 2), (2, 0)]);
        let cache = PowerCache::new(x.clone());
        let (a, b) = (cache.pre_period(), cache.repeat_at());
        let powers: Vec<BoolMat> = (1..b).map(|e| cache.power(e).clone()).collect();
        let back = PowerCache::from_parts(powers.clone(), a, b).expect("valid parts");
        for e in 0..50u64 {
            assert_eq!(back.power(e), cache.power(e), "e={e}");
        }
        // Degenerate shapes.
        assert!(PowerCache::from_parts(powers.clone(), 0, b).is_none(), "a = 0");
        assert!(PowerCache::from_parts(powers.clone(), b, b).is_none(), "a >= b");
        assert!(PowerCache::from_parts(powers.clone(), a, b + 1).is_none(), "count mismatch");
        // A tampered matrix breaks the successor-product chain.
        let mut forged = powers.clone();
        let last = forged.len() - 1;
        forged[last] = powers[0].clone(); // X³ := X breaks X²·X = X³
        assert!(PowerCache::from_parts(forged, a, b).is_none(), "forged chain");
        // A wrong wrap-around exponent is caught even with a valid chain.
        let idem = BoolMat::from_pairs(2, 2, [(0, 0), (0, 1), (1, 1)]);
        let c2 = PowerCache::new(idem);
        let p2: Vec<BoolMat> = (1..c2.repeat_at()).map(|e| c2.power(e).clone()).collect();
        assert!(PowerCache::from_parts(p2, c2.pre_period(), c2.repeat_at()).is_some());
    }

    #[test]
    fn payload_bits_counts_all_matrices() {
        let x = BoolMat::from_pairs(2, 2, [(0, 1)]);
        let cache = PowerCache::new(x);
        // x^2 = 0, x^3 = 0 => b found quickly; at least identity + x stored.
        assert!(cache.payload_bits() >= 8);
    }
}
