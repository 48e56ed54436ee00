//! Boolean reachability matrices over module ports.
//!
//! View labels in the VLDB'12 scheme are collections of small boolean
//! matrices (`λ*(S)`, and the `I`, `O`, `Z` functions of §4.3); the decoding
//! predicate π (Algorithm 2) evaluates products of such matrices, and the
//! constant-query-time argument (§4.4.3, Lemma 5) rests on the fact that the
//! monoid of `c×c` boolean matrices is finite, so powers of any matrix are
//! eventually periodic.
//!
//! This crate provides:
//! * [`BoolMat`] — a dense boolean matrix with one `u64` bitset per row
//!   (every workload in the paper has ≤ 10 ports per module; we support 64),
//!   with in-place `*_into` variants of the hot operations that reuse
//!   caller-owned buffers;
//! * [`MatPool`] — a free list of such buffers, making query evaluation
//!   allocation-free in steady state;
//! * [`PowerCache`] — the `Xᵃ = Xᵇ` cycle detection behind constant-time
//!   evaluation of long recursion chains: stored in Query-Efficient view
//!   labels, and built on first use by Default and Space-Efficient serving
//!   sessions;
//! * [`pow`] — logarithmic-time exponentiation, the reference the cache is
//!   tested against.

mod mat;
mod pool;
mod power;

pub use mat::BoolMat;
pub use pool::MatPool;
pub use power::{pow, PowerCache};

// Pools and session power caches are owned per worker scratch and move
// across threads with it; matrices and power caches are additionally
// shared read-only from frozen view labels. The parallel serving layer
// relies on these bounds holding structurally (plain owned data, no
// interior mutability).
const _: () = {
    const fn shared_across_threads<T: Send + Sync>() {}
    const fn moved_into_a_thread<T: Send>() {}
    shared_across_threads::<BoolMat>();
    shared_across_threads::<PowerCache>();
    moved_into_a_thread::<MatPool>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_smoke() {
        let id = BoolMat::identity(3);
        assert_eq!(id.matmul(&id), id);
        let cache = PowerCache::new(id.clone());
        assert_eq!(*cache.power(1_000_000), id);
    }
}
