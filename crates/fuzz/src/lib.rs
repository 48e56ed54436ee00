//! `wf-fuzz` — the adversarial correctness harness.
//!
//! Everything the engine has ever been tested against came from
//! `wf-workloads`' friendly random generators: moderate sizes, mid-range
//! densities, chain-shaped nesting. Production specs and snapshot bytes
//! will not be friendly, and the paper's §3–§4 labeling schemes have sharp
//! structural edge cases — deep recursion chains, wide fan-out, dense cycle
//! structure, adversarial view partitions — that uniform sampling never
//! reaches. This crate attacks all of them, three ways:
//!
//! * [`specgen`] — a **grammar-driven spec generator**: the workflow-spec
//!   grammar itself is the fuzz grammar, and its production choices are
//!   biased toward pathological shapes (extreme-biased "bathtub" sampling
//!   of every structural dimension) under a size budget, so failing cases
//!   are small and reproduce from a printed seed.
//! * [`differential`] — a **differential harness**: every generated
//!   `(spec, view, query set)` runs through all three labeling variants
//!   *and* the naive reachability oracle over the expanded run graph
//!   ([`wf_run::RunOracle`]), asserting element-identical answers
//!   (visibility included); plus a live-engine mode that replays generated
//!   churn streams through `EngineWriter`/`LiveEngine` and compares every
//!   published generation against a sequential reference writer; plus a
//!   multi-producer mode that races producer fleets through the
//!   `IngestPipeline` and demands every published generation match a
//!   sequential replay in ticket order *and* a byte-identical recovery of
//!   the op-log prefix that produced it.
//! * [`mutate`] — a **mutation fuzzer for the persisted-store decoders**:
//!   valid `(base, log)` stores — an `EngineGeneration::save` base plus
//!   the frames `EngineWriter::publish_durable` appends — are bit-flipped,
//!   truncated, spliced, reordered and checksum-resealed (frames
//!   re-encoded) before `DurableEngine::open` recovers them; every mutant
//!   must yield a typed [`wf_snapshot::SnapshotError`] — never a panic, a
//!   hang, or a silently wrong answer (mutants that still decode are
//!   checked against the pristine state).
//! * [`crash`] — a **crash-injection campaign for the durable write
//!   path**: a metered in-memory storage kills a deterministic
//!   publish/compact schedule at every log byte, fsync, truncation and
//!   atomic-rename point; reopening the surviving bytes must rebuild a
//!   published generation byte-identically, at least as new as the last
//!   acknowledged append — no panics, no unrecoverable storage, no
//!   silent corruption.
//!
//! Reproducibility contract: every public entry point takes a `u64` seed
//! and derives per-case seeds with [`case_seed`]; any reported failure
//! prints the case seed, and re-running the same entry point with that
//! seed replays the exact case (see `examples/fuzz_sweep.rs --case`).

pub mod crash;
pub mod differential;
pub mod mutate;
pub mod report;
pub mod specgen;

pub use crash::{crash_campaign, CrashStats};
pub use differential::{
    check_live_churn, check_multi_producer, check_spec, DiffOutcome, Divergence,
};
pub use mutate::{mutation_corpus, mutation_round, MutationStats};
pub use report::FuzzReport;
pub use specgen::{adversarial_workload, SpecShape};

/// Stable per-case seed derivation: FNV-1a over (`base`, `index`), so a
/// sweep's case *i* is reproducible in isolation without replaying the
/// RNG stream of cases `0..i`.
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in base.to_le_bytes().into_iter().chain(index.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
