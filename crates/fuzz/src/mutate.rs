//! Mutation fuzzing of the persisted-store decoders.
//!
//! The corpus is a set of *valid* durable stores — a base snapshot from
//! [`EngineGeneration::save`] plus an op-log of checksummed frames, one
//! delta record each, appended by `EngineWriter::publish_durable` — over
//! different specs (so cross-store splices exercise the fingerprint check,
//! not just the chain check). One store's base covers a publish whose
//! frame is still in its log, as after a crash between a compaction's base
//! rename and its log rewrite, so stale-frame skipping is in play too.
//! Every mutant is a `(base, log)` pair recovered by
//! [`DurableEngine::open`] over [`MemStorage::with_state`]. Mutants are
//! produced by bit flips, byte stomps, truncations, garbage extension,
//! splices, frame duplication and reordering, and — the sharp ones —
//! payload/header tampering followed by [`wf_snapshot::reseal_container`]
//! and, inside the log, a re-encoded frame ([`encode_frame`]), which
//! forges *valid checksums over invalid structure* so the structural
//! validators behind them are the ones under test.
//!
//! The contract, per mutant class:
//!
//! * **Integrity-preserving mutations** (anything that does not forge a
//!   checksum — flips, stomps, truncations, splices, reorderings):
//!   recovery must return a typed [`wf_snapshot::SnapshotError`] — never
//!   panic, never hang — or decode to a state whose full digest — seqno,
//!   store size, edge counts, registry size, and the complete
//!   dependent-pair set of every compiled view — equals that of a pristine
//!   frame-boundary prefix of the store (a torn log tail heals to one; a
//!   reordered stale frame is skipped). Any other `Ok` is silent
//!   corruption: the checksums failed at their one job.
//! * **Checksum-forged mutations** (`payload_reseal` / `header_reseal`,
//!   which tamper and then rewrite valid checksums): the checksums
//!   *cannot* reject these, and a flipped bit that still decodes to a
//!   well-formed payload is indistinguishable from a legitimately
//!   different store — so `Ok` is acceptable, but the decoded state must
//!   be *fully functional*: digesting it (which answers every pair under
//!   every compiled view) must complete without a panic. The structural
//!   validators are the subject here: most forgeries must still die with
//!   typed `malformed`/`truncated`/`spec_mismatch` errors, and the ones
//!   that survive must have been validated into a safe state.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use wf_core::{Fvl, VariantKind};
use wf_engine::{
    serialize_base, DurableEngine, EngineGeneration, EngineWriter, ItemId, LabelStore, LiveEngine,
    SnapshotError, ViewId, ViewRef, WorkerScratch,
};
use wf_snapshot::{encode_frame, reseal_container, scan_log, MemStorage};
use wf_workloads::{sample, views, Workload};

use crate::specgen::adversarial_workload;

/// Everything a generation's observable state is: if two digests are
/// equal, every query against the two generations answers identically.
#[derive(Clone, PartialEq, Eq, Debug)]
struct StateDigest {
    seqno: u64,
    items: usize,
    edges: (usize, usize),
    views: usize,
    compiled: usize,
    /// Per compiled view (in handle order): the full dependent-pair set.
    answers: Vec<(ViewRef, Vec<(ItemId, ItemId)>)>,
}

fn digest(gen: &EngineGeneration) -> StateDigest {
    let mut ws = WorkerScratch::new();
    let all: Vec<ItemId> = (0..gen.store().len() as u32).map(ItemId).collect();
    let mut answers = Vec::new();
    for i in 0..gen.registry().view_count() as u32 {
        for kind in VariantKind::ALL {
            let r = ViewRef { id: ViewId(i), kind };
            // Every item is in range, so the one possible error is an
            // uncompiled variant, which has no answers to digest.
            let mut pairs = Vec::new();
            if gen.core().try_all_pairs_into(&mut ws, r, &all, &mut pairs).is_ok() {
                answers.push((r, pairs));
            }
        }
    }
    StateDigest {
        seqno: gen.seqno(),
        items: gen.store().len(),
        edges: gen.store().edge_stats(),
        views: gen.registry().view_count(),
        compiled: gen.registry().compiled_count(),
        answers,
    }
}

/// Recovers a `(base, log)` pair the way a restarting process would.
fn recover(
    fvl: &Arc<Fvl<'static>>,
    base: Vec<u8>,
    log: Vec<u8>,
) -> Result<Arc<EngineGeneration>, SnapshotError> {
    let storage = MemStorage::with_state(Some(base), log);
    DurableEngine::open(fvl.clone(), Box::new(storage), LabelStore::DEFAULT_SHARD_CAPACITY)
        .map(|(_, gen, _)| gen)
}

/// One valid durable store plus the ground truth needed to judge mutants
/// of it.
pub struct CorpusStream {
    /// The pristine base snapshot.
    pub base: Vec<u8>,
    /// The pristine op-log frames, in log order: `(seq tag, delta record)`.
    pub frames: Vec<(u64, Vec<u8>)>,
    /// The spec the store belongs to (decoding happens against it).
    fvl: Arc<Fvl<'static>>,
    /// The spec fingerprint the containers carry.
    fingerprint: u64,
    /// Digest of the generation each frame-boundary prefix of the log
    /// recovers to (index `i`: the first `i` frames).
    prefix_digests: Vec<StateDigest>,
}

impl CorpusStream {
    /// The op-log bytes of `frames`.
    fn log_of(frames: &[(u64, Vec<u8>)]) -> Vec<u8> {
        frames.iter().flat_map(|(seq, record)| encode_frame(*seq, record)).collect()
    }
}

/// The mutation corpus: valid durable stores over distinct specs.
pub struct MutationCorpus {
    pub streams: Vec<CorpusStream>,
}

/// Builds one store of `publishes` durable publishes. With `stale_base`,
/// the base is replaced by the generation of that seqno while the log
/// keeps every frame — a compaction interrupted after its base rename.
fn build_stream(seed: u64, publishes: usize, stale_base: Option<u64>) -> CorpusStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let (_, w): (_, Workload) = adversarial_workload(&mut rng, 10);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).expect("corpus spec is valid"));
    let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, 8 * publishes.max(1));
    let labels = fvl.labeler(&run).labels().to_vec();

    let storage = MemStorage::new();
    let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap).expect("fresh store");
    let mut writer = EngineWriter::new(gen0);
    let live = LiveEngine::new(writer.base().clone());
    let mut base = storage.contents().0.expect("bootstrap writes a base");

    let composites = w.spec.grammar.composite_modules().count().max(1);
    let mut next = 0usize;
    for round in 0..publishes {
        let chunk = rng.gen_range(1..=4.min(labels.len() - next).max(1));
        writer
            .try_insert_labels(&labels[next..(next + chunk).min(labels.len())])
            .expect("corpus labels stage");
        next = (next + chunk).min(labels.len());
        if round % 2 == 0 {
            let size = rng.gen_range(1..=composites);
            let view = views::random_safe_view(&w, &mut rng, size);
            let kind = VariantKind::ALL[round % 3];
            writer.register_view(view, kind).expect("corpus view compiles");
        }
        let gen = writer.publish_durable(&live, &mut durable).expect("publish");
        if stale_base == Some(gen.seqno()) {
            base = serialize_base(&gen).expect("base save");
        }
    }
    let log = storage.contents().1;
    let scan = scan_log(&log).expect("pristine log scans");
    let frames: Vec<(u64, Vec<u8>)> =
        scan.frames.iter().map(|f| (f.seq, log[f.payload.clone()].to_vec())).collect();
    let prefix_digests = (0..=frames.len())
        .map(|n| {
            let prefix = CorpusStream::log_of(&frames[..n]);
            digest(&recover(&fvl, base.clone(), prefix).expect("pristine prefix recovers"))
        })
        .collect();
    let fingerprint = wf_snapshot::spec_fingerprint(&fvl.spec().grammar, fvl.prod_graph());
    CorpusStream { base, frames, fvl, fingerprint, prefix_digests }
}

/// Builds the corpus for one seed: a multi-publish store, a store whose
/// base already covers its first frame, and a base-only store, over
/// *different* adversarial specs. Deterministic per seed. Stores are
/// guaranteed pairwise-distinct in spec fingerprint (re-rolled
/// otherwise): an accidental collision would make a cross-store splice a
/// semantically valid store, and its hybrid state would be misread as
/// silent corruption.
pub fn mutation_corpus(seed: u64) -> MutationCorpus {
    let mut streams: Vec<CorpusStream> = Vec::new();
    for (salt, publishes, stale_base) in [(0u64, 4usize, None), (1, 3, Some(1)), (2, 0, None)] {
        let mut attempt = salt;
        loop {
            let s = build_stream(crate::case_seed(seed, attempt), publishes, stale_base);
            if streams.iter().all(|t| t.fingerprint != s.fingerprint) {
                streams.push(s);
                break;
            }
            attempt += 16;
        }
    }
    MutationCorpus { streams }
}

/// Aggregate verdicts of a mutation round. The invariants a healthy
/// decoder satisfies: `panics == 0`, `wrong == 0`, everything else is
/// either a typed rejection (histogrammed by
/// [`wf_snapshot::SnapshotError::class`])
/// or a mutant whose state is provably identical to a pristine prefix.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MutationStats {
    pub mutants: u64,
    /// Typed rejections by error class.
    pub rejected: BTreeMap<&'static str, u64>,
    /// Mutants that decoded `Ok` and digest-matched a pristine prefix.
    pub ok_valid_prefix: u64,
    /// Checksum-forged mutants that decoded `Ok` to a functional (fully
    /// queryable) state not matching a pristine prefix — the outcome the
    /// checksum can by definition not prevent (see module docs).
    pub ok_forged: u64,
    /// Decoder (or post-decode query) panics (must be zero).
    pub panics: u64,
    /// *Integrity-preserving* mutants that decoded `Ok` with state
    /// matching no pristine prefix — silent corruption (must be zero).
    pub wrong: u64,
}

impl MutationStats {
    pub fn merge(&mut self, other: &MutationStats) {
        self.mutants += other.mutants;
        self.ok_valid_prefix += other.ok_valid_prefix;
        self.ok_forged += other.ok_forged;
        self.panics += other.panics;
        self.wrong += other.wrong;
        for (k, v) in &other.rejected {
            *self.rejected.entry(k).or_default() += v;
        }
    }

    /// Distinct rejection classes observed (coverage of the error space).
    pub fn classes(&self) -> usize {
        self.rejected.len()
    }
}

/// One mutant store: what the base file and the op-log file hold.
type Mutant = (Vec<u8>, Vec<u8>);

/// Tampers the container starting at `bytes[0]` — payload bytes, or one
/// of its header fields — then reseals its checksum (`forge_header`
/// picks the header variant).
fn forge_container(rng: &mut StdRng, bytes: &mut [u8], forge_header: bool) {
    if !forge_header {
        if bytes.len() > 36 {
            for _ in 0..rng.gen_range(1..=8) {
                let at = rng.gen_range(36..bytes.len());
                bytes[at] = rng.gen_range(0..=255u8);
            }
        }
    } else {
        // Fingerprint (spec mismatch), version (foreign format), declared
        // bit length (framing lies).
        match rng.gen_range(0..3u8) {
            0 => bytes[12] ^= rng.gen_range(1..=255u8),
            1 => bytes[8] ^= rng.gen_range(1..=255u8),
            _ => {
                let delta = rng.gen_range(1..=64u64);
                let cur = u64::from_le_bytes(bytes[20..28].try_into().unwrap());
                let lied = if rng.gen_bool(0.5) {
                    cur.wrapping_add(delta)
                } else {
                    cur.saturating_sub(delta)
                };
                bytes[20..28].copy_from_slice(&lied.to_le_bytes());
            }
        }
    }
    reseal_container(bytes);
}

/// Produces one mutant of `stream` (possibly splicing frames from `other`).
fn mutate_store(
    rng: &mut StdRng,
    stream: &CorpusStream,
    other: &CorpusStream,
) -> (&'static str, Mutant) {
    let mut base = stream.base.clone();
    let mut frames = stream.frames.clone();
    let log = CorpusStream::log_of(&frames);
    let op = rng.gen_range(0..9u8);
    match op {
        0 | 1 => {
            // Bit flips or one byte stomp anywhere in base ‖ log (headers,
            // framing, payload).
            let mut all = [base, log].concat();
            if op == 0 {
                for _ in 0..rng.gen_range(1..=4) {
                    let bit = rng.gen_range(0..all.len() * 8);
                    all[bit / 8] ^= 1 << (bit % 8);
                }
            } else {
                let at = rng.gen_range(0..all.len());
                all[at] = rng.gen_range(0..=255u8);
            }
            let log = all.split_off(stream.base.len());
            (if op == 0 { "bit_flip" } else { "byte_stomp" }, (all, log))
        }
        2 => {
            // Truncation at an arbitrary cut: a cut log is a torn tail that
            // heals to a pristine prefix; a cut base must reject.
            if !log.is_empty() && rng.gen_bool(0.7) {
                let cut = rng.gen_range(0..log.len());
                ("truncate", (base, log[..cut].to_vec()))
            } else {
                base.truncate(rng.gen_range(0..base.len()));
                ("truncate", (base, log))
            }
        }
        3 => {
            let garbage: Vec<u8> =
                (0..rng.gen_range(1..64usize)).map(|_| rng.gen_range(0..=255u8)).collect();
            if rng.gen_bool(0.7) {
                ("extend_garbage", (base, [log, garbage].concat()))
            } else {
                base.extend(garbage);
                ("extend_garbage", (base, log))
            }
        }
        4 => {
            // Cross-store splice: our base and frame prefix, the other
            // spec's frame suffix.
            let ours = rng.gen_range(0..=frames.len());
            let theirs = rng.gen_range(0..=other.frames.len());
            frames.truncate(ours);
            frames.extend_from_slice(&other.frames[theirs..]);
            ("splice", (base, CorpusStream::log_of(&frames)))
        }
        5 if !frames.is_empty() => {
            // Duplicate one frame at a frame boundary (replays a seqno
            // twice — the chain validator's job, unless it is stale).
            let dup = frames[rng.gen_range(0..frames.len())].clone();
            frames.insert(rng.gen_range(0..=frames.len()), dup);
            ("dup_frame", (base, CorpusStream::log_of(&frames)))
        }
        6 if frames.len() >= 2 => {
            // Swap two frames (out-of-order delta chain).
            let i = rng.gen_range(0..frames.len());
            let j = (i + rng.gen_range(1..frames.len())) % frames.len();
            frames.swap(i, j);
            ("swap_frames", (base, CorpusStream::log_of(&frames)))
        }
        5 | 6 => {
            // Too few frames to duplicate or reorder: rotate the log bytes
            // instead (or the base, for a base-only store).
            let mut log = log;
            if log.is_empty() {
                base.rotate_left(1);
            } else {
                log.rotate_left(1);
            }
            ("rotate", (base, log))
        }
        _ => {
            // Payload or header tamper under forged-valid checksums: the
            // structural validators behind the checksums are the target.
            // Inside the log, the frame is re-encoded around the forged
            // record (and, for a header forgery, may get a forged seq tag).
            let forge_header = op == 8;
            let name = if forge_header { "header_reseal" } else { "payload_reseal" };
            let ix = rng.gen_range(0..=frames.len());
            if ix == frames.len() {
                forge_container(rng, &mut base, forge_header);
            } else if forge_header && rng.gen_bool(0.25) {
                frames[ix].0 = rng.gen_range(0..=frames.len() as u64 + 1);
            } else {
                forge_container(rng, &mut frames[ix].1, forge_header);
            }
            (name, (base, CorpusStream::log_of(&frames)))
        }
    }
}

/// Runs `iterations` mutants against the decoders and classifies every
/// verdict. Deterministic per `(seed, corpus)`; any `panics` or `wrong`
/// count is a decoder bug reproducible from the seed.
pub fn mutation_round(seed: u64, corpus: &MutationCorpus, iterations: usize) -> MutationStats {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = MutationStats::default();
    for _ in 0..iterations {
        let six = rng.gen_range(0..corpus.streams.len());
        let oix = rng.gen_range(0..corpus.streams.len());
        let stream = &corpus.streams[six];
        let other = &corpus.streams[oix];
        let (op, (base, log)) = mutate_store(&mut rng, stream, other);
        stats.mutants += 1;
        let forged = matches!(op, "payload_reseal" | "header_reseal");

        // Digesting runs inside the unwind guard on purpose: it answers
        // every pair under every compiled view, so a decoded-but-poisoned
        // generation that panics at *query* time is caught and counted,
        // not crashed on.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            recover(&stream.fvl, base, log)
                .map(|gen| (gen.seqno(), gen.store().len(), digest(&gen)))
        }));
        match outcome {
            Err(_) => {
                stats.panics += 1;
                eprintln!("decoder PANIC: op {op}, streams ({six}, {oix}), seed {seed:#x}");
            }
            Ok(Err(e)) => *stats.rejected.entry(e.class()).or_default() += 1,
            Ok(Ok((seqno, items, d))) => {
                if stream.prefix_digests.contains(&d) {
                    stats.ok_valid_prefix += 1;
                } else if forged {
                    stats.ok_forged += 1;
                } else {
                    stats.wrong += 1;
                    eprintln!(
                        "SILENT CORRUPTION: op {op}, streams ({six}, {oix}), seed {seed:#x} — \
                         mutant decoded to seqno {seqno} / {items} items, matching no \
                         pristine prefix"
                    );
                }
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_stores_recover_to_their_final_digest() {
        let corpus = mutation_corpus(0xC0FFEE);
        for s in &corpus.streams {
            let log = CorpusStream::log_of(&s.frames);
            let gen = recover(&s.fvl, s.base.clone(), log).expect("pristine store recovers");
            assert_eq!(&digest(&gen), s.prefix_digests.last().unwrap());
        }
        // The stale-base store really carries a frame its base covers.
        let stale = &corpus.streams[1];
        assert_eq!(stale.prefix_digests[0].seqno, 1);
        assert_eq!(stale.frames[0].0, 1);
    }

    #[test]
    fn a_mutation_round_never_panics_or_corrupts() {
        let corpus = mutation_corpus(0xC0FFEE);
        let stats = mutation_round(0xBEEF, &corpus, 400);
        assert_eq!(stats.panics, 0, "decoder panicked: {stats:?}");
        assert_eq!(stats.wrong, 0, "silent corruption: {stats:?}");
        assert_eq!(stats.mutants, 400);
        // The round must actually exercise the error space, not fall into
        // one rejection bucket.
        assert!(stats.classes() >= 3, "rejection histogram too flat: {stats:?}");
    }

    #[test]
    fn torn_log_tails_heal_to_pristine_prefixes() {
        let corpus = mutation_corpus(0xC0FFEE);
        let s = &corpus.streams[0];
        let log = CorpusStream::log_of(&s.frames);
        let mut boundaries = vec![0usize];
        for (seq, record) in &s.frames {
            boundaries.push(boundaries.last().unwrap() + encode_frame(*seq, record).len());
        }
        for cut in 0..=log.len() {
            let gen =
                recover(&s.fvl, s.base.clone(), log[..cut].to_vec()).expect("a torn tail heals");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(digest(&gen), s.prefix_digests[whole], "cut at {cut}");
        }
    }
}
