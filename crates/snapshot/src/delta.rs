//! Delta records: the snapshot form of *what one publish added*.
//!
//! Generation snapshots (`wf-engine`) persist a whole published engine;
//! a delta record persists only the increment between two consecutive
//! generations — the data labels inserted and the views registered or
//! compiled. A warm restart then replays `base ‖ delta ‖ delta ‖ …` from
//! one append-only stream instead of rewriting the full store on every
//! publish (Lipstick-style provenance is append-heavy: runs grow step by
//! step, views accrete as users refine them).
//!
//! This module owns the pieces of that format that are *label-shaped*: a
//! validated wire form of one [`DataLabel`] (paths via the §5 edge codec,
//! ports range-checked against the terminal module's signature) and the
//! edge-chaining rule [`edge_target_module`] every persisted path must
//! satisfy — shared with the label-store trie reader in `wf-engine`, so
//! the workspace has exactly one copy of the check that keeps forged paths
//! from feeding π mismatched matrix dimensions.

use crate::error::SnapshotError;
use wf_analysis::CycleInfo;
use wf_bitio::{BitReader, BitWriter};
use wf_core::{DataLabel, LabelCodec, LabelRef, PortLabel, PortRef};
use wf_model::{Grammar, ModuleId};
use wf_run::EdgeLabel;

/// The module a path ends at after following `e` from a node whose path
/// ends at `parent_module` — or a typed rejection when the edge cannot
/// legally continue that path. A plain edge must expand the module the
/// parent path ends at; a recursion-chain edge must enter its cycle at
/// that same module. This chaining is what the decoder's matrix products
/// assume (`I(k,·)` has `lhs(k)`-many rows; a chain at offset `t` starts
/// on `modules[t]`'s arity) — without it, forged input would hand π
/// matrices of mismatched dimensions.
pub fn edge_target_module(
    grammar: &Grammar,
    cycles: &[CycleInfo],
    parent_module: ModuleId,
    e: EdgeLabel,
) -> Result<ModuleId, SnapshotError> {
    match e {
        EdgeLabel::Plain { k, i } => {
            if k.index() >= grammar.production_count() {
                return Err(SnapshotError::Malformed("edge production out of range"));
            }
            let p = grammar.production(k);
            if p.lhs != parent_module {
                return Err(SnapshotError::Malformed("edge production breaks the path"));
            }
            if i as usize >= p.rhs.node_count() {
                return Err(SnapshotError::Malformed("edge position out of range"));
            }
            Ok(p.rhs.nodes()[i as usize])
        }
        EdgeLabel::Rec { s, t, i } => {
            let Some(cycle) = cycles.get(s as usize) else {
                return Err(SnapshotError::Malformed("edge cycle out of range"));
            };
            let l = cycle.len() as u64;
            if t as u64 >= l {
                return Err(SnapshotError::Malformed("edge cycle offset out of range"));
            }
            if cycle.modules[t as usize] != parent_module {
                return Err(SnapshotError::Malformed("edge cycle breaks the path"));
            }
            // Chain child `i` under offset `t` is an instance of the cycle
            // module at `t + i` (wrapping; `i` is reduced first so an
            // adversarial chain index near `u64::MAX` cannot overflow).
            Ok(cycle.modules[((t as u64 + i % l) % l) as usize])
        }
    }
}

fn write_side(w: &mut BitWriter, codec: &LabelCodec, p: PortRef<'_>) {
    w.write_gamma(p.path.len() as u64 + 1);
    for e in p.path {
        codec.write_edge(w, e);
    }
    w.write_bits(p.port as u64, 8);
}

/// Writes one data label in the delta wire form: two presence bits, then
/// per present side the full path (γ length, §5 edge codec) and an 8-bit
/// port. Deltas are small increments, so the two sides are written whole —
/// prefix sharing across labels is the *store trie's* job and is recovered
/// the moment the label is re-interned on replay. Takes the borrowed form,
/// so a store writes its labels through [`LabelRef`]s over reused path
/// buffers; an owned label passes [`DataLabel::to_ref`].
pub fn write_label(w: &mut BitWriter, codec: &LabelCodec, d: LabelRef<'_>) {
    w.push_bit(d.out.is_some());
    w.push_bit(d.inp.is_some());
    if let Some(o) = d.out {
        write_side(w, codec, o);
    }
    if let Some(i) = d.inp {
        write_side(w, codec, i);
    }
}

fn read_side(
    r: &mut BitReader<'_>,
    codec: &LabelCodec,
    grammar: &Grammar,
    cycles: &[CycleInfo],
    outputs: bool,
) -> Result<PortLabel, SnapshotError> {
    let len = (r.read_gamma()? - 1) as usize;
    // Every edge is read and checked before the path is allocated, so a
    // forged length costs no more than the edges actually present; the
    // checked edges are then decoded again into one exact allocation.
    let mut edges = r.clone();
    let mut module = grammar.start();
    for _ in 0..len {
        module = edge_target_module(grammar, cycles, module, codec.read_edge(r)?)?;
    }
    let path =
        (0..len).map(|_| codec.read_edge(&mut edges).expect("edges decoded above")).collect();
    let port = r.read_bits(8)? as u8;
    let sig = grammar.sig(module);
    let arity = if outputs { sig.outputs() } else { sig.inputs() };
    if port as usize >= arity {
        return Err(SnapshotError::Malformed("label port out of range"));
    }
    Ok(PortLabel { path, port })
}

/// Inverse of [`write_label`]. Every edge is checked to continue its path
/// ([`edge_target_module`]) and every port against the terminal module's
/// arity, so a replayed label can never index a signature or reachability
/// matrix out of range — bad bytes fail *here*, typed, not inside π.
pub fn read_label(
    r: &mut BitReader<'_>,
    codec: &LabelCodec,
    grammar: &Grammar,
    cycles: &[CycleInfo],
) -> Result<DataLabel, SnapshotError> {
    let has_out = r.read_bit()?;
    let has_inp = r.read_bit()?;
    if !has_out && !has_inp {
        return Err(SnapshotError::Malformed("label with no endpoint"));
    }
    let out = has_out.then(|| read_side(r, codec, grammar, cycles, true)).transpose()?;
    let inp = has_inp.then(|| read_side(r, codec, grammar, cycles, false)).transpose()?;
    Ok(DataLabel { out, inp })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_analysis::ProdGraph;
    use wf_core::Fvl;
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    #[test]
    fn labels_roundtrip_validated() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labeler = fvl.labeler(&run);
        let cycles = fvl.prod_graph().cycles().unwrap();
        for d in labeler.labels() {
            let mut w = BitWriter::new();
            write_label(&mut w, fvl.codec(), d.to_ref());
            let bits = w.finish();
            let mut r = BitReader::new(&bits);
            let back = read_label(&mut r, fvl.codec(), &ex.spec.grammar, cycles).unwrap();
            assert_eq!(r.remaining(), 0);
            assert_eq!(&back, d);
        }
    }

    #[test]
    fn rejects_broken_paths_and_ports() {
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let cycles = pg.cycles().unwrap();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let read =
            |bits: &wf_bitio::BitVec| read_label(&mut BitReader::new(bits), fvl.codec(), g, cycles);
        // Neither endpoint present.
        let mut w = BitWriter::new();
        w.push_bit(false);
        w.push_bit(false);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // A non-start production as the first edge breaks the path.
        let (k_deep, _) = g
            .productions()
            .find(|(_, p)| p.lhs != g.start())
            .expect("paper grammar has non-start productions");
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma(2); // one edge
        fvl.codec().write_edge(&mut w, &EdgeLabel::Plain { k: k_deep, i: 0 });
        w.write_bits(0, 8);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
        // An out-of-arity port at the start module (empty path).
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma(1); // empty path
        w.write_bits(200, 8);
        assert!(matches!(read(&w.finish()), Err(SnapshotError::Malformed(_))));
    }

    /// Every rejection branch of [`edge_target_module`], hit directly —
    /// including the wrap guard that keeps an adversarial chain index near
    /// `u64::MAX` from overflowing the offset arithmetic.
    #[test]
    fn edge_target_module_rejects_every_break_class() {
        use wf_model::ProdId;
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let cycles = pg.cycles().unwrap();
        let start = g.start();
        let reason = |r: Result<ModuleId, SnapshotError>| match r {
            Err(SnapshotError::Malformed(m)) => m,
            other => panic!("expected Malformed, got {other:?}"),
        };
        let k_oob = ProdId(g.production_count() as u32);
        assert_eq!(
            reason(edge_target_module(g, cycles, start, EdgeLabel::Plain { k: k_oob, i: 0 })),
            "edge production out of range"
        );
        let (k_deep, _) = g.productions().find(|(_, p)| p.lhs != start).unwrap();
        assert_eq!(
            reason(edge_target_module(g, cycles, start, EdgeLabel::Plain { k: k_deep, i: 0 })),
            "edge production breaks the path"
        );
        let (k0, p0) = g.productions().find(|(_, p)| p.lhs == start).unwrap();
        let i_oob = p0.rhs.node_count() as u32;
        assert_eq!(
            reason(edge_target_module(g, cycles, start, EdgeLabel::Plain { k: k0, i: i_oob })),
            "edge position out of range"
        );
        let s_oob = cycles.len() as u16;
        assert_eq!(
            reason(edge_target_module(g, cycles, start, EdgeLabel::Rec { s: s_oob, t: 0, i: 0 })),
            "edge cycle out of range"
        );
        let entry = cycles[0].modules[0];
        let t_oob = cycles[0].len() as u16;
        assert_eq!(
            reason(edge_target_module(g, cycles, entry, EdgeLabel::Rec { s: 0, t: t_oob, i: 0 })),
            "edge cycle offset out of range"
        );
        // A parent the cycle does not stand on at offset t: any other
        // module of the same cycle (distinct by construction).
        let wrong = cycles[0].modules[1 % cycles[0].len()];
        let not_on_cycle = g.modules().find(|m| !cycles[0].modules.contains(m)).unwrap_or(wrong);
        assert_eq!(
            reason(edge_target_module(
                g,
                cycles,
                not_on_cycle,
                EdgeLabel::Rec { s: 0, t: 0, i: 0 }
            )),
            "edge cycle breaks the path"
        );
        // Near-u64::MAX chain index: reduced mod cycle length, no overflow.
        let l = cycles[0].len() as u64;
        let want = cycles[0].modules[(u64::MAX % l % l) as usize];
        let far = EdgeLabel::Rec { s: 0, t: 0, i: u64::MAX };
        assert_eq!(edge_target_module(g, cycles, entry, far).unwrap(), want);
    }

    /// The satellite of the fuzzing harness this module anchors: payloads
    /// whose container checksum is *genuinely valid* (sealed by
    /// [`crate::write_container`] or re-sealed by
    /// [`crate::reseal_container`]) but whose label structure is forged.
    /// The integrity layer must pass them through and the structural
    /// validators in [`read_label`] must reject them typed — checksums
    /// catch accidents, path chaining catches adversaries.
    #[test]
    fn valid_checksum_forged_payloads_fail_structurally() {
        use crate::{read_container, reseal_container, spec_fingerprint, write_container};
        let ex = paper_example();
        let g = &ex.spec.grammar;
        let pg = ProdGraph::new(g);
        let cycles = pg.cycles().unwrap();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let codec = fvl.codec();
        let fp = spec_fingerprint(g, &pg);

        let seal = |w: BitWriter| {
            let mut out = Vec::new();
            write_container(&mut out, fp, &w.finish()).unwrap();
            out
        };
        let read_back = |bytes: &[u8]| {
            let c = read_container(&mut &bytes[..]).expect("checksum layer admits the container");
            read_label(&mut BitReader::new(&c.payload), codec, g, cycles)
        };
        let (k0, p0) = g.productions().find(|(_, p)| p.lhs == g.start()).unwrap();
        let j = p0.rhs.nodes().iter().position(|&m| m != g.start()).unwrap() as u32;

        // Chaining breaks mid-path: a valid first edge into a child, then a
        // start production again — its LHS no longer matches the path head.
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma(3); // two edges
        codec.write_edge(&mut w, &EdgeLabel::Plain { k: k0, i: j });
        codec.write_edge(&mut w, &EdgeLabel::Plain { k: k0, i: j });
        w.write_bits(0, 8);
        let deep_break = seal(w);
        assert!(matches!(read_back(&deep_break), Err(SnapshotError::Malformed(_))));

        // Cycle-offset mismatch inside an otherwise well-framed label: the
        // paper grammar's second cycle has length 1, so offset 1 is out of
        // range yet encodable in the codec's fixed field width.
        assert_eq!(cycles[1].len(), 1, "fixture's second cycle is the self-loop");
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma(2);
        codec.write_edge(&mut w, &EdgeLabel::Rec { s: 1, t: 1, i: 0 });
        w.write_bits(0, 8);
        assert!(matches!(read_back(&seal(w)), Err(SnapshotError::Malformed(_))));

        // A declared path length in the billions with no bits behind it:
        // must terminate immediately as Truncated — no hang, no huge
        // allocation (the reader allocates a path only after reading it).
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma((1u64 << 40) + 1);
        assert!(matches!(read_back(&seal(w)), Err(SnapshotError::Truncated)));

        // Out-of-arity port at the end of a *valid* one-edge path.
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(false);
        w.write_gamma(2);
        codec.write_edge(&mut w, &EdgeLabel::Plain { k: k0, i: j });
        w.write_bits(250, 8);
        assert!(matches!(read_back(&seal(w)), Err(SnapshotError::Malformed(_))));

        // Second side forged behind a valid first side: the out side is a
        // legal empty path, the inp side repeats the broken deep chain.
        let mut w = BitWriter::new();
        w.push_bit(true);
        w.push_bit(true);
        w.write_gamma(1); // out: empty path
        w.write_bits(0, 8);
        w.write_gamma(3); // inp: the broken two-edge chain
        codec.write_edge(&mut w, &EdgeLabel::Plain { k: k0, i: j });
        codec.write_edge(&mut w, &EdgeLabel::Plain { k: k0, i: j });
        w.write_bits(0, 8);
        assert!(matches!(read_back(&seal(w)), Err(SnapshotError::Malformed(_))));

        // Layering check: tampering a sealed payload trips the checksum
        // first; resealing lets the same bytes through to the structural
        // layer, which still rejects them.
        let mut tampered = deep_break.clone();
        let last = tampered.len() - 1;
        tampered[last] ^= 0x04;
        assert!(matches!(
            read_container(&mut tampered.as_slice()),
            Err(SnapshotError::ChecksumMismatch)
        ));
        reseal_container(&mut tampered).expect("framing is intact");
        assert!(read_back(&tampered).is_err(), "resealed forgery must still fail structurally");
    }
}
