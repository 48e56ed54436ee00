//! Bit-exact wire encoding of data labels.
//!
//! Field widths are fixed by the *grammar* (production count, largest RHS,
//! cycle count, port count) — constants for a given specification, as
//! Theorem 10 assumes. Only the recursion-chain index `i` of `(s, t, i)`
//! labels grows with the run; it is Elias-γ coded, giving the `O(log n)`
//! bound. The producer/consumer paths of one item share a common prefix
//! (they were created by the same production), which the encoding factors
//! out, "reducing the size almost by half" (§4.2.2).

use crate::label::{DataLabel, LabelRef, PortLabel, PortRef};
use wf_analysis::ProdGraph;
use wf_bitio::{min_width, BitReader, BitVec, BitWriter, ReadError};
use wf_model::{Grammar, ProdId};
use wf_run::{try_path, EdgeLabel};

/// Fixed-width parameters derived from a grammar.
#[derive(Clone, Debug)]
pub struct LabelCodec {
    k_bits: u32,
    pos_bits: u32,
    s_bits: u32,
    t_bits: u32,
    port_bits: u32,
}

impl LabelCodec {
    pub fn new(grammar: &Grammar, pg: &ProdGraph) -> Self {
        let k_bits = min_width(grammar.production_count().saturating_sub(1) as u64);
        let pos_bits = min_width(grammar.max_rhs_len().saturating_sub(1) as u64);
        let s_bits = min_width(pg.cycle_count().saturating_sub(1) as u64);
        let t_bits = min_width(pg.max_cycle_len().saturating_sub(1) as u64);
        let port_bits = min_width(grammar.max_ports().saturating_sub(1) as u64);
        Self { k_bits, pos_bits, s_bits, t_bits, port_bits }
    }

    /// Writes one parse-tree edge with this grammar's fixed field widths.
    /// Public so persisted stores (the snapshot trie) can share the wire
    /// format of §5 instead of inventing a second edge encoding.
    pub fn write_edge(&self, w: &mut BitWriter, e: &EdgeLabel) {
        match *e {
            EdgeLabel::Plain { k, i } => {
                w.push_bit(false);
                w.write_bits(k.0 as u64, self.k_bits);
                w.write_bits(i as u64, self.pos_bits);
            }
            EdgeLabel::Rec { s, t, i } => {
                w.push_bit(true);
                w.write_bits(s as u64, self.s_bits);
                w.write_bits(t as u64, self.t_bits);
                w.write_gamma(i + 1);
            }
        }
    }

    /// Reads one parse-tree edge (inverse of [`LabelCodec::write_edge`]).
    /// A cycle field that does not fit [`EdgeLabel::Rec`]'s `u16` is
    /// [`ReadError::Malformed`]; no codec of a valid grammar writes one.
    pub fn read_edge(&self, r: &mut BitReader<'_>) -> Result<EdgeLabel, ReadError> {
        if r.read_bit()? {
            let mut cycle_field =
                |width| u16::try_from(r.read_bits(width)?).map_err(|_| ReadError::Malformed);
            let s = cycle_field(self.s_bits)?;
            let t = cycle_field(self.t_bits)?;
            let i = r.read_gamma()? - 1;
            Ok(EdgeLabel::Rec { s, t, i })
        } else {
            let k = ProdId(r.read_bits(self.k_bits)? as u32);
            let i = r.read_bits(self.pos_bits)? as u32;
            Ok(EdgeLabel::Plain { k, i })
        }
    }

    fn write_suffix(&self, w: &mut BitWriter, p: PortRef<'_>, skip: usize) {
        w.write_gamma((p.path.len() - skip) as u64 + 1);
        for e in &p.path[skip..] {
            self.write_edge(w, e);
        }
        w.write_bits(p.port as u64, self.port_bits);
    }

    /// Encodes a data label. Layout: two presence bits; if both sides are
    /// present, the shared path prefix is stored once.
    pub fn encode(&self, d: &DataLabel) -> BitVec {
        self.encode_ref(d.to_ref())
    }

    /// [`LabelCodec::encode`] over a borrowed label — the form interned
    /// stores produce ([`crate::LabelRef`]), so measuring or persisting a
    /// stored label never materializes an owning [`DataLabel`].
    pub fn encode_ref(&self, d: LabelRef<'_>) -> BitVec {
        let mut w = BitWriter::new();
        w.push_bit(d.out.is_some());
        w.push_bit(d.inp.is_some());
        match (d.out, d.inp) {
            (Some(o), Some(i)) => {
                let cp = o.common_prefix_len(&i);
                w.write_gamma(cp as u64 + 1);
                for e in &o.path[..cp] {
                    self.write_edge(&mut w, e);
                }
                self.write_suffix(&mut w, o, cp);
                self.write_suffix(&mut w, i, cp);
            }
            (Some(o), None) => self.write_suffix(&mut w, o, 0),
            (None, Some(i)) => self.write_suffix(&mut w, i, 0),
            (None, None) => unreachable!("a data item has at least one endpoint"),
        }
        w.finish()
    }

    /// Decodes a data label (inverse of [`LabelCodec::encode`]). Each side's
    /// path is allocated once, at its full length.
    pub fn decode(&self, bits: &BitVec) -> Result<DataLabel, ReadError> {
        let mut r = BitReader::new(bits);
        let has_out = r.read_bit()?;
        let has_inp = r.read_bit()?;
        let read_suffix =
            |r: &mut BitReader<'_>, prefix: &[EdgeLabel]| -> Result<PortLabel, ReadError> {
                let extra = edge_count(r)?;
                let path = try_path(prefix.len() + extra, |slots| {
                    let (head, tail) = slots.split_at_mut(prefix.len());
                    head.copy_from_slice(prefix);
                    for e in tail {
                        *e = self.read_edge(r)?;
                    }
                    Ok(())
                })?;
                let port = r.read_bits(self.port_bits)? as u8;
                Ok(PortLabel { path, port })
            };
        match (has_out, has_inp) {
            (true, true) => {
                let cp = edge_count(&mut r)?;
                let mut prefix = Vec::with_capacity(cp);
                for _ in 0..cp {
                    prefix.push(self.read_edge(&mut r)?);
                }
                let out = read_suffix(&mut r, &prefix)?;
                let inp = read_suffix(&mut r, &prefix)?;
                Ok(DataLabel { out: Some(out), inp: Some(inp) })
            }
            (true, false) => Ok(DataLabel { out: Some(read_suffix(&mut r, &[])?), inp: None }),
            (false, true) => Ok(DataLabel { out: None, inp: Some(read_suffix(&mut r, &[])?) }),
            (false, false) => Err(ReadError::Malformed),
        }
    }

    /// Size of the encoded label in bits — the quantity Figures 17/21/24
    /// report.
    pub fn encoded_bits(&self, d: &DataLabel) -> usize {
        self.encode(d).len()
    }

    /// [`LabelCodec::encoded_bits`] over a borrowed label.
    pub fn encoded_bits_ref(&self, d: LabelRef<'_>) -> usize {
        self.encode_ref(d).len()
    }

    /// Size without prefix factoring — the ablation baseline (and the DRL
    /// encoding convention, see DESIGN.md S3).
    pub fn encoded_bits_unfactored(&self, d: &DataLabel) -> usize {
        let mut w = BitWriter::new();
        w.push_bit(d.out.is_some());
        w.push_bit(d.inp.is_some());
        if let Some(o) = &d.out {
            self.write_suffix(&mut w, o.to_ref(), 0);
        }
        if let Some(i) = &d.inp {
            self.write_suffix(&mut w, i.to_ref(), 0);
        }
        w.len()
    }
}

/// A γ-coded edge count. Every edge takes at least one bit, so a count past
/// the bits left is cut off; rejecting it before allocating bounds what
/// [`LabelCodec::decode`] allocates by the bits present.
fn edge_count(r: &mut BitReader<'_>) -> Result<usize, ReadError> {
    let n = r.read_gamma()? - 1;
    if n > r.remaining() as u64 {
        return Err(ReadError::OutOfBits);
    }
    Ok(n as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_model::fixtures::paper_example;

    fn codec() -> LabelCodec {
        let ex = paper_example();
        let pg = ProdGraph::new(&ex.spec.grammar);
        LabelCodec::new(&ex.spec.grammar, &pg)
    }

    fn sample_label() -> DataLabel {
        // Example 15's d21, transcribed 0-based.
        let o = PortLabel::new(
            vec![
                EdgeLabel::Plain { k: ProdId(0), i: 2 },
                EdgeLabel::Rec { s: 0, t: 0, i: 4 },
                EdgeLabel::Plain { k: ProdId(2), i: 1 },
                EdgeLabel::Plain { k: ProdId(4), i: 0 },
            ],
            0,
        );
        let i = PortLabel::new(
            vec![
                EdgeLabel::Plain { k: ProdId(0), i: 2 },
                EdgeLabel::Rec { s: 0, t: 0, i: 4 },
                EdgeLabel::Plain { k: ProdId(2), i: 1 },
                EdgeLabel::Plain { k: ProdId(4), i: 1 },
                EdgeLabel::Rec { s: 1, t: 0, i: 0 },
            ],
            1,
        );
        DataLabel::intermediate(o, i)
    }

    #[test]
    fn roundtrip_example15_label() {
        let c = codec();
        let d = sample_label();
        let bits = c.encode(&d);
        let back = c.decode(&bits).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn prefix_factoring_saves_bits() {
        let c = codec();
        let d = sample_label();
        // The paper: "the first three edge labels can be factored out".
        let (o, i) = (d.to_ref().out.unwrap(), d.to_ref().inp.unwrap());
        assert_eq!(o.common_prefix_len(&i), 3);
        assert!(c.encoded_bits(&d) < c.encoded_bits_unfactored(&d));
    }

    #[test]
    fn boundary_labels_roundtrip() {
        let c = codec();
        let init = DataLabel::initial_input(PortLabel::new(vec![], 1));
        assert_eq!(c.decode(&c.encode(&init)).unwrap(), init);
        let fin =
            DataLabel::final_output(PortLabel::new(vec![EdgeLabel::Rec { s: 0, t: 1, i: 0 }], 2));
        assert_eq!(c.decode(&c.encode(&fin)).unwrap(), fin);
    }

    /// Edge counts beyond the bits left fail as cut off, before anything
    /// is allocated for them.
    #[test]
    fn forged_edge_counts_are_cut_off() {
        let c = codec();
        for (out, inp) in [(true, true), (true, false)] {
            let mut w = BitWriter::new();
            w.push_bit(out);
            w.push_bit(inp);
            w.write_gamma(1 << 40);
            assert_eq!(c.decode(&w.finish()), Err(ReadError::OutOfBits), "{out} {inp}");
        }
    }

    #[test]
    fn chain_index_cost_is_logarithmic() {
        let c = codec();
        let mk = |i: u64| {
            DataLabel::initial_input(PortLabel::new(vec![EdgeLabel::Rec { s: 0, t: 0, i }], 0))
        };
        let small = c.encoded_bits(&mk(1));
        let large = c.encoded_bits(&mk(1 << 20));
        // 2^20-fold chain growth costs ~40 extra bits, not 2^20.
        assert!(large - small < 64, "small={small} large={large}");
        assert_eq!(c.decode(&c.encode(&mk(1 << 20))).unwrap(), mk(1 << 20));
    }
}
