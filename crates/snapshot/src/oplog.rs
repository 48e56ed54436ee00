//! The op-log wire form of a generation increment.
//!
//! A delta record (`wf-engine`'s `SECTION_DELTA` payload) is framed as a
//! sequence of typed *ops* — the same three mutations the live ingest
//! pipeline accepts from producers: insert a run of data labels, register
//! a view, install a compiled view label. Framing the increment as the
//! ops that produced it (in application order) rather than as one
//! section-per-kind summary is what lets a persisted stream double as the
//! pipeline's op-log: replaying the stream applies the *same ops in the
//! same order* the publisher applied live, so a warm restart and the
//! multi-producer run it mirrors converge to byte-identical generations.
//!
//! This module owns only the framing — tags, headers, and the decode
//! dispatch. Label payloads stream through [`crate::delta::write_label`] /
//! [`crate::delta::read_label`] one at a time (an insert op of a million
//! labels never materializes a million-label buffer on either side), view
//! payloads through [`crate::view`], and compiled labels through
//! `ViewLabel::{write,read}_snapshot`. Every byte therefore passes the
//! same structural validation as the base snapshot sections; an unknown
//! op tag is rejected as [`SnapshotError::Malformed`] before any payload
//! bit is interpreted.

use crate::error::SnapshotError;
use crate::view::{read_view, write_view};
use wf_analysis::ProdGraph;
use wf_bitio::{BitReader, BitWriter};
use wf_core::ViewLabel;
use wf_model::{Grammar, View};

/// Op tag: a contiguous run of data labels interned at the store tail.
pub const OP_INSERT_LABELS: u8 = 0x21;
/// Op tag: one view registered (its id must reproduce on replay).
pub const OP_ADD_VIEW: u8 = 0x22;
/// Op tag: one compiled view label installed for `(id, kind)` (the kind
/// travels inside the label snapshot).
pub const OP_COMPILE_VIEW: u8 = 0x23;

/// One decoded op header.
///
/// `InsertLabels` carries only the run length: the labels themselves
/// follow in the stream and the caller drains them with
/// [`crate::delta::read_label`] — streaming on read exactly as
/// [`write_insert_header`] streams on write.
pub enum OplogOp {
    InsertLabels { count: usize },
    AddView { id: u32, view: View },
    CompileView { id: u32, label: ViewLabel },
}

/// Frames a run of `count` inserted labels. The caller must follow with
/// exactly `count` [`crate::delta::write_label`] calls on the same writer.
pub fn write_insert_header(w: &mut BitWriter, count: usize) {
    w.write_bits(OP_INSERT_LABELS as u64, 8);
    w.write_gamma(count as u64 + 1);
}

/// Frames one view registration: the id replay must land on, then the
/// validated view body.
pub fn write_add_view(w: &mut BitWriter, grammar: &Grammar, id: u32, view: &View) {
    w.write_bits(OP_ADD_VIEW as u64, 8);
    w.write_gamma(id as u64 + 1);
    write_view(w, grammar, view);
}

/// Frames one compiled view label for view `id` (the variant kind is part
/// of the label snapshot).
pub fn write_compile_view(w: &mut BitWriter, id: u32, label: &ViewLabel) {
    w.write_bits(OP_COMPILE_VIEW as u64, 8);
    w.write_gamma(id as u64 + 1);
    label.write_snapshot(w);
}

/// Reads one op header, validating view and view-label payloads inline.
/// For [`OplogOp::InsertLabels`] the caller must drain `count` labels with
/// [`crate::delta::read_label`] before reading the next op.
pub fn read_op(
    r: &mut BitReader<'_>,
    grammar: &Grammar,
    pg: &ProdGraph,
) -> Result<OplogOp, SnapshotError> {
    match r.read_bits(8)? as u8 {
        OP_INSERT_LABELS => {
            let count = (r.read_gamma()? - 1) as usize;
            Ok(OplogOp::InsertLabels { count })
        }
        OP_ADD_VIEW => {
            let id = (r.read_gamma()? - 1) as u32;
            let view = read_view(r, grammar)?;
            Ok(OplogOp::AddView { id, view })
        }
        OP_COMPILE_VIEW => {
            let id = (r.read_gamma()? - 1) as u32;
            let label = ViewLabel::read_snapshot(r, grammar, pg)?;
            Ok(OplogOp::CompileView { id, label })
        }
        _ => Err(SnapshotError::Malformed("unknown op-log tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{read_label, write_label};
    use wf_core::{Fvl, VariantKind};
    use wf_model::fixtures::paper_example;
    use wf_run::fixtures::figure3_run;

    #[test]
    fn insert_runs_roundtrip_streaming() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let (run, _) = figure3_run(&ex);
        let labels = fvl.labeler(&run).labels().to_vec();
        let cycles = fvl.prod_graph().cycles().unwrap();

        let mut w = BitWriter::new();
        write_insert_header(&mut w, labels.len());
        for d in &labels {
            write_label(&mut w, fvl.codec(), d.to_ref());
        }
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        match read_op(&mut r, &ex.spec.grammar, fvl.prod_graph()).unwrap() {
            OplogOp::InsertLabels { count } => {
                assert_eq!(count, labels.len());
                for d in &labels {
                    let back = read_label(&mut r, fvl.codec(), &ex.spec.grammar, cycles).unwrap();
                    assert_eq!(&back, d);
                }
            }
            _ => panic!("expected an insert run"),
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn view_and_compile_ops_roundtrip_validated() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let g = &ex.spec.grammar;
        let view = ex.view_u2();
        let vl = fvl.label_view(&view, VariantKind::Default).unwrap();

        let mut w = BitWriter::new();
        write_add_view(&mut w, g, 7, &view);
        write_compile_view(&mut w, 7, &vl);
        let bits = w.finish();
        let mut r = BitReader::new(&bits);
        match read_op(&mut r, g, fvl.prod_graph()).unwrap() {
            OplogOp::AddView { id, .. } => assert_eq!(id, 7),
            _ => panic!("expected a view registration"),
        }
        match read_op(&mut r, g, fvl.prod_graph()).unwrap() {
            OplogOp::CompileView { id, label } => {
                assert_eq!(id, 7);
                assert_eq!(label.kind(), VariantKind::Default);
            }
            _ => panic!("expected a compiled label"),
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn unknown_tags_and_truncation_are_rejected() {
        let ex = paper_example();
        let fvl = Fvl::new(&ex.spec).unwrap();
        let g = &ex.spec.grammar;

        // A tag outside the op-log range is a structural error, not a panic.
        let mut w = BitWriter::new();
        w.write_bits(0x5A, 8);
        let bits = w.finish();
        assert!(matches!(
            read_op(&mut BitReader::new(&bits), g, fvl.prod_graph()),
            Err(SnapshotError::Malformed("unknown op-log tag"))
        ));

        // A view op whose body is cut off surfaces the underlying read
        // error instead of inventing a view.
        let mut w = BitWriter::new();
        w.write_bits(OP_ADD_VIEW as u64, 8);
        w.write_gamma(1);
        let bits = w.finish();
        assert!(read_op(&mut BitReader::new(&bits), g, fvl.prod_graph()).is_err());
    }
}
