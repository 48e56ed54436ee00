//! Snapshot economics: cold label-from-scratch vs snapshot warm start.
//!
//! §6.1 reports labeling time separately from query time because labels are
//! computed *once*; persisting them is what lets a serving process actually
//! bank that one-time cost across restarts. This bench measures the whole
//! warm-start story: the cold path (dynamic labeling + store interning +
//! view compilation for all three variants + publish) against
//! `EngineGeneration::save` / `EngineGeneration::load`, plus the
//! snapshot's storage efficiency — the trie-interned store's bits/label
//! against the §5 per-label codec bound. Besides the Criterion printout,
//! the run writes `BENCH_snapshot_roundtrip.txt` into the workspace root;
//! `bench_check` gates its shape, warm load ≤ 1.5× the cold build, and the
//! store staying within the codec bound.

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use wf_bench::report::Report;
use wf_bench::{ms, Bench};
use wf_bitio::BitWriter;
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineGeneration, EngineWriter, LiveEngine, WorkerScratch};

const ITEMS: usize = 8_000;
/// Repeats behind each median timing in the report.
const REPEATS: usize = 5;

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

fn bench_snapshot_roundtrip(c: &mut Criterion) {
    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let run = bench.run_of(42, ITEMS);
    let view = bench.safe_view(7, 8);

    // The cold path a restart pays without snapshots: relabel the run,
    // intern everything, recompile every (view, variant), publish.
    let build_cold = || {
        let labeler = fvl.labeler(&run);
        let mut writer = EngineWriter::from_fvl(fvl.clone());
        writer.try_insert_labels(labeler.labels()).unwrap();
        let vid = writer.add_view(view.clone());
        for kind in VARIANTS {
            writer.compile(vid, kind).unwrap();
        }
        writer.publish(&LiveEngine::new(writer.base().clone()))
    };
    let engine = build_cold();
    let mut bytes = Vec::new();
    engine.save(&mut bytes).unwrap();
    let load = || EngineGeneration::load(fvl.clone(), &mut bytes.as_slice()).unwrap();

    // Guard: the loaded generation must answer exactly like the cold one
    // before any number is reported.
    {
        let cold = build_cold();
        let warm = load();
        let mut ws = WorkerScratch::new();
        let (mut cold_answers, mut warm_answers) = (Vec::new(), Vec::new());
        let pairs = bench.queries(&run, 5, 512);
        let vid = wf_engine::ViewId(0);
        for kind in VARIANTS {
            let vref = wf_engine::ViewRef { id: vid, kind };
            let id_pairs: Vec<_> = pairs
                .iter()
                .map(|&(a, b)| (wf_engine::ItemId(a.0), wf_engine::ItemId(b.0)))
                .collect();
            cold.core().try_query_batch_into(&mut ws, vref, &id_pairs, &mut cold_answers).unwrap();
            warm.core().try_query_batch_into(&mut ws, vref, &id_pairs, &mut warm_answers).unwrap();
            assert_eq!(cold_answers, warm_answers, "{kind:?}: loaded generation diverges");
        }
    }

    // Storage efficiency: the trie-interned store section vs the §5 codec
    // bound (sum of per-label wire encodings, measured over borrowed
    // LabelRefs — no owning labels are materialized).
    let store = engine.store();
    let mut w = BitWriter::new();
    store.write_snapshot(fvl.codec(), &mut w);
    let store_bits = w.finish().len();
    let (mut ob, mut ib) = (Vec::new(), Vec::new());
    let codec_bits: usize = (0..store.len())
        .map(|i| {
            fvl.codec().encoded_bits_ref(store.label_ref(
                wf_engine::ItemId(i as u32),
                &mut ob,
                &mut ib,
            ))
        })
        .sum();
    let store_bpl = store_bits as f64 / store.len() as f64;
    let codec_bpl = codec_bits as f64 / store.len() as f64;

    // Timings for the report (medians of a few repeats, independent of
    // Criterion's adaptive batching).
    let median = |mut xs: Vec<f64>| {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs[xs.len() / 2]
    };
    let cold_ms = median((0..REPEATS).map(|_| ms(|| std::mem::drop(build_cold()))).collect());
    let save_ms = median(
        (0..REPEATS)
            .map(|_| {
                let mut out = Vec::new();
                ms(|| engine.save(&mut out).unwrap())
            })
            .collect(),
    );
    let load_ms = median((0..REPEATS).map(|_| ms(|| std::mem::drop(load()))).collect());

    let mut rep = Report::new("snapshot_roundtrip");
    rep.metric("items", store.len() as f64);
    rep.metric("views", 1.0);
    rep.metric("variants_compiled", 3.0);
    rep.metric("repeats", REPEATS as f64);
    rep.metric("snapshot_bytes", bytes.len() as f64);
    rep.metric("cold_build_ms", cold_ms);
    rep.metric("save_ms", save_ms);
    rep.metric("load_ms", load_ms);
    rep.metric("warm_start_speedup", cold_ms / load_ms);
    rep.metric("store_bits_per_label", store_bpl);
    rep.metric("codec_bits_per_label", codec_bpl);

    let mut g = c.benchmark_group("snapshot_roundtrip");
    g.bench_function("cold_build", |b| b.iter(&build_cold));
    g.bench_function("save", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            engine.save(&mut out).unwrap();
            out.len()
        })
    });
    g.bench_function("load", |b| b.iter(|| load().store().len()));
    g.finish();

    rep.write();
}

criterion_group!(benches, bench_snapshot_roundtrip);
criterion_main!(benches);
