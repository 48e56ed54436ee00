//! Serving-layer throughput: per-call vs scratch-reused (session) vs
//! batched querying, across the three §6.3 variants.
//!
//! The per-call path rebuilds the decode context and scratch every query
//! (the seed repo's only mode); the session path reuses one
//! [`wf_core::FvlSession`]; the batched path goes through a published
//! `wf-engine` generation (registry + interned label store). Besides the
//! Criterion printout, the run writes `BENCH_query_throughput.txt` into
//! the workspace root; `bench_check` gates its shape and the same-host
//! ordering batched ≤ per-call for every variant.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_bench::report::Report;
use wf_bench::{ns_per, Bench};
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
use wf_workloads::queries::{sample_pairs, PairDist};

const PAIRS: usize = 4096;

fn bench_query_throughput(c: &mut Criterion) {
    let bench = Bench::fine(1);
    let fvl = Arc::new(Fvl::from_arc(Arc::new(bench.workload.spec.clone())).unwrap());
    let run = bench.run_of(42, 8_000);
    let labeler = fvl.labeler(&run);
    let labels = labeler.labels();
    let view = bench.safe_view(7, 8);

    // Hot-key skew: the serving shape the engine is built for.
    let mut rng = StdRng::seed_from_u64(9);
    let dist = PairDist::HotKey { hot_items: 64, hot_prob: 0.5 };
    let pairs = sample_pairs(&run, &mut rng, PAIRS, dist);

    let variants = [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labels).unwrap();
    let vid = writer.add_view(view.clone());
    let vrefs = variants.map(|kind| writer.compile(vid, kind).unwrap());
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    let mut rep = Report::new("query_throughput");
    rep.metric("pairs", PAIRS as f64);
    rep.info("unit", "ns_per_query");

    let mut g = c.benchmark_group("query_throughput");
    for (kind, vref) in variants.into_iter().zip(vrefs) {
        let vl = fvl.label_view(&view, kind).unwrap();

        // Guard: the fast paths must agree with the reference before any
        // number is reported.
        let mut batch = Vec::new();
        core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut batch).unwrap();
        let mut session_check = fvl.session(&vl);
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let reference = fvl.query(&vl, &labels[a.0 as usize], &labels[b.0 as usize]);
            assert_eq!(batch[i], reference, "{kind:?} batch diverges at pair {i}");
            let s = session_check.query(&labels[a.0 as usize], &labels[b.0 as usize]);
            assert_eq!(s, reference, "{kind:?} session diverges at pair {i}");
        }

        // Report numbers via the shared timer (independent of Criterion's
        // adaptive batching), then the Criterion printout.
        let per_call = ns_per(pairs.len(), |i| {
            let (a, b) = pairs[i % pairs.len()];
            fvl.query(&vl, &labels[a.0 as usize], &labels[b.0 as usize])
        });
        let mut session = fvl.session(&vl);
        let session_ns = ns_per(pairs.len(), |i| {
            let (a, b) = pairs[i % pairs.len()];
            session.query(&labels[a.0 as usize], &labels[b.0 as usize])
        });
        let mut out = Vec::with_capacity(id_pairs.len());
        let mut batch_into = |out: &mut Vec<Option<bool>>| {
            core.try_query_batch_into(&mut ws, vref, &id_pairs, out).expect("handles are valid")
        };
        batch_into(&mut out); // warm the scratch
        let rounds = 8usize;
        let batch_ns = ns_per(rounds, |_| batch_into(&mut out)) / id_pairs.len() as f64;

        rep.metric(&format!("variants.{kind:?}.per_call"), per_call);
        rep.metric(&format!("variants.{kind:?}.session"), session_ns);
        rep.metric(&format!("variants.{kind:?}.batched"), batch_ns);

        let mut i = 0usize;
        g.bench_function(format!("{kind:?}/per_call"), |b| {
            b.iter(|| {
                let (a, d) = pairs[i % pairs.len()];
                i += 1;
                fvl.query(&vl, &labels[a.0 as usize], &labels[d.0 as usize])
            })
        });
        let mut session = fvl.session(&vl);
        let mut i = 0usize;
        g.bench_function(format!("{kind:?}/session"), |b| {
            b.iter(|| {
                let (a, d) = pairs[i % pairs.len()];
                i += 1;
                session.query(&labels[a.0 as usize], &labels[d.0 as usize])
            })
        });
        g.bench_function(format!("{kind:?}/batch{PAIRS}"), |b| b.iter(|| batch_into(&mut out)));
    }
    g.finish();
    rep.write();
}

criterion_group!(benches, bench_query_throughput);
criterion_main!(benches);
