//! The parallel read path must be indistinguishable from the sequential
//! one: same answers, element for element, for every variant and any
//! thread count — and concurrent workers with separate scratches must stay
//! sound even when they interleave views arbitrarily.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineError, EngineWriter, ItemId, LiveEngine, ViewRef, WorkerScratch};
use wf_workloads::queries::{sample_pairs, PairDist};
use wf_workloads::{bioaid, sample, views, Workload};

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `try_par_query_batch` agrees element-wise with the sequential batch for
    /// all three variants and thread counts {1, 2, 4} (including counts
    /// exceeding the pair count, which the clamp handles).
    #[test]
    fn par_query_batch_agrees_with_sequential(
        seed in 0u64..300,
        run_size in 60usize..300,
        view_size in 2usize..10,
    ) {
        let w = bioaid(seed % 7);
        let fvl = shared_fvl(&w);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labeler = fvl.labeler(&run);
        let view = views::random_safe_view(&w, &mut rng, view_size);

        let mut writer = EngineWriter::from_fvl(fvl.clone());
        let items = writer.try_insert_labels(labeler.labels()).unwrap();
        let vid = writer.add_view(view);
        let vrefs = VARIANTS.map(|kind| writer.compile(vid, kind).unwrap());
        let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
        let core = gen.core();
        let mut ws = WorkerScratch::new();
        let pairs = sample_pairs(&run, &mut rng, 200, PairDist::Uniform);
        let id_pairs: Vec<_> =
            pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

        // One set of worker scratches reused across every variant and
        // thread count below: warm, cross-view scratch reuse must be as
        // sound in the parallel path as it is sequentially.
        let mut warm: Vec<_> = (0..4).map(|_| WorkerScratch::new()).collect();
        let mut sequential = Vec::new();
        for vref in vrefs {
            let kind = vref.kind;
            core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut sequential).unwrap();
            for threads in [1usize, 2, 4] {
                let parallel = core.try_par_query_batch(vref, &id_pairs, threads).unwrap();
                prop_assert_eq!(&parallel, &sequential, "{:?} x{} threads", kind, threads);
                let reused =
                    core.try_par_query_batch_with(&mut warm[..threads], vref, &id_pairs).unwrap();
                prop_assert_eq!(&reused, &sequential, "{:?} x{} warm scratches", kind, threads);
            }
        }
    }

    /// Row-sharded `try_par_all_pairs` returns exactly the sequential sweep —
    /// same pairs, same (row-major) order.
    #[test]
    fn par_all_pairs_agrees_with_sequential(
        seed in 0u64..300,
        run_size in 40usize..160,
    ) {
        let w = bioaid(seed % 5);
        let fvl = shared_fvl(&w);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labeler = fvl.labeler(&run);
        let view = views::random_safe_view(&w, &mut rng, 8);

        let mut writer = EngineWriter::from_fvl(fvl.clone());
        let items = writer.try_insert_labels(labeler.labels()).unwrap();
        let vref = writer.register_view(view, VariantKind::Default).unwrap();
        let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
        let subset: Vec<_> = items.iter().copied().step_by(2).collect();
        let mut sequential = Vec::new();
        gen.core()
            .try_all_pairs_into(&mut WorkerScratch::new(), vref, &subset, &mut sequential)
            .unwrap();
        for threads in [1usize, 2, 4] {
            let parallel = gen.core().try_par_all_pairs(vref, &subset, threads).unwrap();
            prop_assert_eq!(&parallel, &sequential, "x{} threads", threads);
        }
    }
}

/// Two workers hammering *different* views through one shared frozen core,
/// each with its own `WorkerScratch`, must both answer exactly like the
/// sequential path: per-worker chain-power memos are keyed by view uid,
/// so concurrent interleaving across views cannot poison either side.
#[test]
fn interleaved_views_across_threads_stay_sound() {
    let w = bioaid(13);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(13);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 400);
    let labeler = fvl.labeler(&run);
    let view_a = views::random_safe_view(&w, &mut rng, 6);
    let view_b = views::random_safe_view(&w, &mut rng, 12);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let ra = writer.register_view(view_a, VariantKind::Default).unwrap();
    let rb = writer.register_view(view_b, VariantKind::SpaceEfficient).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));

    let pairs =
        sample_pairs(&run, &mut rng, 300, PairDist::HotKey { hot_items: 16, hot_prob: 0.5 });
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    // Sequential reference, per view.
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    let (mut want_a, mut want_b) = (Vec::new(), Vec::new());
    core.try_query_batch_into(&mut ws, ra, &id_pairs, &mut want_a).unwrap();
    core.try_query_batch_into(&mut ws, rb, &id_pairs, &mut want_b).unwrap();

    let id_pairs = &id_pairs;
    std::thread::scope(|s| {
        // Each worker alternates between the two views on every query —
        // the worst case for memo confusion — with its own scratch. The
        // two workers run opposite phases, so at any instant the core is
        // (likely) serving both views at once.
        for flip in [0usize, 1] {
            let (want_a, want_b) = (&want_a, &want_b);
            s.spawn(move || {
                let mut ws = WorkerScratch::new();
                for (i, &(a, b)) in id_pairs.iter().enumerate() {
                    let (view, want) =
                        if (i + flip) % 2 == 0 { (ra, want_a[i]) } else { (rb, want_b[i]) };
                    let got = core.try_query(&mut ws, view, a, b).unwrap();
                    assert_eq!(got, want, "worker {flip}, query {i}");
                }
                // The worker's scratch warmed up per-view memo entries and
                // stayed private; clearing it is local to this worker.
                assert!(ws.stats().0 > 0 || ws.stats().1 > 0);
                ws.clear_memo();
            });
        }
    });
}

/// The query API surfaces caller mistakes as typed values, on the
/// sequential and the parallel paths alike.
#[test]
fn try_api_reports_uncompiled_views_and_bad_items() {
    let w = bioaid(2);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(2);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 80);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 6);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vid = writer.add_view(view);
    let compiled = writer.compile(vid, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    let mut ws = WorkerScratch::new();

    // A handle for a variant that was never compiled.
    let uncompiled = ViewRef { id: vid, kind: VariantKind::QueryEfficient };
    assert_eq!(
        core.try_query(&mut ws, uncompiled, items[0], items[1]),
        Err(EngineError::ViewNotCompiled { view: uncompiled })
    );
    let mut out = Vec::new();
    out.push(Some(true)); // must be cleared, not appended to, on error
    let batch = [(items[0], items[1])];
    assert!(core.try_query_batch_into(&mut ws, uncompiled, &batch, &mut out).is_err());
    assert!(out.is_empty(), "failed batch must leave the output empty");

    // An item id from some other engine's store.
    let alien = ItemId(items.len() as u32 + 7);
    assert_eq!(
        core.try_query(&mut ws, compiled, items[0], alien),
        Err(EngineError::ItemOutOfRange { item: alien, len: items.len() })
    );
    assert!(core.try_par_query_batch(compiled, &[(alien, items[0])], 2).is_err());
    assert_eq!(
        core.try_par_all_pairs(uncompiled, &items[..4], 2),
        Err(EngineError::ViewNotCompiled { view: uncompiled })
    );

    // Caller-owned scratches: none for a non-empty batch is an error too,
    // reported after the view check; an empty batch needs none.
    let no_scratch = core.try_par_query_batch_with(&mut [], compiled, &batch);
    assert_eq!(no_scratch, Err(EngineError::NoWorkerScratch));
    assert_eq!(
        core.try_par_query_batch_with(&mut [], uncompiled, &batch),
        Err(EngineError::ViewNotCompiled { view: uncompiled })
    );
    assert_eq!(core.try_par_query_batch_with(&mut [], compiled, &[]), Ok(Vec::new()));

    // Errors render for operators.
    let msg = EngineError::ItemOutOfRange { item: alien, len: items.len() }.to_string();
    assert!(msg.contains("out of range"), "{msg}");

    // Valid input still answers through every path.
    let got = core.try_query(&mut ws, compiled, items[0], items[1]).unwrap();
    core.try_query_batch_into(&mut ws, compiled, &batch, &mut out).unwrap();
    assert_eq!(out, [got]);
    assert_eq!(core.try_par_query_batch(compiled, &batch, 2), Ok(vec![got]));
}

/// Empty inputs are served, not special-cased away.
#[test]
fn parallel_paths_handle_empty_inputs() {
    let w = bioaid(4);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(4);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 50);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 6);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    writer.try_insert_labels(labeler.labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    assert!(gen.core().try_par_query_batch(vref, &[], 4).unwrap().is_empty());
    assert!(gen.core().try_par_all_pairs(vref, &[], 4).unwrap().is_empty());
}
