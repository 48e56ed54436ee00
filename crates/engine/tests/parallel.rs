//! A batch or sweep fanned out over several worker scratches must be
//! indistinguishable from the same call on one: same answers, element for
//! element, for every variant and any scratch count — and concurrent
//! workers with separate scratches must stay sound even when they
//! interleave views arbitrarily.

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

fn scratches(count: usize) -> Vec<WorkerScratch> {
    (0..count).map(|_| WorkerScratch::new()).collect()
}

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `try_query_batch_into` over {1, 2, 4} scratches, fresh or warm,
    /// agrees element-wise with one scratch for all three variants.
    #[test]
    fn batch_over_many_scratches_matches_one(
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
        // scratch count below: warm, cross-view scratch reuse must be as
        // sound fanned out as it is on one scratch.
        let mut warm = scratches(4);
        let (mut one, mut many) = (Vec::new(), Vec::new());
        for vref in vrefs {
            let kind = vref.kind;
            core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut one).unwrap();
            for k in [1usize, 2, 4] {
                core.try_query_batch_into(&mut scratches(k), vref, &id_pairs, &mut many).unwrap();
                prop_assert_eq!(&many, &one, "{:?} x{} fresh scratches", kind, k);
                core.try_query_batch_into(&mut warm[..k], vref, &id_pairs, &mut many).unwrap();
                prop_assert_eq!(&many, &one, "{:?} x{} warm scratches", kind, k);
            }
        }
    }

    /// `try_all_pairs_into` over {1, 2, 4} scratches returns exactly the
    /// one-scratch sweep — same pairs, same (row-major) order — and so do
    /// warm scratches reused as a shorter slice, or idling with stale hits
    /// from an earlier sweep.
    #[test]
    fn sweep_over_many_scratches_matches_one(
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
        let core = gen.core();
        let subset: Vec<_> = items.iter().copied().step_by(2).collect();
        let (mut one, mut many) = (Vec::new(), Vec::new());
        core.try_all_pairs_into(&mut WorkerScratch::new(), vref, &subset, &mut one).unwrap();
        for k in [1usize, 2, 4] {
            core.try_all_pairs_into(&mut scratches(k), vref, &subset, &mut many).unwrap();
            prop_assert_eq!(&many, &one, "x{} fresh scratches", k);
        }
        let mut warm = scratches(4);
        core.try_all_pairs_into(&mut warm, vref, &subset, &mut many).unwrap();
        prop_assert_eq!(&many, &one, "x4 warm scratches");
        core.try_all_pairs_into(&mut warm[..3], vref, &subset, &mut many).unwrap();
        prop_assert_eq!(&many, &one, "x3 of 4 warm scratches");
        // Five rows over four scratches run three chunks of two: the idle
        // fourth scratch still holds hits from the sweeps above.
        let few = &subset[..5.min(subset.len())];
        core.try_all_pairs_into(&mut WorkerScratch::new(), vref, few, &mut one).unwrap();
        core.try_all_pairs_into(&mut warm, vref, few, &mut many).unwrap();
        prop_assert_eq!(&many, &one, "{} rows over 4 warm scratches", few.len());
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

/// The query API surfaces caller mistakes as typed values, inline and
/// fanned out alike, and leaves the output empty on every error.
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
    let mut two = scratches(2);
    let mut none: [WorkerScratch; 0] = [];

    // A handle for a variant that was never compiled.
    let uncompiled = ViewRef { id: vid, kind: VariantKind::QueryEfficient };
    let not_compiled = EngineError::ViewNotCompiled { view: uncompiled };
    assert_eq!(core.try_query(&mut ws, uncompiled, items[0], items[1]), Err(not_compiled.clone()));
    // Outputs start dirty: an error must clear them, not append to them.
    let (mut out, mut hits) = (vec![Some(true)], vec![(items[0], items[0])]);
    let batch = [(items[0], items[1])];
    assert_eq!(
        core.try_query_batch_into(&mut ws, uncompiled, &batch, &mut out),
        Err(not_compiled.clone())
    );
    assert!(out.is_empty(), "failed batch must leave the output empty");
    assert_eq!(
        core.try_all_pairs_into(&mut two, uncompiled, &items[..4], &mut hits),
        Err(not_compiled.clone())
    );
    assert!(hits.is_empty(), "failed sweep must leave the output empty");

    // An item id from some other engine's store.
    let alien = ItemId(items.len() as u32 + 7);
    let out_of_range = EngineError::ItemOutOfRange { item: alien, len: items.len() };
    assert_eq!(core.try_query(&mut ws, compiled, items[0], alien), Err(out_of_range.clone()));
    out.push(None);
    assert_eq!(
        core.try_query_batch_into(&mut two, compiled, &[(alien, items[0])], &mut out),
        Err(out_of_range.clone())
    );
    assert!(out.is_empty());

    // No scratch for a non-empty input is an error too, reported after the
    // view and item checks; an empty input needs none (see below).
    for (view, item, want) in [
        (uncompiled, items[0], not_compiled),
        (compiled, alien, out_of_range.clone()),
        (compiled, items[0], EngineError::NoWorkerScratch),
    ] {
        out.push(None);
        assert_eq!(
            core.try_query_batch_into(&mut none, view, &[(item, items[1])], &mut out),
            Err(want.clone())
        );
        assert!(out.is_empty());
        hits.push((items[0], items[0]));
        assert_eq!(
            core.try_all_pairs_into(&mut none, view, &[items[1], item], &mut hits),
            Err(want)
        );
        assert!(hits.is_empty());
    }

    // Errors render for operators.
    let msg = out_of_range.to_string();
    assert!(msg.contains("out of range"), "{msg}");

    // Valid input still answers through every path.
    let got = core.try_query(&mut ws, compiled, items[0], items[1]).unwrap();
    core.try_query_batch_into(&mut ws, compiled, &batch, &mut out).unwrap();
    assert_eq!(out, [got]);
    core.try_query_batch_into(&mut two, compiled, &batch, &mut out).unwrap();
    assert_eq!(out, [got]);
}

/// Empty inputs are served for any scratch count, none included, and
/// clear the output.
#[test]
fn empty_inputs_answer_for_any_scratch_count() {
    let w = bioaid(4);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(4);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 50);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 6);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    for k in [0usize, 1, 2, 4] {
        let (mut out, mut hits) = (vec![Some(true)], vec![(items[0], items[0])]);
        assert_eq!(core.try_query_batch_into(&mut scratches(k), vref, &[], &mut out), Ok(()));
        assert!(out.is_empty(), "x{k}");
        assert_eq!(core.try_all_pairs_into(&mut scratches(k), vref, &[], &mut hits), Ok(()));
        assert!(hits.is_empty(), "x{k}");
    }
}
