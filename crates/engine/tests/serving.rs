//! Serving-layer integration: the engine must answer byte-for-byte like the
//! reference per-call path, under realistic (generated) workloads, across
//! variants, and with views interleaved arbitrarily.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{EngineWriter, LiveEngine, WorkerScratch};
use wf_workloads::{bioaid, sample, views, Workload};

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

#[test]
fn batch_agrees_with_reference_across_variants() {
    let w = bioaid(11);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(11);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 600);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 8);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let pairs = sample::sample_query_pairs(&run, &mut rng, 500);
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    let vid = writer.add_view(view.clone());
    let vrefs = VARIANTS.map(|kind| writer.compile(vid, kind).unwrap());
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let mut ws = WorkerScratch::new();
    let mut batch = Vec::new();
    for vref in vrefs {
        let kind = vref.kind;
        let vl = fvl.label_view(&view, kind).unwrap();
        gen.core().try_query_batch_into(&mut ws, vref, &id_pairs, &mut batch).unwrap();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            let reference = fvl.query(&vl, labeler.label(a), labeler.label(b));
            assert_eq!(batch[i], reference, "{kind:?} pair {i}: {a:?} -> {b:?}");
        }
    }
}

/// Interleaving queries across different views must not poison the
/// chain power caches (they are keyed by view uid, so each view keeps its
/// own).
#[test]
fn interleaved_views_stay_sound() {
    let w = bioaid(3);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(3);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 400);
    let labeler = fvl.labeler(&run);
    let view_a = views::random_safe_view(&w, &mut rng, 6);
    let view_b = views::random_safe_view(&w, &mut rng, 12);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let ra = writer.register_view(view_a.clone(), VariantKind::Default).unwrap();
    let rb = writer.register_view(view_b.clone(), VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let mut ws = WorkerScratch::new();
    let vla = fvl.label_view(&view_a, VariantKind::Default).unwrap();
    let vlb = fvl.label_view(&view_b, VariantKind::Default).unwrap();

    let pairs = sample::sample_query_pairs(&run, &mut rng, 300);
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let (vref, vl) = if i % 2 == 0 { (ra, &vla) } else { (rb, &vlb) };
        let got =
            gen.core().try_query(&mut ws, vref, items[a.0 as usize], items[b.0 as usize]).unwrap();
        let want = fvl.query(vl, labeler.label(a), labeler.label(b));
        assert_eq!(got, want, "query {i} on view {}", if i % 2 == 0 { "A" } else { "B" });
    }
}

#[test]
fn all_pairs_matches_pairwise_queries() {
    let w = bioaid(5);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(5);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 120);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 8);
    let vl = fvl.label_view(&view, VariantKind::Default).unwrap();

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));

    let subset: Vec<_> = items.iter().copied().step_by(3).collect();
    let mut dependent = Vec::new();
    gen.core()
        .try_all_pairs_into(&mut WorkerScratch::new(), vref, &subset, &mut dependent)
        .unwrap();
    let mut expected = Vec::new();
    for &a in &subset {
        for &b in &subset {
            let da = labeler.label(wf_run::DataId(a.0));
            let db = labeler.label(wf_run::DataId(b.0));
            if fvl.query(&vl, da, db) == Some(true) {
                expected.push((a, b));
            }
        }
    }
    assert_eq!(dependent, expected);
    assert!(!dependent.is_empty(), "a run always has some dependent pairs");
}

/// The batched path evaluates in grouped (sorted-by-item) order to reuse
/// label fetches and keep memo locality — but its *output* must stay
/// element-for-element identical to per-call queries in input order, for
/// any input arrangement: duplicated pairs, shared first items, reversed
/// and shuffled orders.
#[test]
fn grouped_batch_matches_per_call_queries() {
    let w = bioaid(13);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(13);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 300);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 6);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let mut ws = WorkerScratch::new();

    let base = sample::sample_query_pairs(&run, &mut rng, 200);
    let mut id_pairs: Vec<_> =
        base.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();
    // Stress the grouping: duplicate a prefix (equal (a, b) keys), give one
    // hot item a long run of partners, then reverse the whole thing so the
    // evaluation order differs maximally from the input order.
    let dupes: Vec<_> = id_pairs[..40].to_vec();
    id_pairs.extend(dupes);
    let hot = items[0];
    id_pairs.extend(items.iter().rev().take(64).map(|&b| (hot, b)));
    id_pairs.reverse();

    let core = gen.core();
    let mut batch = Vec::new();
    core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut batch).unwrap();
    assert_eq!(batch.len(), id_pairs.len());
    for (i, &(a, b)) in id_pairs.iter().enumerate() {
        assert_eq!(Ok(batch[i]), core.try_query(&mut ws, vref, a, b), "pair {i}: {a:?} -> {b:?}");
    }
}

/// After warm-up, repeated batches must not grow the scratch: the batched
/// path is allocation-free in steady state.
#[test]
fn steady_state_is_allocation_free() {
    let w = bioaid(7);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(7);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 500);
    let labeler = fvl.labeler(&run);
    let view = views::random_safe_view(&w, &mut rng, 8);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items = writer.try_insert_labels(labeler.labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let pairs = sample::sample_query_pairs(&run, &mut rng, 400);
    let id_pairs: Vec<_> =
        pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();

    let core = gen.core();
    let mut ws = WorkerScratch::new();
    let mut out = Vec::with_capacity(id_pairs.len());
    core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
    core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
    let warm = ws.stats();
    for _ in 0..3 {
        core.try_query_batch_into(&mut ws, vref, &id_pairs, &mut out).unwrap();
        assert_eq!(ws.stats(), warm, "scratch grew after warm-up");
    }
}

/// One store may intern the labels of two different runs. A pair with one
/// item from each has no dependency to decide, and its label paths can
/// diverge on edges of different productions (274 of the sampled pairs
/// here do), so π must not index one production's matrices with the
/// other's positions: every such pair gets an answer, never a panic.
#[test]
fn cross_run_pairs_answer_without_panicking() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(3);
    let (_, run_a) = sample::sample_run(&w, &pg, &mut rng, 2000);
    let (_, run_b) = sample::sample_run(&w, &pg, &mut rng, 2000);
    let view = views::random_safe_view(&w, &mut rng, 8);

    let mut writer = EngineWriter::from_fvl(fvl.clone());
    let items_a = writer.try_insert_labels(fvl.labeler(&run_a).labels()).unwrap();
    let items_b = writer.try_insert_labels(fvl.labeler(&run_b).labels()).unwrap();
    let vref = writer.register_view(view, VariantKind::Default).unwrap();
    let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
    let core = gen.core();
    let mut ws = WorkerScratch::new();
    let mut answered = 0usize;
    for &a in items_a.iter().step_by(7) {
        for &b in items_b.iter().step_by(7) {
            assert!(core.try_query(&mut ws, vref, a, b).is_ok());
            answered += 1;
        }
    }
    assert_eq!(answered, 296 * 290);
}
