//! The generational engine under fire: durable delta frames must recover
//! to exactly the published state, and readers racing a publishing writer
//! must only ever observe answers of *some* published generation —
//! element-identical to a cold single-generation build of that
//! generation's state. No torn reads, no locks on the query path.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{DataLabel, Fvl, VariantKind};
use wf_engine::{
    DurableEngine, EngineGeneration, EngineWriter, ItemId, LiveEngine, SnapshotError, ViewRef,
    WorkerScratch,
};
use wf_model::View;
use wf_snapshot::{scan_log, MemStorage};
use wf_workloads::churn::{churn_stream, ChurnOp, ChurnSpec};
use wf_workloads::{bioaid, sample, views, Workload};

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

/// A cold build: one writer interning `labels` and registering `views`
/// in order, published once — the sequential reference every live or
/// recovered generation is checked against.
fn cold_build(
    fvl: &Arc<Fvl<'static>>,
    labels: &[DataLabel],
    views: impl IntoIterator<Item = (View, VariantKind)>,
) -> (Arc<EngineGeneration>, Vec<ViewRef>) {
    let mut writer = EngineWriter::from_fvl(fvl.clone());
    writer.try_insert_labels(labels).unwrap();
    let refs = views.into_iter().map(|(v, k)| writer.register_view(v, k).unwrap()).collect();
    let live = LiveEngine::new(writer.base().clone());
    (writer.publish(&live), refs)
}

/// A compacted base at generation 1, then two durable publishes, then a
/// warm restart from base ‖ frames: the recovered generation must agree
/// with the live one — and with a cold build — on the all-pairs sweep over every
/// item, for every compiled view.
#[test]
fn base_plus_frames_recover_the_published_state() {
    let w = bioaid(3);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(11);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 160);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view_a = views::random_safe_view(&w, &mut rng, 6);
    let view_b = views::random_safe_view(&w, &mut rng, 10);
    let (third, two_thirds) = (labels.len() / 3, 2 * labels.len() / 3);

    // Generation 1: first third + view A (Default), compacted into the base.
    let storage = MemStorage::new();
    let (mut durable, gen0, _) =
        DurableEngine::open(fvl.clone(), Box::new(storage.clone()), 64).unwrap();
    let live = LiveEngine::new(gen0.clone());
    let mut writer = EngineWriter::new(gen0);
    writer.try_insert_labels(&labels[..third]).unwrap();
    let ra = writer.register_view(view_a.clone(), VariantKind::Default).unwrap();
    let g1 = writer.publish_durable(&live, &mut durable).unwrap();
    let mut base = Vec::new();
    g1.save(&mut base).unwrap();
    durable.install_base(&base, 1).unwrap().expect("compacts");

    // Generation 2 (frame): second third + view B (Query-Efficient).
    writer.try_insert_labels(&labels[third..two_thirds]).unwrap();
    let rb = writer.register_view(view_b.clone(), VariantKind::QueryEfficient).unwrap();
    writer.publish_durable(&live, &mut durable).unwrap();

    // Generation 3 (frame): the rest + view A under a second variant.
    writer.try_insert_labels(&labels[two_thirds..]).unwrap();
    let ra_se = writer.compile(ra.id, VariantKind::SpaceEfficient).unwrap();
    let g3 = writer.publish_durable(&live, &mut durable).unwrap();
    assert_eq!(g3.seqno(), 3);

    // Warm restart from the surviving bytes against a fresh scheme.
    let (_, recovered, report) =
        DurableEngine::open(shared_fvl(&w), Box::new(storage.survivor()), 64).unwrap();
    assert_eq!((report.base_seqno, report.replayed_frames), (1, 2));
    assert_eq!(recovered.seqno(), 3);
    assert_eq!(recovered.store().len(), labels.len());
    assert_eq!(recovered.store().edge_stats(), g3.store().edge_stats());
    assert_eq!(recovered.registry().view_count(), 2);
    assert_eq!(recovered.registry().compiled_count(), 3);

    // Cold reference: one single-generation build with everything.
    let (cold, refs) = cold_build(
        &fvl,
        &labels,
        [
            (view_a.clone(), VariantKind::Default),
            (view_b, VariantKind::QueryEfficient),
            (view_a, VariantKind::SpaceEfficient),
        ],
    );
    let items: Vec<ItemId> = (0..labels.len() as u32).map(ItemId).collect();

    let mut ws = WorkerScratch::new();
    let (mut expected, mut got) = (Vec::new(), Vec::new());
    for (live_ref, cold_ref) in [ra, rb, ra_se].into_iter().zip(refs) {
        cold.core().try_all_pairs_into(&mut ws, cold_ref, &items, &mut expected).unwrap();
        recovered.core().try_all_pairs_into(&mut ws, live_ref, &items, &mut got).unwrap();
        assert_eq!(got, expected, "recovered generation diverges on {live_ref:?}");
        g3.core().try_all_pairs_into(&mut ws, live_ref, &items, &mut got).unwrap();
        assert_eq!(got, expected, "published generation diverges on {live_ref:?}");
    }

    // A torn final frame is healed back to generation 2, not half-applied.
    let (_, log) = storage.contents();
    let torn = MemStorage::with_state(Some(base.clone()), log[..log.len() - 7].to_vec());
    let (_, healed, report) = DurableEngine::open(shared_fvl(&w), Box::new(torn), 64).unwrap();
    assert_eq!((healed.seqno(), report.replayed_frames), (2, 1));
    assert!(report.dropped_bytes > 0);
    // Frames out of order break the chain with a typed error: base ‖
    // frame 3 (a gap) and base ‖ frame 2 ‖ frame 2 (a repeat) both fail
    // the consecutive-seqno check instead of half-applying.
    let frames: Vec<&[u8]> =
        scan_log(&log).unwrap().frames.iter().map(|f| &log[f.start..f.payload.end]).collect();
    let (frame2, frame3) = (frames[0], frames[1]);
    for bad in [vec![frame3], vec![frame2, frame2]] {
        let storage = MemStorage::with_state(Some(base.clone()), bad.concat());
        assert!(matches!(
            DurableEngine::open(shared_fvl(&w), Box::new(storage), 64),
            Err(SnapshotError::Malformed(_))
        ));
    }
}

/// A named churn mix for the racing proptest: the fixed interleaving the
/// test used to hard-code is replaced by generated op streams, biased two
/// ways to stress different publish shapes.
#[derive(Clone, Copy, Debug)]
enum Mix {
    /// Mostly label inserts: generations grow fast, registries rarely.
    InsertHeavy,
    /// Mostly view registrations: registries grow (and compile) under
    /// serving, stores rarely.
    ViewHeavy,
}

impl Mix {
    fn spec(self, initial: usize) -> ChurnSpec {
        match self {
            Mix::InsertHeavy => ChurnSpec {
                initial_items: initial,
                insert_weight: 0.7,
                view_weight: 0.05,
                query_weight: 0.25,
                insert_chunk: 10,
                batch: 48,
                ..ChurnSpec::default()
            },
            Mix::ViewHeavy => ChurnSpec {
                initial_items: initial,
                insert_weight: 0.15,
                view_weight: 0.55,
                query_weight: 0.3,
                insert_chunk: 6,
                batch: 48,
                ..ChurnSpec::default()
            },
        }
    }
}

/// Materializes a [`ChurnOp::RegisterView`] seed the same way everywhere
/// (writer and references must derive the identical view).
fn churn_view(w: &Workload, vseed: u64) -> (wf_model::View, VariantKind) {
    let mut vrng = StdRng::seed_from_u64(vseed);
    let composites = w.spec.grammar.composite_modules().count().max(1);
    let size = vrng.gen_range(1..=composites);
    (views::random_safe_view(w, &mut vrng, size), VARIANTS[(vseed % 3) as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Readers racing a writer that replays a *generated churn stream*
    /// (view-heavy and insert-heavy mixes from `wf-workloads::churn`,
    /// publishing every few ops): every batch a reader answers must be
    /// element-identical to the answers of a cold single-generation build
    /// of the state of the generation the reader was served — i.e. every
    /// observation is of *some* published
    /// generation, never a torn mix, regardless of how inserts, view
    /// registrations and publishes interleave.
    #[test]
    fn racing_readers_observe_only_published_generations(
        seed in 0u64..200,
        mix in prop_oneof![Just(Mix::InsertHeavy), Just(Mix::ViewHeavy)],
    ) {
        let w = bioaid(seed % 3);
        let fvl = shared_fvl(&w);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, 160);
        let mut labels = fvl.labeler(&run).labels().to_vec();
        let view0 = views::random_safe_view(&w, &mut rng, 8);
        let initial = labels.len() / 2;

        let ops = churn_stream(&mut rng, 24, &mix.spec(initial));
        // Pad the label pool to cover the stream's total insert demand
        // (duplicates get fresh ids, so population arithmetic is exact).
        let needed = initial
            + ops.iter().map(|op| match op { ChurnOp::Insert { count } => *count, _ => 0 }).sum::<usize>();
        let mut i = 0usize;
        while labels.len() < needed {
            labels.push(labels[i].clone());
            i += 1;
        }
        // Reader batches: the stream's own query pairs, folded onto the
        // initial population so they are valid in every generation.
        let mut pairs: Vec<(ItemId, ItemId)> = ops
            .iter()
            .filter_map(|op| match op { ChurnOp::QueryBatch { pairs } => Some(pairs), _ => None })
            .flatten()
            .map(|&(a, b)| (ItemId(a % initial as u32), ItemId(b % initial as u32)))
            .take(64)
            .collect();
        if pairs.is_empty() {
            pairs = sample::sample_query_pairs(&run, &mut rng, 64)
                .into_iter()
                .map(|(a, b)| (ItemId(a.0 % initial as u32), ItemId(b.0 % initial as u32)))
                .collect();
        }

        for kind in VARIANTS {
            let mut writer = EngineWriter::from_fvl(fvl.clone());
            writer.try_insert_labels(&labels[..initial]).unwrap();
            let vref = writer.register_view(view0.clone(), kind).unwrap();
            let live = LiveEngine::new(writer.base().clone());
            writer.publish(&live);

            // The writer replays the churn stream, publishing every
            // `publish_every` ops; the journal records the exact state
            // (label count, view seeds) behind each published seqno so the
            // sequential references can be rebuilt afterwards.
            let publish_every = 4usize;
            let mut journal: Vec<(u64, usize, Vec<u64>)> = vec![(1, initial, Vec::new())];
            let expected_final = {
                // Publishes that will actually happen: only ops that stage
                // state (inserts / views) make a publish non-empty.
                let mut seqno = 1u64;
                let mut staged = false;
                for (ix, op) in ops.iter().enumerate() {
                    staged |= !matches!(op, ChurnOp::QueryBatch { .. });
                    if (ix + 1) % publish_every == 0 && staged {
                        seqno += 1;
                        staged = false;
                    }
                }
                if staged { seqno + 1 } else { seqno }
            };

            let observations = std::thread::scope(|s| {
                let live = &live;
                let pairs = &pairs;
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(move || {
                            let mut ws = WorkerScratch::new();
                            let mut seen = Vec::new();
                            for _ in 0..20_000 {
                                let gen = live.read();
                                let mut ans = Vec::new();
                                gen.core()
                                    .try_query_batch_into(&mut ws, vref, pairs, &mut ans)
                                    .unwrap();
                                let done = gen.seqno() == expected_final;
                                seen.push((gen.seqno(), ans));
                                if done {
                                    break;
                                }
                            }
                            seen
                        })
                    })
                    .collect();

                let mut writer = writer;
                let mut next_label = initial;
                let mut view_seeds: Vec<u64> = Vec::new();
                for (ix, op) in ops.iter().enumerate() {
                    match op {
                        ChurnOp::Insert { count } => {
                            writer.try_insert_labels(&labels[next_label..next_label + count]).unwrap();
                            next_label += count;
                        }
                        ChurnOp::RegisterView { seed: vseed } => {
                            let (view, vkind) = churn_view(&w, *vseed);
                            writer.register_view(view, vkind).unwrap();
                            view_seeds.push(*vseed);
                        }
                        ChurnOp::QueryBatch { .. } => {} // readers own the queries
                    }
                    if (ix + 1) % publish_every == 0 && writer.has_staged_changes() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        let g = writer.publish(live);
                        journal.push((g.seqno(), next_label, view_seeds.clone()));
                    }
                }
                if writer.has_staged_changes() {
                    let g = writer.publish(live);
                    journal.push((g.seqno(), next_label, view_seeds.clone()));
                }

                let mut all = Vec::new();
                for r in readers {
                    all.extend(r.join().expect("reader panicked"));
                }
                all
            });
            prop_assert_eq!(journal.last().unwrap().0, expected_final, "{:?}", mix);

            // Verify each observation against a sequential reference built
            // to exactly that generation's journaled state.
            let mut ws = WorkerScratch::new();
            for (seqno, label_count, view_seeds) in &journal {
                let views = std::iter::once((view0.clone(), kind))
                    .chain(view_seeds.iter().map(|vseed| churn_view(&w, *vseed)));
                let (reference, refs) = cold_build(&fvl, &labels[..*label_count], views);
                let rref = refs[0];
                prop_assert_eq!(rref, vref, "handles are chain-stable");
                let mut expected = Vec::new();
                reference.core().try_query_batch_into(&mut ws, rref, &pairs, &mut expected).unwrap();
                for (s, ans) in observations.iter().filter(|(s, _)| s == seqno) {
                    prop_assert_eq!(
                        ans,
                        &expected,
                        "{:?}/{:?}: observation of generation {} is not the sequential answer",
                        kind,
                        mix,
                        s
                    );
                }
            }
            // Liveness: both readers reached the final generation.
            prop_assert!(
                observations.iter().filter(|(s, _)| *s == expected_final).count() >= 2,
                "readers must observe the final publish"
            );
        }
    }
}
