//! The sharded store against the single-shard reference: element-identical
//! answers, whatever the shard capacity.
//!
//! Sharding is a pure cost-model change — `shard_capacity` must never be
//! observable through answers, snapshots or replay. These tests drive a
//! tiny-capacity sharded engine and a `capacity = u32::MAX` reference
//! (one unbounded shard: the pre-shard store, byte-for-byte — it is also
//! the bench baseline) through the same churn streams, across all three
//! §6.3 variants, and require identical answers at every published
//! generation, after save → load at a *different* capacity, and after
//! recovery from durable delta frames whose inserts cross shard boundaries
//! mid-record.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wf_analysis::ProdGraph;
use wf_core::{Fvl, VariantKind};
use wf_engine::{DurableEngine, EngineGeneration, EngineWriter, ItemId, LiveEngine, WorkerScratch};
use wf_snapshot::MemStorage;
use wf_workloads::churn::{churn_stream, ChurnOp, ChurnSpec, InsertLocality};
use wf_workloads::{bioaid, sample, views, Workload};

const VARIANTS: [VariantKind; 3] =
    [VariantKind::SpaceEfficient, VariantKind::Default, VariantKind::QueryEfficient];

fn shared_fvl(w: &Workload) -> Arc<Fvl<'static>> {
    Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap())
}

/// Materializes a [`ChurnOp::RegisterView`] seed the same way everywhere
/// (the sharded writer and the reference must derive the identical view).
fn churn_view(w: &Workload, vseed: u64) -> (wf_model::View, VariantKind) {
    let mut vrng = StdRng::seed_from_u64(vseed);
    let composites = w.spec.grammar.composite_modules().count().max(1);
    let size = vrng.gen_range(1..=composites);
    (views::random_safe_view(w, &mut vrng, size), VARIANTS[(vseed % 3) as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// One churn stream (skewed insert bursts, so single inserts span
    /// several tiny shards), applied in lockstep to a sharded writer chain
    /// and a single-shard sequential reference. At every publish, both
    /// must give element-identical batch answers for every compiled view;
    /// at the end, the all-pairs sweep over every item must match, and so
    /// must a save → load → all-pairs roundtrip at a *different*
    /// shard capacity plus a full recovery from base ‖ frames — for all
    /// three variants.
    #[test]
    fn sharded_engine_is_element_identical_to_single_shard_reference(
        seed in 0u64..200,
        cap in 2u32..6,
    ) {
        let w = bioaid(seed % 3);
        let fvl = shared_fvl(&w);
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, 120);
        let mut labels = fvl.labeler(&run).labels().to_vec();
        let view0 = views::random_safe_view(&w, &mut rng, 8);
        let initial = labels.len() / 2;

        let spec = ChurnSpec {
            initial_items: initial,
            insert_weight: 0.5,
            view_weight: 0.1,
            query_weight: 0.4,
            insert_chunk: 3,
            // Bursts up to 8 * chunk = 24 labels: a single staged insert
            // spans many `cap`-sized shards.
            locality: InsertLocality::Skewed { burst: 8 },
            batch: 24,
            ..ChurnSpec::default()
        };
        let ops = churn_stream(&mut rng, 18, &spec);
        // Pad the label pool to cover the stream's total insert demand
        // (duplicates get fresh ids, so population arithmetic is exact).
        let needed = initial
            + ops.iter().map(|op| match op { ChurnOp::Insert { count } => *count, _ => 0 }).sum::<usize>();
        let mut i = 0usize;
        while labels.len() < needed {
            labels.push(labels[i].clone());
            i += 1;
        }
        // Comparison batches: the stream's own query pairs, folded onto
        // the initial population so they are valid in every generation.
        let mut pairs: Vec<(ItemId, ItemId)> = ops
            .iter()
            .filter_map(|op| match op { ChurnOp::QueryBatch { pairs } => Some(pairs), _ => None })
            .flatten()
            .map(|&(a, b)| (ItemId(a % initial as u32), ItemId(b % initial as u32)))
            .take(48)
            .collect();
        if pairs.is_empty() {
            pairs = sample::sample_query_pairs(&run, &mut rng, 48)
                .into_iter()
                .map(|(a, b)| (ItemId(a.0 % initial as u32), ItemId(b.0 % initial as u32)))
                .collect();
        }

        for kind in VARIANTS {
            // The sharded, durable chain under test.
            let storage = MemStorage::new();
            let (mut durable, gen0, _) =
                DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap).unwrap();
            let mut writer = EngineWriter::new(gen0);
            writer.try_insert_labels(&labels[..initial]).unwrap();
            let vref = writer.register_view(view0.clone(), kind).unwrap();
            let live = LiveEngine::new(writer.base().clone());
            let g1 = writer.publish_durable(&live, &mut durable).unwrap();
            prop_assert!(
                g1.store().shard_count() > 1,
                "capacity {} over {} items must produce multiple shards", cap, initial
            );

            // The single-shard sequential reference (the pre-shard store).
            let mut reference = EngineWriter::from_fvl_with_shard_capacity(fvl.clone(), u32::MAX);
            reference.try_insert_labels(&labels[..initial]).unwrap();
            let rref = reference.register_view(view0.clone(), kind).unwrap();
            prop_assert_eq!(rref, vref, "registration order fixes handles on both sides");
            let reference_live = LiveEngine::new(reference.base().clone());

            let mut ws = WorkerScratch::new();
            let (mut got, mut expected) = (Vec::new(), Vec::new());
            let mut next_label = initial;
            let mut view_refs = vec![vref];
            for (ix, op) in ops.iter().enumerate() {
                match op {
                    ChurnOp::Insert { count } => {
                        writer.try_insert_labels(&labels[next_label..next_label + count]).unwrap();
                        reference.try_insert_labels(&labels[next_label..next_label + count]).unwrap();
                        next_label += count;
                    }
                    ChurnOp::RegisterView { seed: vseed } => {
                        let (view, vkind) = churn_view(&w, *vseed);
                        let a = writer.register_view(view.clone(), vkind).unwrap();
                        let b = reference.register_view(view, vkind).unwrap();
                        prop_assert_eq!(a, b);
                        view_refs.push(a);
                    }
                    ChurnOp::QueryBatch { .. } => {}
                }
                if (ix + 1) % 3 == 0 && writer.has_staged_changes() {
                    let gen = writer.publish_durable(&live, &mut durable).unwrap();
                    let rgen = reference.publish(&reference_live);
                    for &vr in &view_refs {
                        gen.core().try_query_batch_into(&mut ws, vr, &pairs, &mut got).unwrap();
                        rgen.core()
                            .try_query_batch_into(&mut ws, vr, &pairs, &mut expected)
                            .unwrap();
                        prop_assert_eq!(
                            &got,
                            &expected,
                            "sharded (cap {}) diverges from single-shard at seqno {} on {:?}/{:?}",
                            cap, gen.seqno(), vr, kind
                        );
                    }
                }
            }
            let final_gen = writer.publish_durable(&live, &mut durable).unwrap();
            let reference = reference.publish(&reference_live);

            // Element-identical over *every* ordered pair of every item.
            let items: Vec<ItemId> = (0..next_label as u32).map(ItemId).collect();
            let mut expected = Vec::new();
            reference.core().try_all_pairs_into(&mut ws, vref, &items, &mut expected).unwrap();
            let mut got = Vec::new();
            final_gen.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
            prop_assert_eq!(
                &got, &expected,
                "final all-pairs sweep diverges (cap {}, {:?})", cap, kind
            );

            // save → load at a *different* capacity → all-pairs: the wire
            // format is layout-free, so any capacity reads any stream.
            let mut saved = Vec::new();
            final_gen.save(&mut saved).unwrap();
            let other_cap = cap + 3;
            let reloaded = EngineGeneration::load_with_shard_capacity(
                shared_fvl(&w), &mut saved.as_slice(), other_cap,
            ).unwrap();
            prop_assert_eq!(reloaded.store().len(), next_label);
            reloaded.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
            prop_assert_eq!(
                &got, &expected,
                "reloaded at capacity {} diverges (saved at {}, {:?})", other_cap, cap, kind
            );

            // Recovery from base ‖ frames, re-sharded both ways: every
            // frame's inserts land across shard boundaries of the
            // recovered store.
            for replay_cap in [cap, u32::MAX] {
                let (_, replayed, _) = DurableEngine::open(
                    shared_fvl(&w), Box::new(storage.survivor()), replay_cap,
                ).unwrap();
                prop_assert_eq!(replayed.seqno(), final_gen.seqno());
                prop_assert_eq!(replayed.store().len(), next_label);
                replayed.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
                prop_assert_eq!(
                    &got, &expected,
                    "replay at capacity {} diverges (written at {}, {:?})", replay_cap, cap, kind
                );
            }
        }
    }
}

/// A pre-shard-format stream (what PR 5 wrote — identical bytes to what a
/// single-shard store writes today) loads into a sharded store, and a
/// sharded stream loads into a single-shard store: capacity is invisible
/// on the wire in both directions, and a truncated stream or a zero
/// capacity stays a typed error, never a panic.
#[test]
fn streams_cross_shard_capacities_in_both_directions() {
    let w = bioaid(1);
    let fvl = shared_fvl(&w);
    let pg = ProdGraph::new(&w.spec.grammar);
    let mut rng = StdRng::seed_from_u64(5);
    let (_, run) = sample::sample_run(&w, &pg, &mut rng, 100);
    let labels = fvl.labeler(&run).labels().to_vec();
    let view = views::random_safe_view(&w, &mut rng, 6);

    let save_with = |cap: u32| {
        let mut writer = EngineWriter::from_fvl_with_shard_capacity(fvl.clone(), cap);
        writer.try_insert_labels(&labels).unwrap();
        writer.register_view(view.clone(), VariantKind::Default).unwrap();
        let live = LiveEngine::new(writer.base().clone());
        let gen = writer.publish(&live);
        let mut out = Vec::new();
        gen.save(&mut out).unwrap();
        out
    };
    let from_single = save_with(u32::MAX);
    let from_sharded = save_with(4);
    assert_eq!(from_single, from_sharded, "the wire format carries no shard layout");

    let items: Vec<ItemId> = (0..labels.len() as u32).map(ItemId).collect();
    let mut ws = WorkerScratch::new();
    let mut expected = None;
    for load_cap in [2u32, 64, u32::MAX] {
        let gen = EngineGeneration::load_with_shard_capacity(
            shared_fvl(&w),
            &mut from_single.as_slice(),
            load_cap,
        )
        .unwrap();
        assert_eq!(gen.store().len(), labels.len());
        let vref = wf_engine::ViewRef { id: wf_engine::ViewId(0), kind: VariantKind::Default };
        assert!(gen.registry().label(vref).is_some(), "the saved view arrived compiled");
        let mut pairs = Vec::new();
        gen.core().try_all_pairs_into(&mut ws, vref, &items, &mut pairs).unwrap();
        match &expected {
            None => expected = Some(pairs),
            Some(e) => assert_eq!(&pairs, e, "capacity {load_cap} changes answers"),
        }
    }

    // Truncation stays typed whatever the target capacity, and a zero
    // capacity is a typed error, not a panic.
    let cut = from_single.len() - 9;
    assert!(matches!(
        EngineGeneration::load_with_shard_capacity(shared_fvl(&w), &mut &from_single[..cut], 3),
        Err(wf_engine::SnapshotError::Truncated)
    ));
    let Err(wf_engine::SnapshotError::Io(e)) =
        EngineGeneration::load_with_shard_capacity(shared_fvl(&w), &mut from_single.as_slice(), 0)
    else {
        panic!("a zero shard capacity must be rejected as an i/o error");
    };
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
}
