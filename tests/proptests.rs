//! Property-based tests (proptest) over randomized specifications, runs and
//! views: the paper's invariants must hold for *every* seed, not just the
//! fixtures.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use wfprov::analysis::{classify, ProdGraph, RecursionClass};
use wfprov::engine::{
    shared_durable, DurableEngine, EngineWriter, IngestOp, IngestPipeline, ItemId, LabelStore,
    LiveEngine, PipelineOptions, PublishPolicy, Ticket, WorkerScratch,
};
use wfprov::fvl::{DataLabel, Fvl, VariantKind};
use wfprov::model::ViewSpec;
use wfprov::run::RunOracle;
use wfprov::snapshot::MemStorage;
use wfprov::workloads::{bioaid, sample, synthetic, views, SynthParams};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Theorem 9 as a property: π == oracle on random (seeded) worlds.
    #[test]
    fn pi_matches_oracle(seed in 0u64..1_000, view_size in 2usize..14, run_size in 50usize..250) {
        let w = bioaid(seed % 5); // a few distinct grammars
        let fvl = Fvl::new(&w.spec).unwrap();
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labels = fvl.labeler(&run);
        let view = views::random_safe_view(&w, &mut rng, view_size);
        let vs = ViewSpec::new(&w.spec, &view);
        let oracle = RunOracle::new(&w.spec.grammar, &vs, &run).unwrap();
        let vl = fvl.label_view(&view, VariantKind::QueryEfficient).unwrap();
        for (a, b) in sample::sample_query_pairs(&run, &mut rng, 150) {
            prop_assert_eq!(
                fvl.query(&vl, labels.label(a), labels.label(b)),
                oracle.depends_on(a, b),
                "{:?} -> {:?}", a, b
            );
        }
    }

    /// Every label round-trips through the wire codec bit-exactly.
    #[test]
    fn codec_roundtrip(seed in 0u64..1_000, run_size in 50usize..400) {
        let w = bioaid(seed % 3);
        let fvl = Fvl::new(&w.spec).unwrap();
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labels = fvl.labeler(&run);
        for l in labels.labels() {
            let bits = fvl.codec().encode(l);
            prop_assert_eq!(&fvl.codec().decode(&bits).unwrap(), l);
            // Factoring never loses to the unfactored encoding.
            prop_assert!(bits.len() <= fvl.codec().encoded_bits_unfactored(l) + 8);
        }
    }

    /// Lemma 4: compressed-tree depth ≤ 2|Δ| + 1, hence label paths are
    /// bounded regardless of run size.
    #[test]
    fn label_paths_bounded(seed in 0u64..1_000, run_size in 100usize..2_000) {
        let w = bioaid(seed % 3);
        let fvl = Fvl::new(&w.spec).unwrap();
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labels = fvl.labeler(&run);
        let bound = 2 * w.spec.grammar.composite_modules().count() + 1;
        for l in labels.labels() {
            for p in l.out.iter().chain(l.inp.iter()) {
                prop_assert!(p.path.len() <= bound, "path {} > {}", p.path.len(), bound);
            }
        }
    }

    /// The engine's batched fast path must never diverge from the reference
    /// per-call path: over random strictly-linear workloads, for all three
    /// variants, a published generation's batch path agrees pairwise
    /// with `Fvl::query` — including `None`s for invisible items.
    #[test]
    fn query_batch_agrees_with_per_call(
        seed in 0u64..1_000,
        view_size in 2usize..10,
        run_size in 40usize..200,
    ) {
        // Alternate between the two generator families (both strictly
        // linear-recursive by construction).
        let w = if seed % 2 == 0 {
            bioaid(seed % 6)
        } else {
            synthetic(&SynthParams {
                workflow_size: 8,
                module_degree: 3,
                nesting_depth: 3,
                recursion_length: 1 + (seed as usize % 3),
                coarse: false,
                seed,
            })
        };
        let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
        let pg = ProdGraph::new(&w.spec.grammar);
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, &pg, &mut rng, run_size);
        let labels = fvl.labeler(&run);
        let view = views::random_safe_view(&w, &mut rng, view_size);

        let mut writer = EngineWriter::from_fvl(fvl.clone());
        let items = writer.try_insert_labels(labels.labels()).unwrap();
        let pairs = sample::sample_query_pairs(&run, &mut rng, 100);
        let id_pairs: Vec<_> =
            pairs.iter().map(|&(a, b)| (items[a.0 as usize], items[b.0 as usize])).collect();
        let vid = writer.add_view(view.clone());
        let vrefs = VariantKind::ALL.map(|kind| writer.compile(vid, kind).unwrap());
        let gen = writer.publish(&LiveEngine::new(writer.base().clone()));
        let mut ws = WorkerScratch::new();
        let mut batch = Vec::new();
        for vref in vrefs {
            let kind = vref.kind;
            let vl = fvl.label_view(&view, kind).unwrap();
            gen.core().try_query_batch_into(&mut ws, vref, &id_pairs, &mut batch).unwrap();
            for (i, &(a, b)) in pairs.iter().enumerate() {
                prop_assert_eq!(
                    batch[i],
                    fvl.query(&vl, labels.label(a), labels.label(b)),
                    "{:?} pair {}: {:?} -> {:?}", kind, i, a, b
                );
            }
        }
    }

    /// The synthetic family is strictly linear-recursive and safe for every
    /// parameter combination.
    #[test]
    fn synthetic_always_wellformed(
        depth in 1usize..6,
        degree in 2u8..8,
        size in 4usize..20,
        rec in 1usize..4,
        seed in 0u64..100,
    ) {
        let w = synthetic(&SynthParams {
            workflow_size: size,
            module_degree: degree,
            nesting_depth: depth,
            recursion_length: rec,
            coarse: false,
            seed,
        });
        prop_assert_eq!(classify(&w.spec.grammar), RecursionClass::StrictlyLinear);
        let dv = w.spec.default_view();
        prop_assert!(wfprov::analysis::is_safe(&ViewSpec::new(&w.spec, &dv)));
        // FVL accepts it.
        prop_assert!(Fvl::new(&w.spec).is_ok());
    }

    /// Concurrent ingest is linearizable and durable: a fleet of racing
    /// producers publishes exactly what a sequential engine applying the
    /// same ops in global ticket order holds, and the run's durable op-log
    /// survives recovery → resume — a second fleet raced on top of the
    /// recovered generation stays element-identical too.
    #[test]
    fn concurrent_ingest_matches_sequential_and_survives_reload(
        seed in 0u64..500,
        producers_ix in 0usize..3,
    ) {
        let producers = [1usize, 2, 4][producers_ix];
        const PER: usize = 40; // labels per producer per phase, 8 per op
        let w = bioaid(seed % 5);
        let fvl = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, run) = sample::sample_run(&w, fvl.prod_graph(), &mut rng, 64);
        let mut pool = fvl.labeler(&run).labels().to_vec();
        prop_assert!(!pool.is_empty());
        let mut i = 0usize;
        while pool.len() < 2 * producers * PER {
            pool.push(pool[i].clone());
            i += 1;
        }
        let view = views::random_safe_view(&w, &mut rng, 4);

        // Phase 1: race the fleet; every publish frames its delta record
        // into the durable op-log, after the view's own first frame.
        let storage = MemStorage::new();
        let cap = LabelStore::DEFAULT_SHARD_CAPACITY;
        let (mut durable, gen0, _) =
            DurableEngine::open(fvl.clone(), Box::new(storage.clone()), cap).unwrap();
        let mut writer = EngineWriter::new(gen0);
        let vref = writer.register_view(view.clone(), VariantKind::Default).unwrap();
        let live = Arc::new(LiveEngine::new(writer.base().clone()));
        writer.publish_durable(&live, &mut durable).unwrap();
        let pipeline = IngestPipeline::spawn_with(
            writer,
            live.clone(),
            // A tiny op budget forces publishes to split producer batches.
            PublishPolicy { max_batch_ops: 8, ..PublishPolicy::default() },
            PipelineOptions { durable: Some(shared_durable(durable)), ..PipelineOptions::default() },
        );
        let race = |pipeline: &IngestPipeline, pool: &[DataLabel], base: usize| {
            let mut tickets: Vec<(Ticket, Vec<DataLabel>)> = Vec::new();
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..producers)
                    .map(|p| {
                        let q = pipeline.queue().clone();
                        let slice = &pool[base + p * PER..base + (p + 1) * PER];
                        s.spawn(move || {
                            slice
                                .chunks(8)
                                .map(|c| {
                                    let t = q.push(IngestOp::InsertLabels(c.to_vec())).unwrap();
                                    (t, c.to_vec())
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for h in handles {
                    tickets.extend(h.join().expect("producer thread panicked"));
                }
            });
            tickets
        };
        let mut tickets = race(&pipeline, &pool, 0);
        let report = pipeline.shutdown();
        prop_assert!(report.persist_error.is_none());

        // Sequential reference: the same chunks, applied in the global
        // ticket order the pipeline resolved.
        for (t, _) in &tickets {
            prop_assert!(t.wait().is_ok());
        }
        tickets.sort_by_key(|(t, _)| t.apply_index().expect("resolved tickets carry the index"));
        let mut reference = EngineWriter::from_fvl(fvl.clone());
        let ref_vref = reference.register_view(view.clone(), VariantKind::Default).unwrap();
        prop_assert_eq!(ref_vref, vref);
        for (_, chunk) in &tickets {
            reference.try_insert_labels(chunk).unwrap();
        }
        let reference_live = LiveEngine::new(reference.base().clone());
        let expected = reference.publish(&reference_live);
        let final_gen = live.snapshot();
        prop_assert_eq!(final_gen.store().len(), producers * PER);
        let items: Vec<ItemId> = (0..final_gen.store().len() as u32).map(ItemId).collect();
        let mut ws = WorkerScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        expected.core().try_all_pairs_into(&mut ws, vref, &items, &mut want).unwrap();
        final_gen.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
        prop_assert_eq!(&got, &want);

        // Recovery: replaying base ‖ frames must land on the same
        // generation, views included.
        let fvl2 = Arc::new(Fvl::from_arc(Arc::new(w.spec.clone())).unwrap());
        let (_, reloaded, _) =
            DurableEngine::open(fvl2, Box::new(storage.survivor()), cap).unwrap();
        prop_assert_eq!(reloaded.seqno(), final_gen.seqno());
        prop_assert_eq!(reloaded.store().len(), final_gen.store().len());
        reloaded.core().try_all_pairs_into(&mut ws, vref, &items, &mut got).unwrap();
        prop_assert_eq!(&got, &want);

        // Resume: a second fleet raced on top of the recovered generation
        // must still match the sequential reference continued in its
        // ticket order.
        let live2 = Arc::new(LiveEngine::new(reloaded));
        let pipeline2 = IngestPipeline::spawn_with(
            EngineWriter::new(live2.snapshot()),
            live2.clone(),
            PublishPolicy { max_batch_ops: 8, ..PublishPolicy::default() },
            PipelineOptions::default(),
        );
        let mut tickets2 = race(&pipeline2, &pool, producers * PER);
        pipeline2.shutdown();
        for (t, _) in &tickets2 {
            prop_assert!(t.wait().is_ok());
        }
        tickets2.sort_by_key(|(t, _)| t.apply_index().expect("resolved tickets carry the index"));
        for (_, chunk) in &tickets2 {
            reference.try_insert_labels(chunk).unwrap();
        }
        let expected = reference.publish(&reference_live);
        let resumed = live2.snapshot();
        prop_assert_eq!(resumed.store().len(), 2 * producers * PER);
        let items2: Vec<ItemId> = (0..resumed.store().len() as u32).map(ItemId).collect();
        resumed.core().try_all_pairs_into(&mut ws, vref, &items2, &mut got).unwrap();
        expected.core().try_all_pairs_into(&mut ws, vref, &items2, &mut want).unwrap();
        prop_assert_eq!(got, want);
    }
}
