//! Bounded fuzz sweeps as ordinary `cargo test` suites — deterministic
//! seeds, small fixed iteration counts, so they run in every tier-1 pass.
//! The CI fuzz-smoke job runs the same campaigns at 10 000+ iterations
//! via `examples/fuzz_sweep.rs`; any failure here or there prints the case
//! seed, and `--example fuzz_sweep -- --case <seed>` replays it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_analysis::safety::production_lhs_matrix;
use wf_analysis::{full_assignment_default, production_matrices, sweep};
use wf_fuzz::{
    adversarial_workload, case_seed, check_live_churn, check_multi_producer, check_spec,
    crash_campaign, mutation_corpus, mutation_round, FuzzReport,
};
use wf_model::{InPortRef, NodeIx, OutPortRef, PortGraph, PortRef, Spec};

/// The forward sweep that writes every `I`/`O`/`Z` and λ\* matrix, checked
/// against an independent reference: over every production of the paper
/// example, of BioAID and of 300 adversarial specs, under the default
/// view's λ\*, the ports a sweep from any port reaches are exactly the
/// ports a search of the production's `PortGraph` reaches, a sweep cut
/// short at the middle node agrees with the full one up to that node, and
/// every entry of the production's `I`, `O`, `Z` (§4.3) and λ\* matrices
/// is the `PortGraph` reachability that defines it.
#[test]
fn forward_sweep_matches_port_graph() {
    let mut specs: Vec<Spec> = vec![wf_model::fixtures::paper_example().spec];
    specs.push(wf_workloads::bioaid(1).spec);
    for i in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(case_seed(0x5EE9, i));
        specs.push(adversarial_workload(&mut rng, [4, 10, 20][i as usize % 3]).1.spec);
    }
    let inp =
        |n: usize, port: usize| PortRef::In(InPortRef { node: NodeIx(n as u32), port: port as u8 });
    let outp = |n: usize, port: usize| {
        PortRef::Out(OutPortRef { node: NodeIx(n as u32), port: port as u8 })
    };
    let (mut full, mut cut) = (Vec::new(), Vec::new());
    let mut sources = 0;
    for (s, spec) in specs.iter().enumerate() {
        let g = &spec.grammar;
        let lambda = full_assignment_default(spec).expect("generated specs are safe");
        for (k, p) in g.productions() {
            let w = &p.rhs;
            let n = w.node_count();
            let sig = |i: usize| g.sig(w.nodes()[i]);
            let ports: Vec<PortRef> = (0..n)
                .flat_map(|i| {
                    let ins = (0..sig(i).inputs()).map(move |y| inp(i, y));
                    ins.chain((0..sig(i).outputs()).map(move |y| outp(i, y)))
                })
                .collect();
            let pg = PortGraph::build(w, &lambda);
            let reaches = |from, to| pg.reachable_from(pg.ix(from)).contains(pg.ix(to) as usize);
            for &from in &ports {
                sweep(w, &lambda, from, n - 1, &mut full);
                sweep(w, &lambda, from, n / 2, &mut cut);
                assert_eq!(full[..=n / 2], cut[..], "spec {s} production {k} from {from:?}");
                for &to in &ports {
                    let swept = match to {
                        PortRef::In(q) => full[q.node.index()].ins >> q.port & 1 == 1,
                        PortRef::Out(q) => full[q.node.index()].outs >> q.port & 1 == 1,
                    };
                    assert_eq!(
                        swept,
                        reaches(from, to),
                        "spec {s} production {k}: {from:?} -> {to:?}"
                    );
                }
                sources += 1;
            }

            let lhs = production_lhs_matrix(g, k, &lambda);
            let m = production_matrices(g, k, &lambda);
            for (x, &ip) in p.input_map.iter().enumerate() {
                for (y, &op) in p.output_map.iter().enumerate() {
                    let want = reaches(PortRef::In(ip), PortRef::Out(op));
                    assert_eq!(lhs.get(x, y), want, "spec {s}: λ* of {k} [{x}][{y}]");
                }
            }
            for i in 0..n {
                for (x, &ip) in p.input_map.iter().enumerate() {
                    for y in 0..sig(i).inputs() {
                        let want = reaches(PortRef::In(ip), inp(i, y));
                        assert_eq!(m.i_mats[i].get(x, y), want, "spec {s}: I({k},{i})[{x}][{y}]");
                    }
                }
                for (x, &op) in p.output_map.iter().enumerate() {
                    for y in 0..sig(i).outputs() {
                        let want = reaches(outp(i, y), PortRef::Out(op));
                        assert_eq!(m.o_mats[i].get(x, y), want, "spec {s}: O({k},{i})[{x}][{y}]");
                    }
                }
                for j in 0..n {
                    for y in 0..sig(i).outputs() {
                        for z in 0..sig(j).inputs() {
                            let want = i < j && reaches(outp(i, y), inp(j, z));
                            let got = m.z_mats[i][j].get(y, z);
                            assert_eq!(got, want, "spec {s}: Z({k},{i},{j})[{y}][{z}]");
                        }
                    }
                }
            }
        }
    }
    assert!(sources > 10_000, "too few source ports checked: {sources}");
}

/// The differential campaign, bounded: adversarial specs at three size
/// budgets, every answer compared across the three variants, the naive
/// oracle, and the engine path.
#[test]
fn bounded_differential_sweep() {
    let mut report = FuzzReport::default();
    for (budget, cases) in [(4usize, 40u64), (10, 40), (20, 20)] {
        for i in 0..cases {
            let seed = case_seed(0x5EED ^ budget as u64, i);
            match check_spec(seed, budget) {
                Ok(out) => report.absorb_spec(&out),
                Err(d) => panic!("differential divergence (budget {budget}): {d}"),
            }
        }
    }
    assert!(report.queries > 5_000, "sweep compared too little: {report:?}");
    assert!(report.views > 100, "sweep checked too few views: {report:?}");
}

/// The live-engine campaign, bounded: churn streams with randomized op
/// mixes replayed through writer/live-engine against a sequential
/// reference, each case ending in a warm recovery of its durable store.
#[test]
fn bounded_live_churn_sweep() {
    let mut report = FuzzReport::default();
    for i in 0..12u64 {
        let seed = case_seed(0x11FE5EED, i);
        match check_live_churn(seed, 10, 36) {
            Ok(out) => report.absorb_live(&out),
            Err(d) => panic!("live-engine divergence: {d}"),
        }
    }
    assert!(report.items > 0, "live sweep published nothing: {report:?}");
}

/// The multi-producer campaign, bounded: producer fleets of 1, 2 and 4
/// race generated churn streams through the ingest pipeline; every
/// published generation must match a sequential replay in global ticket
/// order and a byte-identical recovery of its op-log prefix.
fn multi_producer_sweep() -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..6u64 {
        let seed = case_seed(0x111E57EED, i);
        let producers = [1usize, 2, 4][(i % 3) as usize];
        match check_multi_producer(seed, 8, producers, 18) {
            Ok(out) => report.absorb_multi(&out),
            Err(d) => panic!("multi-producer divergence ({producers} producers): {d}"),
        }
    }
    report
}

#[test]
fn bounded_multi_producer_sweep() {
    let report = multi_producer_sweep();
    assert_eq!(report.multi_cases, 6, "{report:?}");
    assert!(report.items > 0, "multi-producer sweep published nothing: {report:?}");
}

/// The racing campaign's report is a function of its seeds: how many
/// reads the producers raced and how many generations got published
/// follow thread timing, so neither is counted, and two runs agree.
#[test]
fn multi_producer_report_is_reproducible() {
    assert_eq!(multi_producer_sweep(), multi_producer_sweep());
}

/// The crash-injection campaign, bounded: a handful of seeds, strided
/// crash points over each publish/compact schedule. Every injected kill
/// must recover a published generation byte-identically, at least as new
/// as the last acknowledged append — the CI fuzz-smoke job runs the same
/// campaign exhaustively at stride 1.
#[test]
fn bounded_crash_sweep() {
    let mut report = FuzzReport::default();
    for i in 0..4u64 {
        let seed = case_seed(0xC8A5, i);
        match crash_campaign(seed, 6, 5, 53) {
            Ok(stats) => report.absorb_crash(&stats),
            Err(d) => panic!("crash-recovery violation: {d}"),
        }
    }
    assert!(report.crash_points > 20, "sweep injected too few crashes: {report:?}");
    assert!(report.crash_torn_tails > 0, "no crash ever tore the log tail: {report:?}");
}

/// The decoder campaign, bounded: every mutant is rejected with a typed
/// error, decodes to a pristine prefix, or (checksum-forged only) decodes
/// to a fully functional state. No panics, no silent corruption, and the
/// rejection histogram must span several error classes.
#[test]
fn bounded_mutation_sweep() {
    let corpus = mutation_corpus(0x5EED);
    let stats = mutation_round(0x5EED ^ 0xD0D0, &corpus, 1_500);
    assert_eq!(stats.panics, 0, "decoder panicked: {stats:?}");
    assert_eq!(stats.wrong, 0, "silent corruption: {stats:?}");
    assert_eq!(stats.mutants, 1_500);
    assert!(stats.classes() >= 4, "rejection histogram too flat: {stats:?}");
}
