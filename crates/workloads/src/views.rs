//! Safe random view generation (§6.1: "we obtained safe views by
//! enumerating all possible proper subsets of composite modules and
//! assigning random input-output dependencies").
//!
//! Random λ′ would generically violate safety on modules with several
//! productions, so the sampler pins the generator's adapter/mirror atomics
//! and *repairs* cycle terminals: whenever a recursion is partially
//! expanded, the unexpandable cycle members' λ′ is set to the cycle entry's
//! base-production matrix, which is exactly the unique consistent choice.

use crate::gen::random_proper_matrix;
use crate::Workload;
use rand::Rng;
use wf_analysis::safety::production_lhs_matrix;
use wf_boolmat::BoolMat;
use wf_model::{DepAssignment, ModuleId, View, ViewSpec};

/// Samples a proper, safe grey-box view with `target_size` expandable
/// modules (clamped to what is reachable).
pub fn random_safe_view(w: &Workload, rng: &mut impl Rng, target_size: usize) -> View {
    let grammar = &w.spec.grammar;
    // Grow Δ′ from the start module along derivable composites.
    let mut expand = vec![false; grammar.module_count()];
    expand[grammar.start().index()] = true;
    let mut size = 1;
    while size < target_size {
        let derivable = grammar.derivable_modules(&expand);
        let candidates: Vec<ModuleId> = grammar
            .composite_modules()
            .filter(|&m| derivable[m.index()] && !expand[m.index()] && !w.no_expand.contains(&m))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let pick = candidates[rng.gen_range(0..candidates.len())];
        expand[pick.index()] = true;
        size += 1;
    }

    // λ′: pinned atomics keep λ; free atomics and unexpandable composites
    // are randomized (grey box).
    let derivable = grammar.derivable_modules(&expand);
    let mut deps = DepAssignment::new();
    for m in grammar.modules() {
        if expand[m.index()] || !derivable[m.index()] {
            continue;
        }
        let sig = grammar.sig(m);
        if !grammar.is_composite(m) && w.pinned[m.index()] {
            deps.set(m, w.spec.deps.get(m).expect("pinned atomic has λ").clone());
        } else {
            deps.set(m, random_proper_matrix(rng, sig.inputs(), sig.outputs(), 0.4));
        }
    }

    // Repair cycle terminals: members outside Δ′ of a cycle that is (even
    // partially) expanded must carry the entry's base matrix.
    let base_lambda = base_assignment(w, &expand, &deps);
    for (members, entry) in &w.cycles {
        let touched = members.iter().any(|m| expand[m.index()]);
        if !touched {
            continue;
        }
        let mat = base_lambda.get(*entry).expect("cycle entry has a base matrix").clone();
        for &m in members {
            if !expand[m.index()] && derivable[m.index()] {
                deps.set(m, mat.clone());
            }
        }
    }

    let view = View::new(grammar, grammar.modules().filter(|m| expand[m.index()]), deps)
        .expect("sampled view is proper and fully assigned");
    debug_assert!(
        wf_analysis::is_safe(&ViewSpec::new(&w.spec, &view)),
        "sampled view must be safe"
    );
    view
}

/// Black-box view of the requested size: complete λ′ everywhere (always
/// safe on coarse workloads — Lemma 2). Used for the §6.4 comparisons.
pub fn black_box_view(w: &Workload, rng: &mut impl Rng, target_size: usize) -> View {
    let grammar = &w.spec.grammar;
    let mut expand = vec![false; grammar.module_count()];
    expand[grammar.start().index()] = true;
    let mut size = 1;
    while size < target_size {
        let derivable = grammar.derivable_modules(&expand);
        let candidates: Vec<ModuleId> = grammar
            .composite_modules()
            .filter(|&m| derivable[m.index()] && !expand[m.index()] && !w.no_expand.contains(&m))
            .collect();
        if candidates.is_empty() {
            break;
        }
        let pick = candidates[rng.gen_range(0..candidates.len())];
        expand[pick.index()] = true;
        size += 1;
    }
    let derivable = grammar.derivable_modules(&expand);
    let mut deps = DepAssignment::new();
    for m in grammar.modules() {
        if !expand[m.index()] && derivable[m.index()] {
            let sig = grammar.sig(m);
            deps.set(m, BoolMat::complete(sig.inputs(), sig.outputs()));
        }
    }
    View::new(grammar, grammar.modules().filter(|m| expand[m.index()]), deps)
        .expect("black-box view is proper")
}

/// λ\* computed over *base productions only* — the unique consistent value
/// for every Δ′ module, used to repair cycle terminals.
fn base_assignment(w: &Workload, expand: &[bool], terminal_deps: &DepAssignment) -> DepAssignment {
    let grammar = &w.spec.grammar;
    let mut lambda = terminal_deps.clone();
    loop {
        let mut progressed = false;
        for m in grammar.modules() {
            if !expand[m.index()] || lambda.is_defined(m) {
                continue;
            }
            let Some(k) = w.base_prod_of[m.index()] else { continue };
            if !grammar.production(k).rhs.nodes().iter().all(|&c| lambda.is_defined(c)) {
                continue;
            }
            lambda.set(m, production_lhs_matrix(grammar, k, &lambda));
            progressed = true;
        }
        if !progressed {
            return lambda;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bioaid, bioaid_coarse, synthetic, SynthParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_views_are_safe_across_sizes() {
        let w = bioaid(1);
        let mut rng = StdRng::seed_from_u64(2);
        for size in [2, 8, 16] {
            for _ in 0..5 {
                let v = random_safe_view(&w, &mut rng, size);
                assert!(v.size() >= 1 && v.size() <= size);
                assert!(wf_analysis::is_safe(&ViewSpec::new(&w.spec, &v)));
            }
        }
    }

    /// Regression (surfaced by the `wf-fuzz` grammar fuzzer): extreme
    /// target sizes — zero and far beyond the composite count — must
    /// still produce safe, nonempty views (zero clamps to the start
    /// module alone; oversize saturates at every expandable composite).
    #[test]
    fn extreme_target_sizes_stay_safe() {
        let w = bioaid(1);
        let composites = w.spec.grammar.composite_modules().count();
        let mut rng = StdRng::seed_from_u64(6);
        for size in [0, composites, 10 * composites] {
            for _ in 0..5 {
                let v = random_safe_view(&w, &mut rng, size);
                assert!(v.size() >= 1, "target {size} built an empty view");
                assert!(wf_analysis::is_safe(&ViewSpec::new(&w.spec, &v)));
            }
        }
    }

    #[test]
    fn synthetic_views_are_safe() {
        let w =
            synthetic(&SynthParams { workflow_size: 8, nesting_depth: 5, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..10 {
            let v = random_safe_view(&w, &mut rng, 4);
            assert!(wf_analysis::is_safe(&ViewSpec::new(&w.spec, &v)));
        }
    }

    #[test]
    fn black_box_views_are_black_box() {
        let w = bioaid_coarse(1);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let v = black_box_view(&w, &mut rng, 8);
            assert!(v.is_black_box(&w.spec.grammar));
            assert!(wf_analysis::is_safe(&ViewSpec::new(&w.spec, &v)));
        }
    }
}
