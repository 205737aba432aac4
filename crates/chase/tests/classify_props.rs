//! Property tests for the fragment classifier: generated Σ with
//! known-by-construction properties, plus the soundness property that a
//! "terminating" verdict really means the blocking chase terminates.

use proptest::prelude::*;
use typedtd_chase::{
    classify, terminating_chase_config, weakly_acyclic, ChaseConfig, ChaseOutcome, ChaseTask,
    RouteClass, StepStatus,
};
use typedtd_dependencies::{td_from_names, TdOrEgd};
use typedtd_relational::{Relation, Tuple, Universe, ValuePool};

/// Builds a td over untyped ABC from value indices: `t{i}` names.
fn td_of(hyp: &[[usize; 3]], concl: [usize; 3]) -> TdOrEgd {
    let u = Universe::untyped_abc();
    let mut pool = ValuePool::new(u.clone());
    let hyp_names: Vec<Vec<String>> = hyp
        .iter()
        .map(|r| r.iter().map(|i| format!("t{i}")).collect())
        .collect();
    let hyp_refs: Vec<Vec<&str>> = hyp_names
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let hyp_slices: Vec<&[&str]> = hyp_refs.iter().map(|r| r.as_slice()).collect();
    let w: Vec<String> = concl.iter().map(|i| format!("t{i}")).collect();
    let w_refs: Vec<&str> = w.iter().map(String::as_str).collect();
    TdOrEgd::Td(td_from_names(&u, &mut pool, &hyp_slices, &w_refs))
}

/// A random hypothesis: 1–3 rows over value indices 0..4.
fn hyp_strategy() -> impl Strategy<Value = Vec<[usize; 3]>> {
    prop::collection::vec([0..4usize, 0..4usize, 0..4usize], 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Total tds (every conclusion value drawn from the hypothesis) have
    /// no existential positions, hence no special edges: any Σ of them is
    /// weakly acyclic and routes `Terminating`.
    #[test]
    fn total_tds_are_weakly_acyclic(
        hyps in prop::collection::vec(hyp_strategy(), 1..=3),
        picks in prop::collection::vec([0..8usize, 0..8usize, 0..8usize], 1..=3),
    ) {
        let sigma: Vec<TdOrEgd> = hyps
            .iter()
            .zip(&picks)
            .map(|(hyp, pick)| {
                // Conclusion values copied out of the hypothesis itself.
                let concl = [
                    hyp[pick[0] % hyp.len()][0],
                    hyp[pick[1] % hyp.len()][1],
                    hyp[pick[2] % hyp.len()][2],
                ];
                td_of(hyp, concl)
            })
            .collect();
        prop_assert!(weakly_acyclic(&sigma));
        prop_assert_eq!(classify(&sigma).route(), RouteClass::Terminating);
    }

    /// A td whose conclusion is existential at position `j` while copying
    /// the hypothesis value *from* position `j` somewhere has a special
    /// self-loop `j → j`: never weakly acyclic.
    #[test]
    fn self_feeding_existentials_are_cyclic(j in 0usize..3, step in 1usize..3) {
        let i = (j + step) % 3;
        // Hypothesis (t0, t1, t2); conclusion: fresh t9 at j, t{j} at i,
        // and the remaining position keeps its own hypothesis value.
        let mut concl = [0usize, 1, 2];
        concl[j] = 9; // fresh: index 9 never occurs in the hypothesis
        concl[i] = j;
        let sigma = vec![td_of(&[[0, 1, 2]], concl)];
        prop_assert!(!weakly_acyclic(&sigma));
        prop_assert_ne!(classify(&sigma).route(), RouteClass::Terminating);
    }

    /// Soundness: when the classifier says `Terminating`, a blocking
    /// saturation under the unbounded routed budget actually reaches its
    /// fixpoint — bounded here only by a generous round allowance whose
    /// exhaustion would fail the test rather than hang it.
    #[test]
    fn terminating_verdicts_really_terminate(
        hyps in prop::collection::vec(hyp_strategy(), 1..=2),
        concls in prop::collection::vec([0..6usize, 0..6usize, 0..6usize], 1..=2),
        seed_rows in prop::collection::vec([0..3usize, 0..3usize, 0..3usize], 1..=3),
    ) {
        // Σ and the seed share one pool: the chase needs every pattern
        // value in the instance's value space. Distinct index spaces keep
        // dependency variables (`d{k}_t{i}`) clear of seed constants.
        let u = Universe::untyped_abc();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = hyps
            .iter()
            .zip(&concls)
            .enumerate()
            .map(|(k, (hyp, concl))| {
                let name = |i: usize| format!("d{k}_t{i}");
                let hyp_names: Vec<Vec<String>> =
                    hyp.iter().map(|r| r.iter().map(|&i| name(i)).collect()).collect();
                let hyp_refs: Vec<Vec<&str>> = hyp_names
                    .iter()
                    .map(|r| r.iter().map(String::as_str).collect())
                    .collect();
                let hyp_slices: Vec<&[&str]> = hyp_refs.iter().map(|r| r.as_slice()).collect();
                let w: Vec<String> = concl.iter().map(|&i| name(i)).collect();
                let w_refs: Vec<&str> = w.iter().map(String::as_str).collect();
                TdOrEgd::Td(td_from_names(&u, &mut pool, &hyp_slices, &w_refs))
            })
            .collect();
        prop_assume!(weakly_acyclic(&sigma));
        let mut seed = Relation::new(u.clone());
        for r in &seed_rows {
            seed.insert(Tuple::new(
                r.iter().map(|i| pool.untyped(&format!("s{i}"))).collect(),
            ));
        }
        let cfg = terminating_chase_config(&ChaseConfig::default());
        let mut task = ChaseTask::saturation(&seed, sigma, pool, cfg);
        let mut outcome = None;
        for _ in 0..4096 {
            if let StepStatus::Done(o) = task.step(16) {
                outcome = Some(o);
                break;
            }
        }
        // Terminal fixpoint, within the allowance, never budget-exhausted.
        prop_assert_eq!(outcome, Some(ChaseOutcome::NotImplied));
    }
}
