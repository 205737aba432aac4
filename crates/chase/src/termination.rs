//! Static chase-termination analysis: weak acyclicity.
//!
//! The paper's Theorems 2 and 6 say no procedure decides td implication in
//! general; the classical *weak acyclicity* condition (Fagin–Kolaitis–
//! Miller–Popa) identifies a large syntactic class where the chase is
//! guaranteed to terminate, making implication decidable. The dependency
//! graph has one node per attribute position:
//!
//! * a **regular** edge `p → q` whenever a hypothesis value at position `p`
//!   reappears in the conclusion at position `q`;
//! * a **special** edge `p → q` whenever a hypothesis value at position `p`
//!   reappears anywhere in the conclusion *and* the conclusion has an
//!   existential (fresh) value at position `q`.
//!
//! `Σ` is weakly acyclic iff no cycle passes through a special edge; then
//! every chase sequence terminates (egds cannot break this). The engines in
//! this crate do not require the check — budgets handle divergence — but
//! [`weakly_acyclic`] lets callers know in advance that
//! [`crate::ChaseOutcome::Exhausted`] is impossible.

use typedtd_dependencies::TdOrEgd;
use typedtd_relational::{AttrId, FxHashSet};

/// An edge of the position dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source position.
    pub from: AttrId,
    /// Target position.
    pub to: AttrId,
    /// `true` for special (existential-creating) edges.
    pub special: bool,
}

/// Builds the position dependency graph of `Σ` (egds contribute nothing).
pub fn dependency_graph(sigma: &[TdOrEgd]) -> Vec<Edge> {
    let mut edges: FxHashSet<Edge> = FxHashSet::default();
    for dep in sigma {
        let TdOrEgd::Td(td) = dep else { continue };
        let universe = td.universe();
        let hyp_vals = td.hypothesis_values();
        let w = td.conclusion();
        // Existential conclusion positions.
        let existential: Vec<AttrId> = universe
            .attrs()
            .filter(|&q| !hyp_vals.contains(&w.get(q)))
            .collect();
        for t in td.hypothesis() {
            for p in universe.attrs() {
                let x = t.get(p);
                // x reappears in the conclusion?
                let head_positions: Vec<AttrId> = universe
                    .attrs()
                    .filter(|&q| w.get(q) == x)
                    .collect();
                if head_positions.is_empty() {
                    continue;
                }
                for &q in &head_positions {
                    edges.insert(Edge {
                        from: p,
                        to: q,
                        special: false,
                    });
                }
                for &q in &existential {
                    edges.insert(Edge {
                        from: p,
                        to: q,
                        special: true,
                    });
                }
            }
        }
    }
    edges.into_iter().collect()
}

/// `true` if `Σ` is weakly acyclic: no cycle of the position graph goes
/// through a special edge. Every chase over such a `Σ` terminates.
pub fn weakly_acyclic(sigma: &[TdOrEgd]) -> bool {
    let edges = dependency_graph(sigma);
    // For each special edge p →* q: is p reachable back from q?
    for e in edges.iter().filter(|e| e.special) {
        if reachable(&edges, e.to, e.from) {
            return false;
        }
    }
    true
}

fn reachable(edges: &[Edge], from: AttrId, to: AttrId) -> bool {
    if from == to {
        return true;
    }
    let mut seen: FxHashSet<AttrId> = FxHashSet::default();
    let mut stack = vec![from];
    seen.insert(from);
    while let Some(cur) = stack.pop() {
        for e in edges.iter().filter(|e| e.from == cur) {
            if e.to == to {
                return true;
            }
            if seen.insert(e.to) {
                stack.push(e.to);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use typedtd_dependencies::{td_from_names, Fd, Mvd};
    use typedtd_relational::{Universe, ValuePool};

    fn u3() -> Arc<Universe> {
        Universe::typed(vec!["A", "B", "C"])
    }

    #[test]
    fn total_tds_are_weakly_acyclic() {
        // Total tds (mvd encodings) have no existential positions at all.
        let u = u3();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = ["A ->> B", "B ->> C"]
            .iter()
            .map(|s| TdOrEgd::Td(Mvd::parse(&u, s).unwrap().to_pjd().to_td(&u, &mut pool)))
            .collect();
        assert!(weakly_acyclic(&sigma));
        assert!(dependency_graph(&sigma).iter().all(|e| !e.special));
    }

    #[test]
    fn egds_contribute_nothing() {
        let u = u3();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = Fd::parse(&u, "A -> BC").unwrap()
            .to_egds(&u, &mut pool)
            .into_iter()
            .map(TdOrEgd::Egd)
            .collect();
        assert!(weakly_acyclic(&sigma));
        assert!(dependency_graph(&sigma).is_empty());
    }

    #[test]
    fn self_feeding_td_is_not_weakly_acyclic() {
        // (x, y, z) ⊢ (x, y', z): fresh B-value each firing… but the
        // conclusion copies x and z, so the B existential is fed by A and C
        // positions; a cycle needs B to feed back. Make it feed back:
        // (x, y, z) ⊢ (y, y', z) — B flows to A and B is re-created.
        let untyped = Universe::untyped_abc();
        let mut pool = ValuePool::new(untyped.clone());
        let td = td_from_names(&untyped, &mut pool, &[&["x", "y", "z"]], &["y", "q", "z"]);
        let sigma = vec![TdOrEgd::Td(td)];
        // Regular edge B→A; special edges A→B, B→B, C→B. Cycle A→B→A
        // through the special edge A→B (and B→B is itself a special loop).
        assert!(!weakly_acyclic(&sigma));
    }

    #[test]
    fn semigroup_totality_is_not_weakly_acyclic() {
        // The Theorem 1 theory diverges by design; the analyzer agrees.
        let u = Universe::untyped_abc();
        let mut pool = ValuePool::new(u.clone());
        let (sigma, _) = typedtd_semigroup_theory(&u, &mut pool);
        assert!(!weakly_acyclic(&sigma));
    }

    // Local copy to avoid a dependency cycle with the semigroup crate:
    // the nine totality tds are what matters.
    fn typedtd_semigroup_theory(
        u: &Arc<Universe>,
        pool: &mut ValuePool,
    ) -> (Vec<TdOrEgd>, ()) {
        let mut sigma = Vec::new();
        for i in 0..3u16 {
            for j in 0..3u16 {
                let u1: Vec<_> = (0..3).map(|_| pool.fresh(None, "u")).collect();
                let u2: Vec<_> = (0..3).map(|_| pool.fresh(None, "v")).collect();
                let prod = pool.fresh(None, "p");
                let w = typedtd_relational::Tuple::new(vec![
                    u1[i as usize],
                    u2[j as usize],
                    prod,
                ]);
                sigma.push(TdOrEgd::Td(typedtd_dependencies::Td::new(
                    u.clone(),
                    w,
                    vec![
                        typedtd_relational::Tuple::new(u1),
                        typedtd_relational::Tuple::new(u2),
                    ],
                )));
            }
        }
        (sigma, ())
    }

    #[test]
    fn weakly_acyclic_chase_never_exhausts() {
        // Empirical tie-in: on a weakly acyclic Σ the chase reaches a
        // verdict, never the budget.
        use crate::{chase_implication, ChaseConfig, ChaseOutcome};
        let u = u3();
        let mut pool = ValuePool::new(u.clone());
        let sigma: Vec<TdOrEgd> = ["A ->> B"]
            .iter()
            .map(|s| TdOrEgd::Td(Mvd::parse(&u, s).unwrap().to_pjd().to_td(&u, &mut pool)))
            .collect();
        assert!(weakly_acyclic(&sigma));
        let goal = TdOrEgd::Td(Mvd::parse(&u, "B ->> A").unwrap().to_pjd().to_td(&u, &mut pool));
        let run = chase_implication(&sigma, &goal, &mut pool, &ChaseConfig::default());
        assert_ne!(run.outcome, ChaseOutcome::Exhausted);
    }
}
