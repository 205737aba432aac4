//! Syntactic fragment classification and sound query routing.
//!
//! The paper's main theorems say that no total algorithm decides (finite)
//! implication for typed tds — so a production service cannot hope for a
//! universally terminating path. What it *can* do is recognize, before any
//! fuel burns, the large syntactic fragments where cheaper paths are
//! guaranteed sound, and route each query accordingly:
//!
//! * **Weakly acyclic Σ** (Fagin–Kolaitis–Miller–Popa, see
//!   [`crate::termination`]): every chase sequence terminates, so the
//!   chase alone decides *both* implication problems — a terminal instance
//!   is a finite universal model, so `Implied` means `Yes/Yes` and a
//!   terminal `NotImplied` means `No/No` with the terminal instance as a
//!   finite counterexample. Dovetailing a finite-model search next to such
//!   a chase is pure overhead, and capping the chase budget only
//!   manufactures avoidable `Unknown`s. [`routed_decide_config`] therefore
//!   rewrites the configuration to a sequential, search-free chase with
//!   effectively unbounded budgets.
//! * **Everything else** routes to the default dovetail
//!   ([`RouteClass::Dovetail`]) — the fair pairing of the two r.e.
//!   procedures, the only always-sound general answer.
//!
//! Weak acyclicity is the only fragment recognized, because it is the only
//! one whose detection changes *execution* here. Other decidable fragments
//! (linear or guarded Σ, for instance) pay off only with a dedicated
//! decision procedure, which this crate does not have.
//! Routing never changes an answer — only how fast (and how definitely)
//! it arrives — which the differential suite `tests/classifier_parity.rs`
//! pins against the unclassified baseline.

use crate::engine::ChaseConfig;
use crate::implication::{DecideConfig, DecideMode};
use crate::termination::weakly_acyclic;
use typedtd_dependencies::TdOrEgd;

/// Which routing fragment a Σ falls into. The names are stable: they ride
/// `class_routed_*` stats tokens and metrics labels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteClass {
    /// Weakly acyclic: the chase terminates, deciding both problems.
    Terminating,
    /// No recognized fragment: the general dovetail path.
    Dovetail,
}

impl RouteClass {
    /// Every route (index order = [`Self::index`]).
    pub const ALL: [RouteClass; 2] = [RouteClass::Terminating, RouteClass::Dovetail];

    /// Number of routes (array-size companion of [`Self::ALL`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index into `[_; RouteClass::COUNT]` stats arrays.
    pub fn index(self) -> usize {
        match self {
            RouteClass::Terminating => 0,
            RouteClass::Dovetail => 1,
        }
    }

    /// Stable lowercase name (used as a stats token and metrics label).
    pub fn as_str(self) -> &'static str {
        match self {
            RouteClass::Terminating => "terminating",
            RouteClass::Dovetail => "dovetail",
        }
    }
}

/// The syntactic properties of one Σ, as one classification pass sees
/// them. Produced by [`classify`]; collapse to a route with
/// [`FragmentReport::route`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FragmentReport {
    /// No cycle of the position dependency graph crosses a special edge:
    /// every chase over this Σ terminates.
    pub weakly_acyclic: bool,
}

impl FragmentReport {
    /// The cheapest sound route for this Σ: `Terminating` when weakly
    /// acyclic, `Dovetail` otherwise.
    pub fn route(&self) -> RouteClass {
        if self.weakly_acyclic {
            RouteClass::Terminating
        } else {
            RouteClass::Dovetail
        }
    }
}

/// Classifies `Σ` in one syntactic pass (no chasing, no search): weak
/// acyclicity over the position dependency graph. Cost is polynomial in
/// `|Σ|` and the universe width — negligible next to a single chase round.
pub fn classify(sigma: &[TdOrEgd]) -> FragmentReport {
    FragmentReport {
        weakly_acyclic: weakly_acyclic(sigma),
    }
}

/// A chase budget that will never expire before a terminating chase
/// reaches its verdict, keeping `base`'s strategy knobs (variant and
/// semi-naive discovery).
pub fn terminating_chase_config(base: &ChaseConfig) -> ChaseConfig {
    ChaseConfig {
        max_rounds: usize::MAX,
        max_rows: usize::MAX,
        max_steps: usize::MAX,
        ..base.clone()
    }
}

/// Rewrites `base` into the configuration `route` justifies.
///
/// Only [`RouteClass::Terminating`] changes anything: the chase is then a
/// total decision procedure for both problems, so the mode drops to
/// [`DecideMode::Sequential`], the finite-model search is skipped (a
/// terminal `NotImplied` already carries a finite counterexample), and the
/// chase budgets open up ([`terminating_chase_config`]).
/// [`RouteClass::Dovetail`] returns `base` unchanged.
pub fn routed_decide_config(base: &DecideConfig, route: RouteClass) -> DecideConfig {
    match route {
        RouteClass::Terminating => DecideConfig {
            chase: terminating_chase_config(&base.chase),
            search: base.search.clone(),
            skip_search: true,
            mode: DecideMode::Sequential,
        },
        RouteClass::Dovetail => base.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use typedtd_dependencies::{td_from_names, Fd, Mvd};
    use typedtd_relational::{Universe, ValuePool};

    #[test]
    fn route_precedence_and_names() {
        assert_eq!(RouteClass::ALL.len(), RouteClass::COUNT);
        for (i, r) in RouteClass::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(RouteClass::Terminating.as_str(), "terminating");
        assert_eq!(RouteClass::Dovetail.as_str(), "dovetail");
    }

    #[test]
    fn mvd_and_fd_mixes_route_terminating() {
        let u = Universe::typed(vec!["A", "B", "C"]);
        let mut pool = ValuePool::new(u.clone());
        let mut sigma: Vec<TdOrEgd> = ["A ->> B"]
            .iter()
            .map(|s| TdOrEgd::Td(Mvd::parse(&u, s).unwrap().to_pjd().to_td(&u, &mut pool)))
            .collect();
        sigma.extend(
            Fd::parse(&u, "A -> C")
                .unwrap()
                .to_egds(&u, &mut pool)
                .into_iter()
                .map(TdOrEgd::Egd),
        );
        let report = classify(&sigma);
        assert!(report.weakly_acyclic);
        assert_eq!(report.route(), RouteClass::Terminating);
    }

    #[test]
    fn self_feeding_single_row_td_routes_dovetail() {
        // Single-row hypothesis, but the existential feeds back: not
        // weakly acyclic, so the general dovetail route applies.
        let untyped = Universe::untyped_abc();
        let mut pool = ValuePool::new(untyped.clone());
        let td = td_from_names(&untyped, &mut pool, &[&["x", "y", "z"]], &["y", "q", "z"]);
        let sigma = vec![TdOrEgd::Td(td)];
        let report = classify(&sigma);
        assert!(!report.weakly_acyclic);
        assert_eq!(report.route(), RouteClass::Dovetail);
    }

    #[test]
    fn joins_with_cycles_route_dovetail() {
        let untyped = Universe::untyped_abc();
        let mut pool = ValuePool::new(untyped.clone());
        let td = td_from_names(
            &untyped,
            &mut pool,
            &[&["x", "y", "z"], &["z", "v", "w"]],
            &["y", "q", "x"],
        );
        let sigma = vec![TdOrEgd::Td(td)];
        let report = classify(&sigma);
        if !report.weakly_acyclic {
            assert_eq!(report.route(), RouteClass::Dovetail);
        }
    }

    #[test]
    fn terminating_route_rewrites_config_others_do_not() {
        let base = DecideConfig::default();
        let routed = routed_decide_config(&base, RouteClass::Terminating);
        assert_eq!(routed.mode, DecideMode::Sequential);
        assert!(routed.skip_search);
        assert_eq!(routed.chase.max_rounds, usize::MAX);
        assert_eq!(routed.chase.variant, base.chase.variant);
        let same = routed_decide_config(&base, RouteClass::Dovetail);
        assert_eq!(same.chase.max_rounds, base.chase.max_rounds);
        assert_eq!(same.skip_search, base.skip_search);
    }
}
