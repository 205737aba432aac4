//! Reference answers, computed outside every timed region: sequential
//! `decide` once per distinct key, at the budgets the service would route
//! the query to, plus the generator's `No` label for refutable queries.

use typedtd_chase::{classify, decide, routed_decide_config, Answer, DecideConfig, DecideMode};
use typedtd_dependencies::TdOrEgd;
use typedtd_relational::ValuePool;

/// `(Σ ⊨ σ, Σ ⊨_f σ)`.
pub type Verdict = (Answer, Answer);

/// Sequential `decide` under the route the classifier picks for Σ, with
/// `base` as the workload's budgets.
pub fn decide_reference(
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &ValuePool,
    base: &DecideConfig,
) -> Verdict {
    let mut cfg = routed_decide_config(base, classify(sigma).route());
    cfg.mode = DecideMode::Sequential;
    let mut pool = pool.clone();
    let d = decide(sigma, goal, &mut pool, &cfg);
    (d.implication, d.finite_implication)
}

/// Whether a service verdict contradicts the reference: some component is
/// definite on both sides and differs. `Unknown` on either side never
/// contradicts.
pub fn contradicts(got: Verdict, want: Verdict) -> bool {
    let clash = |g: Answer, w: Answer| g != Answer::Unknown && w != Answer::Unknown && g != w;
    clash(got.0, want.0) || clash(got.1, want.1)
}

/// Whether the headline answer (`Σ ⊨ σ`) is `Yes` or `No`.
pub fn definite(v: Verdict) -> bool {
    v.0 != Answer::Unknown
}
