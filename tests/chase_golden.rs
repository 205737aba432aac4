//! Golden digest of chase runs: outcome, round count, every trace step and
//! every final row, hashed over raw value ids.
//!
//! Value ids depend on the exact order in which the chase mints fresh
//! nulls, and trace steps on the exact order in which it fires triggers, so
//! this digest pins the engine's behaviour byte for byte — stronger than
//! the parity suites, which compare modes up to isomorphism. A change to
//! the embedding search or the trigger loop that keeps every answer but
//! reorders a single step fails here.
//!
//! Implied runs are also replayed through `typedtd_formal::proof::verify`,
//! the independent checker that trusts none of the engine's code.
//!
//! The corpus: 300 `shared_sigma_workload(5, 4, 1, seed)` queries, the
//! `mvd_chain_instance` goal, the `egd_cascade` saturation and the
//! divergent successor-td query cut at a fixed fuel. The last three run
//! under the standard, naive-rescan, oblivious and core configurations.

use typedtd_bench::{
    divergent_service_query, egd_cascade_workload, mvd_chain_instance, shared_sigma_workload,
    universe,
};
use typedtd_chase::{
    chase_implication, saturate, ChaseConfig, ChaseOutcome, ChaseRun, ChaseTask, ChaseVariant,
    StepKind,
};
use typedtd_dependencies::TdOrEgd;
use typedtd_formal::proof::{verify, Proof};
use typedtd_relational::{Tuple, ValuePool};

/// The digest of the corpus below, computed with the embedding search this
/// suite was written against. Update it only for a deliberate change to
/// chase order, and say so where the change is recorded.
const GOLDEN: u64 = 12_973_165_003_559_938_945;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn row(&mut self, t: &Tuple) {
        self.word(t.width() as u64);
        for v in t.val() {
            self.word(v.0 as u64);
        }
    }

    fn run(&mut self, run: &ChaseRun) {
        self.word(match run.outcome {
            ChaseOutcome::Implied => 1,
            ChaseOutcome::NotImplied => 2,
            ChaseOutcome::Exhausted => 3,
            ChaseOutcome::Cancelled => 4,
        });
        self.word(run.rounds as u64);
        self.word(run.trace.steps.len() as u64);
        for step in &run.trace.steps {
            self.word(step.dep as u64);
            self.word(step.matched.len() as u64);
            for t in &step.matched {
                self.row(t);
            }
            match &step.kind {
                StepKind::AddRow { row } => {
                    self.word(1);
                    self.row(row);
                }
                StepKind::Merge { kept, gone } => {
                    self.word(2);
                    self.word(kept.0 as u64);
                    self.word(gone.0 as u64);
                }
            }
        }
        self.word(run.final_relation.len() as u64);
        for r in run.final_relation.iter() {
            self.row(&r.to_tuple());
        }
    }
}

fn configs() -> [ChaseConfig; 4] {
    [
        ChaseConfig::default(),
        ChaseConfig::default().with_semi_naive(false),
        ChaseConfig::default().with_variant(ChaseVariant::Oblivious),
        ChaseConfig::default().with_variant(ChaseVariant::Core),
    ]
}

/// Chases `goal` under `cfg` on a copy of `pool`, digests the run and
/// replays an implied run's trace through the independent proof checker.
fn implication(
    h: &mut Fnv,
    sigma: &[TdOrEgd],
    goal: &TdOrEgd,
    pool: &ValuePool,
    cfg: &ChaseConfig,
) {
    let mut pool = pool.clone();
    let run = chase_implication(sigma, goal, &mut pool, cfg);
    if run.outcome == ChaseOutcome::Implied {
        verify(sigma, goal, &Proof::from_trace(run.trace.clone()))
            .unwrap_or_else(|e| panic!("implied run failed to replay: {e}"));
    }
    h.run(&run);
}

fn corpus_digest() -> u64 {
    let mut h = Fnv::new();

    for seed in 0..300 {
        let (sigma, goal, pool) = shared_sigma_workload(5, 4, 1, seed)
            .pop()
            .expect("one member");
        implication(&mut h, &sigma, &goal, &pool, &ChaseConfig::default());
    }

    let u = universe(5);
    let mut pool = ValuePool::new(u.clone());
    let (sigma, goal) = mvd_chain_instance(&u, &mut pool, 4);
    for cfg in configs() {
        implication(&mut h, &sigma, &goal, &pool, &cfg);
    }

    let (init, sigma, pool) = egd_cascade_workload(4, 7);
    for cfg in configs() {
        let cfg = ChaseConfig {
            max_rounds: 12,
            max_rows: 256,
            ..cfg
        };
        let mut pool = pool.clone();
        h.run(&saturate(&init, &sigma, &mut pool, &cfg));
    }

    let (sigma, goal, pool) = divergent_service_query(0);
    for cfg in configs() {
        let mut task = ChaseTask::implication(sigma.clone(), goal.clone(), pool.clone(), cfg);
        task.step(24);
        let (run, _) = task.abandon();
        h.run(&run);
    }

    h.0
}

#[test]
fn chase_runs_match_the_golden_digest() {
    let got = corpus_digest();
    assert_eq!(
        got, GOLDEN,
        "chase digest changed: {got} (golden {GOLDEN}); trigger order, fresh-null order or a trace step moved"
    );
}
