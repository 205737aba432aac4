//! Seeded workload generators. Every input the benchmark submits is made
//! here, from the seed alone, before any timed region starts.

use crate::rng::Rng;
use std::collections::HashSet;
use typedtd_chase::{classify, RouteClass};
use typedtd_dependencies::{DependencyClass, TdOrEgd};
use typedtd_relational::{Relation, Tuple, ValuePool};
use typedtd_service::{parse_query_line, parse_universe_spec, query_key, QueryKey};

/// One query in the batch text syntax: a universe spec plus Σ entries and
/// a goal, kept apart so Σ can be rendered in any order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextQuery {
    /// Universe spec (`[untyped] NAME …`), as a `SUBMIT` frame carries it.
    pub universe: String,
    /// Σ entries in the parser syntax.
    pub sigma: Vec<String>,
    /// The goal in the parser syntax.
    pub goal: String,
}

/// A text query parsed and normalized into the td/egd fragment, with the
/// single goal part every generated query has.
pub struct Parsed {
    /// Normalized Σ.
    pub sigma: Vec<TdOrEgd>,
    /// The goal's one normalized part.
    pub goal: TdOrEgd,
    /// The pool the values were interned in.
    pub pool: ValuePool,
    /// The goal's surface class.
    pub class: DependencyClass,
}

impl TextQuery {
    /// The query line `Σ |= goal` with Σ rotated left by `rot`.
    pub fn line(&self, rot: usize) -> String {
        let n = self.sigma.len().max(1);
        let mut out = String::new();
        for i in 0..self.sigma.len() {
            if i > 0 {
                out.push_str(" & ");
            }
            out.push_str(&self.sigma[(i + rot) % n]);
        }
        out.push_str(" |= ");
        out.push_str(&self.goal);
        out
    }

    /// Parses and normalizes the query the way the service's text front
    /// ends do (`parse_universe_spec`, `parse_query_line`,
    /// `try_normalize`).
    ///
    /// # Errors
    /// A parse or normalization error, or a goal that does not normalize
    /// to exactly one part.
    pub fn parse(&self) -> Result<Parsed, String> {
        parse_line(&self.universe, &self.line(0))
    }

    /// The canonical key of the parsed query.
    ///
    /// # Panics
    /// If the generated text does not parse (a generator bug).
    pub fn key(&self) -> QueryKey {
        let p = self.parse().expect("generated queries parse");
        query_key(&p.sigma, &p.goal)
    }
}

/// Parses and normalizes one universe spec plus query line.
///
/// # Errors
/// A parse or normalization error, or a goal with other than one part.
pub fn parse_line(universe: &str, line: &str) -> Result<Parsed, String> {
    let u = parse_universe_spec(universe)?;
    let mut pool = ValuePool::new(u.clone());
    let (sigma, goal) = parse_query_line(&u, &mut pool, line)?;
    let mut sigma_normal = Vec::new();
    for d in &sigma {
        sigma_normal.extend(d.try_normalize(&u, &mut pool)?);
    }
    let mut parts = goal.try_normalize(&u, &mut pool)?;
    if parts.len() != 1 {
        return Err(format!("goal has {} parts: {line:?}", parts.len()));
    }
    Ok(Parsed {
        sigma: sigma_normal,
        goal: parts.pop().expect("one part"),
        pool,
        class: goal.class(),
    })
}

fn attr_text(names: &[char], idx: &[usize]) -> String {
    idx.iter().map(|&i| names[i]).collect()
}

/// A random fd `X -> Y` or mvd `X ->> Y` over `names`, with
/// `1 ≤ |X| ≤ 2`, `1 ≤ |Y| ≤ max_rhs`, X and Y disjoint and not covering
/// the universe (so the mvd is never trivial).
fn random_fd_or_mvd(rng: &mut Rng, names: &[char], max_rhs: usize) -> String {
    let w = names.len();
    let lhs_len = rng.between(1, 2);
    let rhs_len = rng.between(1, max_rhs.min(w - lhs_len - 1));
    let picked = rng.subset(w, lhs_len + rhs_len);
    let mut order = picked.clone();
    rng.shuffle(&mut order);
    let mut lhs = order[..lhs_len].to_vec();
    let mut rhs = order[lhs_len..].to_vec();
    lhs.sort_unstable();
    rhs.sort_unstable();
    let arrow = if rng.below(2) == 0 { "->" } else { "->>" };
    format!(
        "{} {arrow} {}",
        attr_text(names, &lhs),
        attr_text(names, &rhs)
    )
}

/// Every single-part goal over `names`: fds `X -> A` and mvds `X ->> Y`
/// with `|X| ≤ 2`, `|Y| ≤ 2`, X and Y disjoint and not covering the
/// universe.
fn goal_space(names: &[char]) -> Vec<String> {
    let w = names.len();
    let mut lhss: Vec<Vec<usize>> = (0..w).map(|a| vec![a]).collect();
    for a in 0..w {
        for b in a + 1..w {
            lhss.push(vec![a, b]);
        }
    }
    let mut out = Vec::new();
    for lhs in &lhss {
        let rest: Vec<usize> = (0..w).filter(|a| !lhs.contains(a)).collect();
        for &a in &rest {
            out.push(format!("{} -> {}", attr_text(names, lhs), names[a]));
        }
        let mut rhss: Vec<Vec<usize>> = rest.iter().map(|&a| vec![a]).collect();
        for (i, &a) in rest.iter().enumerate() {
            for &b in &rest[i + 1..] {
                rhss.push(vec![a, b]);
            }
        }
        for rhs in rhss {
            if lhs.len() + rhs.len() < w {
                out.push(format!(
                    "{} ->> {}",
                    attr_text(names, lhs),
                    attr_text(names, &rhs)
                ));
            }
        }
    }
    out
}

/// Inputs of the `tenant_stream` workload.
pub struct TenantInputs {
    /// Distinct queries (distinct canonical keys), indexed by query id.
    pub queries: Vec<TextQuery>,
    /// The submission stream: `(query id, Σ rotation)` in send order.
    pub submissions: Vec<(u32, u8)>,
    /// Query ids of the hottest keys, hottest first (the answer log is
    /// pre-seeded with them).
    pub hot: Vec<u32>,
}

/// Universe of `tenant_stream`.
pub const TENANT_UNIVERSE: &str = "A B C D E F";

/// Goals drawn per random Σ in `tenant_stream`.
const TENANT_GOALS_PER_SIGMA: usize = 60;

/// `tenant_stream`: random Σ of 3–5 fds/mvds over `A … F`, many goals per
/// Σ, until `keys` distinct canonical keys exist; then `submissions`
/// draws with Zipf(1) popularity over a seeded ranking of the keys. Each
/// submission rotates Σ by a random amount, so repeats differ in text but
/// not in key.
pub fn tenant_stream(seed: u64, keys: usize, submissions: usize, hot: usize) -> TenantInputs {
    let mut rng = Rng::new(seed);
    let names: Vec<char> = TENANT_UNIVERSE
        .split(' ')
        .map(|s| s.chars().next().expect("name"))
        .collect();
    let goals = goal_space(&names);
    let mut seen: HashSet<QueryKey> = HashSet::new();
    let mut queries = Vec::with_capacity(keys);
    while queries.len() < keys {
        let sigma: Vec<String> = (0..rng.between(3, 5))
            .map(|_| random_fd_or_mvd(&mut rng, &names, 2))
            .collect();
        let mut pick = rng.subset(goals.len(), TENANT_GOALS_PER_SIGMA);
        rng.shuffle(&mut pick);
        for g in pick {
            if queries.len() == keys {
                break;
            }
            let q = TextQuery {
                universe: TENANT_UNIVERSE.to_string(),
                sigma: sigma.clone(),
                goal: goals[g].clone(),
            };
            if seen.insert(q.key()) {
                queries.push(q);
            }
        }
    }
    let mut ranking: Vec<u32> = (0..keys as u32).collect();
    rng.shuffle(&mut ranking);
    let zipf = Zipf::new(keys);
    let submissions = (0..submissions)
        .map(|_| {
            let id = ranking[zipf.sample(&mut rng)];
            let rot = rng.below(queries[id as usize].sigma.len()) as u8;
            (id, rot)
        })
        .collect();
    TenantInputs {
        queries,
        submissions,
        hot: ranking[..hot.min(keys)].to_vec(),
    }
}

/// Zipf(1) over ranks `0..n` by inverse-CDF lookup.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cdf.last().expect("nonempty");
        let u = rng.unit() * total;
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One `cold_goals` query: `(Σ, goal, pool)`.
pub type Query = (Vec<TdOrEgd>, TdOrEgd, ValuePool);

/// Universe width of `cold_goals`.
const COLD_WIDTH: usize = 5;

/// `cold_goals`: `hyp_seeds` calls of `shared_sigma_workload` at width 5
/// (one Σ, the mvd chain; one random goal hypothesis per call) with
/// `members` conclusions each. Keys repeated across calls are dropped, so
/// every returned query has a distinct canonical key.
pub fn cold_goals(seed: u64, hyp_seeds: usize, members: usize, rows: usize) -> Vec<Query> {
    let mut seen: HashSet<QueryKey> = HashSet::new();
    let mut out = Vec::with_capacity(hyp_seeds * members);
    for s in 0..hyp_seeds as u64 {
        let sub_seed = seed.wrapping_mul(0x0001_0000_0001).wrapping_add(s);
        for q in typedtd_bench::shared_sigma_workload(COLD_WIDTH, rows, members, sub_seed) {
            if seen.insert(query_key(&q.0, &q.1)) {
                out.push(q);
            }
        }
    }
    out
}

/// One `refute_under_load` query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RefuteQuery {
    /// The query text.
    pub text: TextQuery,
    /// `true` for the refutable fd+ind share: Σ is not weakly acyclic (the
    /// classifier routes it to the dovetail) and `witness` refutes it.
    pub divergent: bool,
    /// For divergent queries, a finite relation (rows of value indices)
    /// that satisfies Σ and violates the goal: the generator's proof of
    /// the reference label `No`.
    pub witness: Vec<Vec<u8>>,
}

/// Per-job fuel cap of the divergent share.
pub const DIVERGENT_FUEL_CAP: u64 = 512;

/// `refute_under_load`: `total` queries, a quarter of them refutable
/// fd+ind queries over untyped universes of width 3–5 (all with distinct
/// keys), the rest cheap typed fd/mvd queries over `A … D` or `A … E`.
/// The two kinds are interleaved in a seeded order.
pub fn refute_under_load(seed: u64, total: usize) -> Vec<RefuteQuery> {
    let mut rng = Rng::new(seed ^ 0x7265_6675_7465);
    let divergent = total / 4;
    let mut kinds: Vec<bool> = (0..total).map(|i| i < divergent).collect();
    rng.shuffle(&mut kinds);
    let mut seen: HashSet<QueryKey> = HashSet::new();
    kinds
        .into_iter()
        .map(|div| {
            if div {
                divergent_query(&mut rng, &mut seen)
            } else {
                decidable_query(&mut rng)
            }
        })
        .collect()
}

fn decidable_query(rng: &mut Rng) -> RefuteQuery {
    let width = rng.between(4, 5);
    let names: Vec<char> = "ABCDE".chars().take(width).collect();
    let sigma = (0..rng.between(1, 3))
        .map(|_| random_fd_or_mvd(rng, &names, 2))
        .collect();
    let goals = goal_space(&names);
    let goal = goals[rng.below(goals.len())].clone();
    RefuteQuery {
        text: TextQuery {
            universe: names
                .iter()
                .map(char::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            sigma,
            goal,
        },
        divergent: false,
        witness: Vec::new(),
    }
}

/// A candidate dependency over a small untyped relation: an fd `X -> A`
/// or an ind `[X] <= [Y]`, with its own satisfaction test.
enum Cand {
    Fd(Vec<usize>, usize),
    Ind(Vec<usize>, Vec<usize>),
}

impl Cand {
    fn text(&self, names: &[char]) -> String {
        match self {
            Cand::Fd(x, a) => format!("{} -> {}", attr_text(names, x), names[*a]),
            Cand::Ind(x, y) => format!("[{}] <= [{}]", attr_text(names, x), attr_text(names, y)),
        }
    }

    fn holds(&self, rows: &[Vec<u8>]) -> bool {
        let proj =
            |r: &Vec<u8>, cols: &[usize]| -> Vec<u8> { cols.iter().map(|&c| r[c]).collect() };
        match self {
            Cand::Fd(x, a) => rows.iter().all(|t| {
                rows.iter()
                    .all(|u| proj(t, x) != proj(u, x) || t[*a] == u[*a])
            }),
            Cand::Ind(x, y) => rows
                .iter()
                .all(|t| rows.iter().any(|u| proj(t, x) == proj(u, y))),
        }
    }
}

fn candidates(w: usize, rng: &mut Rng) -> Vec<Cand> {
    let mut out = Vec::new();
    for a in 0..w {
        for b in 0..w {
            if a != b {
                out.push(Cand::Fd(vec![b], a));
                out.push(Cand::Ind(vec![a], vec![b]));
            }
            for c in b + 1..w {
                if a != b && a != c {
                    out.push(Cand::Fd(vec![b, c], a));
                }
            }
        }
    }
    // A sample of binary inds (the full set is quadratic in the
    // sequences).
    for _ in 0..2 * w {
        let x = rng.subset(w, 2);
        let mut y = rng.subset(w, 2);
        rng.shuffle(&mut y);
        if x != y {
            out.push(Cand::Ind(x, y));
        }
    }
    out
}

fn divergent_query(rng: &mut Rng, seen: &mut HashSet<QueryKey>) -> RefuteQuery {
    loop {
        let w = rng.between(3, 5);
        let names: Vec<char> = "ABCDE".chars().take(w).collect();
        let rows: Vec<Vec<u8>> = (0..rng.between(2, 3))
            .map(|_| (0..w).map(|_| rng.below(3) as u8).collect())
            .collect();
        let cands = candidates(w, rng);
        let (sat, unsat): (Vec<&Cand>, Vec<&Cand>) = cands.iter().partition(|c| c.holds(&rows));
        let sat_inds: Vec<&&Cand> = sat.iter().filter(|c| matches!(c, Cand::Ind(..))).collect();
        if sat_inds.is_empty() || unsat.is_empty() {
            continue;
        }
        let sat_fds: Vec<&&Cand> = sat.iter().filter(|c| matches!(c, Cand::Fd(..))).collect();
        let mut sigma = vec![sat_inds[rng.below(sat_inds.len())].text(&names)];
        for _ in 0..rng.below(3).min(sat_fds.len()) {
            let extra = sat_fds[rng.below(sat_fds.len())].text(&names);
            if !sigma.contains(&extra) {
                sigma.push(extra);
            }
        }
        let text = TextQuery {
            universe: format!(
                "untyped {}",
                names
                    .iter()
                    .map(char::to_string)
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
            sigma,
            goal: unsat[rng.below(unsat.len())].text(&names),
        };
        let Ok(p) = text.parse() else { continue };
        if classify(&p.sigma).route() == RouteClass::Terminating {
            continue;
        }
        assert!(
            is_witness(&p, &rows),
            "generator bug: {rows:?} does not refute {text:?}"
        );
        if seen.insert(query_key(&p.sigma, &p.goal)) {
            return RefuteQuery {
                text,
                divergent: true,
                witness: rows,
            };
        }
    }
}

/// Checks with the chase crate's own model checker that `rows` satisfies
/// Σ and violates the goal.
pub fn is_witness(p: &Parsed, rows: &[Vec<u8>]) -> bool {
    let mut pool = p.pool.clone();
    let mut rel = Relation::new(pool.universe().clone());
    for r in rows {
        rel.insert(Tuple::new(
            r.iter()
                .map(|v| pool.untyped(&format!("svcbench_witness_{v}")))
                .collect(),
        ));
    }
    typedtd_chase::is_counterexample(&rel, &p.sigma, &p.goal)
}
