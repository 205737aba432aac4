//! The closed-loop workloads on the in-process `ImplicationClient`:
//! `cold_goals` (two submitters, one query at a time, every key distinct)
//! and `refute_under_load` (two submitters, each with a window of
//! outstanding jobs, a quarter of them refutable fd+ind queries).

use crate::calib::{timed_at_reference, Pacer, Speed};
use crate::gen::{cold_goals, refute_under_load, TextQuery, DIVERGENT_FUEL_CAP};
use crate::layers::{self, Item, Side};
use crate::reference::{contradicts, decide_reference, definite, Verdict};
use crate::report::{Outcome, Phase};
use crate::stats::{median, peak_rss_mib, process_cpu_us};
use crate::trace::{SpanId, Spans};
use crate::{work_dir, Opts};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use typedtd_chase::{Answer, DecideConfig, DecideMode};
use typedtd_service::{
    ImplicationClient, JobHandle, JobOutcome, JobStatus, QuerySpec, ServiceConfig, ServiceStats,
    TelemetrySnapshot,
};

/// Submitter threads (the host has two CPUs).
const THREADS: usize = 2;
/// `setup_s` is the median over `SETUP_BATCHES` batches of the mean time
/// to construct a client in a batch of `SETUP_BATCH` (one construction
/// takes well under a microsecond, too little to time alone).
const SETUP_BATCHES: usize = 21;
const SETUP_BATCH: usize = 1_000;
/// How long outstanding jobs may take to drain after the window closes.
const DRAIN: Duration = Duration::from_secs(5);
/// Queries the side passes cover.
const SIDE_SAMPLE: usize = 2_000;

/// `cold_goals` shape: goal hypotheses (one `shared_sigma_workload` call
/// each), conclusions per hypothesis, and hypothesis rows. A query's chase
/// cost is set mostly by its hypothesis, so one conclusion per hypothesis
/// makes a seed's key set ~6000 independent draws of that cost (with 3072,
/// the p99 latency of a seed's key set moved by 0.16 between seeds).
const COLD_HYPOTHESES: usize = 6_144;
const COLD_CONCLUSIONS: usize = 1;
const COLD_ROWS: usize = 4;

/// Queries generated per second of run time for `refute_under_load`,
/// above what two submitters get through on a 2-CPU host, so a run does
/// not run out of fresh queries (if it does, it ends early and its
/// throughput still counts the window it ran).
const REFUTE_PER_SECOND: f64 = 4_000.0;

/// Outstanding jobs each `refute_under_load` submitter keeps. With 4, the
/// decidable queries' p99 (set by waits behind divergent jobs) moved
/// between 2.5 and 5.7 ms across identical runs on a 2-CPU virtual
/// machine; with 2 it stays near 1.2 ms.
const WINDOW: usize = 2;

/// One workload query.
enum Job {
    /// Built in memory (`cold_goals`); the reference decides it.
    Built(Item),
    /// Held as text (`refute_under_load`): the submitter parses it just
    /// before submitting, as a client holding query text does.
    Text {
        query: TextQuery,
        /// `Some` for the refutable share: its fuel cap.
        fuel_cap: Option<u64>,
    },
}

impl Job {
    fn item(&self) -> Item {
        match self {
            Job::Built(item) => item.clone(),
            Job::Text { query, fuel_cap } => {
                let p = query.parse().expect("generated queries parse");
                Item {
                    sigma: p.sigma,
                    goal: p.goal,
                    pool: p.pool,
                    class: Some(p.class),
                    fuel_cap: *fuel_cap,
                }
            }
        }
    }

    fn spec(&self) -> QuerySpec {
        match self {
            Job::Built(item) => item.spec(),
            Job::Text { .. } => self.item().spec(),
        }
    }

    /// The generator's label for the refutable share (proved by its
    /// witness relation); `None` when the reference must decide.
    fn label(&self) -> Option<Verdict> {
        match self {
            Job::Text {
                fuel_cap: Some(_), ..
            } => Some((Answer::No, Answer::No)),
            _ => None,
        }
    }
}

/// What a submitter saw for one query.
struct Seen {
    idx: usize,
    /// Submit time, in ns since the phase began.
    submit_ns: u64,
    latency_ns: u64,
    outcome: Option<Answered>,
}

/// The parts of a job's outcome the grading reads. The counterexample
/// relation is dropped, so that the benchmark's own bookkeeping does not
/// grow the peak resident set it reports.
#[derive(Clone, Copy)]
pub(crate) struct Answered {
    pub(crate) verdict: Verdict,
    pub(crate) from_cache: bool,
    pub(crate) cancelled: bool,
}

impl From<JobOutcome> for Answered {
    fn from(o: JobOutcome) -> Self {
        Self {
            verdict: (o.implication, o.finite_implication),
            from_cache: o.from_cache,
            cancelled: o.cancelled,
        }
    }
}

/// What one phase function returns: the queries seen, the service's
/// counters, the seconds from the first submission to the last answer,
/// and the host's speed.
type PhaseRun = (Vec<Seen>, ServiceStats, TelemetrySnapshot, f64, Speed);

/// The time to construct a client at the reference speed (see
/// `SETUP_BATCHES`).
fn setup_s(cfg: &ServiceConfig) -> f64 {
    let mut samples = Vec::with_capacity(SETUP_BATCHES);
    for _ in 0..SETUP_BATCHES {
        let mut clients = Vec::with_capacity(SETUP_BATCH);
        let batch_s = timed_at_reference(|| {
            for _ in 0..SETUP_BATCH {
                clients.push(ImplicationClient::new(cfg.clone()));
            }
        });
        samples.push(batch_s / SETUP_BATCH as f64);
        drop(std::hint::black_box(clients));
    }
    median(&samples)
}

/// Sums the counters the per-layer metrics read.
fn add_stats(acc: &mut ServiceStats, s: &ServiceStats) {
    acc.submitted += s.submitted;
    acc.cache_hits += s.cache_hits;
    acc.cache_misses += s.cache_misses;
    acc.evictions += s.evictions;
    acc.warm_hits += s.warm_hits;
    acc.coalesced += s.coalesced;
    acc.goal_in_sigma += s.goal_in_sigma;
    acc.sweeps += s.sweeps;
    acc.parked += s.parked;
    acc.steals += s.steals;
    acc.expired += s.expired;
    acc.persist_errors += s.persist_errors;
}

/// Grades what the submitters saw against the references.
///
/// `refute_latency_p50_us` covers the refutable share when the workload
/// has one, and otherwise every query that missed the cache.
fn grade(
    jobs: &[Job],
    seen: &[Seen],
    base: &DecideConfig,
    refs: &mut BTreeMap<usize, Verdict>,
    p: &mut Phase,
) {
    let has_labels = jobs.iter().any(|j| j.label().is_some());
    for s in seen {
        p.attempted += 1;
        let Some(out) = &s.outcome else {
            p.failed += 1;
            continue;
        };
        let job = &jobs[s.idx];
        let want = *refs.entry(s.idx).or_insert_with(|| {
            job.label().unwrap_or_else(|| {
                let it = job.item();
                decide_reference(&it.sigma, &it.goal, &it.pool, base)
            })
        });
        let got = out.verdict;
        p.answered += 1;
        p.done_ns.push(s.submit_ns + s.latency_ns);
        if out.cancelled {
            p.failed += 1;
        } else if contradicts(got, want) {
            p.failed += 1;
            p.contradictions += 1;
        }
        p.definite += u64::from(definite(got));
        let sample = (s.submit_ns, s.latency_ns as f64 / 1e3);
        if job.label().is_some() {
            p.heavy_us.push(sample);
        } else {
            p.latencies_us.push(sample);
            if !has_labels && !out.from_cache {
                p.heavy_us.push(sample);
            }
        }
    }
}

/// `cold_goals`: Σ is the width-5 mvd chain, every key is distinct, and
/// each pass over the key set starts a fresh client so that every
/// submission misses the cache.
pub fn run_cold(opts: &Opts) -> Outcome {
    let (hyps, members) = if opts.tiny {
        (16, 1)
    } else {
        (COLD_HYPOTHESES, COLD_CONCLUSIONS)
    };
    let jobs: Vec<Job> = cold_goals(opts.seed, hyps, members, COLD_ROWS)
        .into_iter()
        .map(|(sigma, goal, pool)| {
            Job::Built(Item {
                sigma,
                goal,
                pool,
                class: None,
                fuel_cap: None,
            })
        })
        .collect();
    run_phases(
        opts,
        &jobs,
        &ServiceConfig::default(),
        "cold_goals",
        cold_phase,
    )
}

/// `refute_under_load`: the adaptive dovetail, default budgets, a quarter
/// of the queries refutable fd+ind ones capped at 512 fuel each.
pub fn run_refute(opts: &Opts) -> Outcome {
    let total = if opts.tiny {
        80
    } else {
        (REFUTE_PER_SECOND * opts.seconds) as usize
    };
    let jobs: Vec<Job> = refute_under_load(opts.seed, total)
        .into_iter()
        .map(|q| Job::Text {
            query: q.text,
            fuel_cap: q.divergent.then_some(DIVERGENT_FUEL_CAP),
        })
        .collect();
    run_phases(
        opts,
        &jobs,
        &refute_config(),
        "refute_under_load",
        refute_phase,
    )
}

/// The service configuration of `refute_under_load`: the defaults with
/// the adaptive dovetail (`--mode dovetail:adaptive`).
fn refute_config() -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    cfg.decide.mode = DecideMode::adaptive_dovetail(1);
    cfg
}

type PhaseFn = fn(&[Job], &ServiceConfig, f64, &mut Spans) -> PhaseRun;

fn run_phases(opts: &Opts, jobs: &[Job], cfg: &ServiceConfig, name: &str, f: PhaseFn) -> Outcome {
    let phase_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut refs = BTreeMap::new();
    let mut measure = |trace: &mut Spans| {
        let setup = setup_s(cfg);
        let mut buf = trace.child();
        let cpu0 = process_cpu_us();
        let (seen, stats, tele, window_s, speed) = f(jobs, cfg, phase_s, &mut buf);
        let cpu_us = process_cpu_us() - cpu0;
        let mut p = Phase {
            window_s,
            speed,
            cpu_us,
            peak_rss_mib: peak_rss_mib(),
            setup_s: setup,
            ..Phase::default()
        };
        grade(jobs, &seen, &cfg.decide, &mut refs, &mut p);
        trace.absorb(buf);
        (p, stats, tele)
    };
    let untraced = measure(&mut Spans::new(false)).0;
    let traced = opts.trace.then(|| {
        let mut trace = Spans::new(true);
        let (p, stats, tele) = measure(&mut trace);
        let mut layers = BTreeMap::new();
        layers::service_counters(&stats, &tele, &mut layers);
        layers::submit_and_wait(&trace, &mut layers);
        let mut buf = trace.child();
        let sample = &jobs[..jobs.len().min(SIDE_SAMPLE)];
        let texts: Vec<(&str, String)> = sample
            .iter()
            .filter_map(|j| match j {
                Job::Text { query, .. } => Some((query.universe.as_str(), query.line(0))),
                Job::Built(_) => None,
            })
            .collect();
        if !texts.is_empty() {
            let texts: Vec<(&str, &str)> = texts.iter().map(|(u, l)| (*u, l.as_str())).collect();
            layers.insert("parse.ns_per_query", layers::parse_ns(&texts, &mut buf));
        }
        let side = Side {
            items: sample.iter().map(Job::item).collect(),
        };
        side.canon_and_classify(&mut buf, &mut layers);
        layers::replay_pass(&side.items, &cfg.decide, &mut buf, &mut layers);
        trace.absorb(buf);
        let _ = trace.write_tsv(&work_dir().join(format!("spans-{name}.tsv")));
        (p, layers)
    });
    Outcome { untraced, traced }
}

fn cold_phase(jobs: &[Job], cfg: &ServiceConfig, seconds: f64, spans: &mut Spans) -> PhaseRun {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let seen = Mutex::new(Vec::new());
    let mut stats = ServiceStats::default();
    let mut tele = TelemetrySnapshot::default();
    let mut last = Duration::ZERO;
    let mut speed = Speed::default();
    while Instant::now() < deadline {
        let client = ImplicationClient::new(cfg.clone());
        let cursor = AtomicUsize::new(0);
        let children: Vec<(Spans, Pacer)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let mut local = spans.child();
                    let (client, cursor, seen) = (&client, &cursor, &seen);
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let mut pacer = Pacer::default();
                        loop {
                            pacer.tick();
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= jobs.len() || Instant::now() >= deadline {
                                break;
                            }
                            let spec = jobs[idx].spec();
                            let t0 = Instant::now();
                            let h = layers::submit(client, spec, idx, &mut local);
                            let out =
                                local.time("service.wait", SpanId::ROOT, idx as u64, || h.wait());
                            mine.push(Seen {
                                idx,
                                submit_ns: t0.duration_since(start).as_nanos() as u64,
                                latency_ns: t0.elapsed().as_nanos() as u64,
                                outcome: Some(out.into()),
                            });
                        }
                        seen.lock().expect("seen lock").extend(mine);
                        (local, pacer)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("submitter thread"))
                .collect()
        });
        last = start.elapsed();
        for (c, pacer) in children {
            spans.absorb(c);
            speed.extend(pacer);
        }
        add_stats(&mut stats, &client.stats());
        tele.merge(&client.telemetry_snapshot());
    }
    (
        seen.into_inner().expect("seen lock"),
        stats,
        tele,
        last.as_secs_f64(),
        speed,
    )
}

fn refute_phase(jobs: &[Job], cfg: &ServiceConfig, seconds: f64, spans: &mut Spans) -> PhaseRun {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let client = ImplicationClient::new(cfg.clone());
    let cursor = AtomicUsize::new(0);
    let results: Vec<(Vec<Seen>, Spans, Duration, Pacer)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut local = spans.child();
                let (client, cursor) = (&client, &cursor);
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut outstanding: Vec<(usize, JobHandle, Instant)> = Vec::new();
                    let mut last = Duration::ZERO;
                    let mut pacer = Pacer::default();
                    loop {
                        if Instant::now() < deadline {
                            pacer.tick();
                        }
                        while outstanding.len() < WINDOW && Instant::now() < deadline {
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            if idx >= jobs.len() {
                                break;
                            }
                            let spec = jobs[idx].spec();
                            let t0 = Instant::now();
                            outstanding.push((
                                idx,
                                layers::submit(client, spec, idx, &mut local),
                                t0,
                            ));
                        }
                        if outstanding.is_empty() {
                            break;
                        }
                        let before = outstanding.len();
                        outstanding.retain(|(idx, h, t0)| {
                            let outcome = match h.poll() {
                                JobStatus::Pending => return true,
                                JobStatus::Done(o) => Some(o.into()),
                                JobStatus::Cancelled | JobStatus::Retired => None,
                            };
                            mine.push(Seen {
                                idx: *idx,
                                submit_ns: t0.duration_since(start).as_nanos() as u64,
                                latency_ns: t0.elapsed().as_nanos() as u64,
                                outcome,
                            });
                            false
                        });
                        if outstanding.len() < before {
                            last = start.elapsed();
                            continue;
                        }
                        if Instant::now() > deadline + DRAIN {
                            mine.extend(outstanding.drain(..).map(|(idx, _, t0)| Seen {
                                idx,
                                submit_ns: t0.duration_since(start).as_nanos() as u64,
                                latency_ns: t0.elapsed().as_nanos() as u64,
                                outcome: None,
                            }));
                            break;
                        }
                        if !local.time("service.tick", SpanId::ROOT, 0, || client.tick()) {
                            std::thread::yield_now();
                        }
                    }
                    (mine, local, last, pacer)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitter thread"))
            .collect()
    });
    let mut seen = Vec::new();
    let mut last = Duration::ZERO;
    let mut speed = Speed::default();
    for (m, child, l, pacer) in results {
        seen.extend(m);
        spans.absorb(child);
        last = last.max(l);
        speed.extend(pacer);
    }
    (
        seen,
        client.stats(),
        client.telemetry_snapshot(),
        last.as_secs_f64(),
        speed,
    )
}
