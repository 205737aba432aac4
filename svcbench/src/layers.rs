//! Per-layer measurements of a traced run: side passes that time the
//! benchmark's own calls into each layer's public functions over the
//! workload's inputs, and the service's public counters.

use crate::gen::Parsed;
use crate::stats::{median, ns_to_us, ratio};
use crate::trace::{SpanId, Spans};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};
use typedtd_chase::{
    classify, routed_decide_config, Answer, DecideConfig, DecideStatus, DecideTask, RouteClass,
};
use typedtd_dependencies::{DependencyClass, TdOrEgd};
use typedtd_relational::ValuePool;
use typedtd_service::{
    decode_frame, dep_key, query_key, query_parts, replay_log, Frame, ImplicationClient, JobHandle,
    JobStatus, Opcode, PersistConfig, PersistLog, QueryKey, QuerySpec, ServiceConfig, ServiceStats,
    SubmitPayload, TelemetrySnapshot, WireAnswer,
};

/// The mean of nanosecond samples.
fn mean_ns(durations: &[u64]) -> f64 {
    ratio(durations.iter().sum::<u64>() as f64, durations.len() as f64)
}

/// Frame codec cost per query: a `SUBMIT` encoded and decoded as client
/// and server do, plus the `ANSWER` frame back.
pub fn codec_ns(lines: &[(&str, &str)], buf: &mut Spans) -> f64 {
    let answer = WireAnswer {
        implication: Answer::Yes,
        finite_implication: Answer::Yes,
        from_cache: true,
        cancelled: false,
        expired: false,
        fuel_spent: 0,
    };
    let mut wire = Vec::new();
    for (i, &(universe, line)) in lines.iter().enumerate() {
        let sp = buf.begin("proto.codec", SpanId::ROOT, i as u64);
        wire.clear();
        let payload = SubmitPayload {
            fuel_cap: None,
            universe: universe.to_string(),
            query: line.to_string(),
            progress: false,
        };
        Frame::new(Opcode::Submit, i as u64, payload.encode()).encode_into(&mut wire);
        let (frame, _) = decode_frame(&wire).expect("well-formed").expect("complete");
        let back = SubmitPayload::decode(&frame.payload).expect("round trip");
        let reply = Frame::new(Opcode::Answer, frame.corr, answer.encode()).encode();
        let (frame, _) = decode_frame(&reply)
            .expect("well-formed")
            .expect("complete");
        let decoded = WireAnswer::decode(&frame.payload).expect("round trip");
        std::hint::black_box((back, decoded));
        buf.end(sp);
    }
    mean_ns(&buf.durations("proto.codec"))
}

/// Text-layer cost per query: `parse_universe_spec`, `parse_query_line`
/// and `try_normalize`, as the server runs them per `SUBMIT`.
pub fn parse_ns(lines: &[(&str, &str)], buf: &mut Spans) -> f64 {
    for (i, &(universe, line)) in lines.iter().enumerate() {
        let parsed = buf.time("parse.query", SpanId::ROOT, i as u64, || {
            crate::gen::parse_line(universe, line)
        });
        std::hint::black_box(parsed.is_ok());
    }
    mean_ns(&buf.durations("parse.query"))
}

/// One query as a side pass re-submits or replays it.
#[derive(Clone)]
pub struct Item {
    /// Normalized Σ.
    pub sigma: Vec<TdOrEgd>,
    /// The goal part.
    pub goal: TdOrEgd,
    /// Its pool.
    pub pool: ValuePool,
    /// Its surface class, if known.
    pub class: Option<DependencyClass>,
    /// Per-job fuel cap, if any.
    pub fuel_cap: Option<u64>,
}

impl Item {
    /// The service query for this item.
    pub fn spec(&self) -> QuerySpec {
        let mut spec = QuerySpec::new(self.sigma.clone(), self.goal.clone(), self.pool.clone());
        if let Some(c) = self.class {
            spec = spec.goal_class(c);
        }
        if let Some(cap) = self.fuel_cap {
            spec = spec.fuel_cap(cap);
        }
        spec
    }
}

/// The queries one side pass covers, in submission order (repeats kept).
pub struct Side {
    /// The queries.
    pub items: Vec<Item>,
}

impl Side {
    /// Side-pass items from parsed text queries.
    pub fn from_parsed(parsed: &[Parsed]) -> Self {
        Self {
            items: parsed
                .iter()
                .map(|p| Item {
                    sigma: p.sigma.clone(),
                    goal: p.goal.clone(),
                    pool: p.pool.clone(),
                    class: Some(p.class),
                    fuel_cap: None,
                })
                .collect(),
        }
    }

    /// Canonicalization (`query_parts`, and `dep_key` over Σ alone for the
    /// Σ-side share) and classification (`classify`) costs per query.
    pub fn canon_and_classify(&self, buf: &mut Spans, layers: &mut BTreeMap<&'static str, f64>) {
        let mut terminating = 0usize;
        for (i, it) in self.items.iter().enumerate() {
            let qid = i as u64;
            let parts = buf.time("canon.query_parts", SpanId::ROOT, qid, || {
                query_parts(&it.sigma, &it.goal)
            });
            std::hint::black_box(parts.key);
            for d in &it.sigma {
                std::hint::black_box(buf.time("canon.dep_key", SpanId::ROOT, qid, || dep_key(d)));
            }
            let report = buf.time("classify", SpanId::ROOT, qid, || classify(&it.sigma));
            terminating += usize::from(report.route() == RouteClass::Terminating);
        }
        let canon = buf.durations("canon.query_parts");
        let sigma_side = buf.durations("canon.dep_key");
        let class = buf.durations("classify");
        layers.insert("canon.ns_per_query", mean_ns(&canon));
        layers.insert(
            "canon.sigma_share",
            ratio(
                sigma_side.iter().sum::<u64>() as f64,
                canon.iter().sum::<u64>() as f64,
            ),
        );
        layers.insert("classify.ns_per_query", mean_ns(&class));
        layers.insert(
            "classify.terminating_share",
            ratio(terminating as f64, self.items.len() as f64),
        );
    }

    /// Re-submits the items, one at a time, to a fresh in-process client
    /// and times `submit` (split into hits and misses by whether the
    /// handle is answered on return) and `wait`. Returns the distinct
    /// misses, in order, for the chase/search replay.
    pub fn submit_pass(
        &self,
        cfg: &ServiceConfig,
        buf: &mut Spans,
        layers: &mut BTreeMap<&'static str, f64>,
    ) -> Vec<Item> {
        let client = ImplicationClient::new(cfg.clone());
        let mut misses = Vec::new();
        for (i, it) in self.items.iter().enumerate() {
            let h = submit(&client, it.spec(), i, buf);
            if !answered_on_return(&h) {
                misses.push(it.clone());
            }
            std::hint::black_box(buf.time("service.wait", SpanId::ROOT, i as u64, || h.wait()));
        }
        submit_and_wait(buf, layers);
        misses
    }
}

/// Whether `submit` answered the job before returning (a cache hit or
/// the goal-in-Σ fast path).
fn answered_on_return(h: &JobHandle) -> bool {
    matches!(h.poll(), JobStatus::Done(o) if o.from_cache)
}

/// `ImplicationClient::submit` inside a span named
/// `service.submit.hit` or `service.submit.miss` by whether the handle is
/// answered on return (checked only when tracing).
pub fn submit(
    client: &ImplicationClient,
    spec: QuerySpec,
    idx: usize,
    spans: &mut Spans,
) -> JobHandle {
    let sp = spans.begin("service.submit", SpanId::ROOT, idx as u64);
    let h = client.submit(spec);
    spans.end(sp);
    if spans.enabled() {
        let name = if answered_on_return(&h) {
            "service.submit.hit"
        } else {
            "service.submit.miss"
        };
        spans.rename(sp, name);
    }
    h
}

/// The `submit` (hit and miss) and `wait` call medians of the spans
/// recorded by [`submit`] and around `JobHandle::wait`.
pub fn submit_and_wait(spans: &Spans, layers: &mut BTreeMap<&'static str, f64>) {
    let us_p50 = |name: &str| median(&ns_to_us(&spans.durations(name)));
    layers.insert("cache.hit_submit_us", us_p50("service.submit.hit"));
    layers.insert("cache.miss_submit_us", us_p50("service.submit.miss"));
    layers.insert("sched.wait_call_us_p50", us_p50("service.wait"));
}

/// Reads the cache and scheduler counters of a finished phase.
pub fn service_counters(
    stats: &ServiceStats,
    tele: &TelemetrySnapshot,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let submitted = stats.submitted as f64;
    let us = |ns: Option<u64>| ns.unwrap_or(0) as f64 / 1e3;
    layers.insert("cache.hit_ratio", stats.cache_hit_rate());
    layers.insert(
        "cache.evictions_per_kq",
        ratio(stats.evictions as f64 * 1e3, submitted),
    );
    layers.insert("cache.warm_hits", stats.warm_hits as f64);
    layers.insert("cache.coalesced", stats.coalesced as f64);
    layers.insert("cache.goal_in_sigma", stats.goal_in_sigma as f64);
    layers.insert(
        "sched.queue_wait_p50_us",
        us(tele.queue_wait.quantile_bound(0.5)),
    );
    layers.insert(
        "sched.queue_wait_p99_us",
        us(tele.queue_wait.quantile_bound(0.99)),
    );
    layers.insert(
        "sched.run_time_p50_us",
        us(tele.run_time.quantile_bound(0.5)),
    );
    layers.insert(
        "sched.sweeps_per_query",
        ratio(stats.sweeps as f64, submitted),
    );
    layers.insert(
        "sched.parked_per_query",
        ratio(stats.parked as f64, submitted),
    );
    layers.insert("sched.steals", stats.steals as f64);
    layers.insert("sched.expired", stats.expired as f64);
    layers.insert("persist.errors", stats.persist_errors as f64);
}

/// Most misses the chase/search replay steps, and its time budget.
const REPLAY_MAX: usize = 200;
const REPLAY_BUDGET: Duration = Duration::from_secs(2);

/// Replays distinct misses through `DecideTask::step`, one fuel unit at a
/// time, under the route the service would pick, reading
/// `progress_snapshot()` around every step to split time and fuel between
/// the chase and the finite-model search.
pub fn replay_pass(
    items: &[Item],
    base: &DecideConfig,
    buf: &mut Spans,
    layers: &mut BTreeMap<&'static str, f64>,
) {
    let started = Instant::now();
    let mut seen = std::collections::HashSet::<QueryKey>::new();
    let (mut tasks, mut fuel, mut rounds, mut steps) = (0u64, 0u64, 0u64, 0u64);
    let (mut build, mut probe) = (0u64, 0u64);
    let (mut chase_ns, mut search_ns, mut attempts) = (0u64, 0u64, 0u64);
    let (mut searched, mut refuted, mut refute_attempts) = (0u64, 0u64, 0u64);
    for it in items {
        if tasks as usize >= REPLAY_MAX || started.elapsed() > REPLAY_BUDGET {
            break;
        }
        if !seen.insert(query_key(&it.sigma, &it.goal)) {
            continue;
        }
        let qid = tasks;
        let cfg = routed_decide_config(base, classify(&it.sigma).route());
        let mut task = DecideTask::new(it.sigma.clone(), it.goal.clone(), it.pool.clone(), cfg);
        let root = buf.begin("replay.task", SpanId::ROOT, qid);
        let answer = loop {
            let before = task.progress_snapshot();
            let t0 = Instant::now();
            let status = buf.time("decide.step", root, qid, || task.step(1));
            let dt = t0.elapsed().as_nanos() as u64;
            let after = task.progress_snapshot();
            if after.search_attempts > before.search_attempts
                && after.chase_rounds == before.chase_rounds
            {
                search_ns += dt;
            } else {
                chase_ns += dt;
            }
            match status {
                DecideStatus::Done(a) => break Some(a),
                DecideStatus::Pending
                    if it.fuel_cap.is_some_and(|cap| task.fuel_spent() >= cap) =>
                {
                    break None
                }
                DecideStatus::Pending => {}
            }
        };
        buf.end(root);
        let snap = task.progress_snapshot();
        tasks += 1;
        fuel += snap.fuel_spent;
        rounds += snap.chase_rounds;
        steps += snap.chase_steps;
        build += snap.join_build_rows;
        probe += snap.join_probe_hits;
        attempts += snap.search_attempts;
        if snap.search_attempts > 0 {
            searched += 1;
            if answer == Some(Answer::No) {
                refuted += 1;
                refute_attempts += snap.search_attempts;
            }
        }
    }
    let t = tasks as f64;
    layers.insert("chase.fuel_per_miss", ratio(fuel as f64, t));
    layers.insert("chase.rounds_per_miss", ratio(rounds as f64, t));
    layers.insert("chase.steps_per_miss", ratio(steps as f64, t));
    layers.insert("chase.ns_per_round", ratio(chase_ns as f64, rounds as f64));
    layers.insert(
        "chase.probe_hits_per_build_row",
        ratio(probe as f64, build as f64),
    );
    layers.insert(
        "search.attempts_per_refutation",
        ratio(refute_attempts as f64, refuted as f64),
    );
    layers.insert(
        "search.ns_per_attempt",
        ratio(search_ns as f64, attempts as f64),
    );
    layers.insert("search.fuel_share", ratio(attempts as f64, fuel as f64));
    layers.insert(
        "search.refuted_ratio",
        ratio(refuted as f64, searched as f64),
    );
}

/// Answer-log costs: `replay_log` of the seed log (median of a few), and
/// `PersistLog::append` of its records into a fresh log.
pub fn persist_pass(seed_log: &Path, buf: &mut Spans, layers: &mut BTreeMap<&'static str, f64>) {
    let mut records = Vec::new();
    for i in 0..5 {
        let replay = buf.time("persist.replay_log", SpanId::ROOT, i, || {
            replay_log(seed_log)
        });
        records = replay.expect("replay the seed log").records;
    }
    let path = crate::work_dir().join(crate::unique_name("append", "log"));
    let _ = std::fs::remove_file(&path);
    let (log, _) = PersistLog::open(&PersistConfig::at(&path)).expect("open a fresh log");
    let header = std::fs::metadata(&path).map_or(0, |m| m.len());
    for (i, r) in records.iter().enumerate() {
        let ok = buf.time("persist.append", SpanId::ROOT, i as u64, || {
            log.append(&r.key, r.answer, r.cost)
        });
        assert!(ok, "append to a fresh log");
    }
    drop(log);
    let len = std::fs::metadata(&path).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&path);
    let replays: Vec<f64> = buf
        .durations("persist.replay_log")
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    layers.insert("persist.replay_s", median(&replays));
    layers.insert(
        "persist.append_us_p50",
        median(&ns_to_us(&buf.durations("persist.append"))),
    );
    layers.insert(
        "persist.bytes_per_answer",
        ratio(len.saturating_sub(header) as f64, records.len() as f64),
    );
}
