//! `tenant_stream`: a closed loop of two submitters on an in-process
//! `ImplicationClient` whose answer log is pre-seeded; each submitter
//! parses the next query line, submits it and waits for the answer.
//!
//! The loop does not go over the wire. Driven through one Unix-socket
//! connection into an in-process `ProtoServer` (default `SockdConfig`),
//! the same stream's throughput ranged from 2511 to 7147 queries/s and
//! its p99 latency from 2.3 to 13.4 ms over ten seeds on a 2-CPU virtual
//! machine whose host was busy (spread 0.41 and 2.2): the server's
//! connection thread and two drivers poll and yield, and on two CPUs their
//! pace follows the host's scheduling. The frame codec is measured in a
//! side pass of the traced run.

use crate::calib::{timed_at_reference, Pacer, Speed};
use crate::closed::Answered;
use crate::gen::{parse_line, tenant_stream, TenantInputs, TENANT_UNIVERSE};
use crate::layers::{self, Side};
use crate::reference::{contradicts, decide_reference, definite, Verdict};
use crate::report::{Outcome, Phase};
use crate::stats::{median, peak_rss_mib, process_cpu_us};
use crate::trace::{SpanId, Spans};
use crate::{unique_name, work_dir, Opts};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use typedtd_service::{ImplicationClient, PersistConfig, QuerySpec, ServiceConfig};

/// Submitter threads (the host has two CPUs). A closed loop rather than a
/// fixed offered rate: on a 2-CPU virtual machine, open loops at 2500 and
/// 5000 q/s fell into queueing whenever the host slowed down, and their
/// latency medians moved by up to 5x between identical runs.
const THREADS: usize = 2;
/// Submissions generated per second of run time. The stream wraps around
/// when a run gets through all of it.
const SUBMISSIONS_PER_SECOND: f64 = 12_000.0;
/// Distinct canonical keys in the workload (larger than the default
/// 4096-entry cache, so the eviction policy matters).
const KEYS: usize = 16_000;
/// Hottest keys whose answers pre-seed the answer log.
const HOT: usize = 1_024;
/// Client set-ups (each replays the answer log) per phase; `setup_s` is
/// their median.
const SETUPS: usize = 15;
/// Submissions the side passes cover.
const SIDE_SAMPLE: usize = 4_000;

/// Inputs plus the pre-rendered text of every submission.
struct Prepared {
    inputs: TenantInputs,
    lines: Vec<String>,
    seed_log: PathBuf,
}

/// Runs the workload (both phases when traced).
pub fn run(opts: &Opts) -> Outcome {
    let (keys, hot) = if opts.tiny { (300, 32) } else { (KEYS, HOT) };
    let phase_s = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let n = (SUBMISSIONS_PER_SECOND * phase_s).ceil() as usize;
    let inputs = tenant_stream(opts.seed, keys, n, hot);
    let lines = inputs
        .submissions
        .iter()
        .map(|&(q, rot)| inputs.queries[q as usize].line(rot as usize))
        .collect();
    let seed_log = work_dir().join(unique_name("tenant-seed", "log"));
    write_seed_log(&inputs, &seed_log);
    let prep = Prepared {
        inputs,
        lines,
        seed_log,
    };
    let mut refs: HashMap<u32, Verdict> = HashMap::new();
    let untraced = phase(&prep, phase_s, None, &mut refs).0;
    let traced = opts.trace.then(|| {
        let mut trace = Spans::new(true);
        let (p, mut layers) = phase(&prep, phase_s, Some(&mut trace), &mut refs);
        side_passes(&prep, &mut trace, &mut layers);
        let _ = trace.write_tsv(&work_dir().join("spans-tenant_stream.tsv"));
        (p, layers)
    });
    let _ = std::fs::remove_file(&prep.seed_log);
    Outcome { untraced, traced }
}

/// Builds the pre-seeded answer log: the hottest keys answered by a
/// client persisting to it. Untimed.
fn write_seed_log(inputs: &TenantInputs, path: &Path) {
    let _ = std::fs::remove_file(path);
    let client = ImplicationClient::new(ServiceConfig {
        persist: Some(PersistConfig::at(path)),
        ..ServiceConfig::default()
    });
    for &q in &inputs.hot {
        let p = inputs.queries[q as usize]
            .parse()
            .expect("generated queries parse");
        client
            .submit(QuerySpec::new(p.sigma, p.goal, p.pool).goal_class(p.class))
            .wait();
    }
}

fn client_config(log: &Path) -> ServiceConfig {
    ServiceConfig {
        persist: Some(PersistConfig::at(log)),
        ..ServiceConfig::default()
    }
}

/// One measured phase: `SETUPS` client set-ups (the last one serves),
/// the closed loop, the answer check.
fn phase(
    prep: &Prepared,
    seconds: f64,
    trace: Option<&mut Spans>,
    refs: &mut HashMap<u32, Verdict>,
) -> (Phase, BTreeMap<&'static str, f64>) {
    let dir = work_dir();
    let log = dir.join(unique_name("tenant-run", "log"));
    let mut setups = Vec::with_capacity(SETUPS);
    let mut served = None;
    for _ in 0..SETUPS {
        drop(served.take());
        std::fs::copy(&prep.seed_log, &log).expect("copy the seed answer log");
        setups.push(timed_at_reference(|| {
            served = Some(ImplicationClient::new(client_config(&log)));
        }));
    }
    let client = served.expect("at least one set-up");
    let tracing = trace.is_some();
    let mut fresh = Spans::new(false);
    let trace = trace.unwrap_or(&mut fresh);
    let cpu0 = process_cpu_us();
    let run = closed_loop(&client, &prep.lines, seconds, trace);
    let cpu_us = process_cpu_us() - cpu0;
    let peak = peak_rss_mib();
    let stats = client.stats();
    let tele = client.telemetry_snapshot();
    drop(client);
    let _ = std::fs::remove_file(&log);

    let mut p = Phase {
        attempted: run.answers.len() as u64,
        window_s: run.window_s,
        speed: run.speed,
        cpu_us,
        peak_rss_mib: peak,
        setup_s: median(&setups),
        ..Phase::default()
    };
    let n = prep.lines.len();
    for &(i, sent_ns, lat_ns, ans) in &run.answers {
        let q = prep.inputs.submissions[i % n].0;
        let want = *refs.entry(q).or_insert_with(|| {
            let parsed = prep.inputs.queries[q as usize]
                .parse()
                .expect("generated queries parse");
            decide_reference(
                &parsed.sigma,
                &parsed.goal,
                &parsed.pool,
                &ServiceConfig::default().decide,
            )
        });
        let got = ans.verdict;
        p.answered += 1;
        p.done_ns.push(sent_ns + lat_ns);
        if ans.cancelled {
            p.failed += 1;
        } else if contradicts(got, want) {
            p.failed += 1;
            p.contradictions += 1;
        }
        p.definite += u64::from(definite(got));
        let sample = (sent_ns, lat_ns as f64 / 1e3);
        p.latencies_us.push(sample);
        if !ans.from_cache {
            p.heavy_us.push(sample);
        }
    }

    let mut layers = BTreeMap::new();
    if tracing {
        layers::service_counters(&stats, &tele, &mut layers);
    }
    (p, layers)
}

/// What the closed loop observed.
struct LoopRun {
    /// Per submission: its index in the stream (which wraps around), its
    /// submit time (ns since the loop began), its latency (ns) and the
    /// answer.
    answers: Vec<(usize, u64, u64, Answered)>,
    /// Seconds from the first submission to the last answer.
    window_s: f64,
    /// The host's speed, timed by the submitters.
    speed: Speed,
}

/// The closed loop: `THREADS` submitters take the next submission, parse
/// its text, submit it and wait for the answer. The submission stream
/// wraps around when a run gets through all of it.
fn closed_loop(
    client: &ImplicationClient,
    lines: &[String],
    seconds: f64,
    trace: &mut Spans,
) -> LoopRun {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let results: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let mut local = trace.child();
                let cursor = &cursor;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    let mut pacer = Pacer::default();
                    let mut last = Duration::ZERO;
                    loop {
                        pacer.tick();
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if Instant::now() >= deadline {
                            break;
                        }
                        let line = &lines[i % lines.len()];
                        let t0 = Instant::now();
                        let p = local.time("parse.query", SpanId::ROOT, i as u64, || {
                            parse_line(TENANT_UNIVERSE, line).expect("generated queries parse")
                        });
                        let spec = QuerySpec::new(p.sigma, p.goal, p.pool).goal_class(p.class);
                        let h = layers::submit(client, spec, i, &mut local);
                        let out = local.time("service.wait", SpanId::ROOT, i as u64, || h.wait());
                        last = start.elapsed();
                        mine.push((
                            i,
                            t0.duration_since(start).as_nanos() as u64,
                            t0.elapsed().as_nanos() as u64,
                            Answered::from(out),
                        ));
                    }
                    (mine, local, pacer, last)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("submitter thread"))
            .collect()
    });
    let mut run = LoopRun {
        answers: Vec::new(),
        window_s: 0.0,
        speed: Speed::default(),
    };
    for (mine, local, pacer, last) in results {
        run.answers.extend(mine);
        trace.absorb(local);
        run.speed.extend(pacer);
        run.window_s = run.window_s.max(last.as_secs_f64());
    }
    run
}

/// The per-layer side passes over this workload's inputs: codec, parse,
/// canon and classify costs on the submission stream; submit/wait timing
/// on an in-process client; the chase/search replay of the distinct
/// misses; the answer log's replay and append costs.
fn side_passes(prep: &Prepared, trace: &mut Spans, layers: &mut BTreeMap<&'static str, f64>) {
    let sample: Vec<(&str, &str)> = prep
        .lines
        .iter()
        .take(SIDE_SAMPLE)
        .map(|l| (TENANT_UNIVERSE, l.as_str()))
        .collect();
    let mut buf = trace.child();
    layers.insert(
        "proto.codec_ns_per_query",
        layers::codec_ns(&sample, &mut buf),
    );
    layers.insert("parse.ns_per_query", layers::parse_ns(&sample, &mut buf));
    let parsed: Vec<_> = sample
        .iter()
        .map(|&(u, l)| parse_line(u, l).expect("generated queries parse"))
        .collect();
    let side = Side::from_parsed(&parsed);
    side.canon_and_classify(&mut buf, layers);
    let misses = side.submit_pass(&ServiceConfig::default(), &mut buf, layers);
    layers::replay_pass(&misses, &ServiceConfig::default().decide, &mut buf, layers);
    layers::persist_pass(&prep.seed_log, &mut buf, layers);
    trace.absorb(buf);
}
