//! Metric names, units and the result line.

use crate::calib::Speed;
use crate::stats::{ratio, windowed_quantile, windowed_rate};
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`, printed for every workload from an
/// untraced run. `BENCHMARK.json` declares the same list.
pub const END_TO_END: [(&str, &str); 9] = [
    ("throughput_qps", "queries/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("refute_latency_p50_us", "us"),
    ("definite_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("cpu_us_per_query", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by a traced run. A metric
/// whose layer a workload bypasses reads 0. `BENCHMARK.json` declares the
/// same list.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("proto.codec_ns_per_query", "ns"),
    ("parse.ns_per_query", "ns"),
    ("canon.ns_per_query", "ns"),
    ("canon.sigma_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_kq", "count/kq"),
    ("cache.warm_hits", "count"),
    ("cache.coalesced", "count"),
    ("cache.goal_in_sigma", "count"),
    ("cache.hit_submit_us", "us"),
    ("cache.miss_submit_us", "us"),
    ("sched.queue_wait_p50_us", "us"),
    ("sched.queue_wait_p99_us", "us"),
    ("sched.run_time_p50_us", "us"),
    ("sched.wait_call_us_p50", "us"),
    ("sched.sweeps_per_query", "ratio"),
    ("sched.parked_per_query", "ratio"),
    ("sched.steals", "count"),
    ("sched.expired", "count"),
    ("classify.ns_per_query", "ns"),
    ("classify.terminating_share", "ratio"),
    ("chase.fuel_per_miss", "fuel"),
    ("chase.rounds_per_miss", "count"),
    ("chase.steps_per_miss", "count"),
    ("chase.ns_per_round", "ns"),
    ("chase.probe_hits_per_build_row", "ratio"),
    ("search.attempts_per_refutation", "count"),
    ("search.ns_per_attempt", "ns"),
    ("search.fuel_share", "ratio"),
    ("search.refuted_ratio", "ratio"),
    ("persist.replay_s", "s"),
    ("persist.append_us_p50", "us"),
    ("persist.bytes_per_answer", "bytes"),
    ("persist.errors", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.delta.throughput_qps", "queries/s"),
    ("trace.delta.latency_p50_us", "us"),
    ("trace.delta.latency_p99_us", "us"),
    ("trace.delta.refute_latency_p50_us", "us"),
    ("trace.delta.definite_ratio", "ratio"),
    ("trace.delta.ok_ratio", "ratio"),
    ("trace.delta.cpu_us_per_query", "us"),
    ("trace.delta.setup_s", "s"),
    ("trace.delta.peak_rss_mb", "MiB"),
];

/// What one measured phase saw.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Queries submitted.
    pub attempted: u64,
    /// Queries answered.
    pub answered: u64,
    /// Failures: transport errors, `ERR` frames, sheds, cancellations,
    /// queries unanswered after the drain, and contradicted answers.
    pub failed: u64,
    /// Definite answers that contradict the reference (also in `failed`).
    pub contradictions: u64,
    /// Answers whose `Σ ⊨ σ` component is `Yes` or `No`.
    pub definite: u64,
    /// Seconds from the first submission to the last answer.
    pub window_s: f64,
    /// Completion time (ns since the phase began) of every answered query.
    pub done_ns: Vec<u64>,
    /// The host's speed over the phase (see [`crate::calib`]).
    pub speed: Speed,
    /// `(submit time in ns since the phase began, latency in µs)` of the
    /// queries `latency_p50_us`/`latency_p99_us` cover.
    pub latencies_us: Vec<(u64, f64)>,
    /// The same for the queries `refute_latency_p50_us` covers.
    pub heavy_us: Vec<(u64, f64)>,
    /// Process CPU time (µs) spent during the phase.
    pub cpu_us: f64,
    /// Peak resident set (MiB) at the end of the phase.
    pub peak_rss_mib: f64,
    /// Median set-up time (s), scaled to the reference speed.
    pub setup_s: f64,
}

impl Phase {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<f64> {
        let answered = self.answered as f64;
        // Time metrics are scaled to the reference speed (see `calib`).
        let slowdown = self.speed.slowdown();
        vec![
            windowed_rate(&self.done_ns).unwrap_or_else(|| ratio(answered, self.window_s))
                * slowdown,
            windowed_quantile(&self.latencies_us, 0.5) / slowdown,
            windowed_quantile(&self.latencies_us, 0.99) / slowdown,
            windowed_quantile(&self.heavy_us, 0.5) / slowdown,
            ratio(self.definite as f64, answered),
            1.0 - self.failed_ratio(),
            // The kernel timings' own CPU time is the benchmark's, not the
            // program's.
            ratio(self.cpu_us - self.speed.kernel_us(), answered) / slowdown,
            self.setup_s,
            self.peak_rss_mib,
        ]
    }

    /// Failed ÷ attempted.
    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// One run's results: the untraced phase, and in a traced run the traced
/// phase with its per-layer metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The untraced phase (the end-to-end metrics).
    pub untraced: Phase,
    /// The traced phase and its per-layer metrics (traced runs only).
    pub traced: Option<(Phase, BTreeMap<&'static str, f64>)>,
}

impl Outcome {
    /// Queries attempted across the phases.
    pub fn attempted(&self) -> u64 {
        self.untraced.attempted + self.traced.as_ref().map_or(0, |(p, _)| p.attempted)
    }

    /// Failures across the phases.
    pub fn failed(&self) -> u64 {
        self.untraced.failed + self.traced.as_ref().map_or(0, |(p, _)| p.failed)
    }

    /// Whether every definite answer agreed with the reference.
    pub fn correct(&self) -> bool {
        std::iter::once(&self.untraced)
            .chain(self.traced.as_ref().map(|(p, _)| p))
            .all(|p| p.contradictions == 0)
    }

    /// The metrics the result line carries: every end-to-end metric from
    /// an untraced run, every per-layer metric from a traced one (the
    /// tracing overhead and deltas filled in from both phases).
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        let base = self.untraced.end_to_end();
        match &self.traced {
            None => END_TO_END
                .iter()
                .zip(base)
                .map(|(&(n, u), v)| (n, u, v))
                .collect(),
            Some((traced, layers)) => {
                let with_trace = traced.end_to_end();
                let mut layers = layers.clone();
                layers.insert("trace.overhead_ratio", ratio(with_trace[0], base[0]));
                for (i, &(n, _)) in END_TO_END.iter().enumerate() {
                    let key = PER_LAYER
                        .iter()
                        .find(|(p, _)| p.strip_prefix("trace.delta.") == Some(n))
                        .expect("a delta per end-to-end metric")
                        .0;
                    layers.insert(key, with_trace[i] - base[i]);
                }
                PER_LAYER
                    .iter()
                    .map(|&(n, u)| (n, u, layers.get(n).copied().unwrap_or(0.0)))
                    .collect()
            }
        }
    }

    /// A human-readable table of both phases, every metric named with its
    /// unit (including `failed_ratio`, which the result line carries as
    /// `failed`/`attempted`).
    pub fn table(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut phase = |label: &str, p: &Phase| {
            let _ = writeln!(out, "{workload} [{label}]");
            for (&(n, u), v) in END_TO_END.iter().zip(p.end_to_end()) {
                let _ = writeln!(out, "  {n:<34} {v:>14.3} {u}");
            }
            let _ = writeln!(
                out,
                "  {:<34} {:>14.6} ratio",
                "failed_ratio",
                p.failed_ratio()
            );
            let _ = writeln!(
                out,
                "  samples: {} latency, {} refute-latency; attempted {} answered {} failed {} contradicted {}",
                p.latencies_us.len(),
                p.heavy_us.len(),
                p.attempted,
                p.answered,
                p.failed,
                p.contradictions
            );
            let _ = writeln!(
                out,
                "  host slowdown {:.3} (calibration kernel median / reference; time metrics are scaled by it)",
                p.speed.slowdown()
            );
        };
        phase("untraced", &self.untraced);
        if let Some((traced, _)) = &self.traced {
            phase("traced", traced);
            let _ = writeln!(out, "{workload} [per-layer, traced]");
            for (n, u, v) in self.metrics() {
                let _ = writeln!(out, "  {n:<34} {v:>14.3} {u}");
            }
        }
        out
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics()
            .into_iter()
            .map(|(n, u, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted().max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}
