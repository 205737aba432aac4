//! Self-tests of the benchmark: deterministic generators, the distinct-key
//! shapes each workload promises, a tiny smoke run of every workload, and
//! agreement between the metric tables in the code and `BENCHMARK.json`.

use std::collections::HashSet;
use svcbench::gen::{cold_goals, is_witness, refute_under_load, tenant_stream};
use svcbench::report::{END_TO_END, PER_LAYER};
use svcbench::{closed, tenant, Opts, Workload};
use typedtd_service::{query_key, QueryKey};

fn cold_fingerprint(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for (sigma, goal, _) in cold_goals(seed, 24, 1, 4) {
        query_key(&sigma, &goal).encode_into(&mut out);
        out.extend_from_slice(format!("{sigma:?}{goal:?}").as_bytes());
    }
    out
}

#[test]
fn same_seed_gives_byte_identical_inputs() {
    let tenant = |seed| {
        let t = tenant_stream(seed, 400, 3_000, 16);
        format!("{:?}{:?}{:?}", t.queries, t.submissions, t.hot).into_bytes()
    };
    assert_eq!(tenant(7), tenant(7));
    assert_ne!(tenant(7), tenant(8));
    let refute = |seed| format!("{:?}", refute_under_load(seed, 400)).into_bytes();
    assert_eq!(refute(7), refute(7));
    assert_ne!(refute(7), refute(8));
    assert_eq!(cold_fingerprint(7), cold_fingerprint(7));
    assert_ne!(cold_fingerprint(7), cold_fingerprint(8));
}

#[test]
fn cold_goals_keys_are_all_distinct() {
    let qs = cold_goals(3, 3_072, 1, 4);
    assert!(qs.len() >= 3_000, "only {} queries", qs.len());
    let keys: HashSet<QueryKey> = qs.iter().map(|(s, g, _)| query_key(s, g)).collect();
    assert_eq!(keys.len(), qs.len());
}

#[test]
fn tenant_stream_has_about_16k_keys_and_repeats_them() {
    let t = tenant_stream(3, 16_000, 40_000, 1_024);
    let keys: HashSet<QueryKey> = t.queries.iter().map(|q| q.key()).collect();
    assert_eq!(keys.len(), 16_000);
    let submitted: HashSet<u32> = t.submissions.iter().map(|s| s.0).collect();
    assert!(
        submitted.len() < t.submissions.len() / 2,
        "Zipf traffic repeats keys"
    );
    assert_eq!(t.hot.len(), 1_024);
}

#[test]
fn refute_under_load_divergent_share_is_distinct_and_refuted() {
    let qs = refute_under_load(3, 2_000);
    let divergent: Vec<_> = qs.iter().filter(|q| q.divergent).collect();
    assert_eq!(divergent.len(), 500);
    let keys: HashSet<QueryKey> = divergent.iter().map(|q| q.text.key()).collect();
    assert!(
        keys.len() * 10 >= divergent.len() * 9,
        "{} distinct of {}",
        keys.len(),
        divergent.len()
    );
    for q in divergent {
        assert!(q.text.universe.starts_with("untyped"));
        assert!(is_witness(&q.text.parse().expect("parses"), &q.witness));
    }
}

#[test]
fn tiny_smoke_run_of_every_workload_has_no_failures() {
    for w in Workload::ALL {
        let opts = Opts {
            seed: 5,
            seconds: 2.0,
            trace: true,
            tiny: true,
        };
        let out = match w {
            Workload::TenantStream => tenant::run(&opts),
            Workload::ColdGoals => closed::run_cold(&opts),
            Workload::RefuteUnderLoad => closed::run_refute(&opts),
        };
        let (traced, _) = out.traced.as_ref().expect("traced run");
        for p in [&out.untraced, traced] {
            assert!(p.answered > 0, "{}: nothing answered", w.name());
            assert_eq!(p.failed_ratio(), 0.0, "{}: {p:?}", w.name());
        }
        assert!(out.correct(), "{}", w.name());
        let metrics = out.metrics();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert!(out.json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn benchmark_json_declares_every_metric_with_its_unit() {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .expect("BENCHMARK.json at the repository root");
    let compact: String = text.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(compact.contains(&format!("\"name\":\"{}\"", w.name())));
    }
}
