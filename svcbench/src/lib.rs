//! The typedtd service benchmark.
//!
//! Implication of typed template dependencies is undecidable, so the
//! service answers by dovetailing two r.e. procedures: the chase (for
//! `Σ ⊨ σ`) and finite-model search (for `Σ ⊭_f σ`), behind a text front
//! end, a canonical answer cache, a sharded scheduler and an answer log.
//! Three workloads each load a different part of that stack:
//!
//! * `tenant_stream` — closed loop over the wire protocol with a window
//!   of outstanding frames; the front (codec, parse, canon, cache,
//!   persist) does the work;
//! * `cold_goals` — closed loop on the in-process client; every query
//!   misses the cache and the chase does the work;
//! * `refute_under_load` — closed loop with a window of outstanding jobs;
//!   the finite-model search and the scheduler's fairness do the work.
//!
//! Every answer is checked against a reference computed outside the timed
//! region (see [`reference`]). The end-to-end metrics come from an
//! untraced run; a traced run adds per-layer metrics, measured only by
//! timing the benchmark's own calls into each layer's public functions
//! and by reading the service's public counters.

#![warn(missing_docs)]

pub mod calib;
pub mod closed;
pub mod gen;
pub mod layers;
pub mod reference;
pub mod report;
pub mod rng;
pub mod stats;
pub mod tenant;
pub mod trace;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open loop over the wire; front-of-service bound.
    TenantStream,
    /// Closed loop, every key distinct; chase bound.
    ColdGoals,
    /// Closed loop with a window; search and scheduler bound.
    RefuteUnderLoad,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TenantStream,
        Workload::ColdGoals,
        Workload::RefuteUnderLoad,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TenantStream => "tenant_stream",
            Workload::ColdGoals => "cold_goals",
            Workload::RefuteUnderLoad => "refute_under_load",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is sized.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured window, in seconds. A traced run splits it
    /// between an untraced and a traced phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Tiny inputs (for the benchmark's own smoke test).
    pub tiny: bool,
}

/// Where the benchmark keeps its run files (answer logs, span dumps),
/// relative to the directory it runs from.
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_build").join("svcbench-run");
    std::fs::create_dir_all(&dir).expect("create the benchmark's run directory");
    dir
}

/// A file name unique within this process and across concurrent ones.
pub fn unique_name(stem: &str, ext: &str) -> String {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    format!("{stem}-{}-{n}.{ext}", std::process::id())
}
