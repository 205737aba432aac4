//! Host-speed calibration. The benchmark runs on shared virtual machines
//! whose speed drifts: on a 2-CPU virtual machine a fixed loop's time
//! moved by up to 2x from one second to the next, and by 10-30% between
//! runs minutes apart. A fixed kernel that runs none of the program's
//! code is timed every [`EVERY`] on the submitter threads of the
//! in-process workloads and after each timed set-up, and those time
//! metrics are scaled by the kernel's median time relative to
//! [`REFERENCE_NS`], so that they read as if the host ran at the
//! reference speed.

use crate::stats::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// Steps of one [`kernel`] call.
const KERNEL_STEPS: usize = 10_000;

/// The [`kernel`] time, in ns, that counts as the reference speed (about
/// its median on an idle 2-CPU virtual machine).
pub const REFERENCE_NS: f64 = 600_000.0;

/// How often a load thread stops to time the kernel.
pub const EVERY: Duration = Duration::from_millis(25);

/// Hashes, inserts and sorts a fixed pseudo-random sequence: the kind of
/// work the chase does (hash joins over growing, allocated tables), in
/// std code only, so that no change to the program moves its time.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut v: Vec<u64> = Vec::new();
    for _ in 0..KERNEL_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *map.entry(x % 8_192).or_insert(0) += 1;
        v.push(x);
    }
    v.sort_unstable();
    map.len() as u64 ^ v[v.len() / 2]
}

/// Kernel timings of one phase, in ns.
#[derive(Clone, Debug, Default)]
pub struct Speed {
    samples: Vec<u64>,
}

impl Speed {
    /// Adds the timings of one pacer.
    pub fn extend(&mut self, p: Pacer) {
        self.samples.extend(p.samples);
    }

    /// How much slower than the reference the host ran over the phase:
    /// the median kernel time over [`REFERENCE_NS`] (1 with no timings).
    /// One factor per phase rather than per window: it corrects the drift
    /// between runs, and the windowed medians the metrics take already
    /// resist the shorter swings.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let times: Vec<f64> = self.samples.iter().map(|&ns| ns as f64).collect();
        median(&times) / REFERENCE_NS
    }

    /// Time spent in the kernel, in µs.
    pub fn kernel_us(&self) -> f64 {
        self.samples.iter().map(|&ns| ns as f64 / 1e3).sum()
    }
}

/// Times the kernel on one load thread at most every [`EVERY`].
pub struct Pacer {
    next: Instant,
    samples: Vec<u64>,
}

impl Default for Pacer {
    /// A pacer whose first timing is due at once.
    fn default() -> Self {
        Self {
            next: Instant::now(),
            samples: Vec::new(),
        }
    }
}

impl Pacer {
    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        std::hint::black_box(kernel());
        let end = Instant::now();
        self.samples.push(end.duration_since(t0).as_nanos() as u64);
        self.next = end + EVERY;
    }

    /// Times the kernel if a timing is due.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.sample();
        }
    }
}

/// `f` timed and scaled to the reference speed by a kernel timing taken
/// right after it: seconds.
pub fn timed_at_reference(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    let took = t0.elapsed().as_secs_f64();
    let k0 = Instant::now();
    std::hint::black_box(kernel());
    took / (k0.elapsed().as_nanos() as f64 / REFERENCE_NS)
}
