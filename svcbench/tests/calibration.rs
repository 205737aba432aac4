//! The host-speed calibration and the windowed rate the end-to-end metrics
//! are built from.

use svcbench::calib::{kernel, Pacer, Speed, REFERENCE_NS};
use svcbench::stats::{windowed_rate, WINDOW_SAMPLES};

#[test]
fn kernel_is_deterministic() {
    assert_eq!(kernel(), kernel());
}

#[test]
fn slowdown_is_one_without_timings_and_positive_with_them() {
    assert_eq!(Speed::default().slowdown(), 1.0);
    let mut pacer = Pacer::default();
    for _ in 0..5 {
        pacer.sample();
    }
    let mut speed = Speed::default();
    speed.extend(pacer);
    assert!(speed.slowdown() > 0.0 && speed.slowdown().is_finite());
    // Five timings, the median of which is the slowdown's numerator.
    assert!(speed.kernel_us() * 1e3 >= 2.0 * speed.slowdown() * REFERENCE_NS);
}

#[test]
fn windowed_rate_is_the_median_window_rate() {
    // Steady at one completion per ms, with a stall of one second
    // inside the third window: the median ignores it.
    let mut done = Vec::new();
    let mut t = 0u64;
    for i in 0..5 * WINDOW_SAMPLES {
        t += 1_000_000;
        if i == 2 * WINDOW_SAMPLES + 10 {
            t += 1_000_000_000;
        }
        done.push(t);
    }
    let rate = windowed_rate(&done).expect("five windows");
    assert!((rate - 1_000.0).abs() < 1e-6, "{rate}");
    assert_eq!(windowed_rate(&done[..WINDOW_SAMPLES]), None);
}
