//! Quantiles and the process counters the end-to-end metrics read from
//! `/proc/self`.

/// The `q`-quantile (nearest rank on the sorted sample) of `values`;
/// `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `values` (`0.0` for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Latency samples per window of [`windowed_quantile`].
pub const WINDOW_SAMPLES: usize = 1_000;

/// A latency quantile that one stall cannot swing: the samples
/// `(submit time, latency)` are ordered by submit time and cut into
/// consecutive windows of about [`WINDOW_SAMPLES`] each (a short last
/// window joins the one before); the result is the median over windows of
/// each window's `q`-quantile. With fewer samples than one window it is
/// the plain quantile.
pub fn windowed_quantile(samples: &[(u64, f64)], q: f64) -> f64 {
    let mut ordered = samples.to_vec();
    ordered.sort_by_key(|s| s.0);
    let windows = (ordered.len() / WINDOW_SAMPLES).max(1);
    let per = ordered.len() / windows;
    let per_window: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                ordered.len()
            } else {
                (i + 1) * per
            };
            let vals: Vec<f64> = ordered[i * per..end].iter().map(|s| s.1).collect();
            quantile(&vals, q)
        })
        .collect();
    median(&per_window)
}

/// A completion rate that one stall cannot swing: the completion times
/// (ns since the phase began) are sorted and cut into consecutive windows
/// of [`WINDOW_SAMPLES`] completions; each window's rate is its count over
/// the time since the window before it ended, and the result is the median
/// over windows, in completions per second. `None` with fewer than two
/// whole windows.
pub fn windowed_rate(done_ns: &[u64]) -> Option<f64> {
    let mut t = done_ns.to_vec();
    t.sort_unstable();
    let windows = t.len() / WINDOW_SAMPLES;
    if windows < 2 {
        return None;
    }
    // The first window runs from the first completion, so that the time
    // before it (the first query's latency) is not counted as a gap.
    let rates: Vec<f64> = (0..windows)
        .map(|i| {
            let from = t[(i * WINDOW_SAMPLES).saturating_sub(1)];
            let to = t[(i + 1) * WINDOW_SAMPLES - 1];
            let count = if i == 0 {
                WINDOW_SAMPLES - 1
            } else {
                WINDOW_SAMPLES
            };
            ratio(count as f64, (to - from) as f64 / 1e9)
        })
        .collect();
    Some(median(&rates))
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nanosecond samples as microseconds.
pub fn ns_to_us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of this process (all threads), in
/// microseconds, from `/proc/self/stat`.
pub fn process_cpu_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, utime and stime being the 12th and
    // 13th of them.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ * 1e6
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
