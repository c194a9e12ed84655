//! Order statistics and the process counters the benchmark reports.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) computes them — the acceptance rule's spread
/// is `(q3 - q1) / median` of these.
pub fn quartiles_exclusive(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Counters of this process read from `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    /// User + system CPU time, seconds (100 Hz ticks).
    pub cpu_s: f64,
    /// Minor page faults so far.
    pub minor_faults: u64,
}

pub fn proc_counters() -> ProcCounters {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): minflt is field 10, utime 14, stime 15.
    let num = |i: usize| {
        f.get(i - 3)
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0)
    };
    ProcCounters {
        cpu_s: (num(14) + num(15)) as f64 / 100.0,
        minor_faults: num(10),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
    }
}
