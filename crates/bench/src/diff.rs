//! Noise-normalized comparison of two `BENCH_*.json` files
//! (`hadfl-bench-diff`).
//!
//! Raw ns/iter numbers from two bench runs are not comparable: the
//! runs may have happened on different machines, under different
//! load, or with a different CPU-frequency governor. Every BENCH file
//! therefore carries a `calibration/serial_fma_1m` row — a fixed
//! single-threaded workload whose speed depends only on the machine —
//! and the diff divides it out: the baseline's numbers are rescaled by
//! `new_calibration / old_calibration` before comparing. Files
//! predating the calibration row (BENCH_8 and earlier, now only in
//! git history) fall back to
//! the median of per-op ratios over shared ops, which assumes *most*
//! ops did not change — exactly the regression-hunting situation.
//!
//! After normalization each shared op is classified:
//!
//! - **noise** — |relative delta| within the threshold (default 25%),
//!   or both sides under the 50 ns floor where a single mispredicted
//!   branch swamps the signal;
//! - **regressed** — new time above the normalized old beyond the
//!   threshold;
//! - **improved** — the mirror image.
//!
//! Ops present in only one file are listed as added/removed, never
//! classified.

use serde::Deserialize;

/// One record of a `BENCH_*.json` file, as written by `tools/bench.sh`.
#[derive(Debug, Clone, Deserialize)]
pub struct BenchRow {
    pub op: String,
    #[serde(default)]
    pub threads: u64,
    pub ns_per_iter: f64,
}

/// The calibration row's op name.
pub const CALIBRATION_OP: &str = "calibration/serial_fma_1m";

/// Default relative-delta threshold below which a change is noise.
pub const DEFAULT_THRESHOLD: f64 = 0.25;

/// Default floor (ns) under which both sides are too fast to compare.
pub const DEFAULT_MIN_NS: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regressed,
    Improved,
    Noise,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Noise => "noise",
        }
    }
}

/// One compared op: baseline ns (already rescaled), new ns, relative
/// delta, verdict.
#[derive(Debug, Clone)]
pub struct OpDelta {
    pub op: String,
    pub old_ns: f64,
    pub new_ns: f64,
    pub delta: f64,
    pub verdict: Verdict,
}

/// The full comparison.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// How the baseline was rescaled (`new_cal / old_cal`), and where
    /// the ratio came from.
    pub ratio: f64,
    pub ratio_source: RatioSource,
    /// Shared ops, most-regressed first.
    pub deltas: Vec<OpDelta>,
    /// Ops only in the new file.
    pub added: Vec<String>,
    /// Ops only in the baseline.
    pub removed: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RatioSource {
    /// Both files carried the calibration row.
    Calibration,
    /// Median of per-op ratios over shared ops (baseline predates the
    /// calibration row).
    MedianFallback,
    /// No shared ops at all; raw comparison.
    None,
}

impl DiffReport {
    pub fn regressed(&self) -> impl Iterator<Item = &OpDelta> {
        self.deltas
            .iter()
            .filter(|d| d.verdict == Verdict::Regressed)
    }

    /// Renders the human-readable table, most-regressed ops first.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let source = match self.ratio_source {
            RatioSource::Calibration => "calibration rows",
            RatioSource::MedianFallback => "median-of-ratios fallback (no calibration row)",
            RatioSource::None => "none (no shared ops)",
        };
        out.push_str(&format!(
            "normalization ratio {:.4} from {source}\n",
            self.ratio
        ));
        let counts = |v: Verdict| self.deltas.iter().filter(|d| d.verdict == v).count();
        out.push_str(&format!(
            "{} shared op(s): {} regressed, {} improved, {} noise; {} added, {} removed\n",
            self.deltas.len(),
            counts(Verdict::Regressed),
            counts(Verdict::Improved),
            counts(Verdict::Noise),
            self.added.len(),
            self.removed.len(),
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "  {verdict:<9} {op:<40} {old:>12.1} -> {new:>12.1} ns/iter ({delta:+.1}%)\n",
                verdict = d.verdict.label(),
                op = d.op,
                old = d.old_ns,
                new = d.new_ns,
                delta = d.delta * 100.0,
            ));
        }
        for op in &self.added {
            out.push_str(&format!("  added     {op}\n"));
        }
        for op in &self.removed {
            out.push_str(&format!("  removed   {op}\n"));
        }
        out
    }
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("bench ratios are finite"));
    Some(values[values.len() / 2])
}

/// Compares `new` against the `old` baseline. `threshold` is the
/// relative delta below which a change is noise; `min_ns` the floor
/// under which both sides are noise regardless.
pub fn diff(old: &[BenchRow], new: &[BenchRow], threshold: f64, min_ns: f64) -> DiffReport {
    use std::collections::BTreeMap;
    let index = |rows: &[BenchRow]| -> BTreeMap<String, f64> {
        rows.iter().map(|r| (r.op.clone(), r.ns_per_iter)).collect()
    };
    let old_by_op = index(old);
    let new_by_op = index(new);

    let (ratio, ratio_source) = match (old_by_op.get(CALIBRATION_OP), new_by_op.get(CALIBRATION_OP))
    {
        (Some(&o), Some(&n)) if o > 0.0 => (n / o, RatioSource::Calibration),
        _ => {
            let ratios: Vec<f64> = old_by_op
                .iter()
                .filter_map(|(op, &o)| {
                    let n = *new_by_op.get(op)?;
                    (o > 0.0).then_some(n / o)
                })
                .collect();
            match median(ratios) {
                Some(m) => (m, RatioSource::MedianFallback),
                None => (1.0, RatioSource::None),
            }
        }
    };

    let mut deltas = Vec::new();
    for (op, &old_raw) in &old_by_op {
        let Some(&new_ns) = new_by_op.get(op) else {
            continue;
        };
        if op == CALIBRATION_OP {
            // The yardstick itself is definitionally unchanged.
            continue;
        }
        let old_ns = old_raw * ratio;
        let delta = if old_ns > 0.0 {
            (new_ns - old_ns) / old_ns
        } else {
            0.0
        };
        let verdict = if old_ns.max(new_ns) < min_ns || delta.abs() <= threshold {
            Verdict::Noise
        } else if delta > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
        deltas.push(OpDelta {
            op: op.clone(),
            old_ns,
            new_ns,
            delta,
            verdict,
        });
    }
    deltas.sort_by(|a, b| b.delta.partial_cmp(&a.delta).expect("finite deltas"));

    let added = new_by_op
        .keys()
        .filter(|op| !old_by_op.contains_key(*op))
        .cloned()
        .collect();
    let removed = old_by_op
        .keys()
        .filter(|op| !new_by_op.contains_key(*op))
        .cloned()
        .collect();
    DiffReport {
        ratio,
        ratio_source,
        deltas,
        added,
        removed,
    }
}

/// Parses one `BENCH_*.json` file's contents.
pub fn parse_bench(text: &str) -> Result<Vec<BenchRow>, String> {
    serde_json::from_str(text).map_err(|e| format!("bad bench json: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(op: &str, ns: f64) -> BenchRow {
        BenchRow {
            op: op.to_string(),
            threads: 1,
            ns_per_iter: ns,
        }
    }

    #[test]
    fn calibration_ratio_rescales_the_baseline() {
        // The new machine is 2x slower (calibration 100 -> 200); an op
        // that also doubled is unchanged after normalization.
        let old = vec![row(CALIBRATION_OP, 100.0), row("tensor/matmul", 1000.0)];
        let new = vec![row(CALIBRATION_OP, 200.0), row("tensor/matmul", 2000.0)];
        let report = diff(&old, &new, DEFAULT_THRESHOLD, DEFAULT_MIN_NS);
        assert_eq!(report.ratio_source, RatioSource::Calibration);
        assert_eq!(report.ratio, 2.0);
        assert_eq!(report.deltas.len(), 1, "calibration row is not compared");
        assert_eq!(report.deltas[0].verdict, Verdict::Noise);
        assert_eq!(report.deltas[0].delta, 0.0);
    }

    #[test]
    fn real_regression_survives_normalization() {
        let old = vec![row(CALIBRATION_OP, 100.0), row("op/a", 1000.0)];
        let new = vec![row(CALIBRATION_OP, 100.0), row("op/a", 1500.0)];
        let report = diff(&old, &new, DEFAULT_THRESHOLD, DEFAULT_MIN_NS);
        assert_eq!(report.deltas[0].verdict, Verdict::Regressed);
        assert!((report.deltas[0].delta - 0.5).abs() < 1e-9);
        assert_eq!(report.regressed().count(), 1);
    }

    #[test]
    fn median_fallback_when_baseline_lacks_calibration() {
        // Three of four ops scaled by 1.5 (machine slowdown); one
        // genuinely regressed 4x. The median ratio recovers 1.5 and
        // only the real regression is flagged.
        let old = vec![
            row("op/a", 100.0),
            row("op/b", 200.0),
            row("op/c", 400.0),
            row("op/d", 100.0),
        ];
        let new = vec![
            row("op/a", 150.0),
            row("op/b", 300.0),
            row("op/c", 600.0),
            row("op/d", 600.0),
        ];
        let report = diff(&old, &new, DEFAULT_THRESHOLD, DEFAULT_MIN_NS);
        assert_eq!(report.ratio_source, RatioSource::MedianFallback);
        assert_eq!(report.ratio, 1.5);
        let regressed: Vec<&str> = report.regressed().map(|d| d.op.as_str()).collect();
        assert_eq!(regressed, vec!["op/d"]);
    }

    #[test]
    fn sub_floor_ops_are_never_regressions() {
        // 4 ns -> 40 ns is a 10x "regression" that means nothing at
        // this scale (one cache miss).
        let old = vec![row(CALIBRATION_OP, 100.0), row("prof/scope_disabled", 4.0)];
        let new = vec![row(CALIBRATION_OP, 100.0), row("prof/scope_disabled", 40.0)];
        let report = diff(&old, &new, DEFAULT_THRESHOLD, DEFAULT_MIN_NS);
        assert_eq!(report.deltas[0].verdict, Verdict::Noise);
    }

    #[test]
    fn added_and_removed_ops_are_listed_not_classified() {
        let old = vec![row("op/gone", 100.0), row("op/kept", 100.0)];
        let new = vec![row("op/kept", 100.0), row("op/new", 100.0)];
        let report = diff(&old, &new, DEFAULT_THRESHOLD, DEFAULT_MIN_NS);
        assert_eq!(report.added, vec!["op/new".to_string()]);
        assert_eq!(report.removed, vec!["op/gone".to_string()]);
        assert_eq!(report.deltas.len(), 1);
        let text = report.render();
        assert!(text.contains("added     op/new"), "{text}");
        assert!(text.contains("removed   op/gone"), "{text}");
    }

    #[test]
    fn parses_the_bench_json_shape() {
        let rows = parse_bench(
            r#"[
  {"op": "tensor/matmul_64x128x64", "threads": 1, "ns_per_iter": 154684.9},
  {"op": "scaling/matmul_64x128x64_t4", "threads": 4, "ns_per_iter": 60000.0}
]"#,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].threads, 4);
        assert!(parse_bench("not json").is_err());
    }
}
