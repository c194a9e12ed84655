//! Paired parent-vs-change verdicts over the round benchmark
//! (`hadfl-bench-diff`).
//!
//! `tools/bench.sh --against <rev>` runs `benchmark/run.sh` on the
//! parent and on the change one-for-one, alternating which side goes
//! first, and writes one log per side with a line per run:
//!
//! ```text
//! {"workload": "sync_chan_ring4", "side": "parent", "pair": 3, "run": <the run's last stdout line>}
//! ```
//!
//! [`compare`] pairs the two logs up and gives each workload × metric
//! one verdict. Metric names, `better` directions and `bound`s are read
//! from `BENCHMARK.json`'s `end_to_end` table, never repeated here:
//!
//! - **regressed** — the change's median is worse than the parent's by
//!   more than `bound` × the parent's median;
//! - **improved** — at least ten pairs, the change won at least nine
//!   tenths of them (ties count for neither side), and its median is
//!   better by more than the parent's own interquartile spread;
//! - **unresolved** — that spread is wider than the bound and not
//!   every change run beats every parent run;
//! - **unchanged** — otherwise.
//!
//! A workload is *rejected*, whatever its timings say, when a change
//! run reports `"correct": false` or the change's `failed`/`attempted`
//! share is larger than the parent's. Logs that do not pair up (unequal
//! pairs, a workload on one side only, a metric the ledger does not
//! list) are an error, not a shorter table.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::Deserialize;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Deserialize)]
struct MetricSpec {
    name: String,
    /// `"lower"` or `"higher"`.
    better: String,
    /// Share of the parent's median the metric may worsen by.
    bound: f64,
}

#[derive(Deserialize)]
struct Ledger {
    end_to_end: Vec<MetricSpec>,
}

/// The last stdout line of one `benchmark/run.sh --workload W` run.
#[derive(Deserialize)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `{"<name>": {"value": <number>, "unit": "<unit>"}, ...}`.
    metrics: serde_json::Value,
}

#[derive(Deserialize)]
struct LogLine {
    workload: String,
    side: String,
    pair: u64,
    run: Run,
}

/// One side's runs: workload → pair → run.
type Log = BTreeMap<String, BTreeMap<u64, Run>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

/// One workload × metric comparison.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub parent_median: f64,
    pub change_median: f64,
    pub parent_iqr: f64,
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

#[derive(Debug, Default)]
pub struct Report {
    pub rows: Vec<Row>,
    /// One line per rejected workload, naming the reason.
    pub rejected: Vec<String>,
}

impl Report {
    /// Whether the change fails: any `regressed` row or rejection.
    pub fn failed(&self) -> bool {
        !self.rejected.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    pub fn render(&self) -> String {
        let num = |v: f64| format!("{v:.*}", if v.fract() == 0.0 { 0 } else { 4 });
        let mut out = format!(
            "{:<18} {:<21} {:>12} {:>12} {:>11} {:>6}  verdict\n",
            "workload", "metric", "parent", "change", "parent IQR", "wins"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<18} {:<21} {:>12} {:>12} {:>11} {:>6}  {}",
                r.workload,
                r.metric,
                num(r.parent_median),
                num(r.change_median),
                num(r.parent_iqr),
                format!("{}/{}", r.wins, r.pairs),
                format!("{:?}", r.verdict).to_lowercase(),
            );
        }
        for line in &self.rejected {
            let _ = writeln!(out, "REJECTED {line}");
        }
        out
    }
}

/// Parses one side's log; every line must record `side`, so swapped
/// arguments cannot invert the verdicts.
fn parse_log(text: &str, side: &str) -> Result<Log, String> {
    let mut log = Log::new();
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| format!("{side} log line {}: {e}", i + 1);
        let l: LogLine = serde_json::from_str(line).map_err(|e| at(e.to_string()))?;
        if l.side != side {
            return Err(at(format!("records side {:?}", l.side)));
        }
        let runs = log.entry(l.workload).or_default();
        if runs.insert(l.pair, l.run).is_some() {
            return Err(at(format!("pair {} appears twice", l.pair)));
        }
    }
    Ok(log)
}

/// Linear-interpolated quantile of sorted, non-empty `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn failed_share(runs: &BTreeMap<u64, Run>) -> f64 {
    let failed: u64 = runs.values().map(|r| r.failed).sum();
    let attempted: u64 = runs.values().map(|r| r.attempted).sum();
    failed as f64 / attempted.max(1) as f64
}

/// Gives every workload × metric of a paired run its verdict, from the
/// text of `BENCHMARK.json` and of the two sides' logs.
pub fn compare(ledger: &str, parent: &str, change: &str) -> Result<Report, String> {
    let ledger: Ledger = serde_json::from_str(ledger).map_err(|e| format!("ledger: {e}"))?;
    let (parent, change) = (parse_log(parent, "parent")?, parse_log(change, "change")?);
    let paired = parent.keys().eq(change.keys())
        && (parent.values().zip(change.values())).all(|(p, c)| p.keys().eq(c.keys()));
    if !paired {
        return Err("the logs do not pair up: workloads or pair numbers differ".into());
    }
    let mut report = Report::default();
    for (workload, p_runs) in &parent {
        let c_runs = &change[workload];
        for run in p_runs.values().chain(c_runs.values()) {
            for (name, _) in run.metrics.as_object().into_iter().flatten() {
                if ledger.end_to_end.iter().all(|s| s.name != *name) {
                    return Err(format!("{workload}: metric {name} is not in the ledger"));
                }
            }
        }
        let incorrect = c_runs.values().filter(|r| !r.correct).count();
        let (p_share, c_share) = (failed_share(p_runs), failed_share(c_runs));
        if incorrect > 0 || c_share > p_share {
            report.rejected.push(format!(
                "{workload}: {incorrect} change run(s) failed the output check, \
                 failed share {c_share:.4} against the parent's {p_share:.4}"
            ));
        }
        for spec in &ledger.end_to_end {
            let values = |runs: &BTreeMap<u64, Run>| -> Result<Vec<f64>, String> {
                let value = |r: &Run| r.metrics.get(&spec.name)?.get("value")?.as_f64();
                let all: Option<Vec<f64>> = runs.values().map(value).collect();
                all.ok_or_else(|| format!("{workload}: a run lacks {}", spec.name))
            };
            let row = judge(workload, spec, &values(p_runs)?, &values(c_runs)?)?;
            report.rows.push(row);
        }
    }
    Ok(report)
}

/// One row: `p[i]` and `c[i]` are the two sides of pair `i`.
fn judge(workload: &str, spec: &MetricSpec, p: &[f64], c: &[f64]) -> Result<Row, String> {
    // How much better `c` is than `p`, in the metric's own unit.
    let gain: fn(f64, f64) -> f64 = match spec.better.as_str() {
        "lower" => |p, c| p - c,
        "higher" => |p, c| c - p,
        other => return Err(format!("{}: better is {other:?}", spec.name)),
    };
    let sorted = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v
    };
    let (ps, cs) = (sorted(p), sorted(c));
    let (parent_median, change_median) = (quantile(&ps, 0.5), quantile(&cs, 0.5));
    let parent_iqr = quantile(&ps, 0.75) - quantile(&ps, 0.25);
    let wins = p.iter().zip(c).filter(|(&p, &c)| gain(p, c) > 0.0).count();
    let shift = gain(parent_median, change_median);
    let allowed = spec.bound * parent_median.abs();
    let all_better = ps.iter().all(|&p| cs.iter().all(|&c| gain(p, c) > 0.0));
    let verdict = if -shift > allowed {
        Verdict::Regressed
    } else if p.len() >= 10 && wins * 10 >= p.len() * 9 && shift > parent_iqr {
        Verdict::Improved
    } else if parent_iqr > allowed && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Ok(Row {
        workload: workload.to_string(),
        metric: spec.name.clone(),
        parent_median,
        change_median,
        parent_iqr,
        wins,
        pairs: p.len(),
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::Verdict::{Improved, Regressed, Unchanged, Unresolved};
    use super::*;

    const REAL_RUN: &str = r#"{"correct": true, "attempted": 598, "failed": 0, "metrics": {"setup_s": {"value": 0.418709681, "unit": "s"}, "cost_x": {"value": 6.4833619866749785, "unit": "x"}, "final_accuracy": {"value": 1, "unit": "fraction"}, "peer_bytes_per_round": {"value": 25165902, "unit": "B"}, "alloc_mb_per_round": {"value": 64.0003520812478, "unit": "MiB"}, "peak_rss_mb": {"value": 115.625, "unit": "MiB"}}}"#;

    const LEDGER: &str = r#"{"end_to_end": [
        {"name": "cost_x", "unit": "x", "better": "lower", "bound": 0.16},
        {"name": "final_accuracy", "unit": "fraction", "better": "higher", "bound": 0.06}]}"#;

    /// A run that read `x` on both of [`LEDGER`]'s metrics.
    fn run(x: f64) -> String {
        let metric = format!(r#"{{"value": {x}, "unit": "u"}}"#);
        format!(
            r#"{{"correct": true, "attempted": 100, "failed": 0, "metrics": {{"cost_x": {metric}, "final_accuracy": {metric}}}}}"#
        )
    }

    /// One side's log of `workload`: pair `i + 1` is `runs[i]`.
    fn log(side: &str, workload: &str, runs: &[String]) -> String {
        let line = |(i, run): (usize, &String)| {
            let pair = i + 1;
            format!(
                r#"{{"workload": "{workload}", "side": "{side}", "pair": {pair}, "run": {run}}}"#
            )
        };
        runs.iter()
            .enumerate()
            .map(line)
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn report(parent: &[String], change: &[String]) -> Result<Report, String> {
        compare(
            LEDGER,
            &log("parent", "w", parent),
            &log("change", "w", change),
        )
    }

    /// The (`cost_x`, `final_accuracy`) verdicts when pair `i` read
    /// `parent[i]` and `change[i]`.
    fn verdicts(parent: &[f64], change: &[f64]) -> (Verdict, Verdict) {
        let runs = |v: &[f64]| v.iter().map(|&x| run(x)).collect::<Vec<_>>();
        let report = report(&runs(parent), &runs(change)).unwrap();
        assert_eq!(report.rows.len(), 2);
        (report.rows[0].verdict, report.rows[1].verdict)
    }

    /// Median 10.45, interquartile spread 0.45.
    const PARENT: [f64; 10] = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9];

    #[test]
    fn identical_real_runs_are_unchanged_under_the_real_ledger() {
        let runs = vec![REAL_RUN.to_string(); 3];
        let side = |side| log(side, "sync_chan_ring4", &runs);
        let ledger = include_str!("../../../BENCHMARK.json");
        let report = compare(ledger, &side("parent"), &side("change")).unwrap();
        assert_eq!(report.rows.len(), 6, "{report:?}");
        assert!(report
            .rows
            .iter()
            .all(|r| r.verdict == Unchanged && r.wins == 0));
        assert_eq!(report.rows[1].parent_median, 6.4833619866749785);
        assert!(!report.failed() && report.render().lines().count() == 7);
    }

    #[test]
    fn improved_needs_ten_pairs_nine_tenths_won_and_a_shift_above_the_iqr() {
        // The accuracy column falls with the cost, but inside its bound.
        let better = PARENT.map(|p| p - 0.5);
        assert_eq!(verdicts(&PARENT, &better), (Improved, Unchanged));
        assert_eq!(verdicts(&better, &PARENT).1, Improved);
        let mut eight_of_ten = better;
        eight_of_ten[0] = PARENT[0] + 0.01;
        eight_of_ten[9] = PARENT[9] + 0.01;
        assert_eq!(verdicts(&PARENT, &eight_of_ten).0, Unchanged);
        assert_eq!(verdicts(&PARENT, &PARENT.map(|p| p - 0.3)).0, Unchanged);
        assert_eq!(verdicts(&PARENT[..9], &better[..9]).0, Unchanged);
    }

    #[test]
    fn a_median_worse_beyond_the_bound_is_regressed_in_either_direction() {
        assert_eq!(
            verdicts(&PARENT, &PARENT.map(|p| p * 1.17)),
            (Regressed, Improved)
        );
        assert_eq!(
            verdicts(&PARENT, &PARENT.map(|p| p * 0.93)),
            (Improved, Regressed)
        );
        let report = report(&[run(10.0)], &[run(12.0)]).unwrap();
        assert!(report.failed() && report.render().contains("regressed"));
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let noisy = [10.0, 14.0, 9.0, 15.0, 11.0];
        assert_eq!(
            verdicts(&noisy, &[10.5, 13.0, 9.5, 14.0, 11.5]),
            (Unresolved, Unresolved)
        );
        // Five pairs cannot be `improved`, but a clean sweep is not in doubt.
        assert_eq!(verdicts(&noisy, &[8.0, 8.5, 8.9, 8.2, 8.4]).0, Unchanged);
    }

    #[test]
    fn an_incorrect_run_or_a_larger_failed_share_rejects() {
        let rejects = |second: String| {
            let report = report(&[run(1.0), run(1.0)], &[run(1.0), second]).unwrap();
            assert!(report.rows.iter().all(|r| r.verdict == Unchanged));
            assert_eq!(report.failed(), report.render().contains("REJECTED w:"));
            report.failed()
        };
        assert!(!rejects(run(1.0)));
        assert!(rejects(run(1.0).replace("true", "false")));
        assert!(rejects(
            run(1.0).replace(r#""failed": 0"#, r#""failed": 1"#)
        ));
    }

    #[test]
    fn logs_that_do_not_pair_up_are_errors() {
        let two = [run(1.0), run(1.0)];
        let err = |change: String| compare(LEDGER, &log("parent", "w", &two), &change).unwrap_err();
        assert!(err(log("change", "w", &two[..1])).contains("do not pair up"));
        assert!(err(log("change", "other", &two)).contains("do not pair up"));
        let extra_workload = log("change", "w", &two) + "\n" + &log("change", "other", &two);
        assert!(err(extra_workload).contains("do not pair up"));
        let unlisted = run(1.0).replace("cost_x", "cost_y");
        assert!(err(log("change", "w", &[unlisted.clone(), unlisted])).contains("cost_y"));
        assert!(err(log("parent", "w", &two)).contains("records side"));
    }
}
