//! Shared experiment harness for the HADFL reproduction.
//!
//! Every paper table/figure has a report binary in `src/bin/` built on
//! the helpers here: a scheme runner over a common [`Profile`], repeat
//! averaging, and CSV/JSON writers into `target/experiments/`. [`diff`]
//! is the other half of the crate: the paired parent-vs-change verdict
//! over the round benchmark behind `hadfl-bench-diff`.

// `!(x > 0)`-style guards are deliberate: unlike `x <= 0` they also
// reject NaN, which is exactly what the validators want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
pub mod diff;

use std::fs;
use std::path::{Path, PathBuf};

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::trace::Trace;
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_baselines::{run_decentralized_fedavg, run_distributed};

/// The training schemes under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// The paper's contribution.
    Hadfl,
    /// Gossip FedAvg (synchronous, no server).
    DecentralizedFedAvg,
    /// Per-iteration ring all-reduce (PyTorch DDP style).
    DistributedTraining,
}

impl Scheme {
    /// Harness label, matching the trace's `scheme` field.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Hadfl => "hadfl",
            Scheme::DecentralizedFedAvg => "decentralized_fedavg",
            Scheme::DistributedTraining => "distributed_training",
        }
    }

    /// The three schemes of Table I / Fig. 3.
    pub fn paper_trio() -> [Scheme; 3] {
        [
            Scheme::DistributedTraining,
            Scheme::DecentralizedFedAvg,
            Scheme::Hadfl,
        ]
    }
}

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Seconds-per-run scale for CI: the tiny synthetic task and few
    /// epochs.
    Quick,
    /// The report scale used for EXPERIMENTS.md: the 16×16 synthetic
    /// CIFAR task, the paper's batch geometry, enough epochs for the
    /// accuracy curves to saturate.
    Paper,
}

impl Profile {
    /// The running binary's `--profile quick|paper` argument (absent →
    /// Quick). Anything else after `--profile` exits with status 2: a
    /// typo must not regenerate quick-scale numbers under the
    /// paper-scale file names.
    pub fn from_args() -> Profile {
        Profile::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{e}\nusage: [--profile quick|paper]");
            std::process::exit(2)
        })
    }

    fn parse(mut args: impl Iterator<Item = String>) -> Result<Profile, String> {
        while let Some(a) = args.next() {
            if a == "--profile" {
                return match args.next().as_deref() {
                    Some("quick") => Ok(Profile::Quick),
                    Some("paper") => Ok(Profile::Paper),
                    Some(other) => Err(format!("unknown profile {other:?}")),
                    None => Err("--profile needs a value".to_string()),
                };
            }
        }
        Ok(Profile::Quick)
    }

    /// The workload for a model under this profile.
    pub fn workload(self, model: &str, seed: u64) -> Workload {
        match self {
            Profile::Quick => Workload::quick(model, seed),
            Profile::Paper => {
                let mut w = Workload::experiment(model, seed);
                // Keep report runs tractable on one CPU: 2048 train
                // samples at 16×16 (512-sample shards) keep enough data
                // per device that heterogeneity-aware local runs do not
                // overfit their shard, while bounding minutes-per-run.
                w.train_size = 2048;
                w.test_size = 256;
                w
            }
        }
    }

    /// Total epoch budget for a model (VGG converges later, as in the
    /// paper).
    pub fn epochs(self, model: &str) -> f64 {
        match self {
            Profile::Quick => 6.0,
            Profile::Paper => {
                if model.starts_with("vgg") {
                    32.0
                } else {
                    24.0
                }
            }
        }
    }

    /// Number of repeated runs to average (the paper repeats 3×).
    pub fn repeats(self) -> u64 {
        match self {
            Profile::Quick => 1,
            Profile::Paper => 3,
        }
    }
}

/// Builds the simulation options the experiments share, at the paper's
/// calibration:
///
/// - the base step is the *fastest* device's per-iteration compute time
///   on a V100 at batch 64 on CIFAR-scale inputs (ResNet-18 ≈ 25 ms,
///   VGG-16 ≈ 45 ms) scaled by `max(powers)`: the paper's convention
///   fixes the fastest device at native speed and slows the others by
///   the power ratio (`sleep()`-based heterogeneity);
/// - a model transfer costs the paper's real model size on the wire
///   (ResNet-18 ≈ 44.6 MB, VGG-16 for CIFAR ≈ 60 MB), so simulated
///   communication keeps the paper's comm-to-compute ratio though the
///   lite models' actual parameter vectors are tiny.
pub fn experiment_opts(model: &str, powers: &[f64], profile: Profile) -> SimOptions {
    let (step_secs, model_bytes) = if model.starts_with("vgg") {
        (0.045, 60_000_000)
    } else {
        (0.025, 44_600_000)
    };
    let max_power = powers.iter().copied().fold(1.0, f64::max);
    SimOptions {
        base_step_secs: step_secs * max_power,
        epochs_total: profile.epochs(model),
        wire_model_bytes: Some(model_bytes),
        ..SimOptions::quick(powers)
    }
}

/// Runs one scheme on one heterogeneity distribution and returns its
/// trace.
///
/// # Errors
///
/// Propagates framework errors.
pub fn run_scheme(
    scheme: Scheme,
    model: &str,
    powers: &[f64],
    profile: Profile,
    seed: u64,
) -> Result<Trace, HadflError> {
    let workload = profile.workload(model, seed);
    let opts = experiment_opts(model, powers, profile);
    match scheme {
        Scheme::Hadfl => {
            let config = HadflConfig::builder().num_selected(2).seed(seed).build()?;
            Ok(run_hadfl(&workload, &config, &opts)?.trace)
        }
        Scheme::DecentralizedFedAvg => run_decentralized_fedavg(&workload, &opts),
        Scheme::DistributedTraining => run_distributed(&workload, &opts),
    }
}

/// Like [`run_scheme`] but caches the resulting trace as JSON under
/// `target/experiments/traces/`, so figure harnesses reuse the table
/// harness's runs instead of re-simulating (~minutes each at the paper
/// profile).
///
/// # Errors
///
/// Propagates framework errors; a corrupt cache entry is recomputed.
pub fn run_scheme_cached(
    scheme: Scheme,
    model: &str,
    powers: &[f64],
    profile: Profile,
    seed: u64,
) -> Result<Trace, HadflError> {
    let dir = out_dir().join("traces");
    fs::create_dir_all(&dir).expect("create trace cache dir");
    let dist: String = powers
        .iter()
        .map(|p| format!("{p:.0}"))
        .collect::<Vec<_>>()
        .join("");
    let profile_tag = match profile {
        Profile::Quick => "quick",
        Profile::Paper => "paper",
    };
    let path = dir.join(format!(
        "{model}_{dist}_{}_{profile_tag}_{seed}.json",
        scheme.label()
    ));
    if let Ok(text) = fs::read_to_string(&path) {
        if let Ok(trace) = serde_json::from_str::<Trace>(&text) {
            return Ok(trace);
        }
    }
    let trace = run_scheme(scheme, model, powers, profile, seed)?;
    let json = serde_json::to_string(&trace).expect("serialize trace");
    fs::write(&path, json).expect("write trace cache");
    Ok(trace)
}

/// Table I's cell for a set of repeated runs: the mean max accuracy and
/// the mean time to first reach it.
pub fn mean_time_to_max_accuracy(traces: &[Trace]) -> (f32, f64) {
    let mut acc_sum = 0.0f64;
    let mut time_sum = 0.0f64;
    let mut n = 0usize;
    for t in traces {
        if let Some((acc, secs)) = t.time_to_max_accuracy() {
            acc_sum += f64::from(acc);
            time_sum += secs;
            n += 1;
        }
    }
    if n == 0 {
        return (0.0, 0.0);
    }
    ((acc_sum / n as f64) as f32, time_sum / n as f64)
}

/// Renders an `(x, y)` series as a fixed-width ASCII sparkline row, `y`
/// scaled into `[lo, hi]` — the fig3 binary prints the paper's curves
/// with these so the figures are readable straight from the terminal.
///
/// # Example
///
/// ```
/// use hadfl_bench::ascii_curve;
///
/// let s = ascii_curve(&[(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)], 0.0, 1.0, 12);
/// assert_eq!(s.chars().count(), 12);
/// ```
pub fn ascii_curve(series: &[(f64, f32)], lo: f32, hi: f32, width: usize) -> String {
    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() || width == 0 || !(hi > lo) {
        return " ".repeat(width);
    }
    let x_min = series.first().map(|&(x, _)| x).unwrap_or(0.0);
    let x_max = series.last().map(|&(x, _)| x).unwrap_or(1.0);
    let span = (x_max - x_min).max(f64::EPSILON);
    let mut out = String::with_capacity(width * 3);
    let mut idx = 0usize;
    for col in 0..width {
        let x_target = x_min + span * (col as f64 + 0.5) / width as f64;
        while idx + 1 < series.len() && series[idx + 1].0 <= x_target {
            idx += 1;
        }
        let y = series[idx].1.clamp(lo, hi);
        let frac = (y - lo) / (hi - lo);
        let level = ((frac * (LEVELS.len() - 1) as f32).round() as usize).min(LEVELS.len() - 1);
        out.push(LEVELS[level]);
    }
    out
}

/// The experiment output directory (`target/experiments`), created on
/// demand.
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn out_dir() -> PathBuf {
    let dir = Path::new("target").join("experiments");
    fs::create_dir_all(&dir).expect("create target/experiments");
    dir
}

/// Writes CSV rows (first row = header) into `target/experiments/<name>`.
///
/// # Panics
///
/// Panics on I/O failure (report binaries fail loudly).
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = out_dir().join(name);
    let mut body = String::from(header);
    body.push('\n');
    for r in rows {
        body.push_str(r);
        body.push('\n');
    }
    fs::write(&path, body).expect("write experiment csv");
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use hadfl_telemetry::{EventKind, RingBufferSink, Telemetry};
    use std::time::Duration;

    fn trace_with(acc_times: &[(f32, f64)]) -> Trace {
        let events = RingBufferSink::new(16);
        let tel = Telemetry::new(2, vec![Box::new(events.clone())]);
        for (round, &(acc, time)) in (1..).zip(acc_times) {
            let evaluated = EventKind::Evaluated {
                round,
                time_secs: time,
                epoch_equiv: f64::from(round),
                train_loss: 1.0,
                test_accuracy: acc,
                versions: vec![],
            };
            tel.emit(Duration::from_secs_f64(time), evaluated);
        }
        Trace::from_events("x", 2, 10, &events.snapshot())
    }

    #[test]
    fn mean_ttma_averages_repeats() {
        let a = trace_with(&[(0.5, 1.0), (0.9, 2.0)]);
        let b = trace_with(&[(0.9, 4.0)]);
        let (acc, time) = mean_time_to_max_accuracy(&[a, b]);
        assert!((acc - 0.9).abs() < 1e-6);
        assert!((time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn mean_ttma_of_empty_is_zero() {
        assert_eq!(mean_time_to_max_accuracy(&[]), (0.0, 0.0));
    }

    #[test]
    fn ascii_curve_has_requested_width_and_monotone_levels() {
        let rising: Vec<(f64, f32)> = (0..20).map(|i| (i as f64, i as f32 / 19.0)).collect();
        let s = ascii_curve(&rising, 0.0, 1.0, 16);
        assert_eq!(s.chars().count(), 16);
        let levels: Vec<u32> = s.chars().map(|c| c as u32).collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]), "{s}");
        assert_eq!(ascii_curve(&[], 0.0, 1.0, 5), "     ");
        assert_eq!(ascii_curve(&rising, 1.0, 1.0, 3), "   ");
    }

    #[test]
    fn profile_argument_is_parsed_strictly() {
        let parse = |args: &[&str]| Profile::parse(args.iter().map(|a| a.to_string()));
        assert_eq!(parse(&["--profile", "paper"]), Ok(Profile::Paper));
        assert_eq!(
            parse(&["--panel", "loss", "--profile", "quick"]),
            Ok(Profile::Quick)
        );
        assert_eq!(parse(&["--panel", "loss"]), Ok(Profile::Quick));
        assert!(parse(&["--profile", "papr"]).unwrap_err().contains("papr"));
        assert!(parse(&["--profile"]).is_err());
    }

    #[test]
    fn scheme_labels_are_stable() {
        assert_eq!(Scheme::Hadfl.label(), "hadfl");
        assert_eq!(Scheme::paper_trio().len(), 3);
    }

    #[test]
    fn experiment_opts_scale_the_fastest_device_to_the_paper() {
        let powers = [4.0, 2.0, 2.0, 1.0];
        for (model, step, wire, paper_epochs) in [
            ("resnet18_lite", 0.025, 44_600_000, 24.0),
            ("vgg16_lite", 0.045, 60_000_000, 32.0),
        ] {
            for (profile, epochs) in [(Profile::Quick, 6.0), (Profile::Paper, paper_epochs)] {
                let expected = SimOptions {
                    base_step_secs: step * 4.0,
                    epochs_total: epochs,
                    wire_model_bytes: Some(wire),
                    ..SimOptions::quick(&powers)
                };
                assert_eq!(
                    experiment_opts(model, &powers, profile),
                    expected,
                    "{model} {profile:?}"
                );
            }
        }
    }

    #[test]
    fn quick_scheme_runs_end_to_end() {
        for scheme in [Scheme::Hadfl, Scheme::DecentralizedFedAvg] {
            let trace = run_scheme(scheme, "mlp", &[2.0, 1.0], Profile::Quick, 1).unwrap();
            assert_eq!(trace.scheme, scheme.label());
            assert!(!trace.records.is_empty());
        }
    }
}
