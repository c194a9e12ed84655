//! Round-level benchmark of the HADFL reproduction. See README.md.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! run.sh [--seed N] [--seconds S] [--trace]              all five, a table
//! run.sh --stability N [--seed N] [--seconds S]          N sets, spread against the bounds
//! run.sh --sensitivity                                   ghost-size sweep and hop prediction
//! run.sh --emit-benchmark-json                           BENCHMARK.json from the tables below
//! ```
//!
//! Every workload runs in a child process of this binary, started with
//! the pinned environment in [`PINNED_ENV`].

mod alloc;
mod ghost;
mod layers;
mod probe;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use workloads::Args;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// The environment every measured process runs under.
///
/// * `HADFL_THREADS=1`: devices, not intra-op threads, are the unit of
///   parallelism on a two-core host; with 2 the CNN runs 8–35 % slower
///   and far noisier. Pool scaling is a per-layer metric instead.
/// * The two malloc thresholds keep multi-MiB frames inside the arena.
///   By default glibc `mmap`s and unmaps every 4 MiB `Vec`, about a
///   thousand page faults each, which doubles a ring round and makes it
///   swing by 46 % between identical runs. Both are needed: glibc 2.36
///   rejects a larger mmap threshold, and raising it alone makes the
///   arena trim after every free instead.
const PINNED_ENV: [(&str, &str); 3] = [
    ("HADFL_THREADS", "1"),
    ("MALLOC_MMAP_THRESHOLD_", "33554432"),
    ("MALLOC_TRIM_THRESHOLD_", "2000000000"),
];
/// Marks a process that was started with [`PINNED_ENV`].
const PINNED_MARK: &str = "HADFL_BENCH_PINNED";

const DEFAULT_SECONDS: f64 = 12.0;

struct MetricSpec {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What an untraced run reports, on every workload.
const END_TO_END: [MetricSpec; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("cost_x", "x", "lower", 0.16),
    e2e("final_accuracy", "fraction", "higher", 0.06),
    e2e("peer_bytes_per_round", "B", "lower", 0.12),
    e2e("alloc_mb_per_round", "MiB", "lower", 0.05),
    e2e("peak_rss_mb", "MiB", "lower", 0.20),
];

/// What a traced run reports, on every workload.
const PER_LAYER: [MetricSpec; 68] = [
    layer("tensor.matmul_64x128x64_us", "us", "lower"),
    layer("tensor.im2col_us", "us", "lower"),
    layer("tensor.matmul_gflops", "GFLOP/s", "higher"),
    layer("nn.cnn_step_ms", "ms", "lower"),
    layer("nn.cnn_step_x", "x", "lower"),
    layer("nn.cnn_grad_ms", "ms", "lower"),
    layer("nn.cnn_grad_x", "x", "lower"),
    layer("nn.cnn_apply_ms", "ms", "lower"),
    layer("nn.cnn_apply_x", "x", "lower"),
    layer("nn.cnn_eval_ms", "ms", "lower"),
    layer("nn.cnn_eval_x", "x", "lower"),
    layer("nn.param_vector_ms", "ms", "lower"),
    layer("nn.param_vector_x", "x", "lower"),
    layer("nn.mlp_step_ms", "ms", "lower"),
    layer("nn.mlp_step_x", "x", "lower"),
    layer("par.dispatch_us", "us", "lower"),
    layer("par.cnn_step_speedup_t2", "ratio", "higher"),
    layer("workload.build_ms", "ms", "lower"),
    layer("workload.build_x", "x", "lower"),
    layer("aggregate.accumulate_ms", "ms", "lower"),
    layer("aggregate.accumulate_x", "x", "lower"),
    layer("aggregate.accumulate_gbps", "GB/s", "higher"),
    layer("aggregate.scale_ms", "ms", "lower"),
    layer("aggregate.scale_x", "x", "lower"),
    layer("aggregate.average4_ms", "ms", "lower"),
    layer("aggregate.average4_x", "x", "lower"),
    layer("aggregate.blend_ms", "ms", "lower"),
    layer("aggregate.blend_x", "x", "lower"),
    layer("wire.seal_accum_ms", "ms", "lower"),
    layer("wire.seal_accum_x", "x", "lower"),
    layer("wire.open_accum_ms", "ms", "lower"),
    layer("wire.open_accum_x", "x", "lower"),
    layer("wire.seal_plan_us", "us", "lower"),
    layer("wire.open_plan_us", "us", "lower"),
    layer("wire.frame_overhead_b", "B", "lower"),
    layer("transport.chan_hop_ms", "ms", "lower"),
    layer("transport.chan_hop_x", "x", "lower"),
    layer("net.tcp_hop_ms", "ms", "lower"),
    layer("net.tcp_hop_x", "x", "lower"),
    layer("net.tcp_mbps", "MB/s", "higher"),
    layer("net.tcp_rtt_us", "us", "lower"),
    layer("net.raw_overhead_frac", "fraction", "lower"),
    layer("net.mesh_connect_ms", "ms", "lower"),
    layer("net.mesh_connect_x", "x", "lower"),
    layer("exec.on_plan_ms_p50", "ms", "lower"),
    layer("exec.on_accum_ms_p50", "ms", "lower"),
    layer("exec.on_merged_ms_p50", "ms", "lower"),
    layer("exec.on_sync_ms_p50", "ms", "lower"),
    layer("exec.send_ms_p50", "ms", "lower"),
    layer("exec.recv_wait_ms_p50", "ms", "lower"),
    layer("exec.transit_ms_p50", "ms", "lower"),
    layer("exec.hops_per_round", "count", "lower"),
    layer("exec.round_residual_frac", "fraction", "lower"),
    layer("exec.sync_ms_p50", "ms", "lower"),
    layer("exec.sync_ms_p95", "ms", "lower"),
    layer("exec.episode_s_p50", "s", "lower"),
    layer("exec.wall_s", "s", "lower"),
    layer("exec.cpu_s", "s", "lower"),
    layer("exec.minor_faults_per_round", "count", "lower"),
    layer("exec.version_ratio_fast_slow", "ratio", "higher"),
    layer("probe.mm_ms_p50", "ms", "lower"),
    layer("probe.copy_ms_p50", "ms", "lower"),
    layer("strategy.plan_k4_us", "us", "lower"),
    layer("strategy.plan_k64_us", "us", "lower"),
    layer("telemetry.emit_disabled_ns", "ns", "lower"),
    layer("prof.scope_disabled_ns", "ns", "lower"),
    layer("telemetry.on_overhead_frac", "fraction", "lower"),
    layer("trace.overhead_frac", "fraction", "lower"),
];

/// One line each on why the workload exists; README.md has the rest.
const WORKLOAD_WHY: [(&str, &str); 5] = [
    ("train_virtual_cnn", "run_virtual on resnet18_lite, one thread: >95% of wall is nn/tensor, so kernel and workload-build work shows here and ring/codec/transport work must not"),
    ("train_tcp_mlp", "the deployed path: run_device x4 + run_coordinator over loopback TCP with sleep()-emulated powers; window-bound, guards real clocks, deadlines and broadcast-blend under asynchrony"),
    ("sync_chan_ring4", "4 ghost DeviceActors (4 MiB each) over ChannelPort, full ring: isolates exec + wire + aggregate + params clone with no sockets; where copy removal and a pipelined ring show first"),
    ("sync_tcp_ring4", "the same ring over TcpPort: adds net::tcp framing, socket copies and reader threads; a TCP-only change moves this and not sync_chan_ring4"),
    ("sync_tcp_bcast", "N_p=2 of 4 over TcpPort: a 2-member ring, then the broadcaster fans ParamSync to 2 devices that blend; a ring gain bought at the broadcast path's cost shows here"),
];

fn benchmark_json() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(s, "  \"run_seconds\": {DEFAULT_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_WHY.iter().enumerate() {
        let sep = if i + 1 < WORKLOAD_WHY.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Child: one workload in this process
// ---------------------------------------------------------------------------

/// Runs the workload, prints each metric by name with its unit, then
/// the result as one JSON line.
fn run_child(args: &Args) -> ExitCode {
    let out = match workloads::run(args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let specs: &[MetricSpec] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut by_name: BTreeMap<&str, &workloads::Metric> = BTreeMap::new();
    for m in &out.metrics {
        by_name.insert(m.name.as_str(), m);
    }
    let listed = |s: &MetricSpec| by_name.get(s.name).is_some_and(|m| m.unit == s.unit);
    if by_name.len() != specs.len() || !specs.iter().all(listed) {
        let extra: Vec<&&str> = by_name
            .keys()
            .filter(|k| specs.iter().all(|s| s.name != **k))
            .collect();
        let missing: Vec<&str> = specs
            .iter()
            .filter(|s| !listed(s))
            .map(|s| s.name)
            .collect();
        eprintln!(
            "{}: metric table mismatch: missing {missing:?}, unlisted {extra:?}",
            args.workload
        );
        return ExitCode::FAILURE;
    }
    for note in &out.notes {
        println!("check failed: {note}");
    }
    let mut json = String::new();
    for (i, spec) in specs.iter().enumerate() {
        let m = by_name[spec.name];
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        println!("metric {} {} {}", spec.name, value, spec.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            spec.name, spec.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.correct && out.failed == 0,
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Parent: children under the pinned environment
// ---------------------------------------------------------------------------

fn pinned_command(args: &Args) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--ghost-len", &args.ghost_len.to_string()])
        .envs(PINNED_ENV)
        .env(PINNED_MARK, "1");
    Ok(cmd)
}

/// One workload's result as the parent sees it.
struct ChildResult {
    ok: bool,
    metrics: BTreeMap<String, f64>,
}

fn run_captured(args: &Args) -> Result<ChildResult, String> {
    let output = pinned_command(args)?
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        if f.next() == Some("metric") {
            if let (Some(name), Some(Ok(value))) = (f.next(), f.next().map(str::parse::<f64>)) {
                metrics.insert(name.to_string(), value);
            }
        } else if line.starts_with("check failed") {
            eprintln!("{}: {line}", args.workload);
        }
    }
    let ok = output.status.success()
        && stdout
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"correct\": true"));
    Ok(ChildResult { ok, metrics })
}

fn child_args(base: &Args, workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: base.seed,
        seconds: base.seconds,
        trace,
        ghost_len: base.ghost_len,
    }
}

/// All five workloads, untraced; with `trace` a traced pass after.
fn suite(base: &Args) -> Result<bool, String> {
    let mut all_ok = true;
    let passes: &[bool] = if base.trace { &[false, true] } else { &[false] };
    for &trace in passes {
        let specs: &[MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut results = Vec::new();
        for w in workloads::NAMES {
            eprintln!("running {w}{}", if trace { " (traced)" } else { "" });
            let r = run_captured(&child_args(base, w, trace))?;
            all_ok &= r.ok;
            results.push(r);
        }
        println!(
            "\n{} metrics (seed {}, {} s per workload)",
            if trace { "per-layer" } else { "end-to-end" },
            base.seed,
            base.seconds
        );
        print!("{:<30} {:>8}", "metric", "unit");
        for w in workloads::NAMES {
            print!(" {w:>18}");
        }
        println!();
        for spec in specs {
            print!("{:<30} {:>8}", spec.name, spec.unit);
            for r in &results {
                match r.metrics.get(spec.name) {
                    Some(v) => print!(" {v:>18.6}"),
                    None => print!(" {:>18}", "-"),
                }
            }
            println!();
        }
        print!("{:<39}", "checks");
        for r in &results {
            print!(" {:>18}", if r.ok { "ok" } else { "FAILED" });
        }
        println!();
    }
    Ok(all_ok)
}

/// `sets` untraced sets; per metric and workload the medians, their
/// spread, and whether the spread stays inside the metric's bound.
fn stability(base: &Args, sets: usize) -> Result<bool, String> {
    let mut values: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for set in 0..sets {
        for (wi, w) in workloads::NAMES.iter().enumerate() {
            eprintln!("set {}/{sets}: {w}", set + 1);
            let mut args = child_args(base, w, false);
            args.seed = base.seed + set as u64;
            let r = run_captured(&args)?;
            all_ok &= r.ok;
            for (mi, spec) in END_TO_END.iter().enumerate() {
                values
                    .entry((mi, wi))
                    .or_default()
                    .push(r.metrics.get(spec.name).copied().unwrap_or(f64::NAN));
            }
        }
    }
    println!("| metric | workload | median | min | max | (max-min)/median | IQR/median | bound | range within bound | IQR within bound/3 |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let verdict = |pass: bool| if pass { "pass" } else { "FAIL" };
    for ((mi, wi), v) in &values {
        let spec = &END_TO_END[*mi];
        let med = stats::median(v);
        let (lo, hi) = (stats::quantile(v, 0.0), stats::quantile(v, 1.0));
        let (q1, q3) = stats::quartiles_exclusive(v);
        let range = (hi - lo) / med;
        let iqr = (q3 - q1) / med;
        // The spread of set-up time is reported, not gated.
        let gated = spec.name != "setup_s";
        let range_ok = !gated || range <= spec.bound;
        let iqr_ok = !gated || iqr <= spec.bound / 3.0;
        all_ok &= range_ok && iqr_ok;
        println!(
            "| {} | {} | {med:.6} | {lo:.6} | {hi:.6} | {range:.4} | {iqr:.4} | {} | {} | {} |",
            spec.name,
            workloads::NAMES[*wi],
            spec.bound,
            verdict(range_ok),
            verdict(iqr_ok)
        );
    }
    println!("\nall checks passed and failed = 0 in every run: {all_ok}");
    Ok(all_ok)
}

/// The two sensitivity checks STABILITY.md records, neither of which
/// touches repository code.
fn sensitivity(base: &Args) -> Result<bool, String> {
    // Every figure is in units of the run's own `copy` probe median:
    // the runs are separate processes, minutes apart.
    let in_probe_units = |r: &ChildResult, name: &str| {
        let get = |n: &str| r.metrics.get(n).copied().unwrap_or(f64::NAN);
        get(name) / get("probe.copy_ms_p50")
    };
    let mut ok = true;
    println!("| ghost f32 | exec.sync_ms_p50 / probe | per Mi f32 |");
    println!("|---|---|---|");
    let mut per_mi = Vec::new();
    for len in [1usize << 18, 1 << 19, 1 << 20, 1 << 21] {
        let mut args = child_args(base, "sync_chan_ring4", true);
        args.ghost_len = len;
        let r = run_captured(&args)?;
        ok &= r.ok;
        let p50 = in_probe_units(&r, "exec.sync_ms_p50");
        let rate = p50 / (len as f64 / (1 << 20) as f64);
        println!("| {len} | {p50:.3} | {rate:.3} |");
        per_mi.push(rate);
    }
    // A round bound by wake-ups rather than by the data path would cost
    // more per element as frames shrink. Frames growing dearer per
    // element is the other thing: the working set leaving the cache.
    let small_over_full = per_mi[0] / per_mi[2];
    let spread = |v: &[f64]| (stats::quantile(v, 1.0) - stats::quantile(v, 0.0)) / stats::median(v);
    println!(
        "\ncost per element at 0.25 Mi f32 is {small_over_full:.3} of that at 1 Mi f32 (data-path bound, not wake-up bound, if <= 1.15: {})",
        small_over_full <= 1.15
    );
    println!(
        "cost per element varies by {:.3} of its median up to 1 Mi f32 and by {:.3} including 2 Mi f32\n",
        spread(&per_mi[..3]),
        spread(&per_mi)
    );
    ok &= small_over_full <= 1.15;

    let chan = run_captured(&child_args(base, "sync_chan_ring4", true))?;
    let tcp = run_captured(&child_args(base, "sync_tcp_ring4", true))?;
    ok &= chan.ok && tcp.ok;
    let diff = |name: &str| in_probe_units(&tcp, name) - in_probe_units(&chan, name);
    let measured = diff("exec.sync_ms_p50");
    let hops = tcp
        .metrics
        .get("exec.hops_per_round")
        .copied()
        .unwrap_or(f64::NAN);
    println!("sync_tcp_ring4 - sync_chan_ring4 = {measured:.3} probe units measured\n");
    // From the layer timings: one frame's hop, timed alone.
    let by_hop = hops
        * (in_probe_units(&tcp, "net.tcp_hop_ms") - in_probe_units(&tcp, "transport.chan_hop_ms"));
    // From the traced rounds: per hop the send and the transit, plus
    // what the handlers themselves spend (half the hops accumulate,
    // half install the merged model).
    let by_spans = hops * (diff("exec.send_ms_p50") + diff("exec.transit_ms_p50"))
        + hops / 2.0 * (diff("exec.on_accum_ms_p50") + diff("exec.on_merged_ms_p50"));
    println!("| predicted from | probe units | error / measured |");
    println!("|---|---|---|");
    for (what, predicted) in [
        ("hops x (net.tcp_hop_ms - transport.chan_hop_ms)", by_hop),
        (
            "traced spans: hops x (send + transit) + handlers' self time",
            by_spans,
        ),
    ] {
        println!(
            "| {what} | {predicted:.3} | {:.3} |",
            (predicted - measured).abs() / measured
        );
    }
    let residual = |r: &ChildResult| {
        r.metrics
            .get("exec.round_residual_frac")
            .copied()
            .unwrap_or(f64::NAN)
    };
    println!(
        "\nstated residuals: chan {:.4}, tcp {:.4}",
        residual(&chan),
        residual(&tcp)
    );
    Ok(ok)
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

enum Mode {
    Workload,
    Suite,
    Stability(usize),
    Sensitivity,
    EmitJson,
}

fn parse() -> Result<(Mode, Args), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        ghost_len: workloads::GHOST_LEN,
    };
    let mut mode = Mode::Suite;
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |name: &str| argv.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                args.workload = value("--workload")?;
                mode = Mode::Workload;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--ghost-len" => {
                args.ghost_len = value("--ghost-len")?
                    .parse()
                    .map_err(|e| format!("--ghost-len: {e}"))?;
                if !(64..=1 << 24).contains(&args.ghost_len) {
                    return Err("--ghost-len must be in [64, 16 Mi]".into());
                }
            }
            // `--trace 0|1` from the driver, bare `--trace` by hand.
            "--trace" => {
                args.trace = match argv.peek().map(String::as_str) {
                    Some("0") => {
                        argv.next();
                        false
                    }
                    Some("1") => {
                        argv.next();
                        true
                    }
                    _ => true,
                }
            }
            "--stability" => {
                mode = Mode::Stability(
                    value("--stability")?
                        .parse()
                        .map_err(|e| format!("--stability: {e}"))?,
                )
            }
            "--sensitivity" => mode = Mode::Sensitivity,
            "--emit-benchmark-json" => mode = Mode::EmitJson,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if matches!(mode, Mode::Workload) && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {}; one of {:?}",
            args.workload,
            workloads::NAMES
        ));
    }
    Ok((mode, args))
}

fn main() -> ExitCode {
    let (mode, args) = match parse() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let verdict = match mode {
        Mode::EmitJson => {
            print!("{}", benchmark_json());
            Ok(true)
        }
        Mode::Workload if std::env::var_os(PINNED_MARK).is_some() => return run_child(&args),
        // Not yet under the pinned environment: run the same thing in a
        // child that is, and pass its output and exit code through.
        Mode::Workload => pinned_command(&args)
            .and_then(|mut cmd| cmd.status().map_err(|e| format!("spawn: {e}")))
            .map(|status| status.success()),
        Mode::Suite => suite(&args),
        Mode::Stability(sets) => stability(&args, sets),
        Mode::Sensitivity => sensitivity(&args),
    };
    match verdict {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
