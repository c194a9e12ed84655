//! The five workloads.
//!
//! Each one runs in its own process (see `main.rs`), sets up, measures
//! for the requested number of seconds in a closed loop — one round or
//! episode in flight, the next started when the last one finished —
//! checks its outputs, and returns its metrics. The untraced pass
//! yields the end-to-end metrics; the traced pass repeats the workload
//! with spans switched on and adds the per-layer timings.
//!
//! Why these five, and which layer each one leans on, is in README.md
//! and, in one line each, in `BENCHMARK.json`.

use std::time::{Duration, Instant};

use crate::ghost::{PlanGen, Replay};
use crate::probe::Probe;
use crate::stats::{self, median, quantile};
use crate::sut::{self, Fabric, SyncCluster, TrainSpec};
use crate::trace::{self, Span, Tracer};
use crate::{alloc, layers};

pub const NAMES: [&str; 5] = [
    "train_virtual_cnn",
    "train_tcp_mlp",
    "sync_chan_ring4",
    "sync_tcp_ring4",
    "sync_tcp_bcast",
];

/// Devices in every workload.
const K: usize = 4;
/// The paper's heterogeneous cluster, as power ratios.
const POWERS: [f64; K] = [4.0, 2.0, 2.0, 1.0];
/// Ghost parameter count: 4 MiB of f32.
pub const GHOST_LEN: usize = 1 << 20;
/// Blend weight the unselected ghosts use.
const BETA: f32 = 0.5;

/// Set-up is repeated and its median reported, so one slow bring-up
/// does not decide the number.
const SETUP_REPS: usize = 3;
/// Rounds run before timing starts: lazy TCP dials, allocator arenas
/// growing to their working size, thread wake-up paths.
const WARMUP_ROUNDS: usize = 20;
/// A sync run measures at least this many rounds, a training run at
/// least this many episodes, however short `--seconds` is.
const MIN_ROUNDS: usize = 300;
const MIN_EPISODES: usize = 12;

/// Rounds per virtual-time episode. The coordinator sends `Shutdown`
/// on the heels of the last plan, so the last ring of an episode is cut
/// off after its first frame; with eight rounds that tail is a small
/// share of the episode's traffic.
const EPISODE_ROUNDS: usize = 8;
const EPISODE_WINDOW: Duration = Duration::from_millis(16);
const EPISODE_STEP: Duration = Duration::from_millis(8);

const TCP_WINDOW: Duration = Duration::from_millis(250);
const TCP_STEP: Duration = Duration::from_millis(4);

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Ghost length override, for the size sweep in STABILITY.md.
    pub ghost_len: usize,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: sync rounds, or training rounds.
    pub attempted: u64,
    /// Operations that timed out, lost a device, or were not completed.
    pub failed: u64,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Why a check failed, for the log.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(what());
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "train_virtual_cnn" => train_virtual_cnn(args),
        "train_tcp_mlp" => train_tcp_mlp(args),
        "sync_chan_ring4" => sync(args, Fabric::Chan, K),
        "sync_tcp_ring4" => sync(args, Fabric::Tcp, K),
        "sync_tcp_bcast" => sync(args, Fabric::Tcp, 2),
        other => Err(format!("unknown workload {other}")),
    }
}

/// What the timed region cost the process besides time.
struct Usage {
    start: Instant,
    big_bytes: u64,
    counters: stats::ProcCounters,
}

impl Usage {
    fn begin() -> Self {
        Usage {
            start: Instant::now(),
            big_bytes: alloc::big_bytes(),
            counters: stats::proc_counters(),
        }
    }

    fn alloc_mb(&self) -> f64 {
        (alloc::big_bytes() - self.big_bytes) as f64 / (1 << 20) as f64
    }
}

/// What an untraced run reports, besides its peak resident set.
struct EndToEnd {
    setup_s: f64,
    cost_x: f64,
    final_accuracy: f64,
    peer_bytes_per_round: f64,
    alloc_mb_per_round: f64,
}

/// What a traced run knows about its workload; the layer timings that
/// are the same for every workload come on top.
struct Traced<'a> {
    spans: &'a [Span],
    /// Untraced round times in seconds; empty where rounds are not timed.
    round_s: &'a [f64],
    episode_s_p50: f64,
    /// Local steps of the fastest device over the slowest's.
    version_ratio: f64,
    /// Traced over untraced cost, minus one.
    overhead_frac: f64,
    /// Rounds in the timed region.
    ops: f64,
}

fn version_ratio(versions: &[u64]) -> f64 {
    match (versions.first(), versions.last()) {
        (Some(&fast), Some(&slow)) => fast as f64 / slow.max(1) as f64,
        _ => 0.0,
    }
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn end_to_end(&mut self, e: EndToEnd) {
        self.put("setup_s", e.setup_s, "s");
        self.put("cost_x", e.cost_x, "x");
        self.put("final_accuracy", e.final_accuracy, "fraction");
        self.put("peer_bytes_per_round", e.peer_bytes_per_round, "B");
        self.put("alloc_mb_per_round", e.alloc_mb_per_round, "MiB");
        self.put("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    }

    /// Writes the spans out and reports what they and the process
    /// counters say; a metric the workload has no sample for reads 0.
    fn traced(&mut self, args: &Args, usage: &Usage, t: Traced) {
        let dir = std::path::Path::new("benchmark/out");
        let path = dir.join(format!("trace-{}.json", args.workload));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(t.spans)))
        {
            eprintln!("could not write {}: {e}", path.display());
        }

        let b = trace::analyse(t.spans);
        let on = |kind: &str| b.on_self_ms.get(kind).copied().unwrap_or(0.0);
        self.put("exec.on_plan_ms_p50", on("round_plan"), "ms");
        self.put("exec.on_accum_ms_p50", on("param_accum"), "ms");
        self.put("exec.on_merged_ms_p50", on("merged_params"), "ms");
        self.put("exec.on_sync_ms_p50", on("param_sync"), "ms");
        self.put("exec.send_ms_p50", b.send_ms_p50, "ms");
        self.put("exec.recv_wait_ms_p50", b.recv_wait_ms_p50, "ms");
        self.put("exec.transit_ms_p50", b.transit_ms_p50, "ms");
        self.put("exec.hops_per_round", b.hops_per_round, "count");
        self.put(
            "exec.round_residual_frac",
            b.round_residual_frac,
            "fraction",
        );

        let round_ms: Vec<f64> = t.round_s.iter().map(|s| s * 1e3).collect();
        self.put("exec.sync_ms_p50", median(&round_ms), "ms");
        self.put("exec.sync_ms_p95", quantile(&round_ms, 0.95), "ms");
        self.put("exec.episode_s_p50", t.episode_s_p50, "s");
        self.put("exec.version_ratio_fast_slow", t.version_ratio, "ratio");
        self.put("trace.overhead_frac", t.overhead_frac, "fraction");

        let now = stats::proc_counters();
        self.put("exec.wall_s", usage.start.elapsed().as_secs_f64(), "s");
        self.put("exec.cpu_s", now.cpu_s - usage.counters.cpu_s, "s");
        self.put(
            "exec.minor_faults_per_round",
            (now.minor_faults - usage.counters.minor_faults) as f64 / t.ops,
            "count",
        );
    }
}

/// A traced pass spends part of `--seconds` on the workload and the
/// rest on the layer timings.
fn budget_s(args: &Args) -> f64 {
    if args.trace {
        args.seconds * 0.4
    } else {
        args.seconds
    }
}

/// Set-up is done once in a traced pass, which does not report it.
fn setup_reps(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_REPS
    }
}

// ---------------------------------------------------------------------------
// sync_*: ghost devices on threads, the benchmark as coordinator
// ---------------------------------------------------------------------------

/// Bytes one round moves between devices: the ring's reduce and gather
/// frames carry a 13-byte header, the broadcast frames a 9-byte one.
fn sync_round_bytes(n: usize, n_selected: usize, unselected: usize) -> u64 {
    (2 * (n_selected - 1) * (4 * n + 13) + unselected * (4 * n + 9)) as u64
}

struct SyncRig {
    cluster: SyncCluster,
    plans: PlanGen,
    replay: Replay,
    rounds: u64,
}

impl SyncRig {
    /// Brings a cluster up and runs the warm-up rounds.
    fn start(
        args: &Args,
        fabric: Fabric,
        n_selected: usize,
        tracer: Option<Tracer>,
    ) -> Result<Self, String> {
        let cluster =
            SyncCluster::start(fabric, K, args.ghost_len, BETA, args.seed, tracer, false)?;
        let mut rig = SyncRig {
            cluster,
            plans: PlanGen::new(args.seed, K, n_selected),
            replay: Replay::new(args.seed, K, BETA),
            rounds: 0,
        };
        for _ in 0..WARMUP_ROUNDS {
            rig.round()?;
        }
        Ok(rig)
    }

    /// One closed-loop round; returns its duration in seconds.
    fn round(&mut self) -> Result<f64, String> {
        let plan = self.plans.next_plan();
        let round_s = self.cluster.round(&plan)?;
        self.replay.apply(&plan);
        self.rounds += 1;
        Ok(round_s)
    }
}

fn sync(args: &Args, fabric: Fabric, n_selected: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    // Spans stay off through set-up and tear-down.
    let tracer = args.trace.then(Tracer::new);
    let spans_on = |on: bool| {
        if let Some(t) = &tracer {
            t.set_on(on);
        }
    };
    spans_on(false);

    // Set-up: probe warm-up once, then bring-up plus warm-up rounds,
    // repeated; the last cluster is the one measured.
    let mut probe = Probe::new();
    let t = Instant::now();
    probe.warm_up();
    let probe_warm = t.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut rig = loop {
        let t = Instant::now();
        let rig = SyncRig::start(args, fabric, n_selected, tracer.clone())?;
        setups.push(t.elapsed().as_secs_f64());
        if setups.len() == setup_reps(args) {
            break rig;
        }
        rig.cluster.finish()?;
    };

    // Timed region. In a traced pass, blocks of rounds alternate
    // between spans off and on, so one cluster gives both sides of the
    // tracing overhead. A round that fails ends the run: the ring is
    // stuck and nothing after it would mean anything.
    const BLOCK: usize = 25;
    let min_rounds = if args.trace { 4 * BLOCK } else { MIN_ROUNDS };
    let usage = Usage::begin();
    let mut plain_s = Vec::with_capacity(8192);
    let mut traced_s = Vec::with_capacity(8192);
    loop {
        let done = plain_s.len() + traced_s.len();
        if done >= min_rounds && usage.start.elapsed().as_secs_f64() >= budget_s(args) {
            break;
        }
        let traced = args.trace && (done / BLOCK) % 2 == 1;
        spans_on(traced);
        let round_s = rig.round()?;
        if traced {
            traced_s.push(round_s);
        } else {
            plain_s.push(round_s);
        }
        if done % 2 == 1 {
            probe.copy();
        }
    }
    spans_on(false);
    let timed_rounds = (plain_s.len() + traced_s.len()) as f64;
    let alloc_mb = usage.alloc_mb();
    out.attempted = timed_rounds as u64;

    // Output checks.
    let total_rounds = rig.rounds;
    let fin = rig.cluster.finish()?;
    out.check(!fin.bypassed, || "a device was bypassed".into());
    let matched: Vec<f64> = fin
        .finals
        .iter()
        .enumerate()
        .map(|(d, p)| rig.replay.match_fraction(d, p))
        .collect();
    let match_mean = matched.iter().sum::<f64>() / matched.len() as f64;
    out.check(match_mean == 1.0, || {
        format!("final parameters differ from the scalar replay: match {matched:?}")
    });
    let closed = sync_round_bytes(args.ghost_len, n_selected, K - n_selected);
    out.check(fin.peer_bytes == closed * total_rounds, || {
        format!(
            "peer bytes {} != {closed} x {total_rounds} rounds",
            fin.peer_bytes
        )
    });

    if let Some(tracer) = tracer {
        out.traced(
            args,
            &usage,
            Traced {
                spans: &tracer.take(),
                round_s: &plain_s,
                episode_s_p50: 0.0,
                version_ratio: 0.0,
                overhead_frac: median(&traced_s) / median(&plain_s) - 1.0,
                ops: timed_rounds,
            },
        );
        layers::measure(&mut out, args.seed, probe)?;
    } else {
        out.end_to_end(EndToEnd {
            setup_s: probe_warm + median(&setups),
            cost_x: median(&plain_s) / probe.copy_median_s(),
            final_accuracy: match_mean,
            peer_bytes_per_round: fin.peer_bytes as f64 / total_rounds as f64,
            alloc_mb_per_round: alloc_mb / timed_rounds,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// train_virtual_cnn: run_virtual, one driver thread, deterministic work
// ---------------------------------------------------------------------------

/// The first episodes of every run have fixed inputs, whatever `--seed`
/// is, and `final_accuracy` is their mean. `run_virtual` is
/// deterministic, so that number is a golden value of the code's
/// arithmetic: episodes this short leave accuracy swinging by a fifth
/// between seeds, which no bound could tell from a regression. The
/// episodes after these draw their protocol choices from `--seed`.
const REFERENCE_EPISODES: u64 = 6;
/// Five times the paper's rate: 144 local steps must leave chance level
/// for accuracy to say anything.
const EPISODE_LR: f32 = 0.05;

fn episode_spec(data_seed: u64, plan_seed: u64, rounds: usize) -> TrainSpec {
    TrainSpec {
        model: "resnet18_lite",
        powers: POWERS.to_vec(),
        n_selected: 2,
        rounds,
        window: EPISODE_WINDOW,
        step_sleep: EPISODE_STEP,
        lr: EPISODE_LR,
        data_seed,
        plan_seed,
    }
}

/// Episode `e` of a run seeded `seed`.
fn episode(e: u64, seed: u64) -> TrainSpec {
    let plan_seed = if e < REFERENCE_EPISODES {
        e
    } else {
        seed.wrapping_add(e)
    };
    episode_spec(e, plan_seed, EPISODE_ROUNDS)
}

/// Bytes a training run with `rounds` rounds moves between devices when
/// N_p = 2 of 4: every round but the last is a two-member ring plus two
/// broadcasts; the last ring is cut off by `Shutdown` somewhere between
/// nothing sent and everything sent.
fn train_bytes_range(n: usize, rounds: usize) -> (u64, u64) {
    let full = sync_round_bytes(n, 2, 2);
    ((rounds as u64 - 1) * full, rounds as u64 * full)
}

fn train_virtual_cnn(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let n = sut::param_count("resnet18_lite")?;

    // Set-up: probe warm-up, then a short warm-up episode (hadfl_par
    // calibration, allocator growth), repeated.
    let mut probe = Probe::new();
    let t = Instant::now();
    probe.warm_up();
    let probe_warm = t.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    for rep in 0..setup_reps(args) {
        let t = Instant::now();
        sut::train_virtual(&episode_spec(u64::MAX - rep as u64, args.seed, 2))?;
        setups.push(t.elapsed().as_secs_f64());
    }

    let min_episodes = if args.trace {
        REFERENCE_EPISODES as usize
    } else {
        MIN_EPISODES
    };
    let usage = Usage::begin();
    let mut episode_s = Vec::new();
    let mut accuracy = Vec::new();
    let mut spans = Vec::new();
    let mut peer_bytes = 0u64;
    let mut rounds = 0u64;
    let mut ratio = Vec::new();
    while episode_s.len() < min_episodes || usage.start.elapsed().as_secs_f64() < budget_s(args) {
        let e = episode_s.len() as u64;
        let start_ns = trace::now_ns();
        let run = sut::train_virtual(&episode(e, args.seed))?;
        // The one span a traced pass can take here: run_virtual owns
        // the ports and the loop.
        spans.push(Span {
            id: trace::next_id(),
            parent: 0,
            name: "episode",
            kind: "",
            device: K as u32,
            peer: 0,
            round: e as u32,
            start_ns,
            end_ns: trace::now_ns(),
        });
        episode_s.push(run.wall.as_secs_f64());
        accuracy.push(run.accuracy);
        ratio.push(version_ratio(&run.versions));
        out.attempted += EPISODE_ROUNDS as u64;
        out.failed += (EPISODE_ROUNDS - run.rounds_done.min(EPISODE_ROUNDS) + run.dropped) as u64;
        peer_bytes += run.peer_bytes;
        rounds += run.rounds_done as u64;
        let (lo, hi) = train_bytes_range(n, EPISODE_ROUNDS);
        out.check((lo..=hi).contains(&run.peer_bytes), || {
            format!(
                "episode {e}: peer bytes {} outside [{lo}, {hi}]",
                run.peer_bytes
            )
        });
        for _ in 0..3 {
            probe.mm();
        }
    }
    let alloc_mb = usage.alloc_mb();
    let ops = rounds.max(1) as f64;

    // One seed twice gives one accuracy: the driver is deterministic.
    let again = sut::train_virtual(&episode(0, args.seed))?;
    out.check(again.accuracy == accuracy[0], || {
        format!(
            "episode 0 gave accuracy {} and then {}",
            accuracy[0], again.accuracy
        )
    });
    let reference = &accuracy[..REFERENCE_EPISODES as usize];
    let acc = reference.iter().sum::<f64>() / reference.len() as f64;
    out.check(acc >= 0.15, || {
        format!("reference accuracy {acc} is not above chance + 0.05")
    });

    if args.trace {
        out.traced(
            args,
            &usage,
            Traced {
                spans: &spans,
                round_s: &[],
                episode_s_p50: median(&episode_s),
                version_ratio: median(&ratio),
                overhead_frac: 0.0,
                ops,
            },
        );
        layers::measure(&mut out, args.seed, probe)?;
    } else {
        out.end_to_end(EndToEnd {
            setup_s: probe_warm + median(&setups),
            cost_x: median(&episode_s) / probe.mm_median_s(),
            final_accuracy: acc,
            peer_bytes_per_round: peer_bytes as f64 / ops,
            alloc_mb_per_round: alloc_mb / ops,
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// train_tcp_mlp: the deployed path over loopback sockets
// ---------------------------------------------------------------------------

/// The paper's learning rate.
const TCP_LR: f32 = 0.01;

/// The model and data are the same in every run; `--seed` drives the
/// coordinator's selection, ring order and broadcaster. Real threads
/// and real clocks supply the rest of the variation.
fn tcp_spec(plan_seed: u64, rounds: usize, window: Duration) -> TrainSpec {
    TrainSpec {
        model: "mlp",
        powers: POWERS.to_vec(),
        n_selected: 2,
        rounds,
        window,
        step_sleep: TCP_STEP,
        lr: TCP_LR,
        data_seed: 0,
        plan_seed,
    }
}

/// Samples per second if a local step cost nothing but its emulated
/// sleep: the reference `cost_x` is taken against on this workload.
fn ideal_samples_per_s(batch: usize) -> f64 {
    POWERS.iter().sum::<f64>() / TCP_STEP.as_secs_f64() * batch as f64
}

fn samples_per_s(run: &sut::TrainOutcome) -> f64 {
    run.versions.iter().sum::<u64>() as f64 * run.batch as f64 / run.wall.as_secs_f64()
}

fn train_tcp_mlp(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let n = sut::param_count("mlp")?;

    // Set-up: a separate short cluster over the same code path (mesh
    // bring-up, lazy dials, a few windows), repeated.
    let mut setups = Vec::new();
    for _ in 0..setup_reps(args) {
        let t = Instant::now();
        sut::train_tcp(&tcp_spec(args.seed, 4, Duration::from_millis(100)), None)?;
        setups.push(t.elapsed().as_secs_f64());
    }

    // The timed region is one run_coordinator call; a traced pass makes
    // two shorter ones, spans off then on.
    let share = if args.trace { 0.5 } else { 1.0 };
    let rounds = ((budget_s(args) * share / TCP_WINDOW.as_secs_f64()).round() as usize).max(8);
    let spec = tcp_spec(args.seed, rounds, TCP_WINDOW);
    let usage = Usage::begin();
    let run = sut::train_tcp(&spec, None)?;
    let alloc_mb = usage.alloc_mb();
    out.attempted = rounds as u64;
    out.failed = (rounds - run.rounds_done.min(rounds) + run.dropped) as u64;
    let (lo, hi) = train_bytes_range(n, rounds);
    out.check((lo..=hi).contains(&run.peer_bytes), || {
        format!("peer bytes {} outside [{lo}, {hi}]", run.peer_bytes)
    });
    // A traced pass trains for a fifth of the time; accuracy is the
    // untraced pass's to judge.
    out.check(args.trace || run.accuracy >= 0.80, || {
        format!("accuracy {} below 0.80", run.accuracy)
    });
    let ops = rounds as f64;

    if args.trace {
        let tracer = Tracer::new();
        let traced = sut::train_tcp(&spec, Some(tracer.clone()))?;
        out.traced(
            args,
            &usage,
            Traced {
                spans: &tracer.take(),
                round_s: &[],
                episode_s_p50: run.wall.as_secs_f64(),
                version_ratio: version_ratio(&run.versions),
                overhead_frac: samples_per_s(&run) / samples_per_s(&traced) - 1.0,
                ops: 2.0 * ops,
            },
        );
        layers::measure(&mut out, args.seed, Probe::new())?;
    } else {
        out.end_to_end(EndToEnd {
            setup_s: median(&setups),
            cost_x: ideal_samples_per_s(run.batch) / samples_per_s(&run),
            final_accuracy: run.accuracy,
            peer_bytes_per_round: run.peer_bytes as f64 / ops,
            alloc_mb_per_round: alloc_mb / ops,
        });
    }
    Ok(out)
}
