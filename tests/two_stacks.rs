//! One contract for two stacks, one test per row.
//!
//! HADFL is implemented twice: the closed-form virtual-time driver
//! (`run_hadfl`) and the message-passing actors (`exec`), driven here by
//! `run_virtual_cluster` on a `ManualClock`. Each row runs one
//! [`Scenario`] through both and asserts what both must share, over the
//! two event streams (`FrameSent`, `RoundPlanned`, `Evaluated`) and the
//! run structs. A half the actors do not meet yet is
//! `#[ignore = "two stacks: item N"]`, naming the ROADMAP step that flips
//! it; the closed-form halves always run, and `cargo test --test
//! two_stacks -- --ignored` shows what is left. Everything runs in
//! virtual time, so a failure is a replayable schedule.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::LazyLock;
use std::time::Duration;

use hadfl::aggregate::{ring_allreduce_cost, weighted_average_params};
use hadfl::coordinator::StrategyGenerator;
use hadfl::driver::{run_hadfl, Cluster, HadflRun, SimOptions};
use hadfl::exec::{
    run_virtual, run_virtual_cluster, CoordinatorRun, ProtocolTiming, ThreadedOptions, TrainState,
};
use hadfl::gossip::run_partial_sync;
use hadfl::strategy::Strategy;
use hadfl::topology::Ring;
use hadfl::wire::Message;
use hadfl::workload::{DeviceRuntime, ShardKind};
use hadfl::{HadflConfig, HadflError, Workload};
use hadfl_simnet::{ComputeModel, DeviceId, FaultPlan, Outage, VirtualTime};
use hadfl_telemetry::{Event, EventKind, RingBufferSink, Telemetry};

/// One scenario, run through either stack: the model, powers, seed,
/// [`HadflConfig`] and rounds. `opts` is the closed form's view of it;
/// the actors read its `base_step_secs` as `step_sleep` and
/// `Strategy::derive`'s window as theirs.
struct Scenario {
    workload: Workload,
    config: HadflConfig,
    /// Powers, base step time and `max_rounds`; faults and backups.
    opts: SimOptions,
}

impl Scenario {
    /// `mlp` over `powers` with `N_p` = `num_selected`, for `rounds`.
    fn mlp(powers: &[f64], num_selected: usize, rounds: usize, seed: u64) -> Scenario {
        let config = HadflConfig::builder()
            .num_selected(num_selected)
            .seed(seed)
            .build()
            .unwrap();
        Scenario::new(Workload::quick("mlp", seed), config, powers, rounds)
    }

    fn new(workload: Workload, config: HadflConfig, powers: &[f64], rounds: usize) -> Scenario {
        let mut opts = SimOptions::quick(powers);
        opts.max_rounds = rounds;
        // Rounds, not epochs, end a run.
        opts.epochs_total = f64::MAX;
        Scenario {
            workload,
            config,
            opts,
        }
    }

    fn devices(&self) -> usize {
        self.opts.powers.len()
    }

    /// `M`: bytes of one model state, `4n`.
    fn model_bytes(&self) -> u64 {
        4 * self.workload.model().unwrap().state_len() as u64
    }

    /// The Eq. (6) strategy both stacks are held to.
    fn strategy(&self) -> Strategy {
        let batches = self
            .workload
            .build(self.devices())
            .unwrap()
            .batches_per_epoch();
        let compute = ComputeModel::new(self.opts.base_step_secs, &self.opts.powers).unwrap();
        Strategy::derive(&compute, &batches, self.config.t_sync).unwrap()
    }

    fn closed_form(&self) -> HadflRun {
        run_hadfl(&self.workload, &self.config, &self.opts).unwrap()
    }

    /// The actors' options: one step per `base_step_secs / power`,
    /// windows of `window`.
    fn threaded_options(&self, window: Duration) -> ThreadedOptions {
        ThreadedOptions {
            timing: ProtocolTiming::quick(),
            ..ThreadedOptions::new(
                &self.opts.powers,
                Duration::from_secs_f64(self.opts.base_step_secs),
                window,
                self.opts.max_rounds,
            )
        }
    }

    /// The actors over the workload's runtimes, each wrapped by `state`,
    /// with windows of `window` and `device` killed at `at` for each
    /// `(device, at)` of `kills`.
    fn actors_with<T: TrainState>(
        &self,
        window: Duration,
        kills: &[(usize, Duration)],
        state: impl FnMut(DeviceRuntime) -> T,
    ) -> Actors {
        let k = self.devices();
        let mut built = self.workload.build(k).unwrap();
        for rt in &mut built.runtimes {
            rt.set_optimizer(self.config.lr, self.config.momentum);
        }
        let states = built.runtimes.drain(..).map(state).collect();
        // One sink per participant, the coordinator's last.
        let sinks: Vec<RingBufferSink> = (0..=k).map(|_| RingBufferSink::new(usize::MAX)).collect();
        let telemetry: Vec<Telemetry> = (sinks.iter().enumerate())
            .map(|(node, sink)| Telemetry::new(node as u32, vec![Box::new(sink.clone())]))
            .collect();
        let (run, _, _) = run_virtual_cluster(
            states,
            StrategyGenerator::new(&self.config),
            &self.config,
            &self.threaded_options(window),
            &telemetry,
            kills,
        )
        .unwrap();
        // The coordinator's events first, so a plan precedes the ring
        // frames sent at its instant.
        let mut events: Vec<Event> = sinks.iter().rev().flat_map(|s| s.snapshot()).collect();
        events.sort_by_key(|e| e.t_us);
        Actors { run, events }
    }

    /// The actors with the strategy's window.
    fn actors(&self, kills: &[(usize, Duration)]) -> Actors {
        let window = Duration::from_secs_f64(self.strategy().window_secs);
        self.actors_with(window, kills, |rt| rt)
    }
}

/// What an actor run leaves: the coordinator's record and every
/// participant's events in time order.
struct Actors {
    run: CoordinatorRun,
    events: Vec<Event>,
}

/// The default scenario: `mlp`, powers 4:2:1, `N_p = 2`, 3 rounds, a
/// backup every round (a ledger entry only; it changes no training).
fn default_scenario() -> Scenario {
    let mut s = Scenario::mlp(&[4.0, 2.0, 1.0], 2, 3, 73);
    s.opts.backup_every = Some(1);
    s
}

static DEFAULT: LazyLock<Scenario> = LazyLock::new(default_scenario);
static CLOSED: LazyLock<HadflRun> = LazyLock::new(|| DEFAULT.closed_form());
static ACTORS: LazyLock<Actors> = LazyLock::new(|| DEFAULT.actors(&[]));

/// One frame of a stream.
struct Frame {
    src: u32,
    dst: u32,
    bytes: u64,
    kind: String,
}

/// One round of a stream: its plans (one per ring) and the frames sent
/// from its first plan until the next round's.
#[derive(Default)]
struct Round {
    round: u32,
    available: Vec<Vec<u32>>,
    selected: Vec<Vec<u32>>,
    frames: Vec<Frame>,
}

/// A stream cut into rounds at its `RoundPlanned`s; frames before the
/// first plan are dropped.
fn rounds(events: &[Event]) -> Vec<Round> {
    let mut out: Vec<Round> = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::RoundPlanned {
                round,
                available,
                selected,
                ..
            } => {
                if out.last().is_none_or(|r| r.round != *round) {
                    out.push(Round {
                        round: *round,
                        ..Round::default()
                    });
                }
                let current = out.last_mut().unwrap();
                current.available.push(available.clone());
                current.selected.push(selected.clone());
            }
            EventKind::FrameSent {
                src,
                dst,
                bytes,
                kind,
                ..
            } => {
                if let Some(current) = out.last_mut() {
                    current.frames.push(Frame {
                        src: *src,
                        dst: *dst,
                        bytes: *bytes,
                        kind: kind.clone(),
                    });
                }
            }
            _ => {}
        }
    }
    out
}

/// The model bytes a ring frame carries, `None` for any other frame.
/// The closed form charges payload only; an actor frame also carries a
/// head, whose size is that of the same frame with no parameters.
fn ring_payload(frame: &Frame) -> Option<u64> {
    let head = match frame.kind.as_str() {
        "ring_allreduce" => 0,
        "param_accum" => Message::param_accum(0, 0, Vec::new()).encoded_len(),
        "merged_params" => Message::MergedParams {
            round: 0,
            ttl: 0,
            params: Vec::new(),
        }
        .encoded_len(),
        _ => return None,
    };
    Some(frame.bytes - head as u64)
}

/// Ring payload each device sends in `round`.
fn sent_per_member(round: &Round) -> BTreeMap<u32, u64> {
    let mut sent = BTreeMap::new();
    for frame in &round.frames {
        if let Some(bytes) = ring_payload(frame) {
            *sent.entry(frame.src).or_default() += bytes;
        }
    }
    sent
}

/// The rounds of a stream's `Evaluated`s, in order.
fn evaluated(events: &[Event]) -> Vec<u32> {
    let rounds = events.iter().filter_map(|e| match e.kind {
        EventKind::Evaluated { round, .. } => Some(round),
        _ => None,
    });
    rounds.collect()
}

// --- Steps per window (Eq. 6) -----------------------------------------

/// The first window after warm-up takes exactly `Strategy::derive`'s
/// `E_i`. Later, a device outside the previous ring takes `E_i` again,
/// and a member takes what fits in the window less the ring's time.
#[test]
fn steps_per_window_closed_form() {
    let run = &*CLOSED;
    assert_eq!(run.strategy.local_steps, [32, 16, 8]);
    assert_eq!(run.strategy, DEFAULT.strategy());
    // 0.06 s windows of 10/3 ms steps: 17.999999999999996 in floats.
    let thirds = Scenario::mlp(&[3.0, 3.0, 1.0, 1.0], 2, 1, 31).strategy();
    assert_eq!(thirds.local_steps, [18, 18, 6, 6]);
    let k = DEFAULT.devices();
    let batches = DEFAULT.workload.build(k).unwrap().batches_per_epoch();
    let warmup = DEFAULT.config.warmup_epochs as usize;
    let window = run.strategy.window_secs;
    let n_p = DEFAULT.config.num_selected;
    let ring_secs = ring_allreduce_cost(n_p, DEFAULT.model_bytes(), &DEFAULT.opts.link)
        .unwrap()
        .secs;
    let records = &run.trace.records;
    assert_eq!(records.len(), DEFAULT.opts.max_rounds);
    let first: Vec<usize> = (records[0].versions.iter().zip(&batches))
        .map(|(&version, &batches)| version as usize - warmup * batches)
        .collect();
    assert_eq!(first, run.strategy.local_steps, "window 1");
    for pair in records.windows(2) {
        let (before, after) = (&pair[0], &pair[1]);
        for i in 0..k {
            let steps = (after.versions[i] - before.versions[i]) as usize;
            let expected = if before.selected.contains(&i) {
                let step = DEFAULT.opts.base_step_secs / DEFAULT.opts.powers[i];
                ((window - ring_secs) / step).floor() as usize
            } else {
                run.strategy.local_steps[i]
            };
            assert_eq!(steps, expected, "device {i}, window {}", after.round);
        }
    }
}

/// Given the strategy's window, every device takes `E_i` in every
/// window.
#[test]
fn steps_per_window_actors() {
    let strategy = DEFAULT.strategy();
    let mut before = vec![0; DEFAULT.devices()];
    assert_eq!(ACTORS.run.rounds.len(), DEFAULT.opts.max_rounds);
    for round in &ACTORS.run.rounds {
        let steps: Vec<usize> = (round.versions.iter().zip(&before))
            .map(|(after, before)| (after - before) as usize)
            .collect();
        assert_eq!(steps, strategy.local_steps, "window {}", round.round);
        before.clone_from(&round.versions);
    }
}

/// The actors derive their window from a warm-up, as the closed form
/// does, instead of being handed one.
#[test]
#[ignore = "two stacks: item 4(b)"]
fn steps_per_window_actors_from_warm_up() {
    let strategy = DEFAULT.strategy();
    // A window the strategy did not choose.
    let window = ThreadedOptions::quick(&DEFAULT.opts.powers).window;
    let actors = DEFAULT.actors_with(window, &[], |rt| rt);
    let first: Vec<usize> = (actors.run.rounds[0].versions.iter())
        .map(|&v| v as usize)
        .collect();
    assert_eq!(first, strategy.local_steps, "first window");
}

// --- Ring payload (§III-D) --------------------------------------------

/// Each of the first `complete` rounds' rings moves `2(N_p−1)·M` of
/// model bytes, device to device; nothing carries a model through the
/// server.
fn assert_ring_payload(events: &[Event], complete: usize) {
    let (n_p, model) = (DEFAULT.config.num_selected as u64, DEFAULT.model_bytes());
    let server = DEFAULT.devices() as u32;
    let rounds = rounds(events);
    assert_eq!(rounds.len(), DEFAULT.opts.max_rounds);
    for round in &rounds[..complete] {
        assert_eq!(round.selected, [round.selected[0].clone()], "one ring");
        assert_eq!(round.selected[0].len() as u64, n_p, "round {}", round.round);
        let total: u64 = round.frames.iter().filter_map(ring_payload).sum();
        assert_eq!(total, 2 * (n_p - 1) * model, "round {}", round.round);
        for frame in &round.frames {
            let ring = ring_payload(frame).is_some();
            let members = &round.selected[0];
            if ring {
                assert!(members.contains(&frame.src) && members.contains(&frame.dst));
            }
            // The final upload ends the run; it is no synchronization.
            let via_server = frame.src == server || frame.dst == server;
            if via_server && frame.kind != "final_params" {
                assert!(
                    !ring && frame.bytes < model,
                    "{} via the server",
                    frame.kind
                );
            }
        }
    }
}

#[test]
fn ring_payload_closed_form() {
    assert_ring_payload(&CLOSED.events, DEFAULT.opts.max_rounds);
}

/// The same total in every round but the last, no member sending more
/// than `2M`, and a finite consensus. The coordinator sends `Shutdown`
/// right after the last plan, so a member that reads it first leaves
/// the last ring unfinished; [`last_ring_completes_actors`] holds that.
#[test]
fn ring_payload_actors() {
    let rounds_before_last = DEFAULT.opts.max_rounds - 1;
    assert_ring_payload(&ACTORS.events, rounds_before_last);
    for round in rounds(&ACTORS.events) {
        for (member, sent) in sent_per_member(&round) {
            assert!(
                sent <= 2 * DEFAULT.model_bytes(),
                "device {member} sent {sent}"
            );
        }
    }
    let consensus = ACTORS.run.consensus().unwrap();
    assert!(consensus.iter().all(|p| p.is_finite()));
}

/// The last round's ring finishes before the run ends, as every other
/// round's does: its merge is what a per-round evaluation of the last
/// round reads.
#[test]
#[ignore = "two stacks: item 4(e)"]
fn last_ring_completes_actors() {
    assert_ring_payload(&ACTORS.events, DEFAULT.opts.max_rounds);
}

// --- Bytes per ring member --------------------------------------------

/// All three devices in the ring, so an uneven split shows; two rounds,
/// so the actors finish one.
static ALL_IN_RING: LazyLock<Scenario> =
    LazyLock::new(|| Scenario::mlp(&[4.0, 2.0, 1.0], 3, 2, 74));

/// Every member sends `2(N−1)·⌈M/N⌉` in each of the first `complete`
/// rounds.
fn assert_even_bytes(events: &[Event], complete: usize) {
    let n = ALL_IN_RING.devices() as u64;
    let chunk = ALL_IN_RING.model_bytes().div_ceil(n);
    for round in &rounds(events)[..complete] {
        let sent = sent_per_member(round);
        assert_eq!(sent.len() as u64, n, "round {}", round.round);
        for (member, bytes) in sent {
            assert_eq!(bytes, 2 * (n - 1) * chunk, "device {member}");
        }
    }
}

#[test]
fn bytes_per_member_closed_form() {
    assert_even_bytes(&ALL_IN_RING.closed_form().events, 2);
}

#[test]
#[ignore = "two stacks: item 5"]
fn bytes_per_member_actors() {
    assert_even_bytes(&ALL_IN_RING.actors(&[]).events, 1);
}

// --- Ring time ---------------------------------------------------------

/// A ring of `N` takes `2(N−1)` steps, each moving a `⌈M/N⌉` chunk: the
/// round's evaluation lands that long after its plan.
#[test]
fn ring_time_closed_form() {
    let (n, model) = (DEFAULT.config.num_selected, DEFAULT.model_bytes());
    let chunk = model.div_ceil(n as u64);
    let expected = 2.0 * (n - 1) as f64 * DEFAULT.opts.link.transfer_time(chunk);
    let planned = CLOSED.events.iter().filter_map(|e| match e.kind {
        EventKind::RoundPlanned { .. } => Some(e.t_us as f64 / 1e6),
        _ => None,
    });
    let records = &CLOSED.trace.records;
    assert_eq!(planned.clone().count(), records.len());
    for (at, record) in planned.zip(records) {
        let ring = record.time_secs - at;
        // The plan's stamp is whole microseconds.
        assert!(
            (ring - expected).abs() <= 1e-6,
            "round {}: {ring} s",
            record.round
        );
    }
}

/// Every frame carries a `⌈M/N⌉` chunk, so links work in parallel.
#[test]
#[ignore = "two stacks: item 5"]
fn ring_time_actors() {
    let n = DEFAULT.config.num_selected as u64;
    let chunk = DEFAULT.model_bytes().div_ceil(n);
    for round in rounds(&ACTORS.events) {
        for frame in &round.frames {
            if let Some(bytes) = ring_payload(frame) {
                assert!(bytes <= chunk, "round {}: {bytes} B frame", round.round);
            }
        }
    }
}

// --- Outage then rejoin -------------------------------------------------

/// The default powers for 4 rounds, device 2 out for rounds 2 and 3.
fn outage_scenario() -> Scenario {
    let mut s = Scenario::mlp(&[4.0, 2.0, 1.0], 2, 4, 75);
    // Warm-up takes one window here, so round r opens at r windows.
    let window = s.strategy().window_secs;
    let outage = Outage::window(
        DeviceId(2),
        VirtualTime::from_secs(1.9 * window),
        VirtualTime::from_secs(3.9 * window),
    );
    s.opts.faults = FaultPlan::new(vec![outage]).unwrap();
    s
}

/// Device 2 is out of rounds 2–3's `available` and back in round 4's.
fn assert_rejoins(events: &[Event]) {
    let rounds = rounds(events);
    let available = |r: usize| rounds[r - 1].available[0].contains(&2);
    assert_eq!(rounds.len(), 4);
    assert!(available(1));
    assert!(!available(2) && !available(3));
    assert!(available(4), "device 2 is not planned again in round 4");
}

#[test]
fn outage_then_rejoin_closed_form() {
    assert_rejoins(&outage_scenario().closed_form().events);
}

/// `run_virtual_cluster` kills are crashes, so the device never answers
/// again here; the row flips once the actors re-admit a device that
/// answers after being dropped and the harness can end an outage.
#[test]
#[ignore = "two stacks: item 4(d)"]
fn outage_then_rejoin_actors() {
    let s = outage_scenario();
    let window = s.strategy().window_secs;
    let out = Duration::from_secs_f64(1.5 * window);
    assert_rejoins(&s.actors(&[(2, out)]).events);
}

// --- Merge (Eq. 2) ------------------------------------------------------

/// Dirichlet shards of unequal sizes, merged by sample count.
fn weighted_workload() -> (Workload, HadflConfig) {
    let mut workload = Workload::quick("mlp", 76);
    workload.shard = ShardKind::Dirichlet { alpha: 0.3 };
    let config = HadflConfig::builder()
        .weight_by_samples(true)
        .seed(76)
        .build()
        .unwrap();
    (workload, config)
}

/// The members' states and sample counts, and the merge.
struct Merge {
    states: Vec<Vec<f32>>,
    samples: Vec<f64>,
    merged: Vec<f32>,
}

impl Merge {
    /// The merge equals `weighted_average_params` of the members' states
    /// by their sample counts, to float rounding.
    fn assert_weighted(&self) {
        let refs: Vec<&[f32]> = self.states.iter().map(Vec::as_slice).collect();
        let expected = weighted_average_params(&refs, &self.samples).unwrap();
        let uniform = weighted_average_params(&refs, &vec![1.0; refs.len()]).unwrap();
        assert_ne!(expected, uniform, "the weights must matter here");
        assert_eq!(self.merged.len(), expected.len());
        for (i, (m, e)) in self.merged.iter().zip(&expected).enumerate() {
            let u = uniform[i];
            let msg = format!("param {i}: merged {m}, weighted {e}, uniform {u}");
            assert!((m - e).abs() <= 1e-6 * e.abs().max(1.0), "{msg}");
        }
    }
}

/// The driver's ring merge (`run_partial_sync`, with the weights
/// `run_hadfl` passes under `weight_by_samples`) over replicas trained
/// on their own shards.
#[test]
fn merge_closed_form() {
    let (workload, config) = weighted_workload();
    let mut cluster =
        Cluster::new(config.seed, &workload, &SimOptions::quick(&[1.0, 1.0])).unwrap();
    for (i, rt) in cluster.built.runtimes.iter_mut().enumerate() {
        rt.train_steps(2 + i).unwrap();
    }
    let runtimes = &cluster.built.runtimes;
    let members = [DeviceId(0), DeviceId(1)];
    let params = members.map(|d| (d, runtimes[d.index()].model.state_vector()));
    let weights = members.map(|d| (d, runtimes[d.index()].shard_len() as f64));
    let outcome = run_partial_sync(
        &Ring::from_order(members.to_vec()).unwrap(),
        &BTreeMap::from(params.clone()),
        Some(&BTreeMap::from(weights)),
        &FaultPlan::none(),
        VirtualTime::ZERO,
        &SimOptions::quick(&[1.0, 1.0]).link,
        config.handshake_timeout_secs,
        cluster.built.model_bytes,
        cluster.built.model_bytes,
        |_, _, _| {},
    )
    .unwrap();
    let merge = Merge {
        states: params.map(|(_, p)| p).to_vec(),
        samples: weights.map(|(_, w)| w).to_vec(),
        merged: outcome.merged,
    };
    merge.assert_weighted();
}

/// What a device's training state was asked for and given.
#[derive(Default)]
struct Log {
    /// Every `params()` read; the first is the ring's snapshot.
    read: Vec<Vec<f32>>,
    /// Every `set_params` install; the first is the merge.
    installed: Vec<Vec<f32>>,
}

/// A [`DeviceRuntime`] that logs its reads and installs.
struct Logged {
    rt: DeviceRuntime,
    log: Rc<RefCell<Log>>,
}

impl TrainState for Logged {
    fn params(&self) -> Vec<f32> {
        let params = self.rt.params();
        self.log.borrow_mut().read.push(params.clone());
        params
    }

    fn set_params(&mut self, params: &[f32]) -> Result<(), HadflError> {
        self.log.borrow_mut().installed.push(params.to_vec());
        self.rt.set_params(params)
    }

    fn train_step(&mut self) -> Result<(), HadflError> {
        self.rt.train_step()
    }

    fn version(&self) -> f64 {
        self.rt.version()
    }
}

/// Round 1's ring of both devices, merged by sample count (round 2
/// only keeps the run going past it).
#[test]
#[ignore = "two stacks: item 4(c)"]
fn merge_actors() {
    let (workload, config) = weighted_workload();
    let s = Scenario::new(workload, config, &[1.0, 1.0], 2);
    let (mut logs, mut samples) = (Vec::new(), Vec::new());
    let window = Duration::from_secs_f64(s.strategy().window_secs);
    s.actors_with(window, &[], |rt| {
        let log = Rc::new(RefCell::new(Log::default()));
        logs.push(Rc::clone(&log));
        samples.push(rt.shard_len() as f64);
        Logged { rt, log }
    });
    let merge = Merge {
        states: logs.iter().map(|l| l.borrow().read[0].clone()).collect(),
        samples,
        merged: logs[0].borrow().installed[0].clone(),
    };
    assert_eq!(merge.merged, logs[1].borrow().installed[0]);
    merge.assert_weighted();
}

// --- Evaluation ---------------------------------------------------------

/// One `Evaluated` per round, in order.
fn assert_one_evaluation_per_round(events: &[Event]) {
    let expected: Vec<u32> = (1..=DEFAULT.opts.max_rounds as u32).collect();
    assert_eq!(evaluated(events), expected);
}

#[test]
fn evaluation_closed_form() {
    assert_one_evaluation_per_round(&CLOSED.events);
}

#[test]
#[ignore = "two stacks: item 4(e)"]
fn evaluation_actors() {
    assert_one_evaluation_per_round(&ACTORS.events);
}

/// One evaluation path: a merged model is evaluated the same way by the
/// actors' close (`run_virtual`), the closed-form driver's record
/// (`Cluster::record`) and `BuiltWorkload::evaluate_params`, and the
/// merge carries the BatchNorm running statistics it is evaluated with.
#[test]
fn evaluation_one_path_on_both_stacks() {
    let mut workload = Workload::quick("resnet18_lite", 5);
    // Small batches and a small test set keep the test quick.
    workload.device_batch = 8;
    workload.test_size = 32;
    let config = HadflConfig::builder().num_selected(2).build().unwrap();
    // Two local steps on each device's own shard, then one ring of both.
    let step = Duration::from_millis(4);
    let opts = ThreadedOptions::new(&[1.0, 1.0], step, 2 * step, 1);

    // The actors' close evaluates the consensus of the final states.
    let closed = run_virtual(&workload, &config, &opts)
        .unwrap()
        .final_accuracy;

    // The same run by hand, for the merge itself.
    let mut built = workload.build(2).unwrap();
    for rt in &mut built.runtimes {
        rt.set_optimizer(config.lr, config.momentum);
    }
    let runtimes = std::mem::take(&mut built.runtimes);
    let planner = StrategyGenerator::new(&config);
    let (run, _, _) = run_virtual_cluster(runtimes, planner, &config, &opts, &[], &[]).unwrap();
    let merged = run.consensus().unwrap();
    let model = workload.model().unwrap();
    assert_eq!(
        merged.len(),
        model.state_len(),
        "the merge has no statistics"
    );
    assert!(model.state_len() > model.num_params());

    // The closed-form driver records on a cluster whose replicas have
    // trained, each on its shard, as they have by any recorded round.
    let mut cluster = Cluster::new(5, &workload, &SimOptions::quick(&[1.0, 1.0])).unwrap();
    for rt in &mut cluster.built.runtimes {
        rt.train_steps(4).unwrap();
    }
    cluster.record(1, 1.0, 0.0, 0.0, &merged).unwrap();
    let recorded = cluster.finish("hadfl").records[0].test_accuracy;

    let direct = built.evaluate_params(&merged).unwrap().accuracy;
    assert_eq!(closed.to_bits(), direct.to_bits(), "{closed} vs {direct}");
    assert_eq!(
        recorded.to_bits(),
        direct.to_bits(),
        "{recorded} vs {direct}"
    );
}

// --- Model backup -------------------------------------------------------

/// With `backup_every = 1`, one merged model reaches the server per
/// round, `M` bytes each.
#[test]
fn model_backup_closed_form() {
    let run = &*CLOSED;
    assert_eq!(run.backups_taken, DEFAULT.opts.max_rounds);
    let backups = run.backups_taken as u64;
    assert_eq!(
        run.backup_comm.server_bytes,
        backups * DEFAULT.model_bytes()
    );
}

/// Model uploads to the coordinator before the final collection: one
/// per round.
#[test]
#[ignore = "two stacks: items 4(e) and 17"]
fn model_backup_actors() {
    let (k, model) = (DEFAULT.devices() as u32, DEFAULT.model_bytes());
    let rounds = rounds(&ACTORS.events);
    let uploads = rounds.iter().map(|round| {
        let to_server = round
            .frames
            .iter()
            .filter(|f| f.dst == k && f.kind != "final_params");
        to_server.filter(|f| f.bytes >= model).count()
    });
    assert_eq!(
        uploads.collect::<Vec<_>>(),
        vec![1; DEFAULT.opts.max_rounds]
    );
}

// --- Grouping -----------------------------------------------------------

/// Four devices in groups of two, the group heads' ring every second
/// round.
fn grouped_scenario() -> Scenario {
    let config = HadflConfig::builder()
        .group_size(Some(2))
        .inter_group_every(2)
        .seed(77)
        .build()
        .unwrap();
    Scenario::new(Workload::quick("mlp", 77), config, &[2.0, 1.0, 2.0, 1.0], 4)
}

/// Every round plans one ring inside each group of `groups`, and ring
/// frames cross groups in rounds 2 and 4 only.
fn assert_grouped(events: &[Event], groups: &[Vec<usize>]) {
    let group_of = |d: u32| groups.iter().position(|g| g.contains(&(d as usize)));
    let rounds = rounds(events);
    assert_eq!(rounds.len(), 4);
    let mut inter = Vec::new();
    for round in &rounds {
        let ring_groups: BTreeSet<_> = (round.selected.iter())
            .map(|ring| {
                let group = group_of(ring[0]);
                assert!(ring.iter().all(|&d| group_of(d) == group), "ring {ring:?}");
                group
            })
            .collect();
        assert_eq!(ring_groups.len(), groups.len(), "round {}", round.round);
        let crossing = round
            .frames
            .iter()
            .any(|f| ring_payload(f).is_some() && group_of(f.src) != group_of(f.dst));
        if crossing {
            inter.push(round.round);
        }
    }
    assert_eq!(inter, [2, 4], "inter-group rounds");
}

#[test]
fn grouping_closed_form() {
    let run = grouped_scenario().closed_form();
    assert_eq!(run.groups, [vec![0, 1], vec![2, 3]]);
    assert_eq!(run.inter_sync_rounds, [2, 4]);
    assert_grouped(&run.events, &run.groups);
}

#[test]
#[ignore = "two stacks: item 4(f)"]
fn grouping_actors() {
    assert_grouped(
        &grouped_scenario().actors(&[]).events,
        &[vec![0, 1], vec![2, 3]],
    );
}
