use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hadfl_simnet::NetStats;
use hadfl_telemetry::{EventKind, Telemetry};

use super::{
    step_period, Actor, CoordinatorActor, CoordinatorRun, DeviceActor, Planner, ProtocolTiming,
    ThreadedOptions, ThreadedReport, TrainState, Wake,
};
use crate::clock::{Clock, ManualClock, WallClock};
use crate::config::HadflConfig;
use crate::coordinator::{RuntimeSupervisor, StrategyGenerator};
use crate::error::HadflError;
use crate::trace::CommSummary;
use crate::transport::{coordinator_id, ChannelTransport, Port};
use crate::workload::{BuiltWorkload, DeviceRuntime, Workload};

/// The blocking executor: drives `actor` over `port`, on the port's
/// clock, until it is done. A [`Wake::Sleep`] sleeps and then wakes the
/// actor; a [`Wake::Recv`] blocks for mail until its instant, and wakes
/// the actor only if none came.
fn drive<A: Actor, P: Port>(actor: &mut A, port: &mut P) -> Result<(), HadflError> {
    let clock = port.clock();
    loop {
        match actor.wake() {
            Wake::Done => return Ok(()),
            Wake::Sleep(at) => {
                clock.sleep(at.saturating_sub(clock.now()));
                actor.on_wake(port, clock.now())?;
            }
            Wake::Recv(at) => match port.recv_timeout(at.saturating_sub(clock.now()))? {
                Some(msg) => actor.on_message(port, msg, clock.now())?,
                None => actor.on_wake(port, clock.now())?,
            },
        }
    }
}

/// Runs one device's protocol loop over `port` until the coordinator
/// sends [`Shutdown`](crate::wire::Message::Shutdown); the device then
/// uploads its final parameters and returns.
///
/// The device trains one heterogeneity-aware local step per
/// `step_sleep` of the port's clock, the paper's `sleep()`-emulated
/// compute power ([`DeviceActor::with_step_period`]): a step's own
/// compute and the last sleep's overshoot come out of the wait before
/// the next, a pause longer than one period restarts the schedule
/// instead of catching up in a burst, and steps whose compute alone
/// exceeds the period run back to back. Mail that arrives while it
/// sleeps is read when the next step is due, before the step. It answers
/// [`Handshake`](crate::wire::Message::Handshake) probes, reports
/// versions on request, joins ring synchronizations it is planned
/// into, and blends broadcast models it receives while unselected.
///
/// Time and telemetry come from the port ([`Port::clock`],
/// [`Port::telemetry`]): over an instrumented port the loop emits the
/// device lifecycle, local-step batches and ring events on the same
/// clock as the port's frame events, so a [`ManualClock`] port makes
/// the whole stream deterministic; over a plain port it runs on a wall
/// clock with telemetry off.
///
/// # Errors
///
/// Returns substrate errors from training, and
/// [`HadflError::InvalidConfig`] when the fabric is torn down or a ring
/// synchronization exceeds `timing.ring_hard_limit`.
pub fn run_device<P: Port>(
    mut port: P,
    mut rt: DeviceRuntime,
    config: &HadflConfig,
    step_sleep: Duration,
    timing: &ProtocolTiming,
) -> Result<(), HadflError> {
    rt.set_optimizer(config.lr, config.momentum);
    let mut actor = start_device(&port, rt, config, step_sleep, timing);
    drive(&mut actor, &mut port)
}

/// A device actor on `port`'s clock and telemetry, started: its
/// `DeviceStarted` logged and its first training window open.
fn start_device<T: TrainState, P: Port>(
    port: &P,
    state: T,
    config: &HadflConfig,
    period: Duration,
    timing: &ProtocolTiming,
) -> DeviceActor<T> {
    let (clock, tel, me) = (port.clock(), port.telemetry(), port.id());
    tel.emit(clock.now(), EventKind::DeviceStarted { device: me as u32 });
    let beta = config.blend_beta;
    let actor = DeviceActor::new(me, port.participants(), state, beta, timing.clone());
    let mut actor = actor.with_telemetry(tel).with_step_period(period);
    actor.begin_training(clock.now(), 1);
    actor
}

/// Runs the coordinator's protocol loop over `port` (see
/// [`CoordinatorActor`] for the script), forecasting at
/// `config.smoothing_alpha`. Like [`run_device`], the loop takes its
/// clock and its telemetry handle from the port; with telemetry on it
/// emits round plans with their Eq. (8) selection probabilities, Eq. (7)
/// planned-vs-reported versions, device drops, and round latencies.
///
/// # Errors
///
/// Returns [`HadflError::ClusterDead`] when fewer than two devices
/// remain, [`HadflError::InvalidConfig`] for a smoothing α outside
/// (0, 1), and fabric errors from the transport.
pub fn run_coordinator<P: Port>(
    mut port: P,
    config: &HadflConfig,
    window: Duration,
    rounds: usize,
    timing: &ProtocolTiming,
) -> Result<CoordinatorRun, HadflError> {
    let planner = StrategyGenerator::new(config);
    let mut actor = start_coordinator(&port, planner, config, window, rounds, timing)?;
    drive(&mut actor, &mut port)?;
    Ok(actor.into_run())
}

/// A coordinator actor on `port`'s clock and telemetry, its first
/// window opening now.
fn start_coordinator<Pl: Planner, P: Port>(
    port: &P,
    planner: Pl,
    config: &HadflConfig,
    window: Duration,
    rounds: usize,
    timing: &ProtocolTiming,
) -> Result<CoordinatorActor<Pl>, HadflError> {
    let k = port.participants() - 1;
    let supervisor = RuntimeSupervisor::new(config.smoothing_alpha, k)?;
    let now = port.clock().now();
    let actor = CoordinatorActor::new(k, planner, supervisor, window, rounds, timing.clone(), now);
    Ok(actor.with_telemetry(port.telemetry()))
}

/// Runs a whole cluster on this process's threads, over whatever fabric
/// the ports belong to: one [`run_device`] thread per device port
/// (device `i` taking one local step per `opts.step_sleep /
/// opts.powers[i]` of its port's clock) and [`run_coordinator`] on the
/// caller, joined before returning.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] for fewer than two device
/// ports, zero rounds, or anything but one runtime and one power per
/// device port that [`step_period`] accepts; otherwise the coordinator
/// loop's error if it fails, and else the first device loop's.
pub fn run_cluster<P: Port>(
    device_ports: Vec<P>,
    coordinator_port: P,
    runtimes: Vec<DeviceRuntime>,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<CoordinatorRun, HadflError> {
    let k = device_ports.len();
    let periods = check_cluster(k, opts)?;
    if runtimes.len() != k {
        return Err(HadflError::InvalidConfig(format!(
            "{k} device ports need {k} runtimes, got {}",
            runtimes.len()
        )));
    }
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for ((port, rt), period) in device_ports.into_iter().zip(runtimes).zip(periods) {
            handles.push(scope.spawn(move || run_device(port, rt, config, period, &opts.timing)));
        }
        let run = run_coordinator(
            coordinator_port,
            config,
            opts.window,
            opts.rounds,
            &opts.timing,
        )?;
        for handle in handles {
            handle
                .join()
                .map_err(|_| HadflError::InvalidConfig("device thread panicked".into()))??;
        }
        Ok(run)
    })
}

/// Runs HADFL over real threads and in-process channels. See the
/// module docs.
///
/// # Errors
///
/// Returns configuration/substrate errors from setup, the option
/// errors of [`run_cluster`], and [`HadflError::ClusterDead`] if fewer
/// than two devices survive.
///
/// # Example
///
/// ```no_run
/// use hadfl::exec::{run_threaded, ThreadedOptions};
/// use hadfl::{HadflConfig, Workload};
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let report = run_threaded(
///     &Workload::quick("mlp", 0),
///     &HadflConfig::builder().build()?,
///     &ThreadedOptions::quick(&[2.0, 1.0, 1.0]),
/// )?;
/// println!("consensus accuracy {:.3}", report.final_accuracy);
/// # Ok(())
/// # }
/// ```
pub fn run_threaded(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<ThreadedReport, HadflError> {
    let k = opts.powers.len();
    let mut built = workload.build(k)?;
    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k))?;
    let device_ports = (0..k).map(|i| hub.claim(i)).collect::<Result<_, _>>()?;
    let wall_clock = WallClock::new();
    let runtimes = std::mem::take(&mut built.runtimes);
    let outcome = run_cluster(device_ports, coordinator_port, runtimes, config, opts)?;
    let wall = wall_clock.now();
    close_cluster(&mut built, &hub.net_stats(), k, outcome, wall)
}

/// The option checks [`run_cluster`] and [`run_virtual_cluster`]
/// share, for a cluster of `k` devices; the devices' step periods.
fn check_cluster(k: usize, opts: &ThreadedOptions) -> Result<Vec<Duration>, HadflError> {
    if k < 2 {
        return Err(HadflError::InvalidConfig("need at least 2 devices".into()));
    }
    if opts.powers.len() != k {
        return Err(HadflError::InvalidConfig(format!(
            "{k} devices need {k} powers, got {}",
            opts.powers.len()
        )));
    }
    if opts.rounds == 0 {
        return Err(HadflError::InvalidConfig("need at least 1 round".into()));
    }
    (opts.powers.iter())
        .map(|&power| step_period(opts.step_sleep, power))
        .collect()
}

/// The close [`run_threaded`] and [`run_virtual`] share: averages the
/// collected final states, evaluates the mean through
/// [`BuiltWorkload::evaluate_params`] and reads the byte ledger off the
/// hub's `stats`.
fn close_cluster(
    built: &mut BuiltWorkload,
    stats: &NetStats,
    k: usize,
    outcome: CoordinatorRun,
    wall: Duration,
) -> Result<ThreadedReport, HadflError> {
    let metrics = built.evaluate_params(&outcome.consensus()?)?;
    Ok(ThreadedReport {
        rounds: outcome.rounds,
        final_accuracy: metrics.accuracy,
        peer_bytes: stats.total_bytes() - stats.server_bytes(),
        comm: CommSummary::from_stats(stats, k),
        dropped: outcome.dropped,
        wall,
    })
}

/// [`run_threaded`] in virtual time: the same actors over the same
/// channel hub, but driven by one thread on a [`ManualClock`] as a
/// discrete-event simulation. Heterogeneity becomes exact — a power-4
/// device takes *exactly* 4× the local steps of a power-1 device per
/// window, because steps are scheduled at `step_sleep / power`
/// intervals of virtual time instead of raced against the OS
/// scheduler. Identical inputs give identical reports, so assertions
/// about relative progress ("the fast device outpaces the slow one")
/// hold on any host, however loaded.
///
/// This is [`run_virtual_cluster`] over the workload's
/// [`DeviceRuntime`]s and the paper's [`StrategyGenerator`], telemetry
/// off, nobody killed. `report.wall` is virtual elapsed time.
///
/// # Errors
///
/// As [`run_threaded`].
pub fn run_virtual(
    workload: &Workload,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<ThreadedReport, HadflError> {
    let k = opts.powers.len();
    let mut built = workload.build(k)?;
    for rt in &mut built.runtimes {
        rt.set_optimizer(config.lr, config.momentum);
    }
    let (outcome, stats, elapsed) = run_virtual_cluster(
        std::mem::take(&mut built.runtimes),
        StrategyGenerator::new(config),
        config,
        opts,
        &[],
        &[],
    )?;
    close_cluster(&mut built, &stats, k, outcome, elapsed)
}

/// The virtual-time driver behind [`run_virtual`], over any training
/// state and planner: one [`DeviceActor`] per entry of `states`
/// (blending broadcasts at `config.blend_beta`) and a
/// [`CoordinatorActor`] around `planner` (fed Eq. (7) forecasts at
/// `config.smoothing_alpha`), stepped by one thread over a
/// [`ChannelTransport`] whose ports all read one [`ManualClock`].
/// Returns what the coordinator learned, the hub's byte ledger, and
/// the virtual time the run took.
///
/// This loop reads the same [`Wake`] the blocking loops read, so it
/// mirrors them event for event by construction. At each instant,
/// in-flight messages go to every actor not asleep, to a fixpoint
/// (channel latency is zero in virtual time); then every wake due by
/// now fires in one pass, before any mail the pass sends is read; and
/// when nothing is due, the clock jumps to the earliest wake — a
/// device's next step (device `i` steps every `opts.step_sleep /
/// opts.powers[i]`), a ring's silence or probe deadline, or the
/// coordinator's window, report or final deadline.
///
/// `telemetry` is empty (everything off) or holds one handle per
/// participant — device `i`'s at `i`, the coordinator's last. Each
/// instruments both its participant's port and its actor, as
/// [`run_device`] and [`run_coordinator`] do over an instrumented port:
/// the event stream of a deployment, `t_us` in virtual time, byte for
/// byte the same on identical inputs.
///
/// `kills` injects crash faults: from virtual time `at` on, device `d`
/// of each `(d, at)` is neither stepped nor delivered to. The survivors
/// find out through the protocol's own deadlines and §III-D probes.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] for fewer than two states,
/// powers that are not one per state with a nonzero [`step_period`],
/// zero rounds,
/// a `telemetry` length other than 0 or `states.len() + 1`, a kill
/// naming no device, or a smoothing α outside (0, 1); otherwise as
/// [`run_threaded`].
pub fn run_virtual_cluster<T: TrainState, Pl: Planner>(
    states: Vec<T>,
    planner: Pl,
    config: &HadflConfig,
    opts: &ThreadedOptions,
    telemetry: &[Telemetry],
    kills: &[(usize, Duration)],
) -> Result<(CoordinatorRun, NetStats, Duration), HadflError> {
    let k = states.len();
    let periods = check_cluster(k, opts)?;
    if periods.contains(&Duration::ZERO) {
        return Err(HadflError::InvalidConfig(
            "a zero step period stops virtual time".into(),
        ));
    }
    if !telemetry.is_empty() && telemetry.len() != k + 1 {
        return Err(HadflError::InvalidConfig(format!(
            "{k} devices need 0 or {} telemetry handles, got {}",
            k + 1,
            telemetry.len()
        )));
    }
    if let Some((device, _)) = kills.iter().find(|(device, _)| *device >= k) {
        return Err(HadflError::InvalidConfig(format!(
            "cannot kill device {device} of {k}"
        )));
    }
    let clock = ManualClock::new();
    let mut hub = ChannelTransport::hub(k + 1);
    let mut claim = |id: usize| {
        let tel = telemetry.get(id).cloned().unwrap_or_default();
        hub.claim_instrumented(id, tel, Some(Arc::new(clock.clone())))
    };

    let mut coord_port = claim(coordinator_id(k))?;
    let (window, rounds, timing) = (opts.window, opts.rounds, &opts.timing);
    let mut coord = start_coordinator(&coord_port, planner, config, window, rounds, timing)?;
    let mut devices = Vec::with_capacity(k);
    for ((i, state), period) in states.into_iter().enumerate().zip(periods) {
        let port = claim(i)?;
        devices.push((start_device(&port, state, config, period, timing), port));
    }

    let outcome = loop {
        let now = clock.now();
        // Devices killed by now are neither delivered to nor woken.
        let live = |i: &usize| !kills.iter().any(|&(d, at)| d == *i && at <= now);
        // Mail first: virtual channels have zero latency, so a frame
        // sent "now" is readable "now" by every actor not asleep. What
        // it handles may send more — deliver to a fixpoint.
        loop {
            let mut progressed = deliver(&mut coord, &mut coord_port, now)?;
            for i in (0..k).filter(live) {
                let (actor, port) = &mut devices[i];
                progressed |= deliver(actor, port, now)?;
            }
            if !progressed {
                break;
            }
        }
        if coord.wake() == Wake::Done {
            break coord.into_run();
        }

        // Then every wake due by now fires, in one pass, before any mail
        // the pass sends is read: ring timers, the coordinator's
        // deadline, and a due step's switch to reading its mail — so the
        // step itself lands one pass later.
        let mut fired = false;
        for i in (0..k).filter(live) {
            let (actor, port) = &mut devices[i];
            fired |= fire(actor, port, now)?;
        }
        fired |= fire(&mut coord, &mut coord_port, now)?;
        if fired {
            continue;
        }

        // Nothing due: jump to the earliest wake.
        let wakes = (0..k).filter(live).map(|i| devices[i].0.wake());
        let next = wakes.chain([coord.wake()]).filter_map(Wake::at).min();
        clock.set(next.unwrap_or(now));
    };

    Ok((outcome, hub.net_stats(), clock.now()))
}

/// Hands `actor` its mail at `now` until it sleeps or none is left;
/// whether it took any.
fn deliver<A: Actor, P: Port>(
    actor: &mut A,
    port: &mut P,
    now: Duration,
) -> Result<bool, HadflError> {
    let mut took = false;
    while !matches!(actor.wake(), Wake::Sleep(_)) {
        let Some(msg) = port.try_recv()? else {
            break;
        };
        actor.on_message(port, msg, now)?;
        took = true;
    }
    Ok(took)
}

/// Wakes `actor` if its wake is due by `now`; whether it was.
fn fire<A: Actor, P: Port>(actor: &mut A, port: &mut P, now: Duration) -> Result<bool, HadflError> {
    let due = actor.wake().at().is_some_and(|at| at <= now);
    if due {
        actor.on_wake(port, now)?;
    }
    Ok(due)
}
