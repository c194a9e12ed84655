use std::sync::Arc;
use std::thread;
use std::time::Duration;

use hadfl_nn::{Dataset, LrSchedule};
use hadfl_simnet::NetStats;
use hadfl_telemetry::{EventKind, Telemetry};

use super::{
    CoordHint, CoordinatorActor, CoordinatorRun, DeviceActor, DeviceHint, Planner, ProtocolTiming,
    ThreadedOptions, ThreadedReport, TrainState,
};
use crate::clock::{Clock, ManualClock, WallClock};
use crate::config::HadflConfig;
use crate::coordinator::{RuntimeSupervisor, StrategyGenerator};
use crate::error::HadflError;
use crate::trace::CommSummary;
use crate::transport::{coordinator_id, ChannelTransport, Port};
use crate::workload::{evaluate_with, DeviceRuntime, Workload};

/// Runs one device's protocol loop over `port` until the coordinator
/// sends [`Shutdown`](crate::wire::Message::Shutdown); the device then
/// uploads its final parameters and returns.
///
/// The loop trains one heterogeneity-aware local step per
/// `step_sleep` of the port's clock, the paper's `sleep()`-emulated
/// compute power: a step's own compute and the last sleep's overshoot
/// come out of the wait before the next, a pause longer than one period
/// restarts the schedule instead of catching up in a burst, and steps
/// whose compute alone exceeds the period run back to back. It answers
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
    let clock = port.clock();
    let tel = port.telemetry();
    rt.set_optimizer(LrSchedule::constant(config.lr), config.momentum);
    let me = port.id();
    let participants = port.participants();
    tel.emit(clock.now(), EventKind::DeviceStarted { device: me as u32 });
    let mut actor = DeviceActor::new(me, participants, rt, config.blend_beta, timing.clone())
        .with_telemetry(tel);
    actor.begin_training(clock.now(), 1);
    let mut due = clock.now();
    loop {
        match actor.hint(clock.now()) {
            DeviceHint::Finished => return Ok(()),
            DeviceHint::Train => match port.try_recv()? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => {
                    // No command: one heterogeneity-aware local step,
                    // then wait out what is left of its period.
                    due = next_step_due(due, clock.now(), step_sleep);
                    actor.on_idle(&mut port)?;
                    clock.sleep(due.saturating_sub(clock.now()));
                }
            },
            DeviceHint::Ring(wait) => match port.recv_timeout(wait)? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => actor.on_timer(&mut port, clock.now())?,
            },
        }
    }
}

/// When the local step after one that starts at `start` is due, given
/// that this one was due at `due`: one `period` later. A step late by
/// up to a period (a sleep's overshoot, the last step's compute) keeps
/// the schedule, so the lateness comes out of the next wait; a step
/// later than that (a ring, a blend) restarts the schedule from `start`
/// instead of catching up in a burst.
fn next_step_due(due: Duration, start: Duration, period: Duration) -> Duration {
    if start > due + period {
        start + period
    } else {
        due + period
    }
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
    let clock = port.clock();
    let k = port.participants() - 1;
    let mut actor = CoordinatorActor::new(
        k,
        StrategyGenerator::new(config),
        RuntimeSupervisor::new(config.smoothing_alpha, k)?,
        window,
        rounds,
        timing.clone(),
        clock.now(),
    )
    .with_telemetry(port.telemetry());
    loop {
        match actor.hint(clock.now()) {
            CoordHint::Sleep(d) => {
                clock.sleep(d);
                actor.on_timer(&mut port, clock.now())?;
            }
            CoordHint::Timer => actor.on_timer(&mut port, clock.now())?,
            CoordHint::Recv(left) => match port.recv_timeout(left)? {
                Some(msg) => actor.on_message(&mut port, msg, clock.now())?,
                None => actor.on_timer(&mut port, clock.now())?,
            },
            CoordHint::Done => return Ok(actor.into_run()),
        }
    }
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
/// ports, zero rounds, or anything but one runtime and one finite,
/// positive power per device port; otherwise the coordinator loop's
/// error if it fails, and else the first device loop's.
pub fn run_cluster<P: Port>(
    device_ports: Vec<P>,
    coordinator_port: P,
    runtimes: Vec<DeviceRuntime>,
    config: &HadflConfig,
    opts: &ThreadedOptions,
) -> Result<CoordinatorRun, HadflError> {
    let k = device_ports.len();
    check_cluster(k, opts)?;
    if runtimes.len() != k {
        return Err(HadflError::InvalidConfig(format!(
            "{k} device ports need {k} runtimes, got {}",
            runtimes.len()
        )));
    }
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(k);
        for ((port, rt), power) in device_ports.into_iter().zip(runtimes).zip(&opts.powers) {
            let sleep = Duration::from_secs_f64(opts.step_sleep.as_secs_f64() / power);
            handles.push(scope.spawn(move || run_device(port, rt, config, sleep, &opts.timing)));
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
    let built = workload.build(k)?;
    let mut hub = ChannelTransport::hub(k + 1);
    let coordinator_port = hub.claim(coordinator_id(k))?;
    let device_ports = (0..k).map(|i| hub.claim(i)).collect::<Result<_, _>>()?;
    let wall_clock = WallClock::new();
    let outcome = run_cluster(device_ports, coordinator_port, built.runtimes, config, opts)?;
    let wall = wall_clock.now();
    close_cluster(workload, &built.test, &hub.net_stats(), k, outcome, wall)
}

/// The option checks [`run_cluster`] and [`run_virtual_cluster`]
/// share, for a cluster of `k` devices.
fn check_cluster(k: usize, opts: &ThreadedOptions) -> Result<(), HadflError> {
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
    if opts.powers.iter().any(|&p| !(p > 0.0) || !p.is_finite()) {
        return Err(HadflError::InvalidConfig(format!(
            "bad powers {:?}",
            opts.powers
        )));
    }
    Ok(())
}

/// The close [`run_threaded`] and [`run_virtual`] share: averages the
/// collected final models, tests the mean on a freshly initialised
/// model — not on a trained replica, whose BatchNorm running statistics
/// are not part of the parameter vector and differ from device to
/// device — and reads the byte ledger off the hub's `stats`.
fn close_cluster(
    workload: &Workload,
    test: &Dataset,
    stats: &NetStats,
    k: usize,
    outcome: CoordinatorRun,
    wall: Duration,
) -> Result<ThreadedReport, HadflError> {
    let metrics = evaluate_with(&mut workload.model()?, test, &outcome.consensus()?)?;
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
        rt.set_optimizer(LrSchedule::constant(config.lr), config.momentum);
    }
    let (outcome, stats, elapsed) = run_virtual_cluster(
        built.runtimes,
        StrategyGenerator::new(config),
        config,
        opts,
        &[],
        &[],
    )?;
    close_cluster(workload, &built.test, &stats, k, outcome, elapsed)
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
/// The driver mirrors the blocking loops event-for-event: in-flight
/// messages are delivered to a fixpoint before time advances (channel
/// latency is zero in virtual time), then the clock jumps straight to
/// the earliest pending deadline — a device's next scheduled step
/// (device `i` steps every `opts.step_sleep / opts.powers[i]`), a ring
/// silence timeout, or the coordinator's window/report/final deadline.
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
/// powers that are not one per state, finite and positive, zero rounds,
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
    check_cluster(k, opts)?;
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
    let dead = |i: usize, now: Duration| kills.iter().any(|&(d, at)| d == i && at <= now);
    let supervisor = RuntimeSupervisor::new(config.smoothing_alpha, k)?;

    let clock = ManualClock::new();
    let mut hub = ChannelTransport::hub(k + 1);
    let mut claim = |id: usize| {
        let tel = telemetry.get(id).cloned().unwrap_or_default();
        hub.claim_instrumented(id, tel, Some(Arc::new(clock.clone())))
    };

    let mut coord_port = claim(coordinator_id(k))?;
    let mut coord = CoordinatorActor::new(
        k,
        planner,
        supervisor,
        opts.window,
        opts.rounds,
        opts.timing.clone(),
        clock.now(),
    )
    .with_telemetry(coord_port.telemetry());

    let mut device_ports = Vec::with_capacity(k);
    let mut devices = Vec::with_capacity(k);
    let mut sleeps = Vec::with_capacity(k);
    for (i, state) in states.into_iter().enumerate() {
        let port = claim(i)?;
        let tel = port.telemetry();
        tel.emit(clock.now(), EventKind::DeviceStarted { device: i as u32 });
        let mut actor = DeviceActor::new(i, k + 1, state, config.blend_beta, opts.timing.clone())
            .with_telemetry(tel);
        actor.begin_training(clock.now(), 1);
        device_ports.push(port);
        devices.push(actor);
        sleeps.push(Duration::from_secs_f64(
            opts.step_sleep.as_secs_f64() / opts.powers[i],
        ));
    }
    // Like the blocking loop: step first, then one step per period.
    // Steps and rings take no virtual time, so a device steps on
    // schedule and `now + sleep` is that schedule; only a silence
    // timeout makes a pause, which restarts it (as in the blocking
    // loop when the pause exceeds a period).
    let mut next_step = vec![clock.now(); k];

    let outcome = loop {
        // Deliver every in-flight message before anything else happens:
        // virtual channels have zero latency, so a frame sent "now" is
        // readable "now". Actions below may send more — drain to a
        // fixpoint.
        let now = clock.now();
        loop {
            let mut progressed = false;
            // The blocking coordinator sleeps a window out without
            // reading: what arrives meanwhile (a §III-D warning from a
            // ring still repairing) waits in the mailbox for the
            // collection the window's end opens.
            while !matches!(coord.hint(now), CoordHint::Sleep(_)) {
                let Some(msg) = coord_port.try_recv()? else {
                    break;
                };
                coord.on_message(&mut coord_port, msg, now)?;
                progressed = true;
            }
            for (i, actor) in devices.iter_mut().enumerate() {
                if dead(i, now) {
                    continue;
                }
                while let Some(msg) = device_ports[i].try_recv()? {
                    // A finished device's leftovers are dead frames.
                    if !matches!(actor.hint(now), DeviceHint::Finished) {
                        actor.on_message(&mut device_ports[i], msg, now)?;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }

        let coord_wake = match coord.hint(now) {
            CoordHint::Done => break coord.into_run(),
            CoordHint::Timer => {
                coord.on_timer(&mut coord_port, now)?;
                continue;
            }
            // The blocking driver's Sleep unconditionally ends in
            // on_timer, and an elapsed Recv's recv_timeout(0) returns
            // None into on_timer; both fire immediately here.
            CoordHint::Sleep(d) | CoordHint::Recv(d) if d.is_zero() => {
                coord.on_timer(&mut coord_port, now)?;
                continue;
            }
            CoordHint::Sleep(d) | CoordHint::Recv(d) => now + d,
        };

        // Local steps due at the current instant (ports are empty, so
        // idle is the right action, exactly as in the blocking loop).
        let mut stepped = false;
        for (i, actor) in devices.iter_mut().enumerate() {
            if matches!(actor.hint(now), DeviceHint::Train) && next_step[i] <= now && !dead(i, now)
            {
                actor.on_idle(&mut device_ports[i])?;
                next_step[i] = now + sleeps[i];
                stepped = true;
            }
        }
        if stepped {
            continue;
        }

        // Nothing due now: jump to the earliest pending deadline.
        let mut wake = coord_wake;
        let mut ring_deadline: Vec<Option<Duration>> = vec![None; k];
        for (i, actor) in devices.iter().enumerate() {
            if dead(i, now) {
                continue;
            }
            match actor.hint(now) {
                DeviceHint::Finished => {}
                DeviceHint::Train => wake = wake.min(next_step[i]),
                DeviceHint::Ring(wait) => {
                    let deadline = now + wait;
                    ring_deadline[i] = Some(deadline);
                    wake = wake.min(deadline);
                }
            }
        }
        clock.set(wake);

        // Ring waits that just elapsed with an empty port are silence:
        // fire the §III-D probe logic. (Train steps and coordinator
        // deadlines are re-derived from hints on the next iteration.)
        let now = clock.now();
        for (i, actor) in devices.iter_mut().enumerate() {
            if ring_deadline[i].is_some_and(|d| d <= now)
                && matches!(actor.hint(now), DeviceHint::Ring(_))
                && !dead(i, now)
            {
                actor.on_timer(&mut device_ports[i], now)?;
            }
        }
    };

    Ok((outcome, hub.net_stats(), clock.now()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Duration = Duration::from_millis(4);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn an_on_time_step_is_followed_one_period_later() {
        assert_eq!(next_step_due(ms(10), ms(10), P), ms(14));
    }

    #[test]
    fn lateness_within_a_period_is_absorbed() {
        assert_eq!(next_step_due(ms(10), ms(13), P), ms(14));
        assert_eq!(next_step_due(ms(10), ms(14), P), ms(14));
    }

    #[test]
    fn a_longer_pause_restarts_the_schedule_without_a_burst() {
        assert_eq!(next_step_due(ms(10), ms(25), P), ms(29));
    }

    #[test]
    fn steps_longer_than_the_period_run_back_to_back() {
        // Each step computes for 6 ms of a 4 ms period: the loop never
        // waits, and steps start every 6 ms.
        let compute = ms(6);
        let (mut due, mut now) = (Duration::ZERO, Duration::ZERO);
        for n in 0..10 {
            assert_eq!(now, compute * n);
            due = next_step_due(due, now, P);
            now += compute;
            assert_eq!(due.saturating_sub(now), Duration::ZERO, "step {n}");
        }
    }
}
