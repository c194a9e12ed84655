//! The HADFL virtual-time simulation driver: wires the coordinator
//! components, the gossip ring, the fault plan, and the training
//! substrate into the paper's full workflow (§III-A steps 1–9). Its
//! training phase is recorded as telemetry events stamped at virtual
//! time, and the run's [`Trace`] is their fold. [`Cluster`] is the
//! set-up and the record it shares with the baseline schemes.

use std::collections::BTreeMap;
use std::time::Duration;

use hadfl_simnet::{
    ComputeModel, DeviceId, Endpoint, FaultPlan, Jitter, LinkModel, NetStats, VirtualTime,
};
use hadfl_telemetry::{Event, EventKind, RingBufferSink, Telemetry};
use hadfl_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::aggregate::{blend_params, record_gossip_traffic, GossipCost};
use crate::config::HadflConfig;
use crate::coordinator::{RuntimeSupervisor, StrategyGenerator};
use crate::error::HadflError;
use crate::gossip::{run_partial_sync, SyncOutcome};
use crate::group::partition_groups;
use crate::strategy::{step_fits, Strategy};
use crate::topology::Ring;
use crate::trace::{CommSummary, Trace};
use crate::workload::{BuiltWorkload, Workload};

/// Size of a control-plane message (liveness ping, version report,
/// training configuration), bytes. Tiny next to the model.
const CONTROL_MSG_BYTES: u64 = 16;

/// Spreads group indices over the seed space (the 64-bit golden ratio),
/// so neighbouring groups do not share neighbouring seeds' streams.
const GROUP_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Simulation options shared by HADFL and the baseline drivers.
///
/// # Example
///
/// ```
/// use hadfl::driver::SimOptions;
///
/// let opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
/// assert_eq!(opts.powers.len(), 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimOptions {
    /// Seconds one local step takes on a power-1 device.
    pub base_step_secs: f64,
    /// Computing-power ratios, one per device (the paper's arrays,
    /// e.g. `[3, 3, 1, 1]`).
    pub powers: Vec<f64>,
    /// The interconnect model.
    pub link: LinkModel,
    /// Scheduled disconnections.
    pub faults: FaultPlan,
    /// Compute-time jitter (exercises the runtime predictor).
    pub jitter: Jitter,
    /// Stop once this many epochs-equivalent of data have been processed.
    pub epochs_total: f64,
    /// Hard cap on synchronization rounds.
    pub max_rounds: usize,
    /// Model-manager backup period in rounds (`None` disables backup).
    pub backup_every: Option<usize>,
    /// Bytes a model transfer costs on the wire. The lite models are
    /// orders of magnitude smaller than the paper's ResNet-18/VGG-16;
    /// overriding the wire size restores the paper's
    /// communication-to-compute ratio (see DESIGN.md §2). `None` uses
    /// the actual parameter-vector size.
    pub wire_model_bytes: Option<u64>,
}

impl SimOptions {
    /// CI-scale options: a handful of epochs over the given power ratios.
    pub fn quick(powers: &[f64]) -> Self {
        SimOptions {
            base_step_secs: 0.010,
            powers: powers.to_vec(),
            link: LinkModel::pcie3_x8(),
            faults: FaultPlan::none(),
            jitter: Jitter::None,
            epochs_total: 6.0,
            max_rounds: 10_000,
            backup_every: None,
            wire_model_bytes: None,
        }
    }

    /// Checks the options every simulated scheme relies on: at least two
    /// devices, a positive finite epoch budget, a positive round cap and
    /// a positive backup period.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] describing the first
    /// out-of-range field.
    pub fn validate(&self) -> Result<(), HadflError> {
        if self.powers.len() < 2 {
            return Err(HadflError::InvalidConfig(format!(
                "need at least 2 devices, got {}",
                self.powers.len()
            )));
        }
        if !(self.epochs_total > 0.0) || !self.epochs_total.is_finite() {
            return Err(HadflError::InvalidConfig(format!(
                "epochs_total must be positive and finite, got {}",
                self.epochs_total
            )));
        }
        if self.max_rounds == 0 {
            return Err(HadflError::InvalidConfig(
                "max_rounds must be positive".into(),
            ));
        }
        if self.backup_every == Some(0) {
            return Err(HadflError::InvalidConfig(
                "backup_every must be positive".into(),
            ));
        }
        Ok(())
    }
}

/// What every closed-form scheme sets up alike: the built workload, its
/// compute and byte models, one step-time stream per device, and the
/// run's record, events on node `k` (the coordinator or the server)
/// stamped at virtual time, which [`finish`](Cluster::finish) folds into
/// the [`Trace`]. HADFL and the baselines differ only in their loops.
pub struct Cluster {
    /// The workload, built over every device.
    pub built: BuiltWorkload,
    /// Every device, in id order.
    pub devices: Vec<DeviceId>,
    /// Bytes a model transfer costs on the wire.
    pub wire_bytes: u64,
    /// Step times per device, jittered as the options say.
    pub compute: ComputeModel,
    /// Device `i`'s step-time stream.
    pub device_rngs: Vec<SeedStream>,
    tel: Telemetry,
    events: RingBufferSink,
}

impl Cluster {
    /// Validates `opts`, builds `workload` over its devices and forks
    /// device `i`'s step-time stream from `seed` with salt `i`.
    ///
    /// # Errors
    ///
    /// Returns what [`SimOptions::validate`], the workload build and
    /// [`ComputeModel::new`] reject.
    pub fn new(seed: u64, workload: &Workload, opts: &SimOptions) -> Result<Cluster, HadflError> {
        opts.validate()?;
        let k = opts.powers.len();
        let built = workload.build(k)?;
        let wire_bytes = opts.wire_model_bytes.unwrap_or(built.model_bytes);
        let compute =
            ComputeModel::new(opts.base_step_secs, &opts.powers)?.with_jitter(opts.jitter);
        let master_rng = SeedStream::new(seed);
        let events = RingBufferSink::new(usize::MAX);
        Ok(Cluster {
            built,
            devices: (0..k).map(DeviceId).collect(),
            wire_bytes,
            compute,
            device_rngs: (0..k).map(|i| master_rng.fork(i as u64)).collect(),
            tel: Telemetry::new(k as u32, vec![Box::new(events.clone())]),
            events,
        })
    }

    /// Records `event` at virtual time `at` seconds.
    pub fn emit(&self, at: f64, event: EventKind) {
        self.tel.emit(Duration::from_secs_f64(at), event);
    }

    /// Records one transfer at virtual time `at` seconds; device `k`
    /// stands for the coordinator or the server.
    pub fn send(&self, at: f64, from: DeviceId, to: DeviceId, bytes: u64, kind: &str) {
        let sent = EventKind::FrameSent {
            src: from.index() as u32,
            dst: to.index() as u32,
            bytes,
            kind: kind.to_string(),
            lamport: 0,
        };
        self.emit(at, sent);
    }

    /// Records a ring all-reduce over every device, at virtual time `at`
    /// seconds, and returns its cost.
    ///
    /// # Errors
    ///
    /// Returns what [`record_gossip_traffic`] rejects.
    pub fn all_reduce(&self, at: f64, link: &LinkModel) -> Result<GossipCost, HadflError> {
        let send = |from, to, bytes| self.send(at, from, to, bytes, "ring_allreduce");
        record_gossip_traffic(&self.devices, self.wire_bytes, link, send)
    }

    /// Epochs-equivalent of training data processed so far, summed over
    /// every device.
    pub fn epoch_equiv(&self) -> f64 {
        let samples: u64 = self.built.runtimes.iter().map(|rt| rt.samples_seen).sum();
        samples as f64 / self.built.train_size as f64
    }

    /// Evaluates the model state `state` through
    /// [`BuiltWorkload::evaluate_params`](crate::workload::BuiltWorkload::evaluate_params)
    /// and records round `round`'s evaluation at `time_secs`, with every
    /// device's step count as its version.
    ///
    /// # Errors
    ///
    /// Propagates substrate errors from the evaluation.
    pub fn record(
        &mut self,
        round: usize,
        time_secs: f64,
        epoch_equiv: f64,
        train_loss: f32,
        state: &[f32],
    ) -> Result<(), HadflError> {
        let metrics = self.built.evaluate_params(state)?;
        let runtimes = self.built.runtimes.iter();
        let evaluated = EventKind::Evaluated {
            round: round as u32,
            time_secs,
            epoch_equiv,
            train_loss,
            test_accuracy: metrics.accuracy,
            versions: runtimes.map(|rt| rt.steps_done as f64).collect(),
        };
        self.emit(time_secs, evaluated);
        Ok(())
    }

    /// The run's trace under `scheme`: the fold of its events.
    pub fn finish(self, scheme: &str) -> Trace {
        let k = self.devices.len();
        Trace::from_events(scheme, k, self.wire_bytes, &self.events.snapshot())
    }
}

/// Extended trace for HADFL runs: the base [`Trace`] plus setup-phase
/// communication (initial model dispatch) and model-manager backups,
/// which are accounted separately so the steady-state decentralization
/// claim can be checked on `trace.comm` alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HadflRun {
    /// The per-round trace (training-phase communication only), folded
    /// from [`events`](Self::events).
    pub trace: Trace,
    /// The training phase's event stream on node `k`, the coordinator,
    /// stamped at virtual time: the `FrameSent`, `RoundPlanned` and
    /// `Evaluated` events that `trace` folds.
    pub events: Vec<Event>,
    /// Setup-phase communication: initial model dispatch and warm-up
    /// timing reports.
    pub setup_comm: CommSummary,
    /// Backup-phase communication: one merged model uploaded every
    /// `backup_every` rounds.
    pub backup_comm: CommSummary,
    /// Number of backups taken.
    pub backups_taken: usize,
    /// The derived heterogeneity-aware strategy.
    pub strategy: Strategy,
    /// Devices bypassed by the fault-tolerance mechanism, per round
    /// (round index → bypassed devices), only rounds with bypasses.
    pub bypass_log: Vec<(usize, Vec<usize>)>,
    /// The group partition used (one group of every device unless
    /// `HadflConfig::group_size` is set).
    pub groups: Vec<Vec<usize>>,
    /// Rounds at which the inter-group ring ran.
    pub inter_sync_rounds: Vec<usize>,
}

/// Runs the full HADFL workflow over a workload and returns the run.
///
/// Workflow (paper §III-A): initial model dispatch → mutual-negotiation
/// warm-up (small lr, timing measurement) → strategy generation
/// (hyperperiod, `E_i`) → per-round: heterogeneity-aware local training,
/// probabilistic selection, random-ring gossip with fault bypass,
/// non-blocking broadcast to the unselected, runtime version prediction →
/// periodic model backup.
///
/// With `config.group_size` set (§III-C, Fig. 2a) the devices are
/// partitioned by [`partition_groups`] and the per-round part above runs
/// once per group; every `config.inter_group_every` rounds one device per
/// group — whoever broadcast its group's merge — joins a second ring,
/// and tells its group the consensus. `None` is one group of every
/// device, for which that second ring never forms. The trace evaluates
/// the most recent merge: the consensus on inter-group rounds, the last
/// group's model otherwise.
///
/// # Errors
///
/// Returns configuration errors for inconsistent options or a group of
/// fewer than two devices, substrate errors from training, and
/// [`HadflError::ClusterDead`] if every device dies.
///
/// # Example
///
/// ```no_run
/// use hadfl::driver::{run_hadfl, SimOptions};
/// use hadfl::{HadflConfig, Workload};
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let workload = Workload::quick("mlp", 0);
/// let config = HadflConfig::builder().build()?;
/// let run = run_hadfl(&workload, &config, &SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]))?;
/// println!("max accuracy {:.3}", run.trace.max_accuracy());
/// # Ok(())
/// # }
/// ```
pub fn run_hadfl(
    workload: &Workload,
    config: &HadflConfig,
    opts: &SimOptions,
) -> Result<HadflRun, HadflError> {
    // Validated before the groups, so a bad option is named first.
    opts.validate()?;
    let k = opts.powers.len();
    let groups = partition_groups(k, config.group_size.unwrap_or(k))?;
    if groups.iter().any(|g| g.len() < 2) {
        return Err(HadflError::InvalidConfig(
            "every group needs at least 2 devices (adjust group_size)".into(),
        ));
    }
    let seed = config.seed ^ 0xD21E_2E00;
    let mut cluster = Cluster::new(seed, workload, opts)?;
    let mut rep_ring_rng = SeedStream::new(seed).fork(u64::MAX);
    let (server, wire_bytes) = (DeviceId(k), cluster.wire_bytes);
    let mut setup_stats = NetStats::new();
    let mut backup_stats = NetStats::new();

    // --- Setup: initial model dispatch (coordinator → devices). ---
    for i in 0..k {
        setup_stats.record(Endpoint::Server, Endpoint::Device(DeviceId(i)), wire_bytes);
    }

    // --- Mutual negotiation: warm-up training + timing reports. ---
    let Cluster {
        built,
        compute,
        device_rngs,
        ..
    } = &mut cluster;
    let batches = built.batches_per_epoch();
    let mut warmup_end = VirtualTime::ZERO;
    for (i, rt) in built.runtimes.iter_mut().enumerate() {
        rt.set_optimizer(config.warmup_lr, config.momentum);
        let steps = config.warmup_epochs as usize * batches[i];
        rt.train_steps(steps)?;
        let secs = compute.steps_time(DeviceId(i), steps, Some(&mut device_rngs[i]))?;
        warmup_end = warmup_end.max(VirtualTime::ZERO.after(secs));
        setup_stats.record(
            Endpoint::Device(DeviceId(i)),
            Endpoint::Server,
            CONTROL_MSG_BYTES,
        );
    }

    // --- Strategy generation. ---
    let strategy = Strategy::derive(compute, &batches, config.t_sync)?;
    let window = strategy.window_secs;
    // Versions are cumulative update counts; the Eq. (6) prior for round 1
    // is "warm-up steps plus one window's worth of steps".
    let priors: Vec<f64> = (0..k)
        .map(|i| built.runtimes[i].steps_done as f64 + strategy.local_steps[i] as f64)
        .collect();
    let mut supervisor = RuntimeSupervisor::new(config.smoothing_alpha, k)?;
    // One selection stream per group; group 0's is the configured seed's.
    let mut generators: Vec<StrategyGenerator> = (0..groups.len() as u64)
        .map(|gi| {
            StrategyGenerator::new(&HadflConfig {
                seed: config.seed ^ gi.wrapping_mul(GROUP_SEED_STRIDE),
                ..config.clone()
            })
        })
        .collect();
    let shard_samples: Vec<f64> = built
        .runtimes
        .iter()
        .map(|rt| rt.shard_len() as f64)
        .collect();
    for rt in &mut built.runtimes {
        rt.set_optimizer(config.lr, config.momentum);
    }

    let mut bypass_log = Vec::new();
    let mut inter_sync_rounds = Vec::new();
    let mut backups_taken = 0usize;
    let mut device_free: Vec<VirtualTime> = vec![warmup_end; k];
    let mut window_start = warmup_end;
    let mut last_merged: Vec<f32> = built.runtimes[0].model.state_vector();

    for round in 1..=opts.max_rounds {
        let window_end = window_start.after(window);

        // --- Heterogeneity-aware local training within the window. ---
        let Cluster {
            built,
            compute,
            device_rngs,
            ..
        } = &mut cluster;
        let mut round_losses = Vec::with_capacity(k);
        for i in 0..k {
            let dev = DeviceId(i);
            // A device trains only while connected (coarse model: it must
            // be up for the whole window; see DESIGN.md §6).
            let up = opts.faults.is_up(dev, window_start) && opts.faults.is_up(dev, window_end);
            if !up {
                round_losses.push(None);
                device_free[i] = device_free[i].max(window_end);
                continue;
            }
            let budget = window_end.elapsed_since(device_free[i]);
            let rng = &mut device_rngs[i];
            let steps = steps_within(budget, || Ok(compute.step_time(dev, Some(&mut *rng))?))?;
            let loss = built.runtimes[i].train_steps(steps)?;
            round_losses.push(if steps > 0 { Some(loss) } else { None });
            device_free[i] = window_end;
        }
        let versions: Vec<f64> = built
            .runtimes
            .iter()
            .map(|rt| rt.steps_done as f64)
            .collect();

        // --- Coordinator: liveness at round start, one plan per group,
        // control traffic. ---
        let available = opts.faults.available(k, window_start);
        if available.is_empty() {
            return Err(HadflError::ClusterDead { round });
        }
        // superseded by exec
        let predicted: Vec<f64> = (0..k)
            .map(|i| supervisor.forecast(i).unwrap_or(priors[i]))
            .collect();
        let mut plans = Vec::new();
        // Group index → the device holding that group's freshest model:
        // its lone live member, or (below) whoever broadcast its merge.
        let mut heads: BTreeMap<usize, DeviceId> = BTreeMap::new();
        for (gi, group) in groups.iter().enumerate() {
            let live: Vec<DeviceId> = group
                .iter()
                .copied()
                .filter(|&d| opts.faults.is_up(d, window_start))
                .collect();
            if live.len() < 2 {
                if let Some(&only) = live.first() {
                    heads.insert(gi, only);
                }
                continue;
            }
            let predicted_live: Vec<f64> = live.iter().map(|d| predicted[d.index()]).collect();
            let plan = generators[gi].plan_round(&live, &predicted_live)?;
            let at = window_end.as_secs();
            for d in &live {
                // version report up, training configuration down
                cluster.send(at, *d, server, CONTROL_MSG_BYTES, "version_report");
                cluster.send(at, server, *d, CONTROL_MSG_BYTES, "round_plan");
            }
            let probabilities = generators[gi].last_probabilities().unwrap_or_default();
            let planned = plan.event(round, &live, predicted_live, probabilities.to_vec());
            cluster.emit(at, planned);
            plans.push((gi, plan));
        }

        // --- One partial synchronization: the ring merge at `at`, then
        // each audience hears the merged model from its preferred
        // speaker. Both tiers run exactly this. ---
        let mut sync = |ring: &Ring,
                        weights: Option<BTreeMap<DeviceId, f64>>,
                        at: VirtualTime,
                        audiences: &[(DeviceId, Vec<DeviceId>)]|
         -> Result<Option<SyncOutcome>, HadflError> {
            let runtimes = &cluster.built.runtimes;
            let params: BTreeMap<DeviceId, Vec<f32>> = ring
                .members()
                .iter()
                .map(|&d| (d, runtimes[d.index()].model.state_vector()))
                .collect();
            let outcome = match run_partial_sync(
                ring,
                &params,
                weights.as_ref(),
                &opts.faults,
                at,
                &opts.link,
                config.handshake_timeout_secs,
                cluster.built.model_bytes,
                wire_bytes,
                |from, to, bytes| cluster.send(at.as_secs(), from, to, bytes, "ring_allreduce"),
            ) {
                Ok(outcome) => outcome,
                // Every member died inside the window. That is fatal only
                // if nobody else is left; otherwise the ring's devices
                // sit this synchronization out.
                Err(HadflError::ClusterDead { .. }) => {
                    if opts.faults.available(k, at).is_empty() {
                        return Err(HadflError::ClusterDead { round });
                    }
                    bypass_log.push((round, ring.members().iter().map(|d| d.index()).collect()));
                    return Ok(None);
                }
                Err(e) => return Err(e),
            };
            if !outcome.bypassed.is_empty() {
                bypass_log.push((round, outcome.bypassed.iter().map(|d| d.index()).collect()));
            }
            let done = at.after(outcome.comm_secs);
            for d in &outcome.participants {
                let model = &mut cluster.built.runtimes[d.index()].model;
                model.set_state_vector(&outcome.merged)?;
                device_free[d.index()] = done;
            }

            // --- Non-blocking broadcast to the devices outside the ring. ---
            for (preferred, listeners) in audiences {
                let from = speaker(*preferred, &outcome.participants);
                for u in listeners {
                    if !opts.faults.is_up(*u, at) {
                        continue;
                    }
                    cluster.send(done.as_secs(), from, *u, wire_bytes, "param_sync");
                    let model = &mut cluster.built.runtimes[u.index()].model;
                    let mut local = model.state_vector();
                    blend_params(&mut local, &outcome.merged, config.blend_beta)?;
                    model.set_state_vector(&local)?;
                    // Non-blocking: the receiver keeps training; the sender
                    // does not wait either.
                }
            }
            Ok(Some(outcome))
        };

        // --- Intra-group: every planned ring runs as the window closes. ---
        let mut sync_end = window_end;
        for (gi, plan) in plans {
            let weights = config.weight_by_samples.then(|| {
                let members = plan.ring.members().iter();
                members.map(|&d| (d, shard_samples[d.index()])).collect()
            });
            let audience = [(plan.broadcaster, plan.unselected)];
            if let Some(outcome) = sync(&plan.ring, weights, window_end, &audience)? {
                sync_end = sync_end.max(window_end.after(outcome.comm_secs));
                heads.insert(gi, speaker(plan.broadcaster, &outcome.participants));
                last_merged = outcome.merged;
            }
        }

        // --- Inter-group (§III-C): every `inter_group_every` rounds the
        // group heads form a ring of their own once the intra-group
        // rings are done, and each tells its group the consensus. ---
        if round % config.inter_group_every as usize == 0 && heads.len() >= 2 {
            let reps: Vec<DeviceId> = heads.values().copied().collect();
            let ring = Ring::random(&reps, &mut rep_ring_rng)?;
            let weights = config.weight_by_samples.then(|| {
                let group_samples = |gi: usize| groups[gi].iter().map(|d| shard_samples[d.index()]);
                heads
                    .iter()
                    .map(|(&gi, &rep)| (rep, group_samples(gi).sum()))
                    .collect()
            });
            let audiences: Vec<(DeviceId, Vec<DeviceId>)> = heads
                .iter()
                .map(|(&gi, &rep)| {
                    let mates = groups[gi].iter().copied().filter(|&d| d != rep);
                    (rep, mates.collect())
                })
                .collect();
            if let Some(outcome) = sync(&ring, weights, sync_end, &audiences)? {
                inter_sync_rounds.push(round);
                sync_end = sync_end.after(outcome.comm_secs);
                last_merged = outcome.merged;
            }
        }

        // --- Runtime supervision: feed actual versions to the predictor. ---
        // superseded by exec
        for (i, &version) in versions.iter().enumerate() {
            supervisor.observe(i, version);
        }

        // --- Model backup: the lowest-numbered device up at the round's
        // sync end uploads the latest merged model; with nobody up then,
        // the round takes no backup. ---
        if opts
            .backup_every
            .is_some_and(|every| round.is_multiple_of(every))
        {
            if let Some(&uploader) = opts.faults.available(k, sync_end).first() {
                backups_taken += 1;
                backup_stats.record(Endpoint::Device(uploader), Endpoint::Server, wire_bytes);
            }
        }

        // --- Metrics. ---
        let epoch_equiv = cluster.epoch_equiv();
        let live_losses: Vec<f32> = round_losses.iter().flatten().copied().collect();
        let train_loss = if live_losses.is_empty() {
            f32::NAN
        } else {
            live_losses.iter().sum::<f32>() / live_losses.len() as f32
        };
        cluster.record(
            round,
            sync_end.as_secs(),
            epoch_equiv,
            train_loss,
            &last_merged,
        )?;
        if epoch_equiv >= opts.epochs_total || round == opts.max_rounds {
            break;
        }
        window_start = window_end;
    }

    let events = cluster.events.snapshot();
    Ok(HadflRun {
        trace: cluster.finish("hadfl"),
        events,
        setup_comm: CommSummary::from_stats(&setup_stats, k),
        backup_comm: CommSummary::from_stats(&backup_stats, k),
        backups_taken,
        strategy,
        bypass_log,
        groups: groups
            .iter()
            .map(|g| g.iter().map(|d| d.index()).collect())
            .collect(),
        inter_sync_rounds,
    })
}

/// How many steps fit in `budget` seconds, each as long as the next
/// `step_time` draw: steps are taken while they fit what is left
/// ([`step_fits`]). A step that does not fit is drawn and not taken; an
/// empty budget draws none.
fn steps_within(
    mut budget: f64,
    mut step_time: impl FnMut() -> Result<f64, HadflError>,
) -> Result<usize, HadflError> {
    let mut steps = 0;
    while budget > 0.0 {
        let dt = step_time()?;
        if !step_fits(dt, budget) {
            break;
        }
        budget -= dt;
        steps += 1;
    }
    Ok(steps)
}

/// Who tells an audience the merged model: the planned device if it
/// survived the ring, else the first survivor.
fn speaker(preferred: DeviceId, participants: &[DeviceId]) -> DeviceId {
    if participants.contains(&preferred) {
        preferred
    } else {
        participants[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::SelectionPolicy;
    use hadfl_simnet::Outage;

    fn quick_config(seed: u64) -> HadflConfig {
        HadflConfig::builder().seed(seed).build().unwrap()
    }

    #[test]
    fn a_window_takes_the_steps_that_end_in_it_and_no_more() {
        let steps = |budget: f64, dt: f64| steps_within(budget, || Ok(dt)).unwrap();
        // Summed, 31 steps of 2.5 ms leave 2.5 ms less 3.6e-17 of 80 ms.
        assert_eq!(steps(0.08, 0.0025), 32);
        assert_eq!(steps(0.06, 0.01 / 3.0), 18);
        // A step ending past the budget by more than float noise is not
        // taken: the rule never rounds up.
        assert_eq!(steps(0.08, 0.0025 * (1.0 + 1e-7)), 31);
        assert_eq!(steps(0.0025 * (1.0 - 1e-7), 0.0025), 0);
        assert_eq!(steps(0.0, 0.0025), 0);
    }

    #[test]
    fn hadfl_trains_and_improves() {
        let run = run_hadfl(
            &Workload::quick("mlp", 1),
            &quick_config(1),
            &SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]),
        )
        .unwrap();
        assert!(!run.trace.records.is_empty());
        let first = run.trace.records.first().unwrap();
        let last = run.trace.records.last().unwrap();
        assert!(last.epoch_equiv >= 6.0, "ran {} epochs", last.epoch_equiv);
        assert!(
            last.test_accuracy > first.test_accuracy.max(0.2),
            "no learning: {} -> {}",
            first.test_accuracy,
            last.test_accuracy
        );
    }

    #[test]
    fn hadfl_is_deterministic() {
        let opts = SimOptions::quick(&[2.0, 1.0]);
        let a = run_hadfl(&Workload::quick("mlp", 1), &quick_config(7), &opts).unwrap();
        let b = run_hadfl(&Workload::quick("mlp", 1), &quick_config(7), &opts).unwrap();
        assert_eq!(a.trace, b.trace);
        assert_eq!(a.bypass_log, b.bypass_log);
    }

    #[test]
    fn fast_devices_accumulate_more_versions() {
        let run = run_hadfl(
            &Workload::quick("mlp", 2),
            &quick_config(2),
            &SimOptions::quick(&[4.0, 2.0, 2.0, 1.0]),
        )
        .unwrap();
        let last = run.trace.records.last().unwrap();
        assert!(
            last.versions[0] > 2.0 * last.versions[3],
            "power-4 device should far outpace power-1: {:?}",
            last.versions
        );
    }

    #[test]
    fn no_server_model_traffic_during_training() {
        let run = run_hadfl(
            &Workload::quick("mlp", 3),
            &quick_config(3),
            &SimOptions::quick(&[2.0, 1.0, 1.0]),
        )
        .unwrap();
        // Training-phase server traffic is control-plane only: far below
        // one model's size.
        assert!(
            run.trace.comm.server_bytes < run.trace.model_bytes / 2,
            "server moved {} bytes (model is {})",
            run.trace.comm.server_bytes,
            run.trace.model_bytes
        );
        // Setup dispatched exactly one model per device (plus tiny reports).
        assert!(run.setup_comm.server_bytes >= 3 * run.trace.model_bytes);
    }

    #[test]
    fn faulted_device_gets_bypassed() {
        let mut opts = SimOptions::quick(&[1.0, 1.0, 1.0]);
        // Force every sync to include all three devices so the dead one is
        // always in the ring.
        let config = HadflConfig::builder()
            .num_selected(3)
            .seed(5)
            .build()
            .unwrap();
        // Timing under Workload::quick with 3 equal devices: 128-sample
        // shards, 8 batches, 10 ms steps ⇒ 80 ms epochs, 80 ms windows,
        // warm-up ends at 0.08 s. A crash at 0.20 s lands mid-window-2:
        // the device was up when the coordinator planned the round (0.16 s)
        // but dead at sync time (0.24 s) — exactly the §III-D scenario.
        opts.faults = FaultPlan::new(vec![Outage::crash(
            DeviceId(2),
            VirtualTime::from_secs(0.20),
        )])
        .unwrap();
        opts.epochs_total = 8.0;
        let run = run_hadfl(&Workload::quick("mlp", 4), &config, &opts).unwrap();
        assert!(
            !run.bypass_log.is_empty(),
            "device 2 should have been bypassed at least once"
        );
        assert!(run.bypass_log.iter().all(|(_, devs)| devs == &vec![2]));
        // Training still completed.
        assert!(run.trace.records.last().unwrap().epoch_equiv >= 8.0);
    }

    #[test]
    fn backups_are_taken_on_schedule() {
        // Three equal devices: 80 ms windows from 0.08 s, so device 0's
        // crash at 0.20 s falls inside round 2's window; the backup at
        // that round's sync end must go to a device still up.
        for (powers, crash_at) in [(&[2.0, 1.0][..], None), (&[1.0; 3][..], Some(0.20))] {
            let mut opts = SimOptions::quick(powers);
            opts.backup_every = Some(2);
            if let Some(at) = crash_at {
                let crash = Outage::crash(DeviceId(0), VirtualTime::from_secs(at));
                opts.faults = FaultPlan::new(vec![crash]).unwrap();
            }
            let run = run_hadfl(&Workload::quick("mlp", 4), &quick_config(4), &opts).unwrap();
            assert!(run.backups_taken >= 1);
            assert_eq!(
                run.backup_comm.server_bytes,
                run.backups_taken as u64 * run.trace.model_bytes
            );
            if crash_at.is_some() {
                assert_eq!(run.backup_comm.device_bytes[0], 0, "{powers:?}");
            }
        }
    }

    #[test]
    fn worst_case_policy_runs() {
        let config = HadflConfig::builder()
            .selection(SelectionPolicy::WorstCase)
            .seed(6)
            .build()
            .unwrap();
        let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
        // One round covers ~2 epoch-equivalents here; 11 epochs gives ~5
        // rounds so "late" rounds exist.
        opts.epochs_total = 11.0;
        let run = run_hadfl(&Workload::quick("mlp", 5), &config, &opts).unwrap();
        // The worst-case policy must always pick the two stragglers
        // (devices 2 and 3) once versions separate.
        let late_rounds: Vec<_> = run.trace.records.iter().filter(|r| r.round > 2).collect();
        assert!(!late_rounds.is_empty());
        for r in late_rounds {
            assert_eq!(
                r.selected,
                vec![2, 3],
                "round {}: {:?}",
                r.round,
                r.selected
            );
        }
    }

    #[test]
    fn weighted_aggregation_runs_on_noniid_shards() {
        let mut workload = Workload::quick("mlp", 7);
        workload.shard = crate::workload::ShardKind::Dirichlet { alpha: 0.3 };
        let config = HadflConfig::builder()
            .weight_by_samples(true)
            .seed(7)
            .build()
            .unwrap();
        let run = run_hadfl(
            &workload,
            &config,
            &SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]),
        )
        .unwrap();
        let last = run.trace.records.last().unwrap();
        assert!(last.epoch_equiv >= 6.0);
        assert!(last.test_accuracy > 0.15, "accuracy {}", last.test_accuracy);
        // And the weighted run differs from the uniform one.
        let uniform_cfg = HadflConfig::builder().seed(7).build().unwrap();
        let uniform = run_hadfl(
            &workload,
            &uniform_cfg,
            &SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]),
        )
        .unwrap();
        assert_ne!(run.trace, uniform.trace);
    }

    #[test]
    fn validates_options() {
        let w = Workload::quick("mlp", 0);
        let c = quick_config(0);
        assert!(run_hadfl(&w, &c, &SimOptions::quick(&[1.0])).is_err());
        let mut bad = SimOptions::quick(&[1.0, 1.0]);
        bad.epochs_total = 0.0;
        assert!(run_hadfl(&w, &c, &bad).is_err());
        bad.epochs_total = f64::INFINITY;
        assert!(run_hadfl(&w, &c, &bad).is_err());
        let mut bad = SimOptions::quick(&[1.0, 1.0]);
        bad.max_rounds = 0;
        assert!(run_hadfl(&w, &c, &bad).is_err());
        let mut bad = SimOptions::quick(&[1.0, 1.0]);
        bad.backup_every = Some(0);
        assert!(run_hadfl(&w, &c, &bad).is_err());

        // Grouped runs go through the same validation.
        let grouped = HadflConfig::builder().group_size(Some(2)).build().unwrap();
        let good = SimOptions::quick(&[1.0, 1.0, 1.0, 1.0]);
        for bad in [
            SimOptions {
                max_rounds: 0,
                ..good.clone()
            },
            SimOptions {
                backup_every: Some(0),
                ..good.clone()
            },
            // 5 devices into groups of 2 leaves a singleton.
            SimOptions::quick(&[1.0, 1.0, 1.0, 1.0, 1.0]),
        ] {
            let err = run_hadfl(&w, &grouped, &bad).unwrap_err();
            assert!(matches!(err, HadflError::InvalidConfig(_)), "{err}");
        }
    }

    #[test]
    fn grouped_run_trains_and_inter_syncs() {
        let config = HadflConfig::builder()
            .group_size(Some(2))
            .inter_group_every(2)
            .seed(3)
            .build()
            .unwrap();
        let opts = SimOptions::quick(&[2.0, 1.0, 2.0, 1.0]);
        let run = run_hadfl(&Workload::quick("mlp", 2), &config, &opts).unwrap();
        assert_eq!(run.groups, vec![vec![0, 1], vec![2, 3]]);
        assert!(!run.inter_sync_rounds.is_empty());
        assert!(run.inter_sync_rounds.iter().all(|r| r % 2 == 0));
        let last = run.trace.records.last().unwrap();
        assert!(last.epoch_equiv >= opts.epochs_total);
        assert!(last.test_accuracy > 0.2, "accuracy {}", last.test_accuracy);
        // Both groups' selections are on the record.
        assert_eq!(last.selected.len(), 4);
        // Decentralized at both tiers: the server sees control traffic only.
        assert!(run.trace.comm.server_bytes < run.trace.model_bytes / 2);

        // One group is the flat framework: no second tier ever forms.
        let flat = run_hadfl(&Workload::quick("mlp", 2), &quick_config(3), &opts).unwrap();
        assert_eq!(flat.groups, vec![vec![0, 1, 2, 3]]);
        assert!(flat.inter_sync_rounds.is_empty());
    }
}
