//! FedAvg, decentralized and centralized: one synchronous round loop.
//!
//! Every round, every device runs one local epoch (`E = 1`), so the
//! round lasts as long as the *slowest* device takes, and then all
//! devices are averaged. Decentralized FedAvg (Hegedűs et al., the
//! paper's second baseline) averages over a gossip ring; centralized
//! FedAvg (McMahan et al., the system of §II-B's server-load analysis)
//! at a parameter server that moves `2·M·K` bytes per round.

use hadfl::aggregate::average_params;
use hadfl::driver::SimOptions;
use hadfl::trace::Trace;
use hadfl::{HadflError, Workload};
use hadfl_simnet::DeviceId;

use crate::cluster;

/// Where a FedAvg round's average is taken.
#[derive(Debug, Clone, Copy)]
enum Merge {
    /// Over a gossip ring of every device.
    Ring,
    /// At a parameter server, whose link carries every upload and
    /// download one after another.
    Server,
}

/// Runs decentralized FedAvg: each round, every device runs
/// `batches_per_epoch` local SGD steps, then all devices average
/// parameters over a gossip ring. One trace record per round.
///
/// # Errors
///
/// Returns configuration errors for degenerate options and substrate
/// errors from training.
///
/// # Example
///
/// See the crate-level example.
pub fn run_decentralized_fedavg(
    workload: &Workload,
    opts: &SimOptions,
) -> Result<Trace, HadflError> {
    fedavg(workload, opts, Merge::Ring)
}

/// Runs classical centralized FedAvg: the same rounds as
/// [`run_decentralized_fedavg`], but every device uploads its parameters
/// to a server and downloads the average, `K` uploads and `K` downloads
/// serialized on the server's link — the centralized bottleneck.
///
/// # Errors
///
/// Returns configuration errors for degenerate options and substrate
/// errors from training.
pub fn run_centralized_fedavg(workload: &Workload, opts: &SimOptions) -> Result<Trace, HadflError> {
    fedavg(workload, opts, Merge::Server)
}

fn fedavg(workload: &Workload, opts: &SimOptions, merge: Merge) -> Result<Trace, HadflError> {
    let (scheme, salt) = match merge {
        Merge::Ring => ("decentralized_fedavg", 0xFEDA_0001),
        Merge::Server => ("centralized_fedavg", 0xCE27_0001),
    };
    let mut cluster = cluster(salt, workload, opts)?;
    let k = cluster.devices.len();
    let batches = cluster.built.batches_per_epoch();
    let mut now = 0.0f64;
    let mut round = 0usize;

    loop {
        round += 1;
        // Local phase: same step count per device, barrier at the slowest.
        let mut slowest = 0.0f64;
        let mut round_loss = 0.0f64;
        for (i, (rng, &steps)) in cluster.device_rngs.iter_mut().zip(&batches).enumerate() {
            let loss = cluster.built.runtimes[i].train_steps(steps)?;
            round_loss += f64::from(loss) / k as f64;
            let secs = cluster.compute.steps_time(DeviceId(i), steps, Some(rng))?;
            slowest = slowest.max(secs);
        }
        // Synchronous merge of parameters across all devices.
        let params: Vec<Vec<f32>> = cluster
            .built
            .runtimes
            .iter()
            .map(|rt| rt.model.param_vector())
            .collect();
        let refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
        let merged = average_params(&refs)?;
        let at = now + slowest;
        let comm = match merge {
            Merge::Ring => cluster.all_reduce(at, &opts.link)?.secs,
            Merge::Server => {
                let (server, wire) = (DeviceId(k), cluster.wire_bytes);
                for &d in &cluster.devices {
                    cluster.send(at, d, server, wire, "param_upload");
                    cluster.send(at, server, d, wire, "param_download");
                }
                // One transfer after another, summed one by one: a
                // product would round differently.
                (0..2 * k).fold(0.0, |secs, _| secs + opts.link.transfer_time(wire))
            }
        };
        for rt in &mut cluster.built.runtimes {
            rt.model.set_param_vector(&merged)?;
        }
        now += slowest + comm;

        let epoch_equiv = cluster.epoch_equiv();
        cluster.record(round, now, epoch_equiv, round_loss as f32, &merged)?;
        if epoch_equiv >= opts.epochs_total || round >= opts.max_rounds {
            break;
        }
    }
    Ok(cluster.finish(scheme))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SimOptions {
        let mut o = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
        o.epochs_total = 5.0;
        o
    }

    fn central_opts() -> SimOptions {
        let mut o = SimOptions::quick(&[2.0, 2.0, 1.0, 1.0]);
        o.epochs_total = 4.0;
        o
    }

    #[test]
    fn fedavg_trains_and_improves() {
        let trace = run_decentralized_fedavg(&Workload::quick("mlp", 1), &quick_opts()).unwrap();
        assert!(!trace.records.is_empty());
        let first = &trace.records[0];
        let last = trace.records.last().unwrap();
        assert!(last.epoch_equiv >= 5.0);
        assert!(last.test_accuracy >= first.test_accuracy);
    }

    #[test]
    fn all_devices_run_equal_steps() {
        let trace = run_decentralized_fedavg(&Workload::quick("mlp", 2), &quick_opts()).unwrap();
        let last = trace.records.last().unwrap();
        assert!(
            last.versions.windows(2).all(|w| w[0] == w[1]),
            "FedAvg devices must pace identically: {:?}",
            last.versions
        );
    }

    #[test]
    fn round_duration_is_straggler_bound() {
        // Doubling every power except the straggler's must leave round
        // times (and so total time) essentially unchanged.
        let base = run_decentralized_fedavg(&Workload::quick("mlp", 3), &{
            let mut o = quick_opts();
            o.powers = vec![1.0, 1.0, 1.0, 1.0];
            o
        })
        .unwrap();
        let boosted = run_decentralized_fedavg(&Workload::quick("mlp", 3), &{
            let mut o = quick_opts();
            o.powers = vec![2.0, 2.0, 2.0, 1.0];
            o
        })
        .unwrap();
        let t1 = base.records.last().unwrap().time_secs;
        let t2 = boosted.records.last().unwrap().time_secs;
        assert!((t1 - t2).abs() / t1 < 0.05, "{t1} vs {t2}");
    }

    #[test]
    fn no_server_traffic() {
        let trace = run_decentralized_fedavg(&Workload::quick("mlp", 5), &quick_opts()).unwrap();
        assert_eq!(trace.comm.server_bytes, 0);
        assert!(trace.comm.total_bytes > 0);
    }

    #[test]
    fn validates_inputs() {
        let w = Workload::quick("mlp", 0);
        for merge in [Merge::Ring, Merge::Server] {
            let mut o = quick_opts();
            o.powers = vec![1.0];
            assert!(fedavg(&w, &o, merge).is_err(), "{merge:?}: one device");
            let mut o = quick_opts();
            o.epochs_total = f64::NAN;
            assert!(fedavg(&w, &o, merge).is_err(), "{merge:?}: NaN epochs");
            let mut o = quick_opts();
            o.epochs_total = f64::INFINITY;
            assert!(
                fedavg(&w, &o, merge).is_err(),
                "{merge:?}: unbounded epochs"
            );
            let mut o = quick_opts();
            o.max_rounds = 0;
            assert!(fedavg(&w, &o, merge).is_err(), "{merge:?}: zero rounds");
        }
    }

    #[test]
    fn centralized_trains() {
        let trace = run_centralized_fedavg(&Workload::quick("mlp", 1), &central_opts()).unwrap();
        assert!(!trace.records.is_empty());
        assert!(trace.records.last().unwrap().epoch_equiv >= 4.0);
    }

    #[test]
    fn server_moves_two_m_k_per_round() {
        let trace = run_centralized_fedavg(&Workload::quick("mlp", 2), &central_opts()).unwrap();
        let rounds = trace.records.len() as u64;
        let expected = 2 * trace.model_bytes * 4 * rounds; // 2·M·K·rounds
        assert_eq!(
            trace.comm.server_bytes, expected,
            "the §II-B formula must hold exactly"
        );
    }

    #[test]
    fn each_device_moves_two_m_per_round() {
        let trace = run_centralized_fedavg(&Workload::quick("mlp", 3), &central_opts()).unwrap();
        let rounds = trace.records.len() as u64;
        for &b in &trace.comm.device_bytes {
            assert_eq!(b, 2 * trace.model_bytes * rounds);
        }
    }
}
