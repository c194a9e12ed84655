//! Synchronous distributed training: the paper's "PyTorch distributed
//! training scheme" baseline (decentralized ring all-reduce of gradients
//! on every iteration, à la Horovod / DDP).

use hadfl::aggregate::average_params;
use hadfl::driver::SimOptions;
use hadfl::trace::Trace;
use hadfl::{HadflError, Workload};
use hadfl_simnet::DeviceId;

use crate::cluster;

/// Runs synchronous data-parallel training with a per-iteration ring
/// all-reduce and returns its trace (one record per epoch).
///
/// Every device computes gradients on its local mini-batch; the
/// iteration completes only when the *slowest* device finishes
/// (`max_i step_time_i`), then the gradient all-reduce runs and every
/// device applies the identical averaged update — so all replicas stay
/// bit-identical, as in DDP.
///
/// # Errors
///
/// Returns configuration errors for degenerate options and substrate
/// errors from training.
///
/// # Example
///
/// See the crate-level example.
pub fn run_distributed(workload: &Workload, opts: &SimOptions) -> Result<Trace, HadflError> {
    let mut cluster = cluster(0xD157_0001, workload, opts)?;
    let k = cluster.devices.len();

    // Iterations per epoch: the max across shards (devices with smaller
    // shards simply wrap around, as DDP samplers do).
    let iters_per_epoch = cluster
        .built
        .batches_per_epoch()
        .into_iter()
        .max()
        .expect("k >= 2 devices");
    let mut now = 0.0f64;
    let epochs = opts.epochs_total.ceil() as usize;

    for epoch in 1..=epochs {
        let mut epoch_loss = 0.0f64;
        for _ in 0..iters_per_epoch {
            // Compute phase: barrier at the slowest device.
            let mut slowest = 0.0f64;
            let mut grads: Vec<Vec<f32>> = Vec::with_capacity(k);
            for (i, rng) in cluster.device_rngs.iter_mut().enumerate() {
                let rt = &mut cluster.built.runtimes[i];
                let (loss, _) = rt.grad_step()?;
                epoch_loss += f64::from(loss) / k as f64;
                let dt = cluster.compute.step_time(DeviceId(i), Some(rng))?;
                slowest = slowest.max(dt);
                grads.push(rt.model.grad_vector());
            }
            // Ring all-reduce of gradients.
            let refs: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
            let avg = average_params(&refs)?;
            let cost = cluster.all_reduce(now + slowest, &opts.link)?;
            for rt in &mut cluster.built.runtimes {
                rt.model.set_grad_vector(&avg)?;
                rt.apply_step()?;
            }
            now += slowest + cost.secs;
        }
        let params = cluster.built.runtimes[0].model.param_vector();
        let train_loss = (epoch_loss / iters_per_epoch as f64) as f32;
        cluster.record(epoch, now, epoch as f64, train_loss, &params)?;
    }
    Ok(cluster.finish("distributed_training"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> SimOptions {
        let mut o = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
        o.epochs_total = 5.0;
        o
    }

    #[test]
    fn distributed_trains_and_improves() {
        let trace = run_distributed(&Workload::quick("mlp", 1), &quick_opts()).unwrap();
        assert_eq!(trace.records.len(), 5);
        let first = &trace.records[0];
        let last = trace.records.last().unwrap();
        assert!(last.test_accuracy >= first.test_accuracy);
        assert!(last.train_loss < first.train_loss);
    }

    #[test]
    fn replicas_stay_identical() {
        // All devices apply identical averaged gradients, so one more
        // epoch from the recorded state must be reproducible: check via
        // version counters being equal.
        let trace = run_distributed(&Workload::quick("mlp", 2), &quick_opts()).unwrap();
        let last = trace.records.last().unwrap();
        assert!(
            last.versions.windows(2).all(|w| w[0] == w[1]),
            "{:?}",
            last.versions
        );
    }

    #[test]
    fn iteration_pace_is_set_by_the_straggler() {
        // Same workload under [1,1,1,1] vs [4,4,4,1]: the straggler-bound
        // run must take as long per epoch (the power-4 devices don't help).
        let homo = run_distributed(&Workload::quick("mlp", 3), &{
            let mut o = quick_opts();
            o.powers = vec![1.0, 1.0, 1.0, 1.0];
            o
        })
        .unwrap();
        let hetero = run_distributed(&Workload::quick("mlp", 3), &{
            let mut o = quick_opts();
            o.powers = vec![4.0, 4.0, 4.0, 1.0];
            o
        })
        .unwrap();
        let t_homo = homo.records.last().unwrap().time_secs;
        let t_hetero = hetero.records.last().unwrap().time_secs;
        assert!(
            (t_homo - t_hetero).abs() / t_homo < 0.05,
            "straggler should dominate: {t_homo} vs {t_hetero}"
        );
    }

    #[test]
    fn no_server_traffic_ring_only() {
        let trace = run_distributed(&Workload::quick("mlp", 4), &quick_opts()).unwrap();
        assert_eq!(trace.comm.server_bytes, 0);
        assert!(trace.comm.total_bytes > 0);
        assert_eq!(trace.comm.device_bytes.len(), 4);
    }

    #[test]
    fn validates_inputs() {
        let w = Workload::quick("mlp", 0);
        let mut o = quick_opts();
        o.powers = vec![1.0];
        assert!(run_distributed(&w, &o).is_err(), "one device");
        let mut o = quick_opts();
        o.epochs_total = f64::NAN;
        assert!(run_distributed(&w, &o).is_err(), "NaN epochs");
        let mut o = quick_opts();
        o.epochs_total = f64::INFINITY;
        assert!(run_distributed(&w, &o).is_err(), "unbounded epochs");
        let mut o = quick_opts();
        o.max_rounds = 0;
        assert!(run_distributed(&w, &o).is_err(), "zero rounds");
    }

    #[test]
    fn comm_grows_with_iterations() {
        let short = run_distributed(&Workload::quick("mlp", 5), &{
            let mut o = quick_opts();
            o.epochs_total = 1.0;
            o
        })
        .unwrap();
        let long = run_distributed(&Workload::quick("mlp", 5), &{
            let mut o = quick_opts();
            o.epochs_total = 3.0;
            o
        })
        .unwrap();
        assert_eq!(long.comm.total_bytes, 3 * short.comm.total_bytes);
    }
}
