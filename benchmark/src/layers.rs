//! Per-layer timings of the traced pass: direct timed calls into each
//! layer's public functions, the same in every workload's traced run.
//!
//! Each timing is the median of [`SAMPLES`] calls after a few untimed
//! ones. The millisecond-scale ones are also reported as a ratio (`_x`)
//! to the calibration probe that resembles them, sampled between that
//! op's own calls, so two runs on a drifting host can be compared.

use crate::ghost::PlanGen;
use crate::probe::Probe;
use crate::stats::median;
use crate::sut::{self, Fabric, ProbeKind, SyncCluster};
use crate::workloads::{Outcome, GHOST_LEN};

const SAMPLES: usize = 30;
const WARM: usize = 3;

fn scale(unit: &str) -> f64 {
    match unit {
        "ns" => 1e9,
        "us" => 1e6,
        _ => 1e3,
    }
}

pub fn measure(out: &mut Outcome, seed: u64, mut probe: Probe) -> Result<(), String> {
    let mut by_name = std::collections::HashMap::new();
    for mut op in sut::micro_ops(GHOST_LEN, seed)? {
        // The op's own probe samples, taken between its calls: whatever
        // state the op leaves the machine in (busy, or just back from a
        // blocking wait), its reference sees the same.
        let mut samples = Vec::with_capacity(SAMPLES);
        let mut reference = Vec::with_capacity(SAMPLES / 2);
        for i in 0..WARM + SAMPLES {
            let dt = (op.run)();
            if i >= WARM {
                samples.push(dt);
            }
            if i % 2 == 1 {
                reference.push(match op.probe {
                    ProbeKind::Mm => probe.mm(),
                    ProbeKind::Copy => probe.copy(),
                });
            }
        }
        let m = median(&samples);
        by_name.insert(op.name, m);
        out.put(
            &format!("{}_{}", op.name, op.unit),
            m * scale(op.unit),
            op.unit,
        );
        if op.unit == "ms" {
            out.put(&format!("{}_x", op.name), m / median(&reference), "x");
        }
    }

    // Derived from the timings above.
    let flops = 2.0 * 64.0 * 128.0 * 64.0;
    out.put(
        "tensor.matmul_gflops",
        flops / by_name["tensor.matmul_64x128x64"] / 1e9,
        "GFLOP/s",
    );
    // acc[i] += src[i]: two reads and a write of 4 bytes per element.
    let touched = 12.0 * GHOST_LEN as f64;
    out.put(
        "aggregate.accumulate_gbps",
        touched / by_name["aggregate.accumulate"] / 1e9,
        "GB/s",
    );
    let overhead = sut::frame_overhead_bytes(GHOST_LEN);
    let frame = (4 * GHOST_LEN + overhead) as f64;
    out.put("net.tcp_mbps", frame / by_name["net.tcp_hop"] / 1e6, "MB/s");
    out.put("wire.frame_overhead_b", overhead as f64, "B");
    out.put(
        "net.raw_overhead_frac",
        sut::tcp_raw_overhead_frac(GHOST_LEN, 8)?,
        "fraction",
    );
    out.put(
        "par.cnn_step_speedup_t2",
        sut::cnn_step_speedup_t2(seed, SAMPLES)?,
        "ratio",
    );

    out.put(
        "telemetry.on_overhead_frac",
        telemetry_overhead(seed)?,
        "fraction",
    );
    out.put("probe.mm_ms_p50", probe.mm_median_s() * 1e3, "ms");
    out.put("probe.copy_ms_p50", probe.copy_median_s() * 1e3, "ms");
    Ok(())
}

/// `sync_chan_ring4` rerun with a ring-buffer telemetry sink on every
/// participant and instrumented ports, against the same with telemetry
/// off: two clusters side by side, blocks of rounds alternating between
/// them. Returns on/off − 1 of the median round time.
fn telemetry_overhead(seed: u64) -> Result<f64, String> {
    const K: usize = 4;
    const BLOCK: usize = 20;
    const BLOCKS: usize = 4;
    let mut sides = Vec::new();
    for telemetry in [false, true] {
        let cluster = SyncCluster::start(Fabric::Chan, K, GHOST_LEN, 0.5, seed, None, telemetry)?;
        sides.push((cluster, PlanGen::new(seed, K, K), Vec::new()));
    }
    for block in 0..=BLOCKS {
        for (cluster, plans, times) in &mut sides {
            for _ in 0..BLOCK {
                let round_s = cluster.round(&plans.next_plan())?;
                // The first block warms both clusters up.
                if block > 0 {
                    times.push(round_s);
                }
            }
        }
    }
    let mut medians = Vec::new();
    for (cluster, _, times) in sides {
        cluster.finish()?;
        medians.push(median(&times));
    }
    Ok(medians[1] / medians[0] - 1.0)
}
