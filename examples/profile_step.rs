//! Where a training step's time goes: the per-scope self-time table of
//! `hadfl_prof` for one device of a quick workload, one thread or many
//! (`HADFL_THREADS`). The scopes are the ones `hadfl-trace profile` and
//! the `hadfl_op_*` metrics report; this is the same ledger without a
//! cluster around it — the before/after table of a kernel change. The
//! header names the instruction set the conv and matmul kernels ran on
//! (`avx2` or `baseline`), so a table says what it measured. Its last
//! line is the conv ruler: the three conv products' self time over the
//! same run's `im2col` + BatchNorm time, undispatched work that moves
//! with the host's speed and not with a kernel change — so two runs
//! taken minutes apart compare by that ratio, not by microseconds.
//!
//! Run: `cargo run --release --example profile_step -- [model] [steps]`
//! (default `resnet18_lite 1000`)

use std::collections::BTreeMap;
use std::time::Instant;

use hadfl::Workload;
use hadfl_prof::{Profiler, WallClock};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let model = args.next().unwrap_or_else(|| "resnet18_lite".into());
    let steps: usize = args.next().map_or(Ok(1000), |s| s.parse())?;
    if steps == 0 {
        return Err("steps must be at least 1".into());
    }

    let mut built = Workload::quick(&model, 1).build(4)?;
    let device = &mut built.runtimes[0];
    // Buffers the layers keep between steps are allocated here, not
    // under the profiler.
    device.train_steps(5)?;

    let prof = Profiler::new(0, WallClock::shared());
    let start = Instant::now();
    {
        let _installed = prof.install();
        device.train_steps(steps)?;
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;

    // A scope's cost is its self time wherever it was entered from.
    let mut by_scope: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let dump = prof.dump();
    for row in &dump.stacks {
        let leaf = row.stack.rsplit(';').next().unwrap_or(&row.stack);
        let entry = by_scope.entry(leaf).or_default();
        entry.0 += row.self_ns;
        entry.1 += row.count;
    }
    let mut rows: Vec<_> = by_scope.into_iter().collect();
    rows.sort_by_key(|&(name, (self_ns, _))| (std::cmp::Reverse(self_ns), name));

    let per_step = |v: u64| v as f64 / steps as f64;
    println!(
        "{model}, {steps} steps, self time per step, {} kernels",
        hadfl_tensor::simd::kernel_isa()
    );
    println!("{:<24} {:>10} {:>11}", "scope", "us/step", "calls/step");
    for (name, (self_ns, count)) in &rows {
        println!(
            "{name:<24} {:>10.1} {:>11.1}",
            per_step(*self_ns) / 1e3,
            per_step(*count)
        );
    }
    let total_ns: u64 = rows.iter().map(|(_, (self_ns, _))| self_ns).sum();
    println!(
        "scopes {:.1} us/step of {:.1} us/step wall",
        per_step(total_ns) / 1e3,
        wall_us / steps as f64
    );
    let self_ns = |names: &[&str]| -> u64 {
        rows.iter()
            .filter(|(name, _)| names.contains(name))
            .map(|(_, (self_ns, _))| self_ns)
            .sum()
    };
    let conv = self_ns(&[
        "conv_forward",
        "conv_backward_weight",
        "conv_backward_input",
    ]);
    let reference = self_ns(&["im2col", "bn_fwd", "bn_bwd"]);
    if reference > 0 {
        println!(
            "conv ruler {:.3} (conv_forward + conv_backward_weight + conv_backward_input \
             over im2col + bn_fwd + bn_bwd)",
            conv as f64 / reference as f64
        );
    }
    Ok(())
}
