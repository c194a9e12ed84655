//! `hadfl_sim` — general-purpose command-line runner for the simulator:
//! pick a scheme, model, heterogeneity distribution, and budget, get the
//! trace summary (and optionally the full trace as JSON).
//!
//! ```text
//! Usage: hadfl_sim [OPTIONS]
//!   --scheme  hadfl|fedavg|distributed|centralized   (default hadfl)
//!   --model   mlp|resnet18_lite|vgg16_lite           (default mlp)
//!   --powers  comma list, e.g. 3,3,1,1               (default 3,3,1,1)
//!   --epochs  epoch budget                           (default 10)
//!   --np      devices per partial sync (hadfl)       (default 2)
//!   --tsync   sync period in hyperperiods (hadfl)    (default 1)
//!   --seed    master seed                            (default 0)
//!   --json    also print the full trace as JSON
//! ```
//!
//! Example: `cargo run --release -p hadfl-bench --bin hadfl_sim -- \
//!           --scheme hadfl --model resnet18_lite --powers 4,2,2,1 --epochs 12`

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{run_centralized_fedavg, run_decentralized_fedavg, run_distributed};

#[derive(Debug)]
struct Args {
    scheme: String,
    model: String,
    powers: Vec<f64>,
    epochs: f64,
    np: usize,
    tsync: u32,
    seed: u64,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        scheme: "hadfl".into(),
        model: "mlp".into(),
        powers: vec![3.0, 3.0, 1.0, 1.0],
        epochs: 10.0,
        np: 2,
        tsync: 1,
        seed: 0,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--scheme" => args.scheme = value("--scheme")?,
            "--model" => args.model = value("--model")?,
            "--powers" => {
                args.powers = value("--powers")?
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|e| format!("bad power '{s}': {e}"))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--epochs" => {
                args.epochs = value("--epochs")?
                    .parse()
                    .map_err(|e| format!("bad epochs: {e}"))?;
            }
            "--np" => args.np = value("--np")?.parse().map_err(|e| format!("bad np: {e}"))?,
            "--tsync" => {
                args.tsync = value("--tsync")?
                    .parse()
                    .map_err(|e| format!("bad tsync: {e}"))?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad seed: {e}"))?;
            }
            "--json" => args.json = true,
            "--help" | "-h" => return Err("see the module docs at the top of hadfl_sim.rs".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("hadfl_sim: {msg}");
            std::process::exit(2);
        }
    };
    let mut workload = Workload::quick(&args.model, args.seed);
    workload.seed = args.seed;
    let mut opts = SimOptions::quick(&args.powers);
    opts.epochs_total = args.epochs;
    opts.base_step_secs = 0.010 * args.powers.iter().copied().fold(1.0, f64::max);

    let result = match args.scheme.as_str() {
        "hadfl" => {
            let config = HadflConfig::builder()
                .num_selected(args.np)
                .t_sync(args.tsync)
                .seed(args.seed)
                .build()
                .unwrap_or_else(|e| {
                    eprintln!("hadfl_sim: {e}");
                    std::process::exit(2);
                });
            run_hadfl(&workload, &config, &opts).map(|run| {
                println!(
                    "strategy: hyperperiod {:.0} ms, local steps {:?}",
                    run.strategy.hyperperiod_secs * 1e3,
                    run.strategy.local_steps
                );
                run.trace
            })
        }
        "fedavg" => run_decentralized_fedavg(&workload, &opts),
        "distributed" => run_distributed(&workload, &opts),
        "centralized" => run_centralized_fedavg(&workload, &opts),
        other => {
            eprintln!("hadfl_sim: unknown scheme '{other}' (hadfl|fedavg|distributed|centralized)");
            std::process::exit(2);
        }
    };
    let trace = result.unwrap_or_else(|e| {
        eprintln!("hadfl_sim: {e}");
        std::process::exit(1);
    });

    println!(
        "{} on {:?}: {} rounds, {:.1} epochs",
        trace.scheme,
        args.powers,
        trace.records.len(),
        trace.last().map_or(0.0, |r| r.epoch_equiv)
    );
    if let Some((acc, secs)) = trace.time_to_max_accuracy() {
        println!(
            "max test accuracy {:.2}% first reached at {secs:.3} virtual s",
            acc * 100.0
        );
    }
    println!(
        "communication: server {} B, busiest device {} B, total {} B over {} messages",
        trace.comm.server_bytes,
        trace.comm.max_device_bytes(),
        trace.comm.total_bytes,
        trace.comm.messages
    );
    if args.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&trace).expect("trace serializes")
        );
    }
}
