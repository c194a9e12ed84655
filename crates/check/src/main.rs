//! CLI for the HADFL protocol model checker.
//!
//! ```text
//! hadfl-check                        # standard battery
//! hadfl-check --devices 3 --select 2 --rounds 1 --crashes 1
//! hadfl-check --seed-bug a           # rediscover a seeded PR-1 bug
//! ```
//!
//! Exit codes: 0 — all invariants held (or the seeded bug was
//! rediscovered); 1 — a violation was found; 2 — usage error.

use std::process::ExitCode;

use hadfl_check::explore::format_trace;
use hadfl_check::{explore, standard_battery, CheckConfig, Report};

const USAGE: &str = "\
hadfl-check: exhaustive model checking of the HADFL ring protocol

USAGE:
    hadfl-check [OPTIONS]

With no options, runs the standard battery of configurations.

OPTIONS:
    --devices <N>         cluster size, 2-6 (single-config run)
    --rounds <N>          synchronization rounds          [default: 1]
    --select <N>          ring size per round             [default: devices]
    --crashes <N>         max crash events to inject      [default: 0]
    --aggressive          let deadlines race in-flight reports
    --allow-cluster-dead  accept a < 2-device cluster death
    --depth <N>           BFS depth bound (default: explore to closure)
    --max-states <N>      state cap                       [default: 1000000]
    --seed-bug <a|b|c>    rediscover a seeded PR-1 bug (needs the
                          `seeded-bugs` feature): a = dropped early ring
                          frames, b = double-counted re-send, c = shutdown
                          sent to alive devices only
    --help                this text
";

struct Cli {
    config: Option<CheckConfig>,
    seed_bug: Option<String>,
}

fn parse_args() -> Result<Cli, String> {
    let mut devices: Option<usize> = None;
    let mut rounds: Option<usize> = None;
    let mut select: Option<usize> = None;
    let mut crashes: Option<usize> = None;
    let mut aggressive = false;
    let mut allow_cluster_dead = false;
    let mut depth: Option<usize> = None;
    let mut max_states: Option<usize> = None;
    let mut seed_bug: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Result<usize, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match arg.as_str() {
            "--devices" => devices = Some(take("--devices")?),
            "--rounds" => rounds = Some(take("--rounds")?),
            "--select" => select = Some(take("--select")?),
            "--crashes" => crashes = Some(take("--crashes")?),
            "--depth" => depth = Some(take("--depth")?),
            "--max-states" => max_states = Some(take("--max-states")?),
            "--aggressive" => aggressive = true,
            "--allow-cluster-dead" => allow_cluster_dead = true,
            "--seed-bug" => {
                seed_bug = Some(args.next().ok_or("--seed-bug needs a|b|c".to_string())?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown option `{other}`")),
        }
    }

    let custom = devices.is_some()
        || rounds.is_some()
        || select.is_some()
        || crashes.is_some()
        || aggressive
        || allow_cluster_dead
        || depth.is_some();
    let config = custom.then(|| {
        let devices = devices.unwrap_or(3);
        CheckConfig {
            devices,
            rounds: rounds.unwrap_or(1),
            select: select.unwrap_or(devices),
            crashes: crashes.unwrap_or(0),
            aggressive_deadline: aggressive,
            allow_cluster_dead,
            max_states: max_states.unwrap_or(1_000_000),
            max_depth: depth,
        }
    });
    Ok(Cli { config, seed_bug })
}

fn describe(cfg: &CheckConfig) -> String {
    format!(
        "{} devices, ring {}, {} round(s), {} crash(es){}{}",
        cfg.devices,
        cfg.select,
        cfg.rounds,
        cfg.crashes,
        if cfg.aggressive_deadline {
            ", aggressive deadlines"
        } else {
            ""
        },
        if cfg.allow_cluster_dead {
            ", cluster death tolerated"
        } else {
            ""
        },
    )
}

/// Runs one config; returns whether a violation was found.
fn run_one(name: &str, cfg: &CheckConfig) -> Result<bool, String> {
    let report: Report = explore(cfg).map_err(|e| e.to_string())?;
    match &report.counterexample {
        None => {
            println!(
                "  ok: {name} — {} states, {} transitions, depth {}, {} terminal(s){}",
                report.states,
                report.transitions,
                report.max_depth,
                report.terminals,
                if report.truncated {
                    " [TRUNCATED: liveness not verified]"
                } else {
                    ""
                },
            );
            Ok(false)
        }
        Some(ce) => {
            println!(
                "  VIOLATION: {name} — {} (after {} states)",
                ce.violation, report.states
            );
            println!("  counterexample ({} steps):", ce.trace.len());
            print!("{}", format_trace(cfg, &ce.trace));
            Ok(true)
        }
    }
}

#[cfg(feature = "seeded-bugs")]
fn run_seeded(which: &str) -> ExitCode {
    use hadfl::exec::seeded;
    let (label, cfg) = match which {
        "a" => (
            "bug A: early ring frames dropped instead of backlogged",
            // Two rounds: in the final round a trailing Shutdown would
            // rescue a stalled ring, masking the livelock.
            CheckConfig {
                devices: 2,
                select: 2,
                rounds: 2,
                ..CheckConfig::default()
            },
        ),
        "b" => (
            "bug B: bypass re-send counted twice",
            // Two rounds: a non-final ring is the only place a member
            // can go quiet long enough to detect a death and bypass it
            // (in the final round the pending Shutdown keeps every
            // member's inbox non-empty, so probes never arm).
            CheckConfig {
                devices: 3,
                select: 3,
                rounds: 2,
                crashes: 1,
                ..CheckConfig::default()
            },
        ),
        "c" => (
            "bug C: shutdown sent to alive devices only",
            CheckConfig {
                devices: 3,
                select: 2,
                rounds: 1,
                aggressive_deadline: true,
                allow_cluster_dead: true,
                ..CheckConfig::default()
            },
        ),
        other => {
            eprintln!("unknown seeded bug `{other}` (expected a, b, or c)");
            return ExitCode::from(2);
        }
    };
    seeded::reset();
    match which {
        "a" => seeded::set_drop_early_ring_frames(true),
        "b" => seeded::set_double_count_on_resend(true),
        _ => seeded::set_shutdown_alive_only(true),
    }
    println!("seeding: {label}");
    println!("config:  {}", describe(&cfg));
    let result = explore(&cfg);
    seeded::reset();
    match result {
        Ok(report) => match report.counterexample {
            Some(ce) => {
                println!(
                    "rediscovered as `{}` after exploring {} states:",
                    ce.violation.kind(),
                    report.states
                );
                println!("{}", ce.violation);
                println!("counterexample ({} steps):", ce.trace.len());
                print!("{}", format_trace(&cfg, &ce.trace));
                ExitCode::SUCCESS
            }
            None => {
                eprintln!(
                    "seeded bug NOT rediscovered ({} states explored)",
                    report.states
                );
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(not(feature = "seeded-bugs"))]
fn run_seeded(_which: &str) -> ExitCode {
    eprintln!(
        "--seed-bug needs the seeded bugs compiled in:\n    \
         cargo run -p hadfl-check --features seeded-bugs -- --seed-bug a"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if let Some(which) = &cli.seed_bug {
        return run_seeded(which);
    }

    let runs: Vec<(String, CheckConfig)> = match cli.config {
        Some(cfg) => vec![(describe(&cfg), cfg)],
        None => standard_battery()
            .into_iter()
            .map(|(name, cfg)| (name.to_string(), cfg))
            .collect(),
    };

    println!("hadfl-check: exploring {} configuration(s)", runs.len());
    let mut failed = false;
    for (name, cfg) in &runs {
        match run_one(name, cfg) {
            Ok(violated) => failed |= violated,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all invariants held across every explored interleaving");
        ExitCode::SUCCESS
    }
}
