//! Ablation **AB2** (design choice §III-B): how well the double
//! exponential smoothing version predictor (Eq. 7) tracks drifting
//! device speeds, against a last-value predictor and a static warm-up
//! estimate, under compute jitter.
//!
//! This is a pure prediction-accuracy study: we replay jittered version
//! series (a speed *ramp* and a speed *step*, the disturbances §III-B
//! motivates) and measure mean absolute forecast error one round ahead.
//!
//! Run: `cargo run --release -p hadfl-bench --bin ablation_predictor`

use hadfl::predict::VersionPredictor;
use hadfl_bench::write_csv;
use hadfl_tensor::SeedStream;

/// A synthetic cumulative-version series with jitter.
fn series(kind: &str, rounds: usize, rng: &mut SeedStream) -> Vec<f64> {
    let mut out = Vec::with_capacity(rounds);
    let mut v = 0.0;
    for j in 0..rounds {
        let rate = match kind {
            // steady 100 steps/round
            "steady" => 100.0,
            // linear slowdown: 100 → 40 steps/round
            "ramp" => 100.0 - 60.0 * j as f64 / rounds as f64,
            // abrupt halving mid-run (background load arrives)
            "step" => {
                if j < rounds / 2 {
                    100.0
                } else {
                    50.0
                }
            }
            _ => unreachable!("unknown series kind"),
        };
        v += rate * (1.0 + 0.1 * f64::from(rng.normal()));
        out.push(v);
    }
    out
}

fn main() {
    let rounds = 40;
    let mut rows = Vec::new();
    println!("Version-predictor ablation — mean absolute 1-ahead forecast error");
    println!(
        "{:<8} {:>22} {:>14} {:>16}",
        "series", "double-exp (Eq. 7)", "last-value", "static warm-up"
    );
    for kind in ["steady", "ramp", "step"] {
        let mut rng = SeedStream::new(42);
        let vs = series(kind, rounds, &mut rng);
        let prior = vs[0];

        let mut dexp = VersionPredictor::new(0.5).expect("valid alpha");
        let (mut err_dexp, mut err_last, mut err_static) = (0.0, 0.0, 0.0);
        let mut last = prior;
        let mut n = 0.0;
        for (j, &v) in vs.iter().enumerate() {
            if j >= 2 {
                err_dexp += (dexp.forecast(1).expect("observed") - v).abs();
                // last-value forecast of a cumulative series: repeat the
                // last increment.
                let last_inc = last - vs[j - 2];
                err_last += ((last + last_inc) - v).abs();
                // static: assume the warm-up rate forever.
                err_static += (prior * (j + 1) as f64 - v).abs();
                n += 1.0;
            }
            dexp.observe(v);
            last = v;
        }
        println!(
            "{kind:<8} {:>22.1} {:>14.1} {:>16.1}",
            err_dexp / n,
            err_last / n,
            err_static / n
        );
        rows.push(format!(
            "{kind},{:.3},{:.3},{:.3}",
            err_dexp / n,
            err_last / n,
            err_static / n
        ));
    }
    write_csv(
        "ablation_predictor.csv",
        "series,double_exp_mae,last_value_mae,static_mae",
        &rows,
    );
    println!("\nEq. 7 tracks drifting speeds that a static warm-up estimate cannot.");
}
