//! The three baseline schemes, pinned bit for bit: one FNV-1a
//! fingerprint over each trace's JSON, plus its record count.

use hadfl::driver::SimOptions;
use hadfl::trace::Trace;
use hadfl::Workload;
use hadfl_baselines::{run_centralized_fedavg, run_decentralized_fedavg, run_distributed};

const GOLDEN_FEDAVG: (u64, usize) = (0x4844_bf64_ec4f_490c, 3);
const GOLDEN_CENTRALIZED: (u64, usize) = (0x8283_118c_2a7f_0377, 3);
const GOLDEN_DISTRIBUTED: (u64, usize) = (0xf151_5e8d_75d6_7dcb, 3);

fn opts() -> SimOptions {
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 3.0;
    opts
}

/// FNV-1a over the trace's JSON, and the number of records in it.
fn fingerprint(trace: &Trace) -> (u64, usize) {
    let json = serde_json::to_string(trace).expect("finite trace serializes");
    let hash = json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (hash, trace.records.len())
}

#[test]
fn baselines_match_golden_fingerprints() {
    let w = Workload::quick("mlp", 1);
    let fedavg = run_decentralized_fedavg(&w, &opts()).unwrap();
    let central = run_centralized_fedavg(&w, &opts()).unwrap();
    let dist = run_distributed(&w, &opts()).unwrap();
    assert_eq!(fingerprint(&fedavg), GOLDEN_FEDAVG, "decentralized FedAvg");
    assert_eq!(
        fingerprint(&central),
        GOLDEN_CENTRALIZED,
        "centralized FedAvg"
    );
    assert_eq!(fingerprint(&dist), GOLDEN_DISTRIBUTED, "distributed");
}
