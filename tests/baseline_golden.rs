//! The three baseline schemes and the HADFL driver, pinned bit for
//! bit: one FNV-1a fingerprint over each trace's JSON, plus its record
//! count, and HADFL's set-up and backup ledgers.

use hadfl::driver::{run_hadfl, SimOptions};
use hadfl::trace::Trace;
use hadfl::{HadflConfig, Workload};
use hadfl_baselines::{run_centralized_fedavg, run_decentralized_fedavg, run_distributed};
use hadfl_simnet::Jitter;

const GOLDEN_FEDAVG: (u64, usize) = (0x4844_bf64_ec4f_490c, 3);
const GOLDEN_CENTRALIZED: (u64, usize) = (0x8283_118c_2a7f_0377, 3);
const GOLDEN_DISTRIBUTED: (u64, usize) = (0xf151_5e8d_75d6_7dcb, 3);
const GOLDEN_DISTRIBUTED_JITTER: (u64, usize) = (0xe0be_d550_9dd7_e00c, 3);
const GOLDEN_HADFL: (u64, usize) = (0x6c5d_76ea_fd2a_a733, 2);
const GOLDEN_HADFL_SETUP: u64 = 0xdedc_6a21_873f_2d58;
const GOLDEN_HADFL_BACKUP: u64 = 0x6390_395d_6973_a9f8;

fn opts() -> SimOptions {
    let mut opts = SimOptions::quick(&[3.0, 3.0, 1.0, 1.0]);
    opts.epochs_total = 3.0;
    opts
}

/// FNV-1a over a value's JSON.
fn fnv(json: Result<String, serde_json::Error>) -> u64 {
    let json = json.expect("finite values serialize");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The trace's fingerprint, and the number of records in it.
fn fingerprint(trace: &Trace) -> (u64, usize) {
    (fnv(serde_json::to_string(trace)), trace.records.len())
}

#[test]
fn baselines_match_golden_fingerprints() {
    let w = Workload::quick("mlp", 1);
    let fedavg = run_decentralized_fedavg(&w, &opts()).unwrap();
    let central = run_centralized_fedavg(&w, &opts()).unwrap();
    let dist = run_distributed(&w, &opts()).unwrap();
    let jittered = SimOptions {
        jitter: Jitter::Gaussian { std_frac: 0.2 },
        ..opts()
    };
    let dist_jittered = run_distributed(&w, &jittered).unwrap();
    let config = HadflConfig::builder().build().unwrap();
    let hadfl = run_hadfl(&w, &config, &opts()).unwrap();
    assert_eq!(fingerprint(&fedavg), GOLDEN_FEDAVG, "decentralized FedAvg");
    assert_eq!(
        fingerprint(&central),
        GOLDEN_CENTRALIZED,
        "centralized FedAvg"
    );
    assert_eq!(fingerprint(&dist), GOLDEN_DISTRIBUTED, "distributed");
    assert_eq!(
        fingerprint(&dist_jittered),
        GOLDEN_DISTRIBUTED_JITTER,
        "distributed, Gaussian jitter"
    );
    assert_eq!(fingerprint(&hadfl.trace), GOLDEN_HADFL, "HADFL");
    assert_eq!(
        fnv(serde_json::to_string(&hadfl.setup_comm)),
        GOLDEN_HADFL_SETUP,
        "HADFL set-up"
    );
    assert_eq!(
        fnv(serde_json::to_string(&hadfl.backup_comm)),
        GOLDEN_HADFL_BACKUP,
        "HADFL backup"
    );
}
