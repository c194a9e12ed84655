//! Property-based tests for the profiler's call-tree semantics.
//!
//! The strongest property is a shadow model: a straight-line
//! reference interpreter over the same random scope script (explicit
//! path stack, `total = elapsed`, `self = elapsed - child time`)
//! must reproduce the profiler's dump *exactly* — counts, total/self
//! nanoseconds, bytes, and sort order. On top of that: byte-identical
//! determinism across reruns under [`ManualClock`], the folded-stack
//! round-trip, and the merge algebra.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use hadfl_prof::{
    merge_dumps, parse_folded, scope, scope_bytes, to_folded, ManualClock, ProfileDump, Profiler,
    ScopeGuard, StackRow,
};
use proptest::prelude::*;

const NAMES: [&str; 5] = ["train", "matmul", "blend", "wire", "ring"];

/// One script op decoded from a raw `u32`:
/// `op % 4`: 0 = open `scope`, 1 = open `scope_bytes`, 2 = close the
/// innermost open scope, 3 = advance virtual time. The remaining bits
/// pick the scope name and the advance/byte amount.
#[derive(Debug, Clone, Copy)]
enum Op {
    Open {
        name: &'static str,
        bytes: Option<u64>,
    },
    Close,
    Advance(u64),
}

fn decode(raw: u32) -> Op {
    let name = NAMES[(raw as usize >> 2) % NAMES.len()];
    let amount = u64::from(raw >> 5) % 10_000;
    match raw % 4 {
        0 => Op::Open { name, bytes: None },
        1 => Op::Open {
            name,
            bytes: Some(amount),
        },
        2 => Op::Close,
        _ => Op::Advance(amount),
    }
}

/// Runs the script on a real profiler, closing scopes strictly LIFO.
fn run_script(raw_ops: &[u32]) -> ProfileDump {
    let time = ManualClock::new();
    let prof = Profiler::new(7, Arc::new(time.clone()));
    let guard = prof.install();
    let mut open: Vec<ScopeGuard> = Vec::new();
    for &raw in raw_ops {
        match decode(raw) {
            Op::Open { name, bytes: None } => open.push(scope(name)),
            Op::Open {
                name,
                bytes: Some(b),
            } => open.push(scope_bytes(name, b)),
            Op::Close => {
                open.pop();
            }
            Op::Advance(ns) => time.advance(Duration::from_nanos(ns)),
        }
    }
    while open.pop().is_some() {}
    drop(guard);
    prof.dump()
}

/// The reference interpreter: same script, explicit bookkeeping.
fn shadow_model(raw_ops: &[u32]) -> Vec<StackRow> {
    struct Frame {
        path: String,
        start_ns: u64,
        child_ns: u64,
        bytes: u64,
    }
    let mut now_ns = 0u64;
    let mut stack: Vec<Frame> = Vec::new();
    let mut rows: BTreeMap<String, StackRow> = BTreeMap::new();
    let close_top = |stack: &mut Vec<Frame>, rows: &mut BTreeMap<String, StackRow>, now_ns: u64| {
        let Some(frame) = stack.pop() else { return };
        let elapsed = now_ns - frame.start_ns;
        let row = rows.entry(frame.path.clone()).or_insert_with(|| StackRow {
            stack: frame.path.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            bytes: 0,
        });
        row.count += 1;
        row.total_ns += elapsed;
        row.self_ns += elapsed - frame.child_ns;
        row.bytes += frame.bytes;
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += elapsed;
        }
    };
    for &raw in raw_ops {
        match decode(raw) {
            Op::Open { name, bytes } => {
                let path = match stack.last() {
                    Some(parent) => format!("{};{name}", parent.path),
                    None => name.to_string(),
                };
                stack.push(Frame {
                    path,
                    start_ns: now_ns,
                    child_ns: 0,
                    bytes: bytes.unwrap_or(0),
                });
            }
            Op::Close => close_top(&mut stack, &mut rows, now_ns),
            Op::Advance(ns) => now_ns += ns,
        }
    }
    while !stack.is_empty() {
        close_top(&mut stack, &mut rows, now_ns);
    }
    rows.into_values().collect()
}

fn script_strategy() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..2_000_000, 0..48)
}

proptest! {
    #[test]
    fn dump_matches_the_shadow_model_exactly(raw in script_strategy()) {
        let dump = run_script(&raw);
        let expected = shadow_model(&raw);
        prop_assert_eq!(&dump.stacks, &expected);
        // Implied invariants, asserted anyway so a future model change
        // cannot silently weaken them: sorted unique paths, and
        // self <= total with children accounted inside the parent.
        for pair in dump.stacks.windows(2) {
            prop_assert!(pair[0].stack < pair[1].stack);
        }
        for row in &dump.stacks {
            prop_assert!(row.self_ns <= row.total_ns, "{row:?}");
            let child_total: u64 = dump
                .stacks
                .iter()
                .filter(|c| {
                    c.stack.strip_prefix(&row.stack).is_some_and(|rest| {
                        rest.starts_with(';') && !rest[1..].contains(';')
                    })
                })
                .map(|c| c.total_ns)
                .sum();
            prop_assert_eq!(row.total_ns, row.self_ns + child_total, "{}", row.stack);
        }
    }

    #[test]
    fn identical_scripts_dump_identical_bytes(raw in script_strategy()) {
        let a = serde_json::to_string(&run_script(&raw)).unwrap();
        let b = serde_json::to_string(&run_script(&raw)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn folded_text_round_trips(raw in script_strategy()) {
        let dump = run_script(&raw);
        let parsed = parse_folded(&to_folded(&dump)).unwrap();
        let expected: Vec<(String, u64)> = dump
            .stacks
            .iter()
            .map(|r| (r.stack.clone(), r.self_ns))
            .collect();
        prop_assert_eq!(parsed, expected);
    }

    #[test]
    fn merging_a_dump_with_itself_doubles_every_stack(raw in script_strategy()) {
        let dump = run_script(&raw);
        let merged = merge_dumps(&[dump.clone(), dump.clone()]);
        prop_assert_eq!(merged.stacks.len(), dump.stacks.len());
        for (m, d) in merged.stacks.iter().zip(&dump.stacks) {
            prop_assert_eq!(&m.stack, &d.stack);
            prop_assert_eq!(m.count, 2 * d.count);
            prop_assert_eq!(m.total_ns, 2 * d.total_ns);
            prop_assert_eq!(m.self_ns, 2 * d.self_ns);
            prop_assert_eq!(m.bytes, 2 * d.bytes);
        }
        // Merging one dump is the identity on its rows.
        let single = merge_dumps(std::slice::from_ref(&dump));
        prop_assert_eq!(single.stacks, dump.stacks);
        prop_assert_eq!(single.pools, dump.pools);
    }
}
