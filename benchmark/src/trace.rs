//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span
//! names what ran, where (device), for which round, and which span
//! caused it; a layer's self time is its span minus the part its
//! children cover. The per-round critical path walks causes backwards
//! from the span that finished the round, and what the spans on that
//! path do not cover is the residual the benchmark states.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::stats::median;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// Enclosing span, 0 for none.
    pub parent: u32,
    /// `round`, `on_message`, `on_timer`, `recv`, `send` or `episode`.
    pub name: &'static str,
    /// Frame kind for `on_message`, `recv` and `send`; empty otherwise.
    pub kind: &'static str,
    /// Participant that ran the span (the coordinator is id `k`).
    pub device: u32,
    /// Recipient of a `send`; 0 otherwise.
    pub peer: u32,
    pub round: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

static NEXT_ID: AtomicU32 = AtomicU32::new(1);

pub fn next_id() -> u32 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Shared in-memory span sink with a switch, so one cluster can run
/// traced and untraced rounds side by side.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Arc<Mutex<Vec<Span>>>,
    off: Arc<AtomicBool>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer::default()
    }

    pub fn set_on(&self, on: bool) {
        // Flipped between rounds, while every device is idle.
        self.off.store(!on, Ordering::SeqCst);
    }

    pub fn on(&self) -> bool {
        !self.off.load(Ordering::SeqCst)
    }

    pub fn record(&self, span: Span) {
        self.sink
            .lock()
            .expect("no thread panics holding the span sink")
            .push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .sink
                .lock()
                .expect("no thread panics holding the span sink"),
        )
    }
}

/// Whether a frame kind carries a parameter vector between devices.
pub fn is_param_kind(kind: &str) -> bool {
    matches!(kind, "param_accum" | "merged_params" | "param_sync")
}

/// What the spans say about the rounds of one traced run.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Median self time (children subtracted) of `on_message` by kind, ms.
    pub on_self_ms: HashMap<&'static str, f64>,
    pub send_ms_p50: f64,
    pub recv_wait_ms_p50: f64,
    /// Median time from the end of a parameter frame's `send` to the
    /// return of the `recv` that delivered it: what the fabric does
    /// after the sender is done (wake-up, and the decode inside `recv`).
    pub transit_ms_p50: f64,
    /// Device-to-device parameter frames per round (median; exact when
    /// every round has the same shape).
    pub hops_per_round: f64,
    /// Median share of a round its critical-path spans do not cover.
    pub round_residual_frac: f64,
}

pub fn analyse(spans: &[Span]) -> Breakdown {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns.saturating_sub(s.start_ns);
        }
    }

    let mut on_self: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut send_ms = Vec::new();
    let mut recv_ms = Vec::new();
    let mut hops: HashMap<u32, u32> = HashMap::new();
    // (recipient, kind, round) -> the send that delivered the frame,
    // and the recv that returned it.
    let mut sends: HashMap<(u32, &str, u32), &Span> = HashMap::new();
    let mut recvs: HashMap<(u32, &str, u32), &Span> = HashMap::new();
    let mut last_on_msg: HashMap<u32, &Span> = HashMap::new();
    let mut rounds = Vec::new();
    for s in spans {
        match s.name {
            "on_message" => {
                let own = s.end_ns.saturating_sub(s.start_ns)
                    - child_ns
                        .get(&s.id)
                        .copied()
                        .unwrap_or(0)
                        .min(s.end_ns - s.start_ns);
                on_self.entry(s.kind).or_default().push(own as f64 / 1e6);
                let last = last_on_msg.entry(s.round).or_insert(s);
                if s.end_ns > last.end_ns {
                    *last = s;
                }
            }
            "send" => {
                sends.insert((s.peer, s.kind, s.round), s);
                if is_param_kind(s.kind) {
                    send_ms.push(s.dur_ms());
                    *hops.entry(s.round).or_default() += 1;
                }
            }
            "recv" => {
                recv_ms.push(s.dur_ms());
                recvs.insert((s.device, s.kind, s.round), s);
            }
            "round" => rounds.push(s),
            _ => {}
        }
    }

    // The part of a delivering recv that lies after its send ended.
    let transit_ns = |key: &(u32, &str, u32)| -> u64 {
        match (sends.get(key), recvs.get(key)) {
            (Some(send), Some(recv)) => recv.end_ns.saturating_sub(send.end_ns.max(recv.start_ns)),
            _ => 0,
        }
    };
    let transit_ms: Vec<f64> = sends
        .iter()
        .filter(|(key, _)| is_param_kind(key.1) && recvs.contains_key(*key))
        .map(|(key, _)| transit_ns(key) as f64 / 1e6)
        .collect();

    let mut residuals = Vec::new();
    for root in &rounds {
        let Some(&last) = last_on_msg.get(&root.round) else {
            continue;
        };
        let total = root.end_ns.saturating_sub(root.start_ns);
        if total == 0 {
            continue;
        }
        // Walk causes backwards: the finishing span counts whole, each
        // predecessor from its start to the end of the send that woke
        // the next span, plus that frame's transit.
        let mut covered = last.end_ns.saturating_sub(last.start_ns);
        let mut cur = last;
        loop {
            let key = (cur.device, cur.kind, cur.round);
            let Some(&send) = sends.get(&key) else {
                break;
            };
            let Some(&sender) = by_id.get(&send.parent) else {
                break;
            };
            covered += send.end_ns.saturating_sub(sender.start_ns) + transit_ns(&key);
            if sender.name != "on_message" {
                break; // reached the coordinator's round span
            }
            cur = sender;
        }
        residuals.push(1.0 - (covered as f64 / total as f64).min(1.0));
    }

    let hop_counts: Vec<f64> = hops.values().map(|&h| f64::from(h)).collect();
    Breakdown {
        on_self_ms: on_self.iter().map(|(k, v)| (*k, median(v))).collect(),
        send_ms_p50: median(&send_ms),
        recv_wait_ms_p50: median(&recv_ms),
        transit_ms_p50: median(&transit_ms),
        hops_per_round: median(&hop_counts),
        round_residual_frac: median(&residuals),
    }
}

/// The spans as a JSON array, one object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + 2);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"kind\":\"{}\",\"device\":{},\"peer\":{},\"round\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.kind, s.device, s.peer, s.round, s.start_ns, s.end_ns
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}
