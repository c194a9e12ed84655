//! Offline analysis of merged event logs: the library behind the
//! `hadfl-trace` binary.
//!
//! Input is one JSONL log per node (tolerant parsing: malformed lines
//! are counted, not fatal). The analyzer merges the per-node streams
//! into one timeline and derives the paper's headline diagnostics:
//!
//! - per-round prediction absolute error (Eq. 7 forecast vs. actual),
//! - selection-frequency histogram vs. the Eq. 8 expectation logged by
//!   the coordinator,
//! - per-device ring-blocked ("straggler idle") time,
//! - communication volume, checked against both each node's `NetStats`
//!   ledger (exact) and the paper's 2·K·M per-round ring bound.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind, SCHEMA_VERSION};

/// One node's parsed log.
#[derive(Debug, Clone, Default)]
pub struct ParsedLog {
    /// Events in file order.
    pub events: Vec<Event>,
    /// Lines that failed to parse (blank lines are ignored, not
    /// counted).
    pub garbage_lines: usize,
}

/// Parses one JSONL document, skipping malformed lines.
pub fn parse_jsonl(text: &str) -> ParsedLog {
    let mut log = ParsedLog::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match Event::from_json(line) {
            Ok(event) => log.events.push(event),
            Err(_) => log.garbage_lines += 1,
        }
    }
    log
}

/// Merges per-node logs into one timeline.
///
/// When any event carries a Lamport stamp (`lam > 0`) the order is
/// `(lam, node, seq)` — a linear extension of happens-before, immune
/// to cross-node wall-clock skew: a frame's receive always sorts after
/// its send because the receiver max-merged the sender's stamp. Each
/// node's own events stay in `seq` order because its clock is
/// monotonic. Pre-stamp logs (all `lam == 0`) fall back to the legacy
/// `(t_us, node, seq)` wall-clock order.
pub fn merge(logs: &[ParsedLog]) -> Vec<Event> {
    let mut all: Vec<Event> = logs.iter().flat_map(|l| l.events.clone()).collect();
    if all.iter().any(|e| e.lam > 0) {
        all.sort_by_key(|e| (e.lam, e.node, e.seq));
    } else {
        all.sort_by_key(|e| (e.t_us, e.node, e.seq));
    }
    all
}

/// Per-node frame-event totals versus the node's own [`EventKind::Ledger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerCheck {
    /// The node.
    pub node: u32,
    /// Bytes summed over the node's `FrameSent` events.
    pub sent_event_bytes: u64,
    /// Bytes summed over the node's `FrameReceived` events.
    pub recv_event_bytes: u64,
    /// `FrameSent` + `FrameReceived` events.
    pub event_frames: u64,
    /// The node's `Ledger` event, if it emitted one.
    pub ledger: Option<(u64, u64, u64)>,
}

impl LedgerCheck {
    /// True when the per-frame events reproduce the ledger exactly.
    pub fn matches(&self) -> bool {
        match self.ledger {
            Some((sent, recv, frames)) => {
                self.sent_event_bytes == sent
                    && self.recv_event_bytes == recv
                    && self.event_frames == frames
            }
            None => false,
        }
    }
}

/// Sums each node's frame events and pairs them with its ledger.
pub fn ledger_parity(events: &[Event]) -> Vec<LedgerCheck> {
    let mut checks: BTreeMap<u32, LedgerCheck> = BTreeMap::new();
    for event in events {
        let entry = checks.entry(event.node).or_insert_with(|| LedgerCheck {
            node: event.node,
            sent_event_bytes: 0,
            recv_event_bytes: 0,
            event_frames: 0,
            ledger: None,
        });
        match &event.kind {
            EventKind::FrameSent { bytes, .. } => {
                entry.sent_event_bytes += bytes;
                entry.event_frames += 1;
            }
            EventKind::FrameReceived { bytes, .. } => {
                entry.recv_event_bytes += bytes;
                entry.event_frames += 1;
            }
            EventKind::Ledger {
                sent_bytes,
                recv_bytes,
                frames,
            } => {
                entry.ledger = Some((*sent_bytes, *recv_bytes, *frames));
            }
            _ => {}
        }
    }
    checks.into_values().collect()
}

/// Selection tally for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRow {
    /// The device.
    pub device: u32,
    /// Rounds in which the device was drawn.
    pub selected: u64,
    /// Sum of the logged Eq. 8 first-draw probabilities — the
    /// expectation the realized share is compared against.
    pub expected_share: f64,
    /// Realized share of all selection slots.
    pub realized_share: f64,
}

/// The merged-timeline report.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Rounds the coordinator planned.
    pub rounds: u64,
    /// Participants seen emitting events.
    pub nodes: Vec<u32>,
    /// `(round, mean |predicted - actual|)` per round with predictions.
    pub prediction_error: Vec<(u32, f64)>,
    /// Selection histogram rows, by device.
    pub selection: Vec<SelectionRow>,
    /// Per-device seconds spent inside ring phases (training-blocked).
    pub ring_blocked_secs: Vec<(u32, f64)>,
    /// Total payload bytes over all `FrameSent` events.
    pub total_sent_bytes: u64,
    /// Total payload frames sent.
    pub total_sent_frames: u64,
    /// Ring-phase parameter bytes (`param_accum` + `merged_params`).
    pub ring_param_bytes: u64,
    /// The 2·K·M bound those ring bytes must respect: `rounds × 2 ×
    /// mean(K) × max param frame`.
    pub ring_param_bound: u64,
    /// Per-node ledger parity results.
    pub ledgers: Vec<LedgerCheck>,
    /// Devices dropped by the coordinator, with the round.
    pub dropped: Vec<(u32, u32)>,
    /// Bypasses declared (round, dead device).
    pub bypasses: Vec<(u32, u32)>,
}

/// Builds the [`Report`] from a merged timeline.
pub fn report(events: &[Event]) -> Report {
    let mut rep = Report::default();
    let mut nodes: Vec<u32> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    rep.nodes = nodes;

    // Prediction error per round.
    let mut per_round: BTreeMap<u32, Vec<f64>> = BTreeMap::new();
    // Selection tallies.
    let mut selected: BTreeMap<u32, u64> = BTreeMap::new();
    let mut expected: BTreeMap<u32, f64> = BTreeMap::new();
    let mut total_slots = 0u64;
    let mut selected_sizes: Vec<f64> = Vec::new();
    // Ring-blocked time: node -> (round -> enter t_us).
    let mut ring_enter: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut blocked: BTreeMap<u32, f64> = BTreeMap::new();
    let mut max_param_frame = 0u64;

    for event in events {
        match &event.kind {
            EventKind::RoundPlanned {
                available,
                probabilities,
                selected: sel,
                ..
            } => {
                rep.rounds += 1;
                selected_sizes.push(sel.len() as f64);
                total_slots += sel.len() as u64;
                for d in sel {
                    *selected.entry(*d).or_insert(0) += 1;
                }
                for (d, p) in available.iter().zip(probabilities) {
                    *expected.entry(*d).or_insert(0.0) += p;
                }
            }
            EventKind::Prediction {
                round,
                predicted,
                actual,
                ..
            } => {
                per_round
                    .entry(*round)
                    .or_default()
                    .push((predicted - actual).abs());
            }
            EventKind::RingEnter { round, .. } => {
                ring_enter.insert((event.node, *round), event.t_us);
            }
            EventKind::RingExit { round, .. } => {
                if let Some(entered) = ring_enter.remove(&(event.node, *round)) {
                    *blocked.entry(event.node).or_insert(0.0) +=
                        event.t_us.saturating_sub(entered) as f64 / 1e6;
                }
            }
            EventKind::FrameSent { bytes, kind, .. } => {
                rep.total_sent_bytes += bytes;
                rep.total_sent_frames += 1;
                if kind == "param_accum" || kind == "merged_params" {
                    rep.ring_param_bytes += bytes;
                    max_param_frame = max_param_frame.max(*bytes);
                }
            }
            EventKind::DeviceDropped { round, device } => {
                rep.dropped.push((*device, *round));
            }
            EventKind::BypassDeclared { round, dead } => {
                rep.bypasses.push((*round, *dead));
            }
            _ => {}
        }
    }

    rep.prediction_error = per_round
        .into_iter()
        .map(|(round, errs)| {
            let mean = errs.iter().sum::<f64>() / errs.len() as f64;
            (round, mean)
        })
        .collect();

    let mut devices: Vec<u32> = selected.keys().chain(expected.keys()).copied().collect();
    devices.sort_unstable();
    devices.dedup();
    rep.selection = devices
        .into_iter()
        .map(|device| SelectionRow {
            device,
            selected: selected.get(&device).copied().unwrap_or(0),
            expected_share: expected.get(&device).copied().unwrap_or(0.0)
                / rep.rounds.max(1) as f64,
            realized_share: selected.get(&device).copied().unwrap_or(0) as f64
                / total_slots.max(1) as f64,
        })
        .collect();

    rep.ring_blocked_secs = blocked.into_iter().collect();

    // Paper bound: a K-member ring moves 2(K−1) < 2K parameter frames
    // per round, each at most the largest param frame M on the wire.
    let mean_k = if selected_sizes.is_empty() {
        0.0
    } else {
        selected_sizes.iter().sum::<f64>() / selected_sizes.len() as f64
    };
    rep.ring_param_bound = (rep.rounds as f64 * 2.0 * mean_k * max_param_frame as f64) as u64;
    rep.ledgers = ledger_parity(events);
    rep
}

impl Report {
    /// Human-readable rendering (what `hadfl-trace` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "nodes: {:?}   rounds planned: {}\n",
            self.nodes, self.rounds
        ));

        out.push_str("\nprediction error (Eq. 7), mean |forecast - actual| per round:\n");
        if self.prediction_error.is_empty() {
            out.push_str("  (no prediction events)\n");
        }
        for (round, err) in &self.prediction_error {
            out.push_str(&format!("  round {round:>3}: {err:.3}\n"));
        }

        out.push_str("\nselection frequency vs Eq. 8 expectation:\n");
        for row in &self.selection {
            out.push_str(&format!(
                "  device {:>2}: selected {:>4}x  realized share {:.3}  expected share {:.3}\n",
                row.device, row.selected, row.realized_share, row.expected_share
            ));
        }

        out.push_str("\nring-blocked time per device (straggler idle):\n");
        for (node, secs) in &self.ring_blocked_secs {
            out.push_str(&format!("  device {node:>2}: {secs:.4} s\n"));
        }

        out.push_str(&format!(
            "\ncommunication: {} payload bytes over {} frames\n",
            self.total_sent_bytes, self.total_sent_frames
        ));
        out.push_str(&format!(
            "  ring parameter traffic: {} bytes vs 2*K*M bound {} ({})\n",
            self.ring_param_bytes,
            self.ring_param_bound,
            if self.ring_param_bytes <= self.ring_param_bound {
                "within bound"
            } else {
                "EXCEEDS BOUND"
            }
        ));
        for check in &self.ledgers {
            match check.ledger {
                Some((sent, recv, frames)) => out.push_str(&format!(
                    "  node {:>2} ledger: events {}/{}B {}f vs NetStats {}/{}B {}f -> {}\n",
                    check.node,
                    check.sent_event_bytes,
                    check.recv_event_bytes,
                    check.event_frames,
                    sent,
                    recv,
                    frames,
                    if check.matches() { "match" } else { "MISMATCH" }
                )),
                None => out.push_str(&format!(
                    "  node {:>2}: {} sent / {} received event bytes (no ledger event)\n",
                    check.node, check.sent_event_bytes, check.recv_event_bytes
                )),
            }
        }

        if !self.dropped.is_empty() {
            out.push_str(&format!("\ndropped devices: {:?}\n", self.dropped));
        }
        if !self.bypasses.is_empty() {
            out.push_str(&format!("bypasses (round, dead): {:?}\n", self.bypasses));
        }
        out
    }
}

/// Outcome of [`check`]: hard structural errors plus advisory
/// warnings (cross-node wall-clock skew is a warning, not an error —
/// every process stamps `t_us` from its own epoch, so a receive
/// "before" its send is routine and exactly what the causal merge
/// exists to absorb).
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Problems that make the log untrustworthy.
    pub errors: Vec<String>,
    /// Observations worth surfacing (clock skew between nodes).
    pub warnings: Vec<String>,
}

/// Validation for `hadfl-trace --check`. Errors: schema versions,
/// per-node sequence continuity, garbage lines, and exact ledger
/// parity (empty = clean). Warnings: cross-node wall-clock skew — for
/// every received frame whose causally-preceding send is in the logs,
/// a receive timestamp earlier than the send timestamp is reported,
/// summarized per directed sender→receiver pair.
pub fn check(logs: &[ParsedLog]) -> CheckReport {
    let mut errors = Vec::new();
    for (i, log) in logs.iter().enumerate() {
        if log.garbage_lines > 0 {
            errors.push(format!("log {i}: {} malformed lines", log.garbage_lines));
        }
        let mut last_seq: BTreeMap<u32, u64> = BTreeMap::new();
        for event in &log.events {
            if event.v != SCHEMA_VERSION {
                errors.push(format!(
                    "log {i}: schema version {} (reader speaks {})",
                    event.v, SCHEMA_VERSION
                ));
                break;
            }
            if let Some(prev) = last_seq.get(&event.node) {
                if event.seq <= *prev {
                    errors.push(format!(
                        "log {i}: node {} seq went {} -> {} (dropped or reordered lines)",
                        event.node, prev, event.seq
                    ));
                    break;
                }
            }
            last_seq.insert(event.node, event.seq);
        }
    }
    let merged = merge(logs);
    for check in ledger_parity(&merged) {
        if check.ledger.is_some() && !check.matches() {
            errors.push(format!(
                "node {}: frame events ({} sent / {} recv bytes, {} frames) do not reproduce its NetStats ledger {:?}",
                check.node,
                check.sent_event_bytes,
                check.recv_event_bytes,
                check.event_frames,
                check.ledger
            ));
        }
    }
    let mut skew: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new(); // (src,dst) -> (count, max µs)
    let mut sends: BTreeMap<(u32, u64), u64> = BTreeMap::new(); // (src, lamport) -> send t_us
    for event in &merged {
        if let EventKind::FrameSent { src, lamport, .. } = &event.kind {
            if *lamport > 0 {
                sends.insert((*src, *lamport), event.t_us);
            }
        }
    }
    for event in &merged {
        if let EventKind::FrameReceived { src, lamport, .. } = &event.kind {
            if *lamport == 0 {
                continue;
            }
            if let Some(&sent_at) = sends.get(&(*src, *lamport)) {
                if event.t_us < sent_at {
                    let entry = skew.entry((*src, event.node)).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 = entry.1.max(sent_at - event.t_us);
                }
            }
        }
    }
    let warnings = skew
        .into_iter()
        .map(|((src, dst), (count, max_us))| {
            format!(
                "wall-clock skew: node {dst} logged {count} receive(s) from node {src} \
                 before the causally-preceding send (max {max_us} us); \
                 merged order is causal, so the timeline is unaffected"
            )
        })
        .collect();
    CheckReport { errors, warnings }
}

/// One paired `SpanStart`/`SpanEnd` interval on a node's own clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Emitting node.
    pub node: u32,
    /// Per-node span id (first span of an actor is 1).
    pub id: u64,
    /// Enclosing span's id on the same node (0 = top level).
    pub parent: u64,
    /// Segment name (`train`, `ring_reduce`, …).
    pub name: String,
    /// Round the segment belongs to.
    pub round: u32,
    /// Start/end in the node's own microsecond clock.
    pub start_us: u64,
    /// End timestamp; equals `start_us` for instantaneous segments.
    pub end_us: u64,
}

/// Pairs span events by `(node, span id)`. Returns the closed spans
/// (in start order per node) and the count of starts never closed.
pub fn spans(events: &[Event]) -> (Vec<Span>, usize) {
    let mut open: BTreeMap<(u32, u64), Span> = BTreeMap::new();
    let mut closed = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::SpanStart {
                span,
                parent,
                name,
                round,
                ..
            } => {
                open.insert(
                    (event.node, *span),
                    Span {
                        node: event.node,
                        id: *span,
                        parent: *parent,
                        name: name.clone(),
                        round: *round,
                        start_us: event.t_us,
                        end_us: event.t_us,
                    },
                );
            }
            EventKind::SpanEnd { span, .. } => {
                if let Some(mut s) = open.remove(&(event.node, *span)) {
                    s.end_us = event.t_us.max(s.start_us);
                    closed.push(s);
                }
            }
            _ => {}
        }
    }
    let unclosed = open.len();
    closed.sort_by_key(|s| (s.node, s.start_us, s.id));
    (closed, unclosed)
}

/// Renders paired spans as one ASCII Gantt lane per span, grouped by
/// node, over a shared `width`-character time axis. `round` filters to
/// one round's spans.
pub fn render_gantt(spans: &[Span], round: Option<u32>, width: usize) -> String {
    let picked: Vec<&Span> = spans
        .iter()
        .filter(|s| round.is_none_or(|r| s.round == r))
        .collect();
    if picked.is_empty() {
        return "no spans\n".to_string();
    }
    let t0 = picked.iter().map(|s| s.start_us).min().unwrap_or(0);
    let t1 = picked.iter().map(|s| s.end_us).max().unwrap_or(t0);
    let total = (t1 - t0).max(1);
    let width = width.max(10);
    let mut out = format!("span timeline: t0 = {t0} us, {total} us total\n",);
    let mut last_node = None;
    for s in &picked {
        if last_node != Some(s.node) {
            out.push_str(&format!("node {}\n", s.node));
            last_node = Some(s.node);
        }
        let a = ((s.start_us - t0) as f64 / total as f64 * width as f64) as usize;
        let b = ((s.end_us - t0) as f64 / total as f64 * width as f64) as usize;
        let b = b.clamp(a, width.saturating_sub(1));
        let mut bar = vec![b' '; width];
        for c in bar.iter_mut().take(b + 1).skip(a) {
            *c = b'=';
        }
        bar[a] = b'|';
        out.push_str(&format!(
            "  r{:<3} {:<15} [{}] {:>8} .. {:<8} us\n",
            s.round,
            s.name,
            String::from_utf8_lossy(&bar),
            s.start_us - t0,
            s.end_us - t0,
        ));
    }
    out
}

/// Renders paired spans as a JSON array (machine-readable Gantt).
pub fn spans_to_json(spans: &[Span], round: Option<u32>) -> String {
    let rows: Vec<String> = spans
        .iter()
        .filter(|s| round.is_none_or(|r| s.round == r))
        .map(|s| {
            format!(
                "{{\"node\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"round\":{},\"start_us\":{},\"end_us\":{}}}",
                s.node, s.id, s.parent, s.name, s.round, s.start_us, s.end_us
            )
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// One hop of the round's critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalStep {
    /// Node whose clock the hop elapsed on (receiver for network hops).
    pub node: u32,
    /// Attributed segment: a span name, `network`, or `unattributed`.
    pub segment: String,
    /// Hop latency in microseconds.
    pub weight_us: u64,
}

/// The longest happens-before chain from a round's `RoundPlanned` to
/// its causally-latest `RingExit`, with the end-to-end latency
/// attributed hop by hop to spans and network edges.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// The round analyzed.
    pub round: u32,
    /// End-to-end critical-path latency in microseconds.
    pub total_us: u64,
    /// Device whose on-node time dominates the path.
    pub straggler: Option<u32>,
    /// Segment with the largest attributed share.
    pub dominant_segment: Option<String>,
    /// Total microseconds attributed to each segment.
    pub per_segment_us: BTreeMap<String, u64>,
    /// Total on-node microseconds per node along the path.
    pub per_node_us: BTreeMap<u32, u64>,
    /// The chain itself, in causal order.
    pub steps: Vec<CriticalStep>,
    /// Eq. 7 cross-check: `(device, predicted, actual)` for the round.
    pub predictions: Vec<(u32, f64, f64)>,
    /// Eq. 8 cross-check: the round's first-draw probabilities.
    pub expected_shares: Vec<(u32, f64)>,
    /// Structural problems (`--check` fails on these).
    pub errors: Vec<String>,
    /// Advisory observations (skew, unmatched sends).
    pub warnings: Vec<String>,
}

/// Rounds with a `RoundPlanned` event, ascending.
pub fn rounds_planned(events: &[Event]) -> Vec<u32> {
    let mut rounds: Vec<u32> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::RoundPlanned { round, .. } => Some(*round),
            _ => None,
        })
        .collect();
    rounds.sort_unstable();
    rounds.dedup();
    rounds
}

/// Reconstructs the happens-before graph over the merged timeline and
/// extracts `round`'s critical path.
///
/// Vertices are events; edges are (a) consecutive events on one node,
/// weighted by that node's own clock delta — skew-free because both
/// ends share an epoch — and (b) matched `FrameSent`→`FrameReceived`
/// pairs (by sender and Lamport stamp), weighted by the cross-node
/// timestamp delta clamped at zero. The merged causal order is a
/// topological order of this DAG (same-node edges follow `seq` with a
/// monotone clock; a receive max-merges its send's stamp), so one
/// forward pass computes longest distances.
pub fn critical_path(events: &[Event], round: u32) -> CriticalPath {
    let mut cp = CriticalPath {
        round,
        ..CriticalPath::default()
    };
    let n = events.len();

    // Same-node chains, in merged (= per-node seq) order.
    let mut next_on_node: Vec<Option<usize>> = vec![None; n];
    let mut last_on_node: BTreeMap<u32, usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Some(&prev) = last_on_node.get(&e.node) {
            next_on_node[prev] = Some(i);
        }
        last_on_node.insert(e.node, i);
    }

    // Frame matching by (sender, Lamport stamp).
    let mut send_at: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let EventKind::FrameSent { src, lamport, .. } = &e.kind {
            if *lamport > 0 && send_at.insert((*src, *lamport), i).is_some() {
                cp.errors
                    .push(format!("duplicate send stamp (src {src}, lam {lamport})"));
            }
        }
    }
    let mut frame_edge: Vec<Option<usize>> = vec![None; n]; // send idx -> recv idx
    let mut matched_sends = 0usize;
    let mut skew: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new(); // (src,dst) -> (count, max us)
    for (i, e) in events.iter().enumerate() {
        if let EventKind::FrameReceived { src, lamport, .. } = &e.kind {
            if *lamport == 0 {
                continue;
            }
            match send_at.get(&(*src, *lamport)) {
                Some(&s) => {
                    // The receiver's observe guarantees its clock
                    // strictly dominates the frame's stamp — compare
                    // against the stamp, not the send event's reading,
                    // which concurrent emitters may have advanced.
                    if e.lam <= *lamport {
                        cp.errors.push(format!(
                            "lamport violation: node {} received (src {src}, lam {lamport}) \
                             without advancing past the frame's stamp",
                            e.node
                        ));
                    }
                    if s >= i {
                        cp.errors.push(format!(
                            "causal order violation: receive of (src {src}, lam {lamport}) \
                             merged before its send"
                        ));
                    } else {
                        frame_edge[s] = Some(i);
                        matched_sends += 1;
                        if e.t_us < events[s].t_us {
                            let entry = skew.entry((*src, e.node)).or_insert((0, 0));
                            entry.0 += 1;
                            entry.1 = entry.1.max(events[s].t_us - e.t_us);
                        }
                    }
                }
                None => cp.errors.push(format!(
                    "unmatched receive: node {} got (src {src}, lam {lamport}) but no log \
                     records that send",
                    e.node
                )),
            }
        }
    }
    for ((src, dst), (count, max_us)) in &skew {
        cp.warnings.push(format!(
            "skew: node {dst} received {count} frame(s) from node {src} before the \
             send's wall clock (max {max_us} us); attribution uses causal order"
        ));
    }
    let stamped_sends = send_at.len();
    if matched_sends < stamped_sends {
        cp.warnings.push(format!(
            "{} stamped send(s) have no logged receive (dropped frames or a missing node log)",
            stamped_sends - matched_sends
        ));
    }

    // Eq. 7 / Eq. 8 context for the round.
    for e in events {
        match &e.kind {
            EventKind::Prediction {
                round: r,
                device,
                predicted,
                actual,
            } if *r == round => cp.predictions.push((*device, *predicted, *actual)),
            EventKind::RoundPlanned {
                round: r,
                available,
                probabilities,
                ..
            } if *r == round => {
                cp.expected_shares = available
                    .iter()
                    .copied()
                    .zip(probabilities.iter().copied())
                    .collect();
            }
            _ => {}
        }
    }

    // Source: the coordinator's RoundPlanned{round}.
    let Some(source) = events
        .iter()
        .position(|e| matches!(&e.kind, EventKind::RoundPlanned { round: r, .. } if *r == round))
    else {
        cp.errors
            .push(format!("round {round}: no RoundPlanned event"));
        return cp;
    };
    // A round with no RingExit anywhere was cut short — the final
    // round routinely races the shutdown broadcast, so no device ever
    // logs leaving its ring. That is an incomplete round, not a broken
    // causal graph.
    if !events
        .iter()
        .any(|e| matches!(&e.kind, EventKind::RingExit { round: r, .. } if *r == round))
    {
        cp.warnings.push(format!(
            "round {round}: no RingExit logged (round truncated by shutdown?); \
             skipping attribution"
        ));
        return cp;
    }

    // Longest-path DP in merged (topological) order. On equal length a
    // same-node hop beats a network hop: with consistent clocks every
    // source→target path sums to the same wall time (concurrency means
    // many chains tie), and keeping the chain on-node attributes the
    // wait to the span where the device actually sat blocked instead
    // of to the wire.
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut prev: Vec<Option<(usize, bool)>> = vec![None; n]; // (pred, is_network)
    dist[source] = Some(0);
    for i in source..n {
        let Some(d) = dist[i] else { continue };
        let mut relax = |j: usize, w: u64, network: bool, dist: &mut Vec<Option<u64>>| {
            let better = match dist[j] {
                None => true,
                Some(old) if d + w > old => true,
                Some(old) => d + w == old && !network && matches!(prev[j], Some((_, true))),
            };
            if better {
                dist[j] = Some(d + w);
                prev[j] = Some((i, network));
            }
        };
        if let Some(j) = next_on_node[i] {
            let w = events[j].t_us.saturating_sub(events[i].t_us);
            relax(j, w, false, &mut dist);
        }
        if let Some(j) = frame_edge[i] {
            let w = events[j].t_us.saturating_sub(events[i].t_us);
            relax(j, w, true, &mut dist);
        }
    }

    // Target: the causally-latest reachable RingExit{round}.
    let Some(target) = (source..n).rev().find(|&i| {
        dist[i].is_some()
            && matches!(&events[i].kind, EventKind::RingExit { round: r, .. } if *r == round)
    }) else {
        cp.errors.push(format!(
            "round {round}: no RingExit reachable from RoundPlanned (incomplete logs?)"
        ));
        return cp;
    };
    cp.total_us = dist[target].unwrap_or(0);

    // Walk the chain backwards, attributing each hop.
    let (closed_spans, _) = spans(events);
    let mut chain = Vec::new();
    let mut at = target;
    while at != source {
        let Some((p, network)) = prev[at] else { break };
        let weight = dist[at].unwrap_or(0) - dist[p].unwrap_or(0);
        let segment = if network {
            "network".to_string()
        } else {
            innermost_span(
                &closed_spans,
                events[at].node,
                events[p].t_us,
                events[at].t_us,
            )
            .unwrap_or_else(|| "unattributed".to_string())
        };
        chain.push(CriticalStep {
            node: events[at].node,
            segment,
            weight_us: weight,
        });
        at = p;
    }
    chain.reverse();
    for step in &chain {
        *cp.per_segment_us.entry(step.segment.clone()).or_insert(0) += step.weight_us;
        if step.segment != "network" {
            *cp.per_node_us.entry(step.node).or_insert(0) += step.weight_us;
        }
    }
    cp.straggler = cp
        .per_node_us
        .iter()
        .max_by_key(|(node, us)| (**us, std::cmp::Reverse(**node)))
        .map(|(&node, _)| node);
    cp.dominant_segment = cp
        .per_segment_us
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(name, _)| name.clone());
    cp.steps = chain;
    cp
}

/// The innermost closed span of `node` containing `[from_us, to_us]`.
fn innermost_span(spans: &[Span], node: u32, from_us: u64, to_us: u64) -> Option<String> {
    spans
        .iter()
        .filter(|s| s.node == node && s.start_us <= from_us && s.end_us >= to_us)
        .max_by_key(|s| s.start_us)
        .map(|s| s.name.clone())
}

impl CriticalPath {
    /// Human-readable rendering (what `hadfl-trace critical-path`
    /// prints for one round).
    pub fn render(&self) -> String {
        let mut out = format!(
            "round {}: critical path {} us end-to-end\n",
            self.round, self.total_us
        );
        for step in &self.steps {
            if step.weight_us == 0 {
                continue;
            }
            out.push_str(&format!(
                "  {:>8} us  {:<14} node {}\n",
                step.weight_us, step.segment, step.node
            ));
        }
        out.push_str("  per segment:\n");
        for (segment, us) in &self.per_segment_us {
            let share = 100.0 * *us as f64 / self.total_us.max(1) as f64;
            out.push_str(&format!("    {segment:<14} {us:>8} us  ({share:.1}%)\n"));
        }
        match (self.straggler, &self.dominant_segment) {
            (Some(node), Some(segment)) => out.push_str(&format!(
                "  straggler: device {node}   dominant segment: {segment}\n"
            )),
            _ => out.push_str("  straggler: (no on-node time attributed)\n"),
        }
        if let Some(node) = self.straggler {
            if let Some(&(_, predicted, actual)) =
                self.predictions.iter().find(|(d, _, _)| *d == node)
            {
                out.push_str(&format!(
                    "  Eq. 7 cross-check: straggler {node} predicted {predicted:.1} vs actual {actual:.1} versions\n"
                ));
            }
            if let Some(&(_, p)) = self.expected_shares.iter().find(|(d, _)| *d == node) {
                out.push_str(&format!(
                    "  Eq. 8 cross-check: straggler {node} first-draw probability {p:.3}\n"
                ));
            }
        }
        for w in &self.warnings {
            out.push_str(&format!("  warning: {w}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("  ERROR: {e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(node: u32, seq: u64, t_us: u64, kind: EventKind) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq,
            node,
            t_us,
            lam: 0,
            kind,
        }
    }

    fn frame(src: u32, dst: u32, bytes: u64, kind: &str) -> EventKind {
        EventKind::FrameSent {
            src,
            dst,
            bytes,
            kind: kind.into(),
            lamport: 0,
        }
    }

    #[test]
    fn parse_tolerates_garbage() {
        let good = event(0, 0, 5, EventKind::DeviceStarted { device: 0 })
            .to_json()
            .unwrap();
        let text = format!("{good}\nnot json at all\n\n{{\"v\":9}}\n{good}\n");
        let log = parse_jsonl(&text);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.garbage_lines, 2);
    }

    #[test]
    fn merge_orders_by_time_then_node_then_seq() {
        let a = ParsedLog {
            events: vec![
                event(1, 0, 50, EventKind::DeviceStarted { device: 1 }),
                event(1, 1, 10, EventKind::DeviceStarted { device: 1 }),
            ],
            garbage_lines: 0,
        };
        let b = ParsedLog {
            events: vec![event(0, 0, 50, EventKind::DeviceStarted { device: 0 })],
            garbage_lines: 0,
        };
        let merged = merge(&[a, b]);
        let order: Vec<(u64, u32)> = merged.iter().map(|e| (e.t_us, e.node)).collect();
        assert_eq!(order, vec![(10, 1), (50, 0), (50, 1)]);
    }

    #[test]
    fn report_derives_the_headline_diagnostics() {
        let coord = 2u32;
        let events = vec![
            event(
                coord,
                0,
                100,
                EventKind::RoundPlanned {
                    round: 1,
                    available: vec![0, 1],
                    versions: vec![10.0, 20.0],
                    probabilities: vec![0.5, 0.5],
                    selected: vec![0, 1],
                    unselected: vec![],
                    broadcaster: 0,
                },
            ),
            event(
                coord,
                1,
                100,
                EventKind::Prediction {
                    round: 1,
                    device: 0,
                    predicted: 12.0,
                    actual: 10.0,
                },
            ),
            event(
                coord,
                2,
                100,
                EventKind::Prediction {
                    round: 1,
                    device: 1,
                    predicted: 21.0,
                    actual: 20.0,
                },
            ),
            event(
                0,
                0,
                110,
                EventKind::RingEnter {
                    round: 1,
                    ring: vec![0, 1],
                },
            ),
            event(0, 1, 200, frame(0, 1, 40, "param_accum")),
            event(
                0,
                2,
                310,
                EventKind::RingExit {
                    round: 1,
                    dissolved: false,
                },
            ),
            event(
                0,
                3,
                400,
                EventKind::Ledger {
                    sent_bytes: 40,
                    recv_bytes: 0,
                    frames: 1,
                },
            ),
        ];
        let rep = report(&events);
        assert_eq!(rep.rounds, 1);
        assert_eq!(rep.prediction_error, vec![(1, 1.5)]);
        assert_eq!(rep.selection.len(), 2);
        assert_eq!(rep.selection[0].selected, 1);
        assert!((rep.selection[0].expected_share - 0.5).abs() < 1e-12);
        assert_eq!(rep.ring_blocked_secs, vec![(0, 0.0002)]);
        assert_eq!(rep.total_sent_bytes, 40);
        assert_eq!(rep.ring_param_bytes, 40);
        // 1 round * 2 * K=2 * M=40 = 160.
        assert_eq!(rep.ring_param_bound, 160);
        assert!(rep.ledgers[0].matches());
        let text = rep.render();
        assert!(text.contains("within bound"), "{text}");
        assert!(text.contains("match"), "{text}");
    }

    fn stamped(node: u32, seq: u64, t_us: u64, lam: u64, kind: EventKind) -> Event {
        Event {
            v: SCHEMA_VERSION,
            seq,
            node,
            t_us,
            lam,
            kind,
        }
    }

    fn sent(src: u32, dst: u32, lamport: u64) -> EventKind {
        EventKind::FrameSent {
            src,
            dst,
            bytes: 40,
            kind: "round_plan".into(),
            lamport,
        }
    }

    fn received(src: u32, dst: u32, lamport: u64) -> EventKind {
        EventKind::FrameReceived {
            src,
            dst,
            bytes: 40,
            kind: "round_plan".into(),
            lamport,
        }
    }

    #[test]
    fn stamped_merge_is_causal_not_wall_clock() {
        // Node 1's wall clock is far behind node 0's: the receive's
        // t_us precedes the send's. The causal order must still place
        // the send first.
        let sender = ParsedLog {
            events: vec![stamped(0, 0, 1_000_000, 5, sent(0, 1, 5))],
            garbage_lines: 0,
        };
        let receiver = ParsedLog {
            events: vec![stamped(1, 0, 10, 6, received(0, 1, 5))],
            garbage_lines: 0,
        };
        let merged = merge(&[receiver.clone(), sender.clone()]);
        let order: Vec<u32> = merged.iter().map(|e| e.node).collect();
        assert_eq!(order, vec![0, 1]);
        // And the skew shows up as a warning, never an error.
        let outcome = check(&[sender, receiver]);
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        assert_eq!(outcome.warnings.len(), 1, "{:?}", outcome.warnings);
        assert!(
            outcome.warnings[0].contains("skew"),
            "{:?}",
            outcome.warnings
        );
    }

    #[test]
    fn span_pairing_and_gantt() {
        let events = vec![
            stamped(
                0,
                0,
                100,
                1,
                EventKind::SpanStart {
                    span: 1,
                    parent: 0,
                    name: "train".into(),
                    round: 1,
                    device: 0,
                },
            ),
            stamped(
                0,
                1,
                900,
                2,
                EventKind::SpanEnd {
                    span: 1,
                    round: 1,
                    device: 0,
                },
            ),
            // A start with no end stays unclosed.
            stamped(
                0,
                2,
                950,
                3,
                EventKind::SpanStart {
                    span: 2,
                    parent: 0,
                    name: "wait_for_plan".into(),
                    round: 1,
                    device: 0,
                },
            ),
        ];
        let (closed, unclosed) = spans(&events);
        assert_eq!(closed.len(), 1);
        assert_eq!(unclosed, 1);
        assert_eq!(closed[0].name, "train");
        assert_eq!((closed[0].start_us, closed[0].end_us), (100, 900));
        let gantt = render_gantt(&closed, Some(1), 40);
        assert!(gantt.contains("train"), "{gantt}");
        assert!(gantt.contains("node 0"), "{gantt}");
        let json = spans_to_json(&closed, None);
        assert!(json.contains("\"name\":\"train\""), "{json}");
    }

    /// A hand-computed two-device round: the coordinator plans at
    /// lam 1, device 0 is slow in ring_reduce, device 1 exits last.
    /// Critical path: plan -> (network 50) -> d0 ring_reduce 300 ->
    /// (network 20) -> d1 ring_gather 100 -> exit. Total 470 us.
    #[test]
    fn critical_path_matches_hand_computation() {
        let plan = EventKind::RoundPlanned {
            round: 1,
            available: vec![0, 1],
            versions: vec![10.0, 30.0],
            probabilities: vec![0.7, 0.3],
            selected: vec![0, 1],
            unselected: vec![],
            broadcaster: 0,
        };
        let coord = vec![
            stamped(2, 0, 1_000, 1, plan),
            stamped(
                2,
                1,
                1_000,
                1,
                EventKind::Prediction {
                    round: 1,
                    device: 0,
                    predicted: 12.0,
                    actual: 10.0,
                },
            ),
            stamped(2, 2, 1_000, 2, sent(2, 0, 2)),
        ];
        let d0 = vec![
            stamped(0, 0, 2_050, 3, received(2, 0, 2)),
            stamped(
                0,
                1,
                2_050,
                4,
                EventKind::SpanStart {
                    span: 1,
                    parent: 0,
                    name: "ring_reduce".into(),
                    round: 1,
                    device: 0,
                },
            ),
            stamped(0, 2, 2_350, 5, sent(0, 1, 5)),
            stamped(
                0,
                3,
                2_350,
                6,
                EventKind::SpanEnd {
                    span: 1,
                    round: 1,
                    device: 0,
                },
            ),
            stamped(
                0,
                4,
                2_350,
                7,
                EventKind::RingExit {
                    round: 1,
                    dissolved: false,
                },
            ),
        ];
        let d1 = vec![
            stamped(1, 0, 5_370, 6, received(0, 1, 5)),
            stamped(
                1,
                1,
                5_370,
                7,
                EventKind::SpanStart {
                    span: 1,
                    parent: 0,
                    name: "ring_gather".into(),
                    round: 1,
                    device: 1,
                },
            ),
            stamped(
                1,
                2,
                5_470,
                8,
                EventKind::SpanEnd {
                    span: 1,
                    round: 1,
                    device: 1,
                },
            ),
            stamped(
                1,
                3,
                5_470,
                9,
                EventKind::RingExit {
                    round: 1,
                    dissolved: false,
                },
            ),
        ];
        let logs = [
            ParsedLog {
                events: coord,
                garbage_lines: 0,
            },
            ParsedLog {
                events: d0,
                garbage_lines: 0,
            },
            ParsedLog {
                events: d1,
                garbage_lines: 0,
            },
        ];
        let merged = merge(&logs);
        let cp = critical_path(&merged, 1);
        assert!(cp.errors.is_empty(), "{:?}", cp.errors);
        // plan->send 0, network 2050-1000=1050? No: d0 received at
        // 2050, sent at 1000 -> network hop 1050; reduce 300; network
        // 5370-2350=3020; gather 100. Total = 4470.
        assert_eq!(cp.total_us, 4_470);
        assert_eq!(cp.straggler, Some(0));
        assert_eq!(cp.per_segment_us.get("ring_reduce"), Some(&300));
        assert_eq!(cp.per_segment_us.get("ring_gather"), Some(&100));
        assert_eq!(cp.per_segment_us.get("network"), Some(&4_070));
        assert_eq!(cp.dominant_segment.as_deref(), Some("network"));
        let text = cp.render();
        assert!(text.contains("straggler: device 0"), "{text}");
        assert!(text.contains("Eq. 7"), "{text}");
        assert!(text.contains("Eq. 8"), "{text}");
    }

    #[test]
    fn critical_path_flags_unmatched_receive() {
        let events = vec![
            stamped(
                2,
                0,
                1_000,
                1,
                EventKind::RoundPlanned {
                    round: 1,
                    available: vec![0],
                    versions: vec![1.0],
                    probabilities: vec![1.0],
                    selected: vec![0],
                    unselected: vec![],
                    broadcaster: 0,
                },
            ),
            stamped(0, 0, 2_000, 5, received(2, 0, 4)),
        ];
        let cp = critical_path(&events, 1);
        assert!(
            cp.errors.iter().any(|e| e.contains("unmatched receive")),
            "{:?}",
            cp.errors
        );
    }

    #[test]
    fn check_catches_ledger_mismatch_and_bad_seq() {
        let bad_ledger = ParsedLog {
            events: vec![
                event(0, 0, 10, frame(0, 1, 40, "param_sync")),
                event(
                    0,
                    1,
                    20,
                    EventKind::Ledger {
                        sent_bytes: 41,
                        recv_bytes: 0,
                        frames: 1,
                    },
                ),
            ],
            garbage_lines: 0,
        };
        let errors = check(&[bad_ledger]).errors;
        assert!(errors.iter().any(|e| e.contains("ledger")), "{errors:?}");

        let bad_seq = ParsedLog {
            events: vec![
                event(0, 5, 10, EventKind::DeviceStarted { device: 0 }),
                event(0, 5, 20, EventKind::DeviceStarted { device: 0 }),
            ],
            garbage_lines: 0,
        };
        let errors = check(&[bad_seq]).errors;
        assert!(errors.iter().any(|e| e.contains("seq")), "{errors:?}");

        let clean = ParsedLog {
            events: vec![
                event(0, 0, 10, frame(0, 1, 40, "param_sync")),
                event(
                    0,
                    1,
                    20,
                    EventKind::Ledger {
                        sent_bytes: 40,
                        recv_bytes: 0,
                        frames: 1,
                    },
                ),
            ],
            garbage_lines: 0,
        };
        assert!(check(&[clean]).errors.is_empty());
    }
}
