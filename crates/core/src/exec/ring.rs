//! One member's view of the §III-D ring, as a pure state machine.
//!
//! [`RingMember::step`] takes one [`Event`] and the time it happened and
//! returns the [`Action`]s it implies, in the order they must be taken.
//! Every ring decision of a device is made here: joining a plan,
//! holding frames that overtook it, accumulating, merging, forwarding,
//! probing a silent upstream, bypassing a dead member, refusing a
//! mis-sized frame and leaving the ring. The ring reads no time source
//! (the caller passes `now`), sends nothing and owns no model:
//! [`DeviceActor`](super::DeviceActor) is the shell that maps each
//! action onto its transport, its training state and its observability.
//!
//! Parameter buffers ride inside the frames the member holds — the
//! frame it sent last ([`RingMember::kept`]), frames that overtook
//! their plan, and its entry snapshot — and are moved, never copied.
//! The ring reads only their lengths. The arithmetic is the shell's:
//! [`Action::Accumulate`] and [`Action::Scale`] work in place on the
//! kept frame, which the [`Action::Send`] or [`Action::Install`] after
//! them passes on.

use std::collections::BTreeSet;
use std::mem;
use std::time::Duration;

use super::{seeded, ProtocolTiming};
use crate::wire::Message;

/// What happened to a ring member.
#[derive(Debug)]
pub(super) enum Event<'a> {
    /// A `RoundPlan`, with the member's parameters copied out at its
    /// arrival: the ring's one copy, contributed by the member later.
    Plan {
        round: u32,
        ring: &'a [u32],
        broadcaster: u32,
        unselected: &'a [u32],
        snapshot: Vec<f32>,
    },
    /// A `ParamAccum` or `MergedParams` frame.
    Frame(Message),
    /// The deadline [`RingMember::deadline`] named passed: the upstream was
    /// silent, or a probe went unanswered.
    Timer,
    /// A `HandshakeAck` from this device.
    Ack(usize),
    /// A `BypassWarning` naming this device dead.
    Warning(usize),
    /// A held frame of the running ring is due ([`Action::Replay`]).
    Replay,
    /// The device shut down: a ring still running is abandoned.
    Shutdown,
}

/// What a ring member must do, in order.
#[derive(Debug, PartialEq)]
pub(super) enum Action {
    /// A plan naming this member arrived: its training window closes.
    Join,
    /// The ring of `round` runs over the `live` members: its reduce
    /// half opens.
    Enter { round: u32, live: Vec<u32> },
    /// This member's contribution went downstream (or closed the sum):
    /// its reduce half is over and its gather half opens.
    Contributed { round: u32 },
    /// Send the kept frame to `to`.
    Send { to: usize },
    /// Add the member's own parameters — `mine`, or a fresh copy once
    /// the snapshot is spent — into the kept frame, scaling the sum by
    /// `scale` in the same pass. The sum then holds `hops` members.
    Accumulate {
        round: u32,
        hops: u32,
        mine: Option<Vec<f32>>,
        scale: Option<f32>,
    },
    /// Scale the kept frame, a sum already complete, into its mean.
    Scale(f32),
    /// Install the merged model of `round`: `params`, or else the kept
    /// frame, which goes to its recipient first. Every device of
    /// `broadcast` gets it next as a `ParamSync`, and the member's own
    /// model last. `merge`: the reduce closed here, over that many
    /// members.
    Install {
        round: u32,
        merge: Option<u32>,
        params: Option<Vec<f32>>,
        broadcast: Vec<usize>,
    },
    /// Probe the silent upstream `to` with a `Handshake`.
    Probe { to: usize },
    /// A bypass opens in the running ring of `round`.
    Bypass { round: u32 },
    /// This member found `dead` dead itself: warn every device of `to`.
    Warn {
        round: u32,
        dead: u32,
        to: Vec<usize>,
    },
    /// The ring closes around `dead`; a repair frame may follow.
    Repair { round: u32, dead: u32 },
    /// The bypass is over.
    Bypassed,
    /// The member leaves the ring of `round`; `dissolved` when fewer
    /// than two members were left, and the local model stands.
    Exit { round: u32, dissolved: bool },
    /// A frame held for the running ring is due: step [`Event::Replay`].
    Replay,
}

/// The §III-D ring of one device, across rounds.
#[derive(Debug, Clone)]
pub(super) struct RingMember {
    me: usize,
    coord: usize,
    timing: ProtocolTiming,
    /// Highest round whose ring this member finished.
    done_round: u32,
    /// Peers a §III-D bypass declared dead, remembered across rounds.
    /// A `BypassWarning` can overtake the `RoundPlan` of the ring it
    /// belongs to (independent connections again); joining with the
    /// stale membership would forward frames to the dead member and
    /// stall the ring (found by hadfl-check), so plan membership is
    /// filtered through this set on entry.
    known_dead: BTreeSet<usize>,
    /// Ring frames that overtook their `RoundPlan`: TCP gives no
    /// ordering between the coordinator's connection and a peer's, so
    /// an accumulation can arrive before the plan it belongs to.
    backlog: Vec<Message>,
    /// The ring this member is inside.
    running: Option<Run>,
    /// The ring it last finished — kept because a late §III-D bypass may
    /// still need this member's last frame re-sent.
    finished: Option<Run>,
}

/// One round's ring as one member sees it.
#[derive(Debug, Clone)]
struct Run {
    /// Round this ring synchronizes; ring frames carry the same tag.
    round: u32,
    /// Live members in ring order; shrinks as deaths are bypassed.
    live: Vec<usize>,
    /// Broadcaster for the round's merged model.
    broadcaster: usize,
    /// Devices to broadcast the merged model to.
    unselected: Vec<usize>,
    /// Last frame this member sent, with its recipient — re-sent when
    /// the recipient is declared dead.
    last_sent: Option<(usize, Message)>,
    /// Set once this member has the merged model; duplicate merges
    /// (possible after a re-send) are ignored.
    merged_done: bool,
    /// Set once this member's parameters are inside an accumulation it
    /// forwarded; a re-sent `ParamAccum` (possible after a bypass) must
    /// not count the member twice.
    contributed: bool,
    /// Parameter count of this member's model at ring entry: a frame of
    /// any other length is refused before it has any effect.
    len: usize,
    /// This member's parameters as of ring entry, until contributed.
    /// Derived state: never digested.
    snapshot: Option<Vec<f32>>,
    /// Upstream we handshaked, and the ack deadline.
    probe: Option<(usize, Duration)>,
    /// When the ring began (for the hard stall limit).
    started: Duration,
}

/// The round a ring frame belongs to; `None` for other messages.
fn frame_round(msg: &Message) -> Option<u32> {
    match msg {
        Message::ParamAccum { round, .. } | Message::MergedParams { round, .. } => Some(*round),
        _ => None,
    }
}

impl RingMember {
    /// The ring of device `me`, whose coordinator is `coord`.
    pub(super) fn new(me: usize, coord: usize, timing: ProtocolTiming) -> Self {
        RingMember {
            me,
            coord,
            timing,
            done_round: 0,
            known_dead: BTreeSet::new(),
            backlog: Vec::new(),
            running: None,
            finished: None,
        }
    }

    /// Advances the ring by one event that happened at `now`.
    pub(super) fn step(&mut self, event: Event<'_>, now: Duration) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Plan {
                round,
                ring,
                broadcaster,
                unselected,
                snapshot,
            } => {
                // A plan that reaches a member mid-ring is stale.
                if self.running.is_some() || !ring.contains(&(self.me as u32)) {
                    return out;
                }
                out.push(Action::Join);
                let alive = |d: &usize| !self.known_dead.contains(d);
                let live: Vec<usize> = ring.iter().map(|&d| d as usize).filter(alive).collect();
                if live.len() < 2 {
                    // Dissolved before it began: the local model stands.
                    self.exit(round, true, &mut out);
                } else {
                    out.push(Action::Enter {
                        round,
                        live: live.iter().map(|&d| d as u32).collect(),
                    });
                    let mut run = Run {
                        round,
                        live,
                        broadcaster: broadcaster as usize,
                        unselected: unselected
                            .iter()
                            .map(|&d| d as usize)
                            .filter(alive)
                            .collect(),
                        last_sent: None,
                        merged_done: false,
                        contributed: false,
                        len: snapshot.len(),
                        snapshot: Some(snapshot),
                        probe: None,
                        started: now,
                    };
                    if run.live[0] == self.me {
                        run.initiate(self.me, &mut out);
                        out.push(Action::Contributed { round });
                    }
                    self.running = Some(run);
                }
                let mut backlog = mem::take(&mut self.backlog);
                backlog.retain(|m| frame_round(m).is_some_and(|r| self.keeps(r)));
                self.backlog = backlog;
            }
            Event::Frame(msg) => self.frame(msg, &mut out),
            Event::Replay => {
                if let Some(at) = self.due() {
                    let msg = self.backlog.remove(at);
                    self.frame(msg, &mut out);
                }
            }
            Event::Timer => self.timer(now, &mut out),
            Event::Ack(from) => {
                if let Some(run) = &mut self.running {
                    if run.probe.is_some_and(|(suspect, _)| suspect == from) {
                        // Upstream is alive, just slow; wait afresh.
                        run.probe = None;
                    }
                }
            }
            Event::Warning(dead) => self.bury(dead, false, &mut out),
            Event::Shutdown => self.running = None,
        }
        if let Some(run) = self.running.take_if(|run| run.merged_done) {
            self.exit(run.round, run.live.len() < 2, &mut out);
            self.finished = Some(Run {
                snapshot: None,
                ..run
            });
        }
        if self.due().is_some() {
            out.push(Action::Replay);
        }
        out
    }

    /// Where the next held frame of the running ring sits in the backlog.
    fn due(&self) -> Option<usize> {
        let round = self.running.as_ref()?.round;
        self.backlog
            .iter()
            .position(|m| frame_round(m) == Some(round))
    }

    /// Leaves the ring of `round`, whether it ran or dissolved at entry.
    fn exit(&mut self, round: u32, dissolved: bool, out: &mut Vec<Action>) {
        self.done_round = self.done_round.max(round);
        out.push(Action::Exit { round, dissolved });
    }

    /// Is a ring frame of `round` held for later? Frames for the running
    /// ring and later ones are; between rings, those later than the last
    /// ring this member finished. Anything older is a re-send duplicate.
    fn keeps(&self, round: u32) -> bool {
        match &self.running {
            Some(run) => round >= run.round,
            None => round > self.done_round,
        }
    }

    /// A ring frame: held if it overtook its plan, refused if its length
    /// is not this member's model's, else one hop of the ring.
    fn frame(&mut self, msg: Message, out: &mut Vec<Action>) {
        let me = self.me;
        let (round, len) = match &msg {
            Message::ParamAccum { round, params, .. }
            | Message::MergedParams { round, params, .. } => (*round, params.len()),
            _ => return,
        };
        let Some(run) = self.running.as_mut().filter(|run| run.round == round) else {
            // Seeded PR-1 bug: no backlog at all — early frames vanish.
            if self.keeps(round) && !seeded::drop_early_ring_frames() {
                self.backlog.push(msg);
            }
            return;
        };
        if len != run.len {
            // No sum of unequal lengths exists, and the merged model is
            // forwarded before it is installed: refused before any
            // effect. Ring frames come only from the upstream, which is
            // bypassed like a dead one.
            let upstream = run.upstream(me);
            return self.bury(upstream, true, out);
        }
        run.probe = None;
        match msg {
            Message::ParamAccum { hops, params, .. } => run.accumulate(me, hops, params, out),
            Message::MergedParams { ttl, params, .. } => {
                run.install(me, ttl.saturating_sub(1), params, None, out);
            }
            _ => {}
        }
    }

    /// An elapsed wait inside a ring: probe the upstream, or declare it
    /// dead when the probe's deadline passed unanswered.
    fn timer(&mut self, now: Duration, out: &mut Vec<Action>) {
        let Some(run) = &mut self.running else {
            return;
        };
        match run.probe {
            Some((suspect, deadline)) if now >= deadline => self.bury(suspect, true, out),
            Some(_) => {} // ack still pending
            None => {
                let to = run.upstream(self.me);
                run.probe = Some((to, now + self.timing.handshake_wait));
                out.push(Action::Probe { to });
            }
        }
    }

    /// The §III-D bypass, whichever way this member learnt of the death:
    /// its own expired probe or refused frame (`declare`: it warns the
    /// other live members and the coordinator first, so FIFO links
    /// deliver the warning ahead of any repair frame), a peer's warning
    /// inside the ring, or a warning after it finished the ring. A
    /// warning about the member itself is unreachable via the protocol
    /// and ignored.
    fn bury(&mut self, dead: usize, declare: bool, out: &mut Vec<Action>) {
        let me = self.me;
        if dead == me {
            return;
        }
        self.known_dead.insert(dead);
        match (&mut self.running, &mut self.finished) {
            (Some(run), _) if run.live.contains(&dead) => {
                let round = run.round;
                out.push(Action::Bypass { round });
                if declare {
                    let others = run.live.iter().filter(|&&d| d != me && d != dead);
                    let to = others.copied().chain([self.coord]).collect();
                    let dead = dead as u32;
                    out.push(Action::Warn { round, dead, to });
                }
                if run.probe.is_some_and(|(suspect, _)| suspect == dead) {
                    run.probe = None;
                }
                run.bypass(me, dead, true, out);
                out.push(Action::Bypassed);
            }
            (None, Some(run)) if run.live.contains(&dead) => run.bypass(me, dead, false, out),
            _ => {}
        }
    }

    /// When the running ring's next [`Event::Timer`] is due: the probe's
    /// deadline, else `ring_wait` of silence after `quiet_since`, the
    /// instant the member last handled an event. `None` outside a ring.
    pub(super) fn deadline(&self, quiet_since: Duration) -> Option<Duration> {
        let run = self.running.as_ref()?;
        Some(match run.probe {
            Some((_, deadline)) => deadline,
            None => quiet_since + self.timing.ring_wait,
        })
    }

    /// Has the running ring outlived `timing.ring_hard_limit`?
    pub(super) fn stalled(&self, now: Duration) -> bool {
        let limit = self.timing.ring_hard_limit;
        (self.running.as_ref()).is_some_and(|run| now.saturating_sub(run.started) > limit)
    }

    /// The round of the running ring.
    pub(super) fn round(&self) -> Option<u32> {
        self.running.as_ref().map(|run| run.round)
    }

    /// The upstream a pending probe is addressed to.
    pub(super) fn probe(&self) -> Option<usize> {
        self.running.as_ref()?.probe.map(|(suspect, _)| suspect)
    }

    /// Highest round whose ring this member finished.
    pub(super) fn done_round(&self) -> u32 {
        self.done_round
    }

    /// Live membership of the running ring, else of the finished one.
    #[cfg(test)]
    pub(super) fn live(&self) -> Option<&[usize]> {
        let run = self.running.as_ref().or(self.finished.as_ref())?;
        Some(&run.live)
    }

    /// The last frame this member sent, with its recipient: the running
    /// ring's, else the finished ring's.
    pub(super) fn kept(&mut self) -> Option<&mut (usize, Message)> {
        let run = self.running.as_mut().or(self.finished.as_mut())?;
        run.last_sent.as_mut()
    }

    /// The parameter buffer of the [`kept`](Self::kept) frame.
    pub(super) fn kept_params(&mut self) -> Option<&mut Vec<f32>> {
        match self.kept()? {
            (_, Message::ParamAccum { params, .. } | Message::MergedParams { params, .. }) => {
                Some(params)
            }
            _ => None,
        }
    }

    /// Canonical bytes of the ring's state (model-checker deduplication).
    pub(super) fn digest_into(&self, out: &mut Vec<u8>) {
        let word = |out: &mut Vec<u8>, x: usize| out.extend_from_slice(&(x as u64).to_le_bytes());
        out.extend_from_slice(&self.done_round.to_le_bytes());
        for run in [&self.finished, &self.running] {
            let Some(run) = run else {
                out.push(0);
                continue;
            };
            out.push(1);
            out.extend_from_slice(&run.round.to_le_bytes());
            for list in [&run.live, &run.unselected] {
                word(out, list.len());
                list.iter().for_each(|&d| word(out, d));
            }
            word(out, run.broadcaster);
            match &run.last_sent {
                Some((to, msg)) => {
                    out.push(1);
                    word(out, *to);
                    digest_msg(out, msg);
                }
                None => out.push(0),
            }
            out.extend_from_slice(&[run.merged_done as u8, run.contributed as u8]);
            match run.probe {
                Some((suspect, deadline)) => {
                    out.push(1);
                    word(out, suspect);
                    word(out, deadline.as_nanos() as usize);
                }
                None => out.push(0),
            }
            word(out, run.started.as_nanos() as usize);
        }
        word(out, self.backlog.len());
        self.backlog.iter().for_each(|m| digest_msg(out, m));
        word(out, self.known_dead.len());
        self.known_dead.iter().for_each(|&d| word(out, d));
    }
}

fn digest_msg(out: &mut Vec<u8>, msg: &Message) {
    let frame = msg.encode();
    out.extend_from_slice(&(frame.len() as u64).to_le_bytes());
    out.extend_from_slice(&frame);
}

impl Run {
    /// The live member `by` places after `me`. `me` is always live: a
    /// member never removes itself from its own ring.
    fn neighbour(&self, me: usize, by: usize) -> usize {
        let pos = self.live.iter().position(|&d| d == me).unwrap_or(0);
        self.live[(pos + by) % self.live.len()]
    }

    fn downstream(&self, me: usize) -> usize {
        self.neighbour(me, 1)
    }

    fn upstream(&self, me: usize) -> usize {
        self.neighbour(me, self.live.len() - 1)
    }

    /// Keeps `msg` as the last frame, sent to `to`.
    fn send(&mut self, to: usize, msg: Message, out: &mut Vec<Action>) {
        self.last_sent = Some((to, msg));
        out.push(Action::Send { to });
    }

    /// Opens the reduce as first member: the entry snapshot goes
    /// downstream as the `hops = 1` accumulation. (A member that has
    /// sent nothing and merged nothing still holds its snapshot.)
    fn initiate(&mut self, me: usize, out: &mut Vec<Action>) {
        if let Some(params) = self.snapshot.take() {
            self.contributed = true;
            let to = self.downstream(me);
            self.send(to, Message::param_accum(self.round, 1, params), out);
        }
    }

    /// One `ParamAccum` of this ring, of the right length.
    fn accumulate(&mut self, me: usize, hops: u32, params: Vec<f32>, out: &mut Vec<Action>) {
        let round = self.round;
        if self.contributed && !seeded::double_count_on_resend() {
            // Re-send duplicate after a bypass: our parameters already
            // ride an accumulation we forwarded; adding them again
            // would skew the merged mean. One shape of duplicate is
            // still load-bearing: when the dead member was the last hop
            // before the wrap back to the initiator, the re-sent frame
            // carries *every* live member's contribution — it IS the
            // finished sum, and dropping it would stall the ring (found
            // by `hadfl-check`, see DESIGN.md §Protocol invariants).
            // Merge it without adding ourselves.
            if hops as usize >= self.live.len() && !self.merged_done {
                out.push(Action::Scale(1.0 / hops as f32));
                self.install(me, self.live.len() as u32 - 1, params, Some(hops), out);
            }
            return;
        }
        self.contributed = true;
        let hops = hops + 1;
        let closes = hops as usize >= self.live.len();
        out.push(Action::Accumulate {
            round,
            hops,
            // Only the seeded double count finds the snapshot spent.
            mine: self.snapshot.take(),
            // The closing hop folds the `1/hops` scale into its
            // accumulate: one pass over the model, not two.
            scale: closes.then(|| 1.0 / hops as f32),
        });
        if closes {
            self.install(me, self.live.len() as u32 - 1, params, Some(hops), out);
        } else {
            let to = self.downstream(me);
            self.send(to, Message::param_accum(round, hops, params), out);
        }
        out.push(Action::Contributed { round });
    }

    /// Passes the merged model on and installs it: kept as the frame to
    /// the downstream member while forwards remain (`ttl > 0`); lent to
    /// the unselected if this member is (or, the planned one dead, has
    /// replaced) the broadcaster; installed here last, so nobody
    /// downstream waits on this member's copy.
    fn install(
        &mut self,
        me: usize,
        ttl: u32,
        params: Vec<f32>,
        merge: Option<u32>,
        out: &mut Vec<Action>,
    ) {
        let round = self.round;
        let params = if ttl > 0 {
            let to = self.downstream(me);
            self.last_sent = Some((to, Message::MergedParams { round, ttl, params }));
            None
        } else {
            Some(params)
        };
        let broadcaster = if self.live.contains(&self.broadcaster) {
            self.broadcaster
        } else {
            self.live[0]
        };
        let broadcast = if broadcaster == me {
            self.unselected.clone()
        } else {
            Vec::new()
        };
        self.merged_done = true;
        out.push(Action::Install {
            round,
            merge,
            params,
            broadcast,
        });
    }

    /// Closes the ring around `dead`, a live member other than `me`.
    /// Below two members the ring dissolves and the local model stands.
    /// Otherwise a last frame addressed to `dead` never reached the rest
    /// of the ring and is re-sent to the new downstream, and if the
    /// origin died before anything was sent, its downstream (now first)
    /// initiates the reduce with its snapshot. `announce`: a
    /// [`Action::Repair`] precedes the repair frame.
    fn bypass(&mut self, me: usize, dead: usize, announce: bool, out: &mut Vec<Action>) {
        self.live.retain(|&d| d != dead);
        if self.live.len() < 2 {
            self.merged_done = true;
            return;
        }
        if announce {
            let (round, dead) = (self.round, dead as u32);
            out.push(Action::Repair { round, dead });
        }
        match self.last_sent.take() {
            Some((to, msg)) if to == dead => {
                let downstream = self.downstream(me);
                self.send(downstream, msg, out);
            }
            None if self.live[0] == me && !self.merged_done => self.initiate(me, out),
            kept => self.last_sent = kept,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    const T: Duration = Duration::ZERO;

    /// Member `me`, with parameters `[1, 2]`, of round 1's ring `ring`
    /// in a cluster whose coordinator is 3; and what joining it did.
    fn joined(me: usize, ring: &[u32]) -> (RingMember, Vec<Action>) {
        let mut member = RingMember::new(me, 3, ProtocolTiming::zero());
        let actions = member.step(plan(ring), T);
        (member, actions)
    }

    fn plan(ring: &[u32]) -> Event<'_> {
        Event::Plan {
            round: 1,
            ring,
            broadcaster: ring[0],
            unselected: &[],
            snapshot: vec![1.0, 2.0],
        }
    }

    fn accum(hops: u32, params: Vec<f32>) -> Event<'static> {
        Event::Frame(Message::param_accum(1, hops, params))
    }

    fn merged(ttl: u32, params: Vec<f32>) -> Event<'static> {
        Event::Frame(Message::MergedParams {
            round: 1,
            ttl,
            params,
        })
    }

    fn kept(member: &mut RingMember) -> Option<(usize, Message)> {
        member.kept().cloned()
    }

    fn enter(ring: &[u32]) -> Action {
        Action::Enter {
            round: 1,
            live: ring.to_vec(),
        }
    }

    /// A frame that overtakes its plan is held, and replayed once the
    /// plan lands: here it closes the reduce of ring 1 → 0.
    #[test]
    fn a_frame_overtaking_its_plan_is_replayed() {
        let mut member = RingMember::new(0, 3, ProtocolTiming::zero());
        assert_eq!(member.step(accum(1, vec![0.5; 2]), T), vec![]);
        assert_eq!(
            member.step(plan(&[1, 0]), T),
            vec![Action::Join, enter(&[1, 0]), Action::Replay]
        );
        assert_eq!(
            member.step(Event::Replay, T),
            vec![
                Action::Accumulate {
                    round: 1,
                    hops: 2,
                    mine: Some(vec![1.0, 2.0]),
                    scale: Some(0.5),
                },
                Action::Install {
                    round: 1,
                    merge: Some(2),
                    params: None,
                    broadcast: vec![],
                },
                Action::Contributed { round: 1 },
                Action::Exit {
                    round: 1,
                    dissolved: false,
                },
            ]
        );
        // The merged model goes to 1, the accumulation's own buffer
        // (the sum is the shell's to take).
        let frame = Message::MergedParams {
            round: 1,
            ttl: 1,
            params: vec![0.5; 2],
        };
        assert_eq!(kept(&mut member), Some((1, frame)));
        assert_eq!(member.done_round(), 1);
        // A frame of a finished round is a re-send duplicate: dropped.
        assert_eq!(member.step(accum(1, vec![0.5; 2]), T), vec![]);
        assert!(member.backlog.is_empty());
    }

    /// After a bypass, the dead member's upstream re-sends its last
    /// accumulation, which can reach a member that already added its
    /// parameters: it is neither added nor forwarded again, and the
    /// merged model is installed unchanged.
    #[test]
    fn a_duplicate_accumulation_after_a_bypass_is_ignored() {
        let (mut member, _) = joined(0, &[1, 0, 2]);
        let forwarded = member.step(accum(1, vec![3.0; 2]), T);
        assert_eq!(
            forwarded[1..],
            [Action::Send { to: 2 }, Action::Contributed { round: 1 }]
        );
        assert!(matches!(
            forwarded[0],
            Action::Accumulate {
                hops: 2,
                scale: None,
                ..
            }
        ));
        let sent = kept(&mut member);
        assert_eq!(member.step(accum(1, vec![3.0; 2]), T), vec![]);
        assert_eq!(kept(&mut member), sent, "nothing new goes downstream");
        assert_eq!(
            member.step(merged(1, vec![7.0; 2]), T),
            vec![
                Action::Install {
                    round: 1,
                    merge: None,
                    params: Some(vec![7.0; 2]),
                    broadcast: vec![],
                },
                Action::Exit {
                    round: 1,
                    dissolved: false,
                },
            ]
        );
    }

    /// A member that finished its ring may hold the only copy of the
    /// frame its dead downstream never forwarded: a late warning re-sends
    /// that very frame to the new downstream.
    #[test]
    fn a_finished_member_repairs_the_ring_after_its_downstream_dies() {
        let (mut member, _) = joined(0, &[2, 0, 1]);
        let closed = member.step(accum(2, vec![1.0; 2]), T);
        assert_eq!(
            closed.last(),
            Some(&Action::Exit {
                round: 1,
                dissolved: false
            })
        );
        let (to, frame) = kept(&mut member).unwrap();
        assert_eq!(to, 1);
        assert!(matches!(frame, Message::MergedParams { ttl: 2, .. }));
        assert_eq!(
            member.step(Event::Warning(1), T),
            vec![Action::Send { to: 2 }]
        );
        assert_eq!(kept(&mut member), Some((2, frame)));
        assert_eq!(member.live(), Some(&[2, 0][..]));
    }

    /// The origin 2 of ring 2 → 0 → 1 dies before it sends anything:
    /// found by this member's own probe (it warns the ring and the
    /// coordinator) or by a peer's warning, the bypass makes this member
    /// first, and it opens the reduce with its snapshot.
    #[test]
    fn the_origin_dying_before_its_first_send_hands_the_reduce_on() {
        for own_probe in [true, false] {
            let (mut member, _) = joined(0, &[2, 0, 1]);
            let actions = if own_probe {
                assert_eq!(member.step(Event::Timer, T), vec![Action::Probe { to: 2 }]);
                assert_eq!(member.probe(), Some(2));
                member.step(Event::Timer, T)
            } else {
                member.step(Event::Warning(2), T)
            };
            let warn = Action::Warn {
                round: 1,
                dead: 2,
                to: vec![1, 3],
            };
            let mut expected = vec![Action::Bypass { round: 1 }, warn];
            if !own_probe {
                expected.pop();
            }
            expected.extend([
                Action::Repair { round: 1, dead: 2 },
                Action::Send { to: 1 },
                Action::Bypassed,
            ]);
            assert_eq!(actions, expected, "own probe: {own_probe}");
            assert_eq!(member.probe(), None);
            let opening = Message::param_accum(1, 1, vec![1.0, 2.0]);
            assert_eq!(kept(&mut member), Some((1, opening)));
        }
    }

    /// The downstream 1 dies mid-reduce holding this member's
    /// accumulation: the new downstream gets it, hops unchanged.
    #[test]
    fn a_member_dying_mid_reduce_gets_its_frame_resent_past_it() {
        let (mut member, _) = joined(0, &[2, 0, 1]);
        member.step(accum(1, vec![3.0; 2]), T);
        assert_eq!(
            member.step(Event::Warning(1), T),
            vec![
                Action::Bypass { round: 1 },
                Action::Repair { round: 1, dead: 1 },
                Action::Send { to: 2 },
                Action::Bypassed,
            ]
        );
        let (to, frame) = kept(&mut member).unwrap();
        assert_eq!(to, 2);
        assert!(matches!(frame, Message::ParamAccum { hops: 2, .. }));
        // A warning about this member itself changes nothing.
        assert_eq!(member.step(Event::Warning(0), T), vec![]);
        assert_eq!(member.live(), Some(&[2, 0][..]));
    }

    /// The wrap-around shape `hadfl-check` found: a bypass re-send hands
    /// the complete sum back to the contributed initiator, which merges
    /// it without adding itself again.
    #[test]
    fn a_complete_resend_to_the_initiator_is_merged() {
        let (mut member, _) = joined(0, &[0, 1, 2]);
        member.step(Event::Timer, T);
        let bypass = member.step(Event::Timer, T);
        assert!(!bypass.contains(&Action::Send { to: 1 }), "{bypass:?}");
        assert_eq!(
            member.step(accum(2, vec![6.0; 2]), T),
            vec![
                Action::Scale(0.5),
                Action::Install {
                    round: 1,
                    merge: Some(2),
                    params: None,
                    broadcast: vec![],
                },
                Action::Exit {
                    round: 1,
                    dissolved: false,
                },
            ]
        );
    }

    /// A frame of another length than the member's model is refused:
    /// nothing is accumulated, forwarded or installed, and its sender —
    /// the upstream — is bypassed as if its probe had expired.
    #[test]
    fn a_mis_sized_frame_bypasses_its_sender() {
        for frame in [accum(1, vec![9.0; 3]), merged(2, vec![9.0])] {
            let (mut member, _) = joined(1, &[0, 1, 2]);
            assert_eq!(
                member.step(frame, T),
                vec![
                    Action::Bypass { round: 1 },
                    Action::Warn {
                        round: 1,
                        dead: 0,
                        to: vec![2, 3],
                    },
                    Action::Repair { round: 1, dead: 0 },
                    Action::Send { to: 2 },
                    Action::Bypassed,
                ]
            );
            // First now, the member opens the reduce with its own model.
            let opening = Message::param_accum(1, 1, vec![1.0, 2.0]);
            assert_eq!(kept(&mut member), Some((2, opening)));
            assert!(member.known_dead.contains(&0));
            assert_eq!(member.round(), Some(1));
        }
    }

    /// Every other planned member already known dead: the ring dissolves
    /// at entry and the round counts as synchronized.
    #[test]
    fn a_ring_of_known_dead_dissolves_at_entry() {
        let mut member = RingMember::new(1, 3, ProtocolTiming::zero());
        assert_eq!(member.step(Event::Warning(0), T), vec![]);
        assert_eq!(
            member.step(plan(&[0, 1]), T),
            vec![
                Action::Join,
                Action::Exit {
                    round: 1,
                    dissolved: true,
                },
            ]
        );
        assert_eq!((member.round(), member.done_round()), (None, 1));
    }

    /// A shutdown abandons the running ring: no wait, no stall.
    #[test]
    fn shutdown_abandons_the_running_ring() {
        let (mut member, _) = joined(1, &[0, 1]);
        assert_eq!(member.deadline(T), Some(T));
        assert_eq!(member.step(Event::Shutdown, T), vec![]);
        assert_eq!((member.round(), member.deadline(T)), (None, None));
        assert!(!member.stalled(Duration::MAX));
    }
}
