//! Wire encoding of the messages HADFL peers exchange.
//!
//! The virtual-time driver accounts message *sizes* analytically; the
//! deployed executor ([`crate::exec`]) actually moves these messages
//! between participants — encoded on sockets, and as they are between
//! threads of one process, where the in-process fabric queues the
//! stamped [`Message`] itself and charges it [`Message::encoded_len`].
//! Encoding is a fixed little-endian layout: one tag byte, then the
//! variant's fields.
//!
//! Every frame that crosses a socket is wrapped in the
//! causal envelope: a [`CausalStamp`] header (origin node + Lamport
//! clock) sealed in front of the message encoding by [`seal`] and
//! parsed back by [`open`]. Transports are the *only* code that builds
//! or parses frames, and they must go through `seal`/`open` — a lint
//! gate (`tools/lint.sh`, gate 4) rejects raw `encode`/`decode` calls
//! in the transport and actor sources. The stamp is transport
//! overhead, like the length prefix: the payload ledger
//! (`NetStats`) keeps charging exactly [`Message::encoded_len`].
//!
//! A frame has one definition, split at the payload boundary: a small
//! *head* (stamp, tag, fixed fields and — for the parameter variants —
//! the element count) followed by a *body* that is the parameter
//! slice's own little-endian bytes. [`seal`] and [`open`] build and
//! parse `head ‖ body` in one buffer; [`seal_split`] and
//! [`split_frame`] (with the [`ParamFrame`] it returns) hand a socket
//! transport the two halves, so a model goes from the message's
//! `Vec<f32>` to the socket and from the socket into the next
//! message's `Vec<f32>` without an intermediate frame buffer. Every
//! other variant is all head.

use crate::error::HadflError;

/// Byte length of the causal envelope header [`seal`] prepends.
pub const STAMP_LEN: usize = 12;

/// The causal stamp sealed in front of every transported frame:
/// which node sent it, and the sender's Lamport clock at send time
/// (already bumped for the send). Receivers max-merge `lamport` into
/// their own clock, making the cross-node event order reconstructible
/// without trusting wall clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalStamp {
    /// The sending participant (device id, or `k` for the coordinator).
    pub origin: u32,
    /// The sender's Lamport clock, ticked for this send. Strictly
    /// increasing per sender, so `(origin, lamport)` names the frame
    /// uniquely across a run.
    pub lamport: u64,
}

/// Seals `msg` into a transport frame: a [`STAMP_LEN`]-byte stamp
/// header (origin u32 LE, lamport u64 LE) followed by the message
/// encoding. The inverse is [`open`].
pub fn seal(stamp: CausalStamp, msg: &Message) -> Vec<u8> {
    let mut buf = Vec::with_capacity(STAMP_LEN + msg.encoded_len());
    let body = seal_split(stamp, msg, &mut buf);
    buf.extend_from_slice(body);
    buf
}

/// [`seal`], split at the payload boundary: appends the frame's head
/// to `head` and returns its body, borrowed from `msg`'s own parameter
/// vector. `head ‖ body` is byte for byte the frame [`seal`] builds.
/// The body is empty for every variant without parameters — and, on
/// big-endian targets, always: there the in-memory floats are not the
/// wire bytes, so the whole frame is converted into `head`.
pub fn seal_split<'m>(stamp: CausalStamp, msg: &'m Message, head: &mut Vec<u8>) -> &'m [u8] {
    head.extend_from_slice(&stamp.origin.to_le_bytes());
    head.extend_from_slice(&stamp.lamport.to_le_bytes());
    let params = msg.encode_head(head);
    #[cfg(target_endian = "little")]
    {
        f32_bytes(params)
    }
    #[cfg(not(target_endian = "little"))]
    {
        put_f32s(head, params);
        &[]
    }
}

fn split_stamp(frame: &[u8]) -> Result<(CausalStamp, &[u8]), HadflError> {
    if frame.len() < STAMP_LEN {
        return Err(HadflError::InvalidConfig(format!(
            "frame too short for causal stamp: {} bytes",
            frame.len()
        )));
    }
    let mut rest = frame;
    let stamp = CausalStamp {
        origin: u32::from_le_bytes(take(&mut rest)?),
        lamport: u64::from_le_bytes(take(&mut rest)?),
    };
    Ok((stamp, rest))
}

/// The error for a frame cut short: the next field needs `n` bytes
/// and only `have` remain.
fn truncated(n: usize, have: usize) -> HadflError {
    HadflError::InvalidConfig(format!("truncated frame: need {n} more bytes, have {have}"))
}

/// Fails with [`truncated`] unless `frame` holds at least `n` bytes.
fn need(frame: &[u8], n: usize) -> Result<(), HadflError> {
    if frame.len() < n {
        return Err(truncated(n, frame.len()));
    }
    Ok(())
}

/// Takes the next `N` bytes off the front of `frame`, failing with
/// [`truncated`] when fewer remain. Every fixed-width field is read
/// through here: `u32::from_le_bytes(take(&mut frame)?)`.
fn take<const N: usize>(frame: &mut &[u8]) -> Result<[u8; N], HadflError> {
    let Some((head, rest)) = frame.split_first_chunk::<N>() else {
        return Err(truncated(N, frame.len()));
    };
    *frame = rest;
    Ok(*head)
}

/// Opens a frame produced by [`seal`], returning the stamp and the
/// message.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] when the frame is shorter
/// than the stamp header or the payload does not decode.
pub fn open(frame: &[u8]) -> Result<(CausalStamp, Message), HadflError> {
    let (stamp, encoded) = split_stamp(frame)?;
    Ok((stamp, Message::decode(encoded)?))
}

/// Longest head of a parameter frame: the stamp, the tag, two fixed
/// `u32` fields and the element count. A transport that holds this
/// many bytes of a frame (or all of a shorter one) can [`split_frame`]
/// it.
pub const MAX_PARAM_HEAD: usize = STAMP_LEN + 1 + 4 + 4 + 4;

/// A parameter frame being received in place: its head is parsed and
/// checked, and its payload lands directly in the `Vec<f32>` the
/// opened [`Message`] will own. Made by [`split_frame`].
#[derive(Debug)]
pub struct ParamFrame {
    stamp: CausalStamp,
    tag: u8,
    /// The head's fixed fields, between tag and element count (the
    /// second is 0 for the one-field variants).
    fields: [u32; 2],
    params: Vec<f32>,
    /// Payload bytes already in `params`: those that came with the head.
    filled: usize,
}

impl ParamFrame {
    /// The part of the payload still to be received. Fill all of it
    /// from the transport, then [`open`](Self::open).
    pub fn unfilled_mut(&mut self) -> &mut [u8] {
        let filled = self.filled;
        // SAFETY: the view covers exactly the vector's `4 * len`
        // initialized bytes for the lifetime of the borrow; `u8` has no
        // alignment requirement and every bit pattern written through
        // it is a valid `f32`.
        let body = unsafe {
            std::slice::from_raw_parts_mut(
                self.params.as_mut_ptr().cast::<u8>(),
                4 * self.params.len(),
            )
        };
        &mut body[filled..]
    }

    /// The stamp and message, exactly as [`open`] returns them for the
    /// same frame received whole.
    pub fn open(self) -> (CausalStamp, Message) {
        #[allow(unused_mut)]
        let mut params = self.params;
        // The payload arrived as raw little-endian bytes; elsewhere
        // they still have to become native floats.
        #[cfg(not(target_endian = "little"))]
        for p in &mut params {
            *p = f32::from_bits(u32::from_le(p.to_bits()));
        }
        (self.stamp, param_message(self.tag, self.fields, params))
    }
}

/// Decides how to receive a frame of `frame_len` bytes from `first`,
/// any prefix of it at least `min(frame_len, MAX_PARAM_HEAD)` long.
/// `Some` is a parameter frame to be received in place; `None` is any
/// other frame (including one too short or too odd to tell): receive
/// it whole and [`open`] it.
///
/// The parameter buffer comes from `alloc`, called with the element
/// count only for a parameter frame and only *after* that count has
/// been checked against `frame_len` — a transport that has bounded
/// `frame_len` never allocates by an unchecked peer-supplied count.
/// Whatever the supplied vector holds is overwritten: its length is set
/// to the count, so a `vec![0.0; count]` is used as it is, a
/// `Vec::with_capacity(count)` costs one zero fill, and a smaller
/// capacity grows.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] for a parameter frame cut
/// short inside its head, or whose element count disagrees with
/// `frame_len` (a truncated payload or trailing bytes) — the frames
/// [`open`] rejects for the same reasons.
pub fn split_frame(
    first: &[u8],
    frame_len: usize,
    alloc: impl FnOnce(usize) -> Vec<f32>,
) -> Result<Option<ParamFrame>, HadflError> {
    let Some(&tag) = first.get(STAMP_LEN) else {
        return Ok(None);
    };
    let Some(head_len) = param_head_len(tag) else {
        return Ok(None);
    };
    if first.len() < head_len || first.len() > frame_len {
        return Err(HadflError::InvalidConfig(format!(
            "truncated frame: {} bytes of a {frame_len}-byte frame do not hold its \
             {head_len}-byte parameter head",
            first.len()
        )));
    }
    let (stamp, rest) = split_stamp(first)?;
    let (fields, count, surplus) = param_head(tag, &rest[1..])?;
    if head_len as u64 + 4 * count as u64 != frame_len as u64 {
        return Err(HadflError::InvalidConfig(format!(
            "frame of {frame_len} bytes does not hold a {head_len}-byte head and {count} parameters"
        )));
    }
    let mut params = alloc(count);
    params.resize(count, 0.0);
    let mut frame = ParamFrame {
        stamp,
        tag,
        fields,
        params,
        filled: 0,
    };
    frame.unfilled_mut()[..surplus.len()].copy_from_slice(surplus);
    frame.filled = surplus.len();
    Ok(Some(frame))
}

/// The wire bytes of `params`, in place: on a little-endian target the
/// in-memory float slice already *is* its wire representation.
#[cfg(target_endian = "little")]
fn f32_bytes(params: &[f32]) -> &[u8] {
    // SAFETY: `params` is an initialized `&[f32]`; every f32 bit
    // pattern is a valid group of 4 bytes, so viewing the slice as
    // `4 * len` bytes is sound.
    unsafe { std::slice::from_raw_parts(params.as_ptr().cast::<u8>(), 4 * params.len()) }
}

/// A message between HADFL participants (devices and the coordinator).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A full parameter vector (gossip exchange, broadcast, or backup).
    ParamSync {
        /// Synchronization round the parameters belong to.
        round: u32,
        /// The flat parameter vector.
        params: Vec<f32>,
    },
    /// A device's per-round runtime report to the coordinator.
    VersionReport {
        /// Reporting device.
        device: u32,
        /// Round being reported.
        round: u32,
        /// Cumulative parameter version (local update count).
        version: f64,
    },
    /// Liveness probe sent to a suspected-dead upstream (§III-D).
    Handshake {
        /// Probing device.
        from: u32,
    },
    /// Reply to a [`Message::Handshake`].
    HandshakeAck {
        /// Replying device.
        from: u32,
    },
    /// Warning that a ring member is dead, from the member that found
    /// out to every other live member of its ring and the coordinator:
    /// bypass it (§III-D).
    BypassWarning {
        /// The device found dead.
        dead: u32,
    },
    /// A running parameter sum travelling around the gossip ring (the
    /// reduce half of the ring aggregation).
    ParamAccum {
        /// Synchronization round the accumulation belongs to. Ring
        /// frames can overtake their [`Message::RoundPlan`] (TCP gives
        /// no ordering across connections), so they carry their round.
        round: u32,
        /// How many members' parameters the sum already contains.
        hops: u32,
        /// The running elementwise sum.
        params: Vec<f32>,
    },
    /// The merged model travelling back around the ring (the
    /// distribute half), forwarded while `ttl > 0`.
    MergedParams {
        /// Synchronization round the merge belongs to (same rationale
        /// as the [`Message::ParamAccum`] round tag).
        round: u32,
        /// Remaining forwards.
        ttl: u32,
        /// The merged parameter vector.
        params: Vec<f32>,
    },
    /// Coordinator → ring members: execute this round's aggregation.
    RoundPlan {
        /// Round the plan belongs to.
        round: u32,
        /// Selected devices in ring order.
        ring: Vec<u32>,
        /// Ring member that broadcasts the merged model to `unselected`.
        broadcaster: u32,
        /// Devices outside the ring that receive the broadcast.
        unselected: Vec<u32>,
    },
    /// Coordinator → device: report your version for `round`.
    ReportRequest {
        /// Round being collected.
        round: u32,
    },
    /// Coordinator → device: training is over; reply with your final
    /// parameters ([`Message::FinalParams`]) and exit.
    Shutdown,
    /// First frame on a freshly dialed connection, identifying the
    /// dialing participant to the accepting side.
    Hello {
        /// Dialing participant.
        from: u32,
    },
    /// A device's final parameters, uploaded to the coordinator in
    /// response to [`Message::Shutdown`] for consensus evaluation.
    FinalParams {
        /// Uploading device.
        device: u32,
        /// The device's final parameter vector.
        params: Vec<f32>,
    },
    /// A batch of telemetry events shipped out-of-band to a collector.
    /// The payload is opaque to the protocol (JSONL-encoded events);
    /// it rides the same sealed-frame envelope as every other message
    /// so Lamport stamps stay on one scale, but its bytes are ledgered
    /// by the shipper's own counter, never by `NetStats` — telemetry
    /// traffic must not pollute the paper's 2·K·M accounting.
    TelemetryBatch {
        /// The shipping participant.
        node: u32,
        /// Droppable-class events thinned under backpressure since the
        /// previous batch (never silent: the collector surfaces this).
        dropped: u32,
        /// JSONL-encoded telemetry event lines, UTF-8.
        payload: Vec<u8>,
    },
}

const TAG_PARAM_SYNC: u8 = 1;
const TAG_VERSION_REPORT: u8 = 2;
const TAG_HANDSHAKE: u8 = 3;
const TAG_HANDSHAKE_ACK: u8 = 4;
const TAG_BYPASS_WARNING: u8 = 5;
// Tags 6 and 12 are reserved: older builds defined frames under them
// (12 was the transport heartbeat), so `decode` rejects them as unknown
// and new variants take fresh tags.
const TAG_PARAM_ACCUM: u8 = 7;
const TAG_MERGED_PARAMS: u8 = 8;
const TAG_ROUND_PLAN: u8 = 9;
const TAG_REPORT_REQUEST: u8 = 10;
const TAG_SHUTDOWN: u8 = 11;
const TAG_HELLO: u8 = 13;
const TAG_FINAL_PARAMS: u8 = 14;
const TAG_TELEMETRY_BATCH: u8 = 15;

/// Head length (stamp included) of the parameter variant `tag` names;
/// `None` for every other tag.
fn param_head_len(tag: u8) -> Option<usize> {
    match tag {
        TAG_PARAM_SYNC | TAG_FINAL_PARAMS => Some(STAMP_LEN + 1 + 4 + 4),
        TAG_PARAM_ACCUM | TAG_MERGED_PARAMS => Some(MAX_PARAM_HEAD),
        _ => None,
    }
}

/// Reads the head of the parameter variant `tag` names from `frame`,
/// which starts after the tag: its fixed fields (the second is 0 for
/// the one-field variants), its element count, and the bytes after.
fn param_head(tag: u8, mut frame: &[u8]) -> Result<([u32; 2], usize, &[u8]), HadflError> {
    let first = u32::from_le_bytes(take(&mut frame)?);
    let second = match tag {
        TAG_PARAM_ACCUM | TAG_MERGED_PARAMS => u32::from_le_bytes(take(&mut frame)?),
        _ => 0,
    };
    let count = u32::from_le_bytes(take(&mut frame)?) as usize;
    Ok(([first, second], count, frame))
}

/// Builds the parameter variant `tag` names from its fixed `fields`
/// and its payload. Callers pass only tags [`param_head_len`] knows.
fn param_message(tag: u8, [first, second]: [u32; 2], params: Vec<f32>) -> Message {
    match tag {
        TAG_PARAM_SYNC => Message::ParamSync {
            round: first,
            params,
        },
        TAG_FINAL_PARAMS => Message::FinalParams {
            device: first,
            params,
        },
        TAG_PARAM_ACCUM => Message::ParamAccum {
            round: first,
            hops: second,
            params,
        },
        _ => Message::MergedParams {
            round: first,
            ttl: second,
            params,
        },
    }
}

/// Ends a parameter head with the element count, handing the slice
/// back as the body still to be written.
fn put_count<'m>(buf: &mut Vec<u8>, params: &'m [f32]) -> &'m [f32] {
    buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
    params
}

/// Appends the raw little-endian `f32` payload in one bulk copy. On
/// little-endian targets the in-memory float slice already *is* the
/// wire representation, so encode is a `reserve` plus a single memcpy;
/// elsewhere it falls back to per-float conversion. The byte layout is
/// identical either way — and identical to the per-float loop this
/// replaced, which the wire proptests pin down.
fn put_f32s(buf: &mut Vec<u8>, params: &[f32]) {
    buf.reserve(4 * params.len());
    #[cfg(target_endian = "little")]
    buf.extend_from_slice(f32_bytes(params));
    #[cfg(not(target_endian = "little"))]
    for &p in params {
        buf.extend_from_slice(&p.to_le_bytes());
    }
}

/// Consumes `4 * len` bytes from `frame` and decodes them as
/// little-endian `f32`s in one bulk copy (the caller has already
/// bounds-checked). Inverse of [`put_f32s`].
fn get_f32s(frame: &mut &[u8], len: usize) -> Vec<f32> {
    let (raw, rest) = frame.split_at(4 * len);
    *frame = rest;
    let mut params: Vec<f32> = Vec::with_capacity(len);
    #[cfg(target_endian = "little")]
    // SAFETY: `params` owns capacity for `len` f32s; `raw` holds
    // `4 * len` initialized bytes whose little-endian layout matches
    // the native f32 representation, and any bit pattern is a valid
    // f32. The byte-wise copy has no alignment requirement on either
    // side.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), params.as_mut_ptr().cast::<u8>(), 4 * len);
        params.set_len(len);
    }
    #[cfg(not(target_endian = "little"))]
    for c in raw.chunks_exact(4) {
        params.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
    }
    params
}

fn put_ids(buf: &mut Vec<u8>, ids: &[u32]) {
    buf.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for &d in ids {
        buf.extend_from_slice(&d.to_le_bytes());
    }
}

impl Message {
    /// A [`Message::RoundPlan`]: round `round`'s ring in order, its
    /// broadcaster, and the devices outside it.
    pub fn round_plan(round: u32, ring: Vec<u32>, broadcaster: u32, unselected: Vec<u32>) -> Self {
        Message::RoundPlan {
            round,
            ring,
            broadcaster,
            unselected,
        }
    }

    /// A [`Message::ParamAccum`]: round `round`'s running sum of `hops`
    /// members' parameters.
    pub fn param_accum(round: u32, hops: u32, params: Vec<f32>) -> Self {
        Message::ParamAccum {
            round,
            hops,
            params,
        }
    }

    /// Encodes the message into a frame.
    ///
    /// # Example
    ///
    /// ```
    /// use hadfl::wire::Message;
    ///
    /// # fn main() -> Result<(), hadfl::HadflError> {
    /// let msg = Message::Handshake { from: 3 };
    /// let frame = msg.encode();
    /// assert_eq!(Message::decode(&frame)?, msg);
    /// # Ok(())
    /// # }
    /// ```
    pub fn encode(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let _prof = hadfl_prof::scope_bytes("wire_encode", len as u64);
        let mut buf = Vec::with_capacity(len);
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the message encoding to `buf`: head, then body.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        let params = self.encode_head(buf);
        put_f32s(buf, params);
    }

    /// Appends the encoding up to the payload boundary — tag, fixed
    /// fields and, for the parameter variants, the element count — and
    /// returns the parameter slice whose little-endian bytes complete
    /// it. Every other variant is written whole and returns `&[]`.
    fn encode_head(&self, buf: &mut Vec<u8>) -> &[f32] {
        match self {
            Message::ParamSync { round, params } => {
                buf.push(TAG_PARAM_SYNC);
                buf.extend_from_slice(&round.to_le_bytes());
                return put_count(buf, params);
            }
            Message::VersionReport {
                device,
                round,
                version,
            } => {
                buf.push(TAG_VERSION_REPORT);
                buf.extend_from_slice(&device.to_le_bytes());
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&version.to_le_bytes());
            }
            Message::Handshake { from } => {
                buf.push(TAG_HANDSHAKE);
                buf.extend_from_slice(&from.to_le_bytes());
            }
            Message::HandshakeAck { from } => {
                buf.push(TAG_HANDSHAKE_ACK);
                buf.extend_from_slice(&from.to_le_bytes());
            }
            Message::BypassWarning { dead } => {
                buf.push(TAG_BYPASS_WARNING);
                buf.extend_from_slice(&dead.to_le_bytes());
            }
            Message::ParamAccum {
                round,
                hops,
                params,
            } => {
                buf.push(TAG_PARAM_ACCUM);
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&hops.to_le_bytes());
                return put_count(buf, params);
            }
            Message::MergedParams { round, ttl, params } => {
                buf.push(TAG_MERGED_PARAMS);
                buf.extend_from_slice(&round.to_le_bytes());
                buf.extend_from_slice(&ttl.to_le_bytes());
                return put_count(buf, params);
            }
            Message::RoundPlan {
                round,
                ring,
                broadcaster,
                unselected,
            } => {
                buf.push(TAG_ROUND_PLAN);
                buf.extend_from_slice(&round.to_le_bytes());
                put_ids(buf, ring);
                buf.extend_from_slice(&broadcaster.to_le_bytes());
                put_ids(buf, unselected);
            }
            Message::ReportRequest { round } => {
                buf.push(TAG_REPORT_REQUEST);
                buf.extend_from_slice(&round.to_le_bytes());
            }
            Message::Shutdown => {
                buf.push(TAG_SHUTDOWN);
            }
            Message::Hello { from } => {
                buf.push(TAG_HELLO);
                buf.extend_from_slice(&from.to_le_bytes());
            }
            Message::FinalParams { device, params } => {
                buf.push(TAG_FINAL_PARAMS);
                buf.extend_from_slice(&device.to_le_bytes());
                return put_count(buf, params);
            }
            Message::TelemetryBatch {
                node,
                dropped,
                payload,
            } => {
                buf.push(TAG_TELEMETRY_BATCH);
                buf.extend_from_slice(&node.to_le_bytes());
                buf.extend_from_slice(&dropped.to_le_bytes());
                buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                buf.extend_from_slice(payload);
            }
        }
        &[]
    }

    /// Short stable label for the message kind, used as the telemetry
    /// `FrameSent`/`FrameReceived` tag and in metric label values.
    pub fn kind(&self) -> &'static str {
        match self {
            Message::ParamSync { .. } => "param_sync",
            Message::VersionReport { .. } => "version_report",
            Message::Handshake { .. } => "handshake",
            Message::HandshakeAck { .. } => "handshake_ack",
            Message::BypassWarning { .. } => "bypass_warning",
            Message::ParamAccum { .. } => "param_accum",
            Message::MergedParams { .. } => "merged_params",
            Message::RoundPlan { .. } => "round_plan",
            Message::ReportRequest { .. } => "report_request",
            Message::Shutdown => "shutdown",
            Message::Hello { .. } => "hello",
            Message::FinalParams { .. } => "final_params",
            Message::TelemetryBatch { .. } => "telemetry_batch",
        }
    }

    /// The exact frame size [`encode`](Self::encode) produces, in bytes —
    /// what the simulator's communication accounting charges.
    pub fn encoded_len(&self) -> usize {
        match self {
            Message::ParamSync { params, .. } | Message::FinalParams { params, .. } => {
                1 + 4 + 4 + 4 * params.len()
            }
            Message::ParamAccum { params, .. } | Message::MergedParams { params, .. } => {
                1 + 4 + 4 + 4 + 4 * params.len()
            }
            Message::VersionReport { .. } => 1 + 4 + 4 + 8,
            Message::Handshake { .. } | Message::HandshakeAck { .. } => 1 + 4,
            Message::BypassWarning { .. } => 1 + 4,
            Message::RoundPlan {
                ring, unselected, ..
            } => 1 + 4 + (4 + 4 * ring.len()) + 4 + (4 + 4 * unselected.len()),
            Message::ReportRequest { .. } => 1 + 4,
            Message::Shutdown => 1,
            Message::Hello { .. } => 1 + 4,
            Message::TelemetryBatch { payload, .. } => 1 + 4 + 4 + 4 + payload.len(),
        }
    }

    /// Decodes a frame produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for an unknown tag or a
    /// truncated frame.
    pub fn decode(mut frame: &[u8]) -> Result<Message, HadflError> {
        // The profiler scope lives inside the param-bearing arms, not
        // here: a guard held across the whole match costs ~60ns of
        // spill on the small control messages (round-plan decode is a
        // 230ns op), while the bulk param payloads it exists to
        // attribute dwarf it.
        let [tag] = take(&mut frame)?;
        let msg = match tag {
            TAG_PARAM_SYNC | TAG_FINAL_PARAMS | TAG_PARAM_ACCUM | TAG_MERGED_PARAMS => {
                // Head, then body — the same split a `ParamFrame`
                // receives in two parts.
                let (fields, len, rest) = param_head(tag, frame)?;
                frame = rest;
                need(frame, 4 * len)?;
                let _prof = hadfl_prof::scope_bytes("wire_decode", (4 * len) as u64);
                let params = get_f32s(&mut frame, len);
                param_message(tag, fields, params)
            }
            TAG_VERSION_REPORT => Message::VersionReport {
                device: u32::from_le_bytes(take(&mut frame)?),
                round: u32::from_le_bytes(take(&mut frame)?),
                version: f64::from_le_bytes(take(&mut frame)?),
            },
            TAG_HANDSHAKE => Message::Handshake {
                from: u32::from_le_bytes(take(&mut frame)?),
            },
            TAG_HANDSHAKE_ACK => Message::HandshakeAck {
                from: u32::from_le_bytes(take(&mut frame)?),
            },
            TAG_BYPASS_WARNING => Message::BypassWarning {
                dead: u32::from_le_bytes(take(&mut frame)?),
            },
            TAG_ROUND_PLAN => {
                fn get_ids(frame: &mut &[u8]) -> Result<Vec<u32>, HadflError> {
                    let len = u32::from_le_bytes(take(frame)?) as usize;
                    need(frame, 4 * len)?;
                    let (ids, rest) = frame.split_at(4 * len);
                    *frame = rest;
                    let (ids, _) = ids.as_chunks::<4>();
                    Ok(ids.iter().map(|&id| u32::from_le_bytes(id)).collect())
                }
                Message::RoundPlan {
                    round: u32::from_le_bytes(take(&mut frame)?),
                    ring: get_ids(&mut frame)?,
                    broadcaster: u32::from_le_bytes(take(&mut frame)?),
                    unselected: get_ids(&mut frame)?,
                }
            }
            TAG_REPORT_REQUEST => Message::ReportRequest {
                round: u32::from_le_bytes(take(&mut frame)?),
            },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_HELLO => Message::Hello {
                from: u32::from_le_bytes(take(&mut frame)?),
            },
            TAG_TELEMETRY_BATCH => {
                let node = u32::from_le_bytes(take(&mut frame)?);
                let dropped = u32::from_le_bytes(take(&mut frame)?);
                let len = u32::from_le_bytes(take(&mut frame)?) as usize;
                need(frame, len)?;
                let (payload, rest) = frame.split_at(len);
                frame = rest;
                Message::TelemetryBatch {
                    node,
                    dropped,
                    payload: payload.to_vec(),
                }
            }
            other => {
                return Err(HadflError::InvalidConfig(format!(
                    "unknown message tag {other}"
                )))
            }
        };
        if !frame.is_empty() {
            return Err(HadflError::InvalidConfig(format!(
                "{} trailing bytes after message",
                frame.len()
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let frame = msg.encode();
        assert_eq!(
            frame.len(),
            msg.encoded_len(),
            "length accounting for {msg:?}"
        );
        assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Message::ParamSync {
            round: 7,
            params: vec![1.5, -2.25, 0.0],
        });
        roundtrip(Message::ParamSync {
            round: 0,
            params: vec![],
        });
        roundtrip(Message::VersionReport {
            device: 3,
            round: 12,
            version: 456.75,
        });
        roundtrip(Message::Handshake { from: 9 });
        roundtrip(Message::HandshakeAck { from: 2 });
        roundtrip(Message::BypassWarning { dead: 1 });
        roundtrip(Message::ParamAccum {
            round: 5,
            hops: 2,
            params: vec![0.5, 0.25],
        });
        roundtrip(Message::MergedParams {
            round: 5,
            ttl: 3,
            params: vec![-1.0],
        });
        roundtrip(Message::RoundPlan {
            round: 4,
            ring: vec![2, 0, 3],
            broadcaster: 0,
            unselected: vec![1],
        });
        roundtrip(Message::RoundPlan {
            round: 1,
            ring: vec![],
            broadcaster: 7,
            unselected: vec![],
        });
        roundtrip(Message::ReportRequest { round: 9 });
        roundtrip(Message::Shutdown);
        roundtrip(Message::Hello { from: 0 });
        roundtrip(Message::FinalParams {
            device: 2,
            params: vec![0.5, -0.5],
        });
        roundtrip(Message::TelemetryBatch {
            node: 4,
            dropped: 17,
            payload: b"{\"v\":1}\n{\"v\":1}\n".to_vec(),
        });
        roundtrip(Message::TelemetryBatch {
            node: 0,
            dropped: 0,
            payload: vec![],
        });
    }

    #[test]
    fn telemetry_batch_payload_is_opaque_bytes() {
        // Arbitrary (even non-UTF-8) payload bytes survive untouched:
        // the wire layer must not interpret the batch contents.
        let payload: Vec<u8> = (0u16..400).map(|i| (i % 251) as u8).collect();
        let msg = Message::TelemetryBatch {
            node: 9,
            dropped: 3,
            payload: payload.clone(),
        };
        let frame = msg.encode();
        assert_eq!(frame.len(), 1 + 4 + 4 + 4 + payload.len());
        let Message::TelemetryBatch {
            payload: back,
            dropped,
            node,
        } = Message::decode(&frame).unwrap()
        else {
            panic!("wrong variant");
        };
        assert_eq!((node, dropped), (9, 3));
        assert_eq!(back, payload);
        // Truncated payloads are rejected, not silently shortened.
        assert!(Message::decode(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn seal_open_roundtrips_with_exact_overhead() {
        let msg = Message::ParamAccum {
            round: 3,
            hops: 2,
            params: vec![1.0, -0.5],
        };
        let stamp = CausalStamp {
            origin: 4,
            lamport: 77,
        };
        let frame = seal(stamp, &msg);
        assert_eq!(
            frame.len(),
            STAMP_LEN + msg.encoded_len(),
            "the stamp is exactly {STAMP_LEN} bytes of transport overhead"
        );
        let (back_stamp, back_msg) = open(&frame).unwrap();
        assert_eq!(back_stamp, stamp);
        assert_eq!(back_msg, msg);
    }

    #[test]
    fn open_rejects_short_and_corrupt_frames() {
        assert!(open(&[]).is_err());
        assert!(open(&[0u8; STAMP_LEN - 1]).is_err());
        // A stamp header followed by garbage payload.
        let mut frame = seal(
            CausalStamp {
                origin: 0,
                lamport: 1,
            },
            &Message::Shutdown,
        )
        .to_vec();
        frame.push(0xFF);
        assert!(open(&frame).is_err());
    }

    #[test]
    fn param_sync_preserves_float_bits() {
        let params = vec![f32::MIN_POSITIVE, -0.0, 1e30, std::f32::consts::PI];
        let msg = Message::ParamSync {
            round: 1,
            params: params.clone(),
        };
        let Message::ParamSync { params: back, .. } = Message::decode(&msg.encode()).unwrap()
        else {
            panic!("wrong variant");
        };
        for (a, b) in params.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Message::decode(&[]).is_err());
        assert!(Message::decode(&[99]).is_err());
        assert!(Message::decode(&[TAG_HANDSHAKE]).is_err()); // truncated
                                                             // trailing bytes
        let mut frame = Message::Handshake { from: 1 }.encode().to_vec();
        frame.push(0);
        assert!(Message::decode(&frame).is_err());
    }

    #[test]
    fn decode_rejects_truncated_params() {
        let msg = Message::ParamSync {
            round: 1,
            params: vec![1.0, 2.0],
        };
        let frame = msg.encode();
        assert!(Message::decode(&frame[..frame.len() - 1]).is_err());
    }

    #[test]
    fn control_messages_are_tiny() {
        // The decentralization claim depends on control-plane traffic
        // being negligible next to a model.
        assert!(
            Message::VersionReport {
                device: 0,
                round: 0,
                version: 0.0
            }
            .encoded_len()
                <= 32
        );
    }
}
