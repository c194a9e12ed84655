//! Pins the bulk param codec to the historical per-float wire layout,
//! and the parallel aggregation helpers to their serial references.
//!
//! The zero-copy encode/decode in `wire.rs` must be **byte-for-byte**
//! identical to the per-float `to_le_bytes` loop it replaced — the
//! payload ledger, telemetry byte counts, and cross-version
//! interoperability all assume the layout never moved.

use hadfl::aggregate::{
    accumulate_params, accumulate_scaled_params, average_params, blend_params, scale_params,
    weighted_average_params,
};
use hadfl::transport::{ChannelTransport, Port};
use hadfl::wire::{
    open, seal, seal_split, split_frame, CausalStamp, Message, MAX_PARAM_HEAD, STAMP_LEN,
};
use hadfl_par::with_threads;
use hadfl_telemetry::{EventKind, LamportClock, RingBufferSink, Telemetry};
use proptest::prelude::*;

/// The pre-bulk-codec reference encoding: one tag byte, the fixed
/// header fields, then `len` + each f32 written individually.
fn reference_encode(msg: &Message) -> Vec<u8> {
    let mut buf = Vec::new();
    fn put_params_ref(buf: &mut Vec<u8>, params: &[f32]) {
        buf.extend_from_slice(&(params.len() as u32).to_le_bytes());
        for &p in params {
            buf.extend_from_slice(&p.to_le_bytes());
        }
    }
    match msg {
        Message::ParamSync { round, params } => {
            buf.push(1);
            buf.extend_from_slice(&round.to_le_bytes());
            put_params_ref(&mut buf, params);
        }
        Message::ParamAccum {
            round,
            hops,
            params,
        } => {
            buf.push(7);
            buf.extend_from_slice(&round.to_le_bytes());
            buf.extend_from_slice(&hops.to_le_bytes());
            put_params_ref(&mut buf, params);
        }
        Message::MergedParams { round, ttl, params } => {
            buf.push(8);
            buf.extend_from_slice(&round.to_le_bytes());
            buf.extend_from_slice(&ttl.to_le_bytes());
            put_params_ref(&mut buf, params);
        }
        Message::FinalParams { device, params } => {
            buf.push(14);
            buf.extend_from_slice(&device.to_le_bytes());
            put_params_ref(&mut buf, params);
        }
        other => panic!("reference encoder only covers param-carrying variants, got {other:?}"),
    }
    buf
}

fn param_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1e6f32..1e6, 0..300)
}

/// Overwrites a sample of entries with adversarial bit patterns —
/// zeros of both signs, subnormals, infinities, NaN — so the codec is
/// pinned on exactly the values a naive float round-trip would mangle.
fn with_specials(mut v: Vec<f32>) -> Vec<f32> {
    const SPECIALS: [f32; 6] = [
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    for (i, x) in v.iter_mut().enumerate() {
        if i % 3 == 0 {
            *x = SPECIALS[(i / 3) % SPECIALS.len()];
        }
    }
    v
}

/// One message of every variant, built from the drawn ingredients.
fn every_variant(a: u32, b: u32, params: &[f32], ids: &[u32], bytes: &[u8]) -> Vec<Message> {
    let params = params.to_vec();
    vec![
        Message::ParamSync {
            round: a,
            params: params.clone(),
        },
        Message::VersionReport {
            device: a,
            round: b,
            version: f64::from(a) + 0.5,
        },
        Message::Handshake { from: a },
        Message::HandshakeAck { from: b },
        Message::BypassWarning { dead: a },
        Message::ParamAccum {
            round: a,
            hops: b,
            params: params.clone(),
        },
        Message::MergedParams {
            round: a,
            ttl: b,
            params: params.clone(),
        },
        Message::RoundPlan {
            round: a,
            ring: ids.to_vec(),
            broadcaster: b,
            unselected: ids.iter().rev().copied().collect(),
        },
        Message::ReportRequest { round: a },
        Message::Shutdown,
        Message::Hello { from: b },
        Message::FinalParams { device: a, params },
        Message::TelemetryBatch {
            node: a,
            dropped: b,
            payload: bytes.to_vec(),
        },
    ]
}

fn carries_params(msg: &Message) -> bool {
    matches!(
        msg,
        Message::ParamSync { .. }
            | Message::ParamAccum { .. }
            | Message::MergedParams { .. }
            | Message::FinalParams { .. }
    )
}

/// Receives `frame` the way a socket transport does — `first` bytes in
/// hand, the rest streamed — and returns what it opens to, re-sealed
/// (bytes compare where NaN payloads would not).
fn streamed(frame: &[u8], first: usize) -> Result<Vec<u8>, hadfl::HadflError> {
    let (stamp, msg) = match split_frame(&frame[..first], frame.len(), Vec::with_capacity)? {
        Some(mut parts) => {
            let rest = &frame[first..];
            assert_eq!(parts.unfilled_mut().len(), rest.len());
            parts.unfilled_mut().copy_from_slice(rest);
            parts.open()
        }
        None => open(frame)?,
    };
    Ok(seal(stamp, &msg))
}

fn assert_param_bits_eq(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bulk_codec_matches_per_float_reference(
        round in 0u32..1000, head in 0u32..64, params in param_strategy(),
    ) {
        let params = with_specials(params);
        let msgs = [
            Message::ParamSync { round, params: params.clone() },
            Message::ParamAccum { round, hops: head, params: params.clone() },
            Message::MergedParams { round, ttl: head, params: params.clone() },
            Message::FinalParams { device: head, params: params.clone() },
        ];
        for msg in msgs {
            let frame = msg.encode();
            prop_assert_eq!(
                &frame[..],
                &reference_encode(&msg)[..],
                "bulk encode diverged from the per-float layout"
            );
            prop_assert_eq!(frame.len(), msg.encoded_len());
            let back = Message::decode(&frame).unwrap();
            let (a, b) = match (&msg, &back) {
                (Message::ParamSync { params: a, .. }, Message::ParamSync { params: b, .. })
                | (Message::ParamAccum { params: a, .. }, Message::ParamAccum { params: b, .. })
                | (Message::MergedParams { params: a, .. }, Message::MergedParams { params: b, .. })
                | (Message::FinalParams { params: a, .. }, Message::FinalParams { params: b, .. }) => (a, b),
                other => panic!("variant changed in round-trip: {other:?}"),
            };
            assert_param_bits_eq(a, b);
        }
    }

    #[test]
    fn sealed_frames_keep_the_causal_envelope(
        origin in 0u32..64, lamport in 0u64..1 << 40, params in param_strategy(),
    ) {
        let msg = Message::ParamSync { round: 3, params };
        let stamp = CausalStamp { origin, lamport };
        let frame = seal(stamp, &msg);
        prop_assert_eq!(frame.len(), STAMP_LEN + msg.encoded_len());
        prop_assert_eq!(&frame[STAMP_LEN..], &reference_encode(&msg)[..]);
        let (back_stamp, back_msg) = open(&frame).unwrap();
        prop_assert_eq!(back_stamp, stamp);
        prop_assert_eq!(back_msg, msg);
    }

    #[test]
    fn split_seal_is_the_sealed_frame_and_streaming_open_is_open(
        a in 0u32..1 << 20, b in 0u32..64, origin in 0u32..64, lamport in 0u64..1 << 40,
        params in param_strategy(),
        ids in proptest::collection::vec(0u32..64, 0..9),
        bytes in proptest::collection::vec(0u8..255, 0..200),
    ) {
        let stamp = CausalStamp { origin, lamport };
        for params in [Vec::new(), with_specials(params)] {
            for msg in every_variant(a, b, &params, &ids, &bytes) {
                let sealed = seal(stamp, &msg);
                prop_assert_eq!(sealed.len(), STAMP_LEN + msg.encoded_len());

                // Sending: head, then the parameter slice's own bytes.
                let mut head = Vec::new();
                let body = seal_split(stamp, &msg, &mut head);
                prop_assert_eq!(&[&head[..], body].concat()[..], &sealed[..], "{:?}", msg);
                if cfg!(target_endian = "little") {
                    prop_assert_eq!(body.len(), if carries_params(&msg) { 4 * params.len() } else { 0 });
                    prop_assert!(head.len() <= MAX_PARAM_HEAD || !carries_params(&msg));
                }

                // Receiving: what the transport has when it must decide
                // (the first MAX_PARAM_HEAD bytes, or a short frame
                // whole), any later cut, and the whole frame.
                prop_assert_eq!(&seal(stamp, &open(&sealed).unwrap().1)[..], &sealed[..]);
                let decide = sealed.len().min(MAX_PARAM_HEAD);
                for first in [decide, (decide + 7).min(sealed.len()), sealed.len()] {
                    prop_assert_eq!(&streamed(&sealed, first).unwrap()[..], &sealed[..], "{:?}", msg);
                }
                let in_place = split_frame(&sealed[..decide], sealed.len(), Vec::with_capacity)
                    .unwrap()
                    .is_some();
                prop_assert_eq!(in_place, carries_params(&msg) && cfg!(target_endian = "little"));
            }
        }
    }

    #[test]
    fn streaming_open_rejects_what_open_rejects(
        a in 0u32..1 << 20, b in 0u32..64, params in param_strategy(), cut in 1usize..64, extra in 1usize..9,
    ) {
        let stamp = CausalStamp { origin: 1, lamport: 2 };
        for msg in every_variant(a, b, &with_specials(params), &[3, 1, 2], b"{}\n") {
            let sealed = seal(stamp, &msg);

            // Trailing garbage: the frame is longer than its message.
            let mut long = sealed.clone();
            long.resize(long.len() + extra, 0xA5);
            // A truncated payload (or, cut further, a truncated head).
            let short = &sealed[..sealed.len().saturating_sub(cut)];
            // A count that disagrees with the frame length.
            let mut recount = sealed.clone();
            if carries_params(&msg) {
                let at = recount.len() - 4 * match &msg {
                    Message::ParamSync { params, .. }
                    | Message::ParamAccum { params, .. }
                    | Message::MergedParams { params, .. }
                    | Message::FinalParams { params, .. } => params.len(),
                    _ => unreachable!(),
                } - 4;
                let count = u32::from_le_bytes(recount[at..at + 4].try_into().unwrap());
                recount[at..at + 4].copy_from_slice(&(count + extra as u32).to_le_bytes());
            }

            for bad in [&long[..], short, &recount[..]] {
                if bad == &sealed[..] {
                    continue; // a non-param message has no count to spoil
                }
                let whole = open(bad);
                let decide = bad.len().min(MAX_PARAM_HEAD);
                match streamed(bad, decide) {
                    Ok(_) => prop_assert!(whole.is_ok(), "streaming accepted what open rejects: {:?}", msg),
                    Err(_) => prop_assert!(whole.is_err(), "streaming rejected what open accepts: {:?}", msg),
                }
                // Every frame here is damaged; `open` must say so.
                prop_assert!(whole.is_err(), "{:?}", msg);
            }
        }
    }

    /// The channel fabric queues the message itself, not its encoding.
    /// Against the sealed frame it stands in for — stamp from a ticked
    /// clock, `seal`, `open`, stamp merged into the receiver's clock —
    /// it must deliver the same message bit for bit (NaN payloads
    /// included, hence the re-sealed comparison), leave both Lamport
    /// clocks at the same readings, and charge the ledger and both
    /// frame events `encoded_len()`.
    #[test]
    fn channel_port_delivers_what_a_sealed_frame_opens_to(
        a in 0u32..1 << 20, b in 0u32..64, route in 0u32..1 << 14,
        params in param_strategy(),
        ids in proptest::collection::vec(0u32..64, 0..9),
        bytes in proptest::collection::vec(0u8..255, 0..200),
    ) {
        let mut hub = ChannelTransport::hub(3);
        let bufs = [RingBufferSink::new(64), RingBufferSink::new(64)];
        let tels = [0u32, 1].map(|n| Telemetry::new(n, vec![Box::new(bufs[n as usize].clone())]));
        let mut ports = [0usize, 1].map(|n| hub.claim_instrumented(n, tels[n].clone(), None).unwrap());
        // The sealed-frame fabric, reduced to its clocks.
        let model = [LamportClock::new(), LamportClock::new()];
        let mut charged = 0u64;

        let msgs = every_variant(a, b, &with_specials(params), &ids, &bytes);
        for (i, msg) in msgs.iter().enumerate() {
            let from = (route >> i & 1) as usize;
            let to = 1 - from;
            let stamp = CausalStamp { origin: from as u32, lamport: model[from].tick() };
            let sealed = seal(stamp, msg);
            let (want_stamp, want) = open(&sealed).unwrap();
            model[to].observe(want_stamp.lamport);

            ports[from].send(to, msg).unwrap();
            let got = ports[to].try_recv().unwrap().expect("delivered");
            prop_assert_eq!(&seal(want_stamp, &got)[..], &seal(want_stamp, &want)[..], "{:?}", msg);
            prop_assert_eq!(ports[to].try_recv().unwrap(), None);
            for n in 0..2 {
                prop_assert_eq!(tels[n].lamport_clock().current(), model[n].current(), "{:?}", msg);
            }

            let len = msg.encoded_len() as u64;
            charged += len;
            let sent = bufs[from].snapshot().pop().unwrap();
            prop_assert_eq!(sent.kind, EventKind::FrameSent {
                src: from as u32, dst: to as u32, bytes: len,
                kind: msg.kind().to_string(), lamport: stamp.lamport,
            });
            let received = bufs[to].snapshot().pop().unwrap();
            prop_assert_eq!(received.kind, EventKind::FrameReceived {
                src: want_stamp.origin, dst: to as u32, bytes: len,
                kind: want.kind().to_string(), lamport: want_stamp.lamport,
            });
        }
        let ledger = hub.net_stats();
        prop_assert_eq!(ledger.total_bytes(), charged);
        prop_assert_eq!(ledger.messages(), msgs.len() as u64);
        prop_assert_eq!(ports[0].stats(), ledger);
    }

    #[test]
    fn aggregation_bit_identical_across_threads(
        seed in 0u64..1 << 16, models in 1usize..5, len in 0usize..400, beta in 0.0f32..1.0,
    ) {
        let mut rng = hadfl_tensor::SeedStream::new(seed);
        let params: Vec<Vec<f32>> = (0..models)
            .map(|_| (0..len).map(|_| rng.normal()).collect())
            .collect();
        let refs: Vec<&[f32]> = params.iter().map(Vec::as_slice).collect();
        let weights: Vec<f64> = (1..=models).map(|w| w as f64).collect();

        let want_avg = with_threads(1, || average_params(&refs).unwrap());
        let want_weighted = with_threads(1, || weighted_average_params(&refs, &weights).unwrap());
        let want_blend = with_threads(1, || {
            let mut local = params[0].clone();
            blend_params(&mut local, &want_avg, beta).unwrap();
            local
        });
        let want_ring = with_threads(1, || {
            let mut acc = params[0].clone();
            for p in &params[1..] {
                accumulate_params(&mut acc, p);
            }
            scale_params(&mut acc, 1.0 / models as f32);
            acc
        });
        for t in [2usize, 4] {
            let avg = with_threads(t, || average_params(&refs).unwrap());
            assert_param_bits_eq(&avg, &want_avg);
            let weighted = with_threads(t, || weighted_average_params(&refs, &weights).unwrap());
            assert_param_bits_eq(&weighted, &want_weighted);
            let blend = with_threads(t, || {
                let mut local = params[0].clone();
                blend_params(&mut local, &want_avg, beta).unwrap();
                local
            });
            assert_param_bits_eq(&blend, &want_blend);
            let ring = with_threads(t, || {
                let mut acc = params[0].clone();
                for p in &params[1..] {
                    accumulate_params(&mut acc, p);
                }
                scale_params(&mut acc, 1.0 / models as f32);
                acc
            });
            assert_param_bits_eq(&ring, &want_ring);
        }
    }
}

/// Tags 6 and 12 are reserved (`wire.rs`): a frame under either is an
/// unknown tag, whole and streamed alike.
#[test]
fn reserved_tag_6_is_rejected_as_unknown() {
    let stamp = CausalStamp {
        origin: 1,
        lamport: 2,
    };
    for tag in [6u8, 12] {
        let mut sealed = seal(stamp, &Message::Handshake { from: 0 });
        sealed[STAMP_LEN] = tag;
        let err = Message::decode(&sealed[STAMP_LEN..]).unwrap_err();
        assert!(
            err.to_string()
                .contains(&format!("unknown message tag {tag}")),
            "{err}"
        );
        assert!(open(&sealed).is_err());
        assert!(streamed(&sealed, sealed.len()).is_err());
    }
}

/// The ring-reduce helpers must also equal the pre-parallel inline
/// loops (`*a += m` then `*a *= scale`) bit-for-bit — the executor's
/// merge results may not move.
#[test]
fn ring_helpers_match_inline_loops() {
    let n = 100_001; // ragged: crosses an F32_CHUNK boundary
    let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.13).sin()).collect();
    let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.29).cos()).collect();

    let mut want = a.clone();
    for (x, y) in want.iter_mut().zip(&b) {
        *x += y;
    }
    let scale = 1.0 / 3.0f32;
    for x in &mut want {
        *x *= scale;
    }

    for t in [1usize, 2, 4] {
        let got = with_threads(t, || {
            let mut acc = a.clone();
            accumulate_params(&mut acc, &b);
            scale_params(&mut acc, scale);
            acc
        });
        assert_param_bits_eq(&got, &want);
        // The closing hop's fused pass is the same two roundings per
        // element, so the merged model does not move by a bit.
        let fused = with_threads(t, || {
            let mut acc = a.clone();
            accumulate_scaled_params(&mut acc, &b, scale);
            acc
        });
        assert_param_bits_eq(&fused, &want);
    }
}
