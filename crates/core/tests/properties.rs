//! Property-based tests of the HADFL algorithm invariants.

use std::collections::BTreeMap;

use hadfl::aggregate::{average_params, blend_params, ring_allreduce_cost};
use hadfl::predict::VersionPredictor;
use hadfl::select::{select_devices, selection_weights, third_quartile, SelectionPolicy};
use hadfl::strategy::hyperperiod;
use hadfl::topology::Ring;
use hadfl::wire::Message;
use hadfl_simnet::{DeviceId, FaultPlan, LinkModel, VirtualTime};
use hadfl_tensor::SeedStream;
use proptest::prelude::*;

fn device_ids(n: usize) -> Vec<DeviceId> {
    (0..n).map(DeviceId).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn quartile_is_within_range(mut xs in proptest::collection::vec(0.0f64..1000.0, 1..40)) {
        let q = third_quartile(&xs).unwrap();
        xs.sort_by(f64::total_cmp);
        prop_assert!(q >= xs[0] && q <= *xs.last().unwrap());
    }

    #[test]
    fn selection_weights_are_positive_and_finite(
        xs in proptest::collection::vec(0.0f64..10_000.0, 1..32),
    ) {
        let w = selection_weights(&xs).unwrap();
        prop_assert_eq!(w.len(), xs.len());
        prop_assert!(w.iter().all(|&x| x > 0.0 && x.is_finite()));
    }

    #[test]
    fn selection_returns_sorted_unique_subset(
        versions in proptest::collection::vec(0.0f64..500.0, 2..16),
        n_p in 1usize..8,
        seed in 0u64..100,
    ) {
        let devices = device_ids(versions.len());
        let mut rng = SeedStream::new(seed);
        let sel = select_devices(
            SelectionPolicy::VersionGaussian,
            &devices,
            &versions,
            n_p,
            &mut rng,
        )
        .unwrap();
        prop_assert_eq!(sel.len(), n_p.min(versions.len()));
        prop_assert!(sel.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(sel.iter().all(|d| d.index() < versions.len()));
    }

    #[test]
    fn ring_bypass_preserves_survivor_order(
        n in 3usize..10,
        dead_idx in 0usize..10,
        seed in 0u64..100,
    ) {
        let members = device_ids(n);
        let mut rng = SeedStream::new(seed);
        let ring = Ring::random(&members, &mut rng).unwrap();
        let dead = ring.members()[dead_idx % n];
        let fixed = ring.bypass(dead).unwrap();
        prop_assert_eq!(fixed.len(), n - 1);
        // Survivors keep their relative cyclic order.
        let survivors: Vec<DeviceId> =
            ring.members().iter().copied().filter(|&d| d != dead).collect();
        prop_assert_eq!(fixed.members(), survivors.as_slice());
    }

    #[test]
    fn average_params_is_bounded_by_extremes(
        vecs in proptest::collection::vec(proptest::collection::vec(-5.0f32..5.0, 6), 1..6),
    ) {
        let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
        let avg = average_params(&refs).unwrap();
        for i in 0..6 {
            let lo = refs.iter().map(|v| v[i]).fold(f32::INFINITY, f32::min);
            let hi = refs.iter().map(|v| v[i]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[i] >= lo - 1e-4 && avg[i] <= hi + 1e-4);
        }
    }

    #[test]
    fn blend_interpolates_monotonically(
        local in proptest::collection::vec(-5.0f32..5.0, 4),
        incoming in proptest::collection::vec(-5.0f32..5.0, 4),
        beta in 0.0f32..=1.0,
    ) {
        let mut blended = local.clone();
        blend_params(&mut blended, &incoming, beta).unwrap();
        for i in 0..4 {
            let lo = local[i].min(incoming[i]);
            let hi = local[i].max(incoming[i]);
            prop_assert!(blended[i] >= lo - 1e-5 && blended[i] <= hi + 1e-5);
        }
    }

    #[test]
    fn hyperperiod_is_multiple_of_each_epoch_time(
        ticks in proptest::collection::vec(1u64..200, 1..6),
    ) {
        let secs: Vec<f64> = ticks.iter().map(|&t| t as f64 / 1e3).collect();
        let h = hyperperiod(&secs).unwrap();
        let h_ticks = (h * 1e3).round() as u64;
        // Either an exact LCM (multiple of everything) or the capped
        // fallback (the max tick).
        let all_divide = ticks.iter().all(|&t| h_ticks.is_multiple_of(t));
        let is_max = h_ticks == *ticks.iter().max().unwrap();
        prop_assert!(all_divide || is_max, "h={h_ticks} ticks={ticks:?}");
        prop_assert!(h_ticks >= *ticks.iter().max().unwrap());
    }

    #[test]
    fn allreduce_cost_monotone_in_model_size(
        n in 2usize..12,
        bytes_a in 1u64..1_000_000,
        bytes_b in 1u64..1_000_000,
    ) {
        let link = LinkModel::pcie3_x8();
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        let c_lo = ring_allreduce_cost(n, lo, &link).unwrap();
        let c_hi = ring_allreduce_cost(n, hi, &link).unwrap();
        prop_assert!(c_lo.secs <= c_hi.secs + 1e-12);
        prop_assert!(c_lo.bytes_per_member <= c_hi.bytes_per_member);
    }

    #[test]
    fn predictor_is_exact_on_linear_series(
        start in 0.0f64..100.0,
        slope in 1.0f64..50.0,
        alpha in 0.2f64..0.9,
    ) {
        // Double exponential smoothing reproduces a perfect linear trend
        // asymptotically; after enough rounds the 1-ahead error is small
        // relative to the slope.
        let mut p = VersionPredictor::new(alpha).unwrap();
        let mut v = start;
        for _ in 0..60 {
            v += slope;
            p.observe(v);
        }
        let forecast = p.forecast(1).unwrap();
        prop_assert!((forecast - (v + slope)).abs() < 0.35 * slope,
            "forecast {forecast} vs {v} + {slope}");
    }

    #[test]
    fn partial_sync_merged_is_average_of_participants(
        n in 2usize..6,
        seed in 0u64..50,
    ) {
        let members = device_ids(n);
        let mut rng = SeedStream::new(seed);
        let ring = Ring::random(&members, &mut rng).unwrap();
        let params: BTreeMap<DeviceId, Vec<f32>> = members
            .iter()
            .map(|&d| (d, vec![d.index() as f32; 3]))
            .collect();
        let out = hadfl::gossip::run_partial_sync(
            &ring,
            &params,
            None,
            &FaultPlan::none(),
            VirtualTime::ZERO,
            &LinkModel::default(),
            0.05,
            100,
            100,
            |_, _, _| {},
        )
        .unwrap();
        let expected = (0..n).map(|i| i as f32).sum::<f32>() / n as f32;
        prop_assert!(out.merged.iter().all(|&v| (v - expected).abs() < 1e-5));
        prop_assert_eq!(out.participants.len(), n);
        prop_assert!(!out.dissolved);
    }
}

/// Builds one of the twelve wire variants from a drawn value pool, so
/// the round-trip properties below cover the whole protocol surface.
fn arb_message(variant: usize, a: u32, b: u32, v: f64, params: Vec<f32>, ids: Vec<u32>) -> Message {
    match variant % 12 {
        0 => Message::ParamSync { round: a, params },
        1 => Message::VersionReport {
            device: a,
            round: b,
            version: v,
        },
        2 => Message::Handshake { from: a },
        3 => Message::HandshakeAck { from: a },
        4 => Message::BypassWarning { dead: a },
        5 => Message::ParamAccum {
            round: b,
            hops: a,
            params,
        },
        6 => Message::MergedParams {
            round: b,
            ttl: a,
            params,
        },
        7 => Message::RoundPlan {
            round: a,
            ring: ids.clone(),
            broadcaster: b,
            unselected: ids,
        },
        8 => Message::ReportRequest { round: a },
        9 => Message::Shutdown,
        10 => Message::Hello { from: a },
        _ => Message::FinalParams { device: a, params },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn wire_roundtrip_is_lossless(
        variant in 0usize..12,
        a in 0u32..100_000,
        b in 0u32..100_000,
        v in -1.0e6f64..1.0e6,
        params in proptest::collection::vec(-100.0f32..100.0, 0..48),
        ids in proptest::collection::vec(0u32..64, 0..12),
    ) {
        let msg = arb_message(variant, a, b, v, params, ids);
        let frame = msg.encode();
        prop_assert_eq!(frame.len(), msg.encoded_len());
        prop_assert_eq!(Message::decode(&frame).unwrap(), msg);
    }

    #[test]
    fn wire_rejects_every_truncation(
        variant in 0usize..12,
        a in 0u32..100_000,
        b in 0u32..100_000,
        v in -1.0e6f64..1.0e6,
        params in proptest::collection::vec(-100.0f32..100.0, 0..16),
        ids in proptest::collection::vec(0u32..64, 0..6),
        cut in 0usize..4096,
    ) {
        let frame = arb_message(variant, a, b, v, params, ids).encode();
        let cut = cut % frame.len(); // strict prefix, possibly empty
        prop_assert!(Message::decode(&frame[..cut]).is_err());
    }

    #[test]
    fn wire_rejects_trailing_garbage(
        variant in 0usize..12,
        a in 0u32..100_000,
        b in 0u32..100_000,
        v in -1.0e6f64..1.0e6,
        params in proptest::collection::vec(-100.0f32..100.0, 0..16),
        ids in proptest::collection::vec(0u32..64, 0..6),
        extra in proptest::collection::vec(0u8..=255, 1..16),
    ) {
        let mut frame = arb_message(variant, a, b, v, params, ids).encode();
        frame.extend_from_slice(&extra);
        prop_assert!(Message::decode(&frame).is_err());
    }

    #[test]
    fn wire_rejects_unknown_tags(
        tag in 15u8..=255,
        body in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let mut frame = vec![tag];
        frame.extend_from_slice(&body);
        prop_assert!(Message::decode(&frame).is_err());
        prop_assert!(Message::decode(&[0u8]).is_err(), "tag zero is reserved");
        prop_assert!(Message::decode(&[]).is_err(), "the empty frame has no tag");
    }
}
