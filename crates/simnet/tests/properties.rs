//! Property-based tests for the simulator substrate.

use hadfl_simnet::{ComputeModel, DeviceId, FaultPlan, Jitter, LinkModel, Outage, VirtualTime};
use hadfl_tensor::SeedStream;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn step_time_scales_inversely_with_power(
        base in 0.001f64..1.0,
        p_fast in 1.0f64..16.0,
        p_slow_frac in 0.05f64..1.0,
    ) {
        let p_slow = p_fast * p_slow_frac;
        let m = ComputeModel::new(base, &[p_fast, p_slow]).unwrap();
        let fast = m.step_time(DeviceId(0), None).unwrap();
        let slow = m.step_time(DeviceId(1), None).unwrap();
        prop_assert!((slow / fast - p_fast / p_slow).abs() < 1e-9);
    }

    #[test]
    fn jittered_times_are_positive_and_bounded(
        seed in 0u64..200,
        std_frac in 0.0f64..1.0,
    ) {
        let m = ComputeModel::new(0.01, &[1.0])
            .unwrap()
            .with_jitter(Jitter::Gaussian { std_frac });
        let mut rng = SeedStream::new(seed);
        for _ in 0..50 {
            let t = m.step_time(DeviceId(0), Some(&mut rng)).unwrap();
            prop_assert!(t > 0.0 && t <= 0.05 + 1e-12);
        }
    }

    #[test]
    fn transfer_time_superadditive_in_chunks(
        latency in 0.0f64..0.1,
        bw in 1e3f64..1e10,
        a in 0u64..1_000_000,
        b in 0u64..1_000_000,
    ) {
        // Sending two messages pays latency twice: t(a) + t(b) ≥ t(a+b).
        let link = LinkModel::new(latency, bw).unwrap();
        prop_assert!(link.transfer_time(a) + link.transfer_time(b) >= link.transfer_time(a + b) - 1e-12);
    }

    #[test]
    fn availability_is_complement_of_outages(
        device in 0usize..4,
        from in 0.0f64..50.0,
        width in 0.1f64..10.0,
        query in 0.0f64..70.0,
    ) {
        let until = from + width;
        let plan = FaultPlan::new(vec![Outage::window(
            DeviceId(device),
            VirtualTime::from_secs(from),
            VirtualTime::from_secs(until),
        )])
        .unwrap();
        let t = VirtualTime::from_secs(query);
        let inside = query >= from && query < until;
        prop_assert_eq!(plan.is_up(DeviceId(device), t), !inside);
        // Other devices are always up.
        prop_assert!(plan.is_up(DeviceId(device + 1), t));
    }
}
