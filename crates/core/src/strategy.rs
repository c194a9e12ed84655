//! Heterogeneity-aware training-strategy generation (paper §III-C).
//!
//! From the devices' step times the strategy generator derives the
//! *hyperperiod* `H_E` — the least common multiple of the devices'
//! per-epoch times — and schedules partial aggregation every `T_sync`
//! hyperperiods. Within one sync window each device runs as many local
//! steps as its speed allows (`E_i`), so no device ever waits.
//! [`Strategy::derive`] is the one place `H_E`, the window and `E_i` are
//! computed.

use hadfl_simnet::{ComputeModel, DeviceId, VirtualTime};
use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// Upper bound on the hyperperiod LCM, in millisecond ticks (≈ 17 min of
/// virtual time). Pathologically co-prime epoch times would otherwise
/// produce astronomically long windows; past the cap we fall back to the
/// slowest device's epoch time, which preserves the "every device
/// completes ≥ T_sync epochs" intent.
const MAX_HYPERPERIOD_TICKS: u64 = 1_000_000;

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The hyperperiod `H_E`: least common multiple of the per-epoch times,
/// quantized to millisecond ticks (the paper assumes integer time ratios;
/// see DESIGN.md §6).
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if `epoch_times_secs` is empty or
/// contains a non-positive or sub-tick time.
///
/// # Example
///
/// ```
/// use hadfl::strategy::hyperperiod;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// // Epoch times 0.2 s and 0.3 s → hyperperiod 0.6 s.
/// let h = hyperperiod(&[0.2, 0.3])?;
/// assert!((h - 0.6).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn hyperperiod(epoch_times_secs: &[f64]) -> Result<f64, HadflError> {
    if epoch_times_secs.is_empty() {
        return Err(HadflError::InvalidConfig(
            "hyperperiod of no devices".into(),
        ));
    }
    let mut ticks = Vec::with_capacity(epoch_times_secs.len());
    for &t in epoch_times_secs {
        if !(t > 0.0) || !t.is_finite() {
            return Err(HadflError::InvalidConfig(format!("invalid epoch time {t}")));
        }
        let tk = VirtualTime::from_secs(t).to_millis_ticks();
        if tk == 0 {
            return Err(HadflError::InvalidConfig(format!(
                "epoch time {t}s is below the 1 ms hyperperiod tick"
            )));
        }
        ticks.push(tk);
    }
    let mut lcm: u64 = 1;
    for &tk in &ticks {
        let g = gcd(lcm, tk);
        match (lcm / g).checked_mul(tk) {
            Some(next) if next <= MAX_HYPERPERIOD_TICKS => lcm = next,
            _ => {
                // Cap exceeded: fall back to the slowest epoch time.
                lcm = ticks.iter().copied().max().expect("non-empty");
                break;
            }
        }
    }
    Ok(lcm as f64 / 1e3)
}

/// The per-round plan the strategy generator hands to the devices: the
/// sync window and each device's heterogeneity-aware local step budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Strategy {
    /// The hyperperiod `H_E`, seconds.
    pub hyperperiod_secs: f64,
    /// The sync window `T_sync · H_E`, seconds.
    pub window_secs: f64,
    /// `E_i`: nominal local steps each device fits into one window,
    /// `⌊T_sync · H_E / t_step_i⌋` and at least 1. This is also the
    /// paper's Eq. 6 expected version per window. Eq. 6 prints
    /// `v̂ = T_sync · T_i / E_warm_up`, which would give *slower* devices
    /// larger versions; the physically meaningful reading is the number
    /// of local steps device `i` fits into one sync window (DESIGN.md
    /// §6). `t_step_i` is the compute model's nominal step time.
    pub local_steps: Vec<usize>,
}

impl Strategy {
    /// Derives the strategy from the compute model's nominal step times.
    ///
    /// `batches_per_epoch[i]` is the number of mini-batches device `i`'s
    /// shard holds; with the compute model it yields per-epoch times, the
    /// hyperperiod, and the nominal per-window step budgets. The warm-up
    /// phase's jittered step times are charged to the clock but do not
    /// feed the plan.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] if the device count
    /// disagrees with the compute model, any shard is empty, or `t_sync`
    /// is zero; and propagates hyperperiod errors.
    pub fn derive(
        compute: &ComputeModel,
        batches_per_epoch: &[usize],
        t_sync: u32,
    ) -> Result<Self, HadflError> {
        if batches_per_epoch.len() != compute.devices() {
            return Err(HadflError::InvalidConfig(format!(
                "{} shard sizes for {} devices",
                batches_per_epoch.len(),
                compute.devices()
            )));
        }
        if t_sync == 0 {
            return Err(HadflError::InvalidConfig(
                "t_sync must be at least 1".into(),
            ));
        }
        let mut epoch_times = Vec::with_capacity(compute.devices());
        for (i, &batches) in batches_per_epoch.iter().enumerate() {
            if batches == 0 {
                return Err(HadflError::InvalidConfig(format!(
                    "device {i} has an empty shard"
                )));
            }
            let step = compute.nominal_step_time(DeviceId(i))?;
            epoch_times.push(step * batches as f64);
        }
        let h = hyperperiod(&epoch_times)?;
        let window = h * f64::from(t_sync);
        let local_steps = (0..compute.devices())
            .map(|i| {
                let step = compute
                    .nominal_step_time(DeviceId(i))
                    .expect("checked above");
                (window / step).floor().max(1.0) as usize
            })
            .collect();
        Ok(Strategy {
            hyperperiod_secs: h,
            window_secs: window,
            local_steps,
        })
    }

    /// Number of devices planned for.
    pub fn devices(&self) -> usize {
        self.local_steps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_lcm_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(5, 0), 5);
    }

    #[test]
    fn hyperperiod_of_identical_times_is_that_time() {
        let h = hyperperiod(&[0.5, 0.5, 0.5]).unwrap();
        assert!((h - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hyperperiod_of_ratio_four_two_one() {
        // Fig. 1's 4:2:1 power ratio → epoch times 1:2:4 → LCM = slowest.
        let h = hyperperiod(&[0.1, 0.2, 0.4]).unwrap();
        assert!((h - 0.4).abs() < 1e-9);
    }

    #[test]
    fn hyperperiod_of_coprime_times() {
        let h = hyperperiod(&[0.003, 0.007]).unwrap();
        assert!((h - 0.021).abs() < 1e-9);
    }

    #[test]
    fn hyperperiod_caps_pathological_lcm() {
        // 9999 ms and 10000 ms are nearly co-prime: LCM would be ~10^8 ms.
        let h = hyperperiod(&[9.999, 10.0]).unwrap();
        assert!(
            (h - 10.0).abs() < 1e-9,
            "fell back to slowest epoch time, got {h}"
        );
    }

    #[test]
    fn hyperperiod_validates() {
        assert!(hyperperiod(&[]).is_err());
        assert!(hyperperiod(&[0.0]).is_err());
        assert!(hyperperiod(&[-1.0]).is_err());
        assert!(hyperperiod(&[0.0001]).is_err()); // below 1 ms tick
    }

    #[test]
    fn strategy_scales_steps_with_power() {
        // Powers [3,3,1,1], equal shards of 10 batches, 10 ms base step.
        let compute = ComputeModel::new(0.010, &[3.0, 3.0, 1.0, 1.0]).unwrap();
        let s = Strategy::derive(&compute, &[10, 10, 10, 10], 1).unwrap();
        // Slowest epoch: 10 steps * 10 ms = 100 ms; fastest: 33.3 ms.
        // H_E = LCM(34, 34, 100, 100) ms… exact value depends on rounding,
        // but step budgets must scale 3:1.
        assert_eq!(s.devices(), 4);
        let ratio = s.local_steps[0] as f64 / s.local_steps[2] as f64;
        assert!((ratio - 3.0).abs() < 0.15, "steps {:?}", s.local_steps);
        assert!(s.window_secs >= 0.1);
    }

    #[test]
    fn t_sync_multiplies_window() {
        let compute = ComputeModel::new(0.010, &[1.0, 1.0]).unwrap();
        let s1 = Strategy::derive(&compute, &[5, 5], 1).unwrap();
        let s3 = Strategy::derive(&compute, &[5, 5], 3).unwrap();
        assert!((s3.window_secs - 3.0 * s1.window_secs).abs() < 1e-9);
        assert_eq!(s3.local_steps[0], 3 * s1.local_steps[0]);
    }

    #[test]
    fn strategy_validates_inputs() {
        let compute = ComputeModel::new(0.010, &[1.0, 1.0]).unwrap();
        assert!(Strategy::derive(&compute, &[5], 1).is_err());
        assert!(Strategy::derive(&compute, &[5, 0], 1).is_err());
        assert!(Strategy::derive(&compute, &[5, 5], 0).is_err());
    }

    #[test]
    fn every_device_gets_at_least_one_step() {
        // Even a 10x straggler gets a step budget of ≥ 1 (the window is
        // the LCM of epoch times, so this holds by construction; the
        // max(1) clamp guards rounding). Eq. 6 floors: power 1.5 makes a
        // 6.67 ms step whose epoch quantizes to 7 ticks, so the window is
        // LCM(7, 10) = 70 ms and device 0 fits 10.5 steps, floored to 10.
        for (powers, expected) in [([10.0, 1.0], [10, 1]), ([1.5, 1.0], [10, 7])] {
            let compute = ComputeModel::new(0.010, &powers).unwrap();
            let s = Strategy::derive(&compute, &[1, 1], 1).unwrap();
            assert_eq!(s.local_steps, expected, "powers {powers:?}");
        }
    }
}
