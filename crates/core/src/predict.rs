//! Runtime parameter-version prediction (paper §III-B, Eq. 6–7).
//!
//! During the mutual-negotiation phase the coordinator estimates each
//! device's expected parameter version per sync window from its measured
//! warm-up time. At runtime, actual versions are fed back each round and
//! the next round's versions are forecast with Brown's double exponential
//! smoothing (Eq. 7) so selection keeps tracking drifting device speeds.

use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// The expected parameter version of a device per sync window, derived
/// from its warm-up measurement.
///
/// The paper's Eq. (6) prints `v̂ = T_sync · T_i / E_warm_up`, which would
/// give *slower* devices larger versions; we implement the physically
/// meaningful reading — the number of local steps device `i` fits into one
/// sync window (see DESIGN.md §6):
///
/// `v̂_i = (T_sync · H_E) / t_step_i`
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if the window or step time is not
/// positive and finite.
///
/// # Example
///
/// ```
/// use hadfl::predict::expected_version;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// // A 1 s window and 10 ms steps: 100 local updates expected.
/// assert_eq!(expected_version(1.0, 0.010)?, 100.0);
/// # Ok(())
/// # }
/// ```
pub fn expected_version(window_secs: f64, step_secs: f64) -> Result<f64, HadflError> {
    if !(window_secs > 0.0) || !window_secs.is_finite() {
        return Err(HadflError::InvalidConfig(format!(
            "sync window must be positive, got {window_secs}"
        )));
    }
    if !(step_secs > 0.0) || !step_secs.is_finite() {
        return Err(HadflError::InvalidConfig(format!(
            "step time must be positive, got {step_secs}"
        )));
    }
    Ok((window_secs / step_secs).floor())
}

/// Brown's double exponential smoothing over one device's version series
/// (Eq. 7).
///
/// Feed the actual version after each round with
/// [`observe`](VersionPredictor::observe); query the forecast `m` rounds
/// ahead with [`forecast`](VersionPredictor::forecast). Until two
/// observations arrive the predictor falls back to its warm-up prior.
///
/// # Example
///
/// ```
/// use hadfl::predict::VersionPredictor;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let mut p = VersionPredictor::new(0.5, 100.0)?;
/// for v in [100.0, 200.0, 300.0, 400.0, 500.0] {
///     p.observe(v);
/// }
/// // A linear trend of +100/round extrapolates ahead.
/// let f = p.forecast(1);
/// assert!(f > 500.0 && (f - 600.0).abs() < 80.0, "forecast {f}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionPredictor {
    alpha: f64,
    prior: f64,
    s1: Option<f64>,
    s2: Option<f64>,
    last: Option<f64>,
    observations: usize,
}

impl VersionPredictor {
    /// Creates a predictor with smoothing factor `alpha ∈ (0, 1)` and the
    /// warm-up prior (Eq. 6 value) used before observations arrive.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] if `alpha` is outside (0, 1)
    /// or the prior is not finite.
    pub fn new(alpha: f64, prior: f64) -> Result<Self, HadflError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(HadflError::InvalidConfig(format!(
                "smoothing alpha must be in (0, 1), got {alpha}"
            )));
        }
        if !prior.is_finite() {
            return Err(HadflError::InvalidConfig(format!(
                "prior must be finite, got {prior}"
            )));
        }
        Ok(VersionPredictor {
            alpha,
            prior,
            s1: None,
            s2: None,
            last: None,
            observations: 0,
        })
    }

    /// Records the actual version observed in the round just completed.
    pub fn observe(&mut self, version: f64) {
        let s1_prev = self.s1.unwrap_or(version);
        let s2_prev = self.s2.unwrap_or(version);
        let s1 = self.alpha * version + (1.0 - self.alpha) * s1_prev;
        let s2 = self.alpha * s1 + (1.0 - self.alpha) * s2_prev;
        self.s1 = Some(s1);
        self.s2 = Some(s2);
        self.last = Some(version);
        self.observations += 1;
    }

    /// Forecasts the version `m` rounds ahead of the last observation
    /// (Eq. 7: `a + b·m`). With fewer than two observations, returns the
    /// warm-up prior (or the single observation, for `m = 0` continuity).
    pub fn forecast(&self, m: u32) -> f64 {
        match (self.s1, self.s2) {
            (Some(s1), Some(s2)) if self.observations >= 2 => {
                let a = 2.0 * s1 - s2;
                let b = self.alpha / (1.0 - self.alpha) * (s1 - s2);
                a + b * f64::from(m)
            }
            _ => self.last.unwrap_or(self.prior),
        }
    }

    /// Number of observations recorded.
    pub fn observations(&self) -> usize {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_version_floors() {
        assert_eq!(expected_version(1.0, 0.3).unwrap(), 3.0);
        assert_eq!(expected_version(0.5, 0.01).unwrap(), 50.0);
        assert!(expected_version(0.0, 0.1).is_err());
        assert!(expected_version(1.0, 0.0).is_err());
        assert!(expected_version(f64::NAN, 0.1).is_err());
    }

    #[test]
    fn prior_used_before_observations() {
        let p = VersionPredictor::new(0.5, 42.0).unwrap();
        assert_eq!(p.forecast(1), 42.0);
        assert_eq!(p.observations(), 0);
    }

    #[test]
    fn single_observation_is_echoed() {
        let mut p = VersionPredictor::new(0.5, 42.0).unwrap();
        p.observe(10.0);
        assert_eq!(p.forecast(1), 10.0);
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let mut p = VersionPredictor::new(0.4, 0.0).unwrap();
        for _ in 0..20 {
            p.observe(50.0);
        }
        for m in 0..4 {
            assert!((p.forecast(m) - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_trend_is_extrapolated() {
        let mut p = VersionPredictor::new(0.6, 0.0).unwrap();
        for j in 1..=30 {
            p.observe(10.0 * j as f64);
        }
        // After long exposure to slope 10/round the 1-ahead forecast should
        // be close to 310.
        let f = p.forecast(1);
        assert!((f - 310.0).abs() < 5.0, "forecast {f}");
        // and further horizons extend the trend
        assert!(p.forecast(3) > p.forecast(1));
    }

    #[test]
    fn speed_change_is_tracked() {
        let mut p = VersionPredictor::new(0.7, 0.0).unwrap();
        for _ in 0..10 {
            p.observe(100.0);
        }
        // Device suddenly slows to half speed.
        for _ in 0..10 {
            p.observe(50.0);
        }
        let f = p.forecast(1);
        assert!(f < 60.0, "predictor failed to adapt: {f}");
    }

    #[test]
    fn larger_alpha_tracks_faster() {
        let run = |alpha: f64| {
            let mut p = VersionPredictor::new(alpha, 0.0).unwrap();
            for _ in 0..10 {
                p.observe(100.0);
            }
            p.observe(50.0);
            // Compare the smoothed level (m = 0): the trend term at larger
            // horizons deliberately overshoots on a step change.
            p.forecast(0)
        };
        // The paper: "the larger α, the closer the predicted value to v_i".
        assert!((run(0.9) - 50.0).abs() < (run(0.1) - 50.0).abs());
    }

    /// Eq. 7 by hand, α = 0.5, series [10, 20]:
    /// s₁⁽¹⁾ = 10, s₂⁽¹⁾ = 10 (seeded with the first observation);
    /// s₁⁽²⁾ = 0.5·20 + 0.5·10 = 15, s₂⁽²⁾ = 0.5·15 + 0.5·10 = 12.5;
    /// a = 2·15 − 12.5 = 17.5, b = (0.5/0.5)·(15 − 12.5) = 2.5,
    /// so the forecast line is 17.5 + 2.5·m.
    #[test]
    fn two_observations_match_eq7_by_hand() {
        let mut p = VersionPredictor::new(0.5, 0.0).unwrap();
        p.observe(10.0);
        p.observe(20.0);
        assert_eq!(p.forecast(0), 17.5);
        assert_eq!(p.forecast(1), 20.0);
        assert_eq!(p.forecast(2), 22.5);
        assert_eq!(p.forecast(3), 25.0);
    }

    /// A constant series keeps s₁ = s₂ exactly, so the trend term
    /// b = α/(1−α)·(s₁−s₂) is exactly zero at every horizon — not
    /// merely small.
    #[test]
    fn constant_series_has_exactly_zero_trend() {
        let mut p = VersionPredictor::new(0.3, 0.0).unwrap();
        p.observe(50.0);
        p.observe(50.0);
        for m in 0..6 {
            assert_eq!(p.forecast(m), 50.0);
        }
    }

    /// Until two observations arrive there is no trend to extrapolate:
    /// every horizon falls back to the prior, then to the single
    /// observation.
    #[test]
    fn horizons_collapse_below_two_observations() {
        let mut p = VersionPredictor::new(0.3, 7.0).unwrap();
        for m in 0..4 {
            assert_eq!(p.forecast(m), 7.0);
        }
        p.observe(12.0);
        assert_eq!(p.observations(), 1);
        for m in 0..4 {
            assert_eq!(p.forecast(m), 12.0);
        }
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(VersionPredictor::new(0.0, 0.0).is_err());
        assert!(VersionPredictor::new(1.0, 0.0).is_err());
        assert!(VersionPredictor::new(-0.5, 0.0).is_err());
        assert!(VersionPredictor::new(0.5, f64::NAN).is_err());
    }
}
