//! Runtime parameter-version prediction (paper §III-B, Eq. 7).
//!
//! At runtime, actual versions are fed back each round and the next
//! round's versions are forecast with Brown's double exponential
//! smoothing (Eq. 7) so selection keeps tracking drifting device speeds.
//! The Eq. 6 warm-up estimate a device is planned at before its first
//! report is its step budget,
//! [`Strategy::local_steps`](crate::strategy::Strategy::local_steps).

use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// Brown's double exponential smoothing over one device's version series
/// (Eq. 7).
///
/// Feed the actual version after each round with
/// [`observe`](VersionPredictor::observe); query the forecast `m` rounds
/// ahead with [`forecast`](VersionPredictor::forecast). Until two
/// observations arrive there is no trend: the forecast is the single
/// observation, or `None` before any.
///
/// # Example
///
/// ```
/// use hadfl::predict::VersionPredictor;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let mut p = VersionPredictor::new(0.5)?;
/// assert_eq!(p.forecast(1), None);
/// for v in [100.0, 200.0, 300.0, 400.0, 500.0] {
///     p.observe(v);
/// }
/// // A linear trend of +100/round extrapolates ahead.
/// let f = p.forecast(1).expect("observed");
/// assert!(f > 500.0 && (f - 600.0).abs() < 80.0, "forecast {f}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VersionPredictor {
    alpha: f64,
    s1: Option<f64>,
    s2: Option<f64>,
    last: Option<f64>,
    observations: usize,
}

impl VersionPredictor {
    /// Creates a predictor with smoothing factor `alpha ∈ (0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] if `alpha` is outside (0, 1).
    pub fn new(alpha: f64) -> Result<Self, HadflError> {
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(HadflError::InvalidConfig(format!(
                "smoothing alpha must be in (0, 1), got {alpha}"
            )));
        }
        Ok(VersionPredictor {
            alpha,
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
    /// (Eq. 7: `a + b·m`). With one observation, returns it at every
    /// horizon; with none, `None`.
    pub fn forecast(&self, m: u32) -> Option<f64> {
        match (self.s1, self.s2) {
            (Some(s1), Some(s2)) if self.observations >= 2 => {
                let a = 2.0 * s1 - s2;
                let b = self.alpha / (1.0 - self.alpha) * (s1 - s2);
                Some(a + b * f64::from(m))
            }
            _ => self.last,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_forecast_before_observations() {
        let p = VersionPredictor::new(0.5).unwrap();
        assert_eq!(p.forecast(1), None);
        assert_eq!(p.observations, 0);
    }

    #[test]
    fn single_observation_is_echoed() {
        let mut p = VersionPredictor::new(0.5).unwrap();
        p.observe(10.0);
        assert_eq!(p.forecast(1), Some(10.0));
    }

    #[test]
    fn constant_series_forecasts_constant() {
        let mut p = VersionPredictor::new(0.4).unwrap();
        for _ in 0..20 {
            p.observe(50.0);
        }
        for m in 0..4 {
            assert!((p.forecast(m).unwrap() - 50.0).abs() < 1e-9);
        }
    }

    #[test]
    fn linear_trend_is_extrapolated() {
        let mut p = VersionPredictor::new(0.6).unwrap();
        for j in 1..=30 {
            p.observe(10.0 * j as f64);
        }
        // After long exposure to slope 10/round the 1-ahead forecast should
        // be close to 310.
        let f = p.forecast(1).unwrap();
        assert!((f - 310.0).abs() < 5.0, "forecast {f}");
        // and further horizons extend the trend
        assert!(p.forecast(3) > p.forecast(1));
    }

    #[test]
    fn speed_change_is_tracked() {
        let mut p = VersionPredictor::new(0.7).unwrap();
        for _ in 0..10 {
            p.observe(100.0);
        }
        // Device suddenly slows to half speed.
        for _ in 0..10 {
            p.observe(50.0);
        }
        let f = p.forecast(1).unwrap();
        assert!(f < 60.0, "predictor failed to adapt: {f}");
    }

    #[test]
    fn larger_alpha_tracks_faster() {
        let run = |alpha: f64| {
            let mut p = VersionPredictor::new(alpha).unwrap();
            for _ in 0..10 {
                p.observe(100.0);
            }
            p.observe(50.0);
            // Compare the smoothed level (m = 0): the trend term at larger
            // horizons deliberately overshoots on a step change.
            p.forecast(0).unwrap()
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
        let mut p = VersionPredictor::new(0.5).unwrap();
        p.observe(10.0);
        p.observe(20.0);
        assert_eq!(p.forecast(0), Some(17.5));
        assert_eq!(p.forecast(1), Some(20.0));
        assert_eq!(p.forecast(2), Some(22.5));
        assert_eq!(p.forecast(3), Some(25.0));
    }

    /// A constant series keeps s₁ = s₂ exactly, so the trend term
    /// b = α/(1−α)·(s₁−s₂) is exactly zero at every horizon — not
    /// merely small.
    #[test]
    fn constant_series_has_exactly_zero_trend() {
        let mut p = VersionPredictor::new(0.3).unwrap();
        p.observe(50.0);
        p.observe(50.0);
        for m in 0..6 {
            assert_eq!(p.forecast(m), Some(50.0));
        }
    }

    /// Until two observations arrive there is no trend to extrapolate:
    /// every horizon has no forecast, then the single observation.
    #[test]
    fn horizons_collapse_below_two_observations() {
        let mut p = VersionPredictor::new(0.3).unwrap();
        for m in 0..4 {
            assert_eq!(p.forecast(m), None);
        }
        p.observe(12.0);
        assert_eq!(p.observations, 1);
        for m in 0..4 {
            assert_eq!(p.forecast(m), Some(12.0));
        }
    }

    #[test]
    fn rejects_bad_alpha() {
        assert!(VersionPredictor::new(0.0).is_err());
        assert!(VersionPredictor::new(1.0).is_err());
        assert!(VersionPredictor::new(-0.5).is_err());
    }
}
