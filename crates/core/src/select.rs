//! Probability-based device selection for partial aggregation
//! (paper §III-C, Eq. 8).
//!
//! Each round the strategy generator selects `N_p` of the available
//! devices to form the synchronization ring. The paper's policy weights
//! each device by a standard-normal pdf of its (predicted) parameter
//! version centered at μ = the third quartile of all versions: devices
//! with *medial-to-new* versions are favoured, stragglers are de-weighted
//! but never excluded, and the very newest devices are not favoured over
//! medial ones (balancing version spread). Alternative policies used by
//! the ablation and worst-case experiments live here too.

use hadfl_simnet::DeviceId;
use hadfl_tensor::SeedStream;
use serde::{Deserialize, Serialize};

use crate::error::HadflError;

/// Device-selection policy for partial synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum SelectionPolicy {
    /// The paper's Eq. (8): sample `N_p` devices without replacement with
    /// probability ∝ `N(version; μ = Q3, σ = 1)`.
    #[default]
    VersionGaussian,
    /// Deterministically take the `N_p` highest-version devices
    /// (the "discard stragglers" strawman the paper argues against).
    TopVersions,
    /// Uniform random `N_p` devices (ablation control).
    UniformRandom,
    /// Deterministically take the `N_p` *lowest*-version devices — the
    /// paper's manually forced worst case for the accuracy-loss
    /// upper-bound experiment.
    WorstCase,
}

/// The third quartile (75th percentile, linear interpolation) of a
/// non-empty sample.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] on an empty slice.
///
/// # Example
///
/// ```
/// use hadfl::select::third_quartile;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// assert_eq!(third_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0])?, 4.0);
/// # Ok(())
/// # }
/// ```
pub fn third_quartile(values: &[f64]) -> Result<f64, HadflError> {
    if values.is_empty() {
        return Err(HadflError::InvalidConfig(
            "third quartile of empty sample".into(),
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("versions are finite"));
    let rank = 0.75 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Eq. (8) selection weights: the standard-normal pdf of each
/// z-scored version centered at the third quartile. Raw versions would
/// underflow the unit-variance pdf for any spread wider than a few
/// steps (DESIGN.md §6), so versions are always standardized first.
///
/// Returned weights are positive and finite; they are *not* normalized
/// (the sampler normalizes internally, mirroring the denominator of
/// Eq. 8).
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] on an empty slice or non-finite
/// versions.
pub fn selection_weights(versions: &[f64]) -> Result<Vec<f64>, HadflError> {
    if versions.is_empty() {
        return Err(HadflError::InvalidConfig(
            "selection over no devices".into(),
        ));
    }
    if versions.iter().any(|v| !v.is_finite()) {
        return Err(HadflError::InvalidConfig(format!(
            "non-finite version in {versions:?}"
        )));
    }
    let n = versions.len() as f64;
    let mean = versions.iter().sum::<f64>() / n;
    let var = versions.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt();
    let scaled: Vec<f64> = if std == 0.0 {
        vec![0.0; versions.len()]
    } else {
        versions.iter().map(|v| (v - mean) / std).collect()
    };
    let mu = third_quartile(&scaled)?;
    let norm = 1.0 / (2.0 * std::f64::consts::PI).sqrt();
    Ok(scaled
        .iter()
        .map(|&z| {
            let w = norm * (-(z - mu).powi(2) / 2.0).exp();
            // Floor keeps stragglers selectable, as §III-C requires.
            w.max(1e-12)
        })
        .collect())
}

/// Selects `n_p` devices from `available` for partial synchronization.
///
/// `versions[i]` is the (predicted) version of `available[i]`. The
/// returned set is sorted by device id; if `n_p ≥ available.len()` every
/// device is selected.
///
/// # Errors
///
/// Returns [`HadflError::InvalidConfig`] if `available` and `versions`
/// disagree in length, `n_p` is zero, or versions are non-finite.
pub fn select_devices(
    policy: SelectionPolicy,
    available: &[DeviceId],
    versions: &[f64],
    n_p: usize,
    rng: &mut SeedStream,
) -> Result<Vec<DeviceId>, HadflError> {
    if available.len() != versions.len() {
        return Err(HadflError::InvalidConfig(format!(
            "{} devices but {} versions",
            available.len(),
            versions.len()
        )));
    }
    if n_p == 0 {
        return Err(HadflError::InvalidConfig(
            "cannot select zero devices".into(),
        ));
    }
    if available.is_empty() {
        return Err(HadflError::InvalidConfig(
            "selection over no devices".into(),
        ));
    }
    if n_p >= available.len() {
        let mut all = available.to_vec();
        all.sort_unstable();
        return Ok(all);
    }
    let mut chosen = match policy {
        SelectionPolicy::VersionGaussian => {
            let weights = selection_weights(versions)?;
            weighted_sample_without_replacement(available, &weights, n_p, rng)
        }
        SelectionPolicy::TopVersions => rank_by(available, versions, n_p, false),
        SelectionPolicy::WorstCase => rank_by(available, versions, n_p, true),
        SelectionPolicy::UniformRandom => {
            let weights = vec![1.0; available.len()];
            weighted_sample_without_replacement(available, &weights, n_p, rng)
        }
    };
    chosen.sort_unstable();
    Ok(chosen)
}

fn rank_by(available: &[DeviceId], versions: &[f64], n_p: usize, ascending: bool) -> Vec<DeviceId> {
    let mut order: Vec<usize> = (0..available.len()).collect();
    order.sort_by(|&a, &b| {
        let cmp = versions[a]
            .partial_cmp(&versions[b])
            .expect("finite versions");
        // Ties break by device id for determinism.
        let cmp = if ascending { cmp } else { cmp.reverse() };
        cmp.then_with(|| available[a].cmp(&available[b]))
    });
    order.into_iter().take(n_p).map(|i| available[i]).collect()
}

fn weighted_sample_without_replacement(
    available: &[DeviceId],
    weights: &[f64],
    n_p: usize,
    rng: &mut SeedStream,
) -> Vec<DeviceId> {
    let mut pool: Vec<(DeviceId, f64)> = available
        .iter()
        .copied()
        .zip(weights.iter().copied())
        .collect();
    let mut chosen = Vec::with_capacity(n_p);
    for _ in 0..n_p {
        let total: f64 = pool.iter().map(|(_, w)| w).sum();
        let mut target = f64::from(rng.uniform(0.0, 1.0)) * total;
        let mut pick = pool.len() - 1;
        for (i, (_, w)) in pool.iter().enumerate() {
            if target < *w {
                pick = i;
                break;
            }
            target -= w;
        }
        chosen.push(pool.swap_remove(pick).0);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;

    fn devices(n: usize) -> Vec<DeviceId> {
        (0..n).map(DeviceId).collect()
    }

    #[test]
    fn quartile_matches_linear_interpolation() {
        assert_eq!(third_quartile(&[1.0]).unwrap(), 1.0);
        assert_eq!(third_quartile(&[1.0, 2.0]).unwrap(), 1.75);
        assert_eq!(third_quartile(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 3.25);
        assert!(third_quartile(&[]).is_err());
    }

    #[test]
    fn weights_peak_at_medial_versions() {
        // versions: one slow straggler, two medial, one very fast
        let versions = [10.0, 100.0, 110.0, 400.0];
        let w = selection_weights(&versions).unwrap();
        // The medial/newer devices (indices 1, 2) outweigh the straggler…
        assert!(w[1] > w[0] && w[2] > w[0], "{w:?}");
        // …and the straggler still has nonzero probability.
        assert!(w[0] > 0.0);
    }

    #[test]
    fn equal_versions_select_uniformly() {
        let versions = [5.0; 4];
        let mut rng = SeedStream::new(1);
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            let sel = select_devices(
                SelectionPolicy::VersionGaussian,
                &devices(4),
                &versions,
                2,
                &mut rng,
            )
            .unwrap();
            for d in sel {
                counts[d.index()] += 1;
            }
        }
        // each device expected in ~1000 of 2000 two-of-four draws
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "device {i} selected {c} times");
        }
    }

    #[test]
    fn straggler_is_deprioritized_but_not_excluded() {
        // Powers [3,3,1,1]-style: versions proportional to power.
        let versions = [300.0, 300.0, 100.0, 100.0];
        let mut rng = SeedStream::new(2);
        let mut counts = [0usize; 4];
        let trials = 4000;
        for _ in 0..trials {
            let sel = select_devices(
                SelectionPolicy::VersionGaussian,
                &devices(4),
                &versions,
                2,
                &mut rng,
            )
            .unwrap();
            for d in sel {
                counts[d.index()] += 1;
            }
        }
        // Fast devices selected more often than stragglers…
        assert!(counts[0] > counts[2], "{counts:?}");
        // …but stragglers still participate.
        assert!(counts[2] > 0 && counts[3] > 0, "{counts:?}");
    }

    #[test]
    fn top_versions_takes_the_newest() {
        let versions = [5.0, 9.0, 1.0, 7.0];
        let mut rng = SeedStream::new(0);
        let sel = select_devices(
            SelectionPolicy::TopVersions,
            &devices(4),
            &versions,
            2,
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel, vec![DeviceId(1), DeviceId(3)]);
    }

    #[test]
    fn worst_case_takes_the_stalest() {
        let versions = [5.0, 9.0, 1.0, 7.0];
        let mut rng = SeedStream::new(0);
        let sel = select_devices(
            SelectionPolicy::WorstCase,
            &devices(4),
            &versions,
            2,
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel, vec![DeviceId(0), DeviceId(2)]);
    }

    #[test]
    fn selecting_everyone_returns_everyone() {
        let mut rng = SeedStream::new(0);
        let sel = select_devices(
            SelectionPolicy::VersionGaussian,
            &devices(3),
            &[1.0, 2.0, 3.0],
            5,
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel, devices(3));
    }

    #[test]
    fn selection_validates_inputs() {
        let mut rng = SeedStream::new(0);
        assert!(select_devices(
            SelectionPolicy::VersionGaussian,
            &devices(2),
            &[1.0],
            1,
            &mut rng
        )
        .is_err());
        assert!(select_devices(
            SelectionPolicy::VersionGaussian,
            &devices(2),
            &[1.0, 2.0],
            0,
            &mut rng
        )
        .is_err());
        assert!(select_devices(SelectionPolicy::VersionGaussian, &[], &[], 1, &mut rng).is_err());
        assert!(selection_weights(&[f64::NAN]).is_err());
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let mut rng = SeedStream::new(3);
        for _ in 0..100 {
            let sel = select_devices(
                SelectionPolicy::VersionGaussian,
                &devices(5),
                &[10.0, 20.0, 30.0, 40.0, 50.0],
                3,
                &mut rng,
            )
            .unwrap();
            let mut dedup = sel.clone();
            dedup.dedup();
            assert_eq!(sel.len(), 3);
            assert_eq!(dedup.len(), 3, "duplicate device selected");
            assert!(sel.windows(2).all(|w| w[0] < w[1]), "not sorted: {sel:?}");
        }
    }
}
