use serde::{Deserialize, Serialize};

use crate::error::HadflError;
use crate::select::SelectionPolicy;

/// Framework configuration (use [`HadflConfig::builder`]).
///
/// Field names follow the paper: `t_sync` is `T_sync` (aggregation every
/// `t_sync` hyperperiods), `num_selected` is `N_p`, `warmup_epochs` is
/// `E_warm_up`, `smoothing_alpha` is the α of Eq. (7).
///
/// # Example
///
/// ```
/// use hadfl::HadflConfig;
///
/// # fn main() -> Result<(), hadfl::HadflError> {
/// let cfg = HadflConfig::builder()
///     .t_sync(1)
///     .num_selected(2)
///     .warmup_epochs(1)
///     .seed(42)
///     .build()?;
/// assert_eq!(cfg.num_selected, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HadflConfig {
    /// Aggregate every `t_sync` hyperperiods (paper's `T_sync`, ≥ 1).
    pub t_sync: u32,
    /// Number of devices selected for partial synchronization (`N_p`).
    pub num_selected: usize,
    /// Mutual-negotiation warm-up length in epochs (`E_warm_up`, ≥ 1).
    pub warmup_epochs: u32,
    /// Learning rate during warm-up (the paper uses a small one).
    pub warmup_lr: f32,
    /// Learning rate after warm-up (the paper uses 0.01).
    pub lr: f32,
    /// SGD momentum (0 disables).
    pub momentum: f32,
    /// Smoothing factor α of the double-exponential version predictor
    /// (Eq. 7), in (0, 1).
    pub smoothing_alpha: f64,
    /// Unselected devices integrate the broadcast model as
    /// `w ← β·w_sync + (1−β)·w_local`; `β = 1` overwrites.
    pub blend_beta: f32,
    /// Device-selection policy for partial aggregation (Eq. 8 by default).
    pub selection: SelectionPolicy,
    /// How long a ring member waits for its upstream before starting the
    /// handshake/bypass procedure (§III-D), in virtual seconds.
    pub handshake_timeout_secs: f64,
    /// Split devices into groups of at most this size (`None` = one
    /// group). Intra-group sync runs every round; inter-group sync every
    /// [`inter_group_every`](Self::inter_group_every) rounds.
    pub group_size: Option<usize>,
    /// Inter-group synchronization period, in intra-group rounds (≥ 1).
    pub inter_group_every: u32,
    /// Weight the partial aggregation by shard sizes (`n_k / N`, Eq. 2)
    /// instead of uniformly — the paper's future-work "data
    /// distribution" optimization, useful under non-IID sharding.
    pub weight_by_samples: bool,
    /// Master seed for every random choice the framework makes.
    pub seed: u64,
}

impl HadflConfig {
    /// Starts building a configuration pre-loaded with the paper's
    /// defaults (`T_sync = 1`, `N_p = 2`, `E_warm_up = 1`, lr 0.01,
    /// α = 0.5, β = 0.5).
    pub fn builder() -> HadflConfigBuilder {
        HadflConfigBuilder::default()
    }

    fn validate(&self) -> Result<(), HadflError> {
        if self.t_sync == 0 {
            return Err(HadflError::InvalidConfig(
                "t_sync must be at least 1".into(),
            ));
        }
        if self.num_selected < 2 {
            return Err(HadflError::InvalidConfig(
                "at least 2 devices must be selected for a ring".into(),
            ));
        }
        if self.warmup_epochs == 0 {
            return Err(HadflError::InvalidConfig(
                "warmup_epochs must be at least 1".into(),
            ));
        }
        for (name, v) in [("warmup_lr", self.warmup_lr), ("lr", self.lr)] {
            if !(v > 0.0) || !v.is_finite() {
                return Err(HadflError::InvalidConfig(format!(
                    "{name} must be positive, got {v}"
                )));
            }
        }
        if !(0.0..1.0).contains(&self.momentum) {
            return Err(HadflError::InvalidConfig(format!(
                "momentum must be in [0, 1), got {}",
                self.momentum
            )));
        }
        if !(self.smoothing_alpha > 0.0 && self.smoothing_alpha < 1.0) {
            return Err(HadflError::InvalidConfig(format!(
                "smoothing_alpha must be in (0, 1), got {}",
                self.smoothing_alpha
            )));
        }
        if !(0.0..=1.0).contains(&self.blend_beta) {
            return Err(HadflError::InvalidConfig(format!(
                "blend_beta must be in [0, 1], got {}",
                self.blend_beta
            )));
        }
        if !(self.handshake_timeout_secs > 0.0) || !self.handshake_timeout_secs.is_finite() {
            return Err(HadflError::InvalidConfig(format!(
                "handshake_timeout_secs must be positive, got {}",
                self.handshake_timeout_secs
            )));
        }
        if self.group_size == Some(0) {
            return Err(HadflError::InvalidConfig(
                "group_size must be at least 1".into(),
            ));
        }
        if self.inter_group_every == 0 {
            return Err(HadflError::InvalidConfig(
                "inter_group_every must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Builder for [`HadflConfig`]; see that type's example.
#[derive(Debug, Clone)]
pub struct HadflConfigBuilder {
    config: HadflConfig,
}

impl Default for HadflConfigBuilder {
    fn default() -> Self {
        HadflConfigBuilder {
            config: HadflConfig {
                t_sync: 1,
                num_selected: 2,
                warmup_epochs: 1,
                warmup_lr: 0.001,
                lr: 0.01,
                momentum: 0.9,
                smoothing_alpha: 0.5,
                blend_beta: 0.5,
                selection: SelectionPolicy::VersionGaussian,
                handshake_timeout_secs: 0.05,
                group_size: None,
                inter_group_every: 2,
                weight_by_samples: false,
                seed: 0,
            },
        }
    }
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.config.$name = value;
            self
        }
    };
}

impl HadflConfigBuilder {
    setter!(
        /// Sets the aggregation period in hyperperiods (`T_sync`).
        t_sync: u32
    );
    setter!(
        /// Sets the partial-synchronization set size (`N_p`).
        num_selected: usize
    );
    setter!(
        /// Sets the mutual-negotiation warm-up length (`E_warm_up`).
        warmup_epochs: u32
    );
    setter!(
        /// Sets the warm-up learning rate.
        warmup_lr: f32
    );
    setter!(
        /// Sets the post-warm-up learning rate.
        lr: f32
    );
    setter!(
        /// Sets the SGD momentum.
        momentum: f32
    );
    setter!(
        /// Sets the Eq. (7) smoothing factor α.
        smoothing_alpha: f64
    );
    setter!(
        /// Sets the unselected-device blend factor β.
        blend_beta: f32
    );
    setter!(
        /// Sets the device-selection policy.
        selection: SelectionPolicy
    );
    setter!(
        /// Sets the fault-tolerance handshake timeout (seconds).
        handshake_timeout_secs: f64
    );
    setter!(
        /// Sets the maximum group size (`None` = single group).
        group_size: Option<usize>
    );
    setter!(
        /// Sets the inter-group sync period, in intra-group rounds.
        inter_group_every: u32
    );
    setter!(
        /// Sets whether aggregation is weighted by shard sizes (Eq. 2).
        weight_by_samples: bool
    );
    setter!(
        /// Sets the master seed.
        seed: u64
    );

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] describing the first
    /// out-of-range field.
    pub fn build(self) -> Result<HadflConfig, HadflError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build() {
        let cfg = HadflConfig::builder().build().unwrap();
        assert_eq!(cfg.t_sync, 1);
        assert_eq!(cfg.num_selected, 2);
        assert_eq!(cfg.selection, SelectionPolicy::VersionGaussian);
    }

    #[test]
    fn rejects_out_of_range_fields() {
        assert!(HadflConfig::builder().t_sync(0).build().is_err());
        assert!(HadflConfig::builder().num_selected(1).build().is_err());
        assert!(HadflConfig::builder().warmup_epochs(0).build().is_err());
        assert!(HadflConfig::builder().lr(0.0).build().is_err());
        assert!(HadflConfig::builder().warmup_lr(-0.1).build().is_err());
        assert!(HadflConfig::builder().momentum(1.0).build().is_err());
        assert!(HadflConfig::builder().smoothing_alpha(0.0).build().is_err());
        assert!(HadflConfig::builder().smoothing_alpha(1.0).build().is_err());
        assert!(HadflConfig::builder().blend_beta(1.5).build().is_err());
        assert!(HadflConfig::builder()
            .handshake_timeout_secs(0.0)
            .build()
            .is_err());
        assert!(HadflConfig::builder().group_size(Some(0)).build().is_err());
        assert!(HadflConfig::builder().inter_group_every(0).build().is_err());
    }

    #[test]
    fn setters_chain() {
        let cfg = HadflConfig::builder()
            .t_sync(3)
            .num_selected(4)
            .blend_beta(1.0)
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(
            (cfg.t_sync, cfg.num_selected, cfg.blend_beta, cfg.seed),
            (3, 4, 1.0, 99)
        );
    }
}
