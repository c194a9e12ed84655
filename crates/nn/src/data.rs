use hadfl_tensor::{SeedStream, Tensor};
use serde::{Deserialize, Serialize};

use crate::error::NnError;

/// Parameters of the synthetic CIFAR-like image task.
///
/// Each class `c` has a fixed *prototype*: a smooth random field built from
/// a few sinusoids per channel, deterministic in `pattern_seed`. A sample
/// of class `c` is `jitter · prototype_c + noise · N(0, 1)` pixelwise. The
/// prototype seed is shared between the train and test sets (same task);
/// sample seeds differ (disjoint draws). See DESIGN.md §2 for why this
/// stands in for CIFAR-10.
///
/// # Example
///
/// ```
/// use hadfl_nn::SyntheticSpec;
///
/// let spec = SyntheticSpec::cifar_like();
/// assert_eq!(spec.sample_dims(), vec![3, 16, 16]);
/// assert_eq!(spec.classes, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticSpec {
    /// Image channels.
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
    /// Per-pixel Gaussian noise standard deviation. Higher noise lowers the
    /// achievable test accuracy (the task's Bayes error).
    pub noise: f32,
    /// Per-sample amplitude jitter `j`: samples scale their prototype by a
    /// factor drawn uniformly from `[1-j, 1+j]`.
    pub amplitude_jitter: f32,
    /// Seed of the class prototypes. Train and test sets of the same task
    /// must share this value.
    pub pattern_seed: u64,
}

impl SyntheticSpec {
    /// A tiny 3×8×8, 10-class task for unit tests.
    pub fn tiny() -> Self {
        SyntheticSpec {
            channels: 3,
            height: 8,
            width: 8,
            classes: 10,
            noise: 2.5,
            amplitude_jitter: 0.3,
            pattern_seed: 0xC1FA_0001,
        }
    }

    /// The default experiment task: 3×16×16, 10 classes, noise tuned
    /// (empirically, see EXPERIMENTS.md) so the lite models saturate in
    /// the high-80s/low-90s accuracy range the paper reports for
    /// CIFAR-10, with `vgg16_lite` converging later and less stably than
    /// `resnet18_lite` — the same qualitative contrast as the paper's
    /// VGG-16 vs ResNet-18.
    pub fn cifar_like() -> Self {
        SyntheticSpec {
            channels: 3,
            height: 16,
            width: 16,
            classes: 10,
            noise: 2.2,
            amplitude_jitter: 0.35,
            pattern_seed: 0xC1FA_0002,
        }
    }

    /// Per-sample tensor dimensions `[C, H, W]`.
    pub fn sample_dims(&self) -> Vec<usize> {
        vec![self.channels, self.height, self.width]
    }

    /// Elements per sample.
    pub fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    fn validate(&self) -> Result<(), NnError> {
        if self.classes == 0 || self.channels == 0 || self.height == 0 || self.width == 0 {
            return Err(NnError::InvalidConfig(format!(
                "synthetic spec has zero extent: {self:?}"
            )));
        }
        if self.noise < 0.0 || !self.noise.is_finite() {
            return Err(NnError::InvalidConfig(format!(
                "invalid noise {}",
                self.noise
            )));
        }
        Ok(())
    }

    /// Builds the per-class prototype fields, `classes × sample_len`.
    fn prototypes(&self) -> Vec<Vec<f32>> {
        const SINUSOIDS: usize = 4;
        let mut rng = SeedStream::new(self.pattern_seed);
        let mut protos = Vec::with_capacity(self.classes);
        for _class in 0..self.classes {
            let mut proto = vec![0.0f32; self.sample_len()];
            for c in 0..self.channels {
                for _ in 0..SINUSOIDS {
                    let fy = rng.index(3) as f32 + 1.0;
                    let fx = rng.index(3) as f32 + 1.0;
                    let phase = rng.uniform(0.0, std::f32::consts::TAU);
                    let amp = rng.uniform(0.4, 1.0);
                    for y in 0..self.height {
                        for x in 0..self.width {
                            let arg = std::f32::consts::TAU
                                * (fy * y as f32 / self.height as f32
                                    + fx * x as f32 / self.width as f32)
                                + phase;
                            proto[(c * self.height + y) * self.width + x] += amp * arg.sin();
                        }
                    }
                }
            }
            protos.push(proto);
        }
        protos
    }
}

/// How a dataset is split across federated devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ShardSpec {
    /// Shuffle and deal samples round-robin: every shard is IID with the
    /// global distribution (the paper's setting — "training data is split
    /// on four GPUs").
    Iid,
    /// Dirichlet(α) label skew: for each class, the share assigned to each
    /// device is drawn from `Dir(α, …, α)`. Small α means heavy non-IID.
    Dirichlet {
        /// Concentration parameter; must be positive.
        alpha: f32,
    },
}

/// An in-memory labelled image dataset.
///
/// Samples are stored as one flat `Vec<f32>` in NCHW order plus a label
/// vector; [`batch`](Dataset::batch) materializes any index set as a
/// `(batch, C, H, W)` tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    sample_dims: Vec<usize>,
    images: Vec<f32>,
    labels: Vec<usize>,
}

impl Dataset {
    /// Generates `n` samples of the synthetic CIFAR-like task.
    ///
    /// `sample_seed` controls the random draws of *this* set only; use
    /// different values for train and test so they are disjoint, while the
    /// class patterns come from `spec.pattern_seed`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] for a degenerate spec.
    pub fn synthetic_cifar(
        n: usize,
        spec: &SyntheticSpec,
        sample_seed: u64,
    ) -> Result<Self, NnError> {
        spec.validate()?;
        let protos = spec.prototypes();
        let sample_len = spec.sample_len();
        let mut rng = SeedStream::new(sample_seed ^ 0x5A17_AB1E);
        let mut images = Vec::with_capacity(n * sample_len);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            // Cycle classes for exact balance, shuffled by the sample order.
            let label = i % spec.classes;
            let jitter = rng.uniform(1.0 - spec.amplitude_jitter, 1.0 + spec.amplitude_jitter);
            for &p in &protos[label] {
                images.push(jitter * p + spec.noise * rng.normal());
            }
            labels.push(label);
        }
        // Shuffle samples so class order carries no signal.
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let mut ds = Dataset {
            sample_dims: spec.sample_dims(),
            images,
            labels,
        };
        ds = ds.subset(&order)?;
        Ok(ds)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Per-sample dimensions `[C, H, W]` (or any shape for non-image data).
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// The label vector.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Histogram of labels (index = class).
    pub fn class_counts(&self) -> Vec<usize> {
        let classes = self.labels.iter().copied().max().map_or(0, |m| m + 1);
        let mut counts = vec![0usize; classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }

    /// Materializes the samples at `indices` as a `(batch, …)` tensor plus
    /// their labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BatchMismatch`] if `indices` is empty or any
    /// index is out of range.
    pub fn batch(&self, indices: &[usize]) -> Result<(Tensor, Vec<usize>), NnError> {
        if indices.is_empty() {
            return Err(NnError::BatchMismatch("empty batch".into()));
        }
        let sample_len: usize = self.sample_dims.iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(NnError::BatchMismatch(format!(
                    "index {i} out of range for {} samples",
                    self.len()
                )));
            }
            data.extend_from_slice(&self.images[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.sample_dims);
        Ok((Tensor::from_vec(data, &dims)?, labels))
    }

    /// Copies the samples at `indices` into a new dataset (order kept,
    /// duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BatchMismatch`] if any index is out of range.
    pub fn subset(&self, indices: &[usize]) -> Result<Dataset, NnError> {
        let sample_len: usize = self.sample_dims.iter().product();
        let mut images = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            if i >= self.len() {
                return Err(NnError::BatchMismatch(format!(
                    "index {i} out of range for {} samples",
                    self.len()
                )));
            }
            images.extend_from_slice(&self.images[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        Ok(Dataset {
            sample_dims: self.sample_dims.clone(),
            images,
            labels,
        })
    }

    /// Splits the dataset into `k` device shards.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `k` is zero, larger than the
    /// dataset, or a Dirichlet α is not positive.
    pub fn shard(&self, k: usize, spec: ShardSpec, seed: u64) -> Result<Vec<Dataset>, NnError> {
        if k == 0 || k > self.len() {
            return Err(NnError::InvalidConfig(format!(
                "cannot shard {} samples into {k} devices",
                self.len()
            )));
        }
        let mut rng = SeedStream::new(seed ^ 0x5AAD_BEEF);
        let assignment: Vec<usize> = match spec {
            ShardSpec::Iid => {
                let mut order: Vec<usize> = (0..self.len()).collect();
                rng.shuffle(&mut order);
                let mut assignment = vec![0usize; self.len()];
                for (pos, &sample) in order.iter().enumerate() {
                    assignment[sample] = pos % k;
                }
                assignment
            }
            ShardSpec::Dirichlet { alpha } => {
                if !(alpha > 0.0) || !alpha.is_finite() {
                    return Err(NnError::InvalidConfig(format!("dirichlet alpha {alpha}")));
                }
                let classes = self.class_counts().len().max(1);
                // Per class, draw device shares and deal that class's
                // samples proportionally.
                let mut assignment = vec![0usize; self.len()];
                for class in 0..classes {
                    let members: Vec<usize> = (0..self.len())
                        .filter(|&i| self.labels[i] == class)
                        .collect();
                    if members.is_empty() {
                        continue;
                    }
                    let shares = dirichlet(alpha, k, &mut rng);
                    // Convert shares to cumulative boundaries over members.
                    let mut cum = 0.0f32;
                    let mut boundaries = Vec::with_capacity(k);
                    for &s in &shares {
                        cum += s;
                        boundaries.push((cum * members.len() as f32).round() as usize);
                    }
                    *boundaries.last_mut().expect("k > 0") = members.len();
                    let mut start = 0;
                    for (dev, &end) in boundaries.iter().enumerate() {
                        for &m in &members[start..end.max(start)] {
                            assignment[m] = dev;
                        }
                        start = end.max(start);
                    }
                }
                assignment
            }
        };
        let mut shards = Vec::with_capacity(k);
        for dev in 0..k {
            let idxs: Vec<usize> = (0..self.len()).filter(|&i| assignment[i] == dev).collect();
            shards.push(self.subset(&idxs)?);
        }
        Ok(shards)
    }
}

/// Draws a `Dir(α, …, α)` vector of length `k` via normalized Gamma draws
/// (Marsaglia–Tsang).
fn dirichlet(alpha: f32, k: usize, rng: &mut SeedStream) -> Vec<f32> {
    let mut draws: Vec<f32> = (0..k).map(|_| gamma(alpha, rng)).collect();
    let total: f32 = draws.iter().sum();
    if total <= 0.0 {
        // Degenerate underflow (tiny α): pick one winner uniformly.
        let winner = rng.index(k);
        draws.iter_mut().for_each(|d| *d = 0.0);
        draws[winner] = 1.0;
        return draws;
    }
    draws.iter_mut().for_each(|d| *d /= total);
    draws
}

/// Gamma(shape, 1) sampler (Marsaglia–Tsang, with the α<1 boost).
fn gamma(shape: f32, rng: &mut SeedStream) -> f32 {
    if shape < 1.0 {
        let u = rng.uniform(f32::EPSILON, 1.0);
        return gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = rng.normal();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.uniform(f32::EPSILON, 1.0);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic_in_seed() {
        let spec = SyntheticSpec::tiny();
        let a = Dataset::synthetic_cifar(32, &spec, 1).unwrap();
        let b = Dataset::synthetic_cifar(32, &spec, 1).unwrap();
        let c = Dataset::synthetic_cifar(32, &spec, 2).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_classes_are_balanced() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(100, &spec, 1).unwrap();
        let counts = ds.class_counts();
        assert_eq!(counts.len(), 10);
        assert!(counts.iter().all(|&c| c == 10), "{counts:?}");
    }

    #[test]
    fn synthetic_rejects_zero_classes() {
        let bad = SyntheticSpec {
            classes: 0,
            ..SyntheticSpec::tiny()
        };
        assert!(Dataset::synthetic_cifar(8, &bad, 1).is_err());
    }

    #[test]
    fn same_pattern_seed_means_same_task() {
        // Two sets with the same pattern seed but different sample seeds
        // must correlate strongly per class (same prototypes).
        let spec = SyntheticSpec {
            noise: 0.0,
            amplitude_jitter: 0.0,
            ..SyntheticSpec::tiny()
        };
        let a = Dataset::synthetic_cifar(10, &spec, 1).unwrap();
        let b = Dataset::synthetic_cifar(10, &spec, 99).unwrap();
        // With zero noise/jitter, sample == prototype: class-0 images equal.
        let ia = a.labels().iter().position(|&l| l == 0).unwrap();
        let ib = b.labels().iter().position(|&l| l == 0).unwrap();
        let (ta, _) = a.batch(&[ia]).unwrap();
        let (tb, _) = b.batch(&[ib]).unwrap();
        assert_eq!(ta, tb);
    }

    #[test]
    fn batch_shapes_and_labels() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(20, &spec, 3).unwrap();
        let (x, y) = ds.batch(&[0, 5, 7]).unwrap();
        assert_eq!(x.dims(), &[3, 3, 8, 8]);
        assert_eq!(y.len(), 3);
        assert!(ds.batch(&[]).is_err());
        assert!(ds.batch(&[20]).is_err());
    }

    #[test]
    fn iid_shards_partition_and_balance() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(100, &spec, 4).unwrap();
        let shards = ds.shard(4, ShardSpec::Iid, 9).unwrap();
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, 100);
        for s in &shards {
            assert_eq!(s.len(), 25);
            // IID: every shard sees most classes
            let nonzero = s.class_counts().iter().filter(|&&c| c > 0).count();
            assert!(nonzero >= 8, "shard saw only {nonzero} classes");
        }
    }

    #[test]
    fn dirichlet_small_alpha_skews_labels() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(400, &spec, 4).unwrap();
        let shards = ds.shard(4, ShardSpec::Dirichlet { alpha: 0.1 }, 2).unwrap();
        let total: usize = shards.iter().map(Dataset::len).sum();
        assert_eq!(total, 400);
        // At α = 0.1 at least one shard should be visibly skewed: its top
        // class holds far more than the IID share (10%).
        let max_frac = shards
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let counts = s.class_counts();
                let top = counts.iter().copied().max().unwrap_or(0);
                top as f32 / s.len() as f32
            })
            .fold(0.0f32, f32::max);
        assert!(max_frac > 0.25, "no skew observed: {max_frac}");
    }

    #[test]
    fn shard_rejects_bad_configs() {
        let spec = SyntheticSpec::tiny();
        let ds = Dataset::synthetic_cifar(10, &spec, 1).unwrap();
        assert!(ds.shard(0, ShardSpec::Iid, 1).is_err());
        assert!(ds.shard(11, ShardSpec::Iid, 1).is_err());
        assert!(ds.shard(2, ShardSpec::Dirichlet { alpha: 0.0 }, 1).is_err());
        assert!(ds
            .shard(2, ShardSpec::Dirichlet { alpha: f32::NAN }, 1)
            .is_err());
    }

    #[test]
    fn gamma_sampler_has_plausible_mean() {
        let mut rng = SeedStream::new(77);
        for &shape in &[0.5f32, 1.0, 2.0, 5.0] {
            let n = 4000;
            let mean: f32 = (0..n).map(|_| gamma(shape, &mut rng)).sum::<f32>() / n as f32;
            assert!(
                (mean - shape).abs() < 0.25 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = SeedStream::new(5);
        for &alpha in &[0.1f32, 1.0, 10.0] {
            let v = dirichlet(alpha, 6, &mut rng);
            assert_eq!(v.len(), 6);
            assert!((v.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(v.iter().all(|&x| x >= 0.0));
        }
    }
}
