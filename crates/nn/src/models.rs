//! Model zoo: CPU-feasible stand-ins for the paper's workloads.
//!
//! The paper trains ResNet-18 and VGG-16 on CIFAR-10 on four V100s. The
//! algorithms under test exchange *parameter vectors* and are agnostic to
//! the architecture behind them; what matters for reproducing the paper's
//! *shape* is having (a) a residual CNN that converges stably and (b) a
//! plain stacked CNN that is touchier — which is exactly the
//! [`resnet18_lite`] / [`vgg16_lite`] pair (see DESIGN.md §2).

use hadfl_tensor::SeedStream;

use crate::activation::Relu;
use crate::batchnorm::BatchNorm2d;
use crate::conv2d::Conv2d;
use crate::dense::Dense;
use crate::error::NnError;
use crate::layer::Flatten;
use crate::model::Model;
use crate::pool::{GlobalAvgPool2d, MaxPool2d};
use crate::residual::Residual;
use crate::sequential::Sequential;

fn expect_chw(sample_dims: &[usize]) -> Result<(usize, usize, usize), NnError> {
    match sample_dims {
        &[c, h, w] if c > 0 && h > 0 && w > 0 => Ok((c, h, w)),
        other => Err(NnError::InvalidConfig(format!(
            "expected [channels, height, width] sample dims, got {other:?}"
        ))),
    }
}

/// A multi-layer perceptron over flattened inputs.
///
/// `sample_dims` may be any shape (it is flattened); `hidden` lists the
/// hidden-layer widths.
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for zero classes or an empty input.
///
/// # Example
///
/// ```
/// use hadfl_nn::models;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let m = models::mlp(&[3, 8, 8], &[32, 16], 10, 0)?;
/// assert_eq!(m.arch(), "mlp");
/// # Ok(())
/// # }
/// ```
pub fn mlp(
    sample_dims: &[usize],
    hidden: &[usize],
    classes: usize,
    seed: u64,
) -> Result<Model, NnError> {
    let input_len: usize = sample_dims.iter().product();
    if input_len == 0 {
        return Err(NnError::InvalidConfig("mlp input has zero elements".into()));
    }
    let mut rng = SeedStream::new(seed ^ 0x0DE1_0001);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    let mut width = input_len;
    for &h in hidden {
        if h == 0 {
            return Err(NnError::InvalidConfig("mlp hidden width of zero".into()));
        }
        net.push(Dense::new(width, h, &mut rng));
        net.push(Relu::new());
        width = h;
    }
    net.push(Dense::new(width, classes, &mut rng));
    Model::new(net, classes, "mlp")
}

/// One `Conv → BN → ReLU → Conv → BN` residual body at constant width.
fn res_block(width: usize, h: usize, w: usize, rng: &mut SeedStream) -> Result<Residual, NnError> {
    let mut body = Sequential::new();
    body.push(Conv2d::new(width, width, h, w, 3, 1, 1, rng)?);
    body.push(BatchNorm2d::new(width)?);
    body.push(Relu::new());
    body.push(Conv2d::new(width, width, h, w, 3, 1, 1, rng)?);
    body.push(BatchNorm2d::new(width)?);
    Ok(Residual::new(body))
}

/// A scaled-down residual CNN in the shape of ResNet-18: a stem
/// convolution and three stages of `(strided conv ↓2) → residual block`,
/// ending in global average pooling and a linear classifier.
///
/// `height` and `width` must be divisible by 4 (two ↓2 stages).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for non-CHW sample dims or extents
/// not divisible by 4.
///
/// # Example
///
/// ```
/// use hadfl_nn::models;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let m = models::resnet18_lite(&[3, 16, 16], 10, 0)?;
/// assert_eq!(m.arch(), "resnet18_lite");
/// assert!(m.num_params() > 1000);
/// # Ok(())
/// # }
/// ```
pub fn resnet18_lite(sample_dims: &[usize], classes: usize, seed: u64) -> Result<Model, NnError> {
    let (c, h, w) = expect_chw(sample_dims)?;
    if h % 4 != 0 || w % 4 != 0 {
        return Err(NnError::InvalidConfig(format!(
            "resnet18_lite needs height/width divisible by 4, got {h}x{w}"
        )));
    }
    const WIDTH: usize = 8;
    let mut rng = SeedStream::new(seed ^ 0x0DE1_0002);
    let mut net = Sequential::new();
    // Stem
    net.push(Conv2d::new(c, WIDTH, h, w, 3, 1, 1, &mut rng)?);
    net.push(BatchNorm2d::new(WIDTH)?);
    net.push(Relu::new());
    net.push(res_block(WIDTH, h, w, &mut rng)?);
    net.push(Relu::new());
    // Stage 2: ↓2, double width
    let (h2, w2) = (h / 2, w / 2);
    net.push(Conv2d::new(WIDTH, 2 * WIDTH, h, w, 3, 2, 1, &mut rng)?);
    net.push(BatchNorm2d::new(2 * WIDTH)?);
    net.push(Relu::new());
    net.push(res_block(2 * WIDTH, h2, w2, &mut rng)?);
    net.push(Relu::new());
    // Stage 3: ↓2, double width
    let (h3, w3) = (h2 / 2, w2 / 2);
    net.push(Conv2d::new(
        2 * WIDTH,
        4 * WIDTH,
        h2,
        w2,
        3,
        2,
        1,
        &mut rng,
    )?);
    net.push(BatchNorm2d::new(4 * WIDTH)?);
    net.push(Relu::new());
    net.push(res_block(4 * WIDTH, h3, w3, &mut rng)?);
    net.push(Relu::new());
    // Head
    net.push(GlobalAvgPool2d::new());
    net.push(Dense::new(4 * WIDTH, classes, &mut rng));
    Model::new(net, classes, "resnet18_lite")
}

/// A scaled-down plain stacked CNN in the shape of VGG-16: blocks of
/// `Conv → ReLU` pairs separated by 2×2 max pooling, with a two-layer
/// dense classifier and — faithfully to VGG — no batch normalization and
/// no skip connections, which makes it the less stable of the pair.
///
/// `height` and `width` must be divisible by 8 (three pooling stages).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for non-CHW sample dims or extents
/// not divisible by 8.
///
/// # Example
///
/// ```
/// use hadfl_nn::models;
///
/// # fn main() -> Result<(), hadfl_nn::NnError> {
/// let m = models::vgg16_lite(&[3, 16, 16], 10, 0)?;
/// assert_eq!(m.arch(), "vgg16_lite");
/// # Ok(())
/// # }
/// ```
pub fn vgg16_lite(sample_dims: &[usize], classes: usize, seed: u64) -> Result<Model, NnError> {
    let (c, h, w) = expect_chw(sample_dims)?;
    if h % 8 != 0 || w % 8 != 0 {
        return Err(NnError::InvalidConfig(format!(
            "vgg16_lite needs height/width divisible by 8, got {h}x{w}"
        )));
    }
    const WIDTH: usize = 8;
    let mut rng = SeedStream::new(seed ^ 0x0DE1_0003);
    let mut net = Sequential::new();
    // Block 1 @ h×w
    net.push(Conv2d::new(c, WIDTH, h, w, 3, 1, 1, &mut rng)?);
    net.push(Relu::new());
    net.push(Conv2d::new(WIDTH, WIDTH, h, w, 3, 1, 1, &mut rng)?);
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)?);
    // Block 2 @ h/2
    let (h2, w2) = (h / 2, w / 2);
    net.push(Conv2d::new(WIDTH, 2 * WIDTH, h2, w2, 3, 1, 1, &mut rng)?);
    net.push(Relu::new());
    net.push(Conv2d::new(
        2 * WIDTH,
        2 * WIDTH,
        h2,
        w2,
        3,
        1,
        1,
        &mut rng,
    )?);
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)?);
    // Block 3 @ h/4
    let (h3, w3) = (h2 / 2, w2 / 2);
    net.push(Conv2d::new(
        2 * WIDTH,
        4 * WIDTH,
        h3,
        w3,
        3,
        1,
        1,
        &mut rng,
    )?);
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2)?);
    // Classifier @ h/8
    let (h4, w4) = (h3 / 2, w3 / 2);
    let feat = 4 * WIDTH * h4 * w4;
    net.push(Flatten::new());
    net.push(Dense::new(feat, 2 * feat.min(64), &mut rng));
    net.push(Relu::new());
    net.push(Dense::new(2 * feat.min(64), classes, &mut rng));
    Model::new(net, classes, "vgg16_lite")
}

/// Builds a zoo model by name: `"mlp"`, `"resnet18_lite"` or
/// `"vgg16_lite"` (the experiment harness's `--model` flag).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] for an unknown name or a spec the
/// named builder rejects.
pub fn by_name(
    name: &str,
    sample_dims: &[usize],
    classes: usize,
    seed: u64,
) -> Result<Model, NnError> {
    match name {
        "mlp" => mlp(sample_dims, &[64, 32], classes, seed),
        "resnet18_lite" => resnet18_lite(sample_dims, classes, seed),
        "vgg16_lite" => vgg16_lite(sample_dims, classes, seed),
        other => Err(NnError::InvalidConfig(format!("unknown model '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticSpec};
    use crate::loader::Loader;
    use crate::optim::Sgd;

    #[test]
    fn all_models_forward_on_16x16() {
        let spec = SyntheticSpec::cifar_like();
        let ds = Dataset::synthetic_cifar(8, &spec, 1).unwrap();
        let (x, y) = ds.batch(&[0, 1, 2, 3]).unwrap();
        for name in ["mlp", "resnet18_lite", "vgg16_lite"] {
            let mut m = by_name(name, &spec.sample_dims(), spec.classes, 0).unwrap();
            let mut opt = Sgd::new(0.01, 0.0);
            let loss = m.train_step(&x, &y, &mut opt).unwrap();
            assert!(loss.is_finite(), "{name} produced non-finite loss");
        }
    }

    #[test]
    fn resnet_trains_on_tiny_task() {
        let spec = SyntheticSpec::tiny();
        let train = Dataset::synthetic_cifar(80, &spec, 10).unwrap();
        let mut m = resnet18_lite(&spec.sample_dims(), spec.classes, 1).unwrap();
        let mut opt = Sgd::new(0.05, 0.9);
        let mut loader = Loader::new(train.len(), 16, 0);
        let before = m.evaluate(&train, 40).unwrap();
        for _ in 0..4 {
            for batch in loader.epoch() {
                let (x, y) = train.batch(&batch).unwrap();
                m.train_step(&x, &y, &mut opt).unwrap();
            }
        }
        let after = m.evaluate(&train, 40).unwrap();
        assert!(
            after.loss < before.loss,
            "{} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn vgg_trains_on_tiny_task() {
        let spec = SyntheticSpec::tiny();
        let train = Dataset::synthetic_cifar(80, &spec, 11).unwrap();
        let mut m = vgg16_lite(&spec.sample_dims(), spec.classes, 1).unwrap();
        let mut opt = Sgd::new(0.05, 0.9);
        let mut loader = Loader::new(train.len(), 16, 0);
        let before = m.evaluate(&train, 40).unwrap();
        for _ in 0..4 {
            for batch in loader.epoch() {
                let (x, y) = train.batch(&batch).unwrap();
                m.train_step(&x, &y, &mut opt).unwrap();
            }
        }
        let after = m.evaluate(&train, 40).unwrap();
        assert!(
            after.loss < before.loss,
            "{} -> {}",
            before.loss,
            after.loss
        );
    }

    #[test]
    fn param_vectors_are_portable_across_instances() {
        let spec = SyntheticSpec::tiny();
        let a = resnet18_lite(&spec.sample_dims(), 10, 1).unwrap();
        let mut b = resnet18_lite(&spec.sample_dims(), 10, 2).unwrap();
        assert_ne!(a.param_vector(), b.param_vector());
        b.set_param_vector(&a.param_vector()).unwrap();
        assert_eq!(a.param_vector(), b.param_vector());
    }

    #[test]
    fn builders_validate_geometry() {
        assert!(resnet18_lite(&[3, 10, 10], 10, 0).is_err()); // not /4
        assert!(vgg16_lite(&[3, 12, 12], 10, 0).is_err()); // not /8
        assert!(mlp(&[0], &[4], 10, 0).is_err());
        assert!(mlp(&[4], &[0], 10, 0).is_err());
        for unknown in ["alexnet", "vgg16_lite_dropout"] {
            let err = by_name(unknown, &[3, 8, 8], 10, 0).unwrap_err();
            assert!(err.to_string().contains("unknown model"), "{err}");
        }
    }

    #[test]
    fn zoo_names_resolve() {
        for name in ["mlp", "resnet18_lite", "vgg16_lite"] {
            let m = by_name(name, &[3, 8, 8], 10, 0).unwrap();
            assert_eq!(m.arch(), name);
        }
    }

    #[test]
    fn resnet_has_more_structure_than_mlp_head() {
        let m = resnet18_lite(&[3, 8, 8], 10, 0).unwrap();
        // A model's `Debug` names its network's layers, quoted.
        let names = format!("{m:?}");
        assert!(names.contains("\"Residual\""));
        assert!(names.contains("\"BatchNorm2d\""));
        assert!(names.contains("\"GlobalAvgPool2d\""));
        let v = vgg16_lite(&[3, 8, 8], 10, 0).unwrap();
        let vnames = format!("{v:?}");
        assert!(vnames.contains("\"MaxPool2d\""));
        assert!(!vnames.contains("\"Residual\""), "vgg must be plain");
        assert!(!vnames.contains("\"BatchNorm2d\""), "vgg must have no BN");
    }
}
