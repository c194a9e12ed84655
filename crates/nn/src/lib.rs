//! From-scratch CPU neural-network training substrate for the HADFL
//! reproduction.
//!
//! The federated-learning algorithms under test (HADFL, decentralized
//! FedAvg, synchronous distributed training) operate on *parameter
//! vectors*; this crate supplies everything needed to give those vectors
//! meaning on a CPU within a test budget:
//!
//! - layers with hand-written backward passes ([`Dense`], [`Conv2d`],
//!   [`Relu`], [`MaxPool2d`], [`GlobalAvgPool2d`], [`BatchNorm2d`],
//!   [`Residual`], [`Flatten`]), composed by [`Sequential`];
//! - softmax cross-entropy ([`softmax_cross_entropy`]);
//! - [`Sgd`] with momentum;
//! - a model zoo ([`models`]) with `resnet18_lite` / `vgg16_lite` /
//!   `mlp`, CPU-feasible stand-ins for the paper's ResNet-18 / VGG-16
//!   (see DESIGN.md §2 for the substitution argument);
//! - a synthetic CIFAR-like dataset ([`Dataset::synthetic_cifar`]) with
//!   IID and Dirichlet non-IID federated sharding;
//! - [`Model`], which packages a network with flatten/unflatten parameter
//!   vector access — the interface the FL crates communicate through.
//!
//! # Example
//!
//! ```
//! use hadfl_nn::{models, Dataset, Loader, Sgd, SyntheticSpec};
//!
//! # fn main() -> Result<(), hadfl_nn::NnError> {
//! let spec = SyntheticSpec::tiny();
//! let train = Dataset::synthetic_cifar(64, &spec, 1)?;
//! let test = Dataset::synthetic_cifar(32, &spec, 2)?;
//! let mut model = models::mlp(&spec.sample_dims(), &[16], spec.classes, 7)?;
//! let mut opt = Sgd::new(0.05, 0.0);
//! let mut loader = Loader::new(train.len(), 16, 3);
//! for _epoch in 0..2 {
//!     for batch in loader.epoch() {
//!         let (x, y) = train.batch(&batch)?;
//!         model.train_step(&x, &y, &mut opt)?;
//!     }
//! }
//! let m = model.evaluate(&test, 16)?;
//! assert!(m.accuracy >= 0.0 && m.accuracy <= 1.0);
//! # Ok(())
//! # }
//! ```

// `!(x > 0)`-style guards are deliberate: unlike `x <= 0` they also
// reject NaN, which is exactly what the validators want.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
mod activation;
mod batchnorm;
mod conv2d;
mod data;
mod dense;
mod error;
mod layer;
mod loader;
mod loss;
mod model;
pub mod models;
mod optim;
mod pool;
mod residual;
mod scratch;
mod sequential;

pub use activation::Relu;
pub use batchnorm::BatchNorm2d;
pub use conv2d::Conv2d;
pub use data::{Dataset, ShardSpec, SyntheticSpec};
pub use dense::Dense;
pub use error::NnError;
pub use layer::{Flatten, Layer, Tape};
pub use loader::Loader;
pub use loss::softmax_cross_entropy;
pub use model::{Metrics, Model};
pub use optim::Sgd;
pub use pool::{GlobalAvgPool2d, MaxPool2d};
pub use residual::Residual;
pub use sequential::Sequential;
