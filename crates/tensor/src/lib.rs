//! # hfta-tensor
//!
//! Dense `f32` n-dimensional tensors and the neural-network kernels needed
//! by the HFTA (Horizontally Fused Training Array, MLSys 2021)
//! reproduction: broadcasting arithmetic, reductions, batched GEMM
//! (`bmm`/`baddbmm`), **grouped** (transposed) convolutions, max pooling,
//! batch normalization and softmax — each with the gradient kernels the
//! autograd layer (`hfta-nn`) builds on.
//!
//! Grouped convolution and `baddbmm` deserve the emphasis: they are the
//! already-well-optimized operators that HFTA's inter-model horizontal
//! fusion maps onto (Table 6 of the paper).
//!
//! # Example
//!
//! ```
//! use hfta_tensor::{conv::{conv2d, ConvCfg}, Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let x = rng.randn([1, 3, 8, 8]);
//! let w = rng.randn([16, 3, 3, 3]);
//! let y = conv2d(&x, &w, None, ConvCfg::square(1, 1, 1));
//! assert_eq!(y.dims(), &[1, 16, 8, 8]);
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod conv;
mod elementwise;
pub mod error;
mod init;
mod layout;
mod linalg;
pub mod norm;
pub mod pool;
mod reduce;
mod shape;
mod tensor;
pub mod update;

pub use error::{Result, TensorError};
pub use init::Rng;
pub use shape::{IndexIter, Shape};
pub use tensor::Tensor;
