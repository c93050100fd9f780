//! # gaia-tensor
//!
//! Dense `f32` tensors, small dense linear algebra and tape-based
//! reverse-mode automatic differentiation.
//!
//! This crate is the computational substrate of the Gaia reproduction — it
//! plays the role Keras/AGL play in the paper. Everything above it
//! (`gaia-nn`, `gaia-core`, the baselines) expresses forward passes through
//! [`autodiff::Graph`] and receives exact gradients.
//!
//! ## Quick example
//!
//! ```
//! use gaia_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let w = g.bind_param(0, Tensor::from_vec(vec![2, 1], vec![0.5, -0.25]));
//! let x = g.constant(Tensor::from_vec(vec![1, 2], vec![2.0, 4.0]));
//! let y = g.matmul(x, w);             // [1,1] = 2*0.5 + 4*(-0.25) = 0
//! let loss = g.mse(y, &Tensor::from_vec(vec![1, 1], vec![1.0]));
//! g.backward(loss);
//! let (key, grad) = g.param_grads().next().unwrap();
//! assert_eq!(key, 0);
//! assert_eq!(grad.shape(), &[2, 1]);
//! ```
//!
//! ## Layering
//!
//! * [`tensor`] — the dense tensor type plus straightforward *reference*
//!   implementations (naive conv1d, etc.).
//! * [`kernels`] — the optimised hot-path kernels (blocked matmul, fused
//!   conv1d + bias + activation, fused attention scores); every kernel
//!   writes into a caller-provided slice and is parity-tested against the
//!   reference implementations.
//! * [`pool`] — the size-keyed [`TensorPool`] of recycled buffers.
//! * [`autodiff`] — the tape; ops dispatch to `kernels` and draw outputs
//!   from the tape-owned pool, so reset-reused tapes run allocation-free.
//! * [`claim`] — claimed-run work sharing for the parallel passes that
//!   fill a caller-allocated slice (full publish, world synthesis,
//!   dataset build).

#![warn(missing_docs)]

pub mod autodiff;
pub mod claim;
pub mod kernels;
pub mod linalg;
pub mod pool;
pub mod simd;
pub mod tensor;

pub use autodiff::{Graph, VarId};
pub use kernels::Activation;
pub use linalg::{cholesky, lstsq, solve, solve_tensor, LinalgError};
pub use pool::TensorPool;
pub use tensor::{conv1d, conv1d_backward, gauss, softmax_in_place, PadMode, Tensor};
