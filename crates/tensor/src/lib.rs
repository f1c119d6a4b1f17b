//! # adamel-tensor
//!
//! The numeric substrate for the AdaMEL reproduction: dense `f32` matrices,
//! a define-by-run reverse-mode autograd tape, parameter storage, weight
//! initialization, and the Adam/SGD optimizers.
//!
//! The paper trains a small attention-augmented MLP; rather than bind to an
//! immature deep-learning binding, this crate implements exactly the
//! operations that model needs, each with an analytically derived backward
//! pass that is verified against central finite differences in the crate's
//! property tests (`tests/gradcheck.rs`).
//!
//! ## Example
//!
//! ```
//! use adamel_tensor::{Graph, Matrix, ParamSet, Adam, Optimizer, init};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut params = ParamSet::new();
//! let w = params.insert("w", init::xavier_uniform(2, 1, &mut rng));
//! let b = params.insert("b", Matrix::zeros(1, 1));
//! let mut opt = Adam::with_lr(0.1);
//!
//! // Learn y = x0 + x1 with a linear model (three points so the
//! // three-parameter system has a unique least-squares solution).
//! let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 1.0], vec![2.0, 2.0]]);
//! let y = Matrix::from_vec(3, 1, vec![3.0, 4.0, 4.0]);
//! for _ in 0..2500 {
//!     params.zero_grads();
//!     let mut g = Graph::new();
//!     let xv = g.constant(x.clone());
//!     let wv = g.param(&params, w);
//!     let bv = g.param(&params, b);
//!     let pred = g.linear(xv, wv, bv);
//!     let yv = g.constant(y.clone());
//!     let neg = g.scale(yv, -1.0);
//!     let diff = g.add(pred, neg);
//!     let sq = g.mul(diff, diff);
//!     let loss = g.mean_all(sq);
//!     g.backward(loss, &mut params);
//!     opt.step(&mut params);
//! }
//! assert!((params.value(w).get(0, 0) - 1.0).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod graph;
mod matrix;
mod optim;
mod params;

pub mod gemm;
pub mod init;
pub mod parallel;
pub mod plan;
pub mod sanitize;

pub use graph::{Graph, Var};
pub use matrix::{Matrix, CHEAP_MAP_FLOPS, SIGMOID_FLOPS, TANH_FLOPS};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, ParamSet};
