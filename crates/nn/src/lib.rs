//! A minimal neural-network stack with reverse-mode automatic
//! differentiation — the substrate standing in for PyTorch in this
//! reproduction (the paper's models are small: `d = 64`, 2–4 transformer
//! layers, one GRU).
//!
//! Design:
//!
//! * [`Matrix`] — a dense row-major `f64` matrix; all tensors are 2-D
//!   (sequences are `len × dim` matrices), which covers every operation in
//!   the paper and keeps the autograd simple and fast.
//! * [`Graph`] — a per-forward-pass *tape*. Operations are recorded as an
//!   enum ([`graph::Op`]) with parent node ids; [`Graph::backward`]
//!   replays the tape in reverse with a hand-written adjoint per op. No
//!   closures, no reference cycles, trivially testable against finite
//!   differences (see the `grad_check` tests).
//! * [`Param`] — persistent learnable state shared across graphs (and
//!   across inference threads) via `Arc<RwLock<…>>`; gradients accumulate
//!   into the param when the graph is back-propagated.
//! * [`train`] — the one training loop: [`train::fit`] shuffles,
//!   accumulates gradients over a batch, steps a (crate-private) Adam and
//!   optionally early-stops on a validation set; a model only supplies its
//!   params and one sample's loss.
//! * [`layers`] — the modules the paper uses: [`Linear`], [`Mlp`],
//!   [`LayerNorm`], [`MultiHeadAttention`], [`TransformerEncoder`] (Eq. 4–6)
//!   and [`GruCell`] (the decoder of TRMMA), plus sinusoidal positional
//!   encodings. Each has a tape `forward`; the ones inference runs also
//!   have a forward-only twin on flat slices ([`Linear::apply_rows`],
//!   [`TransformerEncoder::forward_flat`] through an [`EncoderScratch`])
//!   pinned to the tape bit for bit.
//! * [`kernels`] — the flat-slice loops those twins are built from.
//!
//! Everything is deterministic given a seed.
//!
//! # Example
//!
//! Record a tiny forward pass on the tape and read a hand-checkable
//! gradient back out:
//!
//! ```
//! use trmma_nn::{Graph, Matrix};
//!
//! let mut g = Graph::new();
//! let x = g.leaf(Matrix::from_rows(&[vec![2.0, 3.0]]));
//! let y = g.mul(x, x);        // elementwise square
//! let loss = g.sum_all(y);    // loss = Σ x² = 13
//! assert!((g.value(loss).get(0, 0) - 13.0).abs() < 1e-12);
//! g.backward(loss);
//! // d loss / d x = 2x
//! let grad = g.grad(x);
//! assert_eq!((grad.get(0, 0), grad.get(0, 1)), (4.0, 6.0));
//! ```

pub mod graph;
pub mod kernels;
pub mod layers;
pub mod matrix;
mod optim;
pub mod param;
pub mod serialize;
pub mod train;

pub use graph::{Graph, NodeId};
pub use layers::{
    positional_encoding, EncoderScratch, GruCell, LayerNorm, Linear, Mlp, MultiHeadAttention,
    TransformerEncoder,
};
pub use matrix::Matrix;
pub use param::{Init, Param};
pub use serialize::{load_params, save_params, LoadError};
pub use train::TrainReport;

#[cfg(test)]
mod grad_check;
