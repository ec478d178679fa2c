//! Small dense linear-algebra substrate for the `fluxprint` workspace.
//!
//! The NLS parameter fitting of the paper decomposes into an *outer*
//! derivative-free search over sink positions and an *inner* linear
//! least-squares fit of the integrated traffic-stretch factors `s_j / r`
//! (§4.A: "we take s_j/r as an integrated factor and fit its value").
//! Stretches are physically non-negative, so the inner problem is
//! non-negative least squares. This crate provides everything those solvers
//! need, implemented from scratch:
//!
//! - [`Matrix`] — dense row-major matrices with the usual operations;
//! - [`QrFactor`] — Householder QR for numerically robust least squares;
//! - [`LuFactor`] — partially pivoted LU for the Levenberg–Marquardt steps;
//! - [`nnls`] — Lawson–Hanson non-negative least squares;
//! - [`lstsq`] — ordinary least squares via QR.
//!
//! # Example
//!
//! ```
//! use fluxprint_linalg::{lstsq, Matrix};
//!
//! // Fit y = 2x + 1 through three exact samples.
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]])?;
//! let y = [1.0, 3.0, 5.0];
//! let beta = lstsq(&a, &y)?;
//! assert!((beta[0] - 2.0).abs() < 1e-10);
//! assert!((beta[1] - 1.0).abs() < 1e-10);
//! # Ok::<(), fluxprint_linalg::LinalgError>(())
//! ```

#![warn(missing_docs)]
// Substitution/elimination loops are written with explicit indices to
// mirror the textbook algorithms; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

mod error;
mod lu;
mod matrix;
mod nnls;
mod qr;
pub mod vecops;

pub use error::LinalgError;
pub use lu::LuFactor;
pub use matrix::Matrix;
pub use nnls::{nnls, nnls_gram_into, NnlsScratch, NnlsSolution};
pub use qr::{lstsq, QrFactor};
