//! From-scratch dense linear algebra for the GPS reproduction.
//!
//! The ICDCS 2010 paper's algorithms reduce to a handful of dense linear
//! algebra primitives on small matrices (a few rows per visible satellite):
//!
//! * the Newton–Raphson baseline solves an over-determined `m × 4` system by
//!   **ordinary least squares** at every iteration (paper eq. 3-26/3-28);
//! * algorithm **DLO** solves one `(m−1) × 3` system by OLS (eq. 4-12);
//! * algorithm **DLG** solves the same system by **general least squares**
//!   with a non-diagonal covariance (eq. 4-21), which needs a symmetric
//!   positive-definite solve (Cholesky).
//!
//! This crate provides exactly those primitives, built from scratch and
//! property-tested: a dense row-major [`Matrix`], a dense [`Vector`],
//! [`LuDecomposition`] with partial pivoting, [`Cholesky`], Householder
//! [`QrDecomposition`], the high-level [`lstsq`] solvers
//! ([`lstsq::ols`], [`lstsq::wls`], [`lstsq::gls`]), and the fixed-size
//! [`NormalEquations`] the solvers fold their measurement rows into.
//!
//! # Example
//!
//! ```
//! use gps_linalg::{Matrix, Vector, lstsq};
//!
//! # fn main() -> Result<(), gps_linalg::LinalgError> {
//! // Fit y = 2x + 1 from three samples.
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]])?;
//! let y = Vector::from_slice(&[1.0, 3.0, 5.0]);
//! let beta = lstsq::ols(&a, &y)?;
//! assert!((beta[0] - 2.0).abs() < 1e-12);
//! assert!((beta[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod cholesky;
mod eigen;
mod error;
pub mod lstsq;
mod lu;
mod matrix;
mod normal;
mod qr;
mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use normal::{NormalEquations, Rank1Normal3};
pub use qr::QrDecomposition;
pub use vector::Vector;

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
