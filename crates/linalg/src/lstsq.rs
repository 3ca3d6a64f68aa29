//! High-level least-squares solvers.
//!
//! Three estimators, matching the paper's terminology:
//!
//! * [`ols`] — **Ordinary Least Squares** `x = (AᵀA)⁻¹ Aᵀ b` (paper
//!   eq. 4-12), optimal when residual errors are zero-mean, homoscedastic
//!   and *uncorrelated* (paper eq. 3-33/3-34/3-35).
//! * [`wls`] — **Weighted Least Squares** with a diagonal weight matrix,
//!   the common special case of GLS.
//! * [`gls`] — **General Least Squares** `x = (AᵀM⁻¹A)⁻¹ AᵀM⁻¹ b` (paper
//!   eq. 4-21), optimal whenever the error covariance `M = σ²Ω` is known up
//!   to scale with `Ω` positive definite (paper eq. 4-23/4-24) — exactly
//!   the situation Theorem 4.2 establishes for the direct-linearization
//!   system.
//!
//! Implementation notes: the default paths solve the (whitened) normal
//! equations through Cholesky — the matrices involved are tiny (`m ≤ ~12`
//! satellites) and well-conditioned, so this is both the fastest and the
//! most faithful rendering of what the paper's formulas prescribe.
//! [`ols_qr`] offers a Householder-QR alternative for the linalg-path
//! ablation and for ill-conditioned geometry.

use crate::{
    Cholesky, LinalgError, Matrix, NormalEquations, QrDecomposition, Rank1Normal3, Vector,
};

/// Reusable scratch buffers for the `*_into` least-squares entry points.
///
/// A fresh `LstsqScratch` owns only empty buffers; the first solve sizes
/// them and every later solve of the same (or smaller) dimensions reuses
/// the allocations. One scratch may be shared freely across [`ols_into`],
/// [`wls_into`] and [`gls_into`] calls of varying shapes — buffers are
/// reshaped per call with [`Matrix::resize_zeroed`], which never shrinks
/// capacity.
#[derive(Debug, Clone, Default)]
pub struct LstsqScratch {
    /// `n × n` normal equations `AᵀA`, factored in place.
    gram: Matrix,
    /// `m × n` row-scaled / whitened copy of the design matrix.
    scaled_a: Matrix,
    /// Length-`m` row-scaled / whitened copy of the right-hand side.
    scaled_b: Vector,
    /// `m × m` covariance copy, factored in place (GLS only).
    cov: Matrix,
    /// Length-`n` rank-one correction vector `u = AᵀD⁻¹𝟙`
    /// ([`gls_rank1_into`] only).
    rank1_u: Vector,
}

impl LstsqScratch {
    /// Creates a scratch with empty buffers (no heap allocation until the
    /// first solve).
    #[must_use]
    pub fn new() -> Self {
        LstsqScratch::default()
    }
}

/// Strategy used by [`gls_with`] to apply the inverse error covariance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GlsStrategy {
    /// Whiten through a Cholesky half-solve (`Ã = L⁻¹A`, `b̃ = L⁻¹b`) and
    /// run OLS on the transformed system. The default: one triangular
    /// solve per column instead of a dense inverse.
    #[default]
    Whitened,
    /// Materialize `M⁻¹` and evaluate `x = (AᵀM⁻¹A)⁻¹ AᵀM⁻¹ b` exactly as
    /// the paper's eq. 4-21 writes it. Strictly more work; kept as the
    /// faithful-to-the-text variant for the `ablation_linalg_path`
    /// benchmark.
    ExplicitInverse,
}

/// Validates common least-squares preconditions.
fn check_system(a: &Matrix, b: &Vector, op: &'static str) -> crate::Result<()> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::EmptyDimension);
    }
    if m < n {
        return Err(LinalgError::Underdetermined { rows: m, cols: n });
    }
    if b.len() != m {
        return Err(LinalgError::ShapeMismatch {
            left: (m, n),
            right: (b.len(), 1),
            op,
        });
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    Ok(())
}

/// Ordinary least squares: minimizes `‖A x − b‖₂` via the normal equations
/// `(AᵀA) x = Aᵀ b` solved by Cholesky.
///
/// This is the literal implementation of the paper's eq. 4-12
/// `Xᵉ = (AᵀA)⁻¹ Aᵀ Dᵉ` (without materializing the inverse).
///
/// # Errors
///
/// * [`LinalgError::Underdetermined`] if `a` has fewer rows than columns.
/// * [`LinalgError::ShapeMismatch`] if `b` has the wrong length.
/// * [`LinalgError::NonFinite`] on NaN/∞ input.
/// * [`LinalgError::NotPositiveDefinite`] if `a` is rank-deficient.
///
/// # Example
///
/// ```
/// use gps_linalg::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let b = Vector::from_slice(&[6.0, 9.0, 12.0]);
/// let x = lstsq::ols(&a, &b)?; // intercept 3, slope 3
/// assert!((x[0] - 3.0).abs() < 1e-10);
/// assert!((x[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn ols(a: &Matrix, b: &Vector) -> crate::Result<Vector> {
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    ols_into(a, b, &mut scratch, &mut x)?;
    Ok(x)
}

/// [`ols`] with caller-provided buffers: writes the solution into `x` and
/// keeps every intermediate in `scratch`, so repeated solves allocate
/// nothing after the first call.
///
/// # Errors
///
/// Same conditions as [`ols`].
// lint: no_alloc
pub fn ols_into(
    a: &Matrix,
    b: &Vector,
    scratch: &mut LstsqScratch,
    x: &mut Vector,
) -> crate::Result<()> {
    // Three-unknown systems (the direct-linearization shape) take the
    // allocation-free specialized path; identical mathematics.
    if a.cols() == 3 && a.rows() >= 3 {
        let sol = ols3(a, b)?;
        x.copy_from_slice(&sol);
        return Ok(());
    }
    check_system(a, b, "ols")?;
    ols_core(a, b, &mut scratch.gram, x)
}

/// Normal-equations core shared by the `*_into` paths: forms `AᵀA` in
/// `gram`, `Aᵀb` in `x`, then factors and substitutes in place.
// lint: no_alloc
fn ols_core(a: &Matrix, b: &Vector, gram: &mut Matrix, x: &mut Vector) -> crate::Result<()> {
    let (m, n) = a.shape();
    gram.resize_zeroed(n, n);
    x.resize_zeroed(n);
    for r in 0..m {
        let row = a.row(r);
        let bv = b[r];
        for i in 0..n {
            let ai = row[i];
            x[i] += ai * bv;
            // Lower triangle of AᵀA is all the factorization reads.
            for j in 0..=i {
                gram[(i, j)] += ai * row[j];
            }
        }
    }
    Cholesky::factor_in_place(gram)?;
    Cholesky::forward_substitute(gram, x.as_mut_slice())?;
    Cholesky::back_substitute(gram, x.as_mut_slice())
}

/// Ordinary least squares specialized to **three unknowns**: folds the
/// rows into fixed-size [`NormalEquations`] and solves them by Cramer's
/// rule — no heap allocation, no factorization loop.
///
/// This is the paper's §6 third extension ("optimize the matrix
/// operations in the context of our problem") applied to the DLO hot
/// path: the direct linearization always produces exactly 3 columns, so
/// the general machinery can be bypassed. Results agree with [`ols`] to
/// rounding.
///
/// # Errors
///
/// Same conditions as [`ols`]; rank deficiency surfaces as
/// [`LinalgError::Singular`].
pub fn ols3(a: &Matrix, b: &Vector) -> crate::Result<[f64; 3]> {
    let (m, n) = a.shape();
    if n != 3 {
        return Err(LinalgError::ShapeMismatch {
            left: (m, n),
            right: (m, 3),
            op: "ols3",
        });
    }
    check_system(a, b, "ols3")?;
    let mut normal = NormalEquations::<3, 1>::new();
    for (r, &bv) in b.as_slice().iter().enumerate() {
        normal.add_row(row3(a, r), [bv]);
    }
    normal.solve_cramer()
}

/// Row `r` of a three-column matrix as an array.
fn row3(a: &Matrix, r: usize) -> [f64; 3] {
    let mut row = [0.0; 3];
    row.copy_from_slice(a.row(r));
    row
}

/// Ordinary least squares solved through Householder QR instead of the
/// normal equations.
///
/// Numerically more robust than [`ols`] when `A` is ill-conditioned (the
/// normal equations square the condition number); used by the
/// `ablation_linalg_path` benchmark, and a sensible choice under degenerate
/// satellite geometry.
///
/// # Errors
///
/// Same conditions as [`ols`] (rank deficiency surfaces as
/// [`LinalgError::Singular`]).
pub fn ols_qr(a: &Matrix, b: &Vector) -> crate::Result<Vector> {
    check_system(a, b, "ols_qr")?;
    QrDecomposition::new(a)?.solve_least_squares(b)
}

/// Weighted least squares: minimizes `Σ wᵢ (A x − b)ᵢ²` for positive
/// weights `w`.
///
/// Equivalent to [`gls`] with `M = diag(1/w)`, but avoids the dense
/// factorization of `M`.
///
/// # Errors
///
/// Same conditions as [`ols`], plus [`LinalgError::NotPositiveDefinite`]
/// (pivot 0) if any weight is non-positive, and
/// [`LinalgError::ShapeMismatch`] if `weights.len() != a.rows()`.
pub fn wls(a: &Matrix, b: &Vector, weights: &[f64]) -> crate::Result<Vector> {
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    wls_into(a, b, weights, &mut scratch, &mut x)?;
    Ok(x)
}

/// [`wls`] with caller-provided buffers: writes the solution into `x` and
/// keeps the row-scaled system in `scratch`, so repeated solves allocate
/// nothing after the first call.
///
/// # Errors
///
/// Same conditions as [`wls`].
// lint: no_alloc
pub fn wls_into(
    a: &Matrix,
    b: &Vector,
    weights: &[f64],
    scratch: &mut LstsqScratch,
    x: &mut Vector,
) -> crate::Result<()> {
    check_system(a, b, "wls")?;
    let (m, n) = a.shape();
    if weights.len() != m {
        return Err(LinalgError::ShapeMismatch {
            left: (m, n),
            right: (weights.len(), 1),
            op: "wls weights",
        });
    }
    if weights.iter().any(|&w| w <= 0.0 || !w.is_finite()) {
        return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
    }
    // Scale each row of A and entry of b by sqrt(w), then run OLS.
    let LstsqScratch {
        gram,
        scaled_a,
        scaled_b,
        ..
    } = scratch;
    scaled_a.resize_zeroed(m, n);
    scaled_b.resize_zeroed(m);
    for r in 0..m {
        let s = weights[r].sqrt();
        let (src, dst) = (a.row(r), scaled_a.row_mut(r));
        for c in 0..n {
            dst[c] = src[c] * s;
        }
        scaled_b[r] = b[r] * s;
    }
    if n == 3 && m >= 3 {
        let sol = ols3(scaled_a, scaled_b)?;
        x.copy_from_slice(&sol);
        return Ok(());
    }
    ols_core(scaled_a, scaled_b, gram, x)
}

/// General least squares: minimizes `(A x − b)ᵀ M⁻¹ (A x − b)` for a
/// symmetric positive-definite error covariance `M`.
///
/// This is the paper's eq. 4-21, `Xᵉ = (AᵀM⁻¹A)⁻¹ AᵀM⁻¹ Dᵉ`, implemented by
/// *whitening*: factor `M = L Lᵀ`, transform `Ã = L⁻¹A`, `b̃ = L⁻¹b`, and
/// solve the ordinary problem `min ‖Ã x − b̃‖₂`. The two formulations are
/// algebraically identical; whitening does one triangular solve per column
/// instead of a full inverse and keeps conditioning in check.
///
/// # Errors
///
/// * All conditions of [`ols`].
/// * [`LinalgError::ShapeMismatch`] if `m.rows() != a.rows()`.
/// * [`LinalgError::NotPositiveDefinite`] if `m` is not SPD (the paper's
///   Theorem 4.2 guarantees the DLG covariance Ψ is SPD, so this signals a
///   caller bug).
///
/// # Example
///
/// ```
/// use gps_linalg::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0], &[1.0]])?;
/// let b = Vector::from_slice(&[1.0, 3.0]);
/// // Second observation has 4x the variance: estimate leans toward 1.
/// let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]])?;
/// let x = lstsq::gls(&a, &b, &m)?;
/// assert!((x[0] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn gls(a: &Matrix, b: &Vector, m: &Matrix) -> crate::Result<Vector> {
    gls_with(a, b, m, GlsStrategy::Whitened)
}

/// Single entry point for general least squares: solves the GLS problem
/// with the requested [`GlsStrategy`].
///
/// [`gls`] and [`gls_explicit_inverse`] are thin wrappers around this
/// function; the `ablation_linalg_path` benchmark calls it with both
/// strategies to quantify the whitening optimization.
///
/// # Errors
///
/// Same conditions as [`gls`].
pub fn gls_with(
    a: &Matrix,
    b: &Vector,
    m: &Matrix,
    strategy: GlsStrategy,
) -> crate::Result<Vector> {
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    gls_into(a, b, m, strategy, &mut scratch, &mut x)?;
    Ok(x)
}

/// [`gls_with`] with caller-provided buffers: writes the solution into `x`
/// and keeps the covariance factor and whitened system in `scratch`.
///
/// With [`GlsStrategy::Whitened`] repeated solves allocate nothing after
/// the first call; [`GlsStrategy::ExplicitInverse`] materializes `M⁻¹` and
/// therefore allocates per call (it exists as an ablation reference, not a
/// hot path).
///
/// # Errors
///
/// Same conditions as [`gls`].
// lint: no_alloc
pub fn gls_into(
    a: &Matrix,
    b: &Vector,
    m: &Matrix,
    strategy: GlsStrategy,
    scratch: &mut LstsqScratch,
    x: &mut Vector,
) -> crate::Result<()> {
    check_system(a, b, "gls")?;
    if m.rows() != a.rows() || m.cols() != a.rows() {
        return Err(LinalgError::ShapeMismatch {
            left: a.shape(),
            right: m.shape(),
            op: "gls covariance",
        });
    }
    match strategy {
        GlsStrategy::Whitened => {
            let LstsqScratch {
                gram,
                scaled_a,
                scaled_b,
                cov,
                ..
            } = scratch;
            cov.copy_from(m);
            Cholesky::factor_in_place(cov)?;
            scaled_a.copy_from(a);
            Cholesky::forward_substitute_matrix(cov, scaled_a)?;
            scaled_b.copy_from(b);
            Cholesky::forward_substitute(cov, scaled_b.as_mut_slice())?;
            if a.cols() == 3 && a.rows() >= 3 {
                let sol = ols3(scaled_a, scaled_b)?;
                x.copy_from_slice(&sol);
                return Ok(());
            }
            ols_core(scaled_a, scaled_b, gram, x)
        }
        GlsStrategy::ExplicitInverse => {
            let m_inv = Cholesky::new(m)?.inverse()?;
            let at = a.transpose();
            let at_minv = at.matmul(&m_inv)?;
            let lhs = at_minv.matmul(a)?; // AᵀM⁻¹A
            let rhs = at_minv.matvec(b)?; // AᵀM⁻¹b
            let sol = Cholesky::new(&lhs)?.solve(&rhs)?;
            x.copy_from(&sol);
            Ok(())
        }
    }
}

/// General least squares computed exactly as the paper's eq. 4-21 writes
/// it: `x = (AᵀM⁻¹A)⁻¹ AᵀM⁻¹ b` with an explicit `M⁻¹`.
///
/// Mathematically identical to [`gls`] but does strictly more work
/// (a dense `(m−1)×(m−1)` inverse). Kept as a faithful-to-the-text variant
/// and exercised by the `ablation_linalg_path` benchmark to quantify what
/// the paper's §6 "optimize the matrix operations" extension would buy.
///
/// # Errors
///
/// Same conditions as [`gls`].
pub fn gls_explicit_inverse(a: &Matrix, b: &Vector, m: &Matrix) -> crate::Result<Vector> {
    gls_with(a, b, m, GlsStrategy::ExplicitInverse)
}

/// Structured general least squares for a **rank-one-plus-diagonal**
/// covariance `M = rank1·𝟙𝟙ᵀ + diag(d)` — the exact shape of the paper's
/// Ψ (eq. 4-25/4-26), where `rank1 = ρ₁²` and `dᵢ = ρᵢ₊₁²`.
///
/// Instead of materializing and factoring the dense m×m matrix, the kernel
/// applies the Sherman–Morrison identity
///
/// `M⁻¹ = D⁻¹ − (D⁻¹𝟙)(𝟙ᵀD⁻¹)·rank1 / (1 + rank1·𝟙ᵀD⁻¹𝟙)`
///
/// so `AᵀM⁻¹A` and `AᵀM⁻¹b` assemble in `O(m·n)` flops with `O(n)` scratch
/// (one pass of diagonal-weighted accumulators plus one rank-one
/// correction), and only the tiny `n×n` normal system is factored. The
/// algebra is exact: results agree with [`gls`] on the equivalent dense
/// matrix to rounding (ULP-level, not bit-level — the operations associate
/// differently).
///
/// `M` is positive definite **iff** every `dᵢ > 0` and the Sherman–Morrison
/// denominator `t = 1 + rank1·Σ(1/dᵢ) > 0` (eigendecomposition:
/// `M = D^½(I + rank1·vvᵀ)D^½` with `v = D^{−½}𝟙` has eigenvalues 1 and
/// `t`, and `det M = det D · t`). Both conditions are tested exactly;
/// `rank1` may be negative as long as `t` stays positive.
///
/// # Errors
///
/// * All conditions of [`ols`].
/// * [`LinalgError::ShapeMismatch`] if `diag.len() != a.rows()`.
/// * [`LinalgError::NonFinite`] if `rank1` is NaN/∞.
/// * [`LinalgError::NotPositiveDefinite`] if any `dᵢ ≤ 0` (pivot = its
///   index) or `t ≤ 0` (pivot = `m − 1`, where the dense factorization
///   would generically fail).
///
/// # Example
///
/// ```
/// use gps_linalg::{lstsq, Matrix, Vector};
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
/// let b = Vector::from_slice(&[6.0, 9.0, 12.0]);
/// // rank1 = 0 with unit diagonal is plain OLS.
/// let x = lstsq::gls_rank1(&a, &b, 0.0, &[1.0, 1.0, 1.0])?;
/// assert!((x[0] - 3.0).abs() < 1e-10);
/// assert!((x[1] - 3.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
pub fn gls_rank1(a: &Matrix, b: &Vector, rank1: f64, diag: &[f64]) -> crate::Result<Vector> {
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    gls_rank1_into(a, b, rank1, diag, &mut scratch, &mut x)?;
    Ok(x)
}

/// [`gls_rank1`] with caller-provided buffers: writes the solution into
/// `x` and keeps the `n×n` normal equations and the rank-one correction
/// vector in `scratch`, so repeated solves allocate nothing after the
/// first call (and the three-unknown shape allocates nothing at all).
///
/// # Errors
///
/// Same conditions as [`gls_rank1`].
// lint: no_alloc
pub fn gls_rank1_into(
    a: &Matrix,
    b: &Vector,
    rank1: f64,
    diag: &[f64],
    scratch: &mut LstsqScratch,
    x: &mut Vector,
) -> crate::Result<()> {
    check_system(a, b, "gls_rank1")?;
    let (m, n) = a.shape();
    if diag.len() != m {
        return Err(LinalgError::ShapeMismatch {
            left: (m, n),
            right: (diag.len(), 1),
            op: "gls_rank1 diagonal",
        });
    }
    if n == 3 {
        // The DLG hot shape: one fold, then the Cramer tail.
        let mut normal = Rank1Normal3::new();
        for (r, (&bv, &d)) in b.as_slice().iter().zip(diag).enumerate() {
            normal.add_row(row3(a, r), bv, d);
        }
        x.copy_from_slice(&normal.solve_cramer(rank1)?);
        return Ok(());
    }
    if !rank1.is_finite() {
        return Err(LinalgError::NonFinite);
    }
    // Positive-definiteness of M = rank1·𝟙𝟙ᵀ + D, tested exactly: D ≻ 0
    // entry by entry, then the Sherman–Morrison denominator t > 0.
    let mut inv_sum = 0.0;
    for (i, &d) in diag.iter().enumerate() {
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: i });
        }
        inv_sum += 1.0 / d;
    }
    let t = 1.0 + rank1 * inv_sum;
    if t <= 0.0 || !t.is_finite() {
        return Err(LinalgError::NotPositiveDefinite { pivot: m - 1 });
    }
    gls_rank1_core(a, b, rank1 / t, diag, scratch, x)
}

/// General-width core of [`gls_rank1_into`]: the same one-pass assembly
/// with the `n×n` lower-triangle gram in scratch, then Cholesky — the
/// structured analogue of [`ols_core`].
// lint: no_alloc
fn gls_rank1_core(
    a: &Matrix,
    b: &Vector,
    gamma: f64,
    diag: &[f64],
    scratch: &mut LstsqScratch,
    x: &mut Vector,
) -> crate::Result<()> {
    let (m, n) = a.shape();
    let LstsqScratch { gram, rank1_u, .. } = scratch;
    gram.resize_zeroed(n, n);
    rank1_u.resize_zeroed(n);
    x.resize_zeroed(n);
    let mut s = 0.0;
    for r in 0..m {
        let row = a.row(r);
        let bv = b[r];
        let w = 1.0 / diag[r];
        for i in 0..n {
            let ai = row[i];
            x[i] += ai * bv * w;
            rank1_u[i] += ai * w;
            // Lower triangle of AᵀD⁻¹A is all the factorization reads.
            for j in 0..=i {
                gram[(i, j)] += ai * row[j] * w;
            }
        }
        s += bv * w;
    }
    // Sherman–Morrison rank-one correction on the lower triangle.
    for i in 0..n {
        let ui = rank1_u[i];
        for j in 0..=i {
            gram[(i, j)] -= gamma * ui * rank1_u[j];
        }
        x[i] -= gamma * s * ui;
    }
    let mut finite = true;
    for i in 0..n {
        finite &= x[i].is_finite();
        for j in 0..=i {
            finite &= gram[(i, j)].is_finite();
        }
    }
    if !finite {
        return Err(LinalgError::NonFinite);
    }
    Cholesky::factor_in_place(gram)?;
    Cholesky::forward_substitute(gram, x.as_mut_slice())?;
    Cholesky::back_substitute(gram, x.as_mut_slice())
}

/// Residual vector `b − A x` for a candidate solution.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] on incompatible shapes.
pub fn residual(a: &Matrix, b: &Vector, x: &Vector) -> crate::Result<Vector> {
    let ax = a.matvec(x)?;
    b.check_same_len(&ax, "residual")?;
    Ok(b - &ax)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tall_system() -> (Matrix, Vector) {
        let a = Matrix::from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 1.0, 1.0],
            &[1.0, 1.0, 0.0],
            &[2.0, -1.0, 1.0],
            &[0.5, 0.5, 2.0],
        ])
        .unwrap();
        let x_true = Vector::from_slice(&[1.0, -2.0, 3.0]);
        let b = a.matvec(&x_true).unwrap();
        (a, b)
    }

    #[test]
    fn ols_recovers_exact_solution() {
        let (a, b) = tall_system();
        let x = ols(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
        assert!((x[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn ols3_agrees_with_general_ols() {
        let (a, mut b) = tall_system();
        b[0] += 0.7;
        b[2] -= 1.3;
        let general = ols(&a, &b).unwrap();
        let fast = ols3(&a, &b).unwrap();
        for k in 0..3 {
            assert!((fast[k] - general[k]).abs() < 1e-9, "x[{k}]");
        }
    }

    #[test]
    fn ols3_rejects_wrong_width_and_singular() {
        let a2 = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert!(matches!(
            ols3(&a2, &Vector::zeros(3)).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        // Rank-deficient: second column is twice the first.
        let dep = Matrix::from_fn(4, 3, |r, c| match c {
            0 => (r + 1) as f64,
            1 => 2.0 * (r + 1) as f64,
            _ => (r * r) as f64,
        });
        assert_eq!(
            ols3(&dep, &Vector::zeros(4)).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn ols_qr_agrees_with_ols() {
        let (a, mut b) = tall_system();
        // Perturb so the system is inconsistent.
        b[0] += 0.7;
        b[3] -= 0.3;
        let x1 = ols(&a, &b).unwrap();
        let x2 = ols_qr(&a, &b).unwrap();
        assert!((&x1 - &x2).norm_inf() < 1e-9);
    }

    #[test]
    fn ols_residual_is_orthogonal_to_columns() {
        let (a, mut b) = tall_system();
        b[1] += 1.0;
        let x = ols(&a, &b).unwrap();
        let r = residual(&a, &b, &x).unwrap();
        let atr = a.transpose_matvec(&r).unwrap();
        assert!(atr.norm_inf() < 1e-9, "Aᵀr = {atr:?}");
    }

    #[test]
    fn gls_with_identity_equals_ols() {
        let (a, mut b) = tall_system();
        b[2] -= 0.5;
        let x_ols = ols(&a, &b).unwrap();
        let x_gls = gls(&a, &b, &Matrix::identity(5)).unwrap();
        assert!((&x_ols - &x_gls).norm_inf() < 1e-10);
    }

    #[test]
    fn gls_explicit_matches_whitened() {
        let (a, mut b) = tall_system();
        b[0] += 2.0;
        // A valid SPD covariance with correlation, like the paper's Ψ.
        let m = Matrix::from_fn(5, 5, |r, c| if r == c { 2.0 } else { 1.0 });
        let x1 = gls(&a, &b, &m).unwrap();
        let x2 = gls_explicit_inverse(&a, &b, &m).unwrap();
        assert!((&x1 - &x2).norm_inf() < 1e-9);
    }

    #[test]
    fn wls_equals_gls_with_diagonal_covariance() {
        let (a, mut b) = tall_system();
        b[4] += 1.5;
        let weights = [1.0, 2.0, 0.5, 4.0, 1.0];
        let x_wls = wls(&a, &b, &weights).unwrap();
        let m = Matrix::from_diagonal(&weights.map(|w| 1.0 / w));
        let x_gls = gls(&a, &b, &m).unwrap();
        assert!((&x_wls - &x_gls).norm_inf() < 1e-9);
    }

    #[test]
    fn wls_downweights_outlier() {
        // y = const model; one wild observation with tiny weight.
        let a = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]).unwrap();
        let b = Vector::from_slice(&[10.0, 10.0, 1000.0]);
        let x = wls(&a, &b, &[1.0, 1.0, 1e-9]).unwrap();
        assert!((x[0] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn wls_rejects_bad_weights() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let b = Vector::zeros(2);
        assert!(wls(&a, &b, &[1.0]).is_err());
        assert!(wls(&a, &b, &[1.0, 0.0]).is_err());
        assert!(wls(&a, &b, &[1.0, -1.0]).is_err());
        assert!(wls(&a, &b, &[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn gls_is_blue_for_correlated_noise() {
        // With strongly correlated errors, GLS with the true covariance must
        // not do worse (in exact arithmetic, on average) — here we check the
        // deterministic property that GLS reproduces an exact solution and
        // differs from OLS on an inconsistent one.
        let (a, mut b) = tall_system();
        let m = Matrix::from_fn(5, 5, |r, c| if r == c { 3.0 } else { 2.0 });
        let x_exact = gls(&a, &b, &m).unwrap();
        assert!((x_exact[2] - 3.0).abs() < 1e-9);
        b[0] += 1.0;
        let x_gls = gls(&a, &b, &m).unwrap();
        let x_ols = ols(&a, &b).unwrap();
        assert!((&x_gls - &x_ols).norm_inf() > 1e-6);
    }

    #[test]
    fn solvers_reject_underdetermined() {
        let a = Matrix::zeros(2, 3);
        let b = Vector::zeros(2);
        assert!(matches!(
            ols(&a, &b).unwrap_err(),
            LinalgError::Underdetermined { .. }
        ));
        assert!(ols_qr(&a, &b).is_err());
        assert!(gls(&a, &b, &Matrix::identity(2)).is_err());
    }

    #[test]
    fn solvers_reject_shape_mismatch_and_nonfinite() {
        let a = Matrix::identity(3);
        assert!(ols(&a, &Vector::zeros(2)).is_err());
        let b = Vector::from_slice(&[1.0, f64::NAN, 0.0]);
        assert_eq!(ols(&a, &b).unwrap_err(), LinalgError::NonFinite);
        // Covariance of wrong size.
        assert!(gls(&a, &Vector::zeros(3), &Matrix::identity(2)).is_err());
        assert!(gls_explicit_inverse(&a, &Vector::zeros(3), &Matrix::identity(2)).is_err());
    }

    #[test]
    fn into_variants_match_allocating_paths_across_reuse() {
        // One scratch reused across different shapes and estimators must
        // reproduce the allocating entry points exactly.
        let mut scratch = LstsqScratch::new();
        let mut x = Vector::default();

        let (a, mut b) = tall_system();
        b[0] += 0.7;
        ols_into(&a, &b, &mut scratch, &mut x).unwrap();
        assert!((&x - &ols(&a, &b).unwrap()).norm_inf() == 0.0);

        // Wider system (4 columns) takes the normal-equations path.
        let a4 = Matrix::from_fn(6, 4, |r, c| {
            ((r * 7 + c * 3) % 5) as f64 + if r == c { 4.0 } else { 0.0 }
        });
        let b4 = Vector::from_fn(6, |r| r as f64 - 2.0);
        ols_into(&a4, &b4, &mut scratch, &mut x).unwrap();
        assert!((&x - &ols(&a4, &b4).unwrap()).norm_inf() == 0.0);

        let weights = [1.0, 2.0, 0.5, 4.0, 1.0];
        wls_into(&a, &b, &weights, &mut scratch, &mut x).unwrap();
        assert!((&x - &wls(&a, &b, &weights).unwrap()).norm_inf() == 0.0);

        let m = Matrix::from_fn(5, 5, |r, c| if r == c { 2.0 } else { 1.0 });
        gls_into(&a, &b, &m, GlsStrategy::Whitened, &mut scratch, &mut x).unwrap();
        assert!((&x - &gls(&a, &b, &m).unwrap()).norm_inf() == 0.0);
        gls_into(
            &a,
            &b,
            &m,
            GlsStrategy::ExplicitInverse,
            &mut scratch,
            &mut x,
        )
        .unwrap();
        assert!((&x - &gls_explicit_inverse(&a, &b, &m).unwrap()).norm_inf() == 0.0);
    }

    #[test]
    fn gls_with_strategies_agree() {
        let (a, mut b) = tall_system();
        b[1] -= 0.4;
        let m = Matrix::from_fn(5, 5, |r, c| if r == c { 3.0 } else { 2.0 });
        let x1 = gls_with(&a, &b, &m, GlsStrategy::Whitened).unwrap();
        let x2 = gls_with(&a, &b, &m, GlsStrategy::ExplicitInverse).unwrap();
        assert!((&x1 - &x2).norm_inf() < 1e-9);
        assert_eq!(GlsStrategy::default(), GlsStrategy::Whitened);
    }

    #[test]
    fn into_variants_propagate_errors() {
        let mut scratch = LstsqScratch::new();
        let mut x = Vector::default();
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            ols_into(&a, &Vector::zeros(2), &mut scratch, &mut x).unwrap_err(),
            LinalgError::Underdetermined { .. }
        ));
        let id = Matrix::identity(3);
        assert!(matches!(
            wls_into(
                &id,
                &Vector::zeros(3),
                &[1.0, -1.0, 1.0],
                &mut scratch,
                &mut x
            )
            .unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 0 }
        ));
        assert!(matches!(
            gls_into(
                &id,
                &Vector::zeros(3),
                &Matrix::identity(2),
                GlsStrategy::Whitened,
                &mut scratch,
                &mut x
            )
            .unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    /// Dense rank-one-plus-diagonal covariance for cross-checking.
    fn rank1_dense(rank1: f64, diag: &[f64]) -> Matrix {
        Matrix::from_fn(diag.len(), diag.len(), |r, c| {
            rank1 + if r == c { diag[r] } else { 0.0 }
        })
    }

    #[test]
    fn gls_rank1_matches_dense_gls() {
        let (a, mut b) = tall_system();
        b[0] += 2.0;
        b[3] -= 0.9;
        let diag = [1.0, 2.5, 0.7, 4.0, 1.3];
        for rank1 in [0.0, 0.8, 3.0, -0.1] {
            let dense = gls(&a, &b, &rank1_dense(rank1, &diag)).unwrap();
            let fast = gls_rank1(&a, &b, rank1, &diag).unwrap();
            assert!(
                (&dense - &fast).norm_inf() < 1e-9,
                "rank1={rank1}: {:?}",
                (&dense - &fast).norm_inf()
            );
        }
    }

    #[test]
    fn gls_rank1_general_width_matches_dense_gls() {
        // 4-column system exercises the gram/Cholesky core, not Cramer.
        let a4 = Matrix::from_fn(7, 4, |r, c| {
            ((r * 5 + c * 3) % 7) as f64 + if r == c { 5.0 } else { 0.0 }
        });
        let b4 = Vector::from_fn(7, |r| r as f64 - 3.0);
        let diag: Vec<f64> = (0..7).map(|i| 0.5 + 0.3 * i as f64).collect();
        let dense = gls(&a4, &b4, &rank1_dense(1.7, &diag)).unwrap();
        let fast = gls_rank1(&a4, &b4, 1.7, &diag).unwrap();
        assert!((&dense - &fast).norm_inf() < 1e-9);
    }

    #[test]
    fn gls_rank1_zero_rank1_unit_diag_is_bit_identical_to_ols() {
        // γ = 0 and w = 1 leave every accumulator product untouched, so
        // the structured kernel degenerates to ols3 bit-for-bit.
        let (a, mut b) = tall_system();
        b[2] += 0.3;
        let via_ols = ols3(&a, &b).unwrap();
        let via_rank1 = gls_rank1(&a, &b, 0.0, &[1.0; 5]).unwrap();
        for k in 0..3 {
            assert_eq!(via_rank1[k].to_bits(), via_ols[k].to_bits(), "x[{k}]");
        }
    }

    #[test]
    fn gls_rank1_into_matches_allocating_path_across_reuse() {
        let mut scratch = LstsqScratch::new();
        let mut x = Vector::default();
        let (a, mut b) = tall_system();
        b[1] -= 1.1;
        let diag = [2.0, 1.0, 3.0, 0.5, 1.5];
        gls_rank1_into(&a, &b, 0.6, &diag, &mut scratch, &mut x).unwrap();
        assert!((&x - &gls_rank1(&a, &b, 0.6, &diag).unwrap()).norm_inf() == 0.0);
        // Reuse the same scratch on a wider system.
        let a4 = Matrix::from_fn(6, 4, |r, c| {
            ((r * 7 + c * 3) % 5) as f64 + if r == c { 4.0 } else { 0.0 }
        });
        let b4 = Vector::from_fn(6, |r| r as f64 - 2.0);
        let diag4 = [1.0, 2.0, 1.0, 3.0, 1.0, 2.0];
        gls_rank1_into(&a4, &b4, 0.4, &diag4, &mut scratch, &mut x).unwrap();
        assert!((&x - &gls_rank1(&a4, &b4, 0.4, &diag4).unwrap()).norm_inf() == 0.0);
    }

    #[test]
    fn gls_rank1_rejects_degenerate_input() {
        let (a, b) = tall_system();
        // Wrong diagonal length.
        assert!(matches!(
            gls_rank1(&a, &b, 1.0, &[1.0; 4]).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
        // Non-finite rank-one weight.
        assert_eq!(
            gls_rank1(&a, &b, f64::NAN, &[1.0; 5]).unwrap_err(),
            LinalgError::NonFinite
        );
        // A non-positive diagonal entry pinpoints its index.
        assert_eq!(
            gls_rank1(&a, &b, 1.0, &[1.0, 1.0, 0.0, 1.0, 1.0]).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 2 }
        );
        assert_eq!(
            gls_rank1(&a, &b, 1.0, &[1.0, 1.0, 1.0, f64::NAN, 1.0]).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 3 }
        );
        // Sherman–Morrison denominator t = 1 + rank1·Σ(1/dᵢ) ≤ 0: the
        // matrix is indefinite even though every diagonal entry is fine.
        // Here Σ(1/dᵢ) = 5, so rank1 = -0.25 gives t = -0.25.
        let err = gls_rank1(&a, &b, -0.25, &[1.0; 5]).unwrap_err();
        assert_eq!(err, LinalgError::NotPositiveDefinite { pivot: 4 });
        // The dense path agrees the matrix is not PD.
        assert!(matches!(
            gls(&a, &b, &rank1_dense(-0.25, &[1.0; 5])).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
        // Underdetermined surfaces before any covariance checks.
        assert!(matches!(
            gls_rank1(&Matrix::zeros(2, 3), &Vector::zeros(2), 1.0, &[1.0; 2]).unwrap_err(),
            LinalgError::Underdetermined { .. }
        ));
    }

    #[test]
    fn gls_rejects_indefinite_covariance() {
        let a = Matrix::from_rows(&[&[1.0], &[1.0]]).unwrap();
        let b = Vector::zeros(2);
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            gls(&a, &b, &m).unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }
}
