//! Fixed-size normal equations, folded one measurement row at a time.
//!
//! Every solver in this reproduction estimates at most four unknowns
//! from `m` measurement rows: DLO and DLG three (paper eq. 4-12/4-21),
//! Newton–Raphson and Bancroft four. A least-squares solution needs only
//! the `N × N` normal equations `AᵀWA·x = AᵀWb`, and those are sums over
//! rows. A solver can therefore fold each row into [`NormalEquations`]
//! as soon as it has computed it and never store the `m × N` design
//! matrix: nothing grows with `m`, so there is no satellite cap, no heap
//! buffer and no warm-up.
//!
//! Two closed-form tails finish the solve:
//!
//! * three unknowns: Cramer's rule on the symmetric 3×3 system, with the
//!   singularity test `|det G| ≤ 10⁻¹³·(max Gᵢᵢ)³`
//!   (`NormalEquations::<3, 1>::solve_cramer`);
//! * four unknowns: one 4×4 Cholesky factorization shared by every
//!   right-hand side (`NormalEquations::<4, R>::solve_cholesky`), which
//!   also yields the diagonal of the inverse that DOP reads
//!   (`NormalEquations::<4, R>::inverse_diagonal`).
//!
//! [`Rank1Normal3`] adds the Sherman–Morrison correction for DLG's
//! rank-one-plus-diagonal covariance (eq. 4-26).
//!
//! Each tail performs the same floating-point operations in the same
//! order as [`crate::lstsq`] and [`crate::Cholesky`] on the materialized
//! system, and reports the same errors with the same precedence, so the
//! results are bit-identical to the dense path.
//!
//! The solvers fold and solve from another crate inside their hot loops,
//! so the fold and the tails are `#[inline]`: a call left out of line
//! takes the accumulators' address, which forces the fold to spill them
//! to memory on every row (measured: up to 1.3× slower per fix).

use crate::LinalgError;

/// The normal equations `AᵀWA·x = AᵀWb` of an `N`-unknown least-squares
/// problem with `R` right-hand sides, accumulated row by row.
///
/// Only the lower triangle of `AᵀWA` is accumulated; that is all the
/// Cramer and Cholesky tails read. The fold also counts the rows and
/// remembers whether every entry of `A` and of each right-hand side was
/// finite, so the solve can reject the same inputs as
/// [`crate::lstsq::ols`] would.
///
/// # Example
///
/// ```
/// use gps_linalg::NormalEquations;
///
/// # fn main() -> Result<(), gps_linalg::LinalgError> {
/// // x = (1, -2, 3) from four consistent rows.
/// let mut normal = NormalEquations::<3, 1>::new();
/// for (row, b) in [
///     ([1.0, 0.0, 0.0], 1.0),
///     ([0.0, 1.0, 0.0], -2.0),
///     ([0.0, 0.0, 1.0], 3.0),
///     ([1.0, 1.0, 1.0], 2.0),
/// ] {
///     normal.add_row(row, [b]);
/// }
/// let x = normal.solve_cramer()?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] + 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalEquations<const N: usize, const R: usize> {
    /// Lower triangle of `AᵀWA`; the strict upper triangle stays zero.
    gram: [[f64; N]; N],
    /// `AᵀWb`, one vector per right-hand side.
    rhs: [[f64; N]; R],
    /// Rows folded so far.
    rows: usize,
    /// Whether every folded entry of `A` was finite.
    rows_finite: bool,
    /// Whether every folded entry of each right-hand side was finite.
    rhs_finite: [bool; R],
}

impl<const N: usize, const R: usize> Default for NormalEquations<N, R> {
    fn default() -> Self {
        NormalEquations::new()
    }
}

impl<const N: usize, const R: usize> NormalEquations<N, R> {
    /// Empty normal equations: no rows folded yet.
    #[must_use]
    pub const fn new() -> Self {
        NormalEquations {
            gram: [[0.0; N]; N],
            rhs: [[0.0; N]; R],
            rows: 0,
            rows_finite: true,
            rhs_finite: [true; R],
        }
    }

    /// Folds one row `a` of the design matrix with its right-hand-side
    /// entries `b`.
    // lint: no_alloc
    #[inline]
    pub fn add_row(&mut self, a: [f64; N], b: [f64; R]) {
        self.add_weighted_row(a, b, 1.0);
    }

    /// Folds one row with weight `w`: each product `aᵢ·aⱼ` and `aᵢ·bₖ` is
    /// scaled by `w` as it is added (`w = 1` is exactly [`Self::add_row`]).
    // lint: no_alloc
    #[inline]
    pub fn add_weighted_row(&mut self, a: [f64; N], b: [f64; R], w: f64) {
        self.rows += 1;
        self.rows_finite &= a.iter().all(|v| v.is_finite());
        for (finite, bk) in self.rhs_finite.iter_mut().zip(&b) {
            *finite &= bk.is_finite();
        }
        for (i, (gram_row, &ai)) in self.gram.iter_mut().zip(&a).enumerate() {
            for (g, &aj) in gram_row.iter_mut().zip(&a).take(i + 1) {
                *g += ai * aj * w;
            }
        }
        for (c, &bk) in self.rhs.iter_mut().zip(&b) {
            for (ci, &ai) in c.iter_mut().zip(&a) {
                *ci += ai * bk * w;
            }
        }
    }

    /// The full symmetric `AᵀWA` (lower triangle mirrored).
    #[must_use]
    pub fn gram(&self) -> [[f64; N]; N] {
        let mut full = self.gram;
        for (i, row) in self.gram.iter().enumerate() {
            for (j, &g) in row.iter().enumerate().take(i) {
                if let Some(upper) = full.get_mut(j).and_then(|r| r.get_mut(i)) {
                    *upper = g;
                }
            }
        }
        full
    }

    /// The shape checks of `lstsq::ols` for `cols` unknowns: at least one
    /// row, and no fewer rows than unknowns.
    fn check_rows(&self, cols: usize) -> crate::Result<()> {
        if self.rows == 0 {
            return Err(LinalgError::EmptyDimension);
        }
        if self.rows < cols {
            return Err(LinalgError::Underdetermined {
                rows: self.rows,
                cols,
            });
        }
        Ok(())
    }
}

impl NormalEquations<3, 1> {
    /// Solves the three-unknown system by Cramer's rule: the allocation-free
    /// equivalent of [`crate::lstsq::ols3`] on the folded rows.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::EmptyDimension`] / [`LinalgError::Underdetermined`]
    ///   for fewer than three rows.
    /// * [`LinalgError::NonFinite`] if a folded entry was NaN/∞.
    /// * [`LinalgError::Singular`] for rank-deficient geometry.
    // lint: no_alloc
    #[inline]
    pub fn solve_cramer(&self) -> crate::Result<[f64; 3]> {
        self.check_rows(3)?;
        let [rhs_finite] = self.rhs_finite;
        if !self.rows_finite || !rhs_finite {
            return Err(LinalgError::NonFinite);
        }
        let [c] = self.rhs;
        cramer3(&self.gram, c)
    }
}

impl<const R: usize> NormalEquations<4, R> {
    /// Solves the four-unknown system for every right-hand side through
    /// one Cholesky factorization of `AᵀWA`.
    ///
    /// The checks run as `R` successive [`crate::lstsq::ols`] calls
    /// sharing `A` would run them: the rows and the first right-hand side
    /// before the factorization, each later right-hand side after it.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::EmptyDimension`] / [`LinalgError::Underdetermined`]
    ///   for fewer than four rows.
    /// * [`LinalgError::NonFinite`] if a folded entry was NaN/∞ or `AᵀWA`
    ///   overflowed.
    /// * [`LinalgError::NotPositiveDefinite`] for rank-deficient geometry.
    // lint: no_alloc
    #[inline]
    pub fn solve_cholesky(&self) -> crate::Result<[[f64; 4]; R]> {
        self.check_rows(4)?;
        if !self.rows_finite || self.rhs_finite.first() == Some(&false) {
            return Err(LinalgError::NonFinite);
        }
        let solve = cholesky4(&self.gram, 0.0)?;
        let mut out = [[0.0; 4]; R];
        for ((x, &c), &finite) in out.iter_mut().zip(&self.rhs).zip(&self.rhs_finite) {
            if !finite {
                return Err(LinalgError::NonFinite);
            }
            *x = solve(c);
        }
        Ok(out)
    }

    /// The diagonal of `(AᵀWA)⁻¹`, the cofactor variances a
    /// dilution-of-precision figure reads, from the same 4×4 Cholesky
    /// factorization as [`Self::solve_cholesky`]: entry `k` is the `k`-th
    /// component of the solve against the `k`-th unit vector. The
    /// right-hand sides play no part.
    ///
    /// A pivot at or below `10⁻¹³` of the largest diagonal entry counts as
    /// singular, the relative test [`crate::LuDecomposition`] applies: an
    /// inverse that large is rounding noise, not geometry.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::EmptyDimension`] / [`LinalgError::Underdetermined`]
    ///   for fewer than four rows.
    /// * [`LinalgError::NonFinite`] if a folded row entry was NaN/∞ or
    ///   `AᵀWA` overflowed.
    /// * [`LinalgError::NotPositiveDefinite`] for rank-deficient or
    ///   numerically singular geometry.
    // lint: no_alloc
    #[inline]
    pub fn inverse_diagonal(&self) -> crate::Result<[f64; 4]> {
        self.check_rows(4)?;
        if !self.rows_finite {
            return Err(LinalgError::NonFinite);
        }
        let [[g00, ..], [_, g11, ..], [.., g22, _], [.., g33]] = self.gram;
        let scale = [g00, g11, g22, g33].into_iter().fold(0.0f64, f64::max);
        let solve = cholesky4(&self.gram, 1e-13 * scale)?;
        let [q0, ..] = solve([1.0, 0.0, 0.0, 0.0]);
        let [_, q1, ..] = solve([0.0, 1.0, 0.0, 0.0]);
        let [.., q2, _] = solve([0.0, 0.0, 1.0, 0.0]);
        let [.., q3] = solve([0.0, 0.0, 0.0, 1.0]);
        Ok([q0, q1, q2, q3])
    }
}

/// Cramer's rule on the symmetric 3×3 system whose lower triangle is
/// `g`, with the scale-relative singularity test. The one three-unknown
/// tail: OLS, WLS, whitened GLS and the Sherman–Morrison GLS all end
/// here.
// lint: no_alloc
#[inline]
fn cramer3(g: &[[f64; 3]; 3], c: [f64; 3]) -> crate::Result<[f64; 3]> {
    let [[g00, _, _], [g01, g11, _], [g02, g12, g22]] = *g;
    let [c0, c1, c2] = c;
    let det = g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02)
        + g02 * (g01 * g12 - g11 * g02);
    let scale = [g00, g11, g22].into_iter().fold(0.0f64, f64::max);
    if det.abs() <= 1e-13 * scale * scale * scale.max(f64::MIN_POSITIVE) {
        return Err(LinalgError::Singular);
    }
    let x0 = (c0 * (g11 * g22 - g12 * g12) - g01 * (c1 * g22 - g12 * c2)
        + g02 * (c1 * g12 - g11 * c2))
        / det;
    let x1 = (g00 * (c1 * g22 - c2 * g12) - c0 * (g01 * g22 - g12 * g02)
        + g02 * (g01 * c2 - c1 * g02))
        / det;
    let x2 = (g00 * (g11 * c2 - g12 * c1) - g01 * (g01 * c2 - c1 * g02)
        + c0 * (g01 * g12 - g11 * g02))
        / det;
    Ok([x0, x1, x2])
}

/// Factors the 4×4 symmetric positive-definite matrix whose lower
/// triangle is `g` — column by column, with the checks of
/// [`crate::Cholesky::factor_in_place`] — and returns the solver for
/// `L·Lᵀ·x = c` (forward, then back substitution). A pivot at or below
/// `min_pivot` fails; `min_pivot = 0` is exactly the pivot test of
/// [`crate::Cholesky::factor_in_place`].
// lint: no_alloc
#[inline]
fn cholesky4(g: &[[f64; 4]; 4], min_pivot: f64) -> crate::Result<impl Fn([f64; 4]) -> [f64; 4]> {
    if !g.iter().flatten().all(|v| v.is_finite()) {
        return Err(LinalgError::NonFinite);
    }
    let pivot = |d: f64, pivot: usize| {
        if d <= min_pivot || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        Ok(d.sqrt())
    };
    let [[g00, ..], [g10, g11, ..], [g20, g21, g22, _], [g30, g31, g32, g33]] = *g;
    let l00 = pivot(g00, 0)?;
    let (l10, l20, l30) = (g10 / l00, g20 / l00, g30 / l00);
    let l11 = pivot(g11 - l10 * l10, 1)?;
    let (l21, l31) = ((g21 - l20 * l10) / l11, (g31 - l30 * l10) / l11);
    let l22 = pivot(g22 - l20 * l20 - l21 * l21, 2)?;
    let l32 = (g32 - l30 * l20 - l31 * l21) / l22;
    let l33 = pivot(g33 - l30 * l30 - l31 * l31 - l32 * l32, 3)?;
    Ok(move |[c0, c1, c2, c3]: [f64; 4]| {
        let y0 = c0 / l00;
        let y1 = (c1 - l10 * y0) / l11;
        let y2 = (c2 - l20 * y0 - l21 * y1) / l22;
        let y3 = (c3 - l30 * y0 - l31 * y1 - l32 * y2) / l33;
        let x3 = y3 / l33;
        let x2 = (y2 - l32 * x3) / l22;
        let x1 = (y1 - l21 * x2 - l31 * x3) / l11;
        let x0 = (y0 - l10 * x1 - l20 * x2 - l30 * x3) / l00;
        [x0, x1, x2, x3]
    })
}

/// Structured GLS normal equations for three unknowns and the
/// rank-one-plus-diagonal covariance `M = rank1·𝟙𝟙ᵀ + diag(d)` — the
/// shape of the paper's Ψ (eq. 4-25/4-26).
///
/// Each row is folded with weight `1/dᵢ` and an extra all-ones column,
/// so the one fold accumulates every Sherman–Morrison sum: `AᵀD⁻¹A`,
/// `u = AᵀD⁻¹𝟙` and `𝟙ᵀD⁻¹𝟙` in the Gram matrix, `AᵀD⁻¹b` and
/// `s = 𝟙ᵀD⁻¹b` on the right-hand side. [`Rank1Normal3::solve_cramer`] then
/// applies `M⁻¹ = D⁻¹ − γ·D⁻¹𝟙𝟙ᵀD⁻¹` with
/// `γ = rank1 / (1 + rank1·𝟙ᵀD⁻¹𝟙)` and finishes with the Cramer tail.
/// The allocation-free equivalent of [`crate::lstsq::gls_rank1`] at
/// three unknowns, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rank1Normal3 {
    /// Rows `[aᵢ, 1]` and right-hand sides `bᵢ`, weighted by `1/dᵢ`.
    normal: NormalEquations<4, 1>,
    /// The first row whose `dᵢ` is non-positive or non-finite.
    bad_pivot: Option<usize>,
}

impl Rank1Normal3 {
    /// Empty structured normal equations.
    #[must_use]
    pub const fn new() -> Self {
        Rank1Normal3 {
            normal: NormalEquations::new(),
            bad_pivot: None,
        }
    }

    /// Folds row `a` with right-hand side `b` and diagonal covariance
    /// entry `d`.
    // lint: no_alloc
    #[inline]
    pub fn add_row(&mut self, a: [f64; 3], b: f64, d: f64) {
        if self.bad_pivot.is_none() && (d <= 0.0 || !d.is_finite()) {
            self.bad_pivot = Some(self.normal.rows);
        }
        let [x, y, z] = a;
        self.normal.add_weighted_row([x, y, z, 1.0], [b], 1.0 / d);
    }

    /// Applies the Sherman–Morrison correction for the rank-one weight
    /// `rank1`, then solves by Cramer's rule.
    ///
    /// `M` is positive definite iff every `dᵢ > 0` and the
    /// Sherman–Morrison denominator `t = 1 + rank1·Σ(1/dᵢ) > 0`; both are
    /// tested exactly.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::EmptyDimension`] / [`LinalgError::Underdetermined`]
    ///   for fewer than three rows.
    /// * [`LinalgError::NonFinite`] if a folded entry or `rank1` is NaN/∞,
    ///   or the corrected normal equations overflowed.
    /// * [`LinalgError::NotPositiveDefinite`] if some `dᵢ ≤ 0` (pivot = its
    ///   row) or `t ≤ 0` (pivot = the last row).
    /// * [`LinalgError::Singular`] for rank-deficient geometry.
    // lint: no_alloc
    #[inline]
    pub fn solve_cramer(&self, rank1: f64) -> crate::Result<[f64; 3]> {
        let normal = &self.normal;
        normal.check_rows(3)?;
        let [rhs_finite] = normal.rhs_finite;
        if !normal.rows_finite || !rhs_finite || !rank1.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        if let Some(pivot) = self.bad_pivot {
            return Err(LinalgError::NotPositiveDefinite { pivot });
        }
        let [[g00, ..], [g01, g11, ..], [g02, g12, g22, _], [u0, u1, u2, inv_sum]] = normal.gram;
        let [[c0, c1, c2, s]] = normal.rhs;
        let t = 1.0 + rank1 * inv_sum;
        if t <= 0.0 || !t.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: normal.rows - 1,
            });
        }
        let gamma = rank1 / t;
        // Sherman–Morrison rank-one correction: G −= γ·uuᵀ, c −= γ·s·u.
        let g = [
            [g00 - gamma * u0 * u0, 0.0, 0.0],
            [g01 - gamma * u0 * u1, g11 - gamma * u1 * u1, 0.0],
            [
                g02 - gamma * u0 * u2,
                g12 - gamma * u1 * u2,
                g22 - gamma * u2 * u2,
            ],
        ];
        let c = [
            c0 - gamma * s * u0,
            c1 - gamma * s * u1,
            c2 - gamma * s * u2,
        ];
        // The dense path reports an accumulation overflow as NonFinite
        // when it re-checks the whitened system; keep that error.
        if !g.iter().flatten().chain(&c).all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite);
        }
        cramer3(&g, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lstsq, Matrix, Vector};

    fn fold3(rows: &[[f64; 3]], b: &[f64]) -> NormalEquations<3, 1> {
        let mut normal = NormalEquations::new();
        for (&row, &bv) in rows.iter().zip(b) {
            normal.add_row(row, [bv]);
        }
        normal
    }

    fn dense(rows: &[[f64; 3]]) -> Matrix {
        Matrix::from_fn(rows.len(), 3, |r, c| rows[r][c])
    }

    const ROWS: [[f64; 3]; 5] = [
        [2.0, 1.0, 0.5],
        [0.3, 1.5, -0.2],
        [-1.0, 0.4, 2.0],
        [0.8, -0.6, 1.1],
        [0.2, 2.2, 0.9],
    ];
    const B: [f64; 5] = [1.0, -2.0, 0.5, 3.0, -0.7];

    #[test]
    fn three_unknowns_recover_a_consistent_system() {
        let truth = [1.0, -2.0, 3.0];
        let b = ROWS.map(|r| r[0] * truth[0] + r[1] * truth[1] + r[2] * truth[2]);
        let x = fold3(&ROWS, &b).solve_cramer().unwrap();
        for (got, want) in x.iter().zip(truth) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn three_unknown_errors_match_ols3() {
        assert_eq!(
            NormalEquations::<3, 1>::new().solve_cramer().unwrap_err(),
            LinalgError::EmptyDimension
        );
        assert_eq!(
            fold3(&ROWS[..2], &B[..2]).solve_cramer().unwrap_err(),
            LinalgError::Underdetermined { rows: 2, cols: 3 }
        );
        let mut poisoned = ROWS;
        poisoned[3][1] = f64::NAN;
        assert_eq!(
            fold3(&poisoned, &B).solve_cramer().unwrap_err(),
            LinalgError::NonFinite
        );
        assert_eq!(
            fold3(&ROWS, &[1.0, f64::INFINITY, 0.0, 0.0, 0.0])
                .solve_cramer()
                .unwrap_err(),
            LinalgError::NonFinite
        );
        assert_eq!(
            fold3(&[[1.0, 0.0, 0.0]; 4], &[1.0; 4])
                .solve_cramer()
                .unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn gram_mirrors_the_lower_triangle() {
        let gram = fold3(&ROWS, &B).gram();
        let reference = dense(&ROWS).gram();
        for (r, row) in gram.iter().enumerate() {
            for (c, g) in row.iter().enumerate() {
                assert_eq!(g.to_bits(), reference[(r, c)].to_bits(), "({r},{c})");
            }
        }
    }

    #[test]
    fn four_unknowns_match_ols_for_every_right_hand_side() {
        let rows = [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [1.0, 0.0, 1.0, 1.0],
            [0.3, -0.7, 0.2, 1.0],
        ];
        let b = [
            [1.0, 2.5],
            [-1.0, 0.5],
            [0.25, 4.0],
            [3.0, -2.0],
            [0.5, 1.0],
            [2.0, 0.0],
        ];
        let mut normal = NormalEquations::<4, 2>::new();
        for (&row, &bk) in rows.iter().zip(&b) {
            normal.add_row(row, bk);
        }
        let solved = normal.solve_cholesky().unwrap();
        let a = Matrix::from_fn(6, 4, |r, c| rows[r][c]);
        for (k, x) in solved.iter().enumerate() {
            let reference = lstsq::ols(&a, &Vector::from_fn(6, |r| b[r][k])).unwrap();
            for (got, want) in x.iter().zip(reference.as_slice()) {
                assert_eq!(got.to_bits(), want.to_bits(), "rhs {k}");
            }
        }
    }

    #[test]
    fn four_unknown_errors_match_ols() {
        let mut rank_deficient = NormalEquations::<4, 1>::new();
        for k in 0..5 {
            let v = f64::from(k);
            rank_deficient.add_row([v, 2.0 * v, 1.0, 1.0], [v]);
        }
        assert!(matches!(
            rank_deficient.solve_cholesky().unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
        let mut few = NormalEquations::<4, 1>::new();
        few.add_row([1.0; 4], [1.0]);
        assert_eq!(
            few.solve_cholesky().unwrap_err(),
            LinalgError::Underdetermined { rows: 1, cols: 4 }
        );
        // A later right-hand side is checked after the factorization.
        let mut second = NormalEquations::<4, 2>::new();
        for k in 0..4 {
            let mut row = [0.0; 4];
            row[k] = 1.0;
            second.add_row(row, [1.0, if k == 2 { f64::NAN } else { 0.0 }]);
        }
        assert_eq!(second.solve_cholesky().unwrap_err(), LinalgError::NonFinite);
    }

    #[test]
    fn inverse_diagonal_matches_the_dense_inverse() {
        let rows = [
            [0.6, 0.3, 0.74, 1.0],
            [-0.5, 0.6, 0.62, 1.0],
            [0.1, -0.8, 0.59, 1.0],
            [-0.7, -0.4, 0.59, 1.0],
            [0.2, 0.1, 0.97, 1.0],
            [0.9, -0.2, 0.39, 1.0],
        ];
        let mut normal = NormalEquations::<4, 0>::new();
        for &row in &rows {
            normal.add_row(row, []);
        }
        let diagonal = normal.inverse_diagonal().unwrap();
        let inverse = Matrix::from_fn(6, 4, |r, c| rows[r][c])
            .gram()
            .inverse()
            .unwrap();
        for (k, q) in diagonal.iter().enumerate() {
            let want = inverse[(k, k)];
            assert!((q - want).abs() <= 1e-13 * want, "({k},{k}): {q} vs {want}");
        }

        let mut few = NormalEquations::<4, 0>::new();
        rows[..3].iter().for_each(|&row| few.add_row(row, []));
        assert_eq!(
            few.inverse_diagonal().unwrap_err(),
            LinalgError::Underdetermined { rows: 3, cols: 4 }
        );
        let mut poisoned = normal;
        poisoned.add_row([f64::NAN, 0.0, 0.0, 1.0], []);
        assert_eq!(
            poisoned.inverse_diagonal().unwrap_err(),
            LinalgError::NonFinite
        );
        let mut collapsed = NormalEquations::<4, 0>::new();
        (0..5).for_each(|_| collapsed.add_row([0.6, 0.0, 0.8, 1.0], []));
        assert!(matches!(
            collapsed.inverse_diagonal().unwrap_err(),
            LinalgError::NotPositiveDefinite { .. }
        ));
    }

    #[test]
    fn rank1_rejects_what_gls_rank1_rejects() {
        let fold = |diag: [f64; 4]| {
            let mut normal = Rank1Normal3::new();
            for ((&row, &bv), d) in ROWS.iter().zip(&B).zip(diag) {
                normal.add_row(row, bv, d);
            }
            normal
        };
        assert_eq!(
            fold([1.0, -1.0, 0.0, 1.0]).solve_cramer(1.0).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 1 }
        );
        assert_eq!(
            fold([1.0; 4]).solve_cramer(-0.5).unwrap_err(),
            LinalgError::NotPositiveDefinite { pivot: 3 }
        );
        assert_eq!(
            fold([1.0; 4]).solve_cramer(f64::INFINITY).unwrap_err(),
            LinalgError::NonFinite
        );
    }
}
