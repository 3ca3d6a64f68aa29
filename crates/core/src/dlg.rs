use gps_geodesy::Ecef;
use gps_linalg::lstsq::{self, GlsStrategy};
use gps_linalg::{Matrix, NormalEquations, Rank1Normal3};

use crate::dlo::{LinearSystem, Linearization};
use crate::instrument;
use crate::{BaseSelection, Solution, SolveError};

/// Which covariance structure DLG feeds to the general least-squares
/// estimator — the subject of the `ablation_gls_cov` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum CovarianceModel {
    /// The paper's full matrix `Ψᵢⱼ = ρ₁² + δᵢⱼ·ρᵢ₊₁²` (eq. 4-26): every
    /// pair of differenced equations shares the base-satellite term, so
    /// all off-diagonals equal `ρ₁²`. Theorem 4.2 proves this makes GLS
    /// optimal.
    #[default]
    Full,
    /// Keep only the diagonal of Ψ — i.e. acknowledge unequal variances
    /// but ignore the correlation that Theorem 4.1 identifies.
    DiagonalOnly,
    /// The identity — reduces DLG to DLO exactly (useful as a consistency
    /// check and as the ablation baseline).
    Identity,
    /// The paper's Ψ with per-satellite variance factors from the
    /// elevation angle: `Ψᵢⱼ = w₁ρ₁² + δᵢⱼ·wᵢ₊₁ρᵢ₊₁²` where
    /// `wᵢ = 1 + (1/sin(elᵢ) − 1)` models the elevation-dependent error
    /// budget (atmosphere and multipath grow toward the horizon). A
    /// beyond-the-paper refinement: Theorem 4.2's derivation assumes equal
    /// variances (eq. 4-14); real budgets are not equal, and this variant
    /// feeds that structure to the GLS estimator. Measurements without
    /// elevation annotations get weight 1.
    ElevationScaled,
}

/// How DLG applies the inverse covariance `Ψ⁻¹` — the subject of the
/// structured-vs-dense sweep in the `ablation_gls_cov` benchmark.
///
/// Every [`CovarianceModel`] is rank-one-plus-diagonal
/// (`Ψ = ρ₁²·𝟙𝟙ᵀ + D`; the diagonal-only models just have a zero
/// rank-one weight), so the structured path applies to all of them. The
/// three variants are algebraically identical — they differ only in how
/// much arithmetic they spend per fix (`O(m)` vs `O(m³)`): solutions
/// agree to ULP-level rounding, and degenerate inputs produce the same
/// [`SolveError`] variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum GlsPath {
    /// Exploit the rank-one-plus-diagonal structure of Ψ via the
    /// Sherman–Morrison identity ([`gps_linalg::Rank1Normal3`]): `O(m)`
    /// flops, fixed-size scratch, no m×m matrix ever materialized or
    /// factored. The default — this is the paper's §6 "optimize the
    /// matrix operations" extension taken to its conclusion.
    #[default]
    Structured,
    /// Materialize the dense Ψ and whiten through its Cholesky factor
    /// (`O(m³)`). The pre-structured hot path, kept as the ablation
    /// baseline.
    DenseWhitened,
    /// Materialize Ψ **and** its explicit inverse, evaluating eq. 4-21
    /// literally. Strictly more work than whitening; the
    /// faithful-to-the-text ablation reference (allocates per solve).
    DenseExplicit,
}

/// Algorithm **DLG**: Direct Linearization with the General Least Squares
/// method (paper §4.4, 4.5).
///
/// DLG shares [`crate::linearize`] with [`crate::Dlo`] but replaces OLS
/// with GLS (eq. 4-21):
///
/// `Xᵉ = (Aᵀ M⁻¹ A)⁻¹ Aᵀ M⁻¹ Dᵉ`
///
/// where `M = cov(Δβ)` (eq. 4-22). The need for GLS is the paper's
/// Theorem 4.1: subtracting the base equation injects the *same* base
/// error into every differenced equation, so the right-hand-side errors
/// are correlated (`cov(Δβᵢ, Δβⱼ) = ½σ²ρ₁² ≠ 0`) and the OLS optimality
/// condition (3-35) fails. Theorem 4.2 shows the covariance (eq. 4-25/4-26)
///
/// `Ψᵢⱼ = ρ₁² + δᵢⱼ·ρᵢ₊₁²`
///
/// is positive definite, so GLS with `M ∝ Ψ` is optimal. The true ranges
/// `ρᵢ` in Ψ are unknown; following the paper's own construction the
/// clock-corrected measured pseudoranges `ρᴱᵢ` stand in for them (the
/// relative error of that substitution is ~10⁻⁶).
///
/// # Example
///
/// ```
/// use gps_core::{Dlg, Measurement, PositionSolver};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let truth = Ecef::new(6.37e6, 1.0e4, -3.0e4);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(0.8e7, 1.4e7, 2.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth)))
///     .collect();
/// let fix = Dlg::default().solve(&meas, 0.0)?;
/// assert!(fix.position.distance_to(truth) < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dlg {
    base: BaseSelection,
    covariance: CovarianceModel,
    gls: GlsPath,
}

/// The structured decomposition `Ψ = rank1·𝟙𝟙ᵀ + diag(d)` of one
/// epoch's covariance, scaled by the squared base range: GLS is
/// scale-invariant, and normalizing keeps the arithmetic well inside f64
/// range (raw entries would be ~10¹⁴).
///
/// Every [`CovarianceModel`] fits this shape (the diagonal-only models
/// have `rank1 = 0`), and `rank1 + dᵣ` / `rank1` are exactly the dense
/// matrix's diagonal / off-diagonal entries.
#[derive(Debug, Clone, Copy)]
struct Psi {
    model: CovarianceModel,
    /// `1 / max(ρ₁², 1)`.
    scale: f64,
    /// `ρ₁²·scale`.
    rho1_scaled: f64,
    /// The rank-one weight.
    rank1: f64,
}

/// Per-satellite variance weight from the elevation budget (the same
/// `1/sin(el)` shape as the receiver-noise model); 1 when unannotated.
fn elevation_weight(elevation: Option<f64>) -> f64 {
    elevation.map_or(1.0, |e: f64| {
        let clamped = e.clamp(3.0f64.to_radians(), std::f64::consts::FRAC_PI_2);
        1.0 / clamped.sin()
    })
}

impl Psi {
    /// The decomposition for base corrected range `rho1` and base
    /// elevation `base_elevation`.
    fn new(model: CovarianceModel, rho1: f64, base_elevation: Option<f64>) -> Self {
        let rho1_sq = rho1 * rho1;
        let scale = 1.0 / rho1_sq.max(1.0);
        let rho1_scaled = rho1_sq * scale;
        let rank1 = match model {
            CovarianceModel::Full => rho1_scaled,
            CovarianceModel::DiagonalOnly | CovarianceModel::Identity => 0.0,
            CovarianceModel::ElevationScaled => elevation_weight(base_elevation) * rho1_scaled,
        };
        Psi {
            model,
            scale,
            rho1_scaled,
            rank1,
        }
    }

    /// Diagonal entry `dᵣ` of the differenced row whose satellite has
    /// corrected range `rho` and elevation `elevation`.
    fn diag(&self, rho: f64, elevation: Option<f64>) -> f64 {
        let other = rho * rho * self.scale;
        match self.model {
            CovarianceModel::Full => other,
            CovarianceModel::DiagonalOnly => self.rho1_scaled + other,
            CovarianceModel::Identity => 1.0,
            CovarianceModel::ElevationScaled => elevation_weight(elevation) * other,
        }
    }

    /// Writes the dense `rows × rows` Ψ into `out`: `rank1` everywhere
    /// plus `dᵣ` on the diagonal.
    fn fill_dense(&self, rows: usize, diag: impl Iterator<Item = f64>, out: &mut Matrix) {
        out.resize_zeroed(rows, rows);
        for (r, d) in diag.enumerate() {
            let row = out.row_mut(r);
            row.fill(self.rank1);
            if let Some(entry) = row.get_mut(r) {
                *entry = self.rank1 + d;
            }
        }
    }
}

impl Dlg {
    /// Creates a DLG solver with the paper's defaults (first-satellite
    /// base, full Ψ covariance) on the structured `O(m)` GLS path.
    #[must_use]
    pub fn new() -> Self {
        Dlg::default()
    }

    /// Sets the base-satellite selection strategy.
    #[must_use]
    pub fn with_base_selection(mut self, base: BaseSelection) -> Self {
        self.base = base;
        self
    }

    /// Sets the covariance structure (ablation hook; the paper's algorithm
    /// is [`CovarianceModel::Full`]).
    #[must_use]
    pub fn with_covariance_model(mut self, covariance: CovarianceModel) -> Self {
        self.covariance = covariance;
        self
    }

    /// The configured covariance model.
    #[must_use]
    pub fn covariance_model(&self) -> CovarianceModel {
        self.covariance
    }

    /// Sets how the inverse covariance is applied (ablation hook; the
    /// default [`GlsPath::Structured`] is the fast path, the dense
    /// variants are kept as baselines).
    #[must_use]
    pub fn with_gls_path(mut self, gls: GlsPath) -> Self {
        self.gls = gls;
        self
    }

    /// The configured GLS application path.
    #[must_use]
    pub fn gls_path(&self) -> GlsPath {
        self.gls
    }

    /// The covariance decomposition of a linearized system plus its
    /// diagonal, one entry per differenced row (row `r` is input
    /// measurement `r` when `r < base_index`, else `r + 1`).
    fn decompose<'s>(&self, sys: &'s LinearSystem) -> (Psi, impl Iterator<Item = f64> + 's) {
        let base = sys.base_index;
        let rho1 = sys.corrected_ranges.get(base).copied().unwrap_or(f64::NAN);
        let psi = Psi::new(
            self.covariance,
            rho1,
            sys.elevations.get(base).copied().flatten(),
        );
        let diag = sys
            .corrected_ranges
            .iter()
            .zip(&sys.elevations)
            .enumerate()
            .filter(move |&(j, _)| j != base)
            .map(move |(_, (&rho, &elevation))| psi.diag(rho, elevation));
        (psi, diag)
    }

    /// Builds the covariance matrix `M ∝ Ψ` of eq. 4-26 for a linearized
    /// system (step 3 of the paper's DLG pseudo-code).
    ///
    /// Exposed for the GLS-covariance ablation and for tests.
    #[must_use]
    pub fn covariance_matrix(&self, sys: &LinearSystem) -> Matrix {
        let mut out = Matrix::default();
        self.covariance_matrix_into(sys, &mut out);
        out
    }

    /// [`Dlg::covariance_matrix`] with a caller-provided buffer: fills
    /// `out` in place without intermediate allocations (the zero-allocation
    /// arm of the linalg-path ablation bench).
    // lint: no_alloc
    pub fn covariance_matrix_into(&self, sys: &LinearSystem, out: &mut Matrix) {
        let (psi, diag) = self.decompose(sys);
        psi.fill_dense(sys.a.rows(), diag, out);
    }

    /// The structured decomposition of the covariance:
    /// `Ψ = rank1·𝟙𝟙ᵀ + diag(d)`, returned as the rank-one weight plus
    /// the diagonal vector — the `(ρ₁², diag)` pair the Sherman–Morrison
    /// GLS kernel consumes directly, skipping the `O(m²)` matrix fill.
    ///
    /// Every [`CovarianceModel`] fits this shape (the diagonal-only models
    /// have `rank1 = 0`), and `rank1 + dᵣ` / `rank1` reproduce exactly the
    /// entries [`Dlg::covariance_matrix`] would write. Exposed for the
    /// GLS-path ablation and for tests.
    #[must_use]
    pub fn covariance_rank1(&self, sys: &LinearSystem) -> (f64, Vec<f64>) {
        let (psi, diag) = self.decompose(sys);
        (psi.rank1, diag.collect())
    }

    /// The dense ablation lanes: materialize the design matrix and Ψ in
    /// the context's buffers and hand them to `lstsq::gls_into`.
    // lint: no_alloc
    fn solve_dense<'e>(
        &self,
        epoch: &crate::Epoch<'e>,
        ctx: &mut crate::SolveContext,
    ) -> Result<(Linearization<'e>, Ecef), SolveError> {
        let lin = crate::dlo::linearize_into(
            epoch.measurements,
            epoch.predicted_receiver_bias_m,
            self.base,
            &mut ctx.geometry,
            &mut ctx.rhs,
        )?;
        let psi = Psi::new(self.covariance, lin.rho1, lin.base.elevation);
        let rows = ctx.rhs.len();
        let diag = lin.rows().map(|row| psi.diag(row.rho, row.elevation));
        // Covariance-assembly time costs more to observe than the fill.
        if gps_telemetry::detail() {
            let start = std::time::Instant::now();
            psi.fill_dense(rows, diag, &mut ctx.covariance);
            instrument::dlg_cov_assembly().record(start.elapsed().as_secs_f64() * 1e6);
        } else {
            psi.fill_dense(rows, diag, &mut ctx.covariance);
        }
        let strategy = if self.gls == GlsPath::DenseWhitened {
            GlsStrategy::Whitened
        } else {
            GlsStrategy::ExplicitInverse
        };
        lstsq::gls_into(
            &ctx.geometry,
            &ctx.rhs,
            &ctx.covariance,
            strategy,
            &mut ctx.lstsq,
            &mut ctx.step,
        )?;
        let position = Ecef::new(ctx.step[0], ctx.step[1], ctx.step[2]);
        Ok((lin, position))
    }
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for Dlg {
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        let (lin, position) = match self.gls {
            GlsPath::Structured => {
                let lin = Linearization::new(
                    epoch.measurements,
                    epoch.predicted_receiver_bias_m,
                    self.base,
                )?;
                let psi = Psi::new(self.covariance, lin.rho1, lin.base.elevation);
                let mut normal = Rank1Normal3::new();
                for row in lin.rows() {
                    normal.add_row(row.a, row.d, psi.diag(row.rho, row.elevation));
                }
                let [x, y, z] = normal.solve_cramer(psi.rank1)?;
                (lin, Ecef::new(x, y, z))
            }
            GlsPath::DenseWhitened | GlsPath::DenseExplicit => self.solve_dense(epoch, ctx)?,
        };
        let rms = lin.residual_rms(position);
        instrument::dlg_solves().inc();
        // The condition number of the (unweighted) design matrix is a
        // detail observation: one more pass over the rows for AᵀA.
        if gps_telemetry::detail() {
            let mut design = NormalEquations::<3, 1>::new();
            for row in lin.rows() {
                design.add_row(row.a, [row.d]);
            }
            instrument::observe_design_condition(
                instrument::dlg_condition(),
                "core.dlg",
                design.gram(),
                lin.base_index,
                rms,
            );
        }
        Ok(Solution::new(position, None, 1, rms))
    }

    fn name(&self) -> &'static str {
        "DLG"
    }

    fn min_satellites(&self) -> usize {
        4
    }

    fn clone_box(&self) -> Box<dyn crate::Solver> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlo::linearize;
    use crate::{Dlo, Measurement, PositionSolver};

    fn sats() -> Vec<Ecef> {
        vec![
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
            Ecef::new(1.2e7, -0.4e7, 2.2e7),
            Ecef::new(2.2e7, 1.2e7, 0.2e7),
        ]
    }

    fn exact(truth: Ecef, bias: f64, n: usize) -> Vec<Measurement> {
        sats()
            .into_iter()
            .take(n)
            .map(|s| Measurement::new(s, s.distance_to(truth) + bias))
            .collect()
    }

    #[test]
    fn exact_recovery_all_counts() {
        let truth = Ecef::new(6.371e6, -3.0e5, 1.0e5);
        for n in 4..=8 {
            let fix = Dlg::new().solve(&exact(truth, 0.0, n), 0.0).unwrap();
            assert!(
                fix.position.distance_to(truth) < 1e-2,
                "n={n}: err {}",
                fix.position.distance_to(truth)
            );
        }
    }

    #[test]
    fn identity_covariance_reduces_to_dlo() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0, 7);
        // Make the system inconsistent so the estimators actually differ.
        meas[1].pseudorange += 4.0;
        meas[5].pseudorange -= 6.0;
        let dlo = Dlo::new().solve(&meas, 0.0).unwrap();
        let dlg_id = Dlg::new()
            .with_covariance_model(CovarianceModel::Identity)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(
            dlg_id.position.distance_to(dlo.position) < 1e-6,
            "differ by {}",
            dlg_id.position.distance_to(dlo.position)
        );
        // Full covariance gives a *different* estimate on inconsistent data.
        let dlg_full = Dlg::new().solve(&meas, 0.0).unwrap();
        assert!(dlg_full.position.distance_to(dlo.position) > 1e-6);
    }

    #[test]
    fn covariance_matrix_structure() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0, 5);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let dlg = Dlg::new();
        let cov = dlg.covariance_matrix(&sys);
        assert_eq!(cov.shape(), (4, 4));
        // All off-diagonals identical (= scaled ρ₁²), diagonals strictly
        // larger.
        let off = cov[(0, 1)];
        for r in 0..4 {
            for c in 0..4 {
                if r == c {
                    assert!(cov[(r, c)] > off);
                } else {
                    assert!((cov[(r, c)] - off).abs() < 1e-12);
                }
            }
        }
        assert!(cov.is_symmetric(1e-12));
        // And positive definite, per Theorem 4.2.
        assert!(gps_linalg::Cholesky::new(&cov).is_ok());
    }

    #[test]
    fn diagonal_model_zeroes_off_diagonals() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact(truth, 0.0, 5);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let cov = Dlg::new()
            .with_covariance_model(CovarianceModel::DiagonalOnly)
            .covariance_matrix(&sys);
        assert_eq!(cov[(0, 1)], 0.0);
        assert!(cov[(0, 0)] > 0.0);
    }

    #[test]
    fn elevation_scaled_covariance_is_spd_and_solves() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas: Vec<Measurement> = exact(truth, 0.0, 7)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(0.15 + 0.12 * k as f64))
            .collect();
        let dlg = Dlg::new().with_covariance_model(CovarianceModel::ElevationScaled);
        let sys = linearize(&meas, 0.0, BaseSelection::First).unwrap();
        let cov = dlg.covariance_matrix(&sys);
        assert!(cov.is_symmetric(1e-12));
        assert!(gps_linalg::Cholesky::new(&cov).is_ok());
        // Lower-elevation satellites get larger variances.
        assert!(cov[(0, 0)] - cov[(0, 1)] > cov[(5, 5)] - cov[(5, 0)]);
        // Exact data still recovers exactly.
        let fix = dlg.solve(&meas, 0.0).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-2);
    }

    #[test]
    fn elevation_scaled_without_annotations_matches_full() {
        let truth = Ecef::new(6.371e6, 1.0e5, 0.0);
        let mut meas = exact(truth, 0.0, 6); // no elevations
        meas[2].pseudorange += 3.0;
        let full = Dlg::new().solve(&meas, 0.0).unwrap();
        let scaled = Dlg::new()
            .with_covariance_model(CovarianceModel::ElevationScaled)
            .solve(&meas, 0.0)
            .unwrap();
        // All weights collapse to 1 → same covariance up to the identical
        // structure, hence the same solution.
        assert!(full.position.distance_to(scaled.position) < 1e-6);
    }

    #[test]
    fn bias_prediction_applied() {
        let truth = Ecef::new(3.6e6, -5.2e6, 6.0e5);
        let bias = -275.0;
        let meas = exact(truth, bias, 6);
        let fix = Dlg::new().solve(&meas, bias).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-2);
    }

    #[test]
    fn gls_beats_ols_under_correlated_noise() {
        // Monte-Carlo check of Theorem 4.2: with errors matching the
        // paper's model (independent per-satellite pseudorange errors,
        // which become *correlated* after differencing), DLG's RMS
        // position error must not exceed DLO's.
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let base = exact(truth, 0.0, 8);
        let mut rms_dlo = 0.0;
        let mut rms_dlg = 0.0;
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            // xorshift for a cheap deterministic pseudo-gaussian (sum of 12
            // uniforms − 6).
            let mut s = 0.0;
            for _ in 0..12 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            s - 6.0
        };
        let trials = 400;
        for _ in 0..trials {
            let noisy: Vec<Measurement> = base
                .iter()
                .map(|m| Measurement::new(m.position, m.pseudorange + 3.0 * next()))
                .collect();
            let dlo = Dlo::new().solve(&noisy, 0.0).unwrap();
            let dlg = Dlg::new().solve(&noisy, 0.0).unwrap();
            rms_dlo += dlo.position.distance_to(truth).powi(2);
            rms_dlg += dlg.position.distance_to(truth).powi(2);
        }
        rms_dlo = (rms_dlo / f64::from(trials)).sqrt();
        rms_dlg = (rms_dlg / f64::from(trials)).sqrt();
        assert!(
            rms_dlg <= rms_dlo * 1.02,
            "DLG {rms_dlg} should not exceed DLO {rms_dlo}"
        );
    }

    #[test]
    fn rejects_too_few() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        assert_eq!(
            Dlg::new().solve(&exact(truth, 0.0, 3), 0.0).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        );
    }

    #[test]
    fn trait_metadata() {
        let dlg = Dlg::new();
        assert_eq!(dlg.name(), "DLG");
        assert_eq!(dlg.min_satellites(), 4);
        assert_eq!(dlg.covariance_model(), CovarianceModel::Full);
        assert_eq!(dlg.gls_path(), GlsPath::Structured);
        assert_eq!(
            dlg.with_gls_path(GlsPath::DenseExplicit).gls_path(),
            GlsPath::DenseExplicit
        );
    }

    /// Noisy (inconsistent) measurements so the GLS paths actually have
    /// residual structure to disagree on.
    fn noisy(truth: Ecef, n: usize) -> Vec<Measurement> {
        let mut meas = exact(truth, 13.0, n);
        for (k, m) in meas.iter_mut().enumerate() {
            // Deterministic ±few-metre perturbation, different per row.
            m.pseudorange += ((k * 7 + 3) % 11) as f64 - 5.0;
        }
        meas
    }

    #[test]
    fn structured_path_matches_dense_paths_all_models() {
        let truth = Ecef::new(6.371e6, -2.0e5, 3.0e5);
        for model in [
            CovarianceModel::Full,
            CovarianceModel::DiagonalOnly,
            CovarianceModel::Identity,
            CovarianceModel::ElevationScaled,
        ] {
            let meas = noisy(truth, 8);
            let fix = |path: GlsPath| {
                Dlg::new()
                    .with_covariance_model(model)
                    .with_gls_path(path)
                    .solve(&meas, 0.0)
                    .unwrap()
            };
            let structured = fix(GlsPath::Structured);
            let whitened = fix(GlsPath::DenseWhitened);
            let explicit = fix(GlsPath::DenseExplicit);
            // Sherman–Morrison is algebraically exact; only association
            // order differs, so agreement is at far-sub-micrometre level.
            for dense in [&whitened, &explicit] {
                assert!(
                    structured.position.distance_to(dense.position) < 1e-6,
                    "{model:?}: paths diverged by {}",
                    structured.position.distance_to(dense.position)
                );
            }
            assert!((structured.residual_rms - whitened.residual_rms).abs() < 1e-9);
        }
    }

    #[test]
    fn covariance_rank1_reconstructs_dense_matrix_bitwise() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let meas = noisy(truth, 8);
        for model in [
            CovarianceModel::Full,
            CovarianceModel::DiagonalOnly,
            CovarianceModel::Identity,
            CovarianceModel::ElevationScaled,
        ] {
            let dlg = Dlg::new().with_covariance_model(model);
            let sys = linearize(&meas, 0.0, dlg.base).unwrap();
            let dense = dlg.covariance_matrix(&sys);
            let (rank1, diag) = dlg.covariance_rank1(&sys);
            let m1 = meas.len() - 1;
            assert_eq!(diag.len(), m1);
            for r in 0..m1 {
                for c in 0..m1 {
                    let rebuilt = if r == c { rank1 + diag[r] } else { rank1 };
                    assert_eq!(
                        dense[(r, c)].to_bits(),
                        rebuilt.to_bits(),
                        "{model:?}: entry ({r},{c}) mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn structured_and_dense_error_identically_on_degenerate_ranges() {
        // Zero corrected ranges give zero covariance diagonal entries.
        // One zero leaves Ψ (barely) positive definite through the
        // rank-one term, but two make it genuinely singular: both lanes
        // must reject with the same degenerate-geometry taxonomy (the
        // dense Cholesky via NotPositiveDefinite, the structured lane via
        // its d ≤ 0 guard), not silently divide by zero.
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0, 6);
        meas[3].pseudorange = 0.0;
        meas[4].pseudorange = 0.0;
        for path in [GlsPath::Structured, GlsPath::DenseWhitened] {
            let err = Dlg::new().with_gls_path(path).solve(&meas, 0.0);
            assert!(
                matches!(err, Err(SolveError::DegenerateGeometry(_))),
                "{path:?}: expected degenerate-covariance rejection, got {err:?}"
            );
        }
    }
}
