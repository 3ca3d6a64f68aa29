use gps_geodesy::Ecef;
use gps_linalg::NormalEquations;

use crate::instrument;
use crate::measurement::validate;
use crate::{Measurement, Solution, SolveError};
use gps_telemetry::{Event, Level};

/// The classic Newton–Raphson GPS solver (paper §3.4) — the baseline every
/// rate in the evaluation is measured against.
///
/// Solves the system of residual functions (eq. 3-19)
/// `Pᵢ = ℜᵢ − ρᵉᵢ + εᴿ` for the four unknowns `(xᵉ, yᵉ, zᵉ, εᴿ)` by
/// repeated first-order Taylor linearization: each step solves the linear
/// system of eq. 3-26 — by **ordinary least squares** when over-determined
/// (`m > 4`), as the paper's Step 4 prescribes — and iterates until the
/// update is below tolerance. Each iteration folds the Jacobian rows
/// straight into the 4×4 normal equations, so no buffer grows with the
/// satellite count.
///
/// The default configuration follows the paper: initial solution
/// `(0, 0, 0, 0)` (eq. 3-27, the Earth's center), stopping when the
/// residual change is "small enough" (here: position update below 0.1 mm).
///
/// # Example
///
/// ```
/// use gps_core::{Measurement, NewtonRaphson, PositionSolver};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let truth = Ecef::new(6.37e6, 0.0, 0.0);
/// let bias = 150.0; // receiver clock error, metres
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(1.9e7, 0.9e7, 1.6e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth) + bias))
///     .collect();
/// let fix = NewtonRaphson::default().solve(&meas, 0.0)?;
/// assert!(fix.position.distance_to(truth) < 1e-3);
/// assert!((fix.receiver_bias_m.unwrap() - bias).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonRaphson {
    max_iterations: usize,
    /// Convergence tolerance on the infinity-norm of the update, metres.
    tolerance_m: f64,
    /// Initial position estimate (paper: the Earth's center).
    initial_position: Ecef,
    /// Initial receiver bias estimate, metres.
    initial_bias_m: f64,
    /// Per-measurement weighting of the least-squares step.
    weighting: Weighting,
}

/// Measurement weighting for the Newton–Raphson least-squares step.
///
/// The paper's NR uses OLS (uniform weights, matching its eq. 3-33/3-34
/// equal-variance assumption). Deployed receivers often weight by
/// `sin²(elevation)` instead, since low-elevation pseudoranges carry more
/// atmospheric and multipath error — an ablation-grade refinement of the
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Weighting {
    /// Ordinary least squares — the paper's baseline.
    #[default]
    Uniform,
    /// Weight each equation by `sin²(elevation)`; measurements without an
    /// elevation annotation get weight 1.
    SinSquaredElevation,
}

impl NewtonRaphson {
    /// Creates a solver with explicit iteration controls.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero or `tolerance_m` non-positive.
    #[must_use]
    pub fn new(max_iterations: usize, tolerance_m: f64) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(tolerance_m > 0.0, "tolerance must be positive");
        NewtonRaphson {
            max_iterations,
            tolerance_m,
            initial_position: Ecef::ORIGIN,
            initial_bias_m: 0.0,
            weighting: Weighting::Uniform,
        }
    }

    /// Sets the measurement weighting (default: uniform/OLS, the paper's
    /// baseline).
    #[must_use]
    pub fn with_weighting(mut self, weighting: Weighting) -> Self {
        self.weighting = weighting;
        self
    }

    /// The configured weighting.
    #[must_use]
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// Sets the initial position estimate (default: the Earth's center,
    /// the paper's eq. 3-27). A previous epoch's fix makes a good
    /// warm start.
    #[must_use]
    pub fn with_initial(mut self, position: Ecef, bias_m: f64) -> Self {
        self.initial_position = position;
        self.initial_bias_m = bias_m;
        self
    }

    /// The configured iteration cap.
    #[must_use]
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// The configured convergence tolerance, metres.
    #[must_use]
    pub fn tolerance_m(&self) -> f64 {
        self.tolerance_m
    }
}

impl Default for NewtonRaphson {
    /// Paper-faithful defaults: cold start from the Earth's center,
    /// 0.1 mm update tolerance, 30-iteration cap.
    fn default() -> Self {
        NewtonRaphson::new(30, 1e-4)
    }
}

/// The `sin²(elevation)` weight of one equation, floored at 10⁻³; 1
/// without an elevation annotation. Validated elevations are finite, so
/// every weight lies in `[10⁻³, 1]` and weighted least squares' guard
/// against non-positive weights can never fire.
fn sin_squared_weight(meas: &Measurement) -> f64 {
    meas.elevation
        .map_or(1.0, |el| (el.sin() * el.sin()).max(1e-3))
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for NewtonRaphson {
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        _ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        let measurements = epoch.measurements;
        validate(measurements, 4)?;
        let m = measurements.len();

        let mut pos = self.initial_position;
        // A caller-supplied bias prediction is a better initial guess than
        // zero; NR still refines it as an unknown.
        let mut bias = if epoch.predicted_receiver_bias_m != 0.0 {
            epoch.predicted_receiver_bias_m
        } else {
            self.initial_bias_m
        };

        for iteration in 1..=self.max_iterations {
            // Build P and the Jacobian at the current iterate (eq. 3-24 and
            // 3-20..3-23: ∂Pᵢ/∂x = (xᵉ−xᵢ)/ℜᵢ, ∂Pᵢ/∂εᴿ = 1) and fold each
            // row into the normal equations of Step 4 (eq. 3-26): OLS
            // (exact solve when m = 4), or weighted LS — rows and
            // right-hand side scaled by √w — when elevation weighting is
            // configured.
            let mut normal = NormalEquations::<4, 1>::new();
            for meas in measurements {
                let delta = pos - meas.position;
                let range = delta.norm();
                if range < 1.0 {
                    // Iterate collided with a satellite: geometry is
                    // hopeless from this start.
                    instrument::nr_nonconvergence().inc();
                    return Err(SolveError::NonConvergence {
                        iterations: iteration,
                        residual: f64::INFINITY,
                    });
                }
                let p_i = range - meas.pseudorange + bias;
                let row = [delta.x / range, delta.y / range, delta.z / range, 1.0];
                match self.weighting {
                    Weighting::Uniform => normal.add_row(row, [-p_i]),
                    Weighting::SinSquaredElevation => {
                        let s = sin_squared_weight(meas).sqrt();
                        normal.add_row(row.map(|v| v * s), [-p_i * s]);
                    }
                }
            }
            let [step] = normal.solve_cholesky()?;
            let [dx, dy, dz, db] = step;

            pos += Ecef::new(dx, dy, dz);
            bias += db;

            if !pos.is_finite() || !bias.is_finite() {
                instrument::nr_nonconvergence().inc();
                return Err(SolveError::NonConvergence {
                    iterations: iteration,
                    residual: f64::INFINITY,
                });
            }

            // Infinity norm of the update, NaN-ignoring like `f64::max`.
            let step_norm_inf = step.iter().fold(0.0_f64, |acc, x| acc.max(x.abs()));
            if step_norm_inf < self.tolerance_m {
                // Converged: report the residual RMS at the accepted
                // iterate.
                let mut sum_sq = 0.0;
                for meas in measurements {
                    let r = (pos - meas.position).norm() - meas.pseudorange + bias;
                    sum_sq += r * r;
                }
                let residual_rms = (sum_sq / m as f64).sqrt();
                instrument::nr_solves().inc();
                instrument::nr_iterations().record(iteration as f64);
                instrument::nr_residual_rms().record(residual_rms);
                return Ok(Solution::new(pos, Some(bias), iteration, residual_rms));
            }
        }

        let residual = measurements
            .iter()
            .map(|meas| {
                let r = (pos - meas.position).norm() - meas.pseudorange + bias;
                r * r
            })
            .sum::<f64>()
            .sqrt();
        instrument::nr_nonconvergence().inc();
        if gps_telemetry::enabled(Level::Warn) {
            Event::new(Level::Warn, "core.nr", "did not converge")
                .with("iterations", self.max_iterations)
                .with("residual_m", residual)
                .with("satellites", m)
                .emit();
        }
        Err(SolveError::NonConvergence {
            iterations: self.max_iterations,
            residual,
        })
    }

    fn name(&self) -> &'static str {
        "NR"
    }

    fn min_satellites(&self) -> usize {
        4
    }

    fn estimates_bias(&self) -> bool {
        true
    }

    fn is_iterative(&self) -> bool {
        true
    }

    fn clone_box(&self) -> Box<dyn crate::Solver> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Measurement, PositionSolver};

    fn sats() -> Vec<Ecef> {
        vec![
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
    }

    fn exact_measurements(truth: Ecef, bias: f64, n: usize) -> Vec<Measurement> {
        sats()
            .into_iter()
            .take(n)
            .map(|s| Measurement::new(s, s.distance_to(truth) + bias))
            .collect()
    }

    #[test]
    fn exact_recovery_four_satellites() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let meas = exact_measurements(truth, 250.0, 4);
        let fix = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-3);
        assert!((fix.receiver_bias_m.unwrap() - 250.0).abs() < 1e-3);
        assert!(fix.residual_rms < 1e-6);
    }

    #[test]
    fn exact_recovery_six_satellites_overdetermined() {
        let truth = Ecef::new(3.0e6, -5.2e6, 6.0e5);
        let meas = exact_measurements(truth, -180.0, 6);
        let fix = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        assert!(fix.position.distance_to(truth) < 1e-3);
        assert!((fix.receiver_bias_m.unwrap() + 180.0).abs() < 1e-3);
    }

    #[test]
    fn converges_from_cold_start_in_few_iterations() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 0.0, 5);
        let fix = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        // The classic result: NR from the Earth's center needs ~5 steps.
        assert!(
            fix.iterations >= 3 && fix.iterations <= 10,
            "{}",
            fix.iterations
        );
    }

    #[test]
    fn warm_start_reduces_iterations() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 100.0, 5);
        let cold = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        let warm = NewtonRaphson::default()
            .with_initial(truth + Ecef::new(10.0, -5.0, 3.0), 99.0)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(warm.iterations < cold.iterations);
        assert!(warm.position.distance_to(truth) < 1e-3);
    }

    #[test]
    fn bias_hint_used_as_initial_guess() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 300.0, 5);
        let hinted = NewtonRaphson::default().solve(&meas, 300.0).unwrap();
        assert!((hinted.receiver_bias_m.unwrap() - 300.0).abs() < 1e-3);
    }

    #[test]
    fn noisy_measurements_still_converge() {
        let truth = Ecef::new(6.371e6, 1.0e5, 5.0e4);
        let mut meas = exact_measurements(truth, 50.0, 6);
        // A few metres of alternating error.
        for (k, m) in meas.iter_mut().enumerate() {
            m.pseudorange += if k % 2 == 0 { 3.0 } else { -3.0 };
        }
        let fix = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        assert!(fix.position.distance_to(truth) < 20.0);
        assert!(fix.residual_rms > 0.1); // inconsistency shows up
    }

    #[test]
    fn rejects_too_few() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 0.0, 3);
        assert_eq!(
            NewtonRaphson::default().solve(&meas, 0.0).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        );
    }

    #[test]
    fn rejects_non_finite() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact_measurements(truth, 0.0, 4);
        meas[2].pseudorange = f64::NAN;
        assert_eq!(
            NewtonRaphson::default().solve(&meas, 0.0).unwrap_err(),
            SolveError::NonFinite
        );
    }

    #[test]
    fn degenerate_geometry_reported() {
        // All satellites at the same point: Jacobian rank-deficient.
        let s = Ecef::new(2.0e7, 0.0, 0.0);
        let meas = vec![Measurement::new(s, 2.0e7); 4];
        let err = NewtonRaphson::default().solve(&meas, 0.0).unwrap_err();
        assert!(
            matches!(err, SolveError::DegenerateGeometry(_))
                || matches!(err, SolveError::NonConvergence { .. }),
            "{err:?}"
        );
    }

    #[test]
    fn iteration_cap_enforced() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 0.0, 5);
        // One iteration cannot reach 0.1 mm from a cold start.
        let err = NewtonRaphson::new(1, 1e-4).solve(&meas, 0.0).unwrap_err();
        assert!(matches!(
            err,
            SolveError::NonConvergence { iterations: 1, .. }
        ));
    }

    #[test]
    fn accessors() {
        let nr = NewtonRaphson::new(12, 0.5);
        assert_eq!(nr.max_iterations(), 12);
        assert_eq!(nr.tolerance_m(), 0.5);
        assert_eq!(nr.name(), "NR");
        assert_eq!(nr.min_satellites(), 4);
    }

    #[test]
    #[should_panic(expected = "iteration")]
    fn zero_iterations_rejected() {
        let _ = NewtonRaphson::new(0, 1e-4);
    }

    #[test]
    fn elevation_weighting_matches_ols_on_exact_data() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let meas: Vec<Measurement> = exact_measurements(truth, 120.0, 6)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(0.2 + 0.12 * k as f64))
            .collect();
        let weighted = NewtonRaphson::default()
            .with_weighting(Weighting::SinSquaredElevation)
            .solve(&meas, 0.0)
            .unwrap();
        // Exact data: every weighting recovers the truth.
        assert!(weighted.position.distance_to(truth) < 1e-3);
        assert_eq!(
            NewtonRaphson::default()
                .with_weighting(Weighting::SinSquaredElevation)
                .weighting(),
            Weighting::SinSquaredElevation
        );
    }

    #[test]
    fn elevation_weighting_downweights_low_elevation_error() {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        // Large error on the lowest-elevation satellite only.
        let mut meas: Vec<Measurement> = exact_measurements(truth, 0.0, 6)
            .into_iter()
            .enumerate()
            .map(|(k, m)| m.with_elevation(if k == 0 { 0.09 } else { 0.9 + 0.1 * k as f64 }))
            .collect();
        meas[0].pseudorange += 40.0;
        let uniform = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        let weighted = NewtonRaphson::default()
            .with_weighting(Weighting::SinSquaredElevation)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(
            weighted.position.distance_to(truth) < uniform.position.distance_to(truth),
            "weighted {} vs uniform {}",
            weighted.position.distance_to(truth),
            uniform.position.distance_to(truth)
        );
    }

    #[test]
    fn weighting_without_elevations_falls_back_to_uniform() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let meas = exact_measurements(truth, 75.0, 5); // no elevations
        let uniform = NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        let weighted = NewtonRaphson::default()
            .with_weighting(Weighting::SinSquaredElevation)
            .solve(&meas, 0.0)
            .unwrap();
        assert!(uniform.position.distance_to(weighted.position) < 1e-6);
    }
}
