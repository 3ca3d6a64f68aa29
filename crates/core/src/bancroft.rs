use gps_geodesy::Ecef;
use gps_linalg::NormalEquations;

use crate::measurement::validate;
use crate::{Measurement, Solution, SolveError};

/// Bancroft's algebraic closed-form GPS solution (the paper's related work
/// \[2\]: S. Bancroft, "An algebraic solution of the GPS equations", 1986).
///
/// Included as a second baseline: like DLO/DLG it is non-iterative, but
/// unlike them it solves for the receiver clock bias as an unknown, so it
/// needs no clock prediction. The trade-off is a heavier algebraic path
/// (a 4-column pseudo-inverse plus a quadratic root selection) and the
/// deterministic-system assumption the paper's §2 criticizes in direct
/// methods.
///
/// Formulation: with satellite 4-vectors `aᵢ = (sᵢ; ρᵢ)` under the Lorentz
/// inner product `⟨u,v⟩ = u·v − u₄v₄`, the unknown `y = (x; b)` satisfies
/// `B M y = r + Λ e` with `rᵢ = ½⟨aᵢ,aᵢ⟩` and `Λ = ½⟨y,y⟩`, which reduces
/// to a scalar quadratic in `Λ`. Both pseudo-inverse applications `B⁺e`
/// and `B⁺r` come from one fold of `BᵀB` and one 4×4 Cholesky
/// factorization.
///
/// # Example
///
/// ```
/// use gps_core::{Bancroft, Measurement, PositionSolver};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let truth = Ecef::new(6.37e6, 1.0e5, -2.0e5);
/// let bias = 450.0;
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth) + bias))
///     .collect();
/// let fix = Bancroft::default().solve(&meas, 0.0)?;
/// assert!(fix.position.distance_to(truth) < 1e-2);
/// assert!((fix.receiver_bias_m.unwrap() - bias).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Bancroft;

/// Lorentz (Minkowski) inner product on 4-vectors.
fn lorentz(u: &[f64; 4], v: &[f64; 4]) -> f64 {
    let [u0, u1, u2, u3] = *u;
    let [v0, v1, v2, v3] = *v;
    u0 * v0 + u1 * v1 + u2 * v2 - u3 * v3
}

impl Bancroft {
    /// Creates a Bancroft solver.
    #[must_use]
    pub fn new() -> Self {
        Bancroft
    }

    /// Post-fit residual RMS for a candidate `(position, bias)`.
    fn residual_rms(measurements: &[Measurement], pos: Ecef, bias: f64) -> f64 {
        let sum: f64 = measurements
            .iter()
            .map(|m| {
                let r = m.pseudorange - (pos.distance_to(m.position) + bias);
                r * r
            })
            .sum();
        (sum / measurements.len() as f64).sqrt()
    }
}

// Implemented without importing `Solver`, so `.solve(&meas, bias)` in
// this module (and in `use super::*` tests) still resolves through
// `PositionSolver` unambiguously.
impl crate::Solver for Bancroft {
    // lint: no_alloc
    fn solve(
        &self,
        epoch: &crate::Epoch<'_>,
        _ctx: &mut crate::SolveContext,
    ) -> Result<Solution, SolveError> {
        let measurements = epoch.measurements;
        validate(measurements, 4)?;

        // B has rows (sᵢ, ρᵢ); rᵢ = ½⟨aᵢ,aᵢ⟩. B⁺ is applied to e = 𝟙 and to
        // r by least squares (exact inverse when m = 4), both right-hand
        // sides sharing one fold and factorization of BᵀB.
        let mut normal = NormalEquations::<4, 2>::new();
        for meas in measurements {
            let s = meas.position;
            let rho = meas.pseudorange;
            normal.add_row(
                [s.x, s.y, s.z, rho],
                [1.0, 0.5 * (s.norm_squared() - rho * rho)],
            );
        }
        let [bplus_e, bplus_r] = normal.solve_cholesky()?;

        // u = M B⁺ e, v = M B⁺ r (M = diag(1,1,1,−1)).
        let [e0, e1, e2, e3] = bplus_e;
        let [r0, r1, r2, r3] = bplus_r;
        let u = [e0, e1, e2, -e3];
        let v = [r0, r1, r2, -r3];

        // Quadratic ⟨u,u⟩Λ² + 2(⟨u,v⟩ − 1)Λ + ⟨v,v⟩ = 0.
        let qa = lorentz(&u, &u);
        let qb = 2.0 * (lorentz(&u, &v) - 1.0);
        let qc = lorentz(&v, &v);

        // At most two candidate roots.
        let roots = if qa.abs() < 1e-18 {
            if qb.abs() < 1e-30 {
                return Err(SolveError::NoRealRoot);
            }
            [Some(-qc / qb), None]
        } else {
            let disc = qb * qb - 4.0 * qa * qc;
            if disc < 0.0 {
                return Err(SolveError::NoRealRoot);
            }
            let sq = disc.sqrt();
            // Numerically stable pair of roots.
            let q = -0.5 * (qb + sq.copysign(qb));
            [Some(q / qa), (q.abs() > 0.0).then(|| qc / q)]
        };

        // Evaluate each root; keep the candidate with the smallest post-fit
        // residual (the spurious root places the receiver far from the
        // measurements' consistent geometry).
        let [u0, u1, u2, u3] = u;
        let [v0, v1, v2, v3] = v;
        let mut best: Option<(Ecef, f64, f64)> = None;
        for lambda in roots.into_iter().flatten() {
            let pos = Ecef::new(lambda * u0 + v0, lambda * u1 + v1, lambda * u2 + v2);
            let bias = lambda * u3 + v3;
            if !pos.is_finite() || !bias.is_finite() {
                continue;
            }
            let rms = Bancroft::residual_rms(measurements, pos, bias);
            if best.as_ref().is_none_or(|(_, _, best_rms)| rms < *best_rms) {
                best = Some((pos, bias, rms));
            }
        }
        match best {
            Some((pos, bias, rms)) => Ok(Solution::new(pos, Some(bias), 1, rms)),
            None => Err(SolveError::NoRealRoot),
        }
    }

    fn name(&self) -> &'static str {
        "Bancroft"
    }

    fn min_satellites(&self) -> usize {
        4
    }

    fn estimates_bias(&self) -> bool {
        true
    }

    fn clone_box(&self) -> Box<dyn crate::Solver> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PositionSolver;

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

    fn exact(truth: Ecef, bias: f64, n: usize) -> Vec<Measurement> {
        sats()
            .into_iter()
            .take(n)
            .map(|s| Measurement::new(s, s.distance_to(truth) + bias))
            .collect()
    }

    #[test]
    fn exact_recovery_with_bias() {
        let truth = Ecef::new(6.371e6, -1.0e5, 3.0e5);
        for n in [4, 5, 6] {
            for bias in [-500.0, 0.0, 777.0] {
                let fix = Bancroft::new().solve(&exact(truth, bias, n), 0.0).unwrap();
                assert!(
                    fix.position.distance_to(truth) < 1e-2,
                    "n={n} bias={bias}: err {}",
                    fix.position.distance_to(truth)
                );
                assert!((fix.receiver_bias_m.unwrap() - bias).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn agrees_with_newton_raphson_on_noisy_data() {
        let truth = Ecef::new(3.6e6, -5.2e6, 6.0e5);
        let mut meas = exact(truth, 120.0, 6);
        for (k, m) in meas.iter_mut().enumerate() {
            m.pseudorange += ((k as f64) - 2.5) * 1.5; // few-metre errors
        }
        let ban = Bancroft::new().solve(&meas, 0.0).unwrap();
        let nr = crate::NewtonRaphson::default().solve(&meas, 0.0).unwrap();
        // Both least-squares-consistent solutions land close together.
        assert!(
            ban.position.distance_to(nr.position) < 15.0,
            "disagree by {}",
            ban.position.distance_to(nr.position)
        );
    }

    #[test]
    fn rejects_too_few() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        assert_eq!(
            Bancroft::new()
                .solve(&exact(truth, 0.0, 3), 0.0)
                .unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        );
    }

    #[test]
    fn rejects_non_finite() {
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut meas = exact(truth, 0.0, 4);
        meas[0].pseudorange = f64::INFINITY;
        assert_eq!(
            Bancroft::new().solve(&meas, 0.0).unwrap_err(),
            SolveError::NonFinite
        );
    }

    #[test]
    fn degenerate_geometry_detected() {
        let s = Ecef::new(2.0e7, 0.0, 0.0);
        let meas = vec![Measurement::new(s, 1.5e7); 4];
        assert!(matches!(
            Bancroft::new().solve(&meas, 0.0).unwrap_err(),
            SolveError::DegenerateGeometry(_)
        ));
    }

    #[test]
    fn trait_metadata() {
        assert_eq!(Bancroft::new().name(), "Bancroft");
        assert_eq!(Bancroft::new().min_satellites(), 4);
    }
}
