use std::fmt;

use gps_geodesy::{Ecef, LocalFrame};
use gps_linalg::NormalEquations;

use crate::{Measurement, SolveError};

/// Dilution-of-precision figures: how satellite geometry scales
/// measurement noise into solution noise.
///
/// Computed from the diagonal of the cofactor matrix `Q = (GᵀG)⁻¹` of
/// the standard position/time design matrix `G` (unit line-of-sight
/// vectors plus the clock column). The horizontal/vertical split uses a
/// local ENU frame at the receiver. The rows of `G` are folded straight
/// into the 4×4 normal equations and `Q`'s diagonal comes from their
/// Cholesky factor, so the cost is O(m) with no heap allocation.
///
/// # Example
///
/// ```
/// use gps_core::{Dop, Measurement};
/// use gps_geodesy::Ecef;
///
/// # fn main() -> Result<(), gps_core::SolveError> {
/// let receiver = Ecef::new(6.37e6, 0.0, 0.0);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(0.8e7, 1.4e7, 2.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(receiver)))
///     .collect();
/// let dop = Dop::compute(&meas, receiver)?;
/// assert!(dop.gdop > 1.0 && dop.gdop < 10.0);
/// assert!(dop.pdop < dop.gdop);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dop {
    /// Geometric DOP (position + time).
    pub gdop: f64,
    /// Position DOP (3-D position only).
    pub pdop: f64,
    /// Horizontal DOP.
    pub hdop: f64,
    /// Vertical DOP.
    pub vdop: f64,
    /// Time DOP.
    pub tdop: f64,
}

impl Dop {
    /// Computes DOP for a satellite set as seen from `receiver`.
    ///
    /// # Errors
    ///
    /// * [`SolveError::TooFewSatellites`] with fewer than 4 satellites.
    /// * [`SolveError::DegenerateGeometry`] if `GᵀG` is singular (not
    ///   positive definite).
    /// * [`SolveError::NonFinite`] for NaN/∞ positions, or a satellite
    ///   within a metre of the receiver.
    pub fn compute(measurements: &[Measurement], receiver: Ecef) -> Result<Dop, SolveError> {
        crate::measurement::validate(measurements, 4)?;
        if !receiver.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let frame = LocalFrame::new(receiver);
        // Design rows in ENU + clock so HDOP/VDOP read directly off Q.
        // Each row is folded into GᵀG as it is formed: no m × 4 matrix.
        let mut normal = NormalEquations::<4, 0>::new();
        for meas in measurements {
            let enu = frame.to_enu(meas.position);
            let range = (enu.east * enu.east + enu.north * enu.north + enu.up * enu.up).sqrt();
            if range < 1.0 {
                return Err(SolveError::NonFinite);
            }
            normal.add_row(
                [enu.east / range, enu.north / range, enu.up / range, 1.0],
                [],
            );
        }
        let [qe, qn, qu, qt] = normal.inverse_diagonal()?;
        Ok(Dop {
            gdop: (qe + qn + qu + qt).sqrt(),
            pdop: (qe + qn + qu).sqrt(),
            hdop: (qe + qn).sqrt(),
            vdop: qu.sqrt(),
            tdop: qt.sqrt(),
        })
    }
}

impl fmt::Display for Dop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GDOP {:.2} PDOP {:.2} HDOP {:.2} VDOP {:.2} TDOP {:.2}",
            self.gdop, self.pdop, self.hdop, self.vdop, self.tdop
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_geodesy::{Enu, Geodetic};
    use gps_linalg::Matrix;
    use gps_rng::rngs::StdRng;
    use gps_rng::{Rng, SeedableRng};

    fn receiver() -> Ecef {
        Ecef::new(6.371e6, 0.0, 0.0)
    }

    fn spread_sats() -> Vec<Measurement> {
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
        .iter()
        .map(|&s| Measurement::new(s, s.distance_to(receiver())))
        .collect()
    }

    /// The dense reference: the full m × 4 design matrix, its Gram matrix
    /// and an LU inverse.
    fn dense_reference(measurements: &[Measurement], receiver: Ecef) -> Result<Dop, SolveError> {
        crate::measurement::validate(measurements, 4)?;
        if !receiver.is_finite() {
            return Err(SolveError::NonFinite);
        }
        let frame = LocalFrame::new(receiver);
        let mut g = Matrix::zeros(measurements.len(), 4);
        for (i, meas) in measurements.iter().enumerate() {
            let enu = frame.to_enu(meas.position);
            let range = (enu.east * enu.east + enu.north * enu.north + enu.up * enu.up).sqrt();
            if range < 1.0 {
                return Err(SolveError::NonFinite);
            }
            let row = g.row_mut(i);
            row.copy_from_slice(&[enu.east / range, enu.north / range, enu.up / range, 1.0]);
        }
        let q = g.gram().inverse()?;
        let (qe, qn, qu, qt) = (q[(0, 0)], q[(1, 1)], q[(2, 2)], q[(3, 3)]);
        Ok(Dop {
            gdop: (qe + qn + qu + qt).sqrt(),
            pdop: (qe + qn + qu).sqrt(),
            hdop: (qe + qn).sqrt(),
            vdop: qu.sqrt(),
            tdop: qt.sqrt(),
        })
    }

    /// `m` satellites spread in azimuth above a receiver drawn near a
    /// mid-latitude site.
    fn random_geometry(rng: &mut StdRng, m: usize) -> (Vec<Measurement>, Ecef) {
        let receiver = Geodetic::from_deg(
            rng.gen_range(-60.0..60.0),
            rng.gen_range(-180.0..180.0),
            rng.gen_range(0.0..2_000.0),
        )
        .to_ecef();
        let frame = LocalFrame::new(receiver);
        let meas = (0..m)
            .map(|k| {
                let el: f64 = rng.gen_range(10.0..85.0_f64).to_radians();
                let az = (k as f64 + rng.gen_range(0.0..1.0)) / m as f64 * std::f64::consts::TAU;
                let range = rng.gen_range(2.0e7..2.6e7);
                let sat = frame.to_ecef(Enu::new(
                    range * el.cos() * az.sin(),
                    range * el.cos() * az.cos(),
                    range * el.sin(),
                ));
                Measurement::new(sat, sat.distance_to(receiver))
            })
            .collect();
        (meas, receiver)
    }

    /// Both computations succeed with every DOP within `1e-12` relative,
    /// or both fail with the same [`SolveError`] variant (the inner
    /// [`gps_linalg::LinalgError`] may differ: Cholesky reports a pivot
    /// where LU reports a singular matrix).
    fn assert_agrees_with_dense(meas: &[Measurement], receiver: Ecef) {
        match (
            Dop::compute(meas, receiver),
            dense_reference(meas, receiver),
        ) {
            (Ok(folded), Ok(dense)) => {
                for (name, got, want) in [
                    ("GDOP", folded.gdop, dense.gdop),
                    ("PDOP", folded.pdop, dense.pdop),
                    ("HDOP", folded.hdop, dense.hdop),
                    ("VDOP", folded.vdop, dense.vdop),
                    ("TDOP", folded.tdop, dense.tdop),
                ] {
                    assert!(
                        (got - want).abs() <= 1e-12 * want,
                        "m = {}: {name} {got} vs dense {want}",
                        meas.len()
                    );
                }
            }
            (Err(folded), Err(dense)) => assert_eq!(
                std::mem::discriminant(&folded),
                std::mem::discriminant(&dense),
                "folded {folded:?} vs dense {dense:?}"
            ),
            (folded, dense) => panic!("folded {folded:?} vs dense {dense:?}"),
        }
    }

    #[test]
    fn folded_dop_matches_the_dense_inverse() {
        let mut rng = StdRng::seed_from_u64(0xD0B_F01D);
        for m in [4, 5, 8, 12, 24, 40] {
            for _ in 0..32 {
                let (meas, receiver) = random_geometry(&mut rng, m);
                assert!(Dop::compute(&meas, receiver).is_ok(), "m = {m}");
                assert_agrees_with_dense(&meas, receiver);
            }
        }
    }

    #[test]
    fn folded_dop_fails_where_the_dense_inverse_fails() {
        let receiver = receiver();
        let sat = Ecef::new(2.0e7, 1.0e6, 1.7e7);
        let collapsed: Vec<Measurement> = (0..5)
            .map(|_| Measurement::new(sat, sat.distance_to(receiver)))
            .collect();
        let base = Ecef::new(2.0e7, 1.0e6, 1.7e7);
        let clustered: Vec<Measurement> = (0..5)
            .map(|k| {
                let s = base + Ecef::new(0.0, k as f64 * 5.0e4, k as f64 * 3.0e4);
                Measurement::new(s, s.distance_to(receiver))
            })
            .collect();
        let mut nan_range = spread_sats();
        nan_range[2].pseudorange = f64::NAN;
        let spread = spread_sats();
        let cases = [
            (clustered, receiver),
            (collapsed, receiver),
            (nan_range, receiver),
            (spread.clone(), Ecef::new(f64::NAN, 0.0, 0.0)),
            (spread.clone(), spread[0].position),
            (spread[..3].to_vec(), receiver),
        ];
        for (meas, at) in cases {
            assert!(Dop::compute(&meas, at).is_err(), "{meas:?} at {at:?}");
            assert_agrees_with_dense(&meas, at);
        }
    }

    #[test]
    fn dop_consistency_relations() {
        let dop = Dop::compute(&spread_sats(), receiver()).unwrap();
        assert!(dop.pdop <= dop.gdop);
        assert!(dop.hdop <= dop.pdop);
        assert!(dop.vdop <= dop.pdop);
        // PDOP² = HDOP² + VDOP², GDOP² = PDOP² + TDOP².
        assert!((dop.pdop.powi(2) - dop.hdop.powi(2) - dop.vdop.powi(2)).abs() < 1e-9);
        assert!((dop.gdop.powi(2) - dop.pdop.powi(2) - dop.tdop.powi(2)).abs() < 1e-9);
    }

    #[test]
    fn more_satellites_do_not_worsen_dop() {
        let all = spread_sats();
        let four = Dop::compute(&all[..4], receiver()).unwrap();
        let six = Dop::compute(&all, receiver()).unwrap();
        assert!(six.gdop <= four.gdop + 1e-9);
    }

    #[test]
    fn clustered_satellites_have_bad_dop() {
        // Satellites bunched within a small cone: geometry near-singular,
        // so GDOP is huge (or outright singular).
        let base = Ecef::new(2.0e7, 1.0e6, 1.7e7);
        let meas: Vec<Measurement> = (0..5)
            .map(|k| {
                let s = base + Ecef::new(0.0, k as f64 * 5.0e4, k as f64 * 3.0e4);
                Measurement::new(s, s.distance_to(receiver()))
            })
            .collect();
        match Dop::compute(&meas, receiver()) {
            Ok(dop) => {
                let spread = Dop::compute(&spread_sats(), receiver()).unwrap();
                assert!(dop.gdop > 5.0 * spread.gdop, "gdop {}", dop.gdop);
            }
            Err(SolveError::DegenerateGeometry(_)) => {}
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }

    #[test]
    fn rejects_too_few() {
        let meas = spread_sats();
        assert!(matches!(
            Dop::compute(&meas[..3], receiver()).unwrap_err(),
            SolveError::TooFewSatellites { got: 3, need: 4 }
        ));
    }

    #[test]
    fn display_lists_all_figures() {
        let dop = Dop::compute(&spread_sats(), receiver()).unwrap();
        let text = dop.to_string();
        for label in ["GDOP", "PDOP", "HDOP", "VDOP", "TDOP"] {
            assert!(text.contains(label));
        }
    }
}
