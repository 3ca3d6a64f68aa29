//! Kinematic position filtering for moving receivers.
//!
//! The paper's motivation (§1) is positioning objects that "move at a
//! high speed" in real time. The closed-form solvers deliver the raw
//! per-epoch fix quickly; a moving platform then usually smooths those
//! fixes through a constant-velocity Kalman filter, trading a little
//! latency-free smoothing for substantially lower noise. [`PvFilter`] is
//! that filter: a position/velocity estimator over the position fixes
//! any [`crate::Solver`] produces. [`crate::ResilientSolver`] feeds it
//! every accepted fix and coasts on its prediction in holdover.
//!
//! With isotropic process and fix noise, the three ECEF axes never
//! couple, so the filter runs as three 2-state (position, velocity)
//! filters that share one 2×2 covariance, in fixed-size values with no
//! heap allocation.

use gps_geodesy::Ecef;
use gps_linalg::LinalgError;

/// A constant-velocity (PV) Kalman filter over ECEF position fixes.
///
/// State `x = [p, v] ∈ R⁶` with dynamics `p ← p + v·dt`, white
/// acceleration process noise (spectral density `q_accel`, (m/s²)²/Hz),
/// and per-axis position measurements with variance `r_pos` (m²).
///
/// Q and R are isotropic and the initial covariance is diagonal, so the
/// 6×6 covariance stays block-diagonal with three identical 2×2 blocks:
/// the filter is exactly three per-axis filters sharing one covariance.
/// Every update performs the floating-point operations of the 6×6
/// formulation in the same order, so positions, velocities and
/// predictions are bit-identical to it.
///
/// # Example
///
/// ```
/// use gps_core::PvFilter;
/// use gps_geodesy::Ecef;
///
/// let mut filter = PvFilter::new(1.0, 25.0);
/// // Feed fixes of a receiver moving +100 m/s in x, 1 Hz:
/// for k in 0..30 {
///     let fix = Ecef::new(100.0 * k as f64, 0.0, 0.0);
///     filter.update(fix, 1.0).unwrap();
/// }
/// let v = filter.velocity().unwrap();
/// assert!((v.x - 100.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct PvFilter {
    /// Position and velocity along x, y and z.
    axes: [AxisState; 3],
    /// The covariance every axis shares.
    cov: AxisCovariance,
    /// White-acceleration spectral density, (m/s²)²/Hz.
    q_accel: f64,
    /// Position measurement variance per axis, m².
    r_pos: f64,
    initialized: bool,
}

/// One axis's position (m) and velocity (m/s).
#[derive(Debug, Clone, Copy, Default)]
struct AxisState {
    p: f64,
    v: f64,
}

/// The 2×2 covariance of one axis's (position, velocity) state.
///
/// All four entries are kept: `pv` and `vp` are equal in exact
/// arithmetic, but the `(I − KH)P` update rounds them differently and
/// the next prediction reads both.
#[derive(Debug, Clone, Copy)]
struct AxisCovariance {
    pp: f64,
    pv: f64,
    vp: f64,
    vv: f64,
}

impl AxisCovariance {
    /// `F P Fᵀ + Q` for `F = [[1, dt], [0, 1]]` and the discrete
    /// white-acceleration `Q = [[dt³/3, dt²/2], [dt²/2, dt]]·q`, each sum
    /// taken in the order the 6×6 products add their terms.
    fn predicted(self, dt: f64, q_accel: f64) -> Self {
        let AxisCovariance { pp, pv, vp, vv } = self;
        let q3 = q_accel * dt * dt * dt / 3.0;
        let q2 = q_accel * dt * dt / 2.0;
        let q1 = q_accel * dt;
        // The position row of F P.
        let (fp_pp, fp_pv) = (pp + dt * vp, pv + dt * vv);
        AxisCovariance {
            pp: fp_pp + fp_pv * dt + q3,
            pv: fp_pv + q2,
            vp: vp + vv * dt + q2,
            vv: vv + q1,
        }
    }
}

impl PvFilter {
    /// Creates a filter from the white-acceleration density
    /// (`q_accel`, (m/s²)²/Hz; ~1 for a maneuvering vehicle, ~0.01 for a
    /// cruising aircraft) and the per-axis fix variance (`r_pos`, m²).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not strictly positive.
    #[must_use]
    pub fn new(q_accel: f64, r_pos: f64) -> Self {
        assert!(q_accel > 0.0, "process noise must be positive");
        assert!(r_pos > 0.0, "measurement noise must be positive");
        PvFilter {
            axes: [AxisState::default(); 3],
            // The first fix sets the position to fix accuracy; the
            // velocity starts unknown.
            cov: AxisCovariance {
                pp: r_pos,
                pv: 0.0,
                vp: 0.0,
                vv: 1.0e6,
            },
            q_accel,
            r_pos,
            initialized: false,
        }
    }

    /// Returns `true` once at least one fix has been absorbed.
    #[must_use]
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// Current position estimate, or `None` before initialization.
    #[must_use]
    pub fn position(&self) -> Option<Ecef> {
        let [x, y, z] = self.axes;
        self.initialized.then(|| Ecef::new(x.p, y.p, z.p))
    }

    /// Current velocity estimate (m/s), or `None` before initialization.
    #[must_use]
    pub fn velocity(&self) -> Option<Ecef> {
        let [x, y, z] = self.axes;
        self.initialized.then(|| Ecef::new(x.v, y.v, z.v))
    }

    /// Predicts the position `dt` seconds ahead without mutating the
    /// filter, or `None` before initialization.
    #[must_use]
    pub fn predict_position(&self, dt: f64) -> Option<Ecef> {
        self.position()
            .zip(self.velocity())
            .map(|(p, v)| p + v * dt)
    }

    /// Absorbs one position fix taken `dt` seconds after the previous one.
    ///
    /// The first call initializes the position states directly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NonFinite`] or
    /// [`LinalgError::NotPositiveDefinite`] if the innovation variance is
    /// not a positive finite number (cannot happen with valid `r_pos` and
    /// a finite `dt`, kept for robustness). The state has then been
    /// predicted but not corrected.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive or `fix` is non-finite.
    // lint: no_alloc
    pub fn update(&mut self, fix: Ecef, dt: f64) -> Result<(), LinalgError> {
        assert!(dt > 0.0, "dt must be positive");
        assert!(fix.is_finite(), "fix must be finite");
        if !self.initialized {
            self.axes = [fix.x, fix.y, fix.z].map(|p| AxisState { p, v: 0.0 });
            self.initialized = true;
            return Ok(());
        }

        // --- Predict: x ← F x, P ← F P Fᵀ + Q ---
        for axis in &mut self.axes {
            axis.p += dt * axis.v;
        }
        self.cov = self.cov.predicted(dt, self.q_accel);

        // --- Update with H = [1 0] per axis ---
        // S = H P Hᵀ + R, K = P Hᵀ S⁻¹. The 6×6 filter solves S's
        // Cholesky factor diag(√s) forward and back, dividing by √s twice.
        let AxisCovariance { pp, pv, vp, vv } = self.cov;
        let s = pp + self.r_pos;
        if !s.is_finite() {
            return Err(LinalgError::NonFinite);
        }
        if s <= 0.0 {
            return Err(LinalgError::NotPositiveDefinite { pivot: 0 });
        }
        let root = s.sqrt();
        let gain_p = pp / root / root;
        let gain_v = vp / root / root;
        for (axis, measured) in self.axes.iter_mut().zip([fix.x, fix.y, fix.z]) {
            let innovation = measured - axis.p;
            axis.p += gain_p * innovation;
            axis.v += gain_v * innovation;
        }
        // P ← (I − K H) P.
        self.cov = AxisCovariance {
            pp: (1.0 - gain_p) * pp,
            pv: (1.0 - gain_p) * pv,
            vp: vp - gain_v * pp,
            vv: vv - gain_v * pv,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_linalg::{Matrix, Vector};
    use gps_rng::rngs::StdRng;
    use gps_rng::{Rng, SeedableRng};

    /// The textbook 6×6 formulation on heap matrices: the reference the
    /// per-axis filter must match bit for bit.
    struct Reference6x6 {
        state: Vector,
        p: Matrix,
        q_accel: f64,
        r_pos: f64,
        initialized: bool,
    }

    impl Reference6x6 {
        fn new(q_accel: f64, r_pos: f64) -> Self {
            Reference6x6 {
                state: Vector::zeros(6),
                p: Matrix::identity(6).scaled(1e12),
                q_accel,
                r_pos,
                initialized: false,
            }
        }

        fn position(&self) -> Ecef {
            Ecef::new(self.state[0], self.state[1], self.state[2])
        }

        fn velocity(&self) -> Ecef {
            Ecef::new(self.state[3], self.state[4], self.state[5])
        }

        fn update(&mut self, fix: Ecef, dt: f64) -> Result<(), LinalgError> {
            if !self.initialized {
                self.state = Vector::from_slice(&[fix.x, fix.y, fix.z, 0.0, 0.0, 0.0]);
                self.p = Matrix::from_diagonal(&[
                    self.r_pos, self.r_pos, self.r_pos, 1.0e6, 1.0e6, 1.0e6,
                ]);
                self.initialized = true;
                return Ok(());
            }
            let mut f = Matrix::identity(6);
            for axis in 0..3 {
                f[(axis, axis + 3)] = dt;
            }
            self.state = f.matvec(&self.state)?;
            let fp = f.matmul(&self.p)?;
            let mut p_pred = fp.matmul(&f.transpose())?;
            let q3 = self.q_accel * dt * dt * dt / 3.0;
            let q2 = self.q_accel * dt * dt / 2.0;
            let q1 = self.q_accel * dt;
            for axis in 0..3 {
                p_pred[(axis, axis)] += q3;
                p_pred[(axis, axis + 3)] += q2;
                p_pred[(axis + 3, axis)] += q2;
                p_pred[(axis + 3, axis + 3)] += q1;
            }
            self.p = p_pred;
            let s = Matrix::from_fn(3, 3, |r, c| {
                self.p[(r, c)] + if r == c { self.r_pos } else { 0.0 }
            });
            let s_chol = gps_linalg::Cholesky::new(&s)?;
            let p_ht = Matrix::from_fn(6, 3, |r, c| self.p[(r, c)]);
            let k = s_chol.solve_matrix(&p_ht.transpose())?.transpose();
            let innovation = Vector::from_slice(&[
                fix.x - self.state[0],
                fix.y - self.state[1],
                fix.z - self.state[2],
            ]);
            let correction = k.matvec(&innovation)?;
            self.state = &self.state + &correction;
            let mut kh = Matrix::zeros(6, 6);
            for r in 0..6 {
                for c in 0..3 {
                    kh[(r, c)] = k[(r, c)];
                }
            }
            let i_kh = &Matrix::identity(6) - &kh;
            self.p = i_kh.matmul(&self.p)?;
            Ok(())
        }
    }

    fn bits(e: Ecef) -> [u64; 3] {
        [e.x.to_bits(), e.y.to_bits(), e.z.to_bits()]
    }

    /// Feeds `fixes` (each with the gap since the previous one) to both
    /// filters and compares every observable after every update.
    fn assert_matches_reference(q_accel: f64, r_pos: f64, fixes: &[(Ecef, f64)]) {
        let mut filter = PvFilter::new(q_accel, r_pos);
        let mut reference = Reference6x6::new(q_accel, r_pos);
        for (k, &(fix, dt)) in fixes.iter().enumerate() {
            let got = filter.update(fix, dt);
            let want = reference.update(fix, dt);
            let at = format!("q {q_accel}, r {r_pos}, update {k}, dt {dt}");
            assert_eq!(got, want, "{at}");
            let (position, velocity) = (filter.position().unwrap(), filter.velocity().unwrap());
            assert_eq!(bits(position), bits(reference.position()), "{at}");
            assert_eq!(bits(velocity), bits(reference.velocity()), "{at}");
            for ahead in [0.5, 1.0, 7.0, 30.0] {
                assert_eq!(
                    bits(filter.predict_position(ahead).unwrap()),
                    bits(reference.position() + reference.velocity() * ahead),
                    "{at}, {ahead} s ahead"
                );
            }
        }
    }

    /// A receiver on a seeded random walk in velocity, observed with
    /// ±`noise` m fix errors every `dt` seconds, with one `gap`-second
    /// outage half way.
    fn seeded_stream(seed: u64, dt: f64, gap: f64, noise: f64) -> Vec<(Ecef, f64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut truth = Ecef::new(-2.7e6, 4.3e6, 3.9e6);
        let mut velocity = Ecef::new(30.0, -12.0, 4.0);
        (0..120)
            .map(|k| {
                let step = if k == 60 { gap } else { dt };
                velocity += Ecef::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                );
                truth += velocity * step;
                let error = Ecef::new(
                    rng.gen_range(-noise..noise),
                    rng.gen_range(-noise..noise),
                    rng.gen_range(-noise..noise),
                );
                (truth + error, step)
            })
            .collect()
    }

    #[test]
    fn per_axis_filter_matches_the_6x6_reference_bit_for_bit() {
        let mut seed = 0x6A6A_0001;
        for (q_accel, r_pos) in [(1.0, 25.0), (0.01, 100.0), (10.0, 4.0)] {
            for dt in [0.5, 1.0, 30.0] {
                seed += 1;
                assert_matches_reference(q_accel, r_pos, &seeded_stream(seed, dt, 7.0 * dt, 8.0));
            }
        }
    }

    #[test]
    fn per_axis_filter_matches_the_reference_on_exact_axes_and_failures() {
        // Fixes exactly on the x axis keep y and z at zero, which exposes
        // any difference in the sign of a zero.
        let on_axis: Vec<(Ecef, f64)> = (0..40)
            .map(|k| (Ecef::new(100.0 * k as f64, 0.0, 0.0), 1.0))
            .collect();
        assert_matches_reference(1.0, 25.0, &on_axis);
        // A gap so long that the process noise overflows: both filters
        // predict, then refuse the correction with the same error, on
        // this update and every later one.
        let mut overflow = seeded_stream(0x6A6A_0100, 1.0, 3.0, 5.0);
        overflow.truncate(30);
        let last = overflow[29].0;
        overflow.push((last, 1.0e110));
        overflow.extend([(last, 1.0); 3]);
        assert_matches_reference(1.0, 25.0, &overflow);
        let mut filter = PvFilter::new(1.0, 25.0);
        let refused = overflow
            .iter()
            .map(|&(fix, dt)| filter.update(fix, dt))
            .filter(|outcome| *outcome == Err(LinalgError::NonFinite))
            .count();
        assert_eq!(refused, 4, "the overflowing gap and every update after it");
    }

    #[test]
    fn initialization_from_first_fix() {
        let mut f = PvFilter::new(1.0, 25.0);
        assert!(!f.is_initialized());
        assert!(f.position().is_none());
        assert!(f.velocity().is_none());
        f.update(Ecef::new(1.0, 2.0, 3.0), 1.0).unwrap();
        assert!(f.is_initialized());
        assert_eq!(f.position().unwrap(), Ecef::new(1.0, 2.0, 3.0));
        assert_eq!(f.velocity().unwrap(), Ecef::ORIGIN);
    }

    #[test]
    fn learns_constant_velocity() {
        let mut f = PvFilter::new(0.1, 25.0);
        for k in 0..60 {
            let truth = Ecef::new(50.0 * k as f64, -20.0 * k as f64, 5.0 * k as f64);
            f.update(truth, 1.0).unwrap();
        }
        let v = f.velocity().unwrap();
        assert!((v.x - 50.0).abs() < 2.0, "vx {}", v.x);
        assert!((v.y + 20.0).abs() < 2.0, "vy {}", v.y);
        assert!((v.z - 5.0).abs() < 2.0, "vz {}", v.z);
    }

    #[test]
    fn smooths_noisy_fixes() {
        // Static receiver, ±10 m alternating noise: the filtered position
        // must beat the raw fixes.
        let truth = Ecef::new(6.371e6, 0.0, 0.0);
        let mut f = PvFilter::new(0.01, 100.0);
        let mut filtered_err = 0.0;
        let mut raw_err = 0.0;
        let mut count = 0;
        for k in 0..200 {
            let noise = if k % 2 == 0 { 10.0 } else { -10.0 };
            let fix = truth + Ecef::new(noise, -noise, noise * 0.5);
            f.update(fix, 1.0).unwrap();
            if k >= 20 {
                filtered_err += f.position().unwrap().distance_to(truth);
                raw_err += fix.distance_to(truth);
                count += 1;
            }
        }
        assert!(
            filtered_err / f64::from(count) < 0.3 * raw_err / f64::from(count),
            "filtered {filtered_err} vs raw {raw_err}"
        );
    }

    #[test]
    fn prediction_extrapolates_velocity() {
        let mut f = PvFilter::new(0.1, 1.0);
        for k in 0..40 {
            f.update(Ecef::new(10.0 * k as f64, 0.0, 0.0), 1.0).unwrap();
        }
        let ahead = f.predict_position(5.0).unwrap();
        let now = f.position().unwrap();
        assert!((ahead.x - now.x - 50.0).abs() < 5.0);
    }

    #[test]
    fn tracks_maneuver_with_high_process_noise() {
        let mut f = PvFilter::new(10.0, 25.0);
        // Constant velocity then a turn.
        let mut pos = Ecef::ORIGIN;
        for _ in 0..30 {
            pos += Ecef::new(100.0, 0.0, 0.0);
            f.update(pos, 1.0).unwrap();
        }
        for _ in 0..30 {
            pos += Ecef::new(0.0, 100.0, 0.0);
            f.update(pos, 1.0).unwrap();
        }
        let v = f.velocity().unwrap();
        assert!(v.y > 80.0, "vy {} after the turn", v.y);
        assert!(v.x < 20.0, "vx {} after the turn", v.x);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_non_positive_dt() {
        let mut f = PvFilter::new(1.0, 1.0);
        f.update(Ecef::ORIGIN, 0.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_non_finite_fix() {
        let mut f = PvFilter::new(1.0, 1.0);
        f.update(Ecef::new(f64::NAN, 0.0, 0.0), 1.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "process noise")]
    fn rejects_bad_parameters() {
        let _ = PvFilter::new(0.0, 1.0);
    }
}
