//! The solver kernel contract: every solver's single folded kernel must
//! be **bit-for-bit** identical to an independent reference assembled
//! from the public allocating API — the materialized `linearize` system
//! and the `gps_linalg::lstsq` estimators — on every epoch shape, with
//! the same errors on the same degenerate inputs.
//!
//! * DLO: `linearize` + `lstsq::ols3`;
//! * DLG: `linearize` + `Dlg::covariance_rank1` + `lstsq::gls_rank1`
//!   (structured), or `Dlg::covariance_matrix` + `lstsq::gls_with`
//!   (dense ablation lanes);
//! * NR and Bancroft: the textbook algorithms over dense `Matrix`
//!   systems and `lstsq::ols` / `lstsq::wls`.
//!
//! Seeded xoshiro256++ loops (no proptest in the offline build).

use gps_core::{
    linearize, Bancroft, BaseSelection, CovarianceModel, Dlg, Dlo, Epoch, EpochBlock, EpochJob,
    GlsPath, LinearSystem, Measurement, NewtonRaphson, Solution, SolveContext, SolveError, Solver,
    Weighting,
};
use gps_geodesy::{Ecef, Geodetic};
use gps_linalg::lstsq::{self, GlsStrategy};
use gps_linalg::{Matrix, Vector};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

const CASES: usize = 24;

/// Satellite counts from the minimum through the large-constellation
/// regime.
const SHAPES: [usize; 9] = [4, 5, 6, 8, 12, 16, 17, 24, 40];

fn random_receiver(rng: &mut StdRng) -> Ecef {
    Geodetic::from_deg(
        rng.gen_range(-60.0..60.0),
        rng.gen_range(-179.0..179.0),
        rng.gen_range(-100.0..9_000.0),
    )
    .to_ecef()
}

fn random_epoch(rng: &mut StdRng, m: usize, bias: f64) -> Vec<Measurement> {
    let receiver = random_receiver(rng);
    let frame = gps_geodesy::LocalFrame::new(receiver);
    (0..m)
        .map(|k| {
            let jitter = rng.gen_range(0.0..1.0);
            let el: f64 = rng.gen_range(10.0..85.0).to_radians();
            let az = (k as f64 + jitter) / m as f64 * std::f64::consts::TAU;
            let range = 2.2e7;
            let enu = gps_geodesy::Enu::new(
                range * el.cos() * az.sin(),
                range * el.cos() * az.cos(),
                range * el.sin(),
            );
            let sat = frame.to_ecef(enu);
            let noise = rng.gen_range(-3.0..3.0);
            Measurement::new(sat, sat.distance_to(receiver) + bias + noise).with_elevation(el)
        })
        .collect()
}

/// Bit-level equality: `PartialEq` on f64 would accept `-0.0 == 0.0`
/// and reject `NaN == NaN`; the kernel contract is stronger than both.
fn assert_bits_eq(
    kernel: &Result<Solution, SolveError>,
    reference: &Result<Solution, SolveError>,
    what: &str,
) {
    match (kernel, reference) {
        (Ok(k), Ok(r)) => {
            assert_eq!(k.position.x.to_bits(), r.position.x.to_bits(), "{what}");
            assert_eq!(k.position.y.to_bits(), r.position.y.to_bits(), "{what}");
            assert_eq!(k.position.z.to_bits(), r.position.z.to_bits(), "{what}");
            assert_eq!(
                k.receiver_bias_m.map(f64::to_bits),
                r.receiver_bias_m.map(f64::to_bits),
                "{what}"
            );
            assert_eq!(k.iterations, r.iterations, "{what}");
            assert_eq!(k.residual_rms.to_bits(), r.residual_rms.to_bits(), "{what}");
        }
        (Err(k), Err(r)) => assert_eq!(k, r, "{what}"),
        (k, r) => panic!("{what}: kernel {k:?} vs reference {r:?}"),
    }
}

/// The direct solvers' range-normalized residual RMS (see
/// `Solution::residual_rms`), evaluated on the materialized system.
fn direct_residual_rms(sys: &LinearSystem, x: Ecef) -> f64 {
    let rows = sys.a.rows();
    let mut sum = 0.0;
    for r in 0..rows {
        let row = sys.a.row(r);
        let component = sys.d[r] - (row[0] * x.x + row[1] * x.y + row[2] * x.z);
        let j = if r < sys.base_index { r } else { r + 1 };
        let scale = sys.corrected_ranges[j].abs().max(1.0);
        sum += (component / scale).powi(2);
    }
    (sum / rows as f64).sqrt()
}

fn direct_solution(sys: &LinearSystem, x: &[f64]) -> Solution {
    let position = Ecef::new(x[0], x[1], x[2]);
    Solution::new(position, None, 1, direct_residual_rms(sys, position))
}

fn dlo_reference(
    meas: &[Measurement],
    bias: f64,
    base: BaseSelection,
) -> Result<Solution, SolveError> {
    let sys = linearize(meas, bias, base)?;
    let x = lstsq::ols3(&sys.a, &sys.d)?;
    Ok(direct_solution(&sys, &x))
}

fn dlg_reference(meas: &[Measurement], bias: f64, dlg: &Dlg) -> Result<Solution, SolveError> {
    let sys = linearize(meas, bias, BaseSelection::First)?;
    let x = match dlg.gls_path() {
        GlsPath::Structured => {
            let (rank1, diag) = dlg.covariance_rank1(&sys);
            lstsq::gls_rank1(&sys.a, &sys.d, rank1, &diag)?
        }
        GlsPath::DenseWhitened => lstsq::gls_with(
            &sys.a,
            &sys.d,
            &dlg.covariance_matrix(&sys),
            GlsStrategy::Whitened,
        )?,
        _ => lstsq::gls_with(
            &sys.a,
            &sys.d,
            &dlg.covariance_matrix(&sys),
            GlsStrategy::ExplicitInverse,
        )?,
    };
    Ok(direct_solution(&sys, x.as_slice()))
}

/// The input checks every solver starts with.
fn validate(meas: &[Measurement]) -> Result<(), SolveError> {
    if meas.len() < 4 {
        return Err(SolveError::TooFewSatellites {
            got: meas.len(),
            need: 4,
        });
    }
    if meas.iter().any(|m| !m.is_finite()) {
        return Err(SolveError::NonFinite);
    }
    Ok(())
}

/// Sum of squared NR residual functions `Pᵢ` at `(pos, bias)`.
fn residual_sum_sq(meas: &[Measurement], pos: Ecef, bias: f64) -> f64 {
    meas.iter()
        .map(|m| {
            let r = (pos - m.position).norm() - m.pseudorange + bias;
            r * r
        })
        .sum()
}

/// Newton–Raphson from the Earth's center (paper §3.4): each iteration
/// materializes the Jacobian and solves it with `lstsq::ols`, or
/// `lstsq::wls` under elevation weighting.
fn nr_reference(
    meas: &[Measurement],
    predicted: f64,
    nr: &NewtonRaphson,
) -> Result<Solution, SolveError> {
    validate(meas)?;
    let m = meas.len();
    let mut pos = Ecef::ORIGIN;
    let mut bias = if predicted != 0.0 { predicted } else { 0.0 };
    for iteration in 1..=nr.max_iterations() {
        let mut a = Matrix::zeros(m, 4);
        let mut b = Vector::zeros(m);
        for (i, s) in meas.iter().enumerate() {
            let delta = pos - s.position;
            let range = delta.norm();
            if range < 1.0 {
                return Err(SolveError::NonConvergence {
                    iterations: iteration,
                    residual: f64::INFINITY,
                });
            }
            b[i] = -(range - s.pseudorange + bias);
            a.row_mut(i)
                .copy_from_slice(&[delta.x / range, delta.y / range, delta.z / range, 1.0]);
        }
        let step = match nr.weighting() {
            Weighting::Uniform => lstsq::ols(&a, &b)?,
            _ => {
                let weights: Vec<f64> = meas
                    .iter()
                    .map(|s| {
                        s.elevation
                            .map_or(1.0, |el| (el.sin() * el.sin()).max(1e-3))
                    })
                    .collect();
                lstsq::wls(&a, &b, &weights)?
            }
        };
        pos += Ecef::new(step[0], step[1], step[2]);
        bias += step[3];
        if !pos.is_finite() || !bias.is_finite() {
            return Err(SolveError::NonConvergence {
                iterations: iteration,
                residual: f64::INFINITY,
            });
        }
        if step.norm_inf() < nr.tolerance_m() {
            let rms = (residual_sum_sq(meas, pos, bias) / m as f64).sqrt();
            return Ok(Solution::new(pos, Some(bias), iteration, rms));
        }
    }
    Err(SolveError::NonConvergence {
        iterations: nr.max_iterations(),
        residual: residual_sum_sq(meas, pos, bias).sqrt(),
    })
}

/// Bancroft's closed form: `B⁺e` and `B⁺r` by two `lstsq::ols` solves,
/// then the Lorentz quadratic and the smaller-residual root.
fn bancroft_reference(meas: &[Measurement]) -> Result<Solution, SolveError> {
    validate(meas)?;
    let m = meas.len();
    let b = Matrix::from_fn(m, 4, |i, c| {
        let s = &meas[i];
        [s.position.x, s.position.y, s.position.z, s.pseudorange][c]
    });
    let r = Vector::from_fn(m, |i| {
        let s = &meas[i];
        0.5 * (s.position.norm_squared() - s.pseudorange * s.pseudorange)
    });
    let bplus_e = lstsq::ols(&b, &Vector::from_fn(m, |_| 1.0))?;
    let bplus_r = lstsq::ols(&b, &r)?;
    let u = [bplus_e[0], bplus_e[1], bplus_e[2], -bplus_e[3]];
    let v = [bplus_r[0], bplus_r[1], bplus_r[2], -bplus_r[3]];
    let lorentz =
        |p: &[f64; 4], q: &[f64; 4]| p[0] * q[0] + p[1] * q[1] + p[2] * q[2] - p[3] * q[3];
    let (qa, qb, qc) = (
        lorentz(&u, &u),
        2.0 * (lorentz(&u, &v) - 1.0),
        lorentz(&v, &v),
    );
    let mut roots = Vec::new();
    if qa.abs() < 1e-18 {
        if qb.abs() < 1e-30 {
            return Err(SolveError::NoRealRoot);
        }
        roots.push(-qc / qb);
    } else {
        let disc = qb * qb - 4.0 * qa * qc;
        if disc < 0.0 {
            return Err(SolveError::NoRealRoot);
        }
        let q = -0.5 * (qb + disc.sqrt().copysign(qb));
        roots.push(q / qa);
        if q.abs() > 0.0 {
            roots.push(qc / q);
        }
    }
    let mut best: Option<Solution> = None;
    for lambda in roots {
        let pos = Ecef::new(
            lambda * u[0] + v[0],
            lambda * u[1] + v[1],
            lambda * u[2] + v[2],
        );
        let bias = lambda * u[3] + v[3];
        if !pos.is_finite() || !bias.is_finite() {
            continue;
        }
        let rms = {
            let sum: f64 = meas
                .iter()
                .map(|s| {
                    let e = s.pseudorange - (pos.distance_to(s.position) + bias);
                    e * e
                })
                .sum();
            (sum / m as f64).sqrt()
        };
        if best.is_none_or(|b| rms < b.residual_rms) {
            best = Some(Solution::new(pos, Some(bias), 1, rms));
        }
    }
    best.ok_or(SolveError::NoRealRoot)
}

type Reference = Box<dyn Fn(&[Measurement], f64) -> Result<Solution, SolveError>>;

/// Every solver configuration under contract, paired with its reference.
fn cases() -> Vec<(Box<dyn Solver>, Reference)> {
    let mut cases: Vec<(Box<dyn Solver>, Reference)> = Vec::new();
    for weighting in [Weighting::Uniform, Weighting::SinSquaredElevation] {
        let nr = NewtonRaphson::default().with_weighting(weighting);
        cases.push((Box::new(nr), Box::new(move |m, b| nr_reference(m, b, &nr))));
    }
    for base in [BaseSelection::First, BaseSelection::HighestElevation] {
        let dlo = Dlo::default().with_base_selection(base);
        cases.push((
            Box::new(dlo),
            Box::new(move |m, b| dlo_reference(m, b, base)),
        ));
    }
    for model in [
        CovarianceModel::Full,
        CovarianceModel::DiagonalOnly,
        CovarianceModel::Identity,
        CovarianceModel::ElevationScaled,
    ] {
        for path in [
            GlsPath::Structured,
            GlsPath::DenseWhitened,
            GlsPath::DenseExplicit,
        ] {
            let dlg = Dlg::default()
                .with_covariance_model(model)
                .with_gls_path(path);
            cases.push((
                Box::new(dlg),
                Box::new(move |m, b| dlg_reference(m, b, &dlg)),
            ));
        }
    }
    cases.push((Box::new(Bancroft), Box::new(|m, _| bancroft_reference(m))));
    cases
}

#[test]
fn every_kernel_is_bit_identical_to_its_reference() {
    for (solver, reference) in cases() {
        let mut rng = StdRng::seed_from_u64(0x57AC_0001);
        let mut ctx = SolveContext::new();
        for &m in &SHAPES {
            for _ in 0..CASES {
                let bias = rng.gen_range(-1000.0..1000.0);
                let predicted = rng.gen_range(-5.0..5.0) + bias;
                let meas = random_epoch(&mut rng, m, bias);
                let kernel = solver.solve(&Epoch::new(&meas, predicted), &mut ctx);
                assert_bits_eq(
                    &kernel,
                    &reference(&meas, predicted),
                    &format!("{} at m = {m}", solver.name()),
                );
            }
        }
    }
}

#[test]
fn kernels_match_references_on_degenerate_and_nonfinite_input() {
    for (solver, reference) in cases() {
        let mut ctx = SolveContext::new();
        let mut check = |meas: &[Measurement], predicted: f64, what: &str| {
            assert_bits_eq(
                &solver.solve(&Epoch::new(meas, predicted), &mut ctx),
                &reference(meas, predicted),
                &format!("{}: {what}", solver.name()),
            );
        };
        let mut rng = StdRng::seed_from_u64(0x57AC_0002);
        check(&random_epoch(&mut rng, 3, 0.0), 0.0, "too few satellites");

        let mut poisoned = random_epoch(&mut rng, 6, 0.0);
        poisoned[2].pseudorange = f64::NAN;
        check(&poisoned, 0.0, "NaN pseudorange");

        let receiver = random_receiver(&mut rng);
        let sat = Ecef::new(2.0e7, 1.0e6, 1.0e7);
        let collapsed: Vec<Measurement> = (0..6)
            .map(|_| Measurement::new(sat, sat.distance_to(receiver)))
            .collect();
        check(&collapsed, 0.0, "collapsed geometry");

        check(
            &random_epoch(&mut rng, 7, 25.0),
            f64::NAN,
            "NaN bias prediction",
        );

        let mut zeros = random_epoch(&mut rng, 6, 0.0);
        zeros[3].pseudorange = 0.0;
        zeros[4].pseudorange = 0.0;
        check(&zeros, 0.0, "two zero pseudoranges");
    }
}

fn solvers() -> Vec<Box<dyn Solver>> {
    cases().into_iter().map(|(solver, _)| solver).collect()
}

#[test]
fn solve_block_matches_per_epoch_solve_for_every_solver() {
    // Block feeding must be bit-identical to scalar feeding, lane by
    // lane.
    let mut rng = StdRng::seed_from_u64(0x57AC_0003);
    for solver in solvers() {
        let jobs: Vec<EpochJob> = (0..8)
            .map(|_| EpochJob::new(random_epoch(&mut rng, 6, 0.0), rng.gen_range(-5.0..5.0)))
            .collect();
        let block = EpochBlock::new(&jobs).expect("uniform shape");
        let mut ctx = SolveContext::new();
        let mut out = Vec::new();
        solver.solve_block(&block, &mut ctx, &mut out);
        assert_eq!(out.len(), jobs.len());
        for (lane, job) in jobs.iter().enumerate() {
            let scalar = solver.solve(
                &Epoch::new(&job.measurements, job.predicted_receiver_bias_m),
                &mut ctx,
            );
            assert_bits_eq(&out[lane], &scalar, solver.name());
        }
    }
}
