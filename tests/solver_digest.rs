//! Golden digest of every solver outcome.
//!
//! Seeded epochs at m ∈ {4, 5, 6, 8, 12, 16, 17, 24, 40}, plus the
//! degenerate inputs the solver contract cares about, are fed through
//! every solver configuration, once per epoch via `Solver::solve` and
//! once in blocks of `BLOCK_LANES` via `Solver::solve_block`. Each
//! outcome, the solution's bit patterns or the error, is folded into one
//! FNV-1a digest. A kernel rewrite that claims to keep every
//! floating-point operation in order must leave `GOLDEN` unchanged; a
//! deliberate change of the numbers must update it and say why.

use gps_repro::core::{
    Bancroft, BaseSelection, CovarianceModel, Dlg, Dlo, Epoch, EpochBlock, EpochJob, GlsPath,
    Measurement, NewtonRaphson, Solution, SolveContext, SolveError, Solver, Weighting, BLOCK_LANES,
};
use gps_repro::geodesy::{Ecef, Enu, Geodetic, LocalFrame};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};
use gps_telemetry::journal::fnv1a_words;

/// The digest of every outcome below, recorded from the solvers as they
/// stood before the single-kernel rewrite.
const GOLDEN: u64 = 0x4a88_4f92_8db1_cb71;

const SHAPES: [usize; 9] = [4, 5, 6, 8, 12, 16, 17, 24, 40];

/// Receivers are drawn within about a degree of this site (latitude,
/// longitude), so the warm NR configuration below genuinely starts near
/// every fix.
const SITE_DEG: (f64, f64) = (35.3, -120.7);

fn site() -> Ecef {
    Geodetic::from_deg(SITE_DEG.0, SITE_DEG.1, 120.0).to_ecef()
}

fn random_epoch(rng: &mut StdRng, m: usize, bias: f64) -> Vec<Measurement> {
    let receiver = Geodetic::from_deg(
        SITE_DEG.0 + rng.gen_range(-1.0..1.0),
        SITE_DEG.1 + rng.gen_range(-1.0..1.0),
        rng.gen_range(-100.0..3_000.0),
    )
    .to_ecef();
    let frame = LocalFrame::new(receiver);
    (0..m)
        .map(|k| {
            let jitter = rng.gen_range(0.0..1.0);
            let el: f64 = rng.gen_range(10.0..85.0).to_radians();
            let az = (k as f64 + jitter) / m as f64 * std::f64::consts::TAU;
            let range = rng.gen_range(2.0e7..2.6e7);
            let sat = frame.to_ecef(Enu::new(
                range * el.cos() * az.sin(),
                range * el.cos() * az.cos(),
                range * el.sin(),
            ));
            let noise = rng.gen_range(-3.0..3.0);
            Measurement::new(sat, sat.distance_to(receiver) + bias + noise).with_elevation(el)
        })
        .collect()
}

/// Every solver configuration the digest covers.
fn solvers() -> Vec<Box<dyn Solver>> {
    let mut solvers: Vec<Box<dyn Solver>> = vec![
        Box::new(NewtonRaphson::default()),
        Box::new(NewtonRaphson::default().with_weighting(Weighting::SinSquaredElevation)),
        Box::new(NewtonRaphson::new(1, 1e-4)),
        Box::new(NewtonRaphson::default().with_initial(site(), 150.0)),
    ];
    for base in [
        BaseSelection::First,
        BaseSelection::HighestElevation,
        BaseSelection::LowestElevation,
        BaseSelection::ShortestRange,
        BaseSelection::BestConditioned,
    ] {
        solvers.push(Box::new(Dlo::default().with_base_selection(base)));
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
            solvers.push(Box::new(
                Dlg::default()
                    .with_covariance_model(model)
                    .with_gls_path(path),
            ));
        }
    }
    solvers.push(Box::new(Bancroft));
    solvers
}

/// Clean epochs: `2 * BLOCK_LANES` per shape, so every shape fills two
/// whole blocks.
fn clean_jobs() -> Vec<EpochJob> {
    let mut rng = StdRng::seed_from_u64(0xD16E_5701);
    let mut jobs = Vec::new();
    for &m in &SHAPES {
        for _ in 0..2 * BLOCK_LANES {
            let bias = rng.gen_range(-400.0..400.0);
            let predicted = bias + rng.gen_range(-5.0..5.0);
            jobs.push(EpochJob::new(random_epoch(&mut rng, m, bias), predicted));
        }
    }
    jobs
}

/// The inputs that must fail (or, for some solvers, survive) in exactly
/// the same way: too few satellites, a NaN pseudorange, collapsed
/// geometry, a NaN bias prediction and two zero pseudoranges (DLG's
/// d ≤ 0 covariance guard).
fn error_jobs() -> Vec<EpochJob> {
    let mut rng = StdRng::seed_from_u64(0xD16E_5702);
    let short = random_epoch(&mut rng, 3, 0.0);
    let mut poisoned = random_epoch(&mut rng, 6, 0.0);
    poisoned[2].pseudorange = f64::NAN;
    let receiver = site();
    let sat = Ecef::new(2.0e7, 1.0e6, 1.0e7);
    let collapsed: Vec<Measurement> = (0..6)
        .map(|_| Measurement::new(sat, sat.distance_to(receiver)))
        .collect();
    let clean = random_epoch(&mut rng, 7, 25.0);
    let mut zeros = random_epoch(&mut rng, 6, 0.0);
    zeros[3].pseudorange = 0.0;
    zeros[4].pseudorange = 0.0;
    vec![
        EpochJob::new(short, 0.0),
        EpochJob::new(poisoned, 0.0),
        EpochJob::new(collapsed, 0.0),
        EpochJob::new(clean, f64::NAN),
        EpochJob::new(zeros, 0.0),
    ]
}

/// Words identifying one outcome exactly: the solution's bit patterns,
/// or the error's code and payload.
fn outcome_words(outcome: &Result<Solution, SolveError>) -> Vec<u64> {
    match outcome {
        Ok(fix) => vec![
            0,
            fix.position.x.to_bits(),
            fix.position.y.to_bits(),
            fix.position.z.to_bits(),
            fix.receiver_bias_m.map_or(u64::MAX, f64::to_bits),
            fix.iterations as u64,
            fix.residual_rms.to_bits(),
        ],
        Err(e) => {
            let mut words = vec![1, u64::from(e.code())];
            match e {
                SolveError::TooFewSatellites { got, need } => {
                    words.extend([*got as u64, *need as u64]);
                }
                SolveError::NonConvergence {
                    iterations,
                    residual,
                } => words.extend([*iterations as u64, residual.to_bits()]),
                SolveError::DegenerateGeometry(inner) => {
                    words.extend(format!("{inner:?}").bytes().map(u64::from));
                }
                _ => {}
            }
            words
        }
    }
}

fn digest_all() -> (u64, usize) {
    let clean = clean_jobs();
    let errors = error_jobs();
    let mut hash = 0;
    let mut outcomes = 0;
    let mut fold = |outcome: &Result<Solution, SolveError>| {
        hash = fnv1a_words(hash, &outcome_words(outcome));
        outcomes += 1;
    };
    for solver in solvers() {
        let mut ctx = SolveContext::new();
        for job in clean.iter().chain(&errors) {
            let epoch = Epoch::new(&job.measurements, job.predicted_receiver_bias_m);
            fold(&solver.solve(&epoch, &mut ctx));
        }
        let mut out = Vec::new();
        for stream in [clean.as_slice(), errors.as_slice()] {
            let mut rest = stream;
            while let Some((block, tail)) = EpochBlock::split_first(rest, BLOCK_LANES) {
                out.clear();
                solver.solve_block(&block, &mut ctx, &mut out);
                assert_eq!(out.len(), block.lanes(), "{}", solver.name());
                out.iter().for_each(&mut fold);
                rest = tail;
            }
        }
    }
    (hash, outcomes)
}

#[test]
fn every_solver_outcome_matches_the_golden_digest() {
    let (digest, outcomes) = digest_all();
    let per_solver = 2 * (SHAPES.len() * 2 * BLOCK_LANES + 5);
    assert_eq!(outcomes, solvers().len() * per_solver);
    assert_eq!(
        digest, GOLDEN,
        "solver outcomes changed: digest {digest:#018x} over {outcomes} outcomes"
    );
}
