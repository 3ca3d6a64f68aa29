//! Graceful degradation around the paper's solver stack.
//!
//! The closed-form DLO/DLG solvers buy their speed by trusting two
//! inputs — the predicted clock bias (eq. 4-1) and the differenced base
//! equation (eq. 4-7/4-8) — that are exactly what a receiver loses first
//! under signal faults. [`ResilientSolver`] keeps producing *some*
//! usable output when that trust breaks, by trading accuracy away in
//! explicit, observable steps instead of failing the epoch:
//!
//! 1. **Sanitization** — non-finite measurements are removed up front
//!    (a decoder bug must not take down the whole epoch);
//! 2. **Degradation ladder** — DLG → DLO → NR → Bancroft: the optimal
//!    estimator first, the prediction-free iterative solver and the
//!    algebraic closed form as fallbacks;
//! 3. **Validation gates** — every candidate fix must pass a residual
//!    RMS ceiling, a GDOP ceiling ([`Dop`]) and a position-innovation
//!    test against the kinematic model before it is believed;
//! 4. **RAIM retry** — a rung whose residual gate fires is retried
//!    through [`Raim`] fault exclusion while redundancy lasts;
//! 5. **Bounded holdover** — when no rung produces an acceptable fix,
//!    the last good state is propagated through the [`PvFilter`]
//!    kinematic model for a bounded number of epochs, flagged
//!    [`FixQuality::Holdover`].
//!
//! The result is a [`FixQuality`]-annotated [`ResilientFix`] instead of
//! an all-or-nothing `Result`: callers learn *how much* to trust the
//! output, and an availability report can distinguish nominal, degraded
//! and holdover epochs (see `gps-sim`'s `fault_campaign`).

use std::fmt;

use gps_geodesy::Ecef;
use gps_telemetry::recorder::{self, RecordKind};
use gps_telemetry::{Event, Level};

use crate::instrument;
use crate::{
    Bancroft, Dlg, Dlo, Dop, Epoch, Measurement, NewtonRaphson, PvFilter, Raim, Solution,
    SolveContext, SolveError, Solver,
};

/// How much a [`ResilientFix`] should be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FixQuality {
    /// The first-choice solver passed every gate on the full measurement
    /// set: full accuracy.
    Nominal,
    /// A usable measurement fix, but something had to give: a fallback
    /// rung produced it, RAIM excluded satellites, non-finite
    /// measurements were dropped, or the clock prediction disagreed with
    /// the solved bias.
    Degraded,
    /// No acceptable measurement fix this epoch: the position is the
    /// kinematic model's propagation of the last good state.
    Holdover,
}

impl FixQuality {
    /// Stable lowercase label for reports and telemetry.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FixQuality::Nominal => "nominal",
            FixQuality::Degraded => "degraded",
            FixQuality::Holdover => "holdover",
        }
    }

    /// Compact wire code for flight-recorder records (0 is reserved
    /// for "no fix").
    #[must_use]
    pub fn code(self) -> u16 {
        match self {
            FixQuality::Nominal => 1,
            FixQuality::Degraded => 2,
            FixQuality::Holdover => 3,
        }
    }

    /// Name for a [`FixQuality::code`] read back from a flight-recorder
    /// dump; `None` for unknown codes.
    #[must_use]
    pub fn code_name(code: u16) -> Option<&'static str> {
        match code {
            0 => Some("no_fix"),
            1 => Some("nominal"),
            2 => Some("degraded"),
            3 => Some("holdover"),
            _ => None,
        }
    }
}

impl fmt::Display for FixQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A quality-annotated position fix from [`ResilientSolver::solve_epoch`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientFix {
    /// Estimated (or, in holdover, propagated) receiver position.
    pub position: Ecef,
    /// How much to trust it.
    pub quality: FixQuality,
    /// Which ladder rung produced it (`"DLG"`, `"DLO"`, `"NR"`,
    /// `"Bancroft"`) or `"holdover"`.
    pub source: &'static str,
    /// Indices (into the *original* measurement slice) excluded by the
    /// RAIM retry.
    pub excluded: Vec<usize>,
    /// Non-finite measurements removed before solving.
    pub dropped_non_finite: usize,
    /// Residual RMS of the accepted solve, metres (`None` in holdover).
    pub residual_rms: Option<f64>,
    /// GDOP of the satellite set behind the accepted solve (`None` in
    /// holdover).
    pub gdop: Option<f64>,
    /// Receiver range bias estimated by the accepted rung, if it solves
    /// for one (NR, Bancroft).
    pub receiver_bias_m: Option<f64>,
}

/// Per-epoch solution validation thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationGates {
    /// Residual-RMS ceiling, metres: above this the fix is inconsistent
    /// with its own measurements (default 15 m ≈ 3× the single-frequency
    /// noise budget).
    pub max_residual_rms_m: f64,
    /// GDOP ceiling: above this the geometry amplifies noise too much to
    /// trust the fix (default 15).
    pub max_gdop: f64,
    /// Allowed disagreement between a rung's *solved* receiver bias and
    /// the external clock prediction, metres (default 150 m ≈ 500 ns).
    /// Firing marks the fix degraded — the solved bias wins, but the
    /// prediction the direct solvers trusted is evidently stale.
    pub max_clock_innovation_m: f64,
    /// Allowed jump between the kinematic model's predicted position and
    /// a candidate fix, metres (default 500 m). Rejects fixes the
    /// receiver could not physically have reached.
    pub max_position_innovation_m: f64,
}

impl Default for ValidationGates {
    fn default() -> Self {
        ValidationGates {
            max_residual_rms_m: 15.0,
            max_gdop: 15.0,
            max_clock_innovation_m: 150.0,
            max_position_innovation_m: 500.0,
        }
    }
}

/// The graceful-degradation pipeline: ladder + gates + RAIM retry +
/// bounded holdover. See the [module docs](self) for the design.
///
/// The solver is stateful (kinematic filter, holdover budget) — use one
/// instance per receiver track and feed epochs in time order.
///
/// # Example
///
/// ```
/// use gps_core::{FixQuality, Measurement, ResilientSolver};
/// use gps_geodesy::Ecef;
///
/// let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
/// let sats = [
///     Ecef::new(2.0e7, 0.0, 1.7e7),
///     Ecef::new(1.5e7, 1.8e7, 0.9e7),
///     Ecef::new(1.6e7, -1.7e7, 1.0e7),
///     Ecef::new(2.5e7, 0.4e7, -0.6e7),
///     Ecef::new(1.9e7, 0.9e7, 1.6e7),
///     Ecef::new(0.8e7, 1.4e7, 2.0e7),
/// ];
/// let meas: Vec<Measurement> = sats
///     .iter()
///     .map(|&s| Measurement::new(s, s.distance_to(truth)))
///     .collect();
/// let mut solver = ResilientSolver::new();
/// let fix = solver.solve_epoch(&meas, 0.0, 1.0).unwrap();
/// assert_eq!(fix.quality, FixQuality::Nominal);
/// assert!(fix.position.distance_to(truth) < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ResilientSolver {
    /// Degradation ladder, walked in order until a rung's fix passes the
    /// gates. Default: DLG → DLO → NR → Bancroft.
    ladder: Vec<Box<dyn Solver>>,
    /// Reusable scratch for every rung (and its RAIM retry).
    ctx: SolveContext,
    gates: ValidationGates,
    /// Residual-RMS threshold handed to the RAIM retry, metres.
    raim_threshold_m: f64,
    /// Exclusion budget of the RAIM retry.
    max_raim_exclusions: usize,
    /// Consecutive holdover epochs allowed before the solver reports an
    /// outage.
    max_holdover_epochs: usize,
    filter: PvFilter,
    holdover_used: usize,
    /// Seconds since the filter last absorbed a real fix.
    since_fix_s: f64,
    /// The epoch's finite measurements, refilled every epoch.
    clean: Vec<Measurement>,
    /// Index of each `clean` measurement in the caller's slice.
    original_index: Vec<usize>,
    /// The measurements a RAIM retry kept, for re-validation.
    kept: Vec<Measurement>,
}

impl Default for ResilientSolver {
    fn default() -> Self {
        ResilientSolver::new()
    }
}

impl ResilientSolver {
    /// Creates the pipeline with default solvers, gates, a 10 m RAIM
    /// threshold (2 exclusions), a 5-epoch holdover budget and a
    /// static-receiver kinematic model.
    #[must_use]
    pub fn new() -> Self {
        ResilientSolver {
            ladder: vec![
                Box::new(Dlg::default()),
                Box::new(Dlo::default()),
                Box::new(NewtonRaphson::default()),
                Box::new(Bancroft),
            ],
            ctx: SolveContext::new(),
            gates: ValidationGates::default(),
            raim_threshold_m: 10.0,
            max_raim_exclusions: 2,
            max_holdover_epochs: 5,
            filter: PvFilter::new(1.0, 25.0),
            holdover_used: 0,
            since_fix_s: 0.0,
            clean: Vec::new(),
            original_index: Vec::new(),
            kept: Vec::new(),
        }
    }

    /// Replaces the degradation ladder. Rungs are tried in order; rung 0
    /// is the only one that can produce a [`FixQuality::Nominal`] fix.
    ///
    /// # Panics
    ///
    /// Panics if `ladder` is empty.
    #[must_use]
    pub fn with_ladder(mut self, ladder: Vec<Box<dyn Solver>>) -> Self {
        assert!(!ladder.is_empty(), "ladder must have at least one rung");
        self.ladder = ladder;
        self
    }

    /// Replaces the validation gates.
    #[must_use]
    pub fn with_gates(mut self, gates: ValidationGates) -> Self {
        self.gates = gates;
        self
    }

    /// Sets the RAIM retry threshold (metres) and exclusion budget.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_m` is not strictly positive (same contract
    /// as [`Raim::new`]).
    #[must_use]
    pub fn with_raim(mut self, threshold_m: f64, max_exclusions: usize) -> Self {
        assert!(threshold_m > 0.0, "threshold must be positive");
        self.raim_threshold_m = threshold_m;
        self.max_raim_exclusions = max_exclusions;
        self
    }

    /// Sets how many consecutive epochs may be bridged by holdover.
    #[must_use]
    pub fn with_max_holdover(mut self, epochs: usize) -> Self {
        self.max_holdover_epochs = epochs;
        self
    }

    /// Replaces the kinematic model (process noise / fix variance).
    #[must_use]
    pub fn with_kinematics(mut self, filter: PvFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Consecutive holdover epochs currently spent.
    #[must_use]
    pub fn holdover_used(&self) -> usize {
        self.holdover_used
    }

    /// Produces the best available quality-annotated fix for one epoch.
    ///
    /// `predicted_receiver_bias_m` is the external clock prediction the
    /// direct solvers consume (eq. 4-4); `dt_s` is the time since the
    /// previous call (used by the kinematic model).
    ///
    /// # Errors
    ///
    /// Returns the first ladder rung's error only when every rung fails
    /// *and* holdover is unavailable (never initialized) or exhausted
    /// (`max_holdover_epochs` consecutive misses).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not strictly positive.
    pub fn solve_epoch(
        &mut self,
        measurements: &[Measurement],
        predicted_receiver_bias_m: f64,
        dt_s: f64,
    ) -> Result<ResilientFix, SolveError> {
        assert!(dt_s > 0.0, "dt must be positive");
        self.since_fix_s += dt_s;

        // 1. Sanitize: a NaN pseudorange must cost one satellite, not
        // the epoch. Remember original indices for exclusion reporting.
        self.clean.clear();
        self.original_index.clear();
        for (i, m) in measurements.iter().enumerate() {
            if m.is_finite() {
                self.clean.push(*m);
                self.original_index.push(i);
            }
        }
        let dropped_non_finite = measurements.len() - self.clean.len();

        // 2-4. The ladder, with gates and RAIM retry per rung. The walk
        // is generic: every rung is a `&dyn Solver`, so adding or
        // reordering solvers never touches this loop.
        let cfg = RungConfig {
            gates: &self.gates,
            filter: &self.filter,
            since_fix_s: self.since_fix_s,
            raim_threshold_m: self.raim_threshold_m,
            max_raim_exclusions: self.max_raim_exclusions,
        };
        let mut first_error: Option<SolveError> = None;
        let mut accepted: Option<(Passed, &'static str, usize)> = None;
        for (rung, solver) in self.ladder.iter().enumerate() {
            let name = solver.name();
            match attempt(
                solver.as_ref(),
                &self.clean,
                predicted_receiver_bias_m,
                &cfg,
                &mut self.ctx,
                &mut self.kept,
            ) {
                Ok(mut passed) => {
                    // Report exclusions against the caller's slice.
                    for k in &mut passed.excluded {
                        *k = self.original_index[*k];
                    }
                    accepted = Some((passed, name, rung));
                    break;
                }
                Err(e) => {
                    if gps_telemetry::enabled(Level::Debug) {
                        Event::new(Level::Debug, "core.resilient", "rung failed")
                            .with("rung", name)
                            .with("error", e.to_string())
                            .emit();
                    }
                    first_error.get_or_insert(e);
                }
            }
        }

        if let Some((passed, source, rung)) = accepted {
            let Passed {
                solution,
                gdop,
                excluded,
            } = passed;
            // Clock innovation: rungs that solve their own bias expose a
            // stale predictor. The fix stands, but only as degraded.
            let clock_innovation_fired = solution.receiver_bias_m.is_some_and(|bias| {
                (bias - predicted_receiver_bias_m).abs() > self.gates.max_clock_innovation_m
            });
            if clock_innovation_fired && gps_telemetry::enabled(Level::Warn) {
                Event::new(Level::Warn, "core.resilient", "clock innovation limit")
                    .with("solved_bias_m", solution.receiver_bias_m.unwrap_or(0.0))
                    .with("predicted_bias_m", predicted_receiver_bias_m)
                    .emit();
            }
            let quality = if rung == 0
                && excluded.is_empty()
                && dropped_non_finite == 0
                && !clock_innovation_fired
            {
                FixQuality::Nominal
            } else {
                FixQuality::Degraded
            };
            // One generic emission point for every quality outcome — the
            // counter name derives from `FixQuality::name`, never from a
            // per-solver branch.
            instrument::resilient_fix_quality(quality.name()).inc();
            recorder::record_current(
                RecordKind::FixQuality,
                quality.code(),
                0,
                recorder::tag(source),
                rung as u64,
            );
            #[allow(clippy::cast_precision_loss)]
            instrument::resilient_accepted_rung().record(rung as f64);
            // Feed the kinematic model and reset the holdover budget.
            // The innovation covariance cannot fail to factor for a
            // valid r_pos, so a filter error only skips the smoothing.
            let _ = self.filter.update(solution.position, self.since_fix_s);
            self.since_fix_s = 0.0;
            self.holdover_used = 0;
            return Ok(ResilientFix {
                position: solution.position,
                quality,
                source,
                excluded,
                dropped_non_finite,
                residual_rms: Some(solution.residual_rms),
                gdop: Some(gdop),
                receiver_bias_m: solution.receiver_bias_m,
            });
        }

        // 5. Holdover: bridge the outage through the kinematic model.
        if self.holdover_used < self.max_holdover_epochs {
            if let Some(position) = self.filter.predict_position(self.since_fix_s) {
                self.holdover_used += 1;
                instrument::resilient_fix_quality(FixQuality::Holdover.name()).inc();
                recorder::record_current(
                    RecordKind::FixQuality,
                    FixQuality::Holdover.code(),
                    0,
                    recorder::tag("holdover"),
                    0,
                );
                if gps_telemetry::enabled(Level::Warn) {
                    Event::new(Level::Warn, "core.resilient", "holdover")
                        .with("consecutive", self.holdover_used)
                        .with("since_fix_s", self.since_fix_s)
                        .emit();
                }
                return Ok(ResilientFix {
                    position,
                    quality: FixQuality::Holdover,
                    source: "holdover",
                    excluded: Vec::new(),
                    dropped_non_finite,
                    residual_rms: None,
                    gdop: None,
                    receiver_bias_m: None,
                });
            }
        }
        instrument::resilient_fix_quality("no_fix").inc();
        recorder::record_current(RecordKind::FixQuality, 0, 0, 0, 0);
        let need = self
            .ladder
            .iter()
            .map(|s| s.min_satellites())
            .min()
            .unwrap_or(4);
        Err(first_error.unwrap_or(SolveError::TooFewSatellites {
            got: measurements.len(),
            need,
        }))
    }
}

/// Per-rung slice of the pipeline configuration, so the ladder walk can
/// borrow the solver list and the scratch context independently of the
/// gate parameters.
struct RungConfig<'a> {
    gates: &'a ValidationGates,
    filter: &'a PvFilter,
    since_fix_s: f64,
    raim_threshold_m: f64,
    max_raim_exclusions: usize,
}

/// A rung's fix that passed every gate.
struct Passed {
    solution: Solution,
    /// GDOP of the satellite set behind the fix, from the geometry gate.
    gdop: f64,
    /// Indices excluded by the RAIM retry: into the sanitized slice as
    /// [`attempt`] returns them, into the caller's slice once remapped.
    excluded: Vec<usize>,
}

/// Solve + gates + RAIM retry for one ladder rung. `kept` is scratch
/// for the measurements a RAIM retry keeps.
fn attempt(
    solver: &dyn Solver,
    clean: &[Measurement],
    predicted_bias_m: f64,
    cfg: &RungConfig<'_>,
    ctx: &mut SolveContext,
    kept: &mut Vec<Measurement>,
) -> Result<Passed, SolveError> {
    let epoch = Epoch::new(clean, predicted_bias_m);
    let solution = solver.solve(&epoch, ctx)?;
    let gate = match validate(&solution, clean, cfg) {
        Ok(gdop) => {
            return Ok(Passed {
                solution,
                gdop,
                excluded: Vec::new(),
            })
        }
        Err(gate) => gate,
    };
    instrument::resilient_gate_failures().inc();
    // A residual failure with redundancy to spare is the RAIM case: one
    // bad measurement may be poisoning the fix.
    if gate != Gate::Residual || clean.len() < solver.min_satellites() + 2 {
        return Err(gate.as_error(&solution));
    }
    instrument::resilient_raim_retries().inc();
    let raim = Raim::new(solver, cfg.raim_threshold_m).with_max_exclusions(cfg.max_raim_exclusions);
    let outcome = raim.solve_with(&epoch, ctx)?;
    kept.clear();
    kept.extend(
        clean
            .iter()
            .enumerate()
            .filter(|(k, _)| !outcome.excluded.contains(k))
            .map(|(_, m)| *m),
    );
    match validate(&outcome.solution, kept, cfg) {
        Ok(gdop) => Ok(Passed {
            solution: outcome.solution,
            gdop,
            excluded: outcome.excluded,
        }),
        Err(_) => Err(SolveError::IntegrityFault {
            excluded: outcome.excluded,
            residual: outcome.solution.residual_rms,
        }),
    }
}

/// Applies the residual / GDOP / position-innovation gates. On a pass,
/// returns the GDOP the geometry gate computed, so the fix reports it
/// without a second DOP computation.
fn validate(solution: &Solution, used: &[Measurement], cfg: &RungConfig<'_>) -> Result<f64, Gate> {
    if solution.residual_rms > cfg.gates.max_residual_rms_m {
        return Err(Gate::Residual);
    }
    let gdop = match Dop::compute(used, solution.position) {
        Ok(dop) if dop.gdop <= cfg.gates.max_gdop => dop.gdop,
        // Either the geometry is explicitly degenerate or GDOP blew
        // through the ceiling — both mean "don't trust this fix".
        _ => return Err(Gate::Geometry),
    };
    if let Some(predicted) = cfg.filter.predict_position(cfg.since_fix_s) {
        if solution.position.distance_to(predicted) > cfg.gates.max_position_innovation_m {
            return Err(Gate::Innovation);
        }
    }
    Ok(gdop)
}

/// Which gate a candidate fix failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Residual,
    Geometry,
    Innovation,
}

impl Gate {
    fn as_error(self, solution: &Solution) -> SolveError {
        match self {
            // Residual failures that cannot be RAIM-retried surface as
            // integrity faults with no exclusions made.
            Gate::Residual => SolveError::IntegrityFault {
                excluded: Vec::new(),
                residual: solution.residual_rms,
            },
            Gate::Geometry => SolveError::DegenerateGeometry(gps_linalg::LinalgError::Singular),
            Gate::Innovation => SolveError::IntegrityFault {
                excluded: Vec::new(),
                residual: solution.residual_rms,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> Ecef {
        Ecef::new(6.371e6, 1.0e5, -2.0e5)
    }

    fn sats() -> Vec<Ecef> {
        vec![
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
            Ecef::new(1.2e7, -0.4e7, 2.2e7),
        ]
    }

    fn clean_measurements(n: usize) -> Vec<Measurement> {
        sats()
            .into_iter()
            .take(n)
            .map(|s| Measurement::new(s, s.distance_to(truth())))
            .collect()
    }

    #[test]
    fn clean_epoch_is_nominal_from_the_first_rung() {
        let mut solver = ResilientSolver::new();
        let fix = solver
            .solve_epoch(&clean_measurements(6), 0.0, 1.0)
            .unwrap();
        assert_eq!(fix.quality, FixQuality::Nominal);
        assert_eq!(fix.source, "DLG");
        assert!(fix.excluded.is_empty());
        assert_eq!(fix.dropped_non_finite, 0);
        assert!(fix.position.distance_to(truth()) < 1.0);
        assert!(fix.gdop.unwrap() < 15.0);
    }

    #[test]
    fn faulted_satellite_is_excluded_and_fix_degraded() {
        let mut meas = clean_measurements(7);
        meas[3].pseudorange += 800.0;
        let mut solver = ResilientSolver::new();
        let fix = solver.solve_epoch(&meas, 0.0, 1.0).unwrap();
        assert_eq!(fix.quality, FixQuality::Degraded);
        assert_eq!(fix.excluded, vec![3]);
        assert!(fix.position.distance_to(truth()) < 1.0, "fix error too big");
    }

    #[test]
    fn non_finite_measurements_cost_one_satellite_not_the_epoch() {
        let mut meas = clean_measurements(6);
        meas[2].pseudorange = f64::NAN;
        let mut solver = ResilientSolver::new();
        let fix = solver.solve_epoch(&meas, 0.0, 1.0).unwrap();
        assert_eq!(fix.quality, FixQuality::Degraded);
        assert_eq!(fix.dropped_non_finite, 1);
        assert!(fix.position.distance_to(truth()) < 1.0);
    }

    #[test]
    fn exclusion_indices_refer_to_the_original_slice() {
        let mut meas = clean_measurements(7);
        meas[0].pseudorange = f64::NAN; // shifts all sanitized indices
        meas[4].pseudorange += 900.0;
        let mut solver = ResilientSolver::new();
        let fix = solver.solve_epoch(&meas, 0.0, 1.0).unwrap();
        assert_eq!(fix.dropped_non_finite, 1);
        assert_eq!(fix.excluded, vec![4], "original-slice index expected");
    }

    #[test]
    fn outage_bridges_through_holdover_then_errors() {
        let mut solver = ResilientSolver::new().with_max_holdover(2);
        // Two good epochs initialize the kinematic model.
        for _ in 0..2 {
            solver
                .solve_epoch(&clean_measurements(6), 0.0, 1.0)
                .unwrap();
        }
        // Outage: too few satellites.
        let few = clean_measurements(3);
        for expected in 1..=2 {
            let fix = solver.solve_epoch(&few, 0.0, 1.0).unwrap();
            assert_eq!(fix.quality, FixQuality::Holdover);
            assert_eq!(fix.source, "holdover");
            assert_eq!(solver.holdover_used(), expected);
            // Static receiver: the propagated position stays close.
            assert!(fix.position.distance_to(truth()) < 50.0);
        }
        // Budget exhausted: the outage surfaces as the rung error.
        let err = solver.solve_epoch(&few, 0.0, 1.0).unwrap_err();
        assert_eq!(err, SolveError::TooFewSatellites { got: 3, need: 4 });
        // A good epoch resets the budget.
        let fix = solver
            .solve_epoch(&clean_measurements(6), 0.0, 1.0)
            .unwrap();
        assert_eq!(fix.quality, FixQuality::Nominal);
        assert_eq!(solver.holdover_used(), 0);
        let fix = solver.solve_epoch(&few, 0.0, 1.0).unwrap();
        assert_eq!(fix.quality, FixQuality::Holdover);
    }

    #[test]
    fn holdover_unavailable_before_any_fix() {
        let mut solver = ResilientSolver::new();
        let err = solver
            .solve_epoch(&clean_measurements(3), 0.0, 1.0)
            .unwrap_err();
        assert_eq!(err, SolveError::TooFewSatellites { got: 3, need: 4 });
    }

    #[test]
    fn stale_clock_prediction_degrades_but_does_not_drop_the_fix() {
        // The direct solvers see a prediction that is stale by 1 ms of
        // clock (300 km of range — the threshold-station failure mode)
        // and produce garbage; NR only uses the prediction as an initial
        // guess and recovers the position, but the innovation between its
        // solved bias and the prediction flags the epoch degraded.
        let mut solver = ResilientSolver::new();
        let fix = solver
            .solve_epoch(&clean_measurements(7), 3.0e5, 1.0)
            .unwrap();
        assert_eq!(fix.quality, FixQuality::Degraded);
        assert!(
            fix.source == "NR" || fix.source == "Bancroft",
            "prediction-free rung expected, got {}",
            fix.source
        );
        assert!(fix.position.distance_to(truth()) < 1.0);
    }

    #[test]
    fn quality_ordering_and_names() {
        assert!(FixQuality::Nominal < FixQuality::Degraded);
        assert!(FixQuality::Degraded < FixQuality::Holdover);
        assert_eq!(FixQuality::Nominal.to_string(), "nominal");
        assert_eq!(FixQuality::Holdover.name(), "holdover");
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_non_positive_dt() {
        let mut solver = ResilientSolver::new();
        let _ = solver.solve_epoch(&clean_measurements(6), 0.0, 0.0);
    }

    #[test]
    fn builders_compose() {
        let solver = ResilientSolver::new()
            .with_gates(ValidationGates {
                max_residual_rms_m: 5.0,
                ..ValidationGates::default()
            })
            .with_raim(8.0, 1)
            .with_max_holdover(3)
            .with_kinematics(PvFilter::new(0.5, 16.0));
        assert_eq!(solver.gates.max_residual_rms_m, 5.0);
        assert_eq!(solver.max_raim_exclusions, 1);
        assert_eq!(solver.max_holdover_epochs, 3);
    }
}
