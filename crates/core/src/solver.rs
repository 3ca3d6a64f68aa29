//! The unified [`Solver`] trait and its zero-allocation [`SolveContext`].
//!
//! The paper's whole contribution is a *comparison* of solvers (NR vs
//! DLO vs DLG, §3.4–§4.5), so every harness in this repository needs to
//! sweep `{NR, DLO, DLG, Bancroft}` uniformly — and a production
//! receiver needs to do so without paying a heap allocation per fix.
//! This module provides both halves:
//!
//! * [`Solver`] is the dispatch surface: one `solve(&Epoch, &mut
//!   SolveContext)` entry point plus capability metadata
//!   ([`Solver::estimates_bias`], [`Solver::is_iterative`]), object-safe
//!   so ladders and engines can hold `Vec<Box<dyn Solver>>`.
//! * [`SolveContext`] is the per-lane scratch handle. The four default
//!   solvers need none of it: each folds its measurement rows straight
//!   into fixed-size normal equations ([`gps_linalg::NormalEquations`])
//!   and recomputes the rows for its residual, so no buffer grows with
//!   the satellite count and every solve, the first one included,
//!   performs **zero heap allocations** (with detail telemetry off —
//!   condition-number observation is gated behind
//!   [`gps_telemetry::detail`] precisely because it allocates). The
//!   context keeps only RAIM's subset workspaces and the buffers of
//!   DLG's dense GLS ablation lanes, which materialize the `m × m`
//!   covariance on purpose.
//!
//! The pre-existing [`PositionSolver`] trait remains the simple
//! allocating API: a blanket impl forwards it to [`Solver`] with a
//! fresh context per call, so `solver.solve(&measurements, bias)` keeps
//! working everywhere.

use std::fmt;

use gps_linalg::lstsq::LstsqScratch;
use gps_linalg::{Matrix, Vector};

use crate::block::EpochBlock;
use crate::{Measurement, PositionSolver, Solution, SolveError};

/// One epoch of solver input: a borrowed slice of satellite
/// measurements plus the externally predicted receiver range bias
/// `ε̂ᴿ = c·Δt̂` in metres (paper eq. 4-4).
///
/// * [`crate::Dlo`]/[`crate::Dlg`] subtract the prediction from every
///   pseudorange (eq. 4-1) — their accuracy depends on its quality;
/// * [`crate::NewtonRaphson`] uses it only as an initial guess;
/// * [`crate::Bancroft`] ignores it (the bias is one of its unknowns).
#[derive(Debug, Clone, Copy)]
pub struct Epoch<'a> {
    /// Satellite positions and pseudoranges for this epoch.
    pub measurements: &'a [Measurement],
    /// Externally predicted receiver range bias `ε̂ᴿ`, metres.
    pub predicted_receiver_bias_m: f64,
}

impl<'a> Epoch<'a> {
    /// Bundles one epoch of measurements with its clock prediction.
    #[must_use]
    pub fn new(measurements: &'a [Measurement], predicted_receiver_bias_m: f64) -> Self {
        Epoch {
            measurements,
            predicted_receiver_bias_m,
        }
    }

    /// Number of measurements in the epoch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.measurements.len()
    }

    /// Returns `true` when the epoch carries no measurements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.measurements.is_empty()
    }
}

/// Reusable scratch space for RAIM's subset re-solves (indices of the
/// still-active satellites plus the measurement copies handed to the
/// inner solver). Owned by [`SolveContext`] and `mem::take`n by
/// [`crate::Raim::solve_with`] so the context itself stays free for the
/// inner solver during the exclusion loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct RaimScratch {
    /// Indices (into the original slice) still trusted.
    pub(crate) active: Vec<usize>,
    /// Measurement copy for the current active subset.
    pub(crate) subset: Vec<Measurement>,
    /// Measurement copy for the current leave-one-out candidate.
    pub(crate) loo: Vec<Measurement>,
}

/// Owned scratch buffers for the [`Solver`] hot path.
///
/// One context serves any number of solvers sequentially, but a context
/// must not be shared *between concurrent* solves — give each
/// lane/thread its own. Buffer ownership rules:
///
/// * The solver may leave buffers in any state; callers must not read
///   results out of the context (the returned [`Solution`] is the only
///   output).
/// * Buffers only grow. The default solvers touch none of them; the
///   dense GLS ablation lanes size theirs on first use, after which
///   solves at the same or smaller satellite counts allocate nothing.
/// * `Default`/[`SolveContext::new`] starts with zero capacity.
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    /// Differenced design matrix `A` ((m−1)×3) of the dense GLS lanes.
    pub(crate) geometry: Matrix,
    /// Right-hand side `Dᵉ` of the dense GLS lanes.
    pub(crate) rhs: Vector,
    /// Least-squares solution buffer of the dense GLS lanes.
    pub(crate) step: Vector,
    /// Dense DLG covariance `Ψ` (eq. 4-26), factored in place by GLS.
    pub(crate) covariance: Matrix,
    /// Whitening scratch for `gps_linalg::lstsq::gls_into`.
    pub(crate) lstsq: LstsqScratch,
    /// RAIM fault-exclusion workspaces.
    pub(crate) raim: RaimScratch,
}

impl SolveContext {
    /// Creates an empty context.
    #[must_use]
    pub fn new() -> Self {
        SolveContext::default()
    }
}

/// Common hot-path interface over the positioning algorithms.
///
/// Object-safe: harnesses hold `Box<dyn Solver>` ladders and dispatch
/// without per-solver match arms. Implemented by
/// [`crate::NewtonRaphson`], [`crate::Dlo`], [`crate::Dlg`] and
/// [`crate::Bancroft`]; a blanket impl derives the allocating
/// [`PositionSolver`] API from any `Solver`, so the two traits never
/// need separate implementations.
pub trait Solver: fmt::Debug + Send + Sync {
    /// Estimates the receiver position for one epoch, using `ctx` for
    /// every intermediate so the steady-state call allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if there are too few satellites, the
    /// geometry is degenerate, the input is non-finite, or (iterative
    /// solvers) the iteration fails to converge.
    fn solve(&self, epoch: &Epoch<'_>, ctx: &mut SolveContext) -> Result<Solution, SolveError>;

    /// Solves every lane of a same-shape [`EpochBlock`], appending one
    /// result per lane to `out` in lane order (callers clear `out`).
    ///
    /// The provided implementation loops [`Solver::solve`] over the
    /// lanes, so each lane's result is **bit-for-bit identical** to a
    /// per-epoch solve of the same lane — block mode batches the feeding
    /// (one call per block for engines, pool workers and the service's
    /// batch drains), never the semantics.
    // lint: no_alloc
    fn solve_block(
        &self,
        block: &EpochBlock<'_>,
        ctx: &mut SolveContext,
        out: &mut Vec<Result<Solution, SolveError>>,
    ) {
        for epoch in block.epochs() {
            out.push(self.solve(&epoch, ctx));
        }
    }

    /// Short algorithm name for reports ("NR", "DLO", "DLG", "Bancroft").
    fn name(&self) -> &'static str;

    /// The minimum number of satellites this algorithm needs.
    fn min_satellites(&self) -> usize;

    /// Whether the solver estimates the receiver clock bias itself
    /// (NR, Bancroft) rather than consuming the epoch's prediction.
    fn estimates_bias(&self) -> bool {
        false
    }

    /// Whether the solver iterates (NR) or is closed-form.
    fn is_iterative(&self) -> bool {
        false
    }

    /// Clones the solver behind a fresh box, so `Box<dyn Solver>`
    /// ladders are `Clone` despite type erasure.
    fn clone_box(&self) -> Box<dyn Solver>;
}

impl Clone for Box<dyn Solver> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl<S: Solver + ?Sized> Solver for &S {
    fn solve(&self, epoch: &Epoch<'_>, ctx: &mut SolveContext) -> Result<Solution, SolveError> {
        (**self).solve(epoch, ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn min_satellites(&self) -> usize {
        (**self).min_satellites()
    }

    fn estimates_bias(&self) -> bool {
        (**self).estimates_bias()
    }

    fn is_iterative(&self) -> bool {
        (**self).is_iterative()
    }

    fn clone_box(&self) -> Box<dyn Solver> {
        (**self).clone_box()
    }
}

impl<S: Solver + ?Sized> Solver for Box<S> {
    fn solve(&self, epoch: &Epoch<'_>, ctx: &mut SolveContext) -> Result<Solution, SolveError> {
        (**self).solve(epoch, ctx)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn min_satellites(&self) -> usize {
        (**self).min_satellites()
    }

    fn estimates_bias(&self) -> bool {
        (**self).estimates_bias()
    }

    fn is_iterative(&self) -> bool {
        (**self).is_iterative()
    }

    fn clone_box(&self) -> Box<dyn Solver> {
        (**self).clone_box()
    }
}

/// Every [`Solver`] is a [`PositionSolver`]: the simple API allocates a
/// fresh context per call and forwards. Sweeps, examples and tests keep
/// their `solver.solve(&measurements, bias)` calls; hot loops migrate
/// to [`Solver::solve`] with a reused context.
impl<S: Solver> PositionSolver for S {
    fn solve(
        &self,
        measurements: &[Measurement],
        predicted_receiver_bias_m: f64,
    ) -> Result<Solution, SolveError> {
        let mut ctx = SolveContext::new();
        Solver::solve(
            self,
            &Epoch::new(measurements, predicted_receiver_bias_m),
            &mut ctx,
        )
    }

    fn name(&self) -> &'static str {
        Solver::name(self)
    }

    fn min_satellites(&self) -> usize {
        Solver::min_satellites(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bancroft, Dlg, Dlo, NewtonRaphson};
    use gps_geodesy::Ecef;

    fn measurements() -> Vec<Measurement> {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
        .iter()
        .map(|&s| Measurement::new(s, s.distance_to(truth)))
        .collect()
    }

    #[test]
    fn epoch_accessors() {
        let meas = measurements();
        let epoch = Epoch::new(&meas, 12.5);
        assert_eq!(epoch.len(), 6);
        assert!(!epoch.is_empty());
        assert_eq!(epoch.predicted_receiver_bias_m, 12.5);
        assert!(Epoch::new(&[], 0.0).is_empty());
    }

    #[test]
    fn trait_objects_dispatch_and_clone() {
        let ladder: Vec<Box<dyn Solver>> = vec![
            Box::new(Dlg::default()),
            Box::new(Dlo::default()),
            Box::new(NewtonRaphson::default()),
            Box::new(Bancroft),
        ];
        let cloned = ladder.clone();
        let meas = measurements();
        let epoch = Epoch::new(&meas, 0.0);
        let mut ctx = SolveContext::new();
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        for (a, b) in ladder.iter().zip(&cloned) {
            assert_eq!(Solver::name(a), Solver::name(b));
            let fix = Solver::solve(a, &epoch, &mut ctx).unwrap();
            assert!(
                fix.position.distance_to(truth) < 1e-2,
                "{}",
                Solver::name(a)
            );
        }
    }

    #[test]
    fn capability_metadata() {
        assert!(Solver::is_iterative(&NewtonRaphson::default()));
        assert!(Solver::estimates_bias(&NewtonRaphson::default()));
        assert!(!Solver::is_iterative(&Dlo::default()));
        assert!(!Solver::estimates_bias(&Dlg::default()));
        assert!(Solver::estimates_bias(&Bancroft));
        assert_eq!(Solver::min_satellites(&Bancroft), 4);
    }

    #[test]
    fn context_reuse_matches_fresh_context() {
        let meas = measurements();
        let epoch = Epoch::new(&meas, 0.0);
        let mut reused = SolveContext::new();
        for solver in [
            &Dlg::default() as &dyn Solver,
            &Dlo::default(),
            &NewtonRaphson::default(),
            &Bancroft,
        ] {
            // Warm the context with a different solver's shapes first,
            // then check the answer is bit-identical to a fresh context.
            let warm = Solver::solve(&solver, &epoch, &mut reused).unwrap();
            let fresh = Solver::solve(&solver, &epoch, &mut SolveContext::new()).unwrap();
            assert_eq!(warm, fresh, "{}", Solver::name(&solver));
        }
    }

    #[test]
    fn blanket_position_solver_matches_context_path() {
        let meas = measurements();
        let epoch = Epoch::new(&meas, 0.0);
        let mut ctx = SolveContext::new();
        let via_trait = Solver::solve(&Dlo::default(), &epoch, &mut ctx).unwrap();
        let via_simple = PositionSolver::solve(&Dlo::default(), &meas, 0.0).unwrap();
        assert_eq!(via_trait, via_simple);
    }
}
