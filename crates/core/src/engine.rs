//! Batched epoch processing over the [`Solver`] trait.
//!
//! [`Engine`] owns one [`Lane`] per solver, and every lane owns its own
//! [`SolveContext`]. Feeding a stream of epochs through
//! [`Engine::run_epoch`] therefore reuses each solver's scratch buffers
//! epoch after epoch: after the first (warm-up) epoch the steady-state
//! hot path performs no heap allocation. This is the harness the
//! benchmarks and the CLI `engine` smoke run drive; contrast it with
//! [`crate::ResilientSolver`], which walks the same solvers as a
//! *degradation ladder* (first acceptable fix wins) instead of running
//! them all side by side.

use std::time::{Duration, Instant};

use crate::instrument;
use crate::{
    Bancroft, Dlg, Dlo, Epoch, EpochBlock, EpochJob, Measurement, NewtonRaphson, Solution,
    SolveContext, SolveError, Solver,
};

/// Running tallies for one [`Lane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Epochs fed through the lane.
    pub epochs: u64,
    /// Epochs the solver returned `Ok`.
    pub solved: u64,
    /// Epochs the solver returned `Err`.
    pub failed: u64,
    /// Wall-clock time spent inside the solver across all epochs.
    pub total_time: Duration,
}

impl LaneStats {
    /// Mean time per epoch, or zero before the first epoch.
    #[must_use]
    pub fn mean_time(&self) -> Duration {
        if self.epochs == 0 {
            Duration::ZERO
        } else {
            // Divide in u128 nanoseconds: `Duration / u32` would silently
            // saturate the divisor at u32::MAX for huge epoch counts.
            let nanos = self.total_time.as_nanos() / u128::from(self.epochs);
            Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
        }
    }
}

/// One solver plus its private [`SolveContext`] and statistics.
#[derive(Debug, Clone)]
pub struct Lane {
    solver: Box<dyn Solver>,
    ctx: SolveContext,
    stats: LaneStats,
    last: Option<Result<Solution, SolveError>>,
    /// Cached handle to `core.lane_solve_us.<solver>` — obtained once
    /// here so the timed epoch path records with atomics only.
    latency_us: gps_telemetry::Histogram,
    /// Per-block result scratch for [`Engine::run_block`]; reused so the
    /// steady-state block path allocates nothing.
    block_out: Vec<Result<Solution, SolveError>>,
}

impl Lane {
    /// Wraps a solver in a fresh lane.
    #[must_use]
    pub fn new(solver: Box<dyn Solver>) -> Self {
        let latency_us = gps_telemetry::histogram(&format!("core.lane_solve_us.{}", solver.name()));
        Lane {
            solver,
            ctx: SolveContext::new(),
            stats: LaneStats::default(),
            last: None,
            latency_us,
            block_out: Vec::new(),
        }
    }

    /// The wrapped solver's report name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.solver.name()
    }

    /// Borrows the wrapped solver.
    #[must_use]
    pub fn solver(&self) -> &dyn Solver {
        self.solver.as_ref()
    }

    /// This lane's running statistics.
    #[must_use]
    pub fn stats(&self) -> &LaneStats {
        &self.stats
    }

    /// The most recent epoch's outcome, if any epoch ran yet.
    #[must_use]
    pub fn last(&self) -> Option<&Result<Solution, SolveError>> {
        self.last.as_ref()
    }

    /// Runs one epoch through the lane without touching the clock;
    /// returns whether it solved. Timing is the engine's concern (see
    /// [`Engine::run_epoch`]) so untimed runs pay zero `Instant` reads.
    fn run_untimed(&mut self, epoch: &Epoch<'_>) -> bool {
        let result = self.solver.solve(epoch, &mut self.ctx);
        self.stats.epochs += 1;
        let solved = result.is_ok();
        if solved {
            self.stats.solved += 1;
        } else {
            self.stats.failed += 1;
        }
        self.last = Some(result);
        solved
    }

    /// Runs one same-shape block through the lane, tallying every lane
    /// epoch; returns how many solved. `last` ends on the block's final
    /// epoch — exactly where per-epoch feeding would leave it.
    // lint: no_alloc
    fn run_block_untimed(&mut self, block: &EpochBlock<'_>) -> usize {
        self.block_out.clear();
        self.solver
            .solve_block(block, &mut self.ctx, &mut self.block_out);
        let mut solved = 0;
        for result in self.block_out.drain(..) {
            self.stats.epochs += 1;
            if result.is_ok() {
                self.stats.solved += 1;
                solved += 1;
            } else {
                self.stats.failed += 1;
            }
            self.last = Some(result);
        }
        solved
    }
}

/// Batched epoch processor: every added solver runs on every epoch with
/// a reusable per-lane [`SolveContext`].
///
/// # Example
///
/// ```
/// use gps_core::{Engine, Measurement};
/// use gps_geodesy::Ecef;
///
/// let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
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
/// let mut engine = Engine::all_solvers();
/// for _ in 0..10 {
///     assert_eq!(engine.run_epoch(&meas, 0.0), 4); // all four lanes solve
/// }
/// for lane in engine.lanes() {
///     assert_eq!(lane.stats().solved, 10);
///     let fix = lane.last().unwrap().as_ref().unwrap();
///     assert!(fix.position.distance_to(truth) < 1e-2, "{}", lane.name());
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    lanes: Vec<Lane>,
    epochs: u64,
    timing: bool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine {
            lanes: Vec::new(),
            epochs: 0,
            timing: true,
        }
    }
}

impl Engine {
    /// Creates an engine with no lanes.
    #[must_use]
    pub fn new() -> Self {
        Engine::default()
    }

    /// Creates an engine with one lane per paper solver
    /// (NR, DLO, DLG, Bancroft).
    #[must_use]
    pub fn all_solvers() -> Self {
        Engine::new()
            .with_solver(Box::new(NewtonRaphson::default()))
            .with_solver(Box::new(Dlo::default()))
            .with_solver(Box::new(Dlg::default()))
            .with_solver(Box::new(Bancroft))
    }

    /// Adds a lane for `solver`.
    #[must_use]
    pub fn with_solver(mut self, solver: Box<dyn Solver>) -> Self {
        self.lanes.push(Lane::new(solver));
        self
    }

    /// Enables or disables per-lane wall-clock accounting (on by
    /// default). With timing off, [`Engine::run_epoch`] reads the clock
    /// zero times per epoch and [`LaneStats::total_time`] stays zero —
    /// use this when the engine runs inside an already-timed region
    /// (parallel workers, benches measuring something else).
    #[must_use]
    pub fn with_timing(mut self, timing: bool) -> Self {
        self.timing = timing;
        self
    }

    /// Whether per-lane wall-clock accounting is enabled.
    #[must_use]
    pub fn timing_enabled(&self) -> bool {
        self.timing
    }

    /// Feeds one epoch to every lane; returns how many lanes solved.
    ///
    /// After each lane's first epoch its scratch buffers are warm, so
    /// subsequent calls with the same satellite count do not allocate.
    /// With timing enabled, adjacent lanes share one timestamp (the end
    /// of lane *i* is the start of lane *i+1*), so an epoch costs
    /// `lanes + 1` clock reads instead of `2 × lanes`.
    // lint: no_alloc
    pub fn run_epoch(
        &mut self,
        measurements: &[Measurement],
        predicted_receiver_bias_m: f64,
    ) -> usize {
        let epoch = Epoch::new(measurements, predicted_receiver_bias_m);
        self.epochs += 1;
        let mut solved = 0;
        if self.timing {
            let mut stamp = Instant::now();
            for lane in &mut self.lanes {
                solved += usize::from(lane.run_untimed(&epoch));
                let now = Instant::now();
                let took = now - stamp;
                lane.stats.total_time += took;
                lane.latency_us.record(took.as_secs_f64() * 1e6);
                stamp = now;
            }
        } else {
            for lane in &mut self.lanes {
                solved += usize::from(lane.run_untimed(&epoch));
            }
        }
        solved
    }

    /// Feeds one same-shape [`EpochBlock`] to every lane; returns how
    /// many lane-epochs solved (up to `lanes × block.lanes()`).
    ///
    /// Each solver runs its per-epoch kernel over the block's lanes, so
    /// per-epoch results and statistics are identical to feeding the
    /// epochs one at a time through [`Engine::run_epoch`] — with timing
    /// on, the per-lane `core.lane_solve_us.*` histogram records the
    /// block's *mean* per-epoch latency once per block instead of one
    /// sample per epoch.
    // lint: no_alloc
    pub fn run_block(&mut self, block: &EpochBlock<'_>) -> usize {
        instrument::block_lanes().record(block.lanes() as f64);
        self.epochs += block.lanes() as u64;
        let mut solved = 0;
        if self.timing {
            let lanes_f = block.lanes() as f64;
            let mut stamp = Instant::now();
            for lane in &mut self.lanes {
                solved += lane.run_block_untimed(block);
                let now = Instant::now();
                let took = now - stamp;
                lane.stats.total_time += took;
                lane.latency_us.record(took.as_secs_f64() * 1e6 / lanes_f);
                stamp = now;
            }
        } else {
            for lane in &mut self.lanes {
                solved += lane.run_block_untimed(block);
            }
        }
        solved
    }

    /// Runs a whole epoch stream in block mode: the stream is split
    /// into consecutive same-shape blocks of at most `block_size` lanes
    /// ([`EpochBlock::split_first`]) and each is fed through
    /// [`Engine::run_block`]. Returns the total lane-epochs solved.
    ///
    /// `block_size = 1` degenerates to per-epoch feeding; results are
    /// bit-identical at every block size.
    pub fn run_blocked(&mut self, stream: &[EpochJob], block_size: usize) -> usize {
        let mut rest = stream;
        let mut solved = 0;
        while let Some((block, tail)) = EpochBlock::split_first(rest, block_size) {
            solved += self.run_block(&block);
            rest = tail;
        }
        solved
    }

    /// The lanes, in insertion order.
    #[must_use]
    pub fn lanes(&self) -> &[Lane] {
        &self.lanes
    }

    /// Epochs fed through [`Engine::run_epoch`] so far.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gps_geodesy::Ecef;

    fn truth() -> Ecef {
        Ecef::new(6.371e6, 1.0e5, -2.0e5)
    }

    fn measurements(bias: f64) -> Vec<Measurement> {
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
        .iter()
        .map(|&s| Measurement::new(s, s.distance_to(truth()) + bias))
        .collect()
    }

    #[test]
    fn all_lanes_solve_clean_epochs() {
        let mut engine = Engine::all_solvers();
        let meas = measurements(0.0);
        for _ in 0..5 {
            assert_eq!(engine.run_epoch(&meas, 0.0), 4);
        }
        assert_eq!(engine.epochs(), 5);
        let names: Vec<&str> = engine.lanes().iter().map(Lane::name).collect();
        assert_eq!(names, ["NR", "DLO", "DLG", "Bancroft"]);
        for lane in engine.lanes() {
            assert_eq!(lane.stats().epochs, 5);
            assert_eq!(lane.stats().solved, 5);
            assert_eq!(lane.stats().failed, 0);
            let fix = lane.last().unwrap().as_ref().unwrap();
            assert!(
                fix.position.distance_to(truth()) < 1e-2,
                "{} err {}",
                lane.name(),
                fix.position.distance_to(truth())
            );
        }
    }

    #[test]
    fn failures_are_tallied_per_lane() {
        let mut engine = Engine::all_solvers();
        let few = &measurements(0.0)[..3]; // below every solver's minimum
        assert_eq!(engine.run_epoch(few, 0.0), 0);
        for lane in engine.lanes() {
            assert_eq!(lane.stats().failed, 1);
            assert!(lane.last().unwrap().is_err());
        }
        // A good epoch afterwards still solves: contexts recover.
        assert_eq!(engine.run_epoch(&measurements(0.0), 0.0), 4);
    }

    #[test]
    fn varying_satellite_counts_between_epochs() {
        // Buffer shapes change between epochs; results must stay correct.
        let mut engine = Engine::all_solvers();
        let meas = measurements(0.0);
        for n in [6, 4, 5, 6] {
            assert_eq!(engine.run_epoch(&meas[..n], 0.0), 4, "n={n}");
            for lane in engine.lanes() {
                let fix = lane.last().unwrap().as_ref().unwrap();
                assert!(fix.position.distance_to(truth()) < 1e-2);
            }
        }
    }

    #[test]
    fn engine_matches_direct_trait_calls() {
        let mut engine = Engine::new().with_solver(Box::new(Dlg::default()));
        let meas = measurements(0.0);
        engine.run_epoch(&meas, 0.0);
        let via_engine = *engine.lanes()[0].last().unwrap().as_ref().unwrap();
        let mut ctx = SolveContext::new();
        let direct = Solver::solve(&Dlg::default(), &Epoch::new(&meas, 0.0), &mut ctx).unwrap();
        assert_eq!(via_engine, direct);
    }

    #[test]
    fn mean_time_has_no_u32_saturation_cliff() {
        // 2^33 epochs at 8 ns each: the old `Duration / u32` path would
        // have divided by a saturated u32::MAX and reported ~16 ns·2 ≈ 0.
        let stats = LaneStats {
            epochs: 1 << 33,
            solved: 1 << 33,
            failed: 0,
            total_time: Duration::from_nanos(8 << 33),
        };
        assert_eq!(stats.mean_time(), Duration::from_nanos(8));
    }

    #[test]
    fn timing_can_be_disabled() {
        let mut engine = Engine::all_solvers().with_timing(false);
        assert!(!engine.timing_enabled());
        let meas = measurements(0.0);
        for _ in 0..3 {
            assert_eq!(engine.run_epoch(&meas, 0.0), 4);
        }
        for lane in engine.lanes() {
            assert_eq!(lane.stats().solved, 3);
            assert_eq!(lane.stats().total_time, Duration::ZERO);
            assert_eq!(lane.stats().mean_time(), Duration::ZERO);
        }
    }

    #[test]
    fn timing_default_accumulates_per_lane() {
        let mut engine = Engine::all_solvers();
        assert!(engine.timing_enabled());
        engine.run_epoch(&measurements(0.0), 0.0);
        for lane in engine.lanes() {
            assert!(lane.stats().total_time > Duration::ZERO, "{}", lane.name());
        }
    }

    #[test]
    fn block_mode_matches_per_epoch_feeding() {
        // Mixed shapes and a failing epoch: the blocked run must tally
        // and report exactly what per-epoch feeding does, at any block
        // size.
        let base = measurements(0.0);
        let stream: Vec<EpochJob> = [6usize, 6, 6, 4, 5, 5, 3, 6, 6, 6, 6, 6]
            .iter()
            .enumerate()
            .map(|(i, &n)| EpochJob::new(base[..n].to_vec(), 1e-3 * i as f64))
            .collect();

        let mut reference = Engine::all_solvers().with_timing(false);
        let mut ref_results: Vec<Vec<Result<Solution, SolveError>>> = Vec::new();
        for job in &stream {
            reference.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
            ref_results.push(
                reference
                    .lanes()
                    .iter()
                    .map(|lane| lane.last().unwrap().clone())
                    .collect(),
            );
        }

        // Single-lane blocks expose every epoch's outcome through the
        // blocked entry point: each must be bit-identical to run_epoch.
        let mut single = Engine::all_solvers().with_timing(false);
        let mut singles: Vec<Vec<Result<Solution, SolveError>>> = Vec::new();
        for job in &stream {
            let one = [job.clone()];
            let block = EpochBlock::new(&one).unwrap();
            single.run_block(&block);
            singles.push(
                single
                    .lanes()
                    .iter()
                    .map(|lane| lane.last().unwrap().clone())
                    .collect(),
            );
        }
        assert_eq!(singles, ref_results, "single-lane block path diverges");

        // Wider blocks: aggregate statistics and the final outcome must
        // match exactly at every block size.
        for block_size in [4usize, 8] {
            let mut blocked = Engine::all_solvers().with_timing(false);
            blocked.run_blocked(&stream, block_size);
            assert_eq!(blocked.epochs(), reference.epochs(), "bs={block_size}");
            for (b, r) in blocked.lanes().iter().zip(reference.lanes()) {
                assert_eq!(b.stats().epochs, r.stats().epochs, "bs={block_size}");
                assert_eq!(b.stats().solved, r.stats().solved, "bs={block_size}");
                assert_eq!(b.stats().failed, r.stats().failed, "bs={block_size}");
                assert_eq!(b.last(), r.last(), "bs={block_size} {}", b.name());
            }
        }
    }

    #[test]
    fn run_blocked_covers_the_whole_stream() {
        let base = measurements(0.0);
        let stream: Vec<EpochJob> = (0..13)
            .map(|i| EpochJob::new(base.clone(), 1e-3 * f64::from(i)))
            .collect();
        let mut engine = Engine::all_solvers();
        let solved = engine.run_blocked(&stream, 8);
        assert_eq!(solved, 13 * 4);
        assert_eq!(engine.epochs(), 13);
        for lane in engine.lanes() {
            assert_eq!(lane.stats().epochs, 13);
            assert_eq!(lane.stats().solved, 13);
        }
    }

    #[test]
    fn stats_report_mean_time() {
        let mut engine = Engine::new().with_solver(Box::new(Dlo::default()));
        assert_eq!(engine.lanes()[0].stats().mean_time(), Duration::ZERO);
        let meas = measurements(0.0);
        for _ in 0..3 {
            engine.run_epoch(&meas, 0.0);
        }
        let stats = engine.lanes()[0].stats();
        assert!(stats.mean_time() <= stats.total_time);
    }
}
