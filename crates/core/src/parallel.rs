//! Parallel batch positioning: an epoch stream sharded across a
//! [`gps_pool::ThreadPool`].
//!
//! Epochs are independent — nothing a solver computes at epoch *i*
//! feeds epoch *i+1* — so a batch of them is embarrassingly parallel.
//! [`ParallelEngine`] exploits that while preserving the serial
//! [`Engine`](crate::Engine)'s semantics exactly:
//!
//! * **Sharding.** `N` worker loops (one pool job each) pull epoch
//!   indices from a shared atomic cursor. Dynamic pulling, not static
//!   chunking: a slow epoch (NR needing extra iterations, a RAIM-ish
//!   pathological geometry) delays only its own worker.
//! * **Warm per-worker scratch.** Every worker owns one
//!   [`WorkerLanes`]: a private clone of each solver plus one
//!   [`SolveContext`] per lane. After a worker's first epoch its
//!   buffers are warm, so the steady-state solve path allocates
//!   nothing (pinned by `crates/bench/tests/zero_alloc.rs`).
//! * **Deterministic merge.** Each result is stamped with its epoch
//!   sequence number and sent over an `mpsc` channel; the caller
//!   reassembles them into epoch order. Because the `Solver` contract
//!   guarantees solves are deterministic and independent of context
//!   history, the merged output is **bit-for-bit identical** to the
//!   serial engine's for any worker count (pinned by
//!   `tests/parallel_parity.rs`).
//!
//! Timing caveat: [`LaneStats::total_time`] aggregated from a parallel
//! run sums *per-worker* wall-clock and therefore depends on
//! scheduling; the solved/failed/epoch counts and every `Solution` do
//! not.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gps_pool::ThreadPool;
use gps_telemetry::recorder::{self, RecordKind};

use crate::{
    Bancroft, Dlg, Dlo, Epoch, EpochBlock, LaneStats, Measurement, NewtonRaphson, Solution,
    SolveContext, SolveError, Solver,
};

/// One owned epoch of a batch stream: the measurements plus the
/// predicted receiver range bias (metres) that a serial caller would
/// pass to [`Engine::run_epoch`](crate::Engine::run_epoch).
#[derive(Debug, Clone)]
pub struct EpochJob {
    /// Satellite positions and pseudoranges for this epoch.
    pub measurements: Vec<Measurement>,
    /// Externally predicted receiver range bias `ε̂ᴿ`, metres.
    pub predicted_receiver_bias_m: f64,
}

impl EpochJob {
    /// Bundles one epoch's measurements with its clock prediction.
    #[must_use]
    pub fn new(measurements: Vec<Measurement>, predicted_receiver_bias_m: f64) -> Self {
        EpochJob {
            measurements,
            predicted_receiver_bias_m,
        }
    }
}

/// One worker's private solver state: a clone of every lane's solver
/// plus a warm [`SolveContext`] per lane and per-lane accumulated
/// solve time.
///
/// This is the unit the zero-allocation probe drives: once
/// [`WorkerLanes::solve_into`] has run at the stream's maximum
/// satellite count, subsequent calls perform no heap allocation
/// (given an output buffer with warm capacity).
#[derive(Debug)]
pub struct WorkerLanes {
    lanes: Vec<(Box<dyn Solver>, SolveContext)>,
    lane_time: Vec<Duration>,
    /// Per-lane observability handles, cached at construction so the
    /// solve path records with atomics only.
    lane_meta: Vec<LaneMeta>,
}

/// Cached per-lane telemetry handles: the exact-tail latency histogram
/// `core.lane_solve_us.<solver>` plus the flight-recorder name tag.
#[derive(Debug)]
struct LaneMeta {
    latency_us: gps_telemetry::Histogram,
    tag: u64,
}

impl WorkerLanes {
    /// Builds fresh per-worker state from a solver roster.
    #[must_use]
    pub fn new(solvers: &[Box<dyn Solver>]) -> Self {
        WorkerLanes {
            lanes: solvers
                .iter()
                .map(|s| (s.clone_box(), SolveContext::new()))
                .collect(),
            lane_time: vec![Duration::ZERO; solvers.len()],
            lane_meta: solvers
                .iter()
                .map(|s| LaneMeta {
                    latency_us: gps_telemetry::histogram(&format!(
                        "core.lane_solve_us.{}",
                        s.name()
                    )),
                    tag: recorder::tag(s.name()),
                })
                .collect(),
        }
    }

    /// Number of solver lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// `true` when no solvers were configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Wall-clock spent inside each lane's solver so far, lane order.
    #[must_use]
    pub fn lane_time(&self) -> &[Duration] {
        &self.lane_time
    }

    /// Runs one epoch through every lane, clearing `out` and pushing
    /// one result per lane in lane order. Epoch id 0 in flight records;
    /// see [`WorkerLanes::solve_epoch_into`] for id-stamped streams.
    // lint: no_alloc
    pub fn solve_into(&mut self, epoch: &Epoch<'_>, out: &mut Vec<Result<Solution, SolveError>>) {
        self.solve_epoch_into(epoch, 0, out);
    }

    /// Like [`WorkerLanes::solve_into`] with the stream position
    /// stamped into every flight record for this epoch.
    ///
    /// Steady-state allocation-free: the contexts reuse their warm
    /// buffers, `out` is only written within its existing capacity once
    /// it has held a full lane set before, and every observability hook
    /// (the `core.lane_solve_us.*` exact-tail histograms, the
    /// flight-recorder lane records) touches atomics only. Per-lane
    /// timing uses chained timestamps (`n + 1` clock reads for `n`
    /// lanes).
    // lint: no_alloc
    pub fn solve_epoch_into(
        &mut self,
        epoch: &Epoch<'_>,
        epoch_id: u32,
        out: &mut Vec<Result<Solution, SolveError>>,
    ) {
        out.clear();
        recorder::record_current(RecordKind::EpochStart, epoch.len() as u16, epoch_id, 0, 0);
        let mut stamp = Instant::now();
        for (((solver, ctx), time), meta) in self
            .lanes
            .iter_mut()
            .zip(self.lane_time.iter_mut())
            .zip(self.lane_meta.iter())
        {
            let result = solver.solve(epoch, ctx);
            let now = Instant::now();
            let took = now - stamp;
            *time += took;
            meta.latency_us.record(took.as_secs_f64() * 1e6);
            let took_ns = took.as_nanos() as u64;
            match &result {
                Ok(_) => {
                    recorder::record_current(RecordKind::LaneSolve, 0, epoch_id, meta.tag, took_ns)
                }
                Err(e) => recorder::record_current(
                    RecordKind::LaneError,
                    e.code(),
                    epoch_id,
                    meta.tag,
                    took_ns,
                ),
            }
            out.push(result);
            stamp = now;
        }
    }

    /// Runs one same-shape [`EpochBlock`] through every lane, filling
    /// `per_lane[lane]` with one result per block epoch (lane order
    /// outer, epoch order inner). `per_lane.len()` must equal
    /// [`WorkerLanes::len`].
    ///
    /// Block-mode observability is coarser than the per-epoch path:
    /// one flight record and one `core.lane_solve_us.*` sample (the
    /// block's mean per-epoch latency) per lane per block, stamped with
    /// the block's first epoch id.
    // lint: no_alloc
    pub fn solve_block_into(
        &mut self,
        block: &EpochBlock<'_>,
        first_epoch_id: u32,
        per_lane: &mut [Vec<Result<Solution, SolveError>>],
    ) {
        debug_assert_eq!(per_lane.len(), self.lanes.len());
        crate::instrument::block_lanes().record(block.lanes() as f64);
        recorder::record_current(
            RecordKind::EpochStart,
            block.measurements_per_epoch() as u16,
            first_epoch_id,
            0,
            0,
        );
        let lanes_f = block.lanes() as f64;
        let mut stamp = Instant::now();
        for ((((solver, ctx), time), meta), out) in self
            .lanes
            .iter_mut()
            .zip(self.lane_time.iter_mut())
            .zip(self.lane_meta.iter())
            .zip(per_lane.iter_mut())
        {
            out.clear();
            solver.solve_block(block, ctx, out);
            let now = Instant::now();
            let took = now - stamp;
            *time += took;
            meta.latency_us.record(took.as_secs_f64() * 1e6 / lanes_f);
            recorder::record_current(
                RecordKind::LaneSolve,
                block.lanes() as u16,
                first_epoch_id,
                meta.tag,
                took.as_nanos() as u64,
            );
            stamp = now;
        }
    }
}

/// What one worker did during a [`ParallelEngine::run`].
#[derive(Debug, Clone)]
pub struct WorkerReport {
    /// Worker index, `0..jobs`.
    pub worker: usize,
    /// Epochs this worker claimed and solved.
    pub epochs: u64,
    /// Wall-clock the worker spent solving (all lanes).
    pub busy: Duration,
    /// Busy time split per lane, lane order.
    pub lane_time: Vec<Duration>,
}

impl WorkerReport {
    /// Fraction of `elapsed` this worker spent solving, in `[0, 1]`-ish
    /// (can exceed 1 marginally through clock granularity).
    #[must_use]
    pub fn utilization(&self, elapsed: Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.busy.as_secs_f64() / elapsed.as_secs_f64()
        }
    }
}

/// The merged outcome of one parallel batch run.
#[derive(Debug, Clone)]
pub struct ParallelRun {
    /// Per-epoch, per-lane results, in epoch order then lane order —
    /// exactly what a serial [`Engine`](crate::Engine) would have
    /// recorded epoch by epoch.
    pub outcomes: Vec<Vec<Result<Solution, SolveError>>>,
    /// Lane (solver) names, lane order.
    pub lane_names: Vec<&'static str>,
    /// Aggregated per-lane statistics. Counts are deterministic;
    /// `total_time` sums per-worker clocks and is scheduling-dependent.
    pub lane_stats: Vec<LaneStats>,
    /// Per-worker activity, sorted by worker index.
    pub workers: Vec<WorkerReport>,
    /// Wall-clock of the whole batch (shard + solve + merge).
    pub elapsed: Duration,
}

impl ParallelRun {
    /// Epochs in the batch.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.outcomes.len()
    }

    /// Successful fixes per second for one lane (lane solved count over
    /// the batch wall-clock).
    #[must_use]
    pub fn lane_fixes_per_sec(&self, lane: usize) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.lane_stats[lane].solved as f64 / elapsed
        }
    }

    /// Successful fixes per second across all lanes.
    #[must_use]
    pub fn total_fixes_per_sec(&self) -> f64 {
        let elapsed = self.elapsed.as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            self.lane_stats.iter().map(|s| s.solved).sum::<u64>() as f64 / elapsed
        }
    }
}

/// Parallel counterpart of the batched [`Engine`](crate::Engine): the
/// same solver roster, run over a whole epoch stream at once across a
/// [`ThreadPool`].
///
/// # Example
///
/// ```
/// use gps_core::{EpochJob, Measurement, ParallelEngine};
/// use gps_geodesy::Ecef;
/// use gps_pool::ThreadPool;
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
/// let stream: Vec<EpochJob> = (0..32).map(|_| EpochJob::new(meas.clone(), 0.0)).collect();
///
/// let pool = ThreadPool::new(2);
/// let run = ParallelEngine::all_solvers().run(&pool, stream);
/// assert_eq!(run.epochs(), 32);
/// for stats in &run.lane_stats {
///     assert_eq!(stats.solved, 32);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParallelEngine {
    solvers: Vec<Box<dyn Solver>>,
}

impl ParallelEngine {
    /// Creates an engine with no lanes.
    #[must_use]
    pub fn new() -> Self {
        ParallelEngine::default()
    }

    /// Creates an engine with one lane per paper solver
    /// (NR, DLO, DLG, Bancroft) — the same roster as
    /// [`Engine::all_solvers`](crate::Engine::all_solvers).
    #[must_use]
    pub fn all_solvers() -> Self {
        ParallelEngine::new()
            .with_solver(Box::new(NewtonRaphson::default()))
            .with_solver(Box::new(Dlo::default()))
            .with_solver(Box::new(Dlg::default()))
            .with_solver(Box::new(Bancroft))
    }

    /// Adds a lane for `solver`.
    #[must_use]
    pub fn with_solver(mut self, solver: Box<dyn Solver>) -> Self {
        self.solvers.push(solver);
        self
    }

    /// The configured solver roster, lane order.
    #[must_use]
    pub fn solvers(&self) -> &[Box<dyn Solver>] {
        &self.solvers
    }

    /// Runs the whole `stream` across `pool`, returning per-epoch
    /// results merged back into epoch order plus aggregated lane and
    /// worker statistics.
    ///
    /// Worker count is `min(pool.jobs(), stream.len())`; an empty
    /// stream or empty roster returns an empty run without touching
    /// the pool.
    #[must_use]
    pub fn run(&self, pool: &ThreadPool, stream: Vec<EpochJob>) -> ParallelRun {
        self.run_shared(pool, Arc::new(stream))
    }

    /// Like [`ParallelEngine::run`] for an already-shared stream, so
    /// repeated runs over the same batch (benchmarks, sweeps across
    /// worker counts) pay no per-run copy of the epochs.
    #[must_use]
    pub fn run_shared(&self, pool: &ThreadPool, stream: Arc<Vec<EpochJob>>) -> ParallelRun {
        let started = Instant::now();
        let lane_names: Vec<&'static str> = self.solvers.iter().map(|s| s.name()).collect();
        let total = stream.len();
        if total == 0 || self.solvers.is_empty() {
            return ParallelRun {
                outcomes: stream.iter().map(|_| Vec::new()).collect(),
                lane_names,
                lane_stats: vec![LaneStats::default(); self.solvers.len()],
                workers: Vec::new(),
                elapsed: started.elapsed(),
            };
        }
        let cursor = Arc::new(AtomicUsize::new(0));
        let (result_tx, result_rx) = mpsc::channel::<(usize, Vec<Result<Solution, SolveError>>)>();
        let (report_tx, report_rx) = mpsc::channel::<WorkerReport>();
        let jobs = pool.jobs().min(total);
        for worker in 0..jobs {
            let stream = Arc::clone(&stream);
            let cursor = Arc::clone(&cursor);
            let result_tx = result_tx.clone();
            let report_tx = report_tx.clone();
            let mut lanes = WorkerLanes::new(&self.solvers);
            pool.submit(move || {
                let mut processed = 0u64;
                let mut busy = Duration::ZERO;
                loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = stream.get(index) else { break };
                    let epoch = Epoch::new(&job.measurements, job.predicted_receiver_bias_m);
                    let mut out = Vec::with_capacity(lanes.len());
                    let start = Instant::now();
                    lanes.solve_epoch_into(&epoch, index as u32, &mut out);
                    busy += start.elapsed();
                    processed += 1;
                    // Sequence-stamped send; the receiver reorders.
                    if result_tx.send((index, out)).is_err() {
                        break; // collector bailed out — stop producing
                    }
                }
                let _ = report_tx.send(WorkerReport {
                    worker,
                    epochs: processed,
                    busy,
                    lane_time: lanes.lane_time().to_vec(),
                });
            });
        }
        drop(result_tx);
        drop(report_tx);
        self.collect_run(lane_names, total, result_rx, report_rx, started)
    }

    /// Block-mode [`ParallelEngine::run_shared`]: workers claim
    /// `block_size` consecutive epochs per cursor bump, split each
    /// claim into same-shape [`EpochBlock`]s and solve them through
    /// [`WorkerLanes::solve_block_into`]. Results are still sent
    /// and merged **per epoch**, so the returned [`ParallelRun`] is
    /// bit-for-bit identical to [`ParallelEngine::run_shared`]'s for
    /// any `block_size` and worker count (pinned by
    /// `tests/parallel_parity.rs`).
    ///
    /// `block_size` is clamped to at least 1; values above
    /// [`crate::BLOCK_LANES`] coarsen only the claim granularity (each
    /// claim then yields several blocks).
    #[must_use]
    pub fn run_blocked(
        &self,
        pool: &ThreadPool,
        stream: Arc<Vec<EpochJob>>,
        block_size: usize,
    ) -> ParallelRun {
        let started = Instant::now();
        let lane_names: Vec<&'static str> = self.solvers.iter().map(|s| s.name()).collect();
        let total = stream.len();
        if total == 0 || self.solvers.is_empty() {
            return ParallelRun {
                outcomes: stream.iter().map(|_| Vec::new()).collect(),
                lane_names,
                lane_stats: vec![LaneStats::default(); self.solvers.len()],
                workers: Vec::new(),
                elapsed: started.elapsed(),
            };
        }
        let block_size = block_size.max(1);
        let cursor = Arc::new(AtomicUsize::new(0));
        let (result_tx, result_rx) = mpsc::channel::<(usize, Vec<Result<Solution, SolveError>>)>();
        let (report_tx, report_rx) = mpsc::channel::<WorkerReport>();
        let jobs = pool.jobs().min(total.div_ceil(block_size));
        for worker in 0..jobs {
            let stream = Arc::clone(&stream);
            let cursor = Arc::clone(&cursor);
            let result_tx = result_tx.clone();
            let report_tx = report_tx.clone();
            let mut lanes = WorkerLanes::new(&self.solvers);
            pool.submit(move || {
                let mut processed = 0u64;
                let mut busy = Duration::ZERO;
                // Warm per-lane result scratch, reused across blocks.
                let mut per_lane: Vec<Vec<Result<Solution, SolveError>>> =
                    (0..lanes.len()).map(|_| Vec::new()).collect();
                'claims: loop {
                    let start = cursor.fetch_add(block_size, Ordering::Relaxed);
                    if start >= total {
                        break;
                    }
                    let end = (start + block_size).min(total);
                    let mut chunk = &stream[start..end];
                    let mut offset = start;
                    let claimed = Instant::now();
                    while let Some((block, tail)) = EpochBlock::split_first(chunk, block_size) {
                        lanes.solve_block_into(&block, offset as u32, &mut per_lane);
                        // Per-epoch sequence-stamped sends: the merge is
                        // the same as the per-epoch run's.
                        for e in 0..block.lanes() {
                            let out: Vec<Result<Solution, SolveError>> = per_lane
                                .iter()
                                .map(|lane_out| lane_out[e].clone())
                                .collect();
                            if result_tx.send((offset + e, out)).is_err() {
                                break 'claims; // collector bailed out
                            }
                        }
                        processed += block.lanes() as u64;
                        offset += block.lanes();
                        chunk = tail;
                    }
                    busy += claimed.elapsed();
                }
                let _ = report_tx.send(WorkerReport {
                    worker,
                    epochs: processed,
                    busy,
                    lane_time: lanes.lane_time().to_vec(),
                });
            });
        }
        drop(result_tx);
        drop(report_tx);
        self.collect_run(lane_names, total, result_rx, report_rx, started)
    }

    /// Drains the result and report channels of a sharded run and
    /// assembles the deterministic [`ParallelRun`] — shared by
    /// [`ParallelEngine::run_shared`] and
    /// [`ParallelEngine::run_blocked`], whose worker loops differ only
    /// in claim granularity.
    fn collect_run(
        &self,
        lane_names: Vec<&'static str>,
        total: usize,
        result_rx: mpsc::Receiver<(usize, Vec<Result<Solution, SolveError>>)>,
        report_rx: mpsc::Receiver<WorkerReport>,
        started: Instant,
    ) -> ParallelRun {
        // Reassemble in epoch order: slot `seq` takes message `seq`.
        let mut slots: Vec<Option<Vec<Result<Solution, SolveError>>>> =
            (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (index, out) = result_rx
                .recv()
                .expect("a pool worker died before draining the stream");
            slots[index] = Some(out);
        }
        let outcomes: Vec<Vec<Result<Solution, SolveError>>> = slots
            .into_iter()
            .map(|s| s.expect("every epoch index sent exactly once"))
            .collect();

        let mut workers: Vec<WorkerReport> = report_rx.iter().collect();
        workers.sort_by_key(|w| w.worker);

        // Aggregate lane statistics in deterministic epoch order;
        // lane wall-clock comes from the per-worker clocks.
        let mut lane_stats = vec![LaneStats::default(); self.solvers.len()];
        for epoch in &outcomes {
            for (stats, result) in lane_stats.iter_mut().zip(epoch) {
                stats.epochs += 1;
                if result.is_ok() {
                    stats.solved += 1;
                } else {
                    stats.failed += 1;
                }
            }
        }
        for report in &workers {
            for (stats, time) in lane_stats.iter_mut().zip(&report.lane_time) {
                stats.total_time += *time;
            }
        }

        let run = ParallelRun {
            outcomes,
            lane_names,
            lane_stats,
            workers,
            elapsed: started.elapsed(),
        };
        if gps_telemetry::enabled(gps_telemetry::Level::Debug) {
            gps_telemetry::Event::new(
                gps_telemetry::Level::Debug,
                "core.parallel",
                "batch complete",
            )
            .with("epochs", run.epochs())
            .with("workers", run.workers.len())
            .with("elapsed_us", run.elapsed.as_secs_f64() * 1e6)
            .emit();
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use gps_geodesy::Ecef;

    fn truth() -> Ecef {
        Ecef::new(6.371e6, 1.0e5, -2.0e5)
    }

    fn measurements(extra: f64) -> Vec<Measurement> {
        [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ]
        .iter()
        .map(|&s| Measurement::new(s, s.distance_to(truth()) + extra))
        .collect()
    }

    fn stream(n: usize) -> Vec<EpochJob> {
        (0..n)
            .map(|i| {
                // Vary the noise slightly so every epoch is distinct and
                // an ordering mistake cannot hide behind identical inputs.
                EpochJob::new(measurements(1e-3 * i as f64), 1e-3 * i as f64)
            })
            .collect()
    }

    #[test]
    fn parallel_matches_serial_for_any_worker_count() {
        let jobs_list = [1usize, 2, 4];
        let input = stream(60);

        // Serial reference: run the same epochs through Engine.
        let mut engine = Engine::all_solvers();
        let mut reference: Vec<Vec<Result<Solution, SolveError>>> = Vec::new();
        for job in &input {
            engine.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
            reference.push(
                engine
                    .lanes()
                    .iter()
                    .map(|lane| lane.last().unwrap().clone())
                    .collect(),
            );
        }

        for jobs in jobs_list {
            let pool = ThreadPool::new(jobs);
            let run = ParallelEngine::all_solvers().run(&pool, input.clone());
            assert_eq!(run.epochs(), 60);
            assert_eq!(run.outcomes, reference, "jobs={jobs}");
            for (lane, stats) in run.lane_stats.iter().enumerate() {
                assert_eq!(stats.epochs, 60, "lane {lane}");
                assert_eq!(
                    stats.solved,
                    engine.lanes()[lane].stats().solved,
                    "lane {lane}"
                );
                assert_eq!(
                    stats.failed,
                    engine.lanes()[lane].stats().failed,
                    "lane {lane}"
                );
            }
        }
    }

    #[test]
    fn blocked_run_matches_per_epoch_run() {
        // Mixed shapes force block splits mid-claim; a short epoch is
        // below every solver's minimum so error lanes round-trip too.
        let base = measurements(0.0);
        let mut input = stream(30);
        for (i, job) in input.iter_mut().enumerate() {
            job.measurements.truncate([6, 6, 5, 6, 4, 6][i % 6]);
        }
        input.insert(7, EpochJob::new(base[..3].to_vec(), 0.0));

        let pool = ThreadPool::new(2);
        let engine = ParallelEngine::all_solvers();
        let shared = Arc::new(input);
        let reference = engine.run_shared(&pool, Arc::clone(&shared));
        for block_size in [1usize, 4, 8] {
            let blocked = engine.run_blocked(&pool, Arc::clone(&shared), block_size);
            assert_eq!(blocked.outcomes, reference.outcomes, "bs={block_size}");
            for (b, r) in blocked.lane_stats.iter().zip(&reference.lane_stats) {
                assert_eq!(b.epochs, r.epochs, "bs={block_size}");
                assert_eq!(b.solved, r.solved, "bs={block_size}");
                assert_eq!(b.failed, r.failed, "bs={block_size}");
            }
            let claimed: u64 = blocked.workers.iter().map(|w| w.epochs).sum();
            assert_eq!(claimed, shared.len() as u64, "bs={block_size}");
        }
    }

    #[test]
    fn worker_reports_cover_the_stream() {
        let pool = ThreadPool::new(3);
        let run = ParallelEngine::all_solvers().run(&pool, stream(40));
        assert!(!run.workers.is_empty());
        assert!(run.workers.len() <= 3);
        let claimed: u64 = run.workers.iter().map(|w| w.epochs).sum();
        assert_eq!(claimed, 40);
        for w in &run.workers {
            assert_eq!(w.lane_time.len(), 4);
            assert!(w.utilization(run.elapsed) >= 0.0);
        }
        assert!(run.elapsed > Duration::ZERO);
        assert!(run.total_fixes_per_sec() > 0.0);
        assert!(run.lane_fixes_per_sec(1) > 0.0);
    }

    #[test]
    fn failures_are_tallied_like_serial() {
        // Three satellites: below every solver's minimum.
        let few = EpochJob::new(measurements(0.0)[..3].to_vec(), 0.0);
        let mut input = stream(10);
        input.insert(5, few);
        let pool = ThreadPool::new(2);
        let run = ParallelEngine::all_solvers().run(&pool, input);
        for stats in &run.lane_stats {
            assert_eq!(stats.epochs, 11);
            assert_eq!(stats.solved, 10);
            assert_eq!(stats.failed, 1);
        }
        assert!(run.outcomes[5].iter().all(Result::is_err));
    }

    #[test]
    fn empty_stream_and_empty_roster_are_fine() {
        let pool = ThreadPool::new(2);
        let run = ParallelEngine::all_solvers().run(&pool, Vec::new());
        assert_eq!(run.epochs(), 0);
        assert!(run.workers.is_empty());

        let run = ParallelEngine::new().run(&pool, stream(3));
        assert_eq!(run.epochs(), 3);
        assert!(run.lane_stats.is_empty());
        assert!(run.outcomes.iter().all(Vec::is_empty));
    }

    #[test]
    fn worker_lanes_report_names_and_times() {
        let engine = ParallelEngine::all_solvers();
        let mut lanes = WorkerLanes::new(engine.solvers());
        assert_eq!(lanes.len(), 4);
        assert!(!lanes.is_empty());
        let meas = measurements(0.0);
        let mut out = Vec::new();
        lanes.solve_into(&Epoch::new(&meas, 0.0), &mut out);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(Result::is_ok));
        assert!(lanes.lane_time().iter().all(|t| *t > Duration::ZERO));
    }
}
