//! Parallel batch positioning: an epoch stream sharded across a
//! [`gps_pool::ThreadPool`].
//!
//! Epochs are independent — nothing a solver computes at epoch *i*
//! feeds epoch *i+1* — so a batch of them is embarrassingly parallel.
//! [`ParallelEngine`] exploits that while preserving the serial
//! [`Engine`](crate::Engine)'s semantics exactly:
//!
//! * **Chunked claims.** `N` worker loops (one pool job each) claim
//!   contiguous chunks of 64 epochs from a shared atomic cursor. A
//!   chunk is small next to a station-day, so a slow stretch (NR
//!   needing extra iterations, a pathological geometry) delays only the
//!   worker holding it; it is large enough that the claim, the clock
//!   reads and the flight records it costs are a few nanoseconds per
//!   epoch.
//! * **Lane-major solves.** Every worker owns one [`WorkerLanes`]: a
//!   private clone of each solver plus one [`SolveContext`] per lane.
//!   Each lane runs over the whole chunk with its warm context before
//!   the next lane starts, and is timed once per chunk.
//! * **One hand-off per worker.** A worker keeps its chunks until the
//!   cursor passes the end of the stream, then sends them back once,
//!   with its [`WorkerReport`]. The caller orders the chunks by first
//!   epoch and moves their outcomes into place. Because the `Solver`
//!   contract guarantees solves are deterministic and independent of
//!   context history, the merged output is **bit-for-bit identical** to
//!   the serial engine's for any worker count (pinned by
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

/// Epochs a [`ParallelEngine::run_shared`] worker claims per cursor
/// bump. At m = 8 a chunk is about 140 µs of solving on one core: its
/// claim, five clock reads and five flight records cost a few ns per
/// epoch, and the last chunk of a station-day leaves the other workers
/// idle for at most that long.
const CLAIM: usize = 64;

/// One epoch's outcomes, lane order.
type EpochOutcomes = Vec<Result<Solution, SolveError>>;

/// A solved run of consecutive epochs: the stream index of its first
/// epoch and one outcome vector per epoch.
type Chunk = (usize, Vec<EpochOutcomes>);

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
/// This is the unit the zero-allocation probes drive: once the
/// contexts are warm, [`WorkerLanes::solve_chunk`] allocates only the
/// outcome vectors it returns, and [`WorkerLanes::solve_block_into`]
/// allocates nothing (given output buffers with warm capacity).
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

    /// Solves `jobs`, consecutive stream epochs starting at
    /// `first_epoch_id`, lane by lane: each lane runs over the whole
    /// chunk with its warm context before the next starts. Returns one
    /// outcome vector per epoch, in lane order — what a serial
    /// [`Engine`](crate::Engine) records epoch by epoch.
    ///
    /// Observability is per chunk: one `epoch_start` flight record
    /// (the first epoch's id and satellite count), then per lane one
    /// clock read, one `core.lane_solve_us.*` sample (the chunk's mean
    /// per-epoch latency) and one `lane_solve` record. A failed
    /// lane-epoch adds a `lane_error` record with its own epoch id.
    ///
    /// Once the contexts are warm, the only allocations are the
    /// returned vectors: one per epoch plus the chunk's own.
    #[must_use]
    pub fn solve_chunk(&mut self, jobs: &[EpochJob], first_epoch_id: u32) -> Vec<EpochOutcomes> {
        let mut chunk: Vec<EpochOutcomes> = jobs
            .iter()
            .map(|_| Vec::with_capacity(self.lanes.len()))
            .collect();
        let Some(first) = jobs.first() else {
            return chunk;
        };
        recorder::record_current(
            RecordKind::EpochStart,
            first.measurements.len() as u16,
            first_epoch_id,
            0,
            0,
        );
        let epochs = jobs.len() as f64;
        let mut stamp = Instant::now();
        for (((solver, ctx), time), meta) in self
            .lanes
            .iter_mut()
            .zip(self.lane_time.iter_mut())
            .zip(self.lane_meta.iter())
        {
            for (i, (job, outcomes)) in jobs.iter().zip(chunk.iter_mut()).enumerate() {
                let epoch = Epoch::new(&job.measurements, job.predicted_receiver_bias_m);
                let result = solver.solve(&epoch, ctx);
                if let Err(e) = &result {
                    // Epoch ids wrap like the stream index casts that
                    // produce them.
                    let epoch_id = first_epoch_id.wrapping_add(i as u32);
                    recorder::record_current(
                        RecordKind::LaneError,
                        e.code(),
                        epoch_id,
                        meta.tag,
                        0,
                    );
                }
                outcomes.push(result);
            }
            let now = Instant::now();
            let took = now - stamp;
            *time += took;
            meta.latency_us.record(took.as_secs_f64() * 1e6 / epochs);
            recorder::record_current(
                RecordKind::LaneSolve,
                u16::try_from(jobs.len()).unwrap_or(u16::MAX),
                first_epoch_id,
                meta.tag,
                took.as_nanos() as u64,
            );
            stamp = now;
        }
        chunk
    }

    /// Runs one same-shape [`EpochBlock`] through every lane, filling
    /// `per_lane[lane]` with one result per block epoch (lane order
    /// outer, epoch order inner). `per_lane.len()` must equal
    /// [`WorkerLanes::len`].
    ///
    /// Observability is per block, as [`WorkerLanes::solve_chunk`]'s is
    /// per chunk: one `epoch_start` record, then per lane one
    /// `core.lane_solve_us.*` sample (the block's mean per-epoch
    /// latency) and one `lane_solve` record, stamped with the block's
    /// first epoch id. Failed lane-epochs write no `lane_error` record.
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

    /// Solves one claim of [`ParallelEngine::run_blocked`]: splits
    /// `jobs` into same-shape blocks of at most `block_size` epochs,
    /// runs each through [`WorkerLanes::solve_block_into`] with the
    /// reused `per_lane` scratch, and moves the results into one
    /// outcome vector per epoch, lane order.
    fn solve_blocks(
        &mut self,
        jobs: &[EpochJob],
        block_size: usize,
        first_epoch: usize,
        per_lane: &mut [EpochOutcomes],
    ) -> Vec<EpochOutcomes> {
        let mut chunk: Vec<EpochOutcomes> = Vec::with_capacity(jobs.len());
        let mut rest = jobs;
        while let Some((block, tail)) = EpochBlock::split_first(rest, block_size) {
            let done = chunk.len();
            self.solve_block_into(&block, (first_epoch + done) as u32, per_lane);
            chunk.resize_with(done + block.lanes(), || Vec::with_capacity(per_lane.len()));
            for lane in per_lane.iter_mut() {
                for (outcomes, result) in chunk.iter_mut().skip(done).zip(lane.drain(..)) {
                    outcomes.push(result);
                }
            }
            rest = tail;
        }
        chunk
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
    /// Worker count is `min(pool.jobs(), ⌈epochs / 64⌉)` (see
    /// [`ParallelEngine::run_shared`]); an empty stream or empty roster
    /// returns an empty run without touching the pool.
    #[must_use]
    pub fn run(&self, pool: &ThreadPool, stream: Vec<EpochJob>) -> ParallelRun {
        self.run_shared(pool, Arc::new(stream))
    }

    /// Like [`ParallelEngine::run`] for an already-shared stream, so
    /// repeated runs over the same batch (benchmarks, sweeps across
    /// worker counts) pay no per-run copy of the epochs.
    ///
    /// Workers claim 64 consecutive epochs per cursor bump and solve
    /// them through [`WorkerLanes::solve_chunk`]; the worker count is
    /// `min(pool.jobs(), ⌈epochs / 64⌉)`.
    #[must_use]
    pub fn run_shared(&self, pool: &ThreadPool, stream: Arc<Vec<EpochJob>>) -> ParallelRun {
        self.run_sharded(pool, stream, Feed::Chunks)
    }

    /// Block-mode [`ParallelEngine::run_shared`]: workers claim
    /// `block_size` consecutive epochs per cursor bump, split each
    /// claim into same-shape [`EpochBlock`]s and solve them through
    /// [`WorkerLanes::solve_block_into`]. The merge is the same as
    /// [`ParallelEngine::run_shared`]'s, so the returned
    /// [`ParallelRun`] is bit-for-bit identical to it for any
    /// `block_size` and worker count (pinned by
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
        self.run_sharded(pool, stream, Feed::Blocks(block_size.max(1)))
    }

    /// The sharded run behind [`ParallelEngine::run_shared`] and
    /// [`ParallelEngine::run_blocked`], whose workers differ only in
    /// how they claim and solve the stream. Each worker hands back its
    /// chunks and report in one message; the caller stitches the chunks
    /// in stream order and tallies the lanes in epoch order.
    fn run_sharded(
        &self,
        pool: &ThreadPool,
        stream: Arc<Vec<EpochJob>>,
        feed: Feed,
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
        let claim = match feed {
            Feed::Chunks => CLAIM,
            Feed::Blocks(block_size) => block_size,
        };
        let cursor = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = mpsc::channel::<(WorkerReport, Vec<Chunk>)>();
        let jobs = pool.jobs().min(total.div_ceil(claim));
        for worker in 0..jobs {
            let stream = Arc::clone(&stream);
            let cursor = Arc::clone(&cursor);
            let done_tx = done_tx.clone();
            let mut lanes = WorkerLanes::new(&self.solvers);
            pool.submit(move || {
                let mut chunks: Vec<Chunk> = Vec::new();
                let mut epochs = 0u64;
                let mut busy = Duration::ZERO;
                // Block scratch, reused across claims; `Feed::Chunks`
                // never touches it.
                let mut per_lane: Vec<EpochOutcomes> =
                    (0..lanes.len()).map(|_| Vec::new()).collect();
                loop {
                    let first = cursor.fetch_add(claim, Ordering::Relaxed);
                    if first >= total {
                        break;
                    }
                    let jobs = &stream[first..(first + claim).min(total)];
                    let began = Instant::now();
                    let chunk = match feed {
                        Feed::Chunks => lanes.solve_chunk(jobs, first as u32),
                        Feed::Blocks(block_size) => {
                            lanes.solve_blocks(jobs, block_size, first, &mut per_lane)
                        }
                    };
                    busy += began.elapsed();
                    epochs += jobs.len() as u64;
                    chunks.push((first, chunk));
                }
                let report = WorkerReport {
                    worker,
                    epochs,
                    busy,
                    lane_time: lanes.lane_time().to_vec(),
                };
                // Fails only when the caller is gone, and then nobody
                // is left to take the chunks.
                let _ = done_tx.send((report, chunks));
            });
        }
        drop(done_tx);

        // A worker that panicked dropped its sender without sending, so
        // once the others have reported, `recv` fails instead of
        // waiting forever.
        let mut workers: Vec<WorkerReport> = Vec::with_capacity(jobs);
        let mut chunks: Vec<Chunk> = Vec::with_capacity(total.div_ceil(claim));
        for _ in 0..jobs {
            let (report, mut worker_chunks) = done_rx
                .recv()
                .expect("a pool worker died before draining the stream");
            workers.push(report);
            chunks.append(&mut worker_chunks);
        }
        workers.sort_by_key(|w| w.worker);
        chunks.sort_unstable_by_key(|&(first, _)| first);
        let mut outcomes: Vec<EpochOutcomes> = Vec::with_capacity(total);
        for (_, chunk) in chunks {
            outcomes.extend(chunk);
        }
        debug_assert_eq!(outcomes.len(), total, "the chunks tile the stream");

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

/// How the workers of one sharded run claim and solve the stream.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// 64 epochs per claim, through [`WorkerLanes::solve_chunk`].
    Chunks,
    /// The given number of epochs per claim, as same-shape
    /// [`EpochBlock`]s through [`WorkerLanes::solve_block_into`].
    Blocks(usize),
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
        }
        assert!(run.elapsed > Duration::ZERO);
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
        let chunk = lanes.solve_chunk(&stream(3), 0);
        assert_eq!(chunk.len(), 3);
        for outcomes in &chunk {
            assert_eq!(outcomes.len(), 4);
            assert!(outcomes.iter().all(Result::is_ok));
        }
        assert!(lanes.lane_time().iter().all(|t| *t > Duration::ZERO));
        assert!(lanes.solve_chunk(&[], 0).is_empty());
    }

    #[test]
    fn solve_chunk_records_per_chunk_and_every_failure() {
        // Epochs 102 and 105 of a chunk starting at stream index 100
        // are under-determined: every lane fails both.
        let few = measurements(0.0)[..3].to_vec();
        let mut jobs = stream(7);
        jobs[2].measurements = few.clone();
        jobs[5].measurements = few;
        let engine = ParallelEngine::all_solvers();
        let mut lanes = WorkerLanes::new(engine.solvers());
        let ring = recorder::recorder().attach(4_019);
        let chunk = lanes.solve_chunk(&jobs, 100);
        recorder::recorder().detach();
        assert!(chunk[2].iter().chain(&chunk[5]).all(Result::is_err));

        let records = ring.capture().records;
        let of_kind = |kind: RecordKind| {
            records
                .iter()
                .filter(move |r| r.kind() == Some(kind))
                .map(|r| (r.epoch_id, r.code, r.a))
                .collect::<Vec<_>>()
        };
        assert_eq!(of_kind(RecordKind::EpochStart), [(100, 6, 0)]);
        let tags: Vec<u64> = engine
            .solvers()
            .iter()
            .map(|s| recorder::tag(s.name()))
            .collect();
        let expected: Vec<_> = tags.iter().map(|&t| (100, 7, t)).collect();
        assert_eq!(
            of_kind(RecordKind::LaneSolve),
            expected,
            "one lane_solve per lane per chunk"
        );
        let mut expected = Vec::new();
        for (lane, &t) in tags.iter().enumerate() {
            for i in [2, 5] {
                let code = chunk[i][lane].as_ref().err().map(SolveError::code);
                expected.push((100 + i as u32, code.expect("asserted above"), t));
            }
        }
        assert_eq!(
            of_kind(RecordKind::LaneError),
            expected,
            "one lane_error per failed lane-epoch"
        );
    }

    /// A lane that panics on an epoch of exactly `m` satellites and
    /// fails every other one.
    #[derive(Debug, Clone)]
    struct PanicsAt(usize);

    impl Solver for PanicsAt {
        fn solve(&self, epoch: &Epoch<'_>, _: &mut SolveContext) -> Result<Solution, SolveError> {
            assert_ne!(epoch.len(), self.0, "poisoned epoch");
            Err(SolveError::NonFinite)
        }

        fn name(&self) -> &'static str {
            "panics"
        }

        fn min_satellites(&self) -> usize {
            0
        }

        fn clone_box(&self) -> Box<dyn Solver> {
            Box::new(self.clone())
        }
    }

    #[test]
    #[should_panic(expected = "a pool worker died before draining the stream")]
    fn a_worker_that_dies_fails_the_run() {
        let mut input = stream(3 * CLAIM);
        input[CLAIM + 5].measurements.truncate(3);
        let pool = ThreadPool::new(2);
        let _ = ParallelEngine::new()
            .with_solver(Box::new(PanicsAt(3)))
            .run(&pool, input);
    }
}
