//! Batch family: one station-day stream positioned by all four solvers
//! through `ParallelEngine::run_shared`, `Engine::run_epoch` and
//! `Engine::run_blocked`, with every outcome checked bit for bit.

use std::sync::Arc;
use std::time::{Duration, Instant};

use gps_core::{
    Bancroft, Dlg, Dlo, Engine, Epoch, EpochBlock, NewtonRaphson, ParallelEngine, ParallelRun,
    Solution, SolveContext, SolveError, Solver, BLOCK_LANES,
};
use gps_pool::ThreadPool;
use gps_sim::MISSED_INTEGRITY_FLOOR_M;
use gps_telemetry::journal::fnv1a_words;

use crate::inputs::BatchDay;
use crate::report::{Rate, Report, Verdict};
use crate::trace::Tracer;

/// Lane order of `Engine::all_solvers` and `ParallelEngine::all_solvers`.
const LANES: [&str; 4] = ["nr", "dlo", "dlg", "bancroft"];

/// One `(epoch, lane)` outcome reduced to comparable words; floats by
/// `to_bits`, so NaN cannot compare equal to anything but its own bits.
type Outcome = [u64; 7];

fn encode(result: &Result<Solution, SolveError>) -> Outcome {
    match result {
        Ok(s) => [
            1 | u64::from(s.receiver_bias_m.is_some()) << 1,
            s.position.x.to_bits(),
            s.position.y.to_bits(),
            s.position.z.to_bits(),
            s.receiver_bias_m.map_or(0, f64::to_bits),
            s.iterations as u64,
            s.residual_rms.to_bits(),
        ],
        Err(e) => {
            let text: Vec<u64> = format!("{e:?}").bytes().map(u64::from).collect();
            [0, u64::from(e.code()), fnv1a_words(0, &text), 0, 0, 0, 0]
        }
    }
}

fn encode_run(run: &ParallelRun) -> Vec<Outcome> {
    run.outcomes.iter().flatten().map(encode).collect()
}

fn tallies(run: &ParallelRun) -> Vec<[u64; 3]> {
    run.lane_stats
        .iter()
        .map(|s| [s.epochs, s.solved, s.failed])
        .collect()
}

fn first_mismatch(a: &[Outcome], b: &[Outcome]) -> Option<usize> {
    if a.len() != b.len() {
        return Some(a.len().min(b.len()));
    }
    a.iter().zip(b).position(|(x, y)| x != y)
}

fn solvers() -> [Box<dyn Solver>; 4] {
    [
        Box::new(NewtonRaphson::default()),
        Box::new(Dlo::default()),
        Box::new(Dlg::default()),
        Box::new(Bancroft),
    ]
}

/// Worker accounting summed over the traced `run_shared` passes.
#[derive(Debug, Default)]
struct ParallelProfile {
    epochs: u64,
    elapsed_s: f64,
    busy_s: f64,
    max_busy_s: f64,
    worker_s: f64,
}

#[derive(Debug)]
pub struct Batch {
    day: BatchDay,
    parallel: ParallelEngine,
    serial: Engine,
    blocked: Engine,
    serial_passes: u64,
    blocked_passes: u64,
    /// The set-up warm-up run, which `verify` checks against a fresh
    /// serial `Engine`, and its encoded outcomes.
    warm: ParallelRun,
    warm_outcomes: Vec<Outcome>,
    /// Timed `run_shared` passes, and those whose outcomes or tallies
    /// differ from the warm-up run's.
    timed_runs: u64,
    timed_mismatches: u64,
    parallel_rate: Rate,
    serial_rate: Rate,
    block_rate: Rate,
    profile: ParallelProfile,
}

fn solved(run: &ParallelRun) -> u64 {
    run.lane_stats.iter().map(|s| s.solved).sum()
}

impl Batch {
    /// Builds the engines and warms every path with one untimed pass.
    pub fn new(day: BatchDay, pool: &ThreadPool) -> Self {
        let parallel = ParallelEngine::all_solvers();
        let warm = parallel.run_shared(pool, Arc::clone(&day.jobs));
        let mut batch = Batch {
            parallel,
            serial: Engine::all_solvers().with_timing(false),
            blocked: Engine::all_solvers().with_timing(false),
            warm_outcomes: encode_run(&warm),
            warm,
            timed_runs: 0,
            timed_mismatches: 0,
            day,
            serial_passes: 0,
            blocked_passes: 0,
            parallel_rate: Rate::default(),
            serial_rate: Rate::default(),
            block_rate: Rate::default(),
            profile: ParallelProfile::default(),
        };
        batch.serial_pass();
        batch.blocked_pass();
        batch
    }

    pub fn day(&self) -> &BatchDay {
        &self.day
    }

    fn serial_pass(&mut self) -> u64 {
        self.serial_passes += 1;
        let mut solved = 0;
        for job in self.day.jobs.iter() {
            solved += self
                .serial
                .run_epoch(&job.measurements, job.predicted_receiver_bias_m)
                as u64;
        }
        solved
    }

    fn blocked_pass(&mut self) -> u64 {
        self.blocked_passes += 1;
        self.blocked.run_blocked(&self.day.jobs, BLOCK_LANES) as u64
    }

    /// Runs whole passes of the three paths in turn until `budget` is
    /// spent, adding each path's solved fixes and time. Outside the timed
    /// spans, every parallel pass is compared bit for bit with the
    /// warm-up run.
    pub fn cycle(&mut self, pool: &ThreadPool, budget: Duration, tracer: &mut Tracer) {
        let epochs = self.day.jobs.len() as u64;
        let mut fixes = [0u64; 3];
        let mut secs = [0f64; 3];
        let until = Instant::now() + budget;
        while Instant::now() < until {
            let start = Instant::now();
            let run = tracer.span("parallel.run_shared", epochs, |_| {
                self.parallel.run_shared(pool, Arc::clone(&self.day.jobs))
            });
            secs[0] += start.elapsed().as_secs_f64();
            fixes[0] += solved(&run);
            if tracer.is_on() {
                let p = &mut self.profile;
                let busy: Vec<f64> = run.workers.iter().map(|w| w.busy.as_secs_f64()).collect();
                p.epochs += epochs;
                p.elapsed_s += run.elapsed.as_secs_f64();
                p.busy_s += busy.iter().sum::<f64>();
                p.max_busy_s += busy.iter().copied().fold(0.0, f64::max);
                p.worker_s += run.workers.len() as f64 * run.elapsed.as_secs_f64();
            }
            self.timed_runs += 1;
            let same = run
                .outcomes
                .iter()
                .flatten()
                .map(encode)
                .eq(self.warm_outcomes.iter().copied())
                && tallies(&run) == tallies(&self.warm);
            self.timed_mismatches += u64::from(!same);

            let start = Instant::now();
            fixes[1] += tracer.span("engine.run_epoch", epochs, |_| self.serial_pass());
            secs[1] += start.elapsed().as_secs_f64();

            let start = Instant::now();
            fixes[2] += tracer.span("engine.run_blocked", epochs, |_| self.blocked_pass());
            secs[2] += start.elapsed().as_secs_f64();
        }
        let on = tracer.is_on();
        self.parallel_rate.add(on, fixes[0] as f64, secs[0]);
        self.serial_rate.add(on, fixes[1] as f64, secs[1]);
        self.block_rate.add(on, fixes[2] as f64, secs[2]);
    }

    /// Checks every parallel outcome against a fresh serial `Engine`,
    /// bit for bit, and the blocked and timed engines' tallies; then
    /// reports accuracy and failures from that reference.
    pub fn verify(&self, pool: &ThreadPool, report: &mut Report, verdict: &mut Verdict) {
        let mut reference_engine = Engine::all_solvers().with_timing(false);
        let mut reference: Vec<Outcome> = Vec::with_capacity(self.day.jobs.len() * LANES.len());
        for job in self.day.jobs.iter() {
            reference_engine.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
            for lane in reference_engine.lanes() {
                reference.push(encode(lane.last().expect("every lane ran this epoch")));
            }
        }

        verdict.check(
            first_mismatch(&self.warm_outcomes, &reference).is_none(),
            "batch: warm-up run_shared outcomes equal the serial Engine bit for bit".into(),
        );
        let reference_tallies: Vec<[u64; 3]> = reference_engine
            .lanes()
            .iter()
            .map(|l| [l.stats().epochs, l.stats().solved, l.stats().failed])
            .collect();
        verdict.check(
            tallies(&self.warm) == reference_tallies,
            "batch: warm-up run_shared tallies equal the serial Engine".into(),
        );
        verdict.check(
            self.timed_runs > 0 && self.timed_mismatches == 0,
            format!(
                "batch: all {} timed run_shared passes equal the warm-up run bit for bit, tallies too ({} differ)",
                self.timed_runs, self.timed_mismatches
            ),
        );
        let blocked_run = self
            .parallel
            .run_blocked(pool, Arc::clone(&self.day.jobs), BLOCK_LANES);
        verdict.check(
            first_mismatch(&encode_run(&blocked_run), &reference).is_none(),
            "batch: ParallelEngine::run_blocked outcomes equal the serial Engine bit for bit"
                .into(),
        );
        for (what, engine, passes) in [
            ("run_epoch", &self.serial, self.serial_passes),
            ("run_blocked", &self.blocked, self.blocked_passes),
        ] {
            let same = engine
                .lanes()
                .iter()
                .zip(reference_engine.lanes())
                .all(|(e, r)| {
                    let (e, s) = (e, r.stats());
                    e.stats().epochs == passes * s.epochs
                        && e.stats().solved == passes * s.solved
                        && e.stats().failed == passes * s.failed
                        && e.last().map(encode) == r.last().map(encode)
                });
            verdict.check(
                same,
                format!("batch: Engine::{what} tallies over {passes} passes equal the per-epoch tallies"),
            );
        }

        // Self-test: one flipped bit in one outcome must be caught.
        let mut flipped = self.warm_outcomes.clone();
        let at = flipped.len() / 2;
        flipped[at][1] ^= 1;
        verdict.self_test(
            first_mismatch(&flipped, &reference) == Some(at),
            "batch: a one-bit flip in one parallel outcome turns the verdict incorrect",
        );

        let lanes = LANES.len();
        let mut failed = 0u64;
        for (lane, name) in LANES.iter().enumerate() {
            let mut sq = 0.0;
            let mut fixes = 0u64;
            let mut lane_failed = 0u64;
            for (i, outcome) in reference.iter().skip(lane).step_by(lanes).enumerate() {
                if outcome[0] & 1 == 0 {
                    lane_failed += 1;
                    continue;
                }
                let position = gps_geodesy::Ecef::new(
                    f64::from_bits(outcome[1]),
                    f64::from_bits(outcome[2]),
                    f64::from_bits(outcome[3]),
                );
                let err = position.distance_to(self.day.truths[i]);
                if err.is_nan() || err > MISSED_INTEGRITY_FLOOR_M {
                    lane_failed += 1;
                }
                if err.is_finite() {
                    sq += err * err;
                    fixes += 1;
                }
            }
            report.e2e(
                &format!("rms_error_m.{name}"),
                (sq / fixes as f64).sqrt(),
                "m",
            );
            report.layer(
                &format!("solver.{name}.failed"),
                lane_failed as f64,
                "count",
            );
            failed += lane_failed;
        }
        let nr_iterations: u64 = reference
            .iter()
            .step_by(lanes)
            .filter(|o| o[0] & 1 == 1)
            .map(|o| o[5])
            .sum();
        let nr_fixes = reference
            .iter()
            .step_by(lanes)
            .filter(|o| o[0] & 1 == 1)
            .count();
        report.layer(
            "solver.nr.iterations_per_fix",
            nr_iterations as f64 / nr_fixes as f64,
            "count",
        );
        report.attempt("batch lane-epochs", reference.len() as u64, failed);
    }

    pub fn report(&self, report: &mut Report) {
        report.rate("fixes_per_s", &self.parallel_rate, "fixes/s");
        report.rate("serial_fixes_per_s", &self.serial_rate, "fixes/s");
        report.rate("block_fixes_per_s", &self.block_rate, "fixes/s");
    }

    /// Per-layer passes for the traced run: the engine with lane timing
    /// off and on, and each solver alone through `Solver::solve` and
    /// `solve_block` with a warm context, interleaved so that drift in
    /// machine speed hits every figure alike.
    pub fn layers(&self, tracer: &mut Tracer, report: &mut Report) {
        const SOLVE: [&str; 4] = [
            "solver.nr.solve",
            "solver.dlo.solve",
            "solver.dlg.solve",
            "solver.bancroft.solve",
        ];
        const BLOCK: [&str; 4] = [
            "solver.nr.solve_block",
            "solver.dlo.solve_block",
            "solver.dlg.solve_block",
            "solver.bancroft.solve_block",
        ];
        const PASSES: usize = 3;
        let jobs = &self.day.jobs;
        let epochs = jobs.len() as u64;
        let engine_pass = |engine: &mut Engine| {
            for job in jobs.iter() {
                engine.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
            }
        };
        let solve_pass = |solver: &dyn Solver, ctx: &mut SolveContext| {
            for job in jobs.iter() {
                let epoch = Epoch::new(&job.measurements, job.predicted_receiver_bias_m);
                std::hint::black_box(solver.solve(&epoch, ctx)).ok();
            }
        };
        let block_pass = |solver: &dyn Solver, ctx: &mut SolveContext, out: &mut Vec<_>| {
            let mut rest = &jobs[..];
            while let Some((block, tail)) = EpochBlock::split_first(rest, BLOCK_LANES) {
                out.clear();
                solver.solve_block(&block, ctx, out);
                std::hint::black_box(&out);
                rest = tail;
            }
        };
        let mut untimed = Engine::all_solvers().with_timing(false);
        let mut timed = Engine::all_solvers();
        let solvers = solvers();
        let mut contexts: Vec<SolveContext> = solvers.iter().map(|_| SolveContext::new()).collect();
        let mut out = Vec::with_capacity(BLOCK_LANES);
        // Pass 0 warms every engine lane and context.
        for pass in 0..=PASSES {
            let on = tracer.is_on();
            tracer.set_on(on && pass > 0);
            tracer.span("engine.untimed_pass", epochs, |_| engine_pass(&mut untimed));
            tracer.span("engine.timed_pass", epochs, |_| engine_pass(&mut timed));
            for (lane, (solver, ctx)) in solvers.iter().zip(&mut contexts).enumerate() {
                tracer.span(SOLVE[lane], epochs, |_| solve_pass(solver.as_ref(), ctx));
                tracer.span(BLOCK[lane], epochs, |_| {
                    block_pass(solver.as_ref(), ctx, &mut out)
                });
            }
            tracer.set_on(on);
        }
        let mut ns_per_fix = [0.0; 4];
        for lane in 0..LANES.len() {
            ns_per_fix[lane] = tracer.ns_per_item(SOLVE[lane]);
            report.layer(
                &format!("solver.{}.ns_per_fix", LANES[lane]),
                ns_per_fix[lane],
                "ns",
            );
            report.layer(
                &format!("solver.{}.block_ns_per_fix", LANES[lane]),
                tracer.ns_per_item(BLOCK[lane]),
                "ns",
            );
        }
        for lane in 1..LANES.len() {
            report.layer(
                &format!("theta.{}", LANES[lane]),
                100.0 * ns_per_fix[lane] / ns_per_fix[0],
                "%",
            );
        }
        let engine_ns = tracer.ns_per_item("engine.untimed_pass");
        report.layer("engine.ns_per_epoch", engine_ns, "ns");
        report.layer(
            "engine.dispatch_ns_per_epoch",
            engine_ns - ns_per_fix.iter().sum::<f64>(),
            "ns",
        );
        report.layer(
            "engine.timing_ns_per_epoch",
            tracer.ns_per_item("engine.timed_pass") - engine_ns,
            "ns",
        );

        let p = &self.profile;
        report.layer(
            "parallel.ns_per_epoch",
            tracer.ns_per_item("parallel.run_shared"),
            "ns",
        );
        report.layer("parallel.busy_share", p.busy_s / p.worker_s, "ratio");
        report.layer(
            "parallel.instrumentation_ns_per_epoch",
            p.busy_s * 1e9 / p.epochs as f64 - engine_ns,
            "ns",
        );
        report.layer(
            "parallel.merge_ns_per_epoch",
            (p.elapsed_s - p.max_busy_s) * 1e9 / p.epochs as f64,
            "ns",
        );
    }
}
