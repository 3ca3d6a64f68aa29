//! Proof that the [`Solver`] + [`SolveContext`] hot path is
//! allocation-free.
//!
//! A counting global allocator tallies every `alloc`/`realloc` made on
//! the calling thread. Each probe runs its solves on its own test
//! thread, so probes running in parallel never count each other's
//! allocations. The warm probes run each solver once to register its
//! telemetry handles (and, for the dense GLS ablation lane, grow its
//! context buffers), then sample the counter around a batch of
//! steady-state solves: the delta must be exactly zero. The same check
//! covers the batched [`Engine`] and the RAIM happy path, which together
//! form the per-epoch loop of every downstream consumer. The cold probe
//! shows that the default solvers need no warm-up at all: a fresh
//! context solves its first epoch without touching the heap. The
//! session probes cover the service's per-receiver epoch: a warm
//! `Session::process` allocates nothing on a nominal epoch and only the
//! returned exclusion list on a RAIM-retry epoch. The service probe
//! covers a whole journaled round: its allocations do not grow with the
//! epochs it serves.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gps_bench::{fixture_epochs, fixture_epochs_multi};
use gps_core::{
    Bancroft, Dlg, Dlo, Engine, Epoch, EpochBlock, EpochJob, FixQuality, GlsPath, NewtonRaphson,
    ParallelEngine, PositioningService, Raim, ServiceConfig, Session, SessionEpoch, SolveContext,
    Solver, WorkerLanes, BLOCK_LANES,
};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and free of
    /// destructors, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with` fails only while the thread is being torn down, when
    // no probe is measuring any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many heap allocations this thread made
/// meanwhile.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// GPS epochs of varying size, so buffer reuse is exercised across
/// dimension changes, not just identical repeats.
fn gps_epochs() -> Vec<Vec<gps_core::Measurement>> {
    let epochs: Vec<_> = [6usize, 8, 10, 7]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 97).into_iter().take(4))
        .collect();
    assert!(!epochs.is_empty(), "fixture produced no epochs");
    epochs
}

/// Multi-GNSS epochs up to m = 40, the large-constellation regime.
fn large_epochs() -> Vec<Vec<gps_core::Measurement>> {
    let epochs: Vec<_> = [20usize, 40, 28]
        .iter()
        .flat_map(|&m| fixture_epochs_multi(m, 97).into_iter().take(3))
        .collect();
    assert!(!epochs.is_empty(), "multi-GNSS fixture produced no epochs");
    epochs
}

fn assert_zero_alloc_after_warmup(
    solver: &dyn Solver,
    bias: f64,
    epochs: &[Vec<gps_core::Measurement>],
) {
    let mut ctx = SolveContext::new();
    for meas in epochs {
        let _ = solver.solve(&Epoch::new(meas, bias), &mut ctx);
    }

    let allocs = allocations_during(|| {
        for meas in epochs {
            let result = solver.solve(&Epoch::new(meas, bias), &mut ctx);
            assert!(result.is_ok(), "{} failed on clean epoch", solver.name());
        }
    });
    assert_eq!(
        allocs,
        0,
        "{} allocated {allocs} time(s) after warm-up",
        solver.name()
    );
}

#[test]
fn newton_raphson_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&NewtonRaphson::default(), 0.0, &gps_epochs());
}

#[test]
fn dlo_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Dlo::default(), 12.0, &gps_epochs());
}

#[test]
fn dlg_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Dlg::default(), 12.0, &gps_epochs());
}

#[test]
fn dlg_is_allocation_free_when_warm_at_large_m() {
    assert_zero_alloc_after_warmup(&Dlg::default(), 12.0, &large_epochs());
}

#[test]
fn dlg_dense_whitened_is_allocation_free_when_warm() {
    // The dense ablation baseline must stay zero-alloc once its context
    // buffers have grown, so the θ-vs-m comparison measures the O(m³)
    // factorization, not malloc. (The explicit-inverse lane is the
    // deliberately allocating faithful-to-the-text reference.)
    assert_zero_alloc_after_warmup(
        &Dlg::default().with_gls_path(GlsPath::DenseWhitened),
        12.0,
        &large_epochs(),
    );
}

#[test]
fn bancroft_is_allocation_free_when_warm() {
    assert_zero_alloc_after_warmup(&Bancroft, 0.0, &gps_epochs());
}

#[test]
fn default_solvers_allocate_nothing_on_a_fresh_context() {
    // No solver keeps an m-sized buffer, so there is nothing to warm:
    // once the telemetry handles are registered, the very first solve
    // on a fresh context is already allocation-free, at m = 8 and at
    // m = 40 alike.
    let small = fixture_epochs(8, 131);
    let large = fixture_epochs_multi(40, 131);
    let (Some(small), Some(large)) = (small.first(), large.first()) else {
        panic!("fixtures produced no m = 8 or m = 40 epoch");
    };
    let solvers: [(&dyn Solver, f64); 4] = [
        (&NewtonRaphson::default(), 0.0),
        (&Dlo::default(), 12.0),
        (&Dlg::default(), 12.0),
        (&Bancroft, 0.0),
    ];
    for (solver, bias) in solvers {
        let registered = solver.solve(&Epoch::new(small, bias), &mut SolveContext::new());
        assert!(
            registered.is_ok(),
            "{} failed on clean epoch",
            solver.name()
        );
        for meas in [small, large] {
            let mut ctx = SolveContext::new();
            let allocs = allocations_during(|| {
                let result = solver.solve(&Epoch::new(meas, bias), &mut ctx);
                assert!(result.is_ok(), "{} failed on clean epoch", solver.name());
            });
            assert_eq!(
                allocs,
                0,
                "{} allocated {allocs} time(s) on its first solve at m = {}",
                solver.name(),
                meas.len()
            );
        }
    }
}

#[test]
fn engine_epoch_loop_is_allocation_free_when_warm() {
    let epochs: Vec<_> = [6usize, 8, 10]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 101).into_iter().take(4))
        .collect();
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    let mut engine = Engine::all_solvers();
    for meas in &epochs {
        engine.run_epoch(meas, 12.0);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let solved = engine.run_epoch(meas, 12.0);
            assert_eq!(solved, engine.lanes().len(), "a lane failed a clean epoch");
        }
    });
    assert_eq!(allocs, 0, "Engine allocated {allocs} time(s) after warm-up");
}

#[test]
fn parallel_worker_chunk_allocates_only_its_outcomes_when_warm() {
    // A pool worker's steady state is WorkerLanes::solve_chunk on one
    // claim of the stream. The solves reuse the warm contexts, so the
    // only allocations are the outcome vectors the worker hands back:
    // one per epoch plus the chunk's own. Varying epoch sizes exercise
    // buffer reuse across dimension changes.
    let jobs: Vec<EpochJob> = [6usize, 8, 10, 7]
        .iter()
        .flat_map(|&m| fixture_epochs(m, 107).into_iter().take(16))
        .map(|meas| EpochJob::new(meas, 12.0))
        .collect();
    assert!(!jobs.is_empty(), "fixture produced no epochs");

    let roster = ParallelEngine::all_solvers();
    let mut worker = WorkerLanes::new(roster.solvers());
    drop(worker.solve_chunk(&jobs, 0));

    let mut chunk = Vec::new();
    let allocs = allocations_during(|| chunk = worker.solve_chunk(&jobs, 0));
    assert_eq!(chunk.len(), jobs.len(), "one outcome vector per epoch");
    assert!(
        chunk.iter().flatten().all(Result::is_ok),
        "a lane failed a clean epoch"
    );
    assert_eq!(
        allocs,
        jobs.len() as u64 + 1,
        "a warm {}-epoch chunk allocated {allocs} time(s), not just its outcome vectors",
        jobs.len()
    );
}

/// A uniform-shape job stream for block feeding: `count` epochs of
/// `m` satellites each.
fn block_stream(m: usize, count: usize, seed: u64) -> Vec<EpochJob> {
    fixture_epochs(m, seed)
        .into_iter()
        .cycle()
        .take(count)
        .map(|meas| EpochJob::new(meas, 12.0))
        .collect()
}

#[test]
fn dlo_block_path_is_allocation_free_when_warm() {
    // `solve_block` runs the per-epoch kernel lane by lane; the only
    // heap touched is the caller's reused `out` vector, which warm-up
    // grows to BLOCK_LANES once.
    let jobs = block_stream(6, 2 * BLOCK_LANES, 109);
    let solver = Dlo::default();
    let mut ctx = SolveContext::new();
    let mut out = Vec::new();

    let mut feed = |out: &mut Vec<_>| {
        let mut rest = jobs.as_slice();
        let mut solved = 0usize;
        while let Some((block, tail)) = EpochBlock::split_first(rest, BLOCK_LANES) {
            out.clear();
            solver.solve_block(&block, &mut ctx, out);
            solved += out.iter().filter(|r| r.is_ok()).count();
            rest = tail;
        }
        solved
    };
    let warm = feed(&mut out);
    assert_eq!(warm, jobs.len(), "a lane failed a clean epoch");

    let allocs = allocations_during(|| {
        assert_eq!(feed(&mut out), jobs.len());
    });
    assert_eq!(
        allocs, 0,
        "DLO block path allocated {allocs} time(s) after warm-up"
    );
}

#[test]
fn engine_blocked_loop_is_allocation_free_when_warm() {
    let jobs = block_stream(8, 3 * BLOCK_LANES, 113);
    let mut engine = Engine::all_solvers();
    // Warm-up grows every lane's context and block scratch.
    let warm = engine.run_blocked(&jobs, BLOCK_LANES);
    assert_eq!(warm, jobs.len() * engine.lanes().len());

    let allocs = allocations_during(|| {
        let solved = engine.run_blocked(&jobs, BLOCK_LANES);
        assert_eq!(solved, jobs.len() * engine.lanes().len());
    });
    assert_eq!(
        allocs, 0,
        "Engine block mode allocated {allocs} time(s) after warm-up"
    );
}

#[test]
fn parallel_worker_block_loop_is_allocation_free_when_warm() {
    // A blocked pool worker's steady state: solve_block_into with the
    // reused per-lane outcome buffers. (The worker then moves each
    // block's results into per-epoch outcome vectors for its one
    // hand-off; those vectors are its output, outside this probe.)
    let jobs = block_stream(6, 2 * BLOCK_LANES, 127);
    let roster = ParallelEngine::all_solvers();
    let mut worker = WorkerLanes::new(roster.solvers());
    let mut per_lane: Vec<Vec<_>> = (0..worker.len()).map(|_| Vec::new()).collect();

    let feed = |worker: &mut WorkerLanes, per_lane: &mut [Vec<_>]| {
        let mut rest = jobs.as_slice();
        let mut offset = 0u32;
        while let Some((block, tail)) = EpochBlock::split_first(rest, BLOCK_LANES) {
            worker.solve_block_into(&block, offset, per_lane);
            offset += block.lanes() as u32;
            rest = tail;
        }
    };
    feed(&mut worker, &mut per_lane);

    let allocs = allocations_during(|| {
        feed(&mut worker, &mut per_lane);
    });
    assert_eq!(
        allocs, 0,
        "worker block lanes allocated {allocs} time(s) after warm-up"
    );
}

#[test]
fn raim_happy_path_is_allocation_free_when_warm() {
    let epochs = fixture_epochs(8, 103);
    assert!(!epochs.is_empty(), "fixture produced no epochs");

    // Generous threshold: clean fixtures never trigger an exclusion, so
    // the wrapper should solve straight through on the caller's epoch.
    let raim = Raim::new(NewtonRaphson::default(), 1.0e6);
    let mut ctx = SolveContext::new();
    for meas in &epochs {
        let _ = raim.solve_with(&Epoch::new(meas, 0.0), &mut ctx);
    }

    let allocs = allocations_during(|| {
        for meas in &epochs {
            let result = raim.solve_with(&Epoch::new(meas, 0.0), &mut ctx);
            assert!(result.is_ok(), "RAIM failed on clean epoch");
        }
    });
    assert_eq!(allocs, 0, "RAIM allocated {allocs} time(s) after warm-up");
}

/// Epochs that warm a session before a probe: the clock model's
/// calibration run plus a margin.
const SESSION_WARMUP: usize = 20;

/// Epochs a session probe measures.
const SESSION_PROBE: usize = 50;

#[test]
fn session_nominal_epoch_is_allocation_free_when_warm() {
    // The service's per-receiver epoch: sanitize, the ladder's first
    // rung, the gates (DOP included), the kinematic filter and the
    // digest. Once the session is warm none of it may touch the heap.
    let epochs = fixture_epochs(8, 97);
    assert!(
        epochs.len() >= SESSION_WARMUP + SESSION_PROBE,
        "fixture too short"
    );
    let mut session = Session::new(1);
    for meas in &epochs[..SESSION_WARMUP] {
        let _ = session.process(meas, 30.0);
    }

    let probe = &epochs[SESSION_WARMUP..SESSION_WARMUP + SESSION_PROBE];
    let mut qualities = Vec::with_capacity(probe.len());
    let allocs = allocations_during(|| {
        for meas in probe {
            let fix = session.process(meas, 30.0);
            qualities.push(fix.map(|f| f.quality));
        }
    });
    assert!(
        qualities.iter().all(|q| *q == Ok(FixQuality::Nominal)),
        "probe epochs must be nominal: {qualities:?}"
    );
    assert_eq!(
        allocs, 0,
        "Session::process allocated {allocs} time(s) over {SESSION_PROBE} nominal epochs"
    );
}

/// Allocations of one warm, journaled, single-shard service round that
/// serves one nominal epoch from each of `receivers` sessions.
fn service_round_allocations(receivers: u64) -> u64 {
    let epochs = fixture_epochs(8, 97);
    assert!(epochs.len() > SESSION_WARMUP, "fixture too short");
    let path = std::env::temp_dir().join(format!(
        "gps_zero_alloc_round_{receivers}_{}.jrnl",
        std::process::id()
    ));
    // One shard: the calling thread serves it, so this thread's counter
    // sees the whole round.
    let config = ServiceConfig {
        workers: 1,
        shards: 1,
        queue_capacity: receivers as usize,
        deadline: std::time::Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let mut service = PositioningService::new(config)
        .with_journal(&path)
        .expect("journal");
    let mut round = |meas: &Vec<gps_core::Measurement>| {
        for receiver in 0..receivers {
            let _ = service.ingest(SessionEpoch {
                receiver,
                dt_s: 30.0,
                measurements: meas.clone(),
            });
        }
        let mut result = None;
        let allocs = allocations_during(|| result = Some(service.process_round()));
        (allocs, result.expect("round ran"))
    };
    for meas in &epochs[..SESSION_WARMUP] {
        let _ = round(meas);
    }
    let (allocs, probe) = round(&epochs[SESSION_WARMUP]);
    assert_eq!(probe.completed_shards, 1);
    assert_eq!(probe.outcomes.len(), receivers as usize);
    for outcome in &probe.outcomes {
        let quality = outcome.result.as_ref().map(|fix| fix.quality);
        assert_eq!(
            quality,
            Ok(FixQuality::Nominal),
            "probe epochs must be nominal"
        );
    }
    drop(service);
    std::fs::remove_file(&path).ok();
    allocs
}

#[test]
fn service_round_allocations_do_not_grow_with_its_epochs() {
    // Per round: the channel, the outcome vectors sized from the queue,
    // and the batch scratch. Nothing per epoch: sessions, journal
    // encoding, framing and the write all reuse warm buffers.
    let (eight, sixty_four) = (service_round_allocations(8), service_round_allocations(64));
    assert_eq!(
        eight, sixty_four,
        "a warm round allocated {eight} time(s) at 8 epochs but {sixty_four} at 64"
    );
}

#[test]
fn session_raim_retry_allocates_only_the_exclusion_list() {
    // +400 m on one satellite fails DLG's residual gate; the RAIM retry
    // excludes it and the fix passes. The one allocation left is the
    // `excluded` list the fix hands back to the caller.
    const FAULTED: usize = 3;
    let fault = |meas: &Vec<gps_core::Measurement>| {
        let mut faulted = meas.clone();
        faulted[FAULTED].pseudorange += 400.0;
        faulted
    };
    let epochs = fixture_epochs(8, 97);
    assert!(
        epochs.len() > SESSION_WARMUP + SESSION_PROBE,
        "fixture too short"
    );
    let mut session = Session::new(2);
    for meas in &epochs[..SESSION_WARMUP] {
        let _ = session.process(meas, 30.0);
    }
    // One faulted epoch grows the RAIM and subset scratch.
    let _ = session.process(&fault(&epochs[SESSION_WARMUP]), 30.0);

    for meas in &epochs[SESSION_WARMUP + 1..=SESSION_WARMUP + SESSION_PROBE] {
        let faulted = fault(meas);
        let mut excluded = None;
        let allocs = allocations_during(|| {
            excluded = session
                .process(&faulted, 30.0)
                .ok()
                .map(|fix| (fix.source, fix.excluded));
        });
        assert_eq!(
            excluded,
            Some(("DLG", vec![FAULTED])),
            "DLG's RAIM retry must exclude the faulted satellite"
        );
        assert_eq!(
            allocs, 1,
            "a warm RAIM-retry epoch allocated {allocs} time(s), not just its exclusion list"
        );
    }
}
