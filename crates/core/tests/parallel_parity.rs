//! Parallel-engine parity: any worker count, any claim order and any
//! `block_size` must produce outcomes bit-for-bit identical to a serial
//! sweep of the same stream.

use gps_core::{Epoch, EpochJob, Measurement, ParallelEngine, SolveContext, Solver};
use gps_geodesy::Geodetic;
use gps_pool::ThreadPool;
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};
use std::sync::Arc;

fn random_epoch(rng: &mut StdRng, m: usize) -> Vec<Measurement> {
    let receiver = Geodetic::from_deg(
        rng.gen_range(-60.0..60.0),
        rng.gen_range(-179.0..179.0),
        rng.gen_range(-100.0..9_000.0),
    )
    .to_ecef();
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
            Measurement::new(sat, sat.distance_to(receiver) + noise).with_elevation(el)
        })
        .collect()
}

/// A mixed-shape stream: runs of m=6 broken up by m=5, m=4 and one
/// under-determined m=3 epoch, so blocks split mid-stream and the
/// fallback + error paths are all exercised.
fn mixed_stream(len: usize) -> Vec<EpochJob> {
    let mut rng = StdRng::seed_from_u64(0xB10C_0001);
    (0..len)
        .map(|i| {
            let m = match i % 11 {
                3 => 5,
                7 => 3,
                9 => 4,
                _ => 6,
            };
            EpochJob::new(random_epoch(&mut rng, m), rng.gen_range(-5.0..5.0))
        })
        .collect()
}

/// Epochs a `run_shared` worker claims at a time.
const CLAIM: usize = 64;

#[test]
fn blocked_run_is_bit_identical_to_serial_and_shared() {
    let engine = ParallelEngine::all_solvers();
    // Shorter than one claim, then several claims per worker plus a
    // ragged tail, so the stitch of many chunks is checked too.
    for len in [33, 5 * CLAIM + 7] {
        let stream = Arc::new(mixed_stream(len));

        // Serial reference: one context per lane, epoch by epoch.
        let mut ctxs: Vec<SolveContext> = engine
            .solvers()
            .iter()
            .map(|_| SolveContext::new())
            .collect();
        let serial: Vec<Vec<_>> = stream
            .iter()
            .map(|job| {
                let epoch = Epoch::new(&job.measurements, job.predicted_receiver_bias_m);
                engine
                    .solvers()
                    .iter()
                    .zip(ctxs.iter_mut())
                    .map(|(s, ctx)| s.solve(&epoch, ctx))
                    .collect()
            })
            .collect();

        for workers in [1usize, 2, 4] {
            let pool = ThreadPool::new(workers);
            let shared = engine.run_shared(&pool, Arc::clone(&stream));
            assert_eq!(
                shared.outcomes, serial,
                "run_shared, {workers} workers, {len} epochs"
            );
            let claimed: u64 = shared.workers.iter().map(|w| w.epochs).sum();
            assert_eq!(claimed, len as u64, "run_shared, {workers} workers");
            for block_size in [1usize, 4, 8, 13] {
                let blocked = engine.run_blocked(&pool, Arc::clone(&stream), block_size);
                assert_eq!(
                    blocked.outcomes, serial,
                    "run_blocked bs={block_size}, {workers} workers, {len} epochs"
                );
                let claimed: u64 = blocked.workers.iter().map(|w| w.epochs).sum();
                assert_eq!(claimed, len as u64, "run_blocked bs={block_size}");
                for (lane, (b, s)) in blocked
                    .lane_stats
                    .iter()
                    .zip(shared.lane_stats.iter())
                    .enumerate()
                {
                    assert_eq!(b.epochs, s.epochs, "lane {lane} epochs");
                    assert_eq!(b.solved, s.solved, "lane {lane} solved");
                    assert_eq!(b.failed, s.failed, "lane {lane} failed");
                }
            }
        }
    }
}

#[test]
fn degenerate_streams_are_safe_in_block_mode() {
    let engine = ParallelEngine::all_solvers();
    let pool = ThreadPool::new(2);

    // Empty stream.
    let empty = engine.run_blocked(&pool, Arc::new(Vec::new()), 8);
    assert!(empty.outcomes.is_empty());

    // Every epoch under-determined.
    let mut rng = StdRng::seed_from_u64(0xB10C_0002);
    let bad: Vec<EpochJob> = (0..9)
        .map(|_| EpochJob::new(random_epoch(&mut rng, 2), 0.0))
        .collect();
    let run = engine.run_blocked(&pool, Arc::new(bad), 4);
    assert_eq!(run.outcomes.len(), 9);
    for per_epoch in &run.outcomes {
        assert!(per_epoch.iter().all(|r| r.is_err()));
    }
}
