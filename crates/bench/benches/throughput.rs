//! Parallel batch positioning throughput.
//!
//! Sweeps worker count `jobs ∈ {1, 2, 4, all}` (deduplicated against
//! the machine's available parallelism) against each paper solver
//! (NR, DLO, DLG, Bancroft): one measured iteration is a full
//! [`ParallelEngine::run_shared`] pass over a fixed multi-epoch stream,
//! so the derived elements/s column is positioning fixes per second for
//! that lane.
//!
//! A second, serial sweep varies the block size — the batched
//! single-thread [`Engine`] fed through `run_blocked` with 1, 4 and 8
//! epochs per block — so the committed numbers separate the pure
//! single-core solve rate from thread scaling and parallel plumbing.
//!
//! Besides the usual harness output, the run distils a machine-readable
//! summary to `BENCH_throughput.json` at the repository root —
//! ns-per-stream, fixes/s and speedup-vs-one-worker per cell — so future
//! PRs can track the scaling trajectory. Speedup on a single-core runner
//! is expected to hover at or below 1.0×; the interesting numbers come
//! from multi-core machines.

use std::sync::Arc;

use gps_bench::fixture_epochs;
use gps_bench::harness::{Harness, Throughput};
use gps_core::{Engine, EpochJob, ParallelEngine};
use gps_pool::ThreadPool;

/// Epochs per measured stream run (the fixture's 120 epochs, cycled).
const STREAM_EPOCHS: usize = 960;
/// Satellites per epoch, the paper's mid-sweep workload.
const SATELLITES: usize = 8;
/// Dataset seed (the paper's publication year, same as the CLI default).
const SEED: u64 = 2010;

/// The swept block sizes for the single-worker serial engine:
/// `run_blocked` with 1 (degenerate blocks), 4 and 8 epochs per block.
const BLOCK_SWEEP: [usize; 3] = [1, 4, 8];

/// One summary cell for the JSON report.
struct Cell {
    solver: &'static str,
    /// `"parallel"` = `ParallelEngine` across a pool (shard + channel +
    /// merge included); `"serial"` = the batched single-thread `Engine`,
    /// the pure single-core solve rate.
    mode: &'static str,
    jobs: usize,
    /// Epochs per block; 1 = per-epoch feeding.
    block_size: usize,
    ns_per_stream: f64,
    fixes_per_sec: f64,
    speedup_vs_jobs1: f64,
}

fn build_stream() -> Arc<Vec<EpochJob>> {
    let base = fixture_epochs(SATELLITES, SEED);
    assert!(!base.is_empty(), "fixture must yield epochs");
    let jobs = (0..STREAM_EPOCHS)
        .map(|i| EpochJob::new(base[i % base.len()].clone(), 0.0))
        .collect();
    Arc::new(jobs)
}

/// The swept worker counts: {1, 2, 4, all}, sorted and deduplicated so
/// a 4-thread machine measures each count once.
fn jobs_sweep() -> Vec<usize> {
    let mut sweep = vec![1, 2, 4, gps_pool::available_parallelism()];
    sweep.sort_unstable();
    sweep.dedup();
    sweep
}

fn main() {
    let stream = build_stream();
    let sweep = jobs_sweep();
    let roster = ParallelEngine::all_solvers();
    let lane_names: Vec<&'static str> = roster.solvers().iter().map(|s| s.name()).collect();

    let mut h = Harness::new();
    let mut group = h.benchmark_group("throughput");
    group
        .sample_size(7)
        .throughput(Throughput::Elements(stream.len() as u64));
    for &jobs in &sweep {
        let pool = ThreadPool::new(jobs);
        for (lane, name) in lane_names.iter().enumerate() {
            let engine = ParallelEngine::new().with_solver(roster.solvers()[lane].clone_box());
            let s = Arc::clone(&stream);
            group.bench_function(&format!("{name}/jobs-{jobs}"), |b| {
                b.iter(|| engine.run_shared(&pool, Arc::clone(&s)))
            });
        }
    }
    // Serial block-size sweep: the batched single-thread `Engine` fed
    // through EpochBlocks. No pool, no channels, no merge — the pure
    // single-core solve rate, isolated from both thread scaling and
    // parallel plumbing.
    for &bs in &BLOCK_SWEEP {
        for (lane, name) in lane_names.iter().enumerate() {
            let mut engine = Engine::new()
                .with_solver(roster.solvers()[lane].clone_box())
                .with_timing(false);
            let s = Arc::clone(&stream);
            group.bench_function(&format!("{name}/serial-block-{bs}"), |b| {
                b.iter(|| engine.run_blocked(&s, bs))
            });
        }
    }
    group.finish();

    let cells = collect_cells(&sweep, &lane_names, stream.len());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    std::fs::write(path, render_json(&cells, stream.len()))
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("wrote {path}");
}

/// Pulls each cell's measurement back out of the telemetry registry
/// (the harness records one `bench.throughput.<id>` sample per cell;
/// `min` is that sample, exact) and derives rates and speedups.
fn collect_cells(sweep: &[usize], lane_names: &[&'static str], epochs: usize) -> Vec<Cell> {
    let snap = gps_telemetry::snapshot();
    let lookup = |id: String| -> f64 {
        let metric = format!("bench.throughput.{id}");
        snap.histograms
            .iter()
            .find(|h| h.name == metric)
            .unwrap_or_else(|| panic!("missing {metric}"))
            .min
    };
    let mut cells = Vec::new();
    for &name in lane_names {
        let baseline_ns = lookup(format!("{name}.jobs-1"));
        for &jobs in sweep {
            let ns = lookup(format!("{name}.jobs-{jobs}"));
            cells.push(Cell {
                solver: name,
                mode: "parallel",
                jobs,
                block_size: 1,
                ns_per_stream: ns,
                fixes_per_sec: epochs as f64 / (ns * 1e-9),
                speedup_vs_jobs1: baseline_ns / ns,
            });
        }
        // Serial block cells are normalized to the serial block-1 cell,
        // so their speedup column reads as the block-feeding win directly.
        let serial_baseline_ns = lookup(format!("{name}.serial-block-1"));
        for &bs in &BLOCK_SWEEP {
            let ns = lookup(format!("{name}.serial-block-{bs}"));
            cells.push(Cell {
                solver: name,
                mode: "serial",
                jobs: 1,
                block_size: bs,
                ns_per_stream: ns,
                fixes_per_sec: epochs as f64 / (ns * 1e-9),
                speedup_vs_jobs1: serial_baseline_ns / ns,
            });
        }
    }
    cells
}

fn render_json(cells: &[Cell], epochs: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"throughput\",\n");
    out.push_str(&format!("  \"epochs_per_stream\": {epochs},\n"));
    out.push_str(&format!("  \"satellites\": {SATELLITES},\n"));
    out.push_str(&format!("  \"seed\": {SEED},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        gps_pool::available_parallelism()
    ));
    out.push_str("  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"solver\": \"{}\", \"mode\": \"{}\", \"jobs\": {}, \"block_size\": {}, \
             \"ns_per_stream\": {:.0}, \"fixes_per_sec\": {:.1}, \
             \"speedup_vs_jobs1\": {:.3}}}{comma}\n",
            c.solver,
            c.mode,
            c.jobs,
            c.block_size,
            c.ns_per_stream,
            c.fixes_per_sec,
            c.speedup_vs_jobs1
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
