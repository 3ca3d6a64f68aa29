//! The repository benchmark. One process runs one workload and prints,
//! as the last line of standard output, a JSON object with the
//! correctness verdict, the operations attempted and failed, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A human-readable table goes to standard error.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
//!     --workload batch_m8 --seed 1 --seconds 24 --trace 0 [--jobs N]
//! ```
//!
//! Every workload prints every metric, so every workload drives both
//! ways the system is used, on its own satellite regime: the batch stack
//! (`ParallelEngine`, `Engine`, the solvers) over station-days, and the
//! fleet stack (`Session`, `ResilientSolver`, `PositioningService`, the
//! journal and its replay) over a fleet of receivers. Inputs are
//! generated from `--seed` before timing starts. The timed window is
//! split into cycles that each run the batch passes, an open-loop and a
//! closed-loop fleet segment and a journal replay, so slow periods of a
//! shared machine fall on every metric alike. Throughputs are total work
//! over total time; latency percentiles are taken per open-loop burst,
//! and their medians over the bursts are reported.

mod batch;
mod fleet;
mod inputs;
mod report;
mod stats;
mod trace;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use gps_pool::ThreadPool;
use gps_telemetry::journal::fnv1a_words;

use batch::Batch;
use fleet::Fleet;
use inputs::{Regime, Selection};
use report::{Report, Verdict};
use stats::{median, peak_rss_mb, release_free_memory};
use trace::Tracer;

const STATIONS: &[&str] = &["SRZN", "YYR1", "FAI1", "KYCP"];

/// One workload: a satellite regime plus the fleet's size and load.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    regime: Regime,
    /// Fleet receivers, assigned round-robin to the regime's stations;
    /// one burst carries one epoch from each.
    receivers: usize,
    /// Open-loop burst spacing, at a fraction of the service's capacity
    /// in this regime.
    open_interval: Duration,
    /// Closed-loop bursts per second the service sustains in this regime
    /// on a 2-vCPU machine; sizes the pre-generated closed-loop input so
    /// that phase fills its share of `--seconds`.
    closed_bursts_per_s: f64,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "batch_m8",
        regime: Regime {
            multi_gnss: false,
            stations: STATIONS,
            day: Selection::Spread(8),
            fleet: Selection::Spread(8),
            faults: false,
        },
        receivers: 1_000,
        open_interval: Duration::from_millis(50),
        closed_bursts_per_s: 100.0,
    },
    Workload {
        name: "batch_m40",
        regime: Regime {
            multi_gnss: true,
            stations: &["SRZN"],
            day: Selection::Spread(40),
            fleet: Selection::Highest(40),
            faults: false,
        },
        receivers: 250,
        open_interval: Duration::from_millis(50),
        closed_bursts_per_s: 230.0,
    },
    Workload {
        name: "fleet",
        regime: Regime {
            multi_gnss: false,
            stations: STATIONS,
            day: Selection::All,
            fleet: Selection::All,
            faults: true,
        },
        receivers: 1_000,
        open_interval: Duration::from_millis(50),
        closed_bursts_per_s: 100.0,
    },
];

/// Untimed bursts that carry every session through clock calibration;
/// the journal they write is the replay sample.
const WARMUP_BURSTS: usize = 16;
/// Measurement cycles in the timed window.
const CYCLES: usize = 20;
/// Set-up runs; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Shares of each cycle: batch passes, open loop, closed loop; the
/// replay sample takes most of the rest.
const BATCH_SHARE: f64 = 0.55;
const OPEN_SHARE: f64 = 0.2;
const CLOSED_SHARE: f64 = 0.04;

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut jobs = gps_pool::available_parallelism();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => trace = value.parse::<u8>().map_err(bad)? == 1,
            "--jobs" => jobs = value.parse::<usize>().map_err(bad)?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: f64::from(seconds.ok_or("--seconds is required")?.max(1)),
        trace,
        jobs,
    })
}

/// Run-scoped directory for the journal and the trace, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
        fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        let _ = fs::remove_dir(".bench_tmp");
    }
}

/// Everything the timed window needs, built by one set-up run.
struct Prepared {
    pool: ThreadPool,
    batch: Batch,
    fleet: Fleet,
}

fn setup(args: &Args, dir: &Path, bursts: usize, tracer: &mut Tracer) -> Result<Prepared, String> {
    let regime = &args.workload.regime;
    let pool = tracer.span("pool.spawn", 1, |_| ThreadPool::new(args.jobs));
    let (day, receivers) = tracer.span("obs.generate", 1, |_| {
        let day = inputs::batch_day(regime, args.seed);
        let receivers = inputs::fleet(
            regime,
            args.seed,
            args.workload.receivers,
            WARMUP_BURSTS + bursts,
            &pool,
        );
        (day, receivers)
    });
    let batch = Batch::new(day, &pool);
    let fleet = Fleet::new(receivers, args.jobs, dir, WARMUP_BURSTS)
        .map_err(|e| format!("journal: {e}"))?;
    Ok(Prepared { pool, batch, fleet })
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let dir = TempDir::create().map_err(|e| format!("temp dir: {e}"))?;
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let mut tracer = Tracer::new(
        args.trace,
        fnv1a_words(0, &[u64::from(std::process::id()), started]),
    );
    let mut report = Report::new(args.trace);
    let mut verdict = Verdict::default();

    let cycle_s = args.seconds / CYCLES as f64;
    let open_bursts =
        ((cycle_s * OPEN_SHARE / w.open_interval.as_secs_f64()).round() as usize).max(1);
    let closed_bursts = ((cycle_s * CLOSED_SHARE * w.closed_bursts_per_s).round() as usize).max(1);
    let bursts = CYCLES * (open_bursts + closed_bursts);

    let mut setup_s = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take());
        release_free_memory();
        let start = Instant::now();
        prepared = Some(setup(args, &dir.0, bursts, &mut tracer)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Prepared {
        pool,
        mut batch,
        mut fleet,
    } = prepared.expect("at least one set-up run");
    let input_digest = inputs::digest(batch.day(), fleet.receivers());
    report.note(format!(
        "workload {} seed {} jobs {}: input digest {input_digest:016x}; {} receivers x {} epochs",
        w.name,
        args.seed,
        args.jobs,
        w.receivers,
        WARMUP_BURSTS + bursts
    ));

    let batch_budget = Duration::from_secs_f64(cycle_s * BATCH_SHARE);
    for cycle in 0..CYCLES {
        // The traced run alternates untraced and traced cycles, so the
        // tracing overhead is measured under the same conditions.
        tracer.set_on(cycle % 2 == 1);
        batch.cycle(&pool, batch_budget, &mut tracer);
        fleet.open_loop(open_bursts, w.open_interval, &mut tracer);
        fleet.closed_loop(closed_bursts, &mut tracer);
        fleet
            .replay_sample(&mut tracer)
            .map_err(|e| format!("replay: {e}"))?;
    }
    tracer.set_on(true);
    let replay = fleet
        .finish(&mut tracer)
        .map_err(|e| format!("replay: {e}"))?;

    batch.verify(&pool, &mut report, &mut verdict);
    fleet
        .verify(&replay, &dir.0, &mut tracer, &mut report, &mut verdict)
        .map_err(|e| format!("verify: {e}"))?;
    batch.report(&mut report);
    fleet.report(&mut report);
    report.e2e("setup_s", median(&setup_s), "s");
    if args.trace {
        batch.layers(&mut tracer, &mut report);
        fleet
            .layers(&dir.0, &mut tracer, &mut report)
            .map_err(|e| format!("journal layer: {e}"))?;
        report.layer(
            "obs.generate_s",
            median(&tracer.sorted_ms("obs.generate")) / 1e3,
            "s",
        );
        report.layer(
            "pool.spawn_ms",
            median(&tracer.sorted_ms("pool.spawn")),
            "ms",
        );
        let path = dir.0.join("trace.jsonl");
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("trace: {e}"))?;
        report.note(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        ));
    }
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");

    let correct = verdict.correct();
    eprintln!("{}", report.table());
    eprintln!(
        "verdict: {}\n{}",
        if correct { "correct" } else { "INCORRECT" },
        verdict.lines()
    );
    drop(fleet);
    drop(batch);
    drop(pool);
    drop(dir);
    println!("{}", report.json(correct));
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
