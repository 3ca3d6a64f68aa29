//! `gps-repro` — command-line front end for the reproduction workspace.
//!
//! ```text
//! gps-repro generate --station SRZN --epochs 2880 --interval 30 --out srzn.obs
//! gps-repro info srzn.obs
//! gps-repro solve srzn.obs --algorithm dlg --satellites 8
//! gps-repro experiment fig51
//! gps-repro almanac --out gps.alm
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use gps_repro::core::{
    fleet_digest, replay_journal, Bancroft, Dlg, Dlo, Engine, Epoch, EpochJob, NewtonRaphson,
    ParallelEngine, Solution, SolveContext, SolveError, Solver,
};
use gps_repro::faults::{FaultPlan, RuntimeFault, RuntimeFaultPlan};
use gps_repro::obs::{format, paper_stations, DataSet, DatasetGenerator, Station};
use gps_repro::orbits::{yuma, Constellation};
use gps_repro::pool::ThreadPool;
use gps_repro::sim::{
    experiments, run_service_campaign, to_measurements, ExperimentConfig, ServiceCampaignConfig,
};
use gps_telemetry::{FileFormat, FileSink, Level, StderrSink};

fn usage() -> ExitCode {
    eprintln!(
        "gps-repro — ICDCS 2010 GPS direct-linearization reproduction

USAGE:
  gps-repro generate --station <SRZN|YYR1|FAI1|KYCP> [--epochs N] [--interval S]
                     [--seed N] [--mask DEG] --out <FILE>
  gps-repro info <FILE>
  gps-repro solve <FILE> [--algorithm nr|dlo|dlg|bancroft] [--satellites M]
  gps-repro engine <FILE> [--satellites M] [--epochs N]
  gps-repro throughput [--jobs N] [--epochs N] [--satellites M] [--seed N]
                       [--station <SRZN|YYR1|FAI1|KYCP>] [--quick]
  gps-repro serve [--sessions N] [--rounds N] [--jobs N] [--deadline-us N]
                  [--queue-cap N] [--journal FILE] [--kill-after N]
                  [--truncate-tail BYTES] [--bench-out FILE] [--seed N] [--quick]
  gps-repro replay <JOURNAL> [--verify-digest HEX]
  gps-repro experiment <table51|fig51|fig52|theta_vs_m|extensions|fault_campaign|chaos|all>
                       [--paper-scale|--quick] [--seed N]
  gps-repro profile [<table51|fig51|fig52|extensions|all>] [--folded]
                    [--out <FILE>] [--seed N] [--paper-scale|--full]
  gps-repro inspect <DUMP> [--tail N] [--format text|json]
  gps-repro almanac [--out <FILE>]

THROUGHPUT (parallel batch positioning):
  --jobs N              worker threads (default: available parallelism);
                        the epoch stream is sharded across them and merged
                        back in deterministic epoch order
  --epochs N            stream length (default 2000; --quick: 240)
  --satellites M        satellites per epoch (default 8)

SERVE (fleet-scale positioning service):
  runs a supervised multi-receiver service round by round: per-receiver
  sessions with warm clock state, deadline budgets, bounded shard queues
  with quality-ordered shedding, and an optional crash-safe journal
  --sessions N          receivers in the fleet (default 16; --quick 8)
  --rounds N            ingest rounds (default 48; --quick 16)
  --jobs N              pool workers (default 4)
  --deadline-us N       per-epoch deadline budget, µs (default 250000)
  --queue-cap N         per-shard queue capacity (default 64)
  --journal FILE        append every served epoch to a GPSJRNL1 journal
  --kill-after N        stop serving after round N (simulated crash; the
                        journal keeps whatever was durable at that point)
  --truncate-tail BYTES chop BYTES off the journal tail after the run
                        (simulated torn write from a SIGKILL mid-append)
  --bench-out FILE      write the campaign report as JSON

REPLAY (post-crash journal recovery):
  rebuilds every receiver session from a GPSJRNL1 journal, re-running each
  journaled epoch and checking outcome bits and digest chains record by
  record; exits nonzero on any mismatch or malformed frame
  --verify-digest HEX   also require the replayed fleet digest to equal HEX

CHAOS (experiment chaos):
  the serve fleet under a seeded chaos schedule — worker panic storms,
  worker kills, stall injection, ingest burst overload, journal tail
  truncation — layered over signal faults; exits nonzero below the SLOs
  --slo-availability PCT  fix-availability floor (default 95)
  --sessions/--rounds N   fleet shape (default 16 x 40; --quick 8 x 24)
  --runtime-faults <spec> comma-separated runtime faults (default all:
                          panic_storm,worker_kill,stall,burst,
                          journal_truncation)
  --journal FILE          keep the journal at FILE (default: temp file)
  --bench-out FILE        write the campaign report as JSON

FAULT CAMPAIGN (experiment fault_campaign):
  --faults <spec>       comma-separated scenarios to inject (default
                        dropout,ramp,blackout). Known scenarios: dropout,
                        blackout, step, ramp, clock-jump, multipath,
                        corrupt, stale-base
  --fault-seed N        fault-plan RNG seed (default 42), independent of
                        the dataset seed
  --all-stations        fan the campaign across all four paper stations in
                        parallel (--jobs N workers, default all cores)

PROFILE (sampling profiler over the span tree):
  runs the named experiment (default fig51, quick scale) and prints the
  span aggregate: per-stack count, total time and exact-tail latency
  --folded              flamegraph folded-stack lines (stack weight_µs)
  --out FILE            write the profile to FILE instead of stdout

INSPECT (decode a flight-recorder dump):
  --tail N              only the last N records per worker
  --format text|json    per-worker timeline (default text) or JSON lines

TELEMETRY (any command):
  --log-level <trace|debug|info|warn|error>   human-readable events on stderr
  --telemetry-out <FILE>                      structured events + final metrics
                                              snapshot (enables detailed metrics)
  --metrics-format <jsonl|csv>                --telemetry-out format (default jsonl)
  --flight-recorder <FILE>                    dump per-worker flight-recorder
                                              rings to FILE at exit (and on any
                                              worker panic)"
    );
    ExitCode::FAILURE
}

/// Minimal flag parser: returns (positional args, flag lookups).
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut iter = raw.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = if iter.peek().is_some_and(|v| !v.starts_with("--")) {
                    iter.next()
                } else {
                    None
                };
                flags.push((name.to_owned(), value));
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }
}

/// Wires up the `--log-level` / `--telemetry-out` / `--metrics-format`
/// sinks. Returns whether any sink was registered (so `main` knows to
/// write the final metrics snapshot).
fn init_telemetry(args: &Args) -> Result<bool, String> {
    for name in [
        "log-level",
        "telemetry-out",
        "metrics-format",
        "flight-recorder",
    ] {
        if args.has(name) && args.flag(name).is_none() {
            return Err(format!("--{name} requires a value"));
        }
    }
    if let Some(path) = args.flag("flight-recorder") {
        gps_telemetry::recorder::recorder().set_dump_path(Some(Path::new(path).to_path_buf()));
    }
    let mut active = false;
    if let Some(level) = args.flag("log-level") {
        let level: Level = level.parse()?;
        gps_telemetry::add_sink(level, Box::new(StderrSink));
        active = true;
    }
    if let Some(path) = args.flag("telemetry-out") {
        let format: FileFormat = args.flag("metrics-format").unwrap_or("jsonl").parse()?;
        let sink = FileSink::create(Path::new(path), format)
            .map_err(|e| format!("--telemetry-out {path}: {e}"))?;
        gps_telemetry::add_sink(Level::Trace, Box::new(sink));
        // File capture wants the expensive observations too (condition
        // numbers, covariance-assembly timing).
        gps_telemetry::set_detail(true);
        active = true;
    } else if args.has("metrics-format") {
        return Err("--metrics-format requires --telemetry-out".to_owned());
    }
    Ok(active)
}

fn load_dataset(path: &str) -> Result<DataSet, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    format::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Resolves a `--station` id against the four Table 5.1 stations.
fn station_by_id(id: &str) -> Result<Station, String> {
    paper_stations()
        .into_iter()
        .find(|s| s.id() == id)
        .ok_or_else(|| format!("unknown station `{id}` (SRZN|YYR1|FAI1|KYCP)"))
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let station = station_by_id(args.flag("station").ok_or("--station is required")?)?;
    let out = args.flag("out").ok_or("--out is required")?;
    let epochs: usize = args.flag_parse("epochs", 2_880)?;
    let interval: f64 = args.flag_parse("interval", 30.0)?;
    let seed: u64 = args.flag_parse("seed", 2_010)?;
    let mask: f64 = args.flag_parse("mask", 5.0)?;

    let data = DatasetGenerator::new(seed)
        .epoch_interval_s(interval)
        .epoch_count(epochs)
        .elevation_mask_deg(mask)
        .generate(&station);
    fs::write(out, format::write(&data)).map_err(|e| format!("{out}: {e}"))?;
    let (smin, smax) = data.satellite_count_range();
    println!(
        "wrote {out}: {} epochs @ {interval}s, {smin}-{smax} satellites/epoch",
        data.epochs().len()
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let path = args.positional.get(1).ok_or("info needs a file argument")?;
    let data = load_dataset(path)?;
    let (smin, smax) = data.satellite_count_range();
    println!("station : {}", data.station());
    println!("epochs  : {}", data.epochs().len());
    println!("satellites/epoch: {smin}-{smax}");
    if let (Some(first), Some(last)) = (data.epochs().first(), data.epochs().last()) {
        println!(
            "span    : {} → {} ({:.1} h)",
            first.time(),
            last.time(),
            (last.time() - first.time()).as_hours()
        );
    }
    let resets = data
        .epochs()
        .iter()
        .filter(|e| e.truth().clock_reset)
        .count();
    println!("clock resets recorded: {resets}");
    Ok(())
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("solve needs a file argument")?;
    let data = load_dataset(path)?;
    let algorithm = args.flag("algorithm").unwrap_or("dlg");
    let m: usize = args.flag_parse("satellites", usize::MAX)?;

    let solver: Box<dyn Solver> = match algorithm {
        "nr" => Box::new(NewtonRaphson::default()),
        "dlo" => Box::new(Dlo::default()),
        "dlg" => Box::new(Dlg::default()),
        "bancroft" => Box::new(Bancroft),
        other => return Err(format!("unknown algorithm `{other}`")),
    };

    // Clock prediction for the direct methods: true per-epoch bias is in
    // the file's truth channel; a production caller would run the
    // gps-clock predictor instead (see examples/clock_calibration.rs).
    let truth = data.station().position();
    let mut errors = gps_repro::core::metrics::Summary::new();
    let mut failures = 0usize;
    let mut ctx = SolveContext::new();
    for epoch in data.epochs() {
        let meas = to_measurements(&epoch.take_satellites(m));
        if meas.len() < solver.min_satellites() {
            failures += 1;
            continue;
        }
        let bias = epoch.truth().clock_bias * gps_repro::geodesy::wgs84::SPEED_OF_LIGHT;
        match solver.solve(&Epoch::new(&meas, bias), &mut ctx) {
            Ok(fix) => errors.push(fix.position.distance_to(truth)),
            Err(_) => failures += 1,
        }
    }
    println!(
        "{}: {} epochs solved, {} failed",
        solver.name(),
        errors.count(),
        failures
    );
    if errors.count() > 0 {
        println!(
            "position error vs station truth: mean {:.2} m, rms {:.2} m, max {:.2} m",
            errors.mean(),
            errors.rms(),
            errors.max()
        );
    }
    Ok(())
}

fn cmd_engine(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("engine needs a file argument")?;
    let data = load_dataset(path)?;
    let m: usize = args.flag_parse("satellites", usize::MAX)?;
    let limit: usize = args.flag_parse("epochs", usize::MAX)?;

    let truth = data.station().position();
    let mut engine = Engine::all_solvers();
    let mut errors = vec![gps_repro::core::metrics::Summary::new(); engine.lanes().len()];
    for epoch in data.epochs().iter().take(limit) {
        let meas = to_measurements(&epoch.take_satellites(m));
        let bias = epoch.truth().clock_bias * gps_repro::geodesy::wgs84::SPEED_OF_LIGHT;
        engine.run_epoch(&meas, bias);
        for (lane, err) in engine.lanes().iter().zip(errors.iter_mut()) {
            if let Some(Ok(fix)) = lane.last() {
                err.push(fix.position.distance_to(truth));
            }
        }
    }
    println!(
        "engine: {} epochs through {} lanes",
        engine.epochs(),
        engine.lanes().len()
    );
    for (lane, err) in engine.lanes().iter().zip(&errors) {
        let stats = lane.stats();
        println!(
            "  {:<9} solved {:>5}  failed {:>5}  mean {:>8.1} µs  rms err {:.2} m",
            lane.name(),
            stats.solved,
            stats.failed,
            stats.mean_time().as_secs_f64() * 1e6,
            err.rms()
        );
    }
    Ok(())
}

/// Builds the throughput workload: a generated dataset reduced to
/// owned per-epoch measurement batches with truth-channel clock
/// predictions (the same inputs `cmd_engine` feeds serially).
fn throughput_stream(station: &Station, epochs: usize, m: usize, seed: u64) -> Vec<EpochJob> {
    let data = DatasetGenerator::new(seed)
        .epoch_interval_s(30.0)
        .epoch_count(epochs)
        .elevation_mask_deg(5.0)
        .generate(station);
    data.epochs()
        .iter()
        .map(|epoch| {
            let meas = to_measurements(&epoch.take_satellites(m));
            let bias = epoch.truth().clock_bias * gps_repro::geodesy::wgs84::SPEED_OF_LIGHT;
            EpochJob::new(meas, bias)
        })
        .collect()
}

/// `true` when two lane outcomes agree bit for bit: a fix field by
/// field, floats by `to_bits`; an error by its `Debug` text, which
/// prints every float it carries in round-trip form.
fn same_outcome(a: &Result<Solution, SolveError>, b: &Result<Solution, SolveError>) -> bool {
    let bits = |s: &Solution| {
        (
            [s.position.x, s.position.y, s.position.z, s.residual_rms].map(f64::to_bits),
            s.receiver_bias_m.map(f64::to_bits),
            s.iterations,
        )
    };
    match (a, b) {
        (Ok(a), Ok(b)) => bits(a) == bits(b),
        (Err(a), Err(b)) => format!("{a:?}") == format!("{b:?}"),
        _ => false,
    }
}

fn cmd_throughput(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let epochs: usize = args.flag_parse("epochs", if quick { 240 } else { 2_000 })?;
    let m: usize = args.flag_parse("satellites", 8)?;
    let seed: u64 = args.flag_parse("seed", 2_010)?;
    let jobs: usize = args.flag_parse("jobs", gps_repro::pool::available_parallelism())?;
    let station = station_by_id(args.flag("station").unwrap_or("SRZN"))?;
    if epochs == 0 {
        return Err("--epochs must be at least 1".to_owned());
    }

    println!(
        "throughput: {epochs} epochs × {m} satellites from {} (seed {seed})",
        station.id()
    );
    let stream = std::sync::Arc::new(throughput_stream(&station, epochs, m, seed));

    // The pool starts before the serial baseline, so its threads are up
    // by the time the parallel runs begin.
    let pool = ThreadPool::new(jobs);

    // Serial baseline: the batched Engine, timing disabled so both
    // paths run the identical per-epoch work and the wall clock is the
    // only measurement.
    let mut serial = Engine::all_solvers().with_timing(false);
    let serial_start = std::time::Instant::now();
    for job in stream.iter() {
        serial.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
    }
    let serial_elapsed = serial_start.elapsed();

    // One untimed pass right before the timed one, so every worker is
    // running, not waking from a long idle, when the timed run starts.
    let _ = ParallelEngine::all_solvers().run_shared(&pool, std::sync::Arc::clone(&stream));
    let run = ParallelEngine::all_solvers().run_shared(&pool, std::sync::Arc::clone(&stream));

    // Determinism check: every (epoch, lane) outcome of the parallel
    // merge must equal a serial engine's bit for bit, and every lane's
    // tallies must agree.
    if run.outcomes.len() != stream.len() {
        return Err(format!(
            "parallel run returned {} epochs for a {}-epoch stream",
            run.outcomes.len(),
            stream.len()
        ));
    }
    let mut reference = Engine::all_solvers().with_timing(false);
    for (index, (job, outcomes)) in stream.iter().zip(&run.outcomes).enumerate() {
        reference.run_epoch(&job.measurements, job.predicted_receiver_bias_m);
        if outcomes.len() != reference.lanes().len() {
            return Err(format!(
                "parallel run returned {} lane outcomes for epoch {index}",
                outcomes.len()
            ));
        }
        for (lane, parallel) in reference.lanes().iter().zip(outcomes) {
            if !lane
                .last()
                .is_some_and(|serial| same_outcome(serial, parallel))
            {
                return Err(format!(
                    "parallel/serial divergence at epoch {index} on {}: serial {:?} vs parallel {parallel:?}",
                    lane.name(),
                    lane.last()
                ));
            }
        }
    }
    for (lane, stats) in serial.lanes().iter().zip(&run.lane_stats) {
        if lane.stats().solved != stats.solved || lane.stats().failed != stats.failed {
            return Err(format!(
                "parallel/serial divergence on {}: serial {}/{} vs parallel {}/{}",
                lane.name(),
                lane.stats().solved,
                lane.stats().failed,
                stats.solved,
                stats.failed
            ));
        }
    }

    let serial_s = serial_elapsed.as_secs_f64();
    let parallel_s = run.elapsed.as_secs_f64();
    let speedup = if parallel_s > 0.0 {
        serial_s / parallel_s
    } else {
        0.0
    };
    println!(
        "serial   : {serial_s:>8.3} s  ({:>10.0} fixes/s total)",
        run.lane_stats.iter().map(|s| s.solved).sum::<u64>() as f64 / serial_s.max(1e-12)
    );
    println!(
        "parallel : {parallel_s:>8.3} s  ({:>10.0} fixes/s total)  jobs {}  speedup {speedup:.2}x",
        run.total_fixes_per_sec(),
        run.workers.len()
    );
    println!("per lane (fixes/s = solved epochs / batch wall-clock):");
    for (lane, stats) in run.lane_names.iter().zip(&run.lane_stats) {
        let serial_rate = stats.solved as f64 / serial_s.max(1e-12);
        let parallel_rate = stats.solved as f64 / parallel_s.max(1e-12);
        println!(
            "  {lane:<9} solved {:>6}  failed {:>4}  serial {serial_rate:>9.0}/s  parallel {parallel_rate:>9.0}/s  speedup {:>5.2}x",
            stats.solved,
            stats.failed,
            parallel_rate / serial_rate.max(1e-12),
        );
    }
    println!("per worker:");
    for w in &run.workers {
        println!(
            "  worker {:<2} epochs {:>6}  busy {:>8.3} s  utilization {:>5.1}%",
            w.worker,
            w.epochs,
            w.busy.as_secs_f64(),
            100.0 * w.utilization(run.elapsed)
        );
    }
    // Exact-tail lane latency from the HDR histograms the parallel
    // lanes feed (core.lane_solve_us.<solver>, ≤ ~1 % relative error),
    // over the warm-up pass and the timed one.
    // A worker times each lane once per chunk of epochs, so a sample is
    // that chunk's mean per-epoch latency: the tail shows slow chunks,
    // not single slow solves.
    let snap = gps_telemetry::snapshot();
    println!("lane latency, parallel chunk means (µs per epoch, exact-tail histogram):");
    for lane in &run.lane_names {
        let metric = format!("core.lane_solve_us.{lane}");
        let Some(h) = snap.histograms.iter().find(|h| h.name == metric) else {
            continue;
        };
        if h.count == 0 {
            continue;
        }
        println!(
            "  {lane:<9} p50 {:>8.1}  p90 {:>8.1}  p99 {:>8.1}  p999 {:>8.1}  max {:>8.1}",
            h.p50, h.p90, h.p99, h.p999, h.max
        );
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let quick = args.has("quick");
    let seed: u64 = args.flag_parse("seed", 2_010)?;
    let mut cfg = ServiceCampaignConfig::quick(seed);
    cfg.sessions = args.flag_parse("sessions", if quick { 8 } else { 16 })?;
    cfg.rounds = args.flag_parse("rounds", if quick { 16 } else { 48 })?;
    cfg.service.workers = args.flag_parse("jobs", cfg.service.workers)?;
    cfg.service.queue_capacity = args.flag_parse("queue-cap", cfg.service.queue_capacity)?;
    let deadline_us: u64 = args.flag_parse("deadline-us", 250_000)?;
    if deadline_us == 0 {
        return Err("--deadline-us must be at least 1".to_owned());
    }
    cfg.service.deadline = Duration::from_micros(deadline_us);
    if cfg.sessions == 0 || cfg.rounds == 0 {
        return Err("--sessions and --rounds must be at least 1".to_owned());
    }
    if cfg.service.workers == 0 || cfg.service.queue_capacity == 0 {
        return Err("--jobs and --queue-cap must be at least 1".to_owned());
    }
    let kill_after: usize = args.flag_parse("kill-after", usize::MAX)?;
    if kill_after == 0 {
        return Err("--kill-after must be at least 1".to_owned());
    }
    if kill_after < cfg.rounds {
        println!(
            "serve: simulated crash — service killed after round {kill_after} of {}",
            cfg.rounds
        );
        cfg.rounds = kill_after;
    }
    cfg.journal = args.flag("journal").map(PathBuf::from);
    let truncate_tail: u64 = args.flag_parse("truncate-tail", 0)?;
    if truncate_tail > 0 {
        if cfg.journal.is_none() {
            return Err("--truncate-tail requires --journal".to_owned());
        }
        cfg.runtime_faults = Some(RuntimeFaultPlan::new(seed).with(
            RuntimeFault::JournalTruncation {
                cut_bytes: truncate_tail,
            },
        ));
    }
    let report = run_service_campaign(&cfg).map_err(|e| format!("serve: {e}"))?;
    println!("{report}");
    println!("fleet digest {:016x}", report.fleet_digest);
    if let Some(out) = args.flag("bench-out") {
        fs::write(out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), String> {
    let path = args
        .positional
        .get(1)
        .ok_or("replay needs a journal file argument")?;
    let report = replay_journal(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "replay {path}: {} record(s), {} receiver(s), torn tail {}, malformed {}, mismatches {}",
        report.records,
        report.digests.len(),
        report.truncated,
        report.malformed,
        report.mismatches
    );
    let digest = fleet_digest(&report.digests);
    println!("fleet digest {digest:016x}");
    if let Some(expected) = args.flag("verify-digest") {
        let want = u64::from_str_radix(expected.trim_start_matches("0x"), 16)
            .map_err(|_| format!("--verify-digest: `{expected}` is not a hex digest"))?;
        if want != digest {
            return Err(format!(
                "fleet digest mismatch: journal replays to {digest:016x}, expected {want:016x}"
            ));
        }
        println!("fleet digest parity verified");
    }
    if !report.verified() {
        return Err(format!(
            "replay failed verification: {} mismatch(es), {} malformed record(s)",
            report.mismatches, report.malformed
        ));
    }
    Ok(())
}

fn cmd_chaos(args: &Args, seed: u64) -> Result<(), String> {
    let slo: f64 = args.flag_parse("slo-availability", 95.0)?;
    if !(0.0..=100.0).contains(&slo) {
        return Err("--slo-availability must be in [0, 100]".to_owned());
    }
    let mut cfg = ServiceCampaignConfig::chaos(seed);
    if args.has("quick") {
        cfg.sessions = 8;
        cfg.rounds = 24;
    }
    cfg.sessions = args.flag_parse("sessions", cfg.sessions)?;
    cfg.rounds = args.flag_parse("rounds", cfg.rounds)?;
    if cfg.sessions == 0 || cfg.rounds == 0 {
        return Err("--sessions and --rounds must be at least 1".to_owned());
    }
    if let Some(spec) = args.flag("runtime-faults") {
        cfg.runtime_faults = Some(RuntimeFaultPlan::from_spec(seed.wrapping_add(1), spec)?);
    }
    let keep_journal = args.flag("journal").is_some();
    let journal_path = args.flag("journal").map_or_else(
        || {
            std::env::temp_dir()
                .join(format!("gps-chaos-{}.jrnl", std::process::id()))
                .display()
                .to_string()
        },
        str::to_owned,
    );
    cfg.journal = Some(PathBuf::from(&journal_path));
    let report = run_service_campaign(&cfg).map_err(|e| format!("chaos: {e}"))?;
    println!("{report}");
    if let Some(out) = args.flag("bench-out") {
        fs::write(out, report.to_json()).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    if !keep_journal {
        let _ = fs::remove_file(&journal_path);
    }
    if !report.meets_slo(slo) {
        return Err(format!(
            "chaos SLO failed: availability {:.2}% (floor {slo}%), missed integrity {}, replay {}",
            report.availability_pct(),
            report.missed_integrity,
            report
                .journal
                .as_ref()
                .map_or("not run", |j| if j.replay_verified {
                    "verified"
                } else {
                    "FAILED"
                })
        ));
    }
    println!(
        "chaos SLOs met: availability {:.2}% >= {slo}%, zero missed integrity, replay verified",
        report.availability_pct()
    );
    Ok(())
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    let which = args.positional.get(1).map(String::as_str).unwrap_or("all");
    let seed: u64 = args.flag_parse("seed", 2_010)?;
    let cfg = if args.has("paper-scale") {
        ExperimentConfig::paper_scale(seed)
    } else if args.has("quick") {
        ExperimentConfig::quick(seed)
    } else {
        ExperimentConfig::new(seed)
    };
    match which {
        "chaos" => cmd_chaos(args, seed)?,
        "fault_campaign" => {
            let fault_seed: u64 = args.flag_parse("fault-seed", 42)?;
            let plan = match args.flag("faults") {
                Some(spec) => FaultPlan::from_spec(fault_seed, spec)?,
                None => FaultPlan::default_campaign(fault_seed),
            };
            if args.has("all-stations") {
                let jobs: usize =
                    args.flag_parse("jobs", gps_repro::pool::available_parallelism())?;
                for (label, report) in experiments::fault_campaign_fleet(&cfg, &plan, jobs) {
                    println!("== {label} ==");
                    println!("{report}");
                }
            } else {
                println!("{}", experiments::fault_campaign(&cfg, &plan));
            }
        }
        "table51" => println!("{}", experiments::table51(&cfg)),
        "fig51" => println!("{}", experiments::fig51(&cfg)),
        "fig52" => println!("{}", experiments::fig52(&cfg)),
        "theta_vs_m" => println!("{}", experiments::theta_vs_m(&cfg)),
        "extensions" => {
            println!("{}", experiments::ext_base_selection(&cfg));
            println!("{}", experiments::ext_gls_covariance(&cfg));
        }
        "all" => {
            println!("{}", experiments::table51(&cfg));
            println!("{}", experiments::fig51(&cfg));
            println!("{}", experiments::fig52(&cfg));
            println!("{}", experiments::theta_vs_m(&cfg));
            println!("{}", experiments::ext_base_selection(&cfg));
            println!("{}", experiments::ext_gls_covariance(&cfg));
        }
        other => return Err(format!("unknown experiment `{other}`")),
    }
    Ok(())
}

/// Tabular span aggregate: one row per distinct span stack, with HDR
/// exact-tail quantiles in microseconds.
fn render_span_table(snap: &gps_telemetry::Snapshot) -> String {
    let mut out = String::from(
        "stack                                 count   total ms    mean µs     p50 µs     p99 µs\n",
    );
    let mut any = false;
    for h in &snap.histograms {
        let Some(stack) = h.name.strip_prefix("span.") else {
            continue;
        };
        any = true;
        let mean = if h.count > 0 {
            h.sum / h.count as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<36} {:>6} {:>10.2} {:>10.1} {:>10.1} {:>10.1}\n",
            stack,
            h.count,
            h.sum / 1e3,
            mean,
            h.p50,
            h.p99
        ));
    }
    if !any {
        out.push_str("(no spans recorded)\n");
    }
    out
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let which = args
        .positional
        .get(1)
        .map(String::as_str)
        .unwrap_or("fig51");
    let seed: u64 = args.flag_parse("seed", 2_010)?;
    // Quick scale by default: the profile wants the span *shape*, not
    // paper-grade statistics.
    let cfg = if args.has("paper-scale") {
        ExperimentConfig::paper_scale(seed)
    } else if args.has("full") {
        ExperimentConfig::new(seed)
    } else {
        ExperimentConfig::quick(seed)
    };
    // Run the workload for its spans; the report itself is discarded
    // (use `experiment` for the numbers).
    let _report = match which {
        "table51" => experiments::table51(&cfg).to_string(),
        "fig51" => experiments::fig51(&cfg).to_string(),
        "fig52" => experiments::fig52(&cfg).to_string(),
        "extensions" => format!(
            "{}{}",
            experiments::ext_base_selection(&cfg),
            experiments::ext_gls_covariance(&cfg)
        ),
        "all" => format!(
            "{}{}{}{}{}",
            experiments::table51(&cfg),
            experiments::fig51(&cfg),
            experiments::fig52(&cfg),
            experiments::ext_base_selection(&cfg),
            experiments::ext_gls_covariance(&cfg)
        ),
        other => return Err(format!("unknown experiment `{other}`")),
    };
    let snap = gps_telemetry::snapshot();
    let rendered = if args.has("folded") {
        gps_telemetry::render_folded(&snap)
    } else {
        render_span_table(&snap)
    };
    match args.flag("out") {
        Some(path) => {
            fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {which} profile to {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// One human-readable clause per flight record, decoding tags and the
/// error/quality code tables.
fn describe_record(r: &gps_telemetry::FlightRecord) -> String {
    use gps_repro::core::FixQuality;
    use gps_telemetry::recorder::tag_text;
    use gps_telemetry::RecordKind as K;
    match r.kind() {
        Some(K::SpanEnter) => format!("span_enter  {}", tag_text(r.a)),
        Some(K::SpanExit) => format!("span_exit   {} ({} µs)", tag_text(r.a), r.b),
        Some(K::JobStart) => format!("job_start   seq {}", r.a),
        Some(K::JobEnd) => format!("job_end     seq {} (busy {} µs)", r.a, r.b),
        Some(K::JobPanic) => format!("job_panic   seq {}", r.a),
        Some(K::EpochStart) => format!("epoch_start {} satellites", r.code),
        // Older dumps wrote code 0 for a single epoch.
        Some(K::LaneSolve) => format!(
            "lane_solve  {} {} epoch(s) ({} ns)",
            tag_text(r.a),
            r.code.max(1),
            r.b
        ),
        Some(K::LaneError) => format!(
            "lane_error  {} {}",
            tag_text(r.a),
            SolveError::code_name(r.code).unwrap_or("unknown_error")
        ),
        Some(K::FixQuality) => format!(
            "fix_quality {} via {} (rung {})",
            FixQuality::code_name(r.code).unwrap_or("unknown_quality"),
            tag_text(r.a),
            r.b
        ),
        Some(K::Marker) => format!("marker      {}", tag_text(r.a)),
        None => format!("kind {} code {} a {} b {}", r.kind, r.code, r.a, r.b),
    }
}

/// Minimal JSON string escaper for inspect's `--format json` output
/// (tags and kind names are ASCII, but stay safe on unknown input).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    use gps_telemetry::FlightDump;
    let path = args
        .positional
        .get(1)
        .ok_or("inspect needs a dump file argument")?;
    let bytes = fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let dump = FlightDump::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let tail: usize = args.flag_parse("tail", usize::MAX)?;
    match args.flag("format").unwrap_or("text") {
        "json" => {
            for w in &dump.workers {
                let skip = w.records.len().saturating_sub(tail);
                for r in w.records.iter().skip(skip) {
                    let kind = r
                        .kind()
                        .map(|k| k.name().to_owned())
                        .unwrap_or_else(|| r.kind.to_string());
                    println!(
                        "{{\"worker\":{},\"t_us\":{},\"kind\":\"{}\",\"code\":{},\"epoch_id\":{},\"a\":{},\"b\":{},\"detail\":\"{}\"}}",
                        w.worker,
                        r.t_us,
                        json_escape(&kind),
                        r.code,
                        r.epoch_id,
                        r.a,
                        r.b,
                        json_escape(&describe_record(r))
                    );
                }
            }
        }
        "text" => {
            println!(
                "flight recorder dump {path}: {} worker(s), {} record(s), {} dropped",
                dump.workers.len(),
                dump.total_records(),
                dump.total_dropped()
            );
            for w in &dump.workers {
                println!(
                    "worker {}: {} record(s), {} dropped",
                    w.worker,
                    w.records.len(),
                    w.dropped
                );
                let skip = w.records.len().saturating_sub(tail);
                if skip > 0 {
                    println!("  … {skip} earlier record(s) hidden by --tail");
                }
                for r in w.records.iter().skip(skip) {
                    println!(
                        "  [{:>10} µs] epoch {:<5} {}",
                        r.t_us,
                        r.epoch_id,
                        describe_record(r)
                    );
                }
            }
        }
        other => return Err(format!("unknown --format `{other}` (text|json)")),
    }
    Ok(())
}

fn cmd_almanac(args: &Args) -> Result<(), String> {
    let text = yuma::write(&Constellation::gps_nominal());
    match args.flag("out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote YUMA almanac to {path} (31 satellites)");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1).collect());
    let Some(command) = args.positional.first().map(String::as_str) else {
        return usage();
    };
    let telemetry = match init_telemetry(&args) {
        Ok(active) => active,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command {
        "generate" => cmd_generate(&args),
        "info" => cmd_info(&args),
        "solve" => cmd_solve(&args),
        "engine" => cmd_engine(&args),
        "throughput" => cmd_throughput(&args),
        "serve" => cmd_serve(&args),
        "replay" => cmd_replay(&args),
        "experiment" => cmd_experiment(&args),
        "profile" => cmd_profile(&args),
        "inspect" => cmd_inspect(&args),
        "almanac" => cmd_almanac(&args),
        _ => return usage(),
    };
    if telemetry {
        gps_telemetry::snapshot().write_to_sinks();
        gps_telemetry::flush();
    }
    // Final flight-recorder dump: a no-op unless --flight-recorder set
    // a dump path (a panic mid-run may already have written one; this
    // overwrites it with the complete picture).
    if let Some((path, io)) = gps_telemetry::recorder::recorder().dump_now() {
        match io {
            Ok(()) => eprintln!("flight recorder: wrote {}", path.display()),
            Err(e) => eprintln!("flight recorder: writing {} failed: {e}", path.display()),
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
