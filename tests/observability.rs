//! Integration tests for the observability pipeline: flight-recorder
//! dumps end to end through `gps-repro inspect`, exact-tail lane
//! latency in `throughput`, and the folded-stack profiler.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gps-repro"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gps_repro_obs_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn throughput_reports_exact_tail_lane_latency() {
    let out = bin()
        .args(["throughput", "--jobs", "1", "--epochs", "20"])
        .output()
        .expect("throughput runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("lane latency"), "{text}");
    for lane in ["NR", "DLO", "DLG", "Bancroft"] {
        let row = text
            .lines()
            .find(|l| l.contains("p50") && l.trim_start().starts_with(lane))
            .unwrap_or_else(|| panic!("no latency row for {lane}: {text}"));
        for column in ["p50", "p90", "p99", "p999", "max"] {
            assert!(row.contains(column), "{lane} row missing {column}: {row}");
        }
    }
}

#[test]
fn flight_recorder_dump_round_trips_through_inspect() {
    let dir = temp_dir("dump");
    let dump = dir.join("flight.bin");

    let out = bin()
        .args([
            "throughput",
            "--jobs",
            "2",
            "--epochs",
            "10",
            "--flight-recorder",
        ])
        .arg(&dump)
        .output()
        .expect("throughput runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("flight recorder: wrote"),
        "no dump confirmation on stderr"
    );
    assert!(dump.exists());

    let out = bin()
        .arg("inspect")
        .arg(&dump)
        .output()
        .expect("inspect runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("worker 0:"), "{text}");
    assert!(text.contains("epoch_start 8 satellites"), "{text}");
    assert!(text.contains("lane_solve  NR"), "{text}");
    assert!(text.contains("job_end"), "{text}");

    // --tail trims each worker to its most recent records.
    let out = bin()
        .arg("inspect")
        .arg(&dump)
        .args(["--tail", "3"])
        .output()
        .expect("inspect runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hidden by --tail"), "{text}");

    // JSON mode: every record line is a JSON object naming its worker.
    let out = bin()
        .arg("inspect")
        .arg(&dump)
        .args(["--format", "json"])
        .output()
        .expect("inspect runs");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.is_empty());
    for line in text.lines() {
        assert!(
            line.starts_with("{\"worker\":") && line.ends_with('}'),
            "not a JSON record line: {line}"
        );
    }
    assert!(text.contains("\"kind\":\"lane_solve\""), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_decodes_the_dump_of_a_panicked_job() {
    let dir = temp_dir("panic");
    let dump = dir.join("panic.bin");

    // Drive the pool's panic-isolation path directly: a panicking job
    // must leave a JobPanic record and drain every ring to the dump
    // path, exactly what a crashed production run would leave behind.
    gps_telemetry::recorder::recorder().set_dump_path(Some(dump.clone()));
    {
        let pool = gps_repro::pool::ThreadPool::new(1);
        pool.submit(|| {
            let _ = std::hint::black_box(1 + 1);
        });
        pool.submit(|| panic!("injected crash for the observability test"));
        // Dropping the pool joins the workers, after the panic handler
        // has drained the rings to the dump path.
    }
    gps_telemetry::recorder::recorder().set_dump_path(None);
    assert!(dump.exists(), "panic did not write the flight dump");

    let out = bin()
        .arg("inspect")
        .arg(&dump)
        .output()
        .expect("inspect runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("job_panic"), "no panic record in: {text}");
    assert!(text.contains("job_start"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_rejects_garbage_and_missing_files() {
    let dir = temp_dir("garbage");
    let bad = dir.join("not_a_dump.bin");
    std::fs::write(&bad, b"definitely not GPSFREC1 data").expect("write");

    let out = bin()
        .arg("inspect")
        .arg(&bad)
        .output()
        .expect("inspect runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("error:"),
        "garbage accepted"
    );

    let out = bin()
        .args(["inspect", "/definitely/not/there.bin"])
        .output()
        .expect("inspect runs");
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_folded_emits_flamegraph_stacks() {
    let out = bin()
        .args(["profile", "fig51", "--folded", "--seed", "3"])
        .output()
        .expect("profile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fig51;epoch "), "no nested stack: {text}");
    for line in text.lines() {
        let mut parts = line.rsplitn(2, ' ');
        let weight = parts.next().expect("weight column");
        assert!(
            weight.parse::<u64>().is_ok(),
            "weight is not an integer: {line}"
        );
        assert!(parts.next().is_some(), "no stack column: {line}");
    }
}

#[test]
fn profile_table_mode_shows_exact_tails() {
    let out = bin()
        .args(["profile", "fig51", "--seed", "3"])
        .output()
        .expect("profile runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("p50"), "{text}");
    assert!(text.contains("p99"), "{text}");
    assert!(text.contains("fig51/epoch"), "{text}");

    let out = bin()
        .args(["profile", "nonsense"])
        .output()
        .expect("profile runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}
