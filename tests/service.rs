//! End-to-end tests of the positioning service: the `serve` and
//! `replay` commands, crash-safe journal recovery across processes, and
//! the chaos campaign's SLO gate.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gps-repro"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gps_repro_service_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Pulls the `fleet digest <hex>` line out of command output.
fn fleet_digest_of(stdout: &str) -> String {
    stdout
        .lines()
        .filter_map(|l| l.trim().strip_prefix("fleet digest "))
        .filter_map(|rest| rest.split_whitespace().next())
        .find(|token| token.len() == 16 && token.chars().all(|c| c.is_ascii_hexdigit()))
        .unwrap_or_else(|| panic!("no fleet digest line in:\n{stdout}"))
        .to_owned()
}

/// The live fleet digest of `serve --quick --seed 99`, the same in debug
/// and release builds: a service change that moves any outcome moves it.
const SERVE_QUICK_SEED_99_DIGEST: &str = "7ad6b7f27af442a4";

#[test]
fn serve_then_replay_has_fleet_digest_parity() {
    let dir = temp_dir("parity");
    let journal = dir.join("fleet.jrnl");

    let serve = bin()
        .args([
            "serve",
            "--quick",
            "--seed",
            "99",
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("serve runs");
    let serve_out = String::from_utf8_lossy(&serve.stdout);
    assert!(serve.status.success(), "{serve_out}");
    let live_digest = fleet_digest_of(&serve_out);
    assert_eq!(live_digest, SERVE_QUICK_SEED_99_DIGEST, "{serve_out}");

    // A fresh process rebuilds every session from the journal alone and
    // must land on the identical fleet digest.
    let replay = bin()
        .args([
            "replay",
            journal.to_str().expect("utf-8 path"),
            "--verify-digest",
            &live_digest,
        ])
        .output()
        .expect("replay runs");
    let replay_out = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success(),
        "{replay_out}\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(replay_out.contains("parity verified"), "{replay_out}");
    assert_eq!(fleet_digest_of(&replay_out), live_digest);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn killed_and_torn_journal_still_replays_clean() {
    let dir = temp_dir("torn");
    let journal = dir.join("torn.jrnl");

    // Crash mid-run (kill after 7 of 16 rounds) with a torn tail write.
    let serve = bin()
        .args([
            "serve",
            "--quick",
            "--seed",
            "7",
            "--kill-after",
            "7",
            "--truncate-tail",
            "41",
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("serve runs");
    assert!(
        serve.status.success(),
        "{}",
        String::from_utf8_lossy(&serve.stdout)
    );

    // Replay must absorb the torn tail (stop at the last intact frame)
    // and verify every surviving record bit-for-bit.
    let replay = bin()
        .args(["replay", journal.to_str().expect("utf-8 path")])
        .output()
        .expect("replay runs");
    let replay_out = String::from_utf8_lossy(&replay.stdout);
    assert!(
        replay.status.success(),
        "{replay_out}\n{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    assert!(replay_out.contains("torn tail true"), "{replay_out}");
    assert!(replay_out.contains("mismatches 0"), "{replay_out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_rejects_a_wrong_digest_and_garbage_input() {
    let dir = temp_dir("reject");
    let journal = dir.join("ok.jrnl");
    let serve = bin()
        .args([
            "serve",
            "--quick",
            "--sessions",
            "4",
            "--rounds",
            "6",
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("serve runs");
    assert!(serve.status.success());

    let wrong = bin()
        .args([
            "replay",
            journal.to_str().expect("utf-8 path"),
            "--verify-digest",
            "deadbeef",
        ])
        .output()
        .expect("replay runs");
    assert!(!wrong.status.success());
    assert!(
        String::from_utf8_lossy(&wrong.stderr).contains("digest mismatch"),
        "{}",
        String::from_utf8_lossy(&wrong.stderr)
    );

    let garbage = dir.join("garbage.jrnl");
    std::fs::write(&garbage, b"not a journal at all").expect("write");
    let bad = bin()
        .args(["replay", garbage.to_str().expect("utf-8 path")])
        .output()
        .expect("replay runs");
    assert!(!bad.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_campaign_meets_slos_and_emits_bench_json() {
    let dir = temp_dir("chaos");
    let bench = dir.join("bench.json");

    let chaos = bin()
        .args([
            "experiment",
            "chaos",
            "--quick",
            "--seed",
            "2010",
            "--bench-out",
            bench.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("chaos runs");
    let out = String::from_utf8_lossy(&chaos.stdout);
    assert!(
        chaos.status.success(),
        "{out}\n{}",
        String::from_utf8_lossy(&chaos.stderr)
    );
    for needle in ["availability", "p99", "shed", "restarts", "SLOs met"] {
        assert!(out.contains(needle), "missing `{needle}` in:\n{out}");
    }

    let json = std::fs::read_to_string(&bench).expect("bench json");
    for needle in [
        "\"bench\": \"service\"",
        "availability_pct",
        "missed_integrity",
        "replay_verified\": true",
    ] {
        assert!(json.contains(needle), "missing `{needle}` in:\n{json}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_gate_fails_on_an_impossible_slo() {
    // A 100.5%-style floor can't be met — but 100 is legal input, so
    // drive the failure with an unachievable floor via flag validation
    // instead: an out-of-range floor is rejected up front.
    let out = bin()
        .args([
            "experiment",
            "chaos",
            "--quick",
            "--slo-availability",
            "101",
        ])
        .output()
        .expect("chaos runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("slo-availability"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
