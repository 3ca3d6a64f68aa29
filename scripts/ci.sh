#!/usr/bin/env sh
# Offline CI gate for the workspace: formatting, lints, a release build
# (benches included, so the harness-based bench files stay compiling),
# the full test suite, CLI smoke runs, and the verdict of the benchmark
# of record (benchmark/). No network access required.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release (workspace, all targets)"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> gps-lint (workspace static analysis, 10s wall-clock budget)"
lint_start=$(date +%s)
if ! cargo run --release --offline -q -p gps-lint -- --no-report; then
    echo "gps-lint: non-allowlisted findings (re-run without --no-report for JSON)"
    exit 1
fi
lint_elapsed=$(( $(date +%s) - lint_start ))
echo "gps-lint: workspace pass took ${lint_elapsed}s"
if [ "$lint_elapsed" -gt 10 ]; then
    echo "gps-lint: workspace pass exceeded the 10s wall-clock budget"
    exit 1
fi

echo "==> gps-lint negative check (violating fixture must fail)"
if cargo run --release --offline -q -p gps-lint -- \
    --root crates/lint/tests/fixtures/violating --no-report >/dev/null 2>&1; then
    echo "gps-lint: violating fixture unexpectedly passed — the gate is broken"
    exit 1
fi

echo "==> gps-lint v2 negative checks (each violating fixture must trip its rule)"
for pair in \
    no_alloc_transitive:no_alloc \
    lock_order:lock_order \
    atomic_discipline:atomic_discipline \
    cast_truncation:cast_truncation \
    bounded_loop:bounded_loop; do
    dir=${pair%%:*}
    rule=${pair##*:}
    if cargo run --release --offline -q -p gps-lint -- --no-report --rule "$rule" \
        --root "crates/lint/tests/fixtures/v2/$dir/violating" >/dev/null 2>&1; then
        echo "gps-lint: v2 fixture $dir unexpectedly passed rule $rule — the gate is broken"
        exit 1
    fi
    if ! cargo run --release --offline -q -p gps-lint -- --no-report --rule "$rule" \
        --root "crates/lint/tests/fixtures/v2/$dir/clean" >/dev/null 2>&1; then
        echo "gps-lint: v2 clean mirror $dir failed rule $rule — false positive"
        exit 1
    fi
done

echo "==> engine smoke (one epoch through every solver lane)"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release --offline -q -- generate --station SRZN \
    --epochs 1 --out "$tmpdir/smoke.gpsobs"
out=$(cargo run --release --offline -q -- engine "$tmpdir/smoke.gpsobs" --epochs 1)
echo "$out"
echo "$out" | grep -q "engine: 1 epochs through 4 lanes" \
    || { echo "smoke: engine did not run 4 lanes"; exit 1; }
echo "$out" | grep "failed" | grep -vq "failed     0" \
    && { echo "smoke: a lane failed the clean epoch"; exit 1; }

echo "==> throughput smoke (2 workers, quick stream, parity enforced)"
out=$(cargo run --release --offline -q -- throughput --jobs 2 --quick)
echo "$out"
echo "$out" | grep -q "jobs 2" || { echo "smoke: pool did not run 2 workers"; exit 1; }
echo "$out" | grep -q "per lane" || { echo "smoke: no per-lane table"; exit 1; }
echo "$out" | grep "failed" | grep -vq "failed    0" \
    && { echo "smoke: a lane failed on the clean stream"; exit 1; }

echo "==> flight recorder smoke (record one epoch, decode the dump)"
out=$(cargo run --release --offline -q -- throughput --jobs 1 --epochs 1 \
    --flight-recorder "$tmpdir/flight.bin" 2>&1)
echo "$out" | grep -q "flight recorder: wrote" \
    || { echo "smoke: no flight-recorder dump written"; exit 1; }
out=$(cargo run --release --offline -q -- inspect "$tmpdir/flight.bin")
echo "$out" | head -n 8
echo "$out" | grep -q "worker 0:" || { echo "smoke: inspect shows no worker"; exit 1; }
echo "$out" | grep -q "lane_solve" || { echo "smoke: inspect shows no lane records"; exit 1; }

echo "==> throughput tail-latency smoke (exact p50/p99 per lane)"
out=$(cargo run --release --offline -q -- throughput --jobs 1 --quick)
echo "$out" | grep -q "lane latency" || { echo "smoke: no lane-latency table"; exit 1; }
echo "$out" | grep -q "p99" || { echo "smoke: no p99 column"; exit 1; }

echo "==> benchmark of record (build benchmark/, every workload's verdict must read correct)"
# benchmark/ is its own Cargo workspace on the crates' public APIs, so
# building it here catches an API change that would break it. Its exact
# verdict checks the parallel, blocked and serial batch paths against a
# serial reference and the fleet's journal replay against the live run.
# The run exits 0 whatever the verdict, so the last stdout line itself
# is checked.
bench_start=$(date +%s)
CARGO_TARGET_DIR=.bench_build cargo build --release --offline -q \
    --manifest-path benchmark/Cargo.toml \
    || { echo "benchmark: benchmark/ does not build against the workspace"; exit 1; }
for workload in batch_m8 batch_m40 fleet; do
    CARGO_TARGET_DIR=.bench_build cargo run --release --offline -q \
        --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 \
        >"$tmpdir/bench.out" 2>"$tmpdir/bench.err" \
        || { cat "$tmpdir/bench.err"; echo "benchmark: $workload exited nonzero"; exit 1; }
    last=$(tail -n 1 "$tmpdir/bench.out")
    case "$last" in
        '{"correct": true'*) echo "benchmark: $workload correct" ;;
        *)
            cat "$tmpdir/bench.err"
            echo "benchmark: $workload verdict is not correct: ${last:-<empty>}"
            exit 1
            ;;
    esac
done
echo "benchmark: build and three workloads took $(( $(date +%s) - bench_start ))s"

echo "==> theta-vs-m smoke (structured vs dense-cov DLG out to m = 40)"
out=$(cargo run --release --offline -q -- experiment theta_vs_m --quick)
echo "$out"
echo "$out" | grep -q "to 40 satellites" \
    || { echo "smoke: theta_vs_m did not run the large-constellation sweep"; exit 1; }
echo "$out" | grep -Eq "^ +40 " \
    || { echo "smoke: theta_vs_m produced no m = 40 row"; exit 1; }

echo "==> GLS-path ablation smoke (structured/whitened/explicit sweep, quick samples)"
out=$(GPS_BENCH_QUICK=1 cargo bench --offline -q -p gps-bench --bench ablation_gls_cov 2>&1)
echo "$out" | grep "dlg/structured" || { echo "smoke: ablation ran no structured cells"; exit 1; }
echo "$out" | grep -q "dlg/structured/m40" \
    || { echo "smoke: ablation did not reach m = 40"; exit 1; }
echo "$out" | grep -q "dlg/explicit-inv/m40" \
    || { echo "smoke: ablation skipped the explicit-inverse lane"; exit 1; }

echo "==> fault campaign smoke (dropout+ramp must degrade, not panic)"
out=$(cargo run --release --offline -q -- experiment fault_campaign --quick --faults dropout,ramp)
echo "$out"
echo "$out" | grep -q "availability" || { echo "smoke: no availability line"; exit 1; }
echo "$out" | grep -q "availability 100.0%" && { echo "smoke: expected availability < 100%"; exit 1; }
echo "$out" | grep -q "degraded 0 " && { echo "smoke: expected degraded > 0"; exit 1; }
echo "$out" | grep -q "holdover 0 " && { echo "smoke: expected the holdover fallback path"; exit 1; }

echo "==> service smoke (serve -> kill -> replay parity in a fresh process)"
out=$(cargo run --release --offline -q -- serve --quick --seed 2010 \
    --journal "$tmpdir/fleet.jrnl")
echo "$out"
digest=$(echo "$out" | sed -n 's/^fleet digest \([0-9a-f]\{16\}\)$/\1/p' | head -n 1)
[ -n "$digest" ] || { echo "smoke: serve printed no fleet digest"; exit 1; }
cargo run --release --offline -q -- replay "$tmpdir/fleet.jrnl" \
    --verify-digest "$digest" \
    || { echo "smoke: journal replay lost digest parity"; exit 1; }
# Replay splits the journal by receiver into one partition per available
# core; on one CPU it runs a single partition and must agree.
taskset -c 0 cargo run --release --offline -q -- replay "$tmpdir/fleet.jrnl" \
    --verify-digest "$digest" \
    || { echo "smoke: one-CPU journal replay lost digest parity"; exit 1; }
# Replay streams the journal in 1 MiB chunks; this one (6,144 records,
# about 3.4 MB) spans several. Its digest does not depend on scheduling.
cargo run --release --offline -q -- serve --quick --seed 2010 --sessions 64 --rounds 96 \
    --journal "$tmpdir/chunks.jrnl" >/dev/null
cargo run --release --offline -q -- replay "$tmpdir/chunks.jrnl" \
    --verify-digest 8632e62a55f148a4 \
    || { echo "smoke: multi-chunk journal replay lost digest parity"; exit 1; }
taskset -c 0 cargo run --release --offline -q -- replay "$tmpdir/chunks.jrnl" \
    --verify-digest 8632e62a55f148a4 \
    || { echo "smoke: one-CPU multi-chunk journal replay lost digest parity"; exit 1; }

echo "==> torn-journal smoke (kill mid-run + torn tail must replay clean)"
cargo run --release --offline -q -- serve --quick --seed 7 --kill-after 7 \
    --truncate-tail 41 --journal "$tmpdir/torn.jrnl" >/dev/null
out=$(cargo run --release --offline -q -- replay "$tmpdir/torn.jrnl")
echo "$out"
echo "$out" | grep -q "torn tail true" || { echo "smoke: torn tail not detected"; exit 1; }
echo "$out" | grep -q "mismatches 0" || { echo "smoke: torn journal replay mismatched"; exit 1; }

echo "==> chaos campaign smoke (SLO gate: availability >= 95%, honest fixes, clean replay)"
out=$(cargo run --release --offline -q -- experiment chaos --quick --seed 2010) \
    || { echo "chaos: SLO gate failed"; exit 1; }
echo "$out"
echo "$out" | grep -q "worker restarts" || { echo "chaos: no restart accounting"; exit 1; }
echo "$out" | grep -q "SLOs met" || { echo "chaos: SLO line missing"; exit 1; }

echo "==> BENCH_service.json is committed and well-formed"
grep -q '"bench": "service"' BENCH_service.json \
    || { echo "BENCH_service.json missing or malformed"; exit 1; }
grep -q '"missed_integrity": 0' BENCH_service.json \
    || { echo "BENCH_service.json records missed-integrity events"; exit 1; }
grep -q '"replay_verified": true' BENCH_service.json \
    || { echo "BENCH_service.json records a failed replay"; exit 1; }

echo "CI gate passed."
