//! Figure 5.1 — Execution Time Comparisons.
//!
//! Benchmarks one positioning solve per algorithm (NR, DLO, DLG, plus the
//! Bancroft baseline) for each satellite count in the paper's sweep
//! `m = 4..=10`, over realistic epochs from the SRZN dataset. The ratio
//! `DLO/NR` and `DLG/NR` of the reported times is the paper's
//! `θ = τ_O/τ_NR × 100 %` (eq. 5-3); the full four-dataset series is
//! printed by `cargo run --release --example reproduce_paper -- fig51`.
//!
//! Each algorithm is measured two ways: through the simple allocating
//! [`PositionSolver`] path (the `<ALGO>/{m}` ids) and through the
//! zero-allocation [`gps_core::Solver`] + [`SolveContext`] path with a
//! reused context (`<ALGO>-ctx/{m}`), which runs the same single kernel
//! per solver. `ctx` minus the simple path is the per-epoch cost of the
//! allocating wrapper.

use gps_bench::fixture_epochs;
use gps_bench::harness::{Harness, Throughput};
use gps_core::{Bancroft, Dlg, Dlo, Engine, Epoch, NewtonRaphson, PositionSolver, SolveContext};
use std::hint::black_box;

fn bench_solvers(h: &mut Harness) {
    let mut group = h.benchmark_group("fig51_exec_time");
    for m in [4usize, 5, 6, 7, 8, 9, 10] {
        let epochs = fixture_epochs(m, 51);
        if epochs.is_empty() {
            continue;
        }
        group.throughput(Throughput::Elements(epochs.len() as u64));

        let nr = NewtonRaphson::default();
        group.bench_with_input(&format!("NR/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(nr.solve(black_box(meas), 0.0));
                }
            })
        });
        group.bench_with_input(&format!("NR-ctx/{m}"), &epochs, |b, epochs| {
            let mut ctx = SolveContext::new();
            b.iter(|| {
                for meas in epochs {
                    let epoch = Epoch::new(black_box(meas), 0.0);
                    let _ = black_box(gps_core::Solver::solve(&nr, &epoch, &mut ctx));
                }
            })
        });

        // Warm-started NR (previous epoch's fix as the initial guess):
        // quantifies how much of NR's cost is the paper's cold start.
        group.bench_with_input(&format!("NR-warm/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                let mut warm = NewtonRaphson::default();
                for meas in epochs {
                    if let Ok(fix) = black_box(warm.solve(black_box(meas), 0.0)) {
                        warm = NewtonRaphson::default()
                            .with_initial(fix.position, fix.receiver_bias_m.unwrap_or(0.0));
                    }
                }
            })
        });

        let dlo = Dlo::default();
        group.bench_with_input(&format!("DLO/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(dlo.solve(black_box(meas), 12.0));
                }
            })
        });
        group.bench_with_input(&format!("DLO-ctx/{m}"), &epochs, |b, epochs| {
            let mut ctx = SolveContext::new();
            b.iter(|| {
                for meas in epochs {
                    let epoch = Epoch::new(black_box(meas), 12.0);
                    let _ = black_box(gps_core::Solver::solve(&dlo, &epoch, &mut ctx));
                }
            })
        });

        let dlg = Dlg::default();
        group.bench_with_input(&format!("DLG/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(dlg.solve(black_box(meas), 12.0));
                }
            })
        });
        group.bench_with_input(&format!("DLG-ctx/{m}"), &epochs, |b, epochs| {
            let mut ctx = SolveContext::new();
            b.iter(|| {
                for meas in epochs {
                    let epoch = Epoch::new(black_box(meas), 12.0);
                    let _ = black_box(gps_core::Solver::solve(&dlg, &epoch, &mut ctx));
                }
            })
        });

        let bancroft = Bancroft;
        group.bench_with_input(&format!("Bancroft/{m}"), &epochs, |b, epochs| {
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(bancroft.solve(black_box(meas), 0.0));
                }
            })
        });
        group.bench_with_input(&format!("Bancroft-ctx/{m}"), &epochs, |b, epochs| {
            let mut ctx = SolveContext::new();
            b.iter(|| {
                for meas in epochs {
                    let epoch = Epoch::new(black_box(meas), 0.0);
                    let _ = black_box(gps_core::Solver::solve(&bancroft, &epoch, &mut ctx));
                }
            })
        });

        // All four lanes through the batched Engine (per-lane warm
        // contexts, per-lane timing folded into the engine's own stats).
        group.bench_with_input(&format!("Engine/{m}"), &epochs, |b, epochs| {
            let mut engine = Engine::all_solvers();
            b.iter(|| {
                for meas in epochs {
                    let _ = black_box(engine.run_epoch(black_box(meas), 12.0));
                }
            })
        });
    }
    group.finish();
}

fn main() {
    let mut harness = Harness::new();
    bench_solvers(&mut harness);
}
