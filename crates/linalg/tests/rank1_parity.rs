//! Parity between the structured Sherman–Morrison GLS kernel and the
//! dense GLS path on the same rank-one-plus-diagonal covariance.
//!
//! `gls_rank1` never materializes `Ψ = rank1·𝟙𝟙ᵀ + diag(d)`; these tests
//! build the dense Ψ from the same `(rank1, d)` draws and require the two
//! lanes to agree. The Sherman–Morrison algebra is exact, so on
//! well-conditioned systems agreement is pinned at ULP level (relative
//! 1e-12); ill-conditioned diagonals get a looser documented bound. The
//! `t = 1 + rank1·𝟙ᵀD⁻¹𝟙 → 0` guard must reject exactly when the dense
//! Cholesky does.

use gps_linalg::lstsq::{self, GlsStrategy, LstsqScratch};
use gps_linalg::{LinalgError, Matrix, Vector};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};

const CASES: usize = 32;

fn random_system(rng: &mut StdRng, m: usize, n: usize) -> (Matrix, Vector) {
    let a = Matrix::from_fn(m, n, |_, _| rng.gen_range(-10.0..10.0));
    let b = Vector::from(
        (0..m)
            .map(|_| rng.gen_range(-10.0..10.0))
            .collect::<Vec<f64>>(),
    );
    (a, b)
}

/// The dense Ψ the structured kernel refuses to build.
fn dense_psi(rank1: f64, diag: &[f64]) -> Matrix {
    Matrix::from_fn(diag.len(), diag.len(), |r, c| {
        if r == c {
            rank1 + diag[r]
        } else {
            rank1
        }
    })
}

fn solve_dense(a: &Matrix, b: &Vector, rank1: f64, diag: &[f64]) -> Result<Vector, LinalgError> {
    let mut scratch = LstsqScratch::new();
    let mut x = Vector::default();
    lstsq::gls_into(
        a,
        b,
        &dense_psi(rank1, diag),
        GlsStrategy::Whitened,
        &mut scratch,
        &mut x,
    )?;
    Ok(x)
}

fn assert_close(structured: &[f64], dense: &[f64], rel_tol: f64, what: &str) {
    assert_eq!(structured.len(), dense.len(), "{what}: length mismatch");
    for (i, (s, d)) in structured.iter().zip(dense).enumerate() {
        let scale = d.abs().max(1.0);
        assert!(
            (s - d).abs() <= rel_tol * scale,
            "{what}: component {i}: structured {s:e} vs dense {d:e}"
        );
    }
}

#[test]
fn structured_matches_dense_gls_to_ulp_level_up_to_m_40() {
    let mut rng = StdRng::seed_from_u64(0x5A1C_0001);
    for n in [3usize, 4, 5] {
        for m in [n + 1, 8, 10, 16, 20, 28, 40] {
            for _ in 0..CASES {
                let (a, b) = random_system(&mut rng, m, n);
                let rank1 = rng.gen_range(0.0..4.0);
                let diag: Vec<f64> = (0..m).map(|_| rng.gen_range(0.2..5.0)).collect();
                let structured = lstsq::gls_rank1(&a, &b, rank1, &diag)
                    .unwrap_or_else(|e| panic!("structured failed (m={m}, n={n}): {e}"));
                let dense = solve_dense(&a, &b, rank1, &diag)
                    .unwrap_or_else(|e| panic!("dense failed (m={m}, n={n}): {e}"));
                assert_close(
                    structured.as_slice(),
                    dense.as_slice(),
                    1e-12,
                    &format!("m={m} n={n}"),
                );
            }
        }
    }
}

#[test]
fn structured_survives_ill_conditioned_diagonals() {
    // Diagonal entries spanning ten orders of magnitude. D⁻¹ is exact
    // per-entry arithmetic, so the structured path keeps full precision
    // where the dense whitening has to factor the badly-scaled Ψ; when
    // both succeed they must still agree to a conditioning-limited
    // tolerance.
    let mut rng = StdRng::seed_from_u64(0x5A1C_0002);
    let mut both_succeeded = 0usize;
    for m in [6usize, 12, 24, 40] {
        for _ in 0..CASES {
            let (a, b) = random_system(&mut rng, m, 3);
            let rank1 = rng.gen_range(0.0..2.0);
            let diag: Vec<f64> = (0..m)
                .map(|_| 10.0f64.powf(rng.gen_range(-6.0..4.0)))
                .collect();
            let structured = lstsq::gls_rank1(&a, &b, rank1, &diag);
            let dense = solve_dense(&a, &b, rank1, &diag);
            match (structured, dense) {
                (Ok(s), Ok(d)) => {
                    both_succeeded += 1;
                    // κ(AᵀΨ⁻¹A) reaches ~1e10 at this diagonal spread, so
                    // the two algebraically-equal routes can differ in the
                    // last ~6 of 16 digits; the ULP-level pin lives in the
                    // well-conditioned sweep above.
                    assert_close(s.as_slice(), d.as_slice(), 1e-3, &format!("ill-cond m={m}"));
                }
                // The structured path may outlive the dense
                // factorization near the conditioning edge (that is its
                // selling point); the reverse would be a bug.
                (Ok(_), Err(_)) => {}
                (Err(se), Err(_)) => {
                    assert!(
                        matches!(
                            se,
                            LinalgError::NotPositiveDefinite { .. } | LinalgError::Singular
                        ),
                        "unexpected structured error class: {se}"
                    );
                }
                (Err(se), Ok(_)) => {
                    panic!("structured failed (m={m}) where dense succeeded: {se}")
                }
            }
        }
    }
    assert!(
        both_succeeded >= CASES,
        "only {both_succeeded} cases exercised the agreement check"
    );
}

#[test]
fn t_guard_rejects_exactly_when_psi_loses_definiteness() {
    // With unit diagonal, Ψ = rank1·𝟙𝟙ᵀ + I has eigenvalues {1, t} where
    // t = 1 + rank1·m: Ψ is PD ⟺ t > 0. Walk rank1 across the boundary
    // and require the structured guard and the dense Cholesky to flip at
    // the same draw.
    let mut rng = StdRng::seed_from_u64(0x5A1C_0003);
    for m in [4usize, 10, 25, 40] {
        let (a, b) = random_system(&mut rng, m, 3);
        let diag = vec![1.0; m];
        let critical = -1.0 / m as f64;
        for scale in [0.5, 0.9, 0.999, 1.001, 1.1, 2.0] {
            let rank1 = critical * scale;
            let t = 1.0 + rank1 * m as f64;
            let structured = lstsq::gls_rank1(&a, &b, rank1, &diag);
            let dense = solve_dense(&a, &b, rank1, &diag);
            if t > 0.0 {
                let s = structured.unwrap_or_else(|e| {
                    panic!("structured rejected PD system (m={m}, t={t:e}): {e}")
                });
                let d = dense
                    .unwrap_or_else(|e| panic!("dense rejected PD system (m={m}, t={t:e}): {e}"));
                // Near t → 0⁺ the system is genuinely ill-conditioned;
                // scale the bound by 1/t.
                assert_close(
                    s.as_slice(),
                    d.as_slice(),
                    1e-9 / t.min(1.0),
                    &format!("t={t:e}"),
                );
            } else {
                assert_eq!(
                    structured.unwrap_err(),
                    LinalgError::NotPositiveDefinite { pivot: m - 1 },
                    "structured guard missed t = {t:e} (m={m})"
                );
                assert!(
                    dense.is_err(),
                    "dense accepted an indefinite Ψ (m={m}, t={t:e})"
                );
            }
        }
    }
}

#[test]
fn zero_rank1_unit_diag_is_bit_identical_to_ols() {
    // Identity covariance degenerates the structured path to OLS with
    // weights exactly 1.0 and γ exactly 0 — every correction term is an
    // exact no-op, so the agreement is bit-for-bit, not just close.
    let mut rng = StdRng::seed_from_u64(0x5A1C_0005);
    for m in [4usize, 9, 17, 33] {
        let (a, b) = random_system(&mut rng, m, 3);
        let diag = vec![1.0; m];
        let structured = lstsq::gls_rank1(&a, &b, 0.0, &diag).unwrap();
        let mut scratch = LstsqScratch::new();
        let mut x = Vector::default();
        lstsq::ols_into(&a, &b, &mut scratch, &mut x).unwrap();
        for (i, (s, o)) in structured.as_slice().iter().zip(x.as_slice()).enumerate() {
            assert_eq!(s.to_bits(), o.to_bits(), "component {i} differs (m={m})");
        }
    }
}
