//! Golden digest of every `Session` outcome on long faulted streams.
//!
//! One seeded 1 Hz stream per Table 5.1 station, 300 epochs each, carries
//! the full signal-fault mix (dropout, blackout, step, clock jump,
//! multipath, NaN/∞ corruption). Each stream runs through a fresh
//! `Session`; a seeded subset of epochs, including one run longer than the
//! holdover budget, goes through `expire_deadline` instead of `process`,
//! so the kinematic holdover and its exhaustion both run. Every outcome
//! (quality, source, position bits, exclusions, dropped count, residual
//! and solved-bias bits, or the error code) and, after every epoch, the
//! predicted clock bias and the session digest are folded into one
//! FNV-1a digest.
//!
//! GDOP stays out: it only enters the geometry gate and the shedding
//! score, and its last bits depend on how the cofactor diagonal is
//! computed. A rewrite of the session's bookkeeping (filter, DOP,
//! sanitizing) that claims to keep every fix must leave `GOLDEN`
//! unchanged.

use gps_faults::{FaultPlan, FaultScenario};
use gps_obs::{paper_stations, DatasetGenerator};
use gps_repro::core::{FixQuality, ResilientFix, Session, SolveError};
use gps_rng::rngs::StdRng;
use gps_rng::{Rng, SeedableRng};
use gps_sim::to_measurements;
use gps_telemetry::journal::fnv1a_words;

/// The digest of every outcome below, recorded from the session as it
/// stood before its allocation-free rewrite.
const GOLDEN: u64 = 0x915e_7fcc_6edc_55e3;

/// Epochs per stream: past the median first missed-integrity epoch of
/// long faulted runs, so the filter and clock model run long.
const EPOCHS: usize = 300;

/// Share of epochs whose deadline expires before they are solved.
const EXPIRY_RATE: f64 = 0.03;

/// Consecutive expiries in one burst per stream: more than the default
/// holdover budget of 5, so the burst ends in `DeadlineExceeded`.
const BURST: usize = 7;

/// Tallies proving that the digest covered every outcome kind.
#[derive(Debug, Default)]
struct Coverage {
    nominal: usize,
    degraded: usize,
    holdover: usize,
    excluded: usize,
    dropped: usize,
    deadline_errors: usize,
    other_errors: usize,
}

fn fix_words(fix: &ResilientFix) -> Vec<u64> {
    let mut words = vec![
        0,
        u64::from(fix.quality.code()),
        fix.position.x.to_bits(),
        fix.position.y.to_bits(),
        fix.position.z.to_bits(),
        fix.excluded.len() as u64,
    ];
    words.extend(fix.excluded.iter().map(|&i| i as u64));
    words.extend([
        fix.dropped_non_finite as u64,
        fix.residual_rms.map_or(u64::MAX, f64::to_bits),
        fix.receiver_bias_m.map_or(u64::MAX, f64::to_bits),
    ]);
    words.extend(fix.source.bytes().map(u64::from));
    words
}

fn outcome_words(outcome: &Result<ResilientFix, SolveError>, coverage: &mut Coverage) -> Vec<u64> {
    match outcome {
        Ok(fix) => {
            match fix.quality {
                FixQuality::Nominal => coverage.nominal += 1,
                FixQuality::Degraded => coverage.degraded += 1,
                FixQuality::Holdover => coverage.holdover += 1,
            }
            coverage.excluded += usize::from(!fix.excluded.is_empty());
            coverage.dropped += usize::from(fix.dropped_non_finite > 0);
            fix_words(fix)
        }
        Err(e) => {
            if matches!(e, SolveError::DeadlineExceeded { .. }) {
                coverage.deadline_errors += 1;
            } else {
                coverage.other_errors += 1;
            }
            vec![1, u64::from(e.code())]
        }
    }
}

fn digest_all() -> (u64, usize, Coverage) {
    let mut hash = 0;
    let mut outcomes = 0;
    let mut coverage = Coverage::default();
    for (k, station) in paper_stations().iter().enumerate() {
        let seed = 0x5E55_1000 + k as u64;
        let data = DatasetGenerator::new(seed)
            .epoch_interval_s(1.0)
            .epoch_count(EPOCHS)
            .elevation_mask_deg(5.0)
            .generate(station);
        let faulted = FaultPlan::new(seed)
            .with(FaultScenario::dropout())
            .with(FaultScenario::blackout())
            .with(FaultScenario::step())
            .with(FaultScenario::clock_jump())
            .with(FaultScenario::multipath())
            .with(FaultScenario::corruption())
            .apply(&data)
            .data;
        let mut rng = StdRng::seed_from_u64(seed);
        let burst_start = rng.gen_range(40..EPOCHS - BURST);
        let mut session = Session::new(k as u64);
        for (i, epoch) in faulted.epochs().iter().enumerate() {
            let in_burst = (burst_start..burst_start + BURST).contains(&i);
            let expire = in_burst || rng.gen_range(0.0..1.0) < EXPIRY_RATE;
            let outcome = if expire {
                session.expire_deadline(1.0, 2_000)
            } else {
                session.process(&to_measurements(epoch.observations()), 1.0)
            };
            hash = fnv1a_words(hash, &outcome_words(&outcome, &mut coverage));
            hash = fnv1a_words(
                hash,
                &[session.predicted_bias_m().to_bits(), session.digest()],
            );
            outcomes += 1;
        }
    }
    (hash, outcomes, coverage)
}

#[test]
fn every_session_outcome_matches_the_golden_digest() {
    let (digest, outcomes, coverage) = digest_all();
    assert_eq!(outcomes, paper_stations().len() * EPOCHS);
    assert!(coverage.nominal > 0, "{coverage:?}");
    assert!(coverage.degraded > 0, "{coverage:?}");
    assert!(coverage.holdover > 0, "{coverage:?}");
    assert!(coverage.excluded > 0, "{coverage:?}");
    assert!(coverage.dropped > 0, "{coverage:?}");
    assert!(coverage.deadline_errors > 0, "{coverage:?}");
    assert_eq!(
        digest, GOLDEN,
        "session outcomes changed: digest {digest:#018x} over {outcomes} outcomes, {coverage:?}"
    );
}
