//! Epoch batching: several same-shape epochs handed to a solver at once.
//!
//! The per-epoch [`Solver`](crate::Solver) hot path is allocation-free
//! but *latency*-shaped: one epoch in, one fix out. Batch consumers —
//! the serial and parallel engines' `run_blocked`, the positioning
//! service draining a deep queue — hand the solvers many independent
//! epochs at once. [`EpochBlock`] is the unit of that batching: a
//! validated view over `1..=`[`BLOCK_LANES`] consecutive [`EpochJob`]s
//! with identical measurement counts, consumed by
//! [`crate::Solver::solve_block`]. Every solver runs the block through
//! its one per-epoch kernel, lane by lane, so each lane's result is
//! **bit-for-bit identical** to the per-epoch path and block mode only
//! changes how epochs are fed (one call per block instead of per epoch;
//! pinned by `tests/parallel_parity.rs` and the engine block tests).

use crate::{Epoch, EpochJob};

/// Maximum epochs an [`EpochBlock`] carries.
pub const BLOCK_LANES: usize = 8;

/// A validated view over consecutive same-shape epochs: every job has
/// the same measurement count and there are `1..=BLOCK_LANES` of them.
///
/// Every lane shares one geometry shape, so a consumer can size its
/// per-block scratch once.
#[derive(Debug, Clone, Copy)]
pub struct EpochBlock<'a> {
    jobs: &'a [EpochJob],
}

impl<'a> EpochBlock<'a> {
    /// Wraps `jobs` as a block if they satisfy the invariant:
    /// `1..=BLOCK_LANES` epochs, all with the same measurement count.
    /// Returns `None` otherwise.
    #[must_use]
    pub fn new(jobs: &'a [EpochJob]) -> Option<Self> {
        if jobs.is_empty() || jobs.len() > BLOCK_LANES {
            return None;
        }
        let m = jobs[0].measurements.len();
        if jobs.iter().any(|j| j.measurements.len() != m) {
            return None;
        }
        Some(EpochBlock { jobs })
    }

    /// Splits the longest valid block off the front of `stream`:
    /// consecutive epochs sharing the first epoch's measurement count,
    /// capped at `min(max_lanes, BLOCK_LANES)`. Returns the block and
    /// the untouched tail, or `None` for an empty stream.
    ///
    /// Driving this in a loop partitions any stream into blocks without
    /// reordering or copying epochs — mixed-shape streams just produce
    /// shorter blocks at the shape boundaries.
    #[must_use]
    pub fn split_first(stream: &'a [EpochJob], max_lanes: usize) -> Option<(Self, &'a [EpochJob])> {
        let first = stream.first()?;
        let m = first.measurements.len();
        let cap = max_lanes.clamp(1, BLOCK_LANES);
        let lanes = stream
            .iter()
            .take(cap)
            .take_while(|j| j.measurements.len() == m)
            .count();
        Some((
            EpochBlock {
                jobs: &stream[..lanes],
            },
            &stream[lanes..],
        ))
    }

    /// Number of epochs (lanes) in the block, `1..=BLOCK_LANES`.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.jobs.len()
    }

    /// The shared per-epoch measurement count.
    #[must_use]
    pub fn measurements_per_epoch(&self) -> usize {
        self.jobs[0].measurements.len()
    }

    /// The underlying jobs, lane order.
    #[must_use]
    pub fn jobs(&self) -> &'a [EpochJob] {
        self.jobs
    }

    /// Lane `lane` as a borrowed [`Epoch`].
    ///
    /// # Panics
    ///
    /// Panics if `lane >= self.lanes()`.
    #[must_use]
    pub fn epoch(&self, lane: usize) -> Epoch<'a> {
        let job = &self.jobs[lane];
        Epoch::new(&job.measurements, job.predicted_receiver_bias_m)
    }

    /// Iterates the lanes as borrowed [`Epoch`]s, lane order.
    pub fn epochs(&self) -> impl Iterator<Item = Epoch<'a>> + '_ {
        self.jobs
            .iter()
            .map(|job| Epoch::new(&job.measurements, job.predicted_receiver_bias_m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Measurement;
    use gps_geodesy::Ecef;

    fn job(m: usize, bias: f64) -> EpochJob {
        let truth = Ecef::new(6.371e6, 1.0e5, -2.0e5);
        let sats = [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ];
        let meas: Vec<Measurement> = sats
            .iter()
            .take(m)
            .map(|&s| Measurement::new(s, s.distance_to(truth)))
            .collect();
        EpochJob::new(meas, bias)
    }

    #[test]
    fn new_enforces_the_invariant() {
        let jobs: Vec<EpochJob> = (0..4).map(|i| job(6, i as f64)).collect();
        let block = EpochBlock::new(&jobs).unwrap();
        assert_eq!(block.lanes(), 4);
        assert_eq!(block.measurements_per_epoch(), 6);
        assert_eq!(block.jobs().len(), 4);
        assert_eq!(block.epoch(2).predicted_receiver_bias_m, 2.0);
        assert_eq!(block.epochs().count(), 4);

        assert!(EpochBlock::new(&[]).is_none());
        let mixed = vec![job(6, 0.0), job(5, 0.0)];
        assert!(EpochBlock::new(&mixed).is_none());
        let too_many: Vec<EpochJob> = (0..BLOCK_LANES + 1).map(|_| job(4, 0.0)).collect();
        assert!(EpochBlock::new(&too_many).is_none());
    }

    #[test]
    fn split_first_partitions_at_shape_boundaries() {
        let stream = vec![job(6, 0.0), job(6, 1.0), job(5, 2.0), job(5, 3.0)];
        let (block, rest) = EpochBlock::split_first(&stream, 8).unwrap();
        assert_eq!(block.lanes(), 2);
        assert_eq!(block.measurements_per_epoch(), 6);
        assert_eq!(rest.len(), 2);
        let (block, rest) = EpochBlock::split_first(rest, 8).unwrap();
        assert_eq!(block.lanes(), 2);
        assert_eq!(block.measurements_per_epoch(), 5);
        assert!(rest.is_empty());
        assert!(EpochBlock::split_first(rest, 8).is_none());
    }

    #[test]
    fn split_first_honors_the_lane_cap() {
        let stream: Vec<EpochJob> = (0..BLOCK_LANES + 4).map(|_| job(6, 0.0)).collect();
        let (block, rest) = EpochBlock::split_first(&stream, 4).unwrap();
        assert_eq!(block.lanes(), 4);
        assert_eq!(rest.len(), BLOCK_LANES);
        // A zero or oversized cap clamps to the valid range.
        let (block, _) = EpochBlock::split_first(&stream, 0).unwrap();
        assert_eq!(block.lanes(), 1);
        let (block, _) = EpochBlock::split_first(&stream, 999).unwrap();
        assert_eq!(block.lanes(), BLOCK_LANES);
    }
}
