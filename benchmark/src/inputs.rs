//! Seeded workload inputs, generated through `gps-obs` and `gps-faults`
//! before any timing starts.

use std::sync::Arc;

use gps_core::{EpochJob, Measurement};
use gps_faults::{FaultPlan, FaultScenario};
use gps_geodesy::{wgs84::SPEED_OF_LIGHT, Ecef};
use gps_obs::{paper_stations, DatasetGenerator, Station};
use gps_orbits::Constellation;
use gps_pool::ThreadPool;
use gps_sim::{select_subset, to_measurements};
use gps_telemetry::journal::fnv1a_words;

/// Epochs in one station-day at the paper's 30 s cadence.
const DAY_EPOCHS: usize = 2_880;
/// Elevation mask of every generated dataset, degrees.
const MASK_DEG: f64 = 5.0;

/// Which of an epoch's visible satellites a workload keeps.
#[derive(Debug, Clone, Copy)]
pub enum Selection {
    All,
    /// `m` satellites chosen by `select_subset` for spread geometry,
    /// as the paper's experiments choose them.
    Spread(usize),
    /// The `m` highest satellites, as an `m`-channel receiver tracks
    /// them; far cheaper to generate than `Spread` at large `m`.
    Highest(usize),
}

/// The satellite regime a workload's inputs are drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    /// Generate over `Constellation::multi_gnss_nominal` instead of GPS.
    pub multi_gnss: bool,
    /// Table 5.1 station ids; fleet receivers take them round-robin.
    pub stations: &'static [&'static str],
    /// Satellites kept per batch epoch.
    pub day: Selection,
    /// Satellites kept per fleet epoch.
    pub fleet: Selection,
    /// A seeded quarter of fleet receivers carries the signal-fault mix.
    pub faults: bool,
}

/// One station-day per regime station, flattened into one epoch stream
/// with truth-channel clock predictions.
#[derive(Debug)]
pub struct BatchDay {
    pub jobs: Arc<Vec<EpochJob>>,
    /// Station position of each epoch.
    pub truths: Vec<Ecef>,
}

/// One fleet receiver's 1 Hz stream.
#[derive(Debug)]
pub struct Receiver {
    pub id: u64,
    pub truth: Ecef,
    pub faulted: bool,
    pub epochs: Vec<Vec<Measurement>>,
}

fn station(id: &str) -> Station {
    paper_stations()
        .into_iter()
        .find(|s| s.id() == id)
        .expect("workload stations are Table 5.1 ids")
}

fn generator(regime: &Regime, seed: u64, interval_s: f64, epochs: usize) -> DatasetGenerator {
    let generator = DatasetGenerator::new(seed)
        .epoch_interval_s(interval_s)
        .epoch_count(epochs)
        .elevation_mask_deg(MASK_DEG);
    if regime.multi_gnss {
        generator.constellation(Constellation::multi_gnss_nominal())
    } else {
        generator
    }
}

fn measurements(
    selection: Selection,
    station: &Station,
    epoch: &gps_obs::Epoch,
) -> Vec<Measurement> {
    match selection {
        Selection::All => to_measurements(epoch.observations()),
        Selection::Spread(m) => to_measurements(&select_subset(station.position(), epoch, m)),
        Selection::Highest(m) => to_measurements(&epoch.take_satellites(m)),
    }
}

/// Generates the batch stream: every regime station × 24 h at 30 s.
pub fn batch_day(regime: &Regime, seed: u64) -> BatchDay {
    let mut jobs = Vec::new();
    let mut truths = Vec::new();
    for id in regime.stations {
        let station = station(id);
        let data = generator(regime, seed, 30.0, DAY_EPOCHS).generate(&station);
        for epoch in data.epochs() {
            let bias = epoch.truth().clock_bias * SPEED_OF_LIGHT;
            jobs.push(EpochJob::new(
                measurements(regime.day, &station, epoch),
                bias,
            ));
            truths.push(station.position());
        }
    }
    BatchDay {
        jobs: Arc::new(jobs),
        truths,
    }
}

/// Which receivers carry faults: a seeded quarter of each station's
/// receivers, so the faulted share is exact and spread over all stations.
fn faulted_receivers(seed: u64, receivers: usize, stations: usize) -> Vec<bool> {
    let mut faulted = vec![false; receivers];
    for first in 0..stations {
        let mut group: Vec<usize> = (first..receivers).step_by(stations).collect();
        group.sort_by_key(|&r| fnv1a_words(seed, &[r as u64]));
        for &r in &group[..group.len() / 4] {
            faulted[r] = true;
        }
    }
    faulted
}

/// Generates `receivers` 1 Hz streams of `epochs` epochs each, spread
/// over `pool`; receiver `r` streams from seed `seed + 1 + r`.
pub fn fleet(
    regime: &Regime,
    seed: u64,
    receivers: usize,
    epochs: usize,
    pool: &ThreadPool,
) -> Vec<Receiver> {
    let faulted = if regime.faults {
        faulted_receivers(seed, receivers, regime.stations.len())
    } else {
        vec![false; receivers]
    };
    let stations: Arc<Vec<Station>> =
        Arc::new(regime.stations.iter().map(|id| station(id)).collect());
    let regime = *regime;
    let items: Vec<(u64, bool)> = faulted
        .into_iter()
        .enumerate()
        .map(|(r, f)| (r as u64, f))
        .collect();
    pool.map(items, move |_, &(id, faulted)| {
        let station = &stations[id as usize % stations.len()];
        let stream_seed = seed.wrapping_add(1 + id);
        let mut data = generator(&regime, stream_seed, 1.0, epochs).generate(station);
        if faulted {
            data = FaultPlan::new(stream_seed)
                .with(FaultScenario::step())
                .with(FaultScenario::multipath())
                .with(FaultScenario::clock_jump())
                .with(FaultScenario::corruption())
                .apply(&data)
                .data;
        }
        Receiver {
            id,
            truth: station.position(),
            faulted,
            epochs: data
                .epochs()
                .iter()
                .map(|e| measurements(regime.fleet, station, e))
                .collect(),
        }
    })
    .expect("input generation jobs do not panic")
}

fn measurement_words(out: &mut Vec<u64>, measurements: &[Measurement]) {
    out.push(measurements.len() as u64);
    for m in measurements {
        out.extend([
            m.position.x.to_bits(),
            m.position.y.to_bits(),
            m.position.z.to_bits(),
            m.pseudorange.to_bits(),
            m.elevation.unwrap_or(f64::NAN).to_bits(),
        ]);
    }
}

/// FNV-1a digest of every generated input word, so a change to
/// `gps-obs` or `gps-faults` output shows as a changed workload.
pub fn digest(day: &BatchDay, fleet: &[Receiver]) -> u64 {
    let mut words = Vec::new();
    let mut hash = 0;
    for job in day.jobs.iter() {
        words.clear();
        words.push(job.predicted_receiver_bias_m.to_bits());
        measurement_words(&mut words, &job.measurements);
        hash = fnv1a_words(hash, &words);
    }
    for receiver in fleet {
        words.clear();
        words.extend([receiver.id, u64::from(receiver.faulted)]);
        for epoch in &receiver.epochs {
            measurement_words(&mut words, epoch);
        }
        hash = fnv1a_words(hash, &words);
    }
    hash
}
