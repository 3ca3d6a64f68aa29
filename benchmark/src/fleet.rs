//! Fleet family: receivers served by `PositioningService` in open-loop
//! bursts at a fixed rate and in closed-loop bursts, then the run's
//! journal replayed with `replay_journal`.
//!
//! Every receiver's next 1 Hz epoch arrives in the same burst (receivers
//! align to GPS time), so one burst is one service round.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gps_core::{
    replay_journal, Disposition, FixQuality, IngestResult, PositioningService, RoundResult,
    ServiceConfig, Session, SessionEpoch, SolveError,
};
use gps_sim::MISSED_INTEGRITY_FLOOR_M;
use gps_telemetry::journal::{JournalReader, JournalWriter};

use crate::inputs::Receiver;
use crate::report::{Rate, Report, Samples, Verdict};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Per-epoch deadline and the p99 latency limit.
const DEADLINE: Duration = Duration::from_millis(250);
/// Journal fsync batch. The journal lives in the benchmark's own
/// directory, which need not be memory-backed; deferring `sync_data` to
/// the end of the run makes appends cost what they cost on a
/// memory-backed filesystem, as the fleet workload specifies, instead of
/// the host disk's fsync latency.
const FSYNC_EVERY: usize = usize::MAX;
/// `Session` fits its clock model with an NR pre-solve over its first
/// eight epochs.
const CALIBRATION_EPOCHS: usize = 8;
/// Records in the journal copies the self-test replays.
const SELF_TEST_RECORDS: usize = 2_000;
/// The open-loop generator sleeps until this long before a burst is due
/// and spins the rest, so a late wake-up does not delay the burst.
const SPIN: Duration = Duration::from_millis(1);
/// `ResilientFix::source` names, in report order.
const RUNGS: [(&str, &str); 5] = [
    ("DLG", "dlg"),
    ("DLO", "dlo"),
    ("NR", "nr"),
    ("Bancroft", "bancroft"),
    ("holdover", "holdover"),
];

#[derive(Debug, Default)]
struct Tally {
    nominal: u64,
    degraded: u64,
    holdover: u64,
    expired: u64,
    deadline_errors: u64,
    no_fix: u64,
    missed_integrity: u64,
    sq_error: f64,
    fixes: u64,
    rungs: [u64; 5],
    raim_exclusions: u64,
    non_finite_dropped: u64,
}

#[derive(Debug)]
pub struct Fleet {
    receivers: Vec<Receiver>,
    service: PositioningService,
    journal: PathBuf,
    workers: usize,
    /// Index of the next epoch every receiver sends.
    next: usize,
    waits_ms: Vec<f64>,
    offered: u64,
    shed: u64,
    /// Outcomes received per receiver, which is also the next sequence
    /// number its session must report.
    served: Vec<u64>,
    out_of_order: u64,
    tally: Tally,
    /// The current open-loop burst's epoch latencies, ms.
    burst_ms: Vec<f64>,
    /// Per-burst p50 and p99 of every open-loop burst.
    p50_ms: Samples,
    p99_ms: Samples,
    late_ms: f64,
    closed_rate: Rate,
    outcome_latency_us: Vec<f64>,
    shard_skew: Vec<f64>,
    /// Copy of the journal as set-up left it, replayed once per cycle.
    sample: PathBuf,
    sample_records: usize,
    sample_replays_clean: bool,
    replay_rate: Rate,
    journal_records: usize,
}

impl Fleet {
    /// Starts the service with its journal in `dir`, runs
    /// `warmup_bursts` untimed bursts, which carry every session through
    /// its clock calibration, and keeps a copy of the journal they wrote
    /// as the replay sample.
    pub fn new(
        receivers: Vec<Receiver>,
        workers: usize,
        dir: &Path,
        warmup_bursts: usize,
    ) -> io::Result<Self> {
        let journal = dir.join("service.jrnl");
        let config = ServiceConfig {
            workers,
            shards: workers,
            queue_capacity: receivers.len(),
            deadline: DEADLINE,
            journal_fsync_every: FSYNC_EVERY,
            ..ServiceConfig::default()
        };
        let service = PositioningService::new(config).with_journal(&journal)?;
        let n = receivers.len();
        let mut fleet = Fleet {
            receivers,
            service,
            journal,
            workers,
            next: 0,
            waits_ms: vec![0.0; n],
            offered: 0,
            shed: 0,
            served: vec![0; n],
            out_of_order: 0,
            tally: Tally::default(),
            burst_ms: Vec::new(),
            p50_ms: Samples::default(),
            p99_ms: Samples::default(),
            late_ms: 0.0,
            closed_rate: Rate::default(),
            outcome_latency_us: Vec::new(),
            shard_skew: Vec::new(),
            sample: dir.join("replay-sample.jrnl"),
            sample_records: warmup_bursts * n,
            sample_replays_clean: true,
            replay_rate: Rate::default(),
            journal_records: 0,
        };
        let mut tracer = Tracer::new(false, 0);
        for _ in 0..warmup_bursts {
            fleet.burst(None, &mut tracer);
        }
        fleet.service.sync_journal()?;
        fs::copy(&fleet.journal, &fleet.sample)?;
        fleet.outcome_latency_us.clear();
        fleet.shard_skew.clear();
        Ok(fleet)
    }

    pub fn receivers(&self) -> &[Receiver] {
        &self.receivers
    }

    /// Sends every receiver's next epoch and serves the round. With
    /// `due`, the burst is open-loop: each epoch's latency runs from
    /// `due` to its outcome, and the burst's p50 and p99 are recorded.
    fn burst(&mut self, due: Option<Instant>, tracer: &mut Tracer) {
        let k = self.next;
        self.next += 1;
        let n = self.receivers.len() as u64;
        let mut shed = 0u64;
        tracer.span("service.ingest", n, |_| {
            for r in &self.receivers {
                let epoch = SessionEpoch {
                    receiver: r.id,
                    dt_s: 1.0,
                    measurements: r.epochs[k].clone(),
                };
                if let IngestResult::Shed { .. } = self.service.ingest(epoch) {
                    shed += 1;
                }
                if let Some(due) = due {
                    self.waits_ms[r.id as usize] = due.elapsed().as_secs_f64() * 1e3;
                }
            }
        });
        self.offered += n;
        self.shed += shed;
        let round = tracer.span("service.process_round", n, |_| self.service.process_round());
        if due.is_some() {
            self.burst_ms.clear();
            for o in &round.outcomes {
                let ms = self.waits_ms[o.receiver as usize] + o.latency_us as f64 / 1e3;
                self.burst_ms.push(ms);
            }
            // A shed epoch never gets an outcome: it misses any limit.
            self.burst_ms.extend((0..shed).map(|_| f64::MAX));
            self.burst_ms.sort_by(f64::total_cmp);
            let on = tracer.is_on();
            self.p50_ms.push(on, percentile(&self.burst_ms, 0.50));
            self.p99_ms.push(on, percentile(&self.burst_ms, 0.99));
        }
        self.absorb(&round);
    }

    fn absorb(&mut self, round: &RoundResult) {
        let shards = self.workers.max(1);
        let mut shard_max = vec![0u64; shards];
        for o in &round.outcomes {
            let r = o.receiver as usize;
            if o.seq != self.served[r] {
                self.out_of_order += 1;
            }
            self.served[r] += 1;
            self.outcome_latency_us.push(o.latency_us as f64);
            let shard = &mut shard_max[r % shards];
            *shard = (*shard).max(o.latency_us);
            let t = &mut self.tally;
            if o.disposition == Disposition::DeadlineExpired {
                t.expired += 1;
            }
            match &o.result {
                Ok(fix) => {
                    let err = fix.position.distance_to(self.receivers[r].truth);
                    match fix.quality {
                        FixQuality::Nominal => {
                            t.nominal += 1;
                            if err.is_nan() || err > MISSED_INTEGRITY_FLOOR_M {
                                t.missed_integrity += 1;
                            }
                        }
                        FixQuality::Degraded => t.degraded += 1,
                        FixQuality::Holdover => t.holdover += 1,
                    }
                    if err.is_finite() {
                        t.sq_error += err * err;
                        t.fixes += 1;
                    }
                    if let Some(rung) = RUNGS.iter().position(|(source, _)| *source == fix.source) {
                        t.rungs[rung] += 1;
                    }
                    t.raim_exclusions += fix.excluded.len() as u64;
                    t.non_finite_dropped += fix.dropped_non_finite as u64;
                }
                Err(SolveError::DeadlineExceeded { .. }) => t.deadline_errors += 1,
                Err(_) => t.no_fix += 1,
            }
        }
        if shard_max.len() > 1 && shard_max.iter().all(|&m| m > 0) {
            let max = *shard_max.iter().max().unwrap_or(&1) as f64;
            let min = *shard_max.iter().min().unwrap_or(&1) as f64;
            self.shard_skew.push(max / min);
        }
    }

    /// Open loop: `bursts` bursts, one every `interval`, each epoch timed
    /// from its burst's scheduled send time.
    pub fn open_loop(&mut self, bursts: usize, interval: Duration, tracer: &mut Tracer) {
        let start = Instant::now();
        for b in 0..bursts {
            let due = start + interval * b as u32;
            let now = Instant::now();
            if now + SPIN < due {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            self.late_ms = self.late_ms.max(due.elapsed().as_secs_f64() * 1e3);
            self.burst(Some(due), tracer);
        }
    }

    /// Closed loop: `bursts` bursts back to back.
    pub fn closed_loop(&mut self, bursts: usize, tracer: &mut Tracer) {
        let start = Instant::now();
        for _ in 0..bursts {
            self.burst(None, tracer);
        }
        let epochs = (bursts * self.receivers.len()) as f64;
        self.closed_rate
            .add(tracer.is_on(), epochs, start.elapsed().as_secs_f64());
    }

    /// Crash recovery: replays the set-up journal copy, which must
    /// verify every time.
    pub fn replay_sample(&mut self, tracer: &mut Tracer) -> io::Result<()> {
        let start = Instant::now();
        let replay = tracer.span("replay.sample", self.sample_records as u64, |_| {
            replay_journal(&self.sample)
        })?;
        let secs = start.elapsed().as_secs_f64();
        self.sample_replays_clean &= replay.verified() && replay.records == self.sample_records;
        self.replay_rate
            .add(tracer.is_on(), replay.records as f64, secs);
        Ok(())
    }

    /// Serves anything a failed round left queued, makes the journal
    /// durable, and replays all of it for the verdict.
    pub fn finish(&mut self, tracer: &mut Tracer) -> io::Result<gps_core::ReplayReport> {
        for _ in 0..4 {
            let round = self.service.process_round();
            let idle = round.expected_shards == 0;
            self.absorb(&round);
            if idle {
                break;
            }
        }
        self.service.sync_journal()?;
        let records = self.served.iter().sum::<u64>();
        let replay = tracer.span("replay.replay_journal", records, |_| {
            replay_journal(&self.journal)
        })?;
        self.journal_records = replay.records;
        Ok(replay)
    }

    /// Feeds each receiver's stream through a fresh `Session` on this
    /// thread; returns the per-receiver digests.
    fn serial_reference(&self, tracer: &mut Tracer) -> Vec<(u64, u64)> {
        let mut digests: Vec<(u64, u64)> = self
            .receivers
            .iter()
            .map(|r| {
                let epochs = &r.epochs[..self.next];
                let mut session = Session::new(r.id);
                tracer.span("session.process", epochs.len() as u64, |t| {
                    let calibration = CALIBRATION_EPOCHS.min(epochs.len());
                    t.span("session.calibration", calibration as u64, |_| {
                        for m in &epochs[..calibration] {
                            let _ = session.process(m, 1.0);
                        }
                    });
                    for m in &epochs[calibration..] {
                        let _ = session.process(m, 1.0);
                    }
                });
                (r.id, session.digest())
            })
            .collect();
        digests.sort_unstable();
        digests
    }

    /// Self-test copies: the first `records` journal records re-framed
    /// into `clean` as they are, and into `flipped` with the lowest bit
    /// of one record's last word (the session digest) flipped.
    fn journal_copies(&self, records: usize, clean: &Path, flipped: &Path) -> io::Result<()> {
        let reader = JournalReader::open(&self.journal)?;
        let mut clean = JournalWriter::create(clean, FSYNC_EVERY)?;
        let mut flipped = JournalWriter::create(flipped, FSYNC_EVERY)?;
        for (i, words) in reader.records().iter().take(records).enumerate() {
            clean.append(words)?;
            let mut words = words.clone();
            if i == records / 2 {
                if let Some(last) = words.last_mut() {
                    *last ^= 1;
                }
            }
            flipped.append(&words)?;
        }
        clean.sync()?;
        flipped.sync()
    }

    /// Timing-free checks: replay parity, exact accounting of every
    /// offered epoch, and, when nothing was shed or expired, parity with
    /// a serial per-session reference.
    pub fn verify(
        &self,
        replay: &gps_core::ReplayReport,
        dir: &Path,
        tracer: &mut Tracer,
        report: &mut Report,
        verdict: &mut Verdict,
    ) -> io::Result<()> {
        let live = self.service.session_digests();
        let outcomes: u64 = self.served.iter().sum();
        verdict.check(
            replay.mismatches == 0 && replay.malformed == 0 && !replay.truncated,
            format!(
                "fleet: replay of {} records has 0 mismatches ({}), 0 malformed ({}), no torn tail",
                replay.records, replay.mismatches, replay.malformed
            ),
        );
        verdict.check(
            replay.records as u64 == outcomes,
            format!(
                "fleet: the journal holds one record per outcome ({} vs {outcomes})",
                replay.records
            ),
        );
        verdict.check(
            replay.digests == live,
            "fleet: replayed per-receiver digests equal the live service's".into(),
        );
        verdict.check(
            self.sample_replays_clean,
            format!(
                "fleet: every timed replay of the {}-record set-up journal verifies",
                self.sample_records
            ),
        );
        verdict.check(
            self.offered == outcomes + self.shed && self.out_of_order == 0,
            format!(
                "fleet: every offered epoch is accounted for once ({} offered = {outcomes} outcomes + {} shed; {} out of sequence)",
                self.offered, self.shed, self.out_of_order
            ),
        );
        let reference = self.serial_reference(tracer);
        if self.shed == 0 && self.tally.expired == 0 {
            verdict.check(
                reference == live,
                "fleet: live digests equal a serial reference of fresh Sessions".into(),
            );
        } else {
            report.note(
                "fleet: epochs were shed or expired, so the serial reference is not comparable"
                    .into(),
            );
        }

        // Self-tests: a flipped digest bit and a flipped journal word.
        let mut flipped = live.clone();
        let at = flipped.len() / 2;
        flipped[at].1 ^= 1;
        verdict.self_test(
            replay.digests != flipped,
            "fleet: a one-bit flip in one live digest turns the verdict incorrect",
        );
        let records = SELF_TEST_RECORDS.min(replay.records);
        let clean_copy = dir.join("selftest-clean.jrnl");
        let flipped_copy = dir.join("selftest-flipped.jrnl");
        self.journal_copies(records, &clean_copy, &flipped_copy)?;
        let clean = replay_journal(&clean_copy)?;
        let dirty = replay_journal(&flipped_copy)?;
        fs::remove_file(&clean_copy)?;
        fs::remove_file(&flipped_copy)?;
        verdict.self_test(
            clean.verified() && clean.records == records && !dirty.verified(),
            "fleet: a one-bit flip in one journal word turns the replay check incorrect",
        );

        let t = &self.tally;
        report.e2e(
            "fleet_rms_error_m",
            (t.sq_error / t.fixes as f64).sqrt(),
            "m",
        );
        report.attempt(
            "fleet offered epochs",
            self.offered,
            self.shed + t.deadline_errors + t.no_fix + t.missed_integrity,
        );
        report.note(format!(
            "fleet outcomes: nominal {}, degraded {}, holdover {}; shed {}, expired {}, deadline errors {}, no fix {}, missed integrity {}",
            t.nominal, t.degraded, t.holdover, self.shed, t.expired, t.deadline_errors, t.no_fix, t.missed_integrity
        ));
        Ok(())
    }

    pub fn report(&self, report: &mut Report) {
        report.latency("p50_latency_ms", &self.p50_ms);
        report.latency("p99_latency_ms", &self.p99_ms);
        report.rate("fleet_epochs_per_s", &self.closed_rate, "epochs/s");
        report.rate("replay_epochs_per_s", &self.replay_rate, "epochs/s");
    }

    /// Per-layer metrics of the traced run: session, resilient, service
    /// and journal.
    pub fn layers(&self, dir: &Path, tracer: &mut Tracer, report: &mut Report) -> io::Result<()> {
        let session_ns = tracer.ns_per_item("session.process");
        report.layer("session.ns_per_epoch", session_ns, "ns");
        report.layer(
            "session.calibration_share",
            tracer.total_ns("session.calibration") / tracer.total_ns("session.process"),
            "ratio",
        );
        let t = &self.tally;
        for ((_, rung), count) in RUNGS.iter().zip(t.rungs) {
            report.layer(&format!("resilient.rung.{rung}"), count as f64, "count");
        }
        report.layer(
            "resilient.raim_exclusions",
            t.raim_exclusions as f64,
            "count",
        );
        report.layer(
            "resilient.non_finite_dropped",
            t.non_finite_dropped as f64,
            "count",
        );

        report.layer(
            "service.ingest_ns_per_epoch",
            tracer.ns_per_item("service.ingest"),
            "ns",
        );
        let rounds = tracer.sorted_ms("service.process_round");
        report.layer("service.round_ms.p50", percentile(&rounds, 0.50), "ms");
        report.layer("service.round_ms.p99", percentile(&rounds, 0.99), "ms");
        let mut latency = self.outcome_latency_us.clone();
        latency.sort_by(f64::total_cmp);
        report.layer(
            "service.outcome_latency_us.p50",
            percentile(&latency, 0.50),
            "us",
        );
        report.layer(
            "service.outcome_latency_us.p99",
            percentile(&latency, 0.99),
            "us",
        );
        report.layer(
            "service.plumbing_ns_per_epoch",
            tracer.ns_per_item("service.process_round") * self.workers as f64 - session_ns,
            "ns",
        );
        // One shard has no skew.
        let skew = if self.shard_skew.is_empty() {
            1.0
        } else {
            median(&self.shard_skew)
        };
        report.layer("service.shard_skew", skew, "ratio");
        report.layer("generator.late_ms", self.late_ms, "ms");
        let snapshot = gps_telemetry::snapshot();
        for name in [
            "service.batch_drains",
            "service.shed_total",
            "service.deadline_expired",
            "service.round_failures",
        ] {
            let value = snapshot
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0, |c| c.value);
            report.layer(name, value as f64, "count");
        }
        let depth = snapshot
            .histograms
            .iter()
            .find(|h| h.name == "pool.queue_depth_at_dequeue")
            .map_or(0.0, |h| h.mean());
        report.layer("pool.queue_depth_at_dequeue", depth, "count");

        let records = self.journal_records as u64;
        let bytes = fs::metadata(&self.journal)?.len();
        report.layer(
            "journal.bytes_per_epoch",
            bytes as f64 / records as f64,
            "B",
        );
        let reader = tracer.span("journal.decode", records, |_| {
            JournalReader::open(&self.journal)
        })?;
        report.layer(
            "journal.decode_ns_per_record",
            tracer.ns_per_item("journal.decode"),
            "ns",
        );
        let copy = dir.join("reappend.jrnl");
        let mut writer = JournalWriter::create(&copy, FSYNC_EVERY)?;
        tracer.span("journal.append", records, |_| {
            reader
                .records()
                .iter()
                .try_for_each(|words| writer.append(words))
        })?;
        writer.sync()?;
        drop(writer);
        fs::remove_file(&copy)?;
        report.layer(
            "journal.append_ns_per_record",
            tracer.ns_per_item("journal.append"),
            "ns",
        );
        Ok(())
    }
}
