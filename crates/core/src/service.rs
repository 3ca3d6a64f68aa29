//! The long-running positioning service: sharded sessions on the
//! thread pool, wrapped in deadlines, backpressure, and a crash-safe
//! journal.
//!
//! This is ROADMAP item 1's runtime layer. Where [`ParallelEngine`]
//! answers "solve this `Vec` of epochs fast", [`PositioningService`]
//! answers "keep answering, whatever happens":
//!
//! * **Sessions, sharded.** Each receiver id maps to one shard
//!   (`receiver % shards`); a shard owns its sessions and its bounded
//!   queue behind one mutex, so one job per busy shard per round
//!   touches each lock once and receivers never contend across
//!   shards. The calling thread runs one of those jobs itself (the
//!   last busy shard with no chaos op armed) and the pool the rest.
//!   Each job hands its outcomes to the round once, together with its
//!   completion. Sessions idle for `idle_eviction_rounds` are evicted.
//! * **Deadlines.** Every queued epoch carries its enqueue timestamp;
//!   a worker that dequeues it past the deadline budget drops the
//!   measurements and routes the session through
//!   [`Session::expire_deadline`] — holdover while the budget lasts,
//!   a typed [`SolveError::DeadlineExceeded`] after — so a stalled
//!   shard degrades per-receiver instead of blocking the round.
//! * **Backpressure.** [`PositioningService::ingest`] refuses to grow
//!   a shard queue past `queue_capacity`: the epoch belonging to the
//!   session with the *lowest* [`Session::shed_priority`] (worst
//!   Bayesian-DOP fix-quality score) is shed, counted in
//!   `service.shed_total`.
//! * **Journal.** With a journal attached, every processed epoch
//!   appends one `GPSJRNL1` record — inputs, disposition, outcome
//!   bits, and the session digest after — so [`replay_journal`]
//!   can rebuild all session state after a SIGKILL and verify each
//!   recomputed outcome bit-for-bit against what the live run logged.
//!   A shard job writes each drained batch's records under one
//!   journal lock, in one write.
//! * **Chaos hooks.** [`PositioningService::set_chaos`] injects a
//!   stall or a panic into a specific shard's job in a specific round;
//!   with the pool's `inject_worker_exit` these drive the chaos
//!   campaign without any special-cased production code paths.
//!
//! A shard job that panics mid-round, on a worker or on the calling
//! thread, leaves the un-dequeued tail of that shard's queue in place.
//! Its hand-off guard still delivers the outcomes it journaled, the
//! round counts the missing completion (`service.round_failures`), and
//! the next round processes the leftovers — usually as deadline
//! expiries. Nothing is silently lost; every epoch ends as a fix, a
//! typed error, or a counted shed. The one exception is a pool job
//! that outlives the round timeout: it still journals every epoch it
//! serves, but its outcomes reach no round result.
//!
//! [`ParallelEngine`]: crate::ParallelEngine

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use gps_pool::{SupervisorConfig, ThreadPool};
use gps_telemetry::journal::{JournalReader, JournalWriter};
use gps_telemetry::{Counter, Gauge, Histogram};

use crate::error::SolveError;
use crate::measurement::Measurement;
use crate::resilient::ResilientFix;
use crate::session::Session;

/// Service tuning. `Default` is sized for tests and smokes; the CLI
/// scales it up.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Pool worker threads.
    pub workers: usize,
    /// Session shards (defaults to `workers`).
    pub shards: usize,
    /// Per-shard queue bound; ingest beyond it sheds.
    pub queue_capacity: usize,
    /// Per-epoch latency budget from ingest to dequeue.
    pub deadline: Duration,
    /// Sessions untouched for this many rounds are evicted.
    pub idle_eviction_rounds: u64,
    /// Journal fsync batch (records per `sync_data`).
    pub journal_fsync_every: usize,
    /// How long a round waits for its shard jobs before declaring the
    /// missing ones failed.
    pub round_timeout: Duration,
    /// Supervisor tuning for the underlying pool.
    pub supervisor: SupervisorConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            shards: 4,
            queue_capacity: 64,
            deadline: Duration::from_millis(50),
            idle_eviction_rounds: 64,
            journal_fsync_every: 32,
            round_timeout: Duration::from_secs(10),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// One receiver epoch submitted to the service.
#[derive(Debug, Clone)]
pub struct SessionEpoch {
    /// Receiver id (also the shard key).
    pub receiver: u64,
    /// Seconds since this receiver's previous epoch.
    pub dt_s: f64,
    /// The epoch's measurements.
    pub measurements: Vec<Measurement>,
}

/// What [`PositioningService::ingest`] did with an epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestResult {
    /// Queued on its shard.
    Queued,
    /// Shed under backpressure; the named receiver's epoch was dropped
    /// (it may be the one just submitted).
    Shed {
        /// Receiver whose epoch was dropped.
        receiver: u64,
    },
}

/// How an epoch left the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Dequeued within budget and solved (or failed) normally.
    Solved,
    /// Budget expired before a solver ran; measurements dropped.
    DeadlineExpired,
}

impl Disposition {
    fn to_word(self) -> u64 {
        match self {
            Disposition::Solved => 0,
            Disposition::DeadlineExpired => 1,
        }
    }

    fn from_word(word: u64) -> Option<Self> {
        match word {
            0 => Some(Disposition::Solved),
            1 => Some(Disposition::DeadlineExpired),
            _ => None,
        }
    }
}

/// One epoch's outcome from a processing round.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// Receiver the epoch belonged to.
    pub receiver: u64,
    /// The session's epoch sequence number.
    pub seq: u64,
    /// How the epoch was treated.
    pub disposition: Disposition,
    /// The session's fix or typed error.
    pub result: Result<ResilientFix, SolveError>,
    /// Ingest-to-outcome latency, microseconds.
    pub latency_us: u64,
}

/// Summary of one [`PositioningService::process_round`] call.
#[derive(Debug, Clone)]
pub struct RoundResult {
    /// Per-epoch outcomes, sorted by (receiver, seq).
    pub outcomes: Vec<EpochOutcome>,
    /// Shard jobs that reported completion.
    pub completed_shards: usize,
    /// Shard jobs run this round: one per busy shard, on the pool or
    /// on the calling thread.
    pub expected_shards: usize,
    /// Sessions evicted for idleness at the end of the round.
    pub evicted: usize,
}

/// Chaos injection for one (round, shard) job — exercised by the
/// chaos campaign, compiled unconditionally so the campaign tests the
/// *production* code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// Sleep this long before processing the shard (stall injection).
    Stall(Duration),
    /// Panic the shard job before it touches the queue (worker-panic
    /// storm; the pool catches it, the round counts the failure).
    Panic,
}

struct Queued {
    epoch: SessionEpoch,
    enqueued: Instant,
}

struct Shard {
    sessions: HashMap<u64, Session>,
    queue: VecDeque<Queued>,
}

struct ServiceMetrics {
    ingested: Counter,
    shed_total: Counter,
    deadline_expired: Counter,
    sessions_evicted: Counter,
    round_failures: Counter,
    journal_records: Counter,
    journal_bytes: Gauge,
    batch_drains: Counter,
    latency_us: Histogram,
}

impl ServiceMetrics {
    fn new() -> Self {
        ServiceMetrics {
            ingested: gps_telemetry::counter("service.ingested"),
            shed_total: gps_telemetry::counter("service.shed_total"),
            deadline_expired: gps_telemetry::counter("service.deadline_expired"),
            sessions_evicted: gps_telemetry::counter("service.sessions_evicted"),
            round_failures: gps_telemetry::counter("service.round_failures"),
            journal_records: gps_telemetry::counter("service.journal_records"),
            journal_bytes: gps_telemetry::gauge("service.journal_bytes"),
            batch_drains: gps_telemetry::counter("service.batch_drains"),
            latency_us: gps_telemetry::histogram("service.latency_us"),
        }
    }
}

/// The hardened fleet-scale positioning service. See the
/// [module docs](self) for the design.
pub struct PositioningService {
    pool: ThreadPool,
    shards: Vec<Arc<Mutex<Shard>>>,
    config: ServiceConfig,
    journal: Option<Arc<Mutex<JournalWriter>>>,
    metrics: Arc<ServiceMetrics>,
    chaos: Arc<Mutex<HashMap<(u64, usize), ChaosOp>>>,
    round: u64,
}

impl std::fmt::Debug for PositioningService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PositioningService")
            .field("shards", &self.shards.len())
            .field("round", &self.round)
            .field("journaling", &self.journal.is_some())
            .finish()
    }
}

impl PositioningService {
    /// Builds the service: a supervised pool of `config.workers` and
    /// `config.shards` empty shards. No journal — attach one with
    /// [`PositioningService::with_journal`].
    #[must_use]
    pub fn new(config: ServiceConfig) -> Self {
        let shards = config.shards.max(1);
        PositioningService {
            pool: ThreadPool::supervised(config.workers.max(1), config.supervisor),
            shards: (0..shards)
                .map(|_| {
                    Arc::new(Mutex::new(Shard {
                        sessions: HashMap::new(),
                        queue: VecDeque::new(),
                    }))
                })
                .collect(),
            config,
            journal: None,
            metrics: Arc::new(ServiceMetrics::new()),
            chaos: Arc::new(Mutex::new(HashMap::new())),
            round: 0,
        }
    }

    /// Attaches a crash-safe journal at `path` (truncates any existing
    /// file).
    ///
    /// # Errors
    ///
    /// Propagates journal creation errors.
    pub fn with_journal(mut self, path: &Path) -> io::Result<Self> {
        let writer = JournalWriter::create(path, self.config.journal_fsync_every)?;
        self.journal = Some(Arc::new(Mutex::new(writer)));
        Ok(self)
    }

    /// The underlying pool (chaos campaigns use this to inject worker
    /// exits).
    #[must_use]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Rounds processed so far.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Live session count across all shards.
    #[must_use]
    pub fn sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).sessions.len())
            .sum()
    }

    /// Arms a chaos injection for shard `shard` in round `round`
    /// (rounds are 1-based: the next `process_round` is
    /// `self.round() + 1`).
    pub fn set_chaos(&self, round: u64, shard: usize, op: ChaosOp) {
        self.chaos
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert((round, shard), op);
    }

    /// Admits one epoch, creating the receiver's session on first
    /// sight. On a full shard queue the epoch belonging to the
    /// lowest-[`shed_priority`](Session::shed_priority) session is
    /// shed — possibly the incoming one.
    pub fn ingest(&self, epoch: SessionEpoch) -> IngestResult {
        self.metrics.ingested.inc();
        let shard_index = (epoch.receiver % self.shards.len() as u64) as usize;
        let Some(shard) = self.shards.get(shard_index) else {
            // Unreachable by construction (modulo bound), but sheds
            // rather than panics if it ever weren't.
            self.metrics.shed_total.inc();
            return IngestResult::Shed {
                receiver: epoch.receiver,
            };
        };
        let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
        shard
            .sessions
            .entry(epoch.receiver)
            .or_insert_with(|| Session::new(epoch.receiver));
        if shard.queue.len() < self.config.queue_capacity {
            shard.queue.push_back(Queued {
                epoch,
                enqueued: Instant::now(),
            });
            return IngestResult::Queued;
        }
        // Backpressure: find the queued epoch with the lowest shed
        // priority and compare it against the incoming one.
        let incoming_priority = shard
            .sessions
            .get(&epoch.receiver)
            .map_or(0.0, Session::shed_priority);
        let mut victim: Option<(usize, f64)> = None;
        for (i, queued) in shard.queue.iter().enumerate() {
            let priority = shard
                .sessions
                .get(&queued.epoch.receiver)
                .map_or(0.0, Session::shed_priority);
            if victim.is_none_or(|(_, best)| priority < best) {
                victim = Some((i, priority));
            }
        }
        self.metrics.shed_total.inc();
        match victim {
            Some((index, priority)) if priority < incoming_priority => {
                let Some(dropped) = shard.queue.remove(index) else {
                    return IngestResult::Shed {
                        receiver: epoch.receiver,
                    };
                };
                shard.queue.push_back(Queued {
                    epoch,
                    enqueued: Instant::now(),
                });
                IngestResult::Shed {
                    receiver: dropped.epoch.receiver,
                }
            }
            _ => IngestResult::Shed {
                receiver: epoch.receiver,
            },
        }
    }

    /// Processes every shard's queue: one pool job per busy shard but
    /// one, which the calling thread serves itself — the last busy
    /// shard with no chaos op armed, so chaos always runs on the pool.
    /// The pool jobs are collected with a round timeout, counted from
    /// their submission, so a dead or stalled worker costs
    /// `service.round_failures`, never a hang; a panic in the caller's
    /// shard is caught and counted there too.
    pub fn process_round(&mut self) -> RoundResult {
        self.round += 1;
        let round = self.round;
        let (tx, rx) = mpsc::channel::<ShardReport>();
        let mut expected = 0usize;
        let mut queued = 0usize;
        let mut own: Option<&Arc<Mutex<Shard>>> = None;
        let chaos = self.chaos.lock().unwrap_or_else(|e| e.into_inner());
        for (shard_index, shard) in self.shards.iter().enumerate() {
            let depth = shard.lock().unwrap_or_else(|e| e.into_inner()).queue.len();
            if depth == 0 {
                continue;
            }
            expected += 1;
            queued += depth;
            let chaos_op = chaos.get(&(round, shard_index)).copied();
            // A chaos-free shard displaces the previous candidate for
            // the calling thread onto the pool.
            let pooled = match chaos_op {
                Some(_) => Some(shard),
                None => own.replace(shard),
            };
            if let Some(pooled) = pooled {
                let pooled = Arc::clone(pooled);
                let tx = tx.clone();
                let metrics = Arc::clone(&self.metrics);
                let journal = self.journal.clone();
                let deadline = self.config.deadline;
                self.pool.submit(move || {
                    run_shard_round(
                        &pooled,
                        round,
                        deadline,
                        chaos_op,
                        journal.as_deref(),
                        &metrics,
                        &tx,
                    );
                });
            }
        }
        drop(chaos);
        let wait_until = Instant::now() + self.config.round_timeout;
        if let Some(shard) = own {
            // The hand-off guard has reported whatever the shard
            // journaled before a panic; the missing completion is the
            // failure.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                run_shard_round(
                    shard,
                    round,
                    self.config.deadline,
                    None,
                    self.journal.as_deref(),
                    &self.metrics,
                    &tx,
                );
            }));
        }
        drop(tx);

        let mut outcomes = Vec::with_capacity(queued);
        let mut completed = 0usize;
        for _ in 0..expected {
            // Past the timeout this still takes a report already sent.
            let remaining = wait_until.saturating_duration_since(Instant::now());
            // Timeout, or every sender gone: a pool job that never ran.
            let Ok(mut report) = rx.recv_timeout(remaining) else {
                break;
            };
            outcomes.append(&mut report.outcomes);
            completed += usize::from(report.completed);
        }
        if completed < expected {
            self.metrics
                .round_failures
                .add((expected - completed) as u64);
        }
        // (receiver, seq) is unique, so the unstable sort is exact.
        outcomes.sort_unstable_by_key(|o| (o.receiver, o.seq));

        // Idle eviction: a session that hasn't absorbed an epoch for
        // `idle_eviction_rounds` releases its warm state.
        let mut evicted = 0usize;
        if round > self.config.idle_eviction_rounds {
            let horizon = round - self.config.idle_eviction_rounds;
            for shard in &self.shards {
                let mut shard = shard.lock().unwrap_or_else(|e| e.into_inner());
                let queued: Vec<u64> = shard.queue.iter().map(|q| q.epoch.receiver).collect();
                let before = shard.sessions.len();
                shard
                    .sessions
                    .retain(|id, s| s.last_active_round() >= horizon || queued.contains(id));
                evicted += before - shard.sessions.len();
            }
        }
        if evicted > 0 {
            self.metrics.sessions_evicted.add(evicted as u64);
        }

        RoundResult {
            outcomes,
            completed_shards: completed,
            expected_shards: expected,
            evicted,
        }
    }

    /// Per-receiver outcome digests, sorted by receiver id.
    #[must_use]
    pub fn session_digests(&self) -> Vec<(u64, u64)> {
        let mut digests: Vec<(u64, u64)> = self
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .sessions
                    .values()
                    .map(|s| (s.id(), s.digest()))
                    .collect::<Vec<_>>()
            })
            .collect();
        digests.sort_unstable();
        digests
    }

    /// Flushes the journal's outstanding fsync batch.
    ///
    /// # Errors
    ///
    /// Propagates the underlying sync error.
    pub fn sync_journal(&self) -> io::Result<()> {
        if let Some(journal) = &self.journal {
            journal.lock().unwrap_or_else(|e| e.into_inner()).sync()?;
        }
        Ok(())
    }
}

/// A shard job's one hand-off to its round.
struct ShardReport {
    /// Every outcome whose batch passed the journal step, stamped.
    outcomes: Vec<EpochOutcome>,
    /// Whether the job drained its queue.
    completed: bool,
}

/// Sends the shard job's [`ShardReport`] when dropped: at the end of
/// the job, or while a panic unwinds it, so the outcomes it journaled
/// before the panic still reach the round.
struct HandOff<'a> {
    tx: &'a mpsc::Sender<ShardReport>,
    outcomes: Vec<EpochOutcome>,
    /// `outcomes[..journaled]` are past the journal step.
    journaled: usize,
    completed: bool,
}

impl Drop for HandOff<'_> {
    fn drop(&mut self) {
        let mut outcomes = std::mem::take(&mut self.outcomes);
        // A panic mid-batch: those epochs never reached the journal.
        outcomes.truncate(self.journaled);
        // An error means the collector gave up on this round.
        let _ = self.tx.send(ShardReport {
            outcomes,
            completed: self.completed,
        });
    }
}

/// One shard's work for one round: drain the queue, route each epoch
/// by deadline, journal, and hand the outcomes to the round once. Runs
/// in a pool job or on the calling thread. With a shallow queue the
/// lock is taken per epoch so `ingest` interleaves cleanly; once the
/// queue is at least [`crate::BLOCK_LANES`] deep the round drains a
/// block's worth per lock acquisition instead — latency is
/// backlog-dominated at that point, so amortizing the lock (and feeding
/// the solvers back-to-back epochs) is pure win. Epoch outcomes are
/// identical either way: FIFO order and per-epoch session processing
/// are preserved, only the lock cadence changes.
///
/// Each drained batch is encoded into one reused word buffer under the
/// shard lock and written with one journal lock and one
/// [`JournalWriter::append_batch`] after it drops; its outcomes are
/// stamped with their latency after that write.
fn run_shard_round(
    shard: &Mutex<Shard>,
    round: u64,
    deadline: Duration,
    chaos: Option<ChaosOp>,
    journal: Option<&Mutex<JournalWriter>>,
    metrics: &ServiceMetrics,
    tx: &mpsc::Sender<ShardReport>,
) {
    let mut hand_off = HandOff {
        tx,
        outcomes: Vec::new(),
        journaled: 0,
        completed: false,
    };
    match chaos {
        Some(ChaosOp::Stall(pause)) => std::thread::sleep(pause),
        Some(ChaosOp::Panic) => {
            // A controlled "job crashed" for the chaos campaign —
            // resume_unwind skips the panic hook, so storms don't spam
            // stderr, but the pool's catch_unwind still counts it and
            // the round's collector still sees the missing completion.
            panic::resume_unwind(Box::new("chaos: injected shard panic"));
        }
        None => {}
    }
    // Reused batch scratch: the journal payloads back to back, where
    // each one ends, and when each epoch was enqueued.
    let mut words: Vec<u64> = Vec::new();
    let mut ends: Vec<usize> = Vec::with_capacity(crate::BLOCK_LANES);
    let mut enqueued_at: Vec<Instant> = Vec::with_capacity(crate::BLOCK_LANES);
    loop {
        let mut guard = shard.lock().unwrap_or_else(|e| e.into_inner());
        let depth = guard.queue.len();
        if depth == 0 {
            break;
        }
        // Sized from the queue, so the round never regrows it.
        hand_off.outcomes.reserve(depth);
        // Deep queue → batch drain (see fn docs); shallow → one epoch
        // per lock so ingest interleaves.
        let batch = if depth >= crate::BLOCK_LANES {
            metrics.batch_drains.inc();
            crate::BLOCK_LANES
        } else {
            1
        };
        words.clear();
        ends.clear();
        enqueued_at.clear();
        for _ in 0..batch {
            let Some(queued) = guard.queue.pop_front() else {
                break;
            };
            let Queued { epoch, enqueued } = queued;
            let waited = enqueued.elapsed();
            let session = guard
                .sessions
                .entry(epoch.receiver)
                .or_insert_with(|| Session::new(epoch.receiver));
            session.touch(round);
            let seq = session.seq();
            let predicted_bias_m = session.predicted_bias_m();
            let (disposition, result) = if waited > deadline {
                metrics.deadline_expired.inc();
                (
                    Disposition::DeadlineExpired,
                    session.expire_deadline(epoch.dt_s, deadline.as_micros() as u64),
                )
            } else {
                (
                    Disposition::Solved,
                    session.process(&epoch.measurements, epoch.dt_s),
                )
            };
            if journal.is_some() {
                JournalRecord {
                    receiver: epoch.receiver,
                    seq,
                    disposition,
                    dt_s: epoch.dt_s,
                    predicted_bias_m,
                    measurements: epoch.measurements,
                    outcome: OutcomeBits::from_result(&result),
                    digest: session.digest(),
                }
                .encode_into(&mut words);
                ends.push(words.len());
            }
            hand_off.outcomes.push(EpochOutcome {
                receiver: epoch.receiver,
                seq,
                disposition,
                result,
                latency_us: 0,
            });
            enqueued_at.push(enqueued);
        }
        drop(guard);

        if let Some(journal) = journal {
            let payloads = ends.iter().scan(0, |start, &end| {
                let payload = words.get(*start..end);
                *start = end;
                payload
            });
            let mut writer = journal.lock().unwrap_or_else(|e| e.into_inner());
            if writer.append_batch(payloads).is_ok() {
                metrics.journal_records.add(ends.len() as u64);
                metrics.journal_bytes.set(writer.bytes_written() as f64);
            }
        }

        // Latency runs from ingest to the write that carries the record.
        let written = Instant::now();
        let batch_outcomes = hand_off.outcomes.iter_mut().skip(hand_off.journaled);
        for (outcome, enqueued) in batch_outcomes.zip(&enqueued_at) {
            outcome.latency_us = written.saturating_duration_since(*enqueued).as_micros() as u64;
            metrics.latency_us.record(outcome.latency_us as f64);
        }
        hand_off.journaled = hand_off.outcomes.len();
    }
    hand_off.completed = true;
}

/// The journaled outcome, reduced to comparable bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutcomeBits {
    /// 0 for an error, otherwise the `FixQuality` code.
    kind: u64,
    /// `SolveError::code` when `kind == 0`.
    err_code: u64,
    position_bits: [u64; 3],
}

impl OutcomeBits {
    fn from_result(result: &Result<ResilientFix, SolveError>) -> Self {
        match result {
            Ok(fix) => OutcomeBits {
                kind: u64::from(fix.quality.code()),
                err_code: 0,
                position_bits: [
                    fix.position.x.to_bits(),
                    fix.position.y.to_bits(),
                    fix.position.z.to_bits(),
                ],
            },
            Err(e) => OutcomeBits {
                kind: 0,
                err_code: u64::from(e.code()),
                position_bits: [0; 3],
            },
        }
    }
}

/// One journal record: everything needed to re-run the epoch plus
/// everything needed to verify the re-run matched.
struct JournalRecord {
    receiver: u64,
    seq: u64,
    disposition: Disposition,
    dt_s: f64,
    predicted_bias_m: f64,
    measurements: Vec<Measurement>,
    outcome: OutcomeBits,
    digest: u64,
}

impl JournalRecord {
    /// Appends the record's payload words to `words`.
    // lint: wire_format
    fn encode_into(&self, words: &mut Vec<u64>) {
        words.reserve(self.measurements.len().saturating_mul(5).saturating_add(12));
        words.extend_from_slice(&[
            self.receiver,
            self.seq,
            self.disposition.to_word(),
            self.dt_s.to_bits(),
            self.predicted_bias_m.to_bits(),
            self.measurements.len() as u64,
        ]);
        for m in &self.measurements {
            words.extend_from_slice(&[
                m.position.x.to_bits(),
                m.position.y.to_bits(),
                m.position.z.to_bits(),
                m.pseudorange.to_bits(),
                // Elevation feeds solver weighting, so replay needs it;
                // NaN bits encode "unknown".
                m.elevation.unwrap_or(f64::NAN).to_bits(),
            ]);
        }
        words.extend_from_slice(&[self.outcome.kind, self.outcome.err_code]);
        words.extend_from_slice(&self.outcome.position_bits);
        words.push(self.digest);
    }

    // lint: wire_format
    fn decode(words: &[u64]) -> Option<Self> {
        let mut it = words.iter().copied();
        let receiver = it.next()?;
        let seq = it.next()?;
        let disposition = Disposition::from_word(it.next()?)?;
        let dt_s = f64::from_bits(it.next()?);
        let predicted_bias_m = f64::from_bits(it.next()?);
        let n = it.next()? as usize;
        // `n` comes off the wire: checked math so a hostile count
        // cannot overflow the expected-length comparison.
        let expected = n.checked_mul(5).and_then(|w| w.checked_add(12))?;
        if words.len() != expected {
            return None;
        }
        let mut measurements = Vec::with_capacity(n);
        for _ in 0..n {
            let x = f64::from_bits(it.next()?);
            let y = f64::from_bits(it.next()?);
            let z = f64::from_bits(it.next()?);
            let pr = f64::from_bits(it.next()?);
            let elevation = f64::from_bits(it.next()?);
            let mut m = Measurement::new(gps_geodesy::Ecef::new(x, y, z), pr);
            if elevation.is_finite() {
                m = m.with_elevation(elevation);
            }
            measurements.push(m);
        }
        let kind = it.next()?;
        let err_code = it.next()?;
        let position_bits = [it.next()?, it.next()?, it.next()?];
        let digest = it.next()?;
        Some(JournalRecord {
            receiver,
            seq,
            disposition,
            dt_s,
            predicted_bias_m,
            measurements,
            outcome: OutcomeBits {
                kind,
                err_code,
                position_bits,
            },
            digest,
        })
    }
}

/// Result of replaying a service journal.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Complete records decoded.
    pub records: usize,
    /// Whether the journal ended in a torn tail (SIGKILL mid-append).
    pub truncated: bool,
    /// Records the decoder skipped as structurally invalid.
    pub malformed: usize,
    /// Recomputed outcomes that differed from the journaled bits
    /// (position, quality, digest, or clock prediction).
    pub mismatches: usize,
    /// Per-receiver final digests after the rebuild, sorted by id.
    pub digests: Vec<(u64, u64)>,
}

impl ReplayReport {
    /// Bit-for-bit success: every record replayed to identical bits.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.mismatches == 0 && self.malformed == 0
    }
}

/// Rebuilds session state from a `GPSJRNL1` journal, re-running every
/// record through a fresh [`Session`] and verifying the recomputed
/// outcome bits, clock prediction, and digest chain against what the
/// live run journaled. Tolerates a torn tail (reported, not fatal).
///
/// # Errors
///
/// Returns an error only for IO failures or a non-journal file.
pub fn replay_journal(path: &Path) -> io::Result<ReplayReport> {
    let reader = JournalReader::open(path)?;
    let mut sessions: HashMap<u64, Session> = HashMap::new();
    let mut malformed = 0usize;
    let mut mismatches = 0usize;
    for words in reader.records() {
        let Some(record) = JournalRecord::decode(words) else {
            malformed += 1;
            continue;
        };
        let session = sessions
            .entry(record.receiver)
            .or_insert_with(|| Session::new(record.receiver));
        let mut clean = record.seq == session.seq();
        let predicted = session.predicted_bias_m();
        let result = match record.disposition {
            Disposition::Solved => session.process(&record.measurements, record.dt_s),
            Disposition::DeadlineExpired => {
                // The journaled budget lives in the outcome's error
                // code only; reconstruct with a zero budget — the code
                // and digest are budget-independent.
                session.expire_deadline(record.dt_s, 0)
            }
        };
        clean &= predicted.to_bits() == record.predicted_bias_m.to_bits();
        clean &= OutcomeBits::from_result(&result) == record.outcome;
        clean &= session.digest() == record.digest;
        if !clean {
            mismatches += 1;
        }
    }
    let mut digests: Vec<(u64, u64)> = sessions.values().map(|s| (s.id(), s.digest())).collect();
    digests.sort_unstable();
    Ok(ReplayReport {
        records: reader.records().len(),
        truncated: reader.truncated(),
        malformed,
        mismatches,
        digests,
    })
}

/// Collapses per-receiver digests into one fleet digest (order
/// normalized by sorting), for one-line parity checks between a live
/// run and its replay.
#[must_use]
pub fn fleet_digest(digests: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = digests.to_vec();
    sorted.sort_unstable();
    let words: Vec<u64> = sorted.iter().flat_map(|&(id, d)| [id, d]).collect();
    gps_telemetry::journal::fnv1a_words(0, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::FixQuality;
    use gps_geodesy::Ecef;

    const TRUTH: Ecef = Ecef {
        x: 6.371e6,
        y: 1.0e5,
        z: -2.0e5,
    };

    fn good_epoch(receiver: u64, bias_m: f64) -> SessionEpoch {
        let sats = [
            Ecef::new(2.0e7, 0.0, 1.7e7),
            Ecef::new(1.5e7, 1.8e7, 0.9e7),
            Ecef::new(1.6e7, -1.7e7, 1.0e7),
            Ecef::new(2.5e7, 0.4e7, -0.6e7),
            Ecef::new(1.9e7, 0.9e7, 1.6e7),
            Ecef::new(0.8e7, 1.4e7, 2.0e7),
        ];
        SessionEpoch {
            receiver,
            dt_s: 1.0,
            measurements: sats
                .iter()
                .map(|&s| Measurement::new(s, s.distance_to(TRUTH) + bias_m))
                .collect(),
        }
    }

    fn quick_config() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            shards: 2,
            queue_capacity: 8,
            deadline: Duration::from_secs(5),
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn serves_a_fleet_round_with_fixes() {
        let mut service = PositioningService::new(quick_config());
        for receiver in 0..6u64 {
            assert_eq!(
                service.ingest(good_epoch(receiver, 10.0)),
                IngestResult::Queued
            );
        }
        let round = service.process_round();
        assert_eq!(round.expected_shards, 2);
        assert_eq!(round.completed_shards, 2);
        assert_eq!(round.outcomes.len(), 6);
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::Solved);
            let fix = outcome.result.as_ref().expect("fix");
            assert_eq!(fix.quality, FixQuality::Nominal);
            assert!(fix.position.distance_to(TRUTH) < 1.0);
        }
        assert_eq!(service.sessions(), 6);
    }

    #[test]
    fn zero_deadline_routes_every_epoch_to_expiry() {
        let mut config = quick_config();
        config.deadline = Duration::from_nanos(0);
        let mut service = PositioningService::new(config);
        // Warm each session so expiry has holdover to fall to.
        for receiver in 0..2u64 {
            let _ = service.ingest(good_epoch(receiver, 0.0));
        }
        // With a zero budget even the warmup expires — so the *first*
        // outcomes are deadline errors (no prior fix), and later ones
        // stay typed deadline errors since holdover never initializes.
        let round = service.process_round();
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::DeadlineExpired);
            assert!(matches!(
                outcome.result,
                Err(SolveError::DeadlineExceeded { .. })
            ));
        }
    }

    #[test]
    fn deadline_expiry_after_warmup_falls_to_holdover() {
        let mut config = quick_config();
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        let round = service.process_round();
        assert!(round.outcomes.iter().all(|o| o.result.is_ok()));
        // Second round: expire everything.
        config.deadline = Duration::from_nanos(0);
        service.config = config;
        let _ = service.ingest(good_epoch(0, 0.0));
        let round = service.process_round();
        let outcome = round.outcomes.first().expect("one outcome");
        assert_eq!(outcome.disposition, Disposition::DeadlineExpired);
        let fix = outcome.result.as_ref().expect("holdover fix");
        assert_eq!(fix.quality, FixQuality::Holdover);
    }

    #[test]
    fn full_queue_sheds_lowest_priority_first() {
        let mut config = quick_config();
        config.shards = 1;
        config.queue_capacity = 2;
        let mut service = PositioningService::new(config);
        // Establish quality tiers: receiver 0 nominal, receiver 1
        // fresh (never fixed → priority 0).
        let _ = service.ingest(good_epoch(0, 0.0));
        let _ = service.process_round();

        // Fill the queue: [fresh-1, nominal-0], then push another
        // nominal-0 epoch. The fresh receiver must be the victim.
        assert_eq!(service.ingest(good_epoch(1, 0.0)), IngestResult::Queued);
        assert_eq!(service.ingest(good_epoch(0, 0.0)), IngestResult::Queued);
        let shed = service.ingest(good_epoch(0, 0.0));
        assert_eq!(shed, IngestResult::Shed { receiver: 1 });

        // Now the queue holds two nominal-0 epochs; an incoming epoch
        // from a never-fixed receiver sheds itself.
        let shed = service.ingest(good_epoch(5, 0.0));
        assert_eq!(shed, IngestResult::Shed { receiver: 5 });
    }

    #[test]
    fn deep_queue_batch_drain_preserves_fifo_sessions() {
        // A queue deeper than BLOCK_LANES triggers the batch drain path;
        // outcomes must be indistinguishable from per-epoch draining:
        // every epoch solved, per-receiver seqs strictly in order.
        let mut config = quick_config();
        config.shards = 1;
        config.queue_capacity = 2 * crate::BLOCK_LANES + 4;
        let mut service = PositioningService::new(config);
        let total = 2 * crate::BLOCK_LANES + 3; // odd tail exercises batch=1
        for i in 0..total as u64 {
            assert_eq!(service.ingest(good_epoch(i % 3, 5.0)), IngestResult::Queued);
        }
        let round = service.process_round();
        assert_eq!(round.completed_shards, 1);
        assert_eq!(round.outcomes.len(), total);
        let mut next_seq = [0u64; 3];
        for outcome in &round.outcomes {
            assert_eq!(outcome.disposition, Disposition::Solved);
            assert!(outcome.result.is_ok());
            let r = outcome.receiver as usize;
            assert_eq!(outcome.seq, next_seq[r], "per-receiver FIFO broken");
            next_seq[r] += 1;
        }
    }

    #[test]
    fn chaos_panic_fails_the_round_but_work_survives() {
        let mut config = quick_config();
        config.shards = 1;
        config.round_timeout = Duration::from_millis(500);
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        service.set_chaos(1, 0, ChaosOp::Panic);
        let round = service.process_round();
        assert_eq!(round.completed_shards, 0);
        assert_eq!(round.expected_shards, 1);
        assert!(round.outcomes.is_empty());
        // The queue kept the epoch; the next round serves it.
        let round = service.process_round();
        assert_eq!(round.outcomes.len(), 1);
        assert_eq!(round.completed_shards, 1);
    }

    #[test]
    fn chaos_on_the_last_busy_shard_still_runs_on_the_pool() {
        // One worker, held busy: a shard job sent to the pool cannot
        // report this round, while the calling thread's shard can.
        let mut config = quick_config();
        config.workers = 1;
        config.round_timeout = Duration::from_millis(300);
        let mut service = PositioningService::new(config);
        for receiver in 0..4u64 {
            let _ = service.ingest(good_epoch(receiver, 0.0));
        }
        let (release, held) = mpsc::channel::<()>();
        service.pool().submit(move || {
            let _ = held.recv();
        });
        service.set_chaos(1, 1, ChaosOp::Panic);
        let round = service.process_round();
        assert_eq!((round.expected_shards, round.completed_shards), (2, 1));
        let receivers: Vec<u64> = round.outcomes.iter().map(|o| o.receiver).collect();
        assert_eq!(receivers, [0, 2], "shard 0 runs on the calling thread");
        release.send(()).expect("worker still holds the receiver");
        // The armed job panics before touching its queue; the next
        // round serves that queue.
        let round = service.process_round();
        assert_eq!((round.expected_shards, round.completed_shards), (1, 1));
        let receivers: Vec<u64> = round.outcomes.iter().map(|o| o.receiver).collect();
        assert_eq!(receivers, [1, 3]);
    }

    #[test]
    fn journal_replay_is_bit_for_bit() {
        let path =
            std::env::temp_dir().join(format!("gps_service_journal_{}.bin", std::process::id()));
        let digests_live;
        {
            let mut service = PositioningService::new(quick_config())
                .with_journal(&path)
                .expect("journal");
            for round in 0..4 {
                for receiver in 0..5u64 {
                    let _ = service.ingest(good_epoch(receiver, 20.0 + round as f64));
                }
                let result = service.process_round();
                assert_eq!(result.outcomes.len(), 5);
            }
            service.sync_journal().expect("sync");
            digests_live = service.session_digests();
        }
        let report = replay_journal(&path).expect("replay");
        assert_eq!(report.records, 20);
        assert!(!report.truncated);
        assert!(report.verified(), "replay must match bit-for-bit");
        assert_eq!(report.digests, digests_live);
        assert_eq!(fleet_digest(&report.digests), fleet_digest(&digests_live));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_journal_replays_the_intact_prefix() {
        let path = std::env::temp_dir().join(format!(
            "gps_service_journal_torn_{}.bin",
            std::process::id()
        ));
        {
            let mut service = PositioningService::new(quick_config())
                .with_journal(&path)
                .expect("journal");
            for _ in 0..3 {
                for receiver in 0..4u64 {
                    let _ = service.ingest(good_epoch(receiver, 5.0));
                }
                let _ = service.process_round();
            }
            service.sync_journal().expect("sync");
        }
        // SIGKILL mid-append: chop the file mid-record.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 37]).expect("truncate");
        let report = replay_journal(&path).expect("replay");
        assert!(report.truncated, "torn tail must be reported");
        assert!(report.records < 12, "the torn record must be dropped");
        assert_eq!(report.mismatches, 0, "intact prefix must verify");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_sessions_are_evicted() {
        let mut config = quick_config();
        config.idle_eviction_rounds = 2;
        let mut service = PositioningService::new(config);
        let _ = service.ingest(good_epoch(0, 0.0));
        let _ = service.ingest(good_epoch(1, 0.0));
        let _ = service.process_round();
        assert_eq!(service.sessions(), 2);
        // Keep receiver 0 active; let receiver 1 idle out.
        for _ in 0..4 {
            let _ = service.ingest(good_epoch(0, 0.0));
            let _ = service.process_round();
        }
        assert_eq!(service.sessions(), 1, "idle session must be evicted");
    }
}
