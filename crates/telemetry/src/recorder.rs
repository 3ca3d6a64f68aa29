//! Flight recorder: per-worker fixed-capacity binary ring buffers.
//!
//! Each worker thread attaches to a ring of packed fixed-width records
//! (span enter/exit, job lifecycle, solver lane outcomes, fix quality)
//! and overwrites the oldest record when full — like an aircraft flight
//! recorder, the last `capacity` records per worker always survive. The
//! record path is lock-free and allocation-free (a timestamp read, one
//! `fetch_add`, four relaxed stores), cheap enough to leave on inside
//! the timed solver interior.
//!
//! Rings are drained on demand ([`FlightRecorder::capture`]), on job
//! panic (`gps-pool` wires its panic isolation to
//! [`FlightRecorder::dump_now`]), and at shutdown (the CLI's
//! `--flight-recorder FILE` flag). The dump is a small binary file
//! (magic `GPSFREC1`, little-endian words) that `gps-repro inspect`
//! decodes into a per-worker timeline.
//!
//! Concurrency contract: each ring has a *single writer* (the attached
//! worker thread). Draining while that writer is still recording is
//! safe — every word is an atomic — but a record straddling the cursor
//! may mix words from two generations. Drains therefore happen at
//! quiescence (after a panic is caught, or after the pool has joined),
//! and the decoder treats implausible records as opaque rather than
//! trusting them.

use std::cell::RefCell;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

/// Words per packed record: timestamp, kind/code/epoch, payload a/b.
const RECORD_WORDS: usize = 4;
/// Default ring capacity (records per worker) when none is configured.
const DEFAULT_CAPACITY: usize = 1024;
/// File magic of a flight-recorder dump (version 1).
pub const DUMP_MAGIC: &[u8; 8] = b"GPSFREC1";

/// What a flight record describes. Stored as a `u16` in the packed
/// record; unknown values decode as raw numbers so newer dumps stay
/// readable by older inspectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum RecordKind {
    /// A telemetry span opened (`a` = name tag).
    SpanEnter = 1,
    /// A telemetry span closed (`a` = name tag, `b` = duration µs).
    SpanExit = 2,
    /// A pool worker picked up a job (`a` = job sequence).
    JobStart = 3,
    /// A pool job finished cleanly (`a` = job sequence, `b` = busy µs).
    JobEnd = 4,
    /// A pool job panicked; caught by the worker (`a` = job sequence).
    JobPanic = 5,
    /// A parallel-engine chunk or block of epochs began (`code` =
    /// satellite count of its first epoch, whose id the record carries).
    EpochStart = 6,
    /// A solver lane finished a chunk or block (`code` = epochs solved,
    /// `a` = solver tag, `b` = ns over those epochs).
    LaneSolve = 7,
    /// A solver lane failed one epoch (`code` = error code, `a` =
    /// solver tag).
    LaneError = 8,
    /// A resilient fix was graded (`code` = quality code, `a` = quality
    /// name tag).
    FixQuality = 9,
    /// Free-form marker (`a` = tag).
    Marker = 10,
}

impl RecordKind {
    /// Decodes the wire value, if known.
    #[must_use]
    pub fn from_u16(v: u16) -> Option<RecordKind> {
        match v {
            1 => Some(RecordKind::SpanEnter),
            2 => Some(RecordKind::SpanExit),
            3 => Some(RecordKind::JobStart),
            4 => Some(RecordKind::JobEnd),
            5 => Some(RecordKind::JobPanic),
            6 => Some(RecordKind::EpochStart),
            7 => Some(RecordKind::LaneSolve),
            8 => Some(RecordKind::LaneError),
            9 => Some(RecordKind::FixQuality),
            10 => Some(RecordKind::Marker),
            _ => None,
        }
    }

    /// Stable lower-snake name for timeline rendering.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecordKind::SpanEnter => "span_enter",
            RecordKind::SpanExit => "span_exit",
            RecordKind::JobStart => "job_start",
            RecordKind::JobEnd => "job_end",
            RecordKind::JobPanic => "job_panic",
            RecordKind::EpochStart => "epoch_start",
            RecordKind::LaneSolve => "lane_solve",
            RecordKind::LaneError => "lane_error",
            RecordKind::FixQuality => "fix_quality",
            RecordKind::Marker => "marker",
        }
    }
}

/// Packs the first eight ASCII bytes of `name` into a `u64` tag
/// (little-endian, NUL-padded). Lossy by design: tags identify solver
/// lanes and span names, which the workspace keeps short and distinct
/// within their first eight bytes.
#[must_use]
pub fn tag(name: &str) -> u64 {
    let mut out = 0u64;
    for (i, b) in name.bytes().take(8).enumerate() {
        out |= u64::from(b) << (8 * i);
    }
    out
}

/// Recovers the printable text of a [`tag`] (stops at the NUL padding;
/// non-ASCII bytes render as `?`).
#[must_use]
pub fn tag_text(t: u64) -> String {
    let mut out = String::new();
    for i in 0..8 {
        let b = ((t >> (8 * i)) & 0xff) as u8;
        if b == 0 {
            break;
        }
        out.push(if b.is_ascii_graphic() || b == b' ' {
            b as char
        } else {
            '?'
        });
    }
    out
}

/// One decoded flight record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// Microseconds since the recorder's origin instant.
    pub t_us: u64,
    /// Wire value of the record kind (see [`RecordKind::from_u16`]).
    pub kind: u16,
    /// Kind-specific small payload (error code, quality code, …).
    pub code: u16,
    /// Epoch id the record refers to (0 when not applicable).
    pub epoch_id: u32,
    /// Kind-specific payload word (usually a [`tag`]).
    pub a: u64,
    /// Kind-specific payload word (usually a duration).
    pub b: u64,
}

impl FlightRecord {
    // lint: wire_format
    fn to_words(self) -> [u64; RECORD_WORDS] {
        let meta =
            u64::from(self.kind) | u64::from(self.code) << 16 | u64::from(self.epoch_id) << 32;
        [self.t_us, meta, self.a, self.b]
    }

    // lint: wire_format
    fn from_words(w: [u64; RECORD_WORDS]) -> FlightRecord {
        let [t_us, meta, a, b] = w;
        FlightRecord {
            t_us,
            kind: (meta & 0xffff) as u16,
            code: ((meta >> 16) & 0xffff) as u16,
            epoch_id: (meta >> 32) as u32,
            a,
            b,
        }
    }

    /// Decoded kind, if this record's wire value is known.
    #[must_use]
    pub fn kind(&self) -> Option<RecordKind> {
        RecordKind::from_u16(self.kind)
    }
}

/// A single worker's fixed-capacity record ring. Single writer (the
/// attached thread), any number of quiescent readers.
#[derive(Debug)]
pub struct WorkerRing {
    worker: u32,
    /// Power-of-two record capacity.
    capacity: usize,
    /// Total records ever written; the ring holds the last `capacity`.
    cursor: AtomicU64,
    /// `capacity * RECORD_WORDS` atomic words.
    slots: Box<[AtomicU64]>,
    origin: Instant,
}

impl WorkerRing {
    fn new(worker: u32, capacity: usize, origin: Instant) -> WorkerRing {
        let capacity = capacity.next_power_of_two().max(16);
        WorkerRing {
            worker,
            capacity,
            cursor: AtomicU64::new(0),
            slots: (0..capacity * RECORD_WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            origin,
        }
    }

    /// Worker id this ring belongs to.
    #[must_use]
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Appends one record, overwriting the oldest when full. Atomics
    /// only — no locks, no allocation.
    // lint: no_alloc
    pub fn record(&self, kind: RecordKind, code: u16, epoch_id: u32, a: u64, b: u64) {
        let t_us = self.origin.elapsed().as_micros() as u64;
        let rec = FlightRecord {
            t_us,
            kind: kind as u16,
            code,
            epoch_id,
            a,
            b,
        };
        let seq = self.cursor.fetch_add(1, Ordering::Relaxed);
        let base = (seq as usize & (self.capacity - 1)) * RECORD_WORDS;
        for (i, w) in rec.to_words().iter().enumerate() {
            if let Some(slot) = self.slots.get(base + i) {
                slot.store(*w, Ordering::Relaxed);
            }
        }
    }

    /// Copies out the surviving records, oldest first, plus how many
    /// older records the ring has already overwritten.
    #[must_use]
    pub fn capture(&self) -> WorkerTimeline {
        // Relaxed matches the store side: every write to `cursor` and
        // `slots` is Relaxed, so an Acquire here would synchronise
        // with nothing. Capture is only coherent for records whose
        // writes happened-before this call by external means (the
        // worker has quiesced, or the caller joined it); torn reads
        // of in-flight records are an accepted property of the
        // single-writer ring.
        let cursor = self.cursor.load(Ordering::Relaxed);
        let len = cursor.min(self.capacity as u64);
        let dropped = cursor - len;
        let mut records = Vec::with_capacity(len as usize);
        for seq in dropped..cursor {
            let base = (seq as usize & (self.capacity - 1)) * RECORD_WORDS;
            let mut words = [0u64; RECORD_WORDS];
            for (i, w) in words.iter_mut().enumerate() {
                if let Some(slot) = self.slots.get(base + i) {
                    *w = slot.load(Ordering::Relaxed);
                }
            }
            records.push(FlightRecord::from_words(words));
        }
        WorkerTimeline {
            worker: self.worker,
            dropped,
            records,
        }
    }
}

/// One worker's captured records, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerTimeline {
    /// Worker id.
    pub worker: u32,
    /// Records overwritten before this capture (ring wrapped).
    pub dropped: u64,
    /// Surviving records in write order.
    pub records: Vec<FlightRecord>,
}

/// A full capture of every worker ring, encodable to the binary dump
/// format and back.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlightDump {
    /// Per-worker timelines, in worker-id order.
    pub workers: Vec<WorkerTimeline>,
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

// lint: wire_format
fn take_u32(bytes: &[u8], at: &mut usize) -> Result<u32, String> {
    let end = at
        .checked_add(4)
        .ok_or_else(|| format!("cursor overflow at byte {}", *at))?;
    let slice = bytes
        .get(*at..end)
        .ok_or_else(|| format!("truncated dump at byte {}", *at))?;
    *at = end;
    let mut buf = [0u8; 4];
    buf.copy_from_slice(slice);
    Ok(u32::from_le_bytes(buf))
}

// lint: wire_format
fn take_u64(bytes: &[u8], at: &mut usize) -> Result<u64, String> {
    let end = at
        .checked_add(8)
        .ok_or_else(|| format!("cursor overflow at byte {}", *at))?;
    let slice = bytes
        .get(*at..end)
        .ok_or_else(|| format!("truncated dump at byte {}", *at))?;
    *at = end;
    let mut buf = [0u8; 8];
    buf.copy_from_slice(slice);
    Ok(u64::from_le_bytes(buf))
}

impl FlightDump {
    /// Total surviving records across all workers.
    #[must_use]
    pub fn total_records(&self) -> usize {
        self.workers.iter().map(|w| w.records.len()).sum()
    }

    /// Total overwritten records across all workers.
    #[must_use]
    pub fn total_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.dropped).sum()
    }

    /// Encodes the dump: magic, worker count, then per worker its id,
    /// dropped count, record count and packed records (all
    /// little-endian).
    #[must_use]
    // lint: wire_format
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(DUMP_MAGIC);
        push_u32(&mut out, self.workers.len() as u32);
        for w in &self.workers {
            push_u32(&mut out, w.worker);
            push_u64(&mut out, w.dropped);
            push_u32(&mut out, w.records.len() as u32);
            for r in &w.records {
                for word in r.to_words() {
                    push_u64(&mut out, word);
                }
            }
        }
        out
    }

    /// Decodes the output of [`FlightDump::to_bytes`].
    // lint: wire_format
    pub fn from_bytes(bytes: &[u8]) -> Result<FlightDump, String> {
        if bytes.get(..8) != Some(DUMP_MAGIC.as_slice()) {
            return Err("not a flight-recorder dump (bad magic)".to_owned());
        }
        let mut at = 8usize;
        let worker_count = take_u32(bytes, &mut at)?;
        let mut workers = Vec::with_capacity(worker_count as usize);
        for _ in 0..worker_count {
            let worker = take_u32(bytes, &mut at)?;
            let dropped = take_u64(bytes, &mut at)?;
            let record_count = take_u32(bytes, &mut at)?;
            let mut records = Vec::with_capacity(record_count as usize);
            for _ in 0..record_count {
                let mut words = [0u64; RECORD_WORDS];
                for w in words.iter_mut() {
                    *w = take_u64(bytes, &mut at)?;
                }
                records.push(FlightRecord::from_words(words));
            }
            workers.push(WorkerTimeline {
                worker,
                dropped,
                records,
            });
        }
        if at != bytes.len() {
            return Err(format!(
                "{} trailing bytes after dump body",
                bytes.len().saturating_sub(at)
            ));
        }
        Ok(FlightDump { workers })
    }
}

/// Owns every worker ring plus the optional dump destination. One
/// global instance lives behind [`recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    origin: Instant,
    capacity: AtomicU64,
    rings: RwLock<Vec<Arc<WorkerRing>>>,
    dump_path: Mutex<Option<PathBuf>>,
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            origin: Instant::now(),
            capacity: AtomicU64::new(DEFAULT_CAPACITY as u64),
            rings: RwLock::new(Vec::new()),
            dump_path: Mutex::new(None),
        }
    }

    /// Sets the record capacity used for rings created *after* this
    /// call (existing rings keep their size). Rounded up to a power of
    /// two, minimum 16.
    pub fn set_capacity(&self, records: usize) {
        self.capacity
            .store(records.max(1) as u64, Ordering::Relaxed);
    }

    /// Fetches (creating on first use) the ring for `worker`.
    pub fn ring(&self, worker: u32) -> Arc<WorkerRing> {
        if let Some(found) = self
            .rings
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|r| r.worker == worker)
        {
            return Arc::clone(found);
        }
        let mut rings = self.rings.write().unwrap_or_else(PoisonError::into_inner);
        // Double-checked: another thread may have created it between
        // the read unlock and the write lock.
        if let Some(found) = rings.iter().find(|r| r.worker == worker) {
            return Arc::clone(found);
        }
        let capacity = self.capacity.load(Ordering::Relaxed) as usize;
        let ring = Arc::new(WorkerRing::new(worker, capacity, self.origin));
        rings.push(Arc::clone(&ring));
        rings.sort_by_key(|r| r.worker);
        ring
    }

    /// Attaches the calling thread to `worker`'s ring: subsequent
    /// [`record_current`] calls (spans, lane solves, …) on this thread
    /// land there. Returns the ring for direct use.
    pub fn attach(&self, worker: u32) -> Arc<WorkerRing> {
        let ring = self.ring(worker);
        CURRENT.with(|current| *current.borrow_mut() = Some(Arc::clone(&ring)));
        ring
    }

    /// Detaches the calling thread (subsequent records are dropped).
    pub fn detach(&self) {
        CURRENT.with(|current| *current.borrow_mut() = None);
    }

    /// Captures every ring into a decodable dump, oldest records first.
    #[must_use]
    pub fn capture(&self) -> FlightDump {
        let rings = self.rings.read().unwrap_or_else(PoisonError::into_inner);
        FlightDump {
            workers: rings.iter().map(|r| r.capture()).collect(),
        }
    }

    /// Sets (or clears) the file the recorder dumps to on panic and at
    /// shutdown.
    pub fn set_dump_path(&self, path: Option<PathBuf>) {
        *self
            .dump_path
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = path;
    }

    /// The configured dump destination, if any.
    #[must_use]
    pub fn dump_path(&self) -> Option<PathBuf> {
        self.dump_path
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Captures every ring and writes the binary dump to `path`.
    ///
    /// The bytes go to a temporary file beside `path` that no other
    /// writer shares, which is then renamed over `path`. A reader sees
    /// the previous dump or the new one whole, never a truncated or
    /// interleaved file, even when several panicking workers dump to the
    /// same path at once. The temporary file is removed if either step
    /// fails.
    pub fn dump_to(&self, path: &Path) -> std::io::Result<()> {
        static NEXT_TEMP: AtomicU64 = AtomicU64::new(0);
        let mut name = OsString::from(".");
        name.push(path.file_name().unwrap_or_default());
        // Relaxed: the counter only has to hand out distinct numbers.
        let unique = NEXT_TEMP.fetch_add(1, Ordering::Relaxed);
        name.push(format!(".{}.{unique}.tmp", std::process::id()));
        let temp = path.with_file_name(name);
        let written = std::fs::write(&temp, self.capture().to_bytes())
            .and_then(|()| std::fs::rename(&temp, path));
        if written.is_err() {
            let _ = std::fs::remove_file(&temp);
        }
        written
    }

    /// Captures and writes to the configured dump path, if one is set.
    /// Returns the path written, or `None` when no path is configured.
    /// IO errors are reported, not panicked on — the recorder may be
    /// running on a panicking worker already.
    pub fn dump_now(&self) -> Option<(PathBuf, std::io::Result<()>)> {
        let path = self.dump_path()?;
        let result = self.dump_to(&path);
        Some((path, result))
    }
}

thread_local! {
    /// The ring the current thread records into, if attached.
    static CURRENT: RefCell<Option<Arc<WorkerRing>>> = const { RefCell::new(None) };
}

static RECORDER: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-wide flight recorder.
pub fn recorder() -> &'static FlightRecorder {
    RECORDER.get_or_init(FlightRecorder::new)
}

/// Records into the calling thread's attached ring; a no-op on
/// unattached threads. Atomics and a thread-local borrow only — no
/// locks, no allocation.
// lint: no_alloc
pub fn record_current(kind: RecordKind, code: u16, epoch_id: u32, a: u64, b: u64) {
    CURRENT.with(|current| {
        if let Some(ring) = current.borrow().as_ref() {
            ring.record(kind, code, epoch_id, a, b);
        }
    });
}

/// `true` when the calling thread is attached to a worker ring.
/// Callers can skip tag computation when nobody is recording.
#[must_use]
pub fn attached() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip_short_ascii_names() {
        assert_eq!(tag_text(tag("NR")), "NR");
        assert_eq!(tag_text(tag("Bancroft")), "Bancroft");
        // Longer names truncate to their first eight bytes.
        assert_eq!(tag_text(tag("trilateration")), "trilater");
        assert_eq!(tag(""), 0);
        assert_eq!(tag_text(0), "");
    }

    #[test]
    fn ring_wraps_and_keeps_the_newest_records() {
        let ring = WorkerRing::new(7, 16, Instant::now());
        for i in 0..40u64 {
            ring.record(RecordKind::Marker, 0, i as u32, i, 2 * i);
        }
        let timeline = ring.capture();
        assert_eq!(timeline.worker, 7);
        assert_eq!(timeline.dropped, 24, "40 written, 16 kept");
        assert_eq!(timeline.records.len(), 16);
        // Oldest first, and exactly the last 16 written.
        for (offset, rec) in timeline.records.iter().enumerate() {
            let i = 24 + offset as u64;
            assert_eq!(rec.epoch_id, i as u32);
            assert_eq!(rec.a, i);
            assert_eq!(rec.b, 2 * i);
            assert_eq!(rec.kind(), Some(RecordKind::Marker));
        }
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        let ring = WorkerRing::new(0, 100, Instant::now());
        for i in 0..1000u64 {
            ring.record(RecordKind::Marker, 0, 0, i, 0);
        }
        let t = ring.capture();
        assert_eq!(t.records.len(), 128);
        assert_eq!(t.dropped, 1000 - 128);
    }

    #[test]
    fn dump_binary_round_trip_is_exact() {
        let ring_a = WorkerRing::new(0, 16, Instant::now());
        let ring_b = WorkerRing::new(3, 16, Instant::now());
        ring_a.record(RecordKind::JobStart, 0, 0, 11, 0);
        ring_a.record(RecordKind::JobPanic, 2, 0, 11, 0);
        ring_b.record(RecordKind::LaneSolve, 0, 42, tag("DLO"), 1234);
        let dump = FlightDump {
            workers: vec![ring_a.capture(), ring_b.capture()],
        };
        let bytes = dump.to_bytes();
        assert_eq!(&bytes[..8], DUMP_MAGIC);
        let back = FlightDump::from_bytes(&bytes).unwrap();
        assert_eq!(back, dump);
        assert_eq!(back.total_records(), 3);
        assert_eq!(back.total_dropped(), 0);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(FlightDump::from_bytes(b"").is_err());
        assert!(FlightDump::from_bytes(b"GPSFREC9aaaa").is_err());
        // Valid magic but truncated body.
        let mut bytes = DUMP_MAGIC.to_vec();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        assert!(FlightDump::from_bytes(&bytes).is_err());
        // Trailing junk after a well-formed body.
        let dump = FlightDump::default();
        let mut bytes = dump.to_bytes();
        bytes.push(0);
        assert!(FlightDump::from_bytes(&bytes).is_err());
    }

    #[test]
    fn attach_routes_records_and_detach_stops_them() {
        let rec = FlightRecorder::new();
        assert!(rec.capture().workers.is_empty());
        let ring = rec.attach(9);
        CURRENT.with(|current| {
            if let Some(r) = current.borrow().as_ref() {
                r.record(RecordKind::Marker, 1, 2, 3, 4);
            }
        });
        assert_eq!(ring.capture().records.len(), 1);
        CURRENT.with(|current| *current.borrow_mut() = None);
        let dump = rec.capture();
        assert_eq!(dump.workers.len(), 1);
        assert_eq!(dump.workers.first().map(|w| w.worker), Some(9));
    }

    #[test]
    fn dump_now_honours_the_configured_path() {
        let rec = FlightRecorder::new();
        assert!(rec.dump_now().is_none(), "no path configured yet");
        let path = std::env::temp_dir().join(format!(
            "gps_frec_test_{}_{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        rec.set_dump_path(Some(path.clone()));
        rec.attach(0).record(RecordKind::Marker, 0, 0, 1, 2);
        rec.detach();
        let (written, result) = rec.dump_now().unwrap();
        assert_eq!(written, path);
        result.unwrap();
        let back = FlightDump::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.total_records(), 1);
        std::fs::remove_file(&path).ok();
    }

    fn entries(dir: &Path) -> Vec<PathBuf> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        entries.sort();
        entries
    }

    #[test]
    fn dumps_replace_the_file_whole_and_leave_no_temporary_behind() {
        let dir = std::env::temp_dir().join(format!("gps_frec_replace_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flight.bin");
        let rec = FlightRecorder::new();
        rec.attach(0).record(RecordKind::Marker, 0, 0, 1, 2);
        rec.detach();
        rec.dump_to(&path).unwrap();
        rec.attach(1).record(RecordKind::Marker, 0, 0, 3, 4);
        rec.detach();
        rec.dump_to(&path).unwrap();
        assert_eq!(entries(&dir), vec![path.clone()]);
        let back = FlightDump::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.total_records(), 2);
        // A target that cannot be replaced fails cleanly, temporary gone.
        let blocked = dir.join("blocked");
        std::fs::create_dir(&blocked).unwrap();
        assert!(rec.dump_to(&blocked).is_err());
        assert_eq!(entries(&dir), vec![blocked, path]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
