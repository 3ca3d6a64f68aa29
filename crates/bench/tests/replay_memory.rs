//! Journal replay and reading run in bounded memory.
//!
//! A tracking global allocator keeps the live heap bytes of the whole
//! process, every thread included, and their peak. Two journals of the
//! same receivers differ only in length, one 8× the other: a few valid
//! records that create every session, then a bulk of framed payloads
//! that fail to decode (counted as malformed), which keeps the test
//! fast while the reader and the replay pipeline carry every byte. The
//! shorter journal spans more than three 1 MiB chunks.
//!
//! * `replay_journal` streams the file, so the longer journal's peak
//!   must exceed the shorter one's by less than 2 MiB.
//! * `JournalReader::open` must hold its records plus a chunk: its peak
//!   stays within 4 MiB of the records' own heap bytes, so no copy of
//!   the file is held.

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use gps_bench::fixture_epochs;
use gps_core::{replay_journal, PositioningService, ReplayReport, ServiceConfig, SessionEpoch};
use gps_telemetry::journal::{JournalReader, JournalWriter};

struct PeakAlloc;

/// Live heap bytes, and their peak since the last [`peak_during`].
/// Relaxed: they publish no other data, and the measured call's threads
/// are joined before the peak is read.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with this `layout`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

const MIB: usize = 1 << 20;

/// Runs `f` and returns its result with the heap bytes it held at its
/// peak and when it returned, both above the live bytes before it.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    (out, peak, held)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "gps_replay_memory_{name}_{}.jrnl",
        std::process::id()
    ))
}

const RECEIVERS: u64 = 16;
const ROUNDS: usize = 4;

/// The journal records of `RECEIVERS` receivers served for `ROUNDS`
/// rounds at m = 8.
fn valid_records() -> Vec<Vec<u64>> {
    let epochs = fixture_epochs(8, 97);
    let path = temp("service");
    let config = ServiceConfig {
        workers: 1,
        shards: 2,
        queue_capacity: RECEIVERS as usize,
        deadline: std::time::Duration::from_secs(30),
        ..ServiceConfig::default()
    };
    let mut service = PositioningService::new(config)
        .with_journal(&path)
        .expect("journal");
    for measurements in &epochs[..ROUNDS] {
        for receiver in 0..RECEIVERS {
            let _ = service.ingest(SessionEpoch {
                receiver,
                dt_s: 30.0,
                measurements: measurements.clone(),
            });
        }
        let _ = service.process_round();
    }
    service.sync_journal().expect("sync");
    drop(service);
    let records = JournalReader::open(&path).expect("read").records().to_vec();
    std::fs::remove_file(&path).ok();
    assert_eq!(records.len(), RECEIVERS as usize * ROUNDS);
    records
}

/// Writes `valid` and then malformed records until the journal holds
/// `total` records, every one the size of a valid one. A malformed
/// record names one of the receivers, so it reaches every partition,
/// and an unknown disposition word fails its decode.
fn write_journal(path: &Path, valid: &[Vec<u64>], total: usize) {
    let mut writer = JournalWriter::create(path, usize::MAX).expect("create");
    writer
        .append_batch(valid.iter().map(Vec::as_slice))
        .expect("append");
    let words = valid[0].len();
    let mut batch: Vec<Vec<u64>> = Vec::new();
    for i in valid.len()..total {
        let mut payload = vec![i as u64 % RECEIVERS, i as u64, u64::MAX];
        payload.resize(words, i as u64);
        batch.push(payload);
        if batch.len() == 1_024 || i + 1 == total {
            writer
                .append_batch(batch.iter().map(Vec::as_slice))
                .expect("append");
            batch.clear();
        }
    }
    writer.sync().expect("sync");
}

fn check(report: &ReplayReport, valid: usize, total: usize) {
    assert_eq!(report.records, total);
    assert_eq!(report.malformed, total - valid);
    assert_eq!(report.mismatches, 0);
    assert!(!report.truncated);
    assert_eq!(report.digests.len(), RECEIVERS as usize);
}

#[test]
fn replay_and_open_hold_a_bounded_number_of_chunks() {
    let valid = valid_records();
    let frame_bytes = (valid[0].len() + 3) * 8;
    // Just over three 1 MiB chunks, and 8× that. A journal cut after
    // its first k frames is the journal of those k records, so the
    // shorter one is a prefix of the longer one.
    let short_records = (3 * MIB + MIB / 8).div_ceil(frame_bytes);
    let (short, long) = (temp("short"), temp("long"));
    write_journal(&long, &valid, 8 * short_records);
    let mut prefix = std::fs::read(&long).expect("read");
    prefix.truncate(8 + short_records * frame_bytes);
    assert!(prefix.len() > 3 * MIB);
    std::fs::write(&short, prefix).expect("write");
    let long_bytes = std::fs::metadata(&long).expect("metadata").len() as usize;

    let (short_report, short_peak, _) = peak_during(|| replay_journal(&short).expect("replay"));
    check(&short_report, valid.len(), short_records);
    let (long_report, long_peak, _) = peak_during(|| replay_journal(&long).expect("replay"));
    check(&long_report, valid.len(), 8 * short_records);
    assert_eq!(long_report.digests, short_report.digests);
    assert!(
        long_peak < short_peak + 2 * MIB,
        "replay peaked at {long_peak} B on a {long_bytes} B journal against {short_peak} B on one 8× shorter"
    );

    let (reader, open_peak, records_bytes) =
        peak_during(|| JournalReader::open(&long).expect("read"));
    assert_eq!(reader.records().len(), 8 * short_records);
    assert!(
        open_peak < records_bytes + 4 * MIB,
        "open peaked at {open_peak} B holding {records_bytes} B of records from a {long_bytes} B journal"
    );
    std::fs::remove_file(&short).ok();
    std::fs::remove_file(&long).ok();
}
