//! Crash-safe append-only binary journal (`GPSJRNL1`).
//!
//! The positioning service journals every epoch it processes so that a
//! killed process can rebuild its per-receiver session state by
//! replaying the log. The format follows the flight recorder's packing
//! discipline (little-endian `u64` words, fixed framing, no
//! variable-length text), but where the recorder is a lossy ring, the
//! journal is a durable stream with explicit torn-write recovery:
//!
//! ```text
//! file   := magic            8 bytes  b"GPSJRNL1"
//!           record*
//! record := len              u64   payload length in words
//!           seq              u64   record sequence number (0-based)
//!           payload          len × u64
//!           checksum         u64   FNV-1a over len, seq and payload
//! ```
//!
//! * **Append-only, batched writes, fsync-batched.**
//!   [`JournalWriter::append_batch`] frames several records into one
//!   buffer and hands them to the OS in one `write` before it returns
//!   (so an OS-level crash loses at most the page cache);
//!   [`JournalWriter::append`] is its one-record case. `sync_data`
//!   runs after exactly every `fsync_every` records, amortizing
//!   durability cost across the fsync batch: a write that would cross
//!   that boundary is split there. The bytes are the same whichever
//!   way the records were grouped.
//! * **Checksums four frames at a time.** FNV-1a is a serial chain of
//!   multiplies, so a batch checksums its frames in groups of four
//!   with the four chains interleaved; each checksum is bit-identical
//!   to the scalar one the reader verifies.
//! * **Torn writes cannot poison a replay.** [`JournalReader`] walks
//!   the frames in one pass over a single read buffer (no per-record
//!   copies) and stops cleanly at the first incomplete or
//!   checksum-corrupt record — a process killed mid-`append` costs the
//!   tail record, never a panic and never a misparse of the bytes that
//!   follow.
//! * **Self-verifying.** The sequence word must increase by exactly one
//!   per record, so a seek into the middle of an unrelated file cannot
//!   masquerade as a valid journal suffix.
//!
//! ```
//! use gps_telemetry::journal::{JournalReader, JournalWriter};
//!
//! let path = std::env::temp_dir().join(format!("jrnl_doc_{}.bin", std::process::id()));
//! let mut w = JournalWriter::create(&path, 8).unwrap();
//! w.append(&[1, 2, 3]).unwrap();
//! w.append(&[4]).unwrap();
//! drop(w);
//! let read = JournalReader::open(&path).unwrap();
//! assert_eq!(read.records().len(), 2);
//! assert_eq!(read.records()[1], vec![4]);
//! assert!(!read.truncated());
//! std::fs::remove_file(&path).ok();
//! ```

use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// File magic of a version-1 journal.
pub const JOURNAL_MAGIC: &[u8; 8] = b"GPSJRNL1";

/// Largest accepted payload, in words — a plausibility bound so a
/// corrupt length word cannot make the reader attempt a giant slice.
const MAX_RECORD_WORDS: u64 = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Frames whose checksums [`frame_checksums`] computes side by side.
const CHECKSUM_LANES: usize = 4;

/// FNV-1a over a word stream; the journal's frame checksum and the
/// digest primitive service sessions chain their outcomes with.
#[must_use]
pub fn fnv1a_words(seed: u64, words: &[u64]) -> u64 {
    let hash = if seed == 0 { FNV_OFFSET } else { seed };
    words
        .iter()
        .fold(hash, |hash, &word| fnv1a_word(hash, word))
}

/// One word of FNV-1a: its eight bytes, least significant first.
fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    for shift in (0..64).step_by(8) {
        hash ^= (word >> shift) & 0xff;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a_word`] on each of four chains, interleaved byte by byte.
fn fnv1a_word_lanes(
    mut hashes: [u64; CHECKSUM_LANES],
    words: [u64; CHECKSUM_LANES],
) -> [u64; CHECKSUM_LANES] {
    for shift in (0..64).step_by(8) {
        for (hash, word) in hashes.iter_mut().zip(words) {
            *hash ^= (word >> shift) & 0xff;
            *hash = hash.wrapping_mul(FNV_PRIME);
        }
    }
    hashes
}

/// The scalar frame checksum: FNV-1a over length, sequence and payload.
fn frame_checksum(len: u64, seq: u64, payload: &[u64]) -> u64 {
    fnv1a_words(fnv1a_words(0, &[len, seq]), payload)
}

/// [`frame_checksum`] of the frames `seq` to `seq + 3`. Each chain is
/// serial, every byte multiplying the previous state, so the four run
/// interleaved while all four payloads have words left; the longer
/// ones then finish alone. The chains are unchanged, so every checksum
/// is bit-identical to [`frame_checksum`].
fn frame_checksums(seq: u64, payloads: [&[u64]; CHECKSUM_LANES]) -> [u64; CHECKSUM_LANES] {
    let lens = payloads.map(|payload| payload.len() as u64);
    let seqs = std::array::from_fn(|lane| seq.wrapping_add(lane as u64));
    // `frame_checksum` seeds the payload chain through `fnv1a_words`,
    // which starts a zero seed afresh.
    let mut hashes = fnv1a_word_lanes(fnv1a_word_lanes([FNV_OFFSET; CHECKSUM_LANES], lens), seqs)
        .map(|hash| if hash == 0 { FNV_OFFSET } else { hash });
    let [a, b, c, d] = payloads;
    for (((&wa, &wb), &wc), &wd) in a.iter().zip(b).zip(c).zip(d) {
        hashes = fnv1a_word_lanes(hashes, [wa, wb, wc, wd]);
    }
    let shortest = a.len().min(b.len()).min(c.len()).min(d.len());
    for (hash, payload) in hashes.iter_mut().zip(payloads) {
        let tail = payload.get(shortest..).unwrap_or_default();
        *hash = tail
            .iter()
            .fold(*hash, |hash, &word| fnv1a_word(hash, word));
    }
    hashes
}

/// Hands each of `payloads`, as the frames `seq, seq + 1, …`, to
/// `frame` with its checksum: [`frame_checksums`] for every full group
/// of four, [`frame_checksum`] for a ragged last group.
fn for_each_checksummed<'p>(
    seq: u64,
    payloads: impl IntoIterator<Item = &'p [u64]>,
    mut frame: impl FnMut(&'p [u64], u64) -> io::Result<()>,
) -> io::Result<()> {
    let mut group: [&[u64]; CHECKSUM_LANES] = [&[]; CHECKSUM_LANES];
    let mut grouped = 0usize;
    let mut next_seq = seq;
    for payload in payloads {
        if let Some(slot) = group.get_mut(grouped) {
            *slot = payload;
        }
        grouped += 1;
        if grouped == CHECKSUM_LANES {
            for (payload, checksum) in group.into_iter().zip(frame_checksums(next_seq, group)) {
                frame(payload, checksum)?;
            }
            next_seq = next_seq.wrapping_add(CHECKSUM_LANES as u64);
            grouped = 0;
        }
    }
    for payload in group.into_iter().take(grouped) {
        frame(
            payload,
            frame_checksum(payload.len() as u64, next_seq, payload),
        )?;
        next_seq = next_seq.wrapping_add(1);
    }
    Ok(())
}

/// Appends framed records to a journal file with batched fsync.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    path: PathBuf,
    seq: u64,
    fsync_every: usize,
    unsynced: usize,
    bytes_written: u64,
    scratch: Vec<u8>,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path`, writing the magic
    /// header. `fsync_every` is the durability batch: a `sync_data`
    /// is issued after every that-many appended records (clamped ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates file creation / header write errors.
    pub fn create(path: &Path, fsync_every: usize) -> io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        Ok(JournalWriter {
            file,
            path: path.to_path_buf(),
            seq: 0,
            fsync_every: fsync_every.max(1),
            unsynced: 0,
            bytes_written: JOURNAL_MAGIC.len() as u64,
            scratch: Vec::new(),
        })
    }

    /// The journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.seq
    }

    /// Bytes written so far (header included).
    #[must_use]
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Appends one record: [`JournalWriter::append_batch`] of one
    /// payload.
    ///
    /// # Errors
    ///
    /// As [`JournalWriter::append_batch`].
    pub fn append(&mut self, payload: &[u64]) -> io::Result<()> {
        self.append_batch(std::iter::once(payload))
    }

    /// Appends `payloads` as consecutive records. Their frames (length,
    /// sequence, payload, checksum) are built in one buffer and reach
    /// the OS in one write before this returns, or in one write per
    /// fsync batch when the records cross an `fsync_every` boundary, so
    /// `sync_data` still runs after exactly every `fsync_every` records.
    /// They reach the disk at that boundary or at
    /// [`JournalWriter::sync`]. The file gets the same bytes as one
    /// [`JournalWriter::append`] per payload.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write / sync error, or `InvalidInput`
    /// for a payload too long to frame; the journal is unusable for
    /// further appends after an error (the tail may be torn, which the
    /// reader tolerates).
    pub fn append_batch<'p>(
        &mut self,
        payloads: impl IntoIterator<Item = &'p [u64]>,
    ) -> io::Result<()> {
        self.scratch.clear();
        for_each_checksummed(self.seq, payloads, |payload, checksum| {
            self.frame(payload, checksum)
        })?;
        self.write_framed()
    }

    /// Frames one record into the scratch buffer, a word at a time, and
    /// writes and syncs the buffer when the record completes an fsync
    /// batch.
    // lint: wire_format
    fn frame(&mut self, payload: &[u64], checksum: u64) -> io::Result<()> {
        let start = self.scratch.len();
        let end = payload
            .len()
            .checked_add(3)
            .and_then(|words| words.checked_mul(8))
            .and_then(|bytes| bytes.checked_add(start))
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "journal record too long")
            })?;
        self.scratch.resize(end, 0);
        let header = [payload.len() as u64, self.seq];
        let frame_words = header
            .iter()
            .chain(payload)
            .chain(std::iter::once(&checksum));
        let frame = self.scratch.get_mut(start..).unwrap_or_default();
        for (bytes, word) in frame.chunks_exact_mut(8).zip(frame_words) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        self.seq += 1;
        self.unsynced += 1;
        if self.unsynced >= self.fsync_every {
            self.write_framed()?;
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Writes the framed records in one `write_all`.
    fn write_framed(&mut self) -> io::Result<()> {
        if !self.scratch.is_empty() {
            self.file.write_all(&self.scratch)?;
            self.bytes_written += self.scratch.len() as u64;
            self.scratch.clear();
        }
        Ok(())
    }

    /// Forces the outstanding batch to disk.
    ///
    /// # Errors
    ///
    /// Propagates the `sync_data` error.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }
}

/// A decoded journal: every complete record, plus whether the file
/// ended in a torn (incomplete or corrupt) tail.
#[derive(Debug, Clone)]
pub struct JournalReader {
    records: Vec<Vec<u64>>,
    truncated: bool,
    bytes_read: u64,
}

impl JournalReader {
    /// Reads and verifies a journal file in one pass.
    ///
    /// Decoding stops cleanly at the first incomplete frame, checksum
    /// mismatch or out-of-order sequence number — everything before
    /// that point is returned and [`JournalReader::truncated`] reports
    /// that a tail was dropped. A torn write therefore costs exactly
    /// the records it tore, never the journal.
    ///
    /// # Errors
    ///
    /// Returns an error only for IO failures or a missing/forged magic
    /// header; tail corruption is *not* an error.
    pub fn open(path: &Path) -> io::Result<Self> {
        let mut bytes = Vec::new();
        File::open(path)?.read_to_end(&mut bytes)?;
        Self::from_bytes(&bytes)
    }

    /// Like [`JournalReader::open`] over an in-memory image.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the magic header is absent.
    // lint: wire_format
    pub fn from_bytes(bytes: &[u8]) -> io::Result<Self> {
        if bytes.get(..JOURNAL_MAGIC.len()) != Some(JOURNAL_MAGIC.as_slice()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a GPSJRNL1 journal (bad magic)",
            ));
        }
        let mut cursor = JOURNAL_MAGIC.len();
        let word = |at: usize| -> Option<u64> {
            let end = at.checked_add(8)?;
            let chunk = bytes.get(at..end)?;
            let mut le = [0u8; 8];
            le.copy_from_slice(chunk);
            Some(u64::from_le_bytes(le))
        };
        let mut records = Vec::new();
        let mut truncated = false;
        let mut expect_seq = 0u64;
        while cursor < bytes.len() {
            let frame = (|| {
                let len = word(cursor)?;
                if len > MAX_RECORD_WORDS {
                    return None;
                }
                let seq = word(cursor.checked_add(8)?)?;
                if seq != expect_seq {
                    return None;
                }
                let words = len as usize;
                let mut payload = Vec::with_capacity(words);
                // Checked cursor walk: `at` steps one word at a time,
                // so a hostile length can never wrap the arithmetic.
                let mut at = cursor.checked_add(16)?;
                for _ in 0..words {
                    payload.push(word(at)?);
                    at = at.checked_add(8)?;
                }
                let checksum = word(at)?;
                if checksum != frame_checksum(len, seq, &payload) {
                    return None;
                }
                let advance = at.checked_add(8)?.checked_sub(cursor)?;
                Some((payload, advance))
            })();
            match frame {
                Some((payload, advance)) => {
                    records.push(payload);
                    cursor += advance;
                    expect_seq += 1;
                }
                None => {
                    // Torn or corrupt tail: stop at the last complete
                    // record rather than guessing at resynchronization.
                    truncated = true;
                    break;
                }
            }
        }
        Ok(JournalReader {
            records,
            truncated,
            bytes_read: cursor as u64,
        })
    }

    /// The complete records, in append order.
    #[must_use]
    pub fn records(&self) -> &[Vec<u64>] {
        &self.records
    }

    /// Whether a torn/corrupt tail was dropped during decoding.
    #[must_use]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Bytes consumed before decoding stopped (header included).
    #[must_use]
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gps_journal_{name}_{}.bin", std::process::id()))
    }

    fn write_sample(path: &Path, records: usize) -> u64 {
        let mut w = JournalWriter::create(path, 4).expect("create");
        for i in 0..records {
            let i = i as u64;
            w.append(&[i, i * 10, i * 100]).expect("append");
        }
        w.sync().expect("sync");
        w.bytes_written()
    }

    #[test]
    fn round_trips_records_in_order() {
        let path = temp("roundtrip");
        write_sample(&path, 17);
        let r = JournalReader::open(&path).expect("open");
        assert_eq!(r.records().len(), 17);
        assert!(!r.truncated());
        for (i, rec) in r.records().iter().enumerate() {
            let i = i as u64;
            assert_eq!(rec, &vec![i, i * 10, i * 100]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_journal_is_valid() {
        let path = temp("empty");
        drop(JournalWriter::create(&path, 1).expect("create"));
        let r = JournalReader::open(&path).expect("open");
        assert!(r.records().is_empty());
        assert!(!r.truncated());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_an_error() {
        assert!(JournalReader::from_bytes(b"NOTAJRNL....").is_err());
        assert!(JournalReader::from_bytes(b"").is_err());
    }

    #[test]
    fn truncation_at_every_byte_boundary_stops_cleanly() {
        // The torn-write contract, exhaustively: chop the file after
        // every possible byte count; decoding must never error, never
        // panic, and must return only records whose frames are intact.
        let path = temp("torn");
        let total = write_sample(&path, 6);
        let full = std::fs::read(&path).expect("read");
        assert_eq!(full.len() as u64, total);
        let intact = JournalReader::from_bytes(&full).expect("full decode");
        assert_eq!(intact.records().len(), 6);
        for cut in 0..full.len() {
            let Ok(r) = JournalReader::from_bytes(&full[..cut]) else {
                // Only header-less prefixes may error.
                assert!(cut < JOURNAL_MAGIC.len(), "cut {cut} errored past magic");
                continue;
            };
            assert!(r.records().len() <= 6);
            for (i, rec) in r.records().iter().enumerate() {
                assert_eq!(rec, &intact.records()[i], "cut {cut} record {i}");
            }
            // A cut exactly on a frame boundary yields a valid shorter
            // journal; anywhere else the torn tail must be reported.
            let frame_boundary = cut >= 8 && (cut - 8) % 48 == 0;
            if r.records().len() < 6 && !frame_boundary {
                assert!(r.truncated(), "cut {cut}: dropped tail not reported");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_payload_byte_drops_the_tail() {
        let path = temp("corrupt");
        write_sample(&path, 5);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one byte inside record 2's payload (file header 8 + two
        // full 48-byte frames + frame header 16 + 3 bytes in).
        let offset = 8 + 2 * 48 + 16 + 3;
        bytes[offset] ^= 0xff;
        let r = JournalReader::from_bytes(&bytes).expect("decode");
        assert_eq!(r.records().len(), 2, "records before the corruption");
        assert!(r.truncated());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sequence_discontinuity_is_rejected() {
        // Splice record 0's frame after itself: duplicated seq 0 must
        // terminate decoding rather than double-count.
        let path = temp("seq");
        write_sample(&path, 2);
        let bytes = std::fs::read(&path).expect("read");
        let frame0 = bytes[8..56].to_vec();
        let mut spliced = bytes[..56].to_vec();
        spliced.extend_from_slice(&frame0);
        let r = JournalReader::from_bytes(&spliced).expect("decode");
        assert_eq!(r.records().len(), 1);
        assert!(r.truncated());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv_digest_is_order_sensitive() {
        let a = fnv1a_words(0, &[1, 2, 3]);
        let b = fnv1a_words(0, &[3, 2, 1]);
        assert_ne!(a, b);
        // Chaining equals one-shot over the concatenation.
        let chained = fnv1a_words(fnv1a_words(0, &[1, 2]), &[3]);
        assert_eq!(chained, a);
    }

    /// Payloads of ragged lengths, empty ones included.
    fn ragged_payloads(records: usize) -> Vec<Vec<u64>> {
        (0..records as u64)
            .map(|i| (0..(i * 7) % 11).map(|w| i << 32 | w).collect())
            .collect()
    }

    #[test]
    fn batched_appends_write_the_bytes_of_per_record_appends() {
        let payloads = ragged_payloads(23);
        let single = temp("batch_single");
        let batched = temp("batch_grouped");
        let mut w = JournalWriter::create(&single, 3).expect("create");
        for payload in &payloads {
            w.append(payload).expect("append");
        }
        let (records, bytes, unsynced) = (w.records(), w.bytes_written(), w.unsynced);
        drop(w);

        // Batches of 0, 1, 5 (crossing the fsync boundary at record 3),
        // 1, 8 (two full checksum groups) and the ragged rest.
        let mut w = JournalWriter::create(&batched, 3).expect("create");
        let mut rest = payloads.as_slice();
        for size in [0, 1, 5, 1, 8, usize::MAX] {
            let (batch, tail) = rest.split_at(size.min(rest.len()));
            w.append_batch(batch.iter().map(Vec::as_slice))
                .expect("append_batch");
            rest = tail;
        }
        assert_eq!(
            (w.records(), w.bytes_written(), w.unsynced),
            (records, bytes, unsynced)
        );
        drop(w);

        let bytes = std::fs::read(&batched).expect("read");
        assert_eq!(bytes, std::fs::read(&single).expect("read"));
        let r = JournalReader::from_bytes(&bytes).expect("decode");
        assert_eq!(r.records(), payloads.as_slice());
        assert!(!r.truncated());
        std::fs::remove_file(&single).ok();
        std::fs::remove_file(&batched).ok();
    }

    #[test]
    fn laned_checksums_equal_the_scalar_reference() {
        for frames in 0..=9 {
            let payloads = ragged_payloads(frames);
            let mut seen = Vec::new();
            for_each_checksummed(
                40,
                payloads.iter().map(Vec::as_slice),
                |payload, checksum| {
                    seen.push((payload, checksum));
                    Ok(())
                },
            )
            .expect("the closure never fails");
            assert_eq!(seen.len(), frames);
            for (seq, (payload, checksum)) in (40u64..).zip(seen) {
                let expected = frame_checksum(payload.len() as u64, seq, payload);
                assert_eq!(checksum, expected, "{frames} frames, seq {seq}");
            }
        }
    }

    #[test]
    fn writer_reports_byte_and_record_counts() {
        let path = temp("counts");
        let mut w = JournalWriter::create(&path, 100).expect("create");
        assert_eq!(w.records(), 0);
        w.append(&[7; 4]).expect("append");
        assert_eq!(w.records(), 1);
        // 8 magic + (8 len + 8 seq + 32 payload + 8 checksum).
        assert_eq!(w.bytes_written(), 8 + 56);
        w.sync().expect("sync");
        std::fs::remove_file(&path).ok();
    }
}
