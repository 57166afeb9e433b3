//! An append-only, CRC-checked checkpoint journal for sweep runs.
//!
//! The journal is the sole persistent state of a checkpointed sweep. It is
//! designed around one invariant: **a prefix of the file is always a valid
//! journal**. Records are appended (optionally batched) and fsync'd; a crash
//! mid-append leaves at most a torn tail, which the loader detects (short
//! read or CRC mismatch) and discards, and which the writer truncates away
//! before appending again.
//!
//! ## On-disk format
//!
//! ```text
//! header  := magic "TMSWEEP\x01" (8 bytes) | version u32 LE (= 3)
//! record  := kind u8 | len u32 LE | payload (len bytes) | crc u32 LE
//! ```
//!
//! The CRC is CRC-32 (IEEE, reflected, poly `0xEDB88320`) over
//! `kind | len | payload`. Everything is little-endian. The format is
//! versioned via the header; readers reject unknown versions outright
//! rather than guessing. Version 3 added the scheduler records ([`Split`]
//! and [`Claim`](Record::Claim)); version-2 journals are a strict record
//! subset and still load (and may legitimately grow v3 records when an old
//! checkpoint is resumed by a newer binary). `Claim` records come only from
//! journals written by the lease scheduler of earlier releases: they still
//! decode, replay ignores them, and nothing writes them any more.
//!
//! [`Split`]: Record::Split

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// File name of the journal inside a checkpoint directory.
pub const JOURNAL_FILE: &str = "sweep.journal";

const MAGIC: &[u8; 8] = b"TMSWEEP\x01";
// Version 2 added the orbit-weighted counters to `UnitDone` (symmetry-reduced
// sweeps); version-1 journals are rejected rather than reinterpreted.
// Version 3 added `Split` (work-unit refinement) and `Claim` (cross-shard
// lease provenance, no longer written). Version-2 journals carry a strict
// subset of the record kinds, so they replay unchanged.
const VERSION: u32 = 3;
const OLDEST_READABLE_VERSION: u32 = 2;
const HEADER_LEN: u64 = 12;

/// Cap on a single record's payload; anything larger is treated as a torn
/// tail rather than an attempt to allocate gigabytes from corrupt bytes.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

const KIND_META: u8 = 1;
const KIND_UNIT_DONE: u8 = 2;
const KIND_QUARANTINE: u8 = 3;
const KIND_SPLIT: u8 = 4;
const KIND_CLAIM: u8 = 5;

/// Bitwise CRC-32 (IEEE 802.3, reflected). Table-free: journal records are
/// small and rare, so simplicity beats throughput here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One durable fact about a sweep run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// Identifies the sweep this journal belongs to. Always the first
    /// record; resuming against a journal whose meta disagrees is an error.
    Meta {
        /// Fingerprint of the job (config, event bound, mode, model names).
        fingerprint: u64,
        /// The event bound of the sweep.
        events: u32,
        /// 0 = counts, 1 = suites.
        mode: u8,
        /// This journal's shard index (0 when unsharded).
        shard_index: u32,
        /// Total shard count (1 when unsharded).
        shard_count: u32,
    },
    /// A work unit ran to completion; its results are banked here.
    UnitDone {
        /// Stable id of the unit (see `WorkUnit::stable_id`).
        unit_id: u64,
        /// Executions visited within the unit (canonical representatives
        /// only, under symmetry reduction).
        visited: u64,
        /// Executions the model found consistent (counts mode; canonical
        /// representatives only, under symmetry reduction).
        consistent: u64,
        /// Verdict disagreements against the reference checker.
        drift: u64,
        /// Orbit-weighted visit count: each visited execution counted with
        /// its isomorphism-orbit size. Equals `visited` in a full sweep.
        weighted_visited: u64,
        /// Orbit-weighted consistent count. Equals `consistent` in a full
        /// sweep.
        weighted_consistent: u64,
        /// Encoded Forbid candidates found in the unit (suites mode).
        candidates: Vec<Vec<u8>>,
    },
    /// A work unit exhausted its retry budget and was set aside.
    Quarantine {
        /// Stable id of the quarantined unit.
        unit_id: u64,
        /// Attempts made before giving up.
        attempts: u32,
        /// Human-readable reason (panic payload or "deadline exceeded").
        reason: String,
    },
    /// A work unit was refined into child subtrees (`WorkUnit::split`).
    /// On replay the parent is replaced by its children in the frontier.
    /// The child ids are recorded so replay can verify its deterministic re-derivation of
    /// the children against what the splitting run actually scheduled.
    Split {
        /// Stable id of the unit that was split.
        parent_id: u64,
        /// Stable ids of the children, in the deterministic split order.
        child_ids: Vec<u64>,
    },
    /// Provenance of a cross-shard lease claim, as written by the lease
    /// scheduler of earlier releases: this journal's shard took the unit
    /// from a shared frontier. Still decoded so those journals load; replay
    /// ignores it (completion is `UnitDone`) and nothing writes it now.
    Claim {
        /// Stable id of the claimed unit.
        unit_id: u64,
        /// The claiming shard.
        shard_index: u32,
        /// The shard process launch (0 on first launch; restarts increment).
        launch: u32,
    },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.bytes.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Meta { .. } => KIND_META,
            Record::UnitDone { .. } => KIND_UNIT_DONE,
            Record::Quarantine { .. } => KIND_QUARANTINE,
            Record::Split { .. } => KIND_SPLIT,
            Record::Claim { .. } => KIND_CLAIM,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Record::Meta {
                fingerprint,
                events,
                mode,
                shard_index,
                shard_count,
            } => {
                put_u64(&mut out, *fingerprint);
                put_u32(&mut out, *events);
                out.push(*mode);
                put_u32(&mut out, *shard_index);
                put_u32(&mut out, *shard_count);
            }
            Record::UnitDone {
                unit_id,
                visited,
                consistent,
                drift,
                weighted_visited,
                weighted_consistent,
                candidates,
            } => {
                put_u64(&mut out, *unit_id);
                put_u64(&mut out, *visited);
                put_u64(&mut out, *consistent);
                put_u64(&mut out, *drift);
                put_u64(&mut out, *weighted_visited);
                put_u64(&mut out, *weighted_consistent);
                put_u32(&mut out, candidates.len() as u32);
                for c in candidates {
                    put_u32(&mut out, c.len() as u32);
                    out.extend_from_slice(c);
                }
            }
            Record::Quarantine {
                unit_id,
                attempts,
                reason,
            } => {
                put_u64(&mut out, *unit_id);
                put_u32(&mut out, *attempts);
                let bytes = reason.as_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
            Record::Split {
                parent_id,
                child_ids,
            } => {
                put_u64(&mut out, *parent_id);
                put_u32(&mut out, child_ids.len() as u32);
                for &c in child_ids {
                    put_u64(&mut out, c);
                }
            }
            Record::Claim {
                unit_id,
                shard_index,
                launch,
            } => {
                put_u64(&mut out, *unit_id);
                put_u32(&mut out, *shard_index);
                put_u32(&mut out, *launch);
            }
        }
        out
    }

    /// Decodes a payload for `kind`. `None` means malformed — the loader
    /// treats that the same as a CRC mismatch (torn tail).
    fn decode(kind: u8, payload: &[u8]) -> Option<Record> {
        let mut c = Cursor {
            bytes: payload,
            at: 0,
        };
        let record = match kind {
            KIND_META => Record::Meta {
                fingerprint: c.u64()?,
                events: c.u32()?,
                mode: c.u8()?,
                shard_index: c.u32()?,
                shard_count: c.u32()?,
            },
            KIND_UNIT_DONE => {
                let unit_id = c.u64()?;
                let visited = c.u64()?;
                let consistent = c.u64()?;
                let drift = c.u64()?;
                let weighted_visited = c.u64()?;
                let weighted_consistent = c.u64()?;
                let count = c.u32()? as usize;
                let mut candidates = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let len = c.u32()? as usize;
                    candidates.push(c.take(len)?.to_vec());
                }
                Record::UnitDone {
                    unit_id,
                    visited,
                    consistent,
                    drift,
                    weighted_visited,
                    weighted_consistent,
                    candidates,
                }
            }
            KIND_QUARANTINE => {
                let unit_id = c.u64()?;
                let attempts = c.u32()?;
                let len = c.u32()? as usize;
                let reason = String::from_utf8(c.take(len)?.to_vec()).ok()?;
                Record::Quarantine {
                    unit_id,
                    attempts,
                    reason,
                }
            }
            KIND_SPLIT => {
                let parent_id = c.u64()?;
                let count = c.u32()? as usize;
                let mut child_ids = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    child_ids.push(c.u64()?);
                }
                Record::Split {
                    parent_id,
                    child_ids,
                }
            }
            KIND_CLAIM => Record::Claim {
                unit_id: c.u64()?,
                shard_index: c.u32()?,
                launch: c.u32()?,
            },
            _ => return None,
        };
        if c.at != payload.len() {
            return None;
        }
        Some(record)
    }

    fn framed(&self) -> Vec<u8> {
        let payload = self.payload();
        let mut frame = Vec::with_capacity(payload.len() + 9);
        frame.push(self.kind());
        put_u32(&mut frame, payload.len() as u32);
        frame.extend_from_slice(&payload);
        let crc = crc32(&frame);
        put_u32(&mut frame, crc);
        frame
    }
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct LoadedJournal {
    /// Every intact record, in append order (the `Meta` comes first).
    pub records: Vec<Record>,
    /// Whether a torn/corrupt tail was discarded after the last record.
    pub truncated_tail: bool,
    /// Byte length of the valid prefix; the writer truncates to this
    /// before appending so garbage never sits between records.
    pub valid_len: u64,
}

/// Reads the journal at `path`. Returns `Ok(None)` if the file does not
/// exist; IO errors are genuine errors. A torn tail (short record or CRC
/// mismatch) is *not* an error — the valid prefix is returned and
/// `truncated_tail` is set.
pub fn load(path: &Path) -> io::Result<Option<LoadedJournal>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal shorter than its header",
        ));
    }
    if &bytes[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal magic mismatch (not a sweep journal)",
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(OLDEST_READABLE_VERSION..=VERSION).contains(&version) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported journal version {version}"),
        ));
    }

    let mut records = Vec::new();
    let mut at = HEADER_LEN as usize;
    let mut truncated_tail = false;
    while at < bytes.len() {
        let intact = (|| {
            let kind = *bytes.get(at)?;
            let len_bytes = bytes.get(at + 1..at + 5)?;
            let len = u32::from_le_bytes(len_bytes.try_into().expect("4 bytes"));
            if len > MAX_PAYLOAD {
                return None;
            }
            let payload_end = at + 5 + len as usize;
            let payload = bytes.get(at + 5..payload_end)?;
            let crc_bytes = bytes.get(payload_end..payload_end + 4)?;
            let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
            if crc32(&bytes[at..payload_end]) != crc {
                return None;
            }
            let record = Record::decode(kind, payload)?;
            Some((record, payload_end + 4))
        })();
        match intact {
            Some((record, next)) => {
                records.push(record);
                at = next;
            }
            None => {
                truncated_tail = true;
                break;
            }
        }
    }
    Ok(Some(LoadedJournal {
        records,
        truncated_tail,
        valid_len: at as u64,
    }))
}

/// An append-only journal writer with batched fsync.
///
/// `append` buffers frames; every `sync_batch` appends (and on `sync`/drop)
/// the buffer is written and `sync_data`'d. A batch is written with a single
/// `write_all`, so a crash tears at most the final batch — never an earlier
/// record.
pub struct JournalWriter {
    file: File,
    buffer: Vec<u8>,
    pending: usize,
    sync_batch: usize,
}

impl JournalWriter {
    /// Creates a fresh journal at `path` (truncating any existing file) and
    /// writes the header plus the `meta` record, synced.
    pub fn create(path: &Path, meta: &Record, sync_batch: usize) -> io::Result<JournalWriter> {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(HEADER_LEN as usize);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        file.write_all(&header)?;
        let mut writer = JournalWriter {
            file,
            buffer: Vec::new(),
            pending: 0,
            sync_batch: sync_batch.max(1),
        };
        writer.append(meta)?;
        writer.sync()?;
        Ok(writer)
    }

    /// Reopens an existing journal for appending, first truncating the file
    /// to `valid_len` (from [`load`]) so a torn tail never precedes new
    /// records.
    pub fn reopen(path: &Path, valid_len: u64, sync_batch: usize) -> io::Result<JournalWriter> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        use std::io::Seek;
        file.seek(io::SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(JournalWriter {
            file,
            buffer: Vec::new(),
            pending: 0,
            sync_batch: sync_batch.max(1),
        })
    }

    /// Buffers `record`; flushes + fsyncs once the batch is full.
    pub fn append(&mut self, record: &Record) -> io::Result<()> {
        self.buffer.extend_from_slice(&record.framed());
        self.pending += 1;
        if self.pending >= self.sync_batch {
            self.sync()?;
        }
        Ok(())
    }

    /// Writes any buffered records and fsyncs the file.
    pub fn sync(&mut self) -> io::Result<()> {
        if !self.buffer.is_empty() {
            self.file.write_all(&self.buffer)?;
            self.buffer.clear();
        }
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Meta {
                fingerprint: 0xDEAD_BEEF_0BAD_F00D,
                events: 3,
                mode: 1,
                shard_index: 0,
                shard_count: 1,
            },
            Record::UnitDone {
                unit_id: 42,
                visited: 1000,
                consistent: 12,
                drift: 0,
                weighted_visited: 4000,
                weighted_consistent: 48,
                candidates: vec![vec![1, 2, 3], vec![]],
            },
            Record::Quarantine {
                unit_id: 7,
                attempts: 3,
                reason: "injected panic".into(),
            },
            Record::UnitDone {
                unit_id: 43,
                visited: 5,
                consistent: 5,
                drift: 1,
                weighted_visited: 5,
                weighted_consistent: 5,
                candidates: vec![],
            },
            Record::Split {
                parent_id: 99,
                child_ids: vec![100, 101, 102],
            },
            Record::Claim {
                unit_id: 100,
                shard_index: 1,
                launch: 2,
            },
        ]
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tm-sweep-journal-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn round_trip_preserves_records() {
        let path = temp_path("round-trip");
        let records = sample_records();
        {
            let mut w = JournalWriter::create(&path, &records[0], 2).expect("create");
            for r in &records[1..] {
                w.append(r).expect("append");
            }
            w.sync().expect("sync");
        }
        let loaded = load(&path).expect("load").expect("exists");
        assert_eq!(loaded.records, records);
        assert!(!loaded.truncated_tail);
        assert_eq!(
            loaded.valid_len,
            std::fs::metadata(&path).expect("meta").len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn any_truncation_yields_a_valid_prefix() {
        let path = temp_path("truncate");
        let records = sample_records();
        {
            let mut w = JournalWriter::create(&path, &records[0], 1).expect("create");
            for r in &records[1..] {
                w.append(r).expect("append");
            }
        }
        let full = std::fs::read(&path).expect("read");
        // Record boundaries: replaying the loader's framing.
        let mut boundaries = vec![HEADER_LEN as usize];
        {
            let mut at = HEADER_LEN as usize;
            while at < full.len() {
                let len =
                    u32::from_le_bytes(full[at + 1..at + 5].try_into().expect("4 bytes")) as usize;
                at += 9 + len;
                boundaries.push(at);
            }
        }
        for cut in HEADER_LEN as usize..full.len() {
            std::fs::write(&path, &full[..cut]).expect("write prefix");
            let loaded = load(&path).expect("load").expect("exists");
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                loaded.records,
                records[..whole],
                "cut at byte {cut} must yield exactly the whole records before it"
            );
            assert_eq!(loaded.truncated_tail, cut != boundaries[whole]);
            assert_eq!(loaded.valid_len as usize, boundaries[whole]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_byte_cuts_from_that_record() {
        let path = temp_path("corrupt");
        let records = sample_records();
        {
            let mut w = JournalWriter::create(&path, &records[0], 1).expect("create");
            for r in &records[1..] {
                w.append(r).expect("append");
            }
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte inside the second record's payload.
        let first_len = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes")) as usize;
        let second_start = HEADER_LEN as usize + 9 + first_len;
        bytes[second_start + 6] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");
        let loaded = load(&path).expect("load").expect("exists");
        assert_eq!(loaded.records, records[..1]);
        assert!(loaded.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_torn_tail_before_appending() {
        let path = temp_path("reopen");
        let records = sample_records();
        {
            let mut w = JournalWriter::create(&path, &records[0], 1).expect("create");
            w.append(&records[1]).expect("append");
        }
        // Simulate a torn tail: append garbage.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(&[0xAB, 0xCD, 0xEF]).expect("garbage");
        }
        let loaded = load(&path).expect("load").expect("exists");
        assert!(loaded.truncated_tail);
        {
            let mut w = JournalWriter::reopen(&path, loaded.valid_len, 1).expect("reopen");
            w.append(&records[2]).expect("append");
        }
        let reloaded = load(&path).expect("load").expect("exists");
        assert_eq!(reloaded.records, records[..3]);
        assert!(!reloaded.truncated_tail);
        std::fs::remove_file(&path).ok();
    }

    /// A journal written by the previous (v2) format — header version 2,
    /// records limited to the v2 kinds — must still load and replay.
    #[test]
    fn version_two_journals_still_load() {
        let path = temp_path("v2-compat");
        let records: Vec<Record> = sample_records()
            .into_iter()
            .filter(|r| !matches!(r, Record::Split { .. } | Record::Claim { .. }))
            .collect();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&2u32.to_le_bytes());
        for r in &records {
            bytes.extend_from_slice(&r.framed());
        }
        std::fs::write(&path, &bytes).expect("write");
        let loaded = load(&path).expect("load").expect("exists");
        assert_eq!(loaded.records, records);
        assert!(!loaded.truncated_tail);

        // Version 1 stays rejected.
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &bytes).expect("write");
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"definitely not a journal").expect("write");
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(load(&path).expect("missing is ok").is_none());
    }
}
