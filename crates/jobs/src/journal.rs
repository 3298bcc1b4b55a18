//! The queue's write-ahead journal: an append-only record log that makes
//! job state survive process death.
//!
//! Format (DESIGN.md §10.3): the shared `LEASTJNL` envelope header, then
//! records `u32 payload_len | payload | u64 FNV-1a-64(payload)` with
//! payload `u8 tag | fields`. The file only grows, so instead of a
//! whole-file trailer every record carries its own checksum. Two
//! corruption classes are treated very differently:
//!
//! * a **torn tail** — the process died mid-append, so the last record is
//!   incomplete. Detected as "record extends past EOF"; the tail is
//!   truncated and replay succeeds (the in-flight operation simply never
//!   happened, which is exactly the write-ahead contract);
//! * **corruption in the committed prefix** — a checksum or structure
//!   failure before the last record. Never repaired silently: replay
//!   stops with [`JobError::BadJournal`] so the operator decides.

use crate::error::{JobError, Result};
use least_linalg::serialize::{
    check_sum, fnv1a64, write_str, write_u32, write_u64, ByteReader, Envelope, EnvelopeError,
    HEADER_LEN,
};
use least_linalg::LinalgError;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Journal file magic.
pub const JOURNAL_MAGIC: &[u8; 8] = b"LEASTJNL";
/// Journal format version this build reads and writes.
pub const JOURNAL_VERSION: u32 = 1;

const ENVELOPE: Envelope = Envelope::new(JOURNAL_MAGIC, JOURNAL_VERSION);

/// One durable state transition. The queue appends a record *before*
/// acting on the transition, so replay can only over-approximate work
/// still owed, never lose it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Record {
    /// A job entered the queue. The spec JSON is the single source of
    /// truth for everything job-level (priority included) — replay
    /// re-parses it rather than duplicating fields in the record.
    Submitted { id: u64, spec_json: String },
    /// A worker claimed the job; `attempt` counts from 1.
    Started { id: u64, attempt: u32 },
    /// The attempt failed and the job went back to the queue.
    Retried { id: u64, error: String },
    /// Terminal success; the model was registered under `model_version`.
    Completed { id: u64, model_version: u64 },
    /// Terminal failure (attempt cap reached, or crash at the cap).
    Failed { id: u64, error: String },
    /// Terminal cancellation.
    Cancelled { id: u64 },
    /// A cancel arrived while the job was running; the worker observes
    /// it at the next stage boundary. Durable so that a crash between
    /// cancel and observation does not resurrect the job.
    CancelRequested { id: u64 },
}

const TAG_SUBMITTED: u8 = 1;
const TAG_STARTED: u8 = 2;
const TAG_RETRIED: u8 = 3;
const TAG_COMPLETED: u8 = 4;
const TAG_FAILED: u8 = 5;
const TAG_CANCELLED: u8 = 6;
const TAG_CANCEL_REQUESTED: u8 = 7;

impl Record {
    /// Append the record's payload to `out`: tag, id, then the variant's
    /// own field, if any.
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, id) = match *self {
            Record::Submitted { id, .. } => (TAG_SUBMITTED, id),
            Record::Started { id, .. } => (TAG_STARTED, id),
            Record::Retried { id, .. } => (TAG_RETRIED, id),
            Record::Completed { id, .. } => (TAG_COMPLETED, id),
            Record::Failed { id, .. } => (TAG_FAILED, id),
            Record::Cancelled { id } => (TAG_CANCELLED, id),
            Record::CancelRequested { id } => (TAG_CANCEL_REQUESTED, id),
        };
        out.push(tag);
        write_u64(out, id);
        match self {
            Record::Submitted { spec_json: s, .. }
            | Record::Retried { error: s, .. }
            | Record::Failed { error: s, .. } => write_str(out, s),
            Record::Started { attempt, .. } => write_u32(out, *attempt),
            Record::Completed { model_version, .. } => write_u64(out, *model_version),
            Record::Cancelled { .. } | Record::CancelRequested { .. } => {}
        }
    }
}

/// Verify and decode one record payload.
fn decode(payload: &[u8], stored: u64) -> least_linalg::Result<Record> {
    check_sum(stored, fnv1a64(payload))?;
    let mut r = ByteReader::new(payload);
    let record = match r.read_u8()? {
        TAG_SUBMITTED => Record::Submitted {
            id: r.read_u64()?,
            spec_json: r.read_str()?,
        },
        TAG_STARTED => Record::Started {
            id: r.read_u64()?,
            attempt: r.read_u32()?,
        },
        TAG_RETRIED => Record::Retried {
            id: r.read_u64()?,
            error: r.read_str()?,
        },
        TAG_COMPLETED => Record::Completed {
            id: r.read_u64()?,
            model_version: r.read_u64()?,
        },
        TAG_FAILED => Record::Failed {
            id: r.read_u64()?,
            error: r.read_str()?,
        },
        TAG_CANCELLED => Record::Cancelled { id: r.read_u64()? },
        TAG_CANCEL_REQUESTED => Record::CancelRequested { id: r.read_u64()? },
        tag => {
            return Err(LinalgError::InvalidArgument(format!(
                "unknown record tag {tag}"
            )))
        }
    };
    r.finish()?;
    Ok(record)
}

/// The next whole record frame as `(payload, stored checksum)`, or `None`
/// if the remaining bytes cannot hold one.
fn next_frame<'a>(r: &mut ByteReader<'a>) -> Option<(&'a [u8], u64)> {
    let len = r.read_u32().ok()? as usize;
    Some((r.read_bytes(len).ok()?, r.read_u64().ok()?))
}

/// The open journal: an append handle over the verified record log.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
}

impl Journal {
    /// Open (creating if absent) and replay the journal at `path`.
    /// Returns the handle positioned for appends plus every committed
    /// record in order. A torn tail is truncated away; corruption in the
    /// committed prefix is a hard [`JobError::BadJournal`].
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<Record>)> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let bytes = std::fs::read(path)?;
        let header = ENVELOPE.header();
        if bytes.len() < HEADER_LEN {
            // Shorter than a header: a fresh file, or a crash between file
            // creation and the header fsync left a prefix of the header
            // (usually 0 bytes) — a torn write, not corruption: start
            // fresh. Anything else short is some other file.
            if !header.starts_with(&bytes) {
                return Err(JobError::BadMagic);
            }
            file.set_len(0)?;
            file.write_all(&header)?;
            file.flush()?;
            file.sync_data()?;
            return Ok((Self { file }, Vec::new()));
        }
        ENVELOPE.check_header(&bytes).map_err(|e| match e {
            EnvelopeError::UnsupportedVersion(v) => JobError::UnsupportedVersion(v),
            _ => JobError::BadMagic,
        })?;

        let mut records = Vec::new();
        let mut r = ByteReader::new(&bytes[HEADER_LEN..]);
        let mut committed = 0;
        // A record that does not fit in the remaining bytes can only be
        // the torn last append; everything before `committed` has already
        // checksum-verified.
        while let Some((payload, stored)) = next_frame(&mut r) {
            records.push(decode(payload, stored).map_err(|e| JobError::BadJournal {
                offset: (HEADER_LEN + committed) as u64,
                reason: e.to_string(),
            })?);
            committed = r.position();
        }
        if HEADER_LEN + committed < bytes.len() {
            // Torn tail: drop the partial append.
            file.set_len((HEADER_LEN + committed) as u64)?;
            file.sync_data()?;
        }
        Ok((Self { file }, records))
    }

    /// Durably append one record (one write + flush + `sync_data`).
    pub fn append(&mut self, record: &Record) -> Result<()> {
        // Frame in place: length placeholder, payload, then the checksum.
        let mut framed = vec![0u8; 4];
        record.encode(&mut framed);
        let len = (framed.len() - 4) as u32;
        framed[..4].copy_from_slice(&len.to_le_bytes());
        let checksum = fnv1a64(&framed[4..]);
        write_u64(&mut framed, checksum);
        self.file.write_all(&framed)?;
        self.file.flush()?;
        self.file.sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("least_jobs_journal_{name}_{}", std::process::id()))
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Submitted {
                id: 1,
                spec_json: r#"{"model":"m"}"#.into(),
            },
            Record::Started { id: 1, attempt: 1 },
            Record::Retried {
                id: 1,
                error: "disk hiccup".into(),
            },
            Record::Started { id: 1, attempt: 2 },
            Record::Completed {
                id: 1,
                model_version: 9,
            },
            Record::Submitted {
                id: 2,
                spec_json: "{}".into(),
            },
            Record::CancelRequested { id: 2 },
            Record::Cancelled { id: 2 },
            Record::Failed {
                id: 3,
                error: "nope".into(),
            },
        ]
    }

    #[test]
    fn append_replay_round_trip() {
        let path = temp_path("roundtrip");
        std::fs::remove_file(&path).ok();
        let (mut journal, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
        for r in sample_records() {
            journal.append(&r).unwrap();
        }
        drop(journal);
        let (_journal, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, sample_records());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_survives_reopen() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal
            .append(&Record::Started { id: 5, attempt: 1 })
            .unwrap();
        drop(journal);
        // Simulate a crash mid-append: half a record at the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        let good_len = bytes.len();
        bytes.extend_from_slice(&[42, 0, 0, 0, 9, 9]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![Record::Started { id: 5, attempt: 1 }]);
        assert_eq!(std::fs::read(&path).unwrap().len(), good_len, "tail gone");
        // A second reopen is clean.
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn committed_corruption_is_a_hard_error() {
        let path = temp_path("corrupt");
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal
            .append(&Record::Started { id: 5, attempt: 1 })
            .unwrap();
        journal
            .append(&Record::Completed {
                id: 5,
                model_version: 1,
            })
            .unwrap();
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = 12 + 4 + 3; // inside the first record's payload
        bytes[flip] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match Journal::open(&path) {
            Err(JobError::BadJournal { offset, reason }) => {
                assert_eq!(offset, 12);
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected BadJournal, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_header_is_repaired_as_fresh() {
        let path = temp_path("torn_header");
        // A crash between create and the header write can leave any
        // strict prefix of the 12 header bytes (most commonly zero).
        let mut header = Vec::new();
        header.extend_from_slice(JOURNAL_MAGIC);
        write_u32(&mut header, JOURNAL_VERSION);
        for cut in [0usize, 3, 8, 11] {
            std::fs::write(&path, &header[..cut]).unwrap();
            let (mut journal, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty(), "cut={cut}");
            journal.append(&Record::Cancelled { id: 1 }).unwrap();
            drop(journal);
            let (_, replayed) = Journal::open(&path).unwrap();
            assert_eq!(replayed, vec![Record::Cancelled { id: 1 }], "cut={cut}");
        }
        // But a short file that is NOT a header prefix is foreign.
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(Journal::open(&path), Err(JobError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    /// One record of each of the seven tags.
    fn one_of_each_tag() -> Vec<Record> {
        vec![
            Record::Submitted {
                id: 1,
                spec_json: r#"{"model":"m","priority":3}"#.into(),
            },
            Record::Started { id: 1, attempt: 2 },
            Record::Retried {
                id: 1,
                error: "disk hiccup: ünïcode".into(),
            },
            Record::Completed {
                id: 1,
                model_version: 9,
            },
            Record::Failed {
                id: 2,
                error: "nope".into(),
            },
            Record::Cancelled { id: 3 },
            Record::CancelRequested { id: u64::MAX },
        ]
    }

    /// Write `records` into a fresh journal and return its bytes.
    fn journal_bytes(name: &str, records: &[Record]) -> Vec<u8> {
        let path = temp_path(name);
        std::fs::remove_file(&path).ok();
        let (mut journal, _) = Journal::open(&path).unwrap();
        for r in records {
            journal.append(r).unwrap();
        }
        drop(journal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    }

    #[test]
    fn every_tag_matches_golden_bytes() {
        let golden: &[u8] = include_bytes!("../tests/golden/all_tags.journal");
        assert_eq!(
            journal_bytes("golden_encode", &one_of_each_tag()),
            golden,
            "encoding drifted from the fixture"
        );
        let path = temp_path("golden_decode");
        std::fs::write(&path, golden).unwrap();
        let (_journal, replayed) = Journal::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(replayed, one_of_each_tag());
        assert_eq!(
            journal_bytes("golden_reencode", &replayed),
            golden,
            "decode → encode is not the identity"
        );
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTAJRNL....").unwrap();
        assert!(matches!(Journal::open(&path), Err(JobError::BadMagic)));
        let mut bytes = Vec::new();
        bytes.extend_from_slice(JOURNAL_MAGIC);
        write_u32(&mut bytes, 99);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path),
            Err(JobError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }
}
