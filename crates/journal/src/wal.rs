//! Write-ahead round journal.
//!
//! ## File format (`FBSWAL01`)
//!
//! ```text
//! magic   8 bytes  b"FBSWAL01"   (format name + version)
//! record  repeated:
//!   len   u32 LE   payload length in bytes
//!   crc   u32 LE   CRC-32 (IEEE) of the payload
//!   payload len bytes
//! ```
//!
//! Appends are frame-at-a-time, so the only damage a crash can cause is a
//! torn final frame. [`Journal::open_with`] scans the record stream from
//! the start in one pass through a fixed-size read buffer, handing each
//! CRC-valid payload to a visitor, and stops at the first frame that is
//! truncated, oversized, or fails its CRC; everything after that point is
//! discarded by physically truncating the file, and appending resumes from
//! a clean tail. Recovery memory is one read buffer plus the largest
//! record, whatever the journal's length. A file whose *header* is damaged
//! can't be trusted at all — it is renamed to `<name>.quarantined`
//! (preserved for forensics, never silently deleted) and a fresh journal is
//! started in its place.

use crate::crc32::crc32;
use fbs_types::{FbsError, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Format magic: name + version, bumped on incompatible layout changes.
pub const WAL_MAGIC: &[u8; 8] = b"FBSWAL01";

/// Upper bound on a single record payload (1 GiB). A length prefix above
/// this is treated as corruption rather than an allocation request.
pub const MAX_RECORD_LEN: u32 = 1 << 30;

const FRAME_HEADER_LEN: usize = 8; // len u32 + crc u32

/// Read buffer of the recovery scan. A record larger than this is read
/// straight into the payload buffer.
const READ_BUFFER_LEN: usize = 64 * 1024;

/// What [`Journal::open`] had to do to produce a clean journal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalRecovery {
    /// Records recovered from the valid prefix.
    pub records: u64,
    /// Bytes of corrupt or torn tail discarded by truncation.
    pub dropped_bytes: u64,
    /// Path the damaged original was moved to, if the header itself was
    /// unusable and the whole file had to be quarantined.
    pub quarantined: Option<PathBuf>,
}

impl JournalRecovery {
    /// True when the file was already fully intact.
    pub fn was_clean(&self) -> bool {
        self.dropped_bytes == 0 && self.quarantined.is_none()
    }
}

/// Append-only CRC-checksummed record log.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    records: u64,
}

impl Journal {
    /// Creates a fresh journal at `path`, truncating any existing file.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        sync_parent_dir(&path);
        Ok(Journal {
            file,
            path,
            records: 0,
        })
    }

    /// Opens the journal at `path`, recovering whatever prefix is valid.
    ///
    /// Returns the journal (positioned for appending), the payloads of all
    /// recovered records in append order, and a [`JournalRecovery`]
    /// describing any repairs. A missing file is created fresh; a torn or
    /// bit-corrupted tail is truncated away; a file with a damaged header
    /// is quarantined and replaced. None of these cases is an error —
    /// `Err` is reserved for real I/O failures.
    ///
    /// This collects every payload in memory; [`Journal::open_with`] is the
    /// same scan with bounded memory.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, Vec<Vec<u8>>, JournalRecovery)> {
        let mut payloads = Vec::new();
        let (journal, recovery) = Self::open_with(path, |payload| {
            payloads.push(payload.to_vec());
            Ok(())
        })?;
        Ok((journal, payloads, recovery))
    }

    /// Opens the journal at `path` like [`Journal::open`], streaming each
    /// recovered payload to `visit` in append order instead of collecting
    /// them.
    ///
    /// The scan holds one fixed-size read buffer and the current record,
    /// so memory does not grow with the journal. Every frame is still
    /// CRC-checked before it is visited, and the repairs are exactly those
    /// of [`Journal::open`]. If `visit` returns an error, no further
    /// payloads are visited, but the scan still runs to the end of the
    /// valid prefix and makes its repairs; the visitor's error is returned
    /// only after them, so the file is left as a successful open leaves it.
    pub fn open_with(
        path: impl AsRef<Path>,
        mut visit: impl FnMut(&[u8]) -> Result<()>,
    ) -> Result<(Self, JournalRecovery)> {
        let path = path.as_ref().to_path_buf();
        if !path.exists() {
            return Ok((Self::create(&path)?, JournalRecovery::default()));
        }

        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(READ_BUFFER_LEN, &file);

        let header_ok =
            file_len >= WAL_MAGIC.len() as u64 && read_array(&mut reader)? == *WAL_MAGIC;
        if !header_ok {
            // Header damage: nothing in the file can be trusted. Move it
            // aside and start over.
            drop(reader);
            drop(file);
            let quarantine = quarantine_path(&path);
            std::fs::rename(&path, &quarantine)?;
            sync_parent_dir(&path);
            let journal = Self::create(&path)?;
            return Ok((
                journal,
                JournalRecovery {
                    records: 0,
                    dropped_bytes: file_len,
                    quarantined: Some(quarantine),
                },
            ));
        }

        let mut pos = WAL_MAGIC.len() as u64;
        let mut records = 0u64;
        let mut payload = Vec::new();
        let mut visited = Ok(());
        loop {
            let rest = file_len - pos;
            if rest < FRAME_HEADER_LEN as u64 {
                break; // clean end, or a torn frame header
            }
            let len = u32::from_le_bytes(read_array(&mut reader)?);
            let crc = u32::from_le_bytes(read_array(&mut reader)?);
            if len > MAX_RECORD_LEN || rest - (FRAME_HEADER_LEN as u64) < u64::from(len) {
                break; // corrupt length prefix, or a torn payload
            }
            payload.resize(len as usize, 0);
            reader.read_exact(&mut payload)?;
            if crc32(&payload) != crc {
                break; // bit corruption
            }
            if visited.is_ok() {
                visited = visit(&payload);
            }
            records += 1;
            pos += FRAME_HEADER_LEN as u64 + u64::from(len);
        }
        drop(reader);

        let dropped = file_len - pos;
        if dropped > 0 {
            file.set_len(pos)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(pos))?;
        visited?;

        Ok((
            Journal {
                file,
                path,
                records,
            },
            JournalRecovery {
                records,
                dropped_bytes: dropped,
                quarantined: None,
            },
        ))
    }

    /// Appends one record. The frame is written in a single `write_all`, so
    /// a crash mid-append leaves at most one torn frame for recovery to
    /// truncate. Call [`Journal::sync`] to force it to stable storage.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        if payload.len() as u64 > MAX_RECORD_LEN as u64 {
            return Err(FbsError::Io {
                reason: format!(
                    "journal record of {} bytes exceeds the {} byte cap",
                    payload.len(),
                    MAX_RECORD_LEN
                ),
            });
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all(&frame)?;
        self.records += 1;
        Ok(())
    }

    /// Forces all appended records to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// A second handle on the journal file, so another thread can fsync it
    /// while this one keeps the journal. `sync_all` on the handle forces
    /// every record appended before the call, as [`Journal::sync`] does.
    pub fn sync_handle(&self) -> Result<File> {
        Ok(self.file.try_clone()?)
    }

    /// Number of records in the journal (recovered + appended).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// `<name>.quarantined` next to the original.
fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantined");
    PathBuf::from(name)
}

/// Reads exactly `N` bytes: one fixed-width header field.
pub(crate) fn read_array<const N: usize>(reader: &mut impl Read) -> std::io::Result<[u8; N]> {
    let mut bytes = [0u8; N];
    reader.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Best-effort fsync of the parent directory so renames/creates survive a
/// power loss. Not all platforms allow opening directories; failures are
/// ignored because the data itself is already CRC-protected.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fbs-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_and_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        let records: Vec<Vec<u8>> = (0u32..50)
            .map(|i| vec![i as u8; (i % 7) as usize + 1])
            .collect();
        for r in &records {
            j.append(r).unwrap();
        }
        j.sync().unwrap();
        drop(j);

        let (j, recovered, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recovered, records);
        assert!(recovery.was_clean());
        assert_eq!(j.records(), 50);
    }

    #[test]
    fn empty_and_missing_files_open_clean() {
        let dir = tmpdir("fresh");
        let path = dir.join("rounds.wal");
        let (j, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(recovery.was_clean());
        drop(j);
        // Reopen the (magic-only) file.
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        assert!(recovery.was_clean());
    }

    #[test]
    fn torn_tail_is_truncated() {
        let dir = tmpdir("torn");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        for i in 0u8..10 {
            j.append(&[i; 16]).unwrap();
        }
        j.sync().unwrap();
        drop(j);

        // Tear the last frame: chop 5 bytes off the end.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let (j, recs, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recs.len(), 9, "last record torn, first nine intact");
        assert_eq!(recovery.records, 9);
        assert!(recovery.dropped_bytes > 0);
        assert!(recovery.quarantined.is_none());
        drop(j);

        // The truncation is physical: a second open is clean.
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recs.len(), 9);
        assert!(recovery.was_clean());
    }

    #[test]
    fn bit_flip_truncates_from_damaged_record() {
        let dir = tmpdir("bitflip");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        for i in 0u8..10 {
            j.append(&[i; 16]).unwrap();
        }
        j.sync().unwrap();
        drop(j);

        // Flip one payload bit in the 6th record (frames are 8+16 bytes).
        let mut bytes = std::fs::read(&path).unwrap();
        let offset = WAL_MAGIC.len() + 5 * (FRAME_HEADER_LEN + 16) + FRAME_HEADER_LEN + 3;
        bytes[offset] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recs.len(), 5, "records 0..5 survive, 5.. dropped");
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 16]);
        }
        assert!(recovery.dropped_bytes > 0);
    }

    #[test]
    fn appending_after_recovery_continues_the_log() {
        let dir = tmpdir("heal");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        for i in 0u8..4 {
            j.append(&[i]).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 2]).unwrap();

        let (mut j, recs, _) = Journal::open(&path).unwrap();
        assert_eq!(recs.len(), 3);
        j.append(&[99]).unwrap();
        j.sync().unwrap();
        drop(j);

        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recovery.was_clean());
        assert_eq!(recs, vec![vec![0], vec![1], vec![2], vec![99]]);
    }

    #[test]
    fn visitor_error_stops_visits_but_still_repairs() {
        let dir = tmpdir("visit-err");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        for i in 0u8..10 {
            j.append(&[i; 16]).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();

        let mut visited = Vec::new();
        let err = Journal::open_with(&path, |payload| {
            visited.push(payload[0]);
            if payload[0] == 3 {
                Err(FbsError::corrupt_journal("visitor refused", 3))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                FbsError::CorruptJournal {
                    recovered_records: 3,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(visited, vec![0, 1, 2, 3], "no visits after the error");

        // The torn tail was truncated before the error came back.
        let valid = (WAL_MAGIC.len() + 9 * (FRAME_HEADER_LEN + 16)) as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recovery.was_clean());
        assert_eq!(recs.len(), 9);
    }

    #[test]
    fn records_larger_than_the_read_buffer_roundtrip_and_tear() {
        let dir = tmpdir("big");
        let path = dir.join("rounds.wal");
        let big: Vec<u8> = (0u32..1 << 20).map(|i| (i % 251) as u8).collect();
        assert!(big.len() > READ_BUFFER_LEN);
        let records = vec![vec![1u8; 40], big, vec![2u8; 3]];
        let mut j = Journal::create(&path).unwrap();
        for r in &records {
            j.append(r).unwrap();
        }
        drop(j);

        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recovery.was_clean());
        assert_eq!(recs, records);

        // Tear the file in the middle of the large record.
        let full = std::fs::read(&path).unwrap();
        let big_start = WAL_MAGIC.len() + FRAME_HEADER_LEN + 40;
        let cut = big_start + FRAME_HEADER_LEN + records[1].len() / 2;
        std::fs::write(&path, &full[..cut]).unwrap();
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recs, records[..1].to_vec());
        assert_eq!(recovery.dropped_bytes, (cut - big_start) as u64);
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recovery.was_clean());
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn bad_magic_quarantines_the_file() {
        let dir = tmpdir("quarantine");
        let path = dir.join("rounds.wal");
        std::fs::write(&path, b"NOTAWAL!some garbage").unwrap();

        let (mut j, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recs.is_empty());
        let qpath = recovery.quarantined.expect("quarantined");
        assert!(qpath.exists(), "damaged original preserved");
        assert_eq!(
            std::fs::read(&qpath).unwrap(),
            b"NOTAWAL!some garbage".to_vec()
        );
        // The fresh journal is usable.
        j.append(&[1, 2, 3]).unwrap();
        drop(j);
        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert!(recovery.was_clean());
        assert_eq!(recs, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn oversized_length_prefix_is_corruption_not_allocation() {
        let dir = tmpdir("hugelen");
        let path = dir.join("rounds.wal");
        let mut j = Journal::create(&path).unwrap();
        j.append(&[7; 8]).unwrap();
        drop(j);
        // Append a frame header claiming a 3 GiB payload.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&(3u32 << 30).to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();

        let (_, recs, recovery) = Journal::open(&path).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recovery.dropped_bytes, 8);
    }
}
