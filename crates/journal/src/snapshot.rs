//! Atomic, versioned state snapshots.
//!
//! ## File format (`FBSSNAP1`)
//!
//! ```text
//! magic    8 bytes  b"FBSSNAP1"  (format name + format version)
//! version  u32 LE   caller-defined payload schema version
//! len      u64 LE   payload length in bytes
//! crc      u32 LE   CRC-32 (IEEE) of the payload
//! payload  len bytes
//! ```
//!
//! Snapshots are replaced wholesale: [`write_snapshot`] assembles the file
//! in a temporary sibling, fsyncs it, then renames it over the target and
//! fsyncs the directory. A reader therefore sees either the previous
//! snapshot or the new one, never a half-written hybrid — any validation
//! failure in [`read_snapshot`] means storage damage, which the caller
//! should treat by quarantining the file and replaying its journal.

use crate::crc32::crc32;
use crate::wal::{read_array, sync_parent_dir};
use fbs_types::{FbsError, Result};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// Format magic for snapshot files.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"FBSSNAP1";

const HEADER_LEN: usize = 8 + 4 + 8 + 4;

/// Atomically writes `payload` (with schema `version`) to `path`.
pub fn write_snapshot(path: impl AsRef<Path>, version: u32, payload: &[u8]) -> Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(SNAPSHOT_MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());

    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&header)?;
    file.write_all(payload)?;
    file.sync_all()?;
    drop(file);

    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Reads and validates the snapshot at `path`.
///
/// Returns `Ok(None)` when no snapshot exists yet,
/// `Ok(Some((version, payload)))` for a valid one, and
/// [`FbsError::CorruptSnapshot`] when the header, length, or checksum does
/// not validate.
pub fn read_snapshot(path: impl AsRef<Path>) -> Result<Option<(u32, Vec<u8>)>> {
    let path = path.as_ref();
    if !path.exists() {
        return Ok(None);
    }
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN as u64 {
        return Err(FbsError::corrupt_snapshot(format!(
            "file is {file_len} bytes, shorter than the {HEADER_LEN}-byte header"
        )));
    }
    let magic: [u8; 8] = read_array(&mut file)?;
    if &magic != SNAPSHOT_MAGIC {
        return Err(FbsError::corrupt_snapshot(format!(
            "bad magic {magic:02x?}"
        )));
    }
    let version = u32::from_le_bytes(read_array(&mut file)?);
    let len = u64::from_le_bytes(read_array(&mut file)?);
    let crc = u32::from_le_bytes(read_array(&mut file)?);
    // The payload is read straight into the buffer that is returned. Its
    // capacity comes from the file size, never from the header, so a
    // corrupt length cannot request an allocation.
    let mut payload = Vec::with_capacity((file_len - HEADER_LEN as u64) as usize);
    file.read_to_end(&mut payload)?;
    if payload.len() as u64 != len {
        return Err(FbsError::corrupt_snapshot(format!(
            "header declares {len} payload bytes, file holds {}",
            payload.len()
        )));
    }
    if crc32(&payload) != crc {
        return Err(FbsError::corrupt_snapshot(
            "payload checksum mismatch".to_string(),
        ));
    }
    Ok(Some((version, payload)))
}

/// Moves a damaged snapshot aside to `<name>.quarantined`, returning the
/// quarantine path. The caller then proceeds as if no snapshot existed.
pub fn quarantine_snapshot(path: impl AsRef<Path>) -> Result<PathBuf> {
    let path = path.as_ref();
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantined");
    let quarantine = PathBuf::from(name);
    std::fs::rename(path, &quarantine)?;
    sync_parent_dir(path);
    Ok(quarantine)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fbs-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("state.snap");
        assert_eq!(read_snapshot(&path).unwrap(), None);
        write_snapshot(&path, 3, b"detector state").unwrap();
        let (version, payload) = read_snapshot(&path).unwrap().expect("snapshot present");
        assert_eq!(version, 3);
        assert_eq!(payload, b"detector state");
        // No temp residue.
        assert!(!tmp_path(&path).exists());
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmpdir("replace");
        let path = dir.join("state.snap");
        write_snapshot(&path, 1, b"old").unwrap();
        write_snapshot(&path, 2, b"new and longer").unwrap();
        let (version, payload) = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(version, 2);
        assert_eq!(payload, b"new and longer");
    }

    #[test]
    fn corruption_is_detected() {
        let dir = tmpdir("corrupt");
        let path = dir.join("state.snap");
        write_snapshot(&path, 1, b"some payload bytes").unwrap();

        // Bit-flip in payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(FbsError::CorruptSnapshot { .. })
        ));

        // Truncation.
        write_snapshot(&path, 1, b"some payload bytes").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(FbsError::CorruptSnapshot { .. })
        ));

        // Bad magic.
        std::fs::write(
            &path,
            b"WRONGMAGandmore padding to pass the header length check",
        )
        .unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(FbsError::CorruptSnapshot { .. })
        ));
    }

    #[test]
    fn quarantine_moves_the_file_aside() {
        let dir = tmpdir("aside");
        let path = dir.join("state.snap");
        std::fs::write(&path, b"garbage").unwrap();
        let qpath = quarantine_snapshot(&path).unwrap();
        assert!(!path.exists());
        assert!(qpath.exists());
        assert_eq!(read_snapshot(&path).unwrap(), None);
    }
}
