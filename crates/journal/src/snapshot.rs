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
//!
//! The snapshot a write replaces stays behind as `<name>.prev`, and the
//! next write assembles its temporary over that file in place, so a
//! directory holds two snapshot-sized files and replacing a snapshot
//! frees no blocks. Freed blocks are discarded when the filesystem
//! commits them, and every fsync waits for that commit: on an ext4
//! mounted with `discard`, renaming over a 4 MB snapshot held the
//! journal's next per-round fsync for 75–180 ms.

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
    let tmp = sibling(path, ".tmp");
    let prev = sibling(path, ".prev");

    let mut header = Vec::with_capacity(HEADER_LEN);
    header.extend_from_slice(SNAPSHOT_MAGIC);
    header.extend_from_slice(&version.to_le_bytes());
    header.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());

    // Assemble over the temp file an interrupted write left, else over
    // the snapshot before last, but never over a second link of the live
    // snapshot (a crash between the link and the rename below leaves one).
    for spare in [tmp.as_path(), prev.as_path()] {
        if same_file(spare, path) {
            std::fs::remove_file(spare)?;
        }
    }
    if !tmp.exists() {
        let _ = std::fs::rename(&prev, &tmp);
    }
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(&tmp)?;
    file.write_all(&header)?;
    file.write_all(payload)?;
    file.set_len((HEADER_LEN + payload.len()) as u64)?;
    file.sync_all()?;
    drop(file);

    // Keep the replaced snapshot linked, so the rename frees none of its
    // blocks. Best effort, like the directory fsync.
    let _ = std::fs::remove_file(&prev);
    let _ = std::fs::hard_link(path, &prev);
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Whether `a` and `b` are links to one file. Without inode numbers
/// (non-Unix) any two existing files count as one, which turns off the
/// reuse of `.prev`.
#[cfg(unix)]
fn same_file(a: &Path, b: &Path) -> bool {
    use std::os::unix::fs::MetadataExt;
    match (std::fs::metadata(a), std::fs::metadata(b)) {
        (Ok(a), Ok(b)) => (a.dev(), a.ino()) == (b.dev(), b.ino()),
        _ => false,
    }
}

#[cfg(not(unix))]
fn same_file(a: &Path, b: &Path) -> bool {
    a.exists() && b.exists()
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
    let quarantine = sibling(path, ".quarantined");
    std::fs::rename(path, &quarantine)?;
    sync_parent_dir(path);
    Ok(quarantine)
}

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
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
        assert!(!sibling(&path, ".tmp").exists());
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
    fn rewrite_assembles_over_the_snapshot_before_last() {
        let dir = tmpdir("reuse");
        let path = dir.join("state.snap");
        let prev = sibling(&path, ".prev");
        write_snapshot(&path, 1, b"the first and longest payload").unwrap();
        assert!(!prev.exists());
        write_snapshot(&path, 2, b"second").unwrap();
        assert_eq!(
            read_snapshot(&prev).unwrap().unwrap().1,
            b"the first and longest payload"
        );
        #[cfg(unix)]
        let first = {
            use std::os::unix::fs::MetadataExt;
            std::fs::metadata(&prev).unwrap().ino()
        };
        // The third write lands in the first one's file, cut to length.
        write_snapshot(&path, 3, b"third").unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap().unwrap(),
            (3, b"third".to_vec())
        );
        assert_eq!(
            read_snapshot(&prev).unwrap().unwrap(),
            (2, b"second".to_vec())
        );
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            assert_eq!(std::fs::metadata(&path).unwrap().ino(), first);
        }
        assert!(!sibling(&path, ".tmp").exists());
    }

    #[test]
    fn a_second_link_of_the_live_snapshot_is_never_written_in_place() {
        for spare in [".prev", ".tmp"] {
            let dir = tmpdir(&format!("alias{spare}"));
            let path = dir.join("state.snap");
            write_snapshot(&path, 1, b"live").unwrap();
            write_snapshot(&path, 2, b"live and well").unwrap();
            // What a crash between the link and the rename, or a hand
            // that links the live file, leaves behind.
            let _ = std::fs::remove_file(sibling(&path, spare));
            std::fs::hard_link(&path, sibling(&path, spare)).unwrap();
            let witness = dir.join("witness");
            std::fs::hard_link(&path, &witness).unwrap();

            write_snapshot(&path, 3, b"next").unwrap();
            assert_eq!(
                read_snapshot(&path).unwrap().unwrap(),
                (3, b"next".to_vec())
            );
            assert_eq!(
                read_snapshot(&witness).unwrap().unwrap(),
                (2, b"live and well".to_vec()),
                "{spare}"
            );
            assert!(!sibling(&path, ".tmp").exists(), "{spare}");
        }
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
