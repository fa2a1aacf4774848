//! Property tests for journal recovery.
//!
//! The contract under test: for *any* sequence of appended records and
//! *any* single point of damage (truncation at an arbitrary byte offset,
//! or a bit flip at an arbitrary byte offset), reopening the journal
//! (a) never errors and never panics, (b) recovers exactly a prefix of
//! the appended records, byte-for-byte, and (c) never yields a phantom
//! record that was not appended.

use fbs_journal::Journal;
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static CASE: AtomicU64 = AtomicU64::new(0);

/// One case's journal, alone in a directory of its own. Dropping it at the
/// end of the case, or on a failed assertion, removes the directory with
/// the journal and any copy that recovery quarantined beside it.
struct CaseJournal {
    dir: PathBuf,
    path: PathBuf,
}

impl Drop for CaseJournal {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Writes `records` to a fresh journal.
fn build_journal(tag: &str, records: &[Vec<u8>]) -> CaseJournal {
    let dir = std::env::temp_dir().join(format!(
        "fbs-journal-prop-{}-{tag}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rounds.wal");
    let mut journal = Journal::create(&path).unwrap();
    for record in records {
        journal.append(record).unwrap();
    }
    journal.sync().unwrap();
    CaseJournal { dir, path }
}

/// Asserts `recovered` is a byte-exact prefix of `original`.
fn assert_prefix(recovered: &[Vec<u8>], original: &[Vec<u8>]) {
    assert!(
        recovered.len() <= original.len(),
        "phantom records: recovered {} of {} appended",
        recovered.len(),
        original.len()
    );
    for (i, (got, want)) in recovered.iter().zip(original).enumerate() {
        assert_eq!(got, want, "record {i} differs after recovery");
    }
}

proptest! {
    #[test]
    fn truncation_at_any_offset_recovers_a_prefix(
        records in vec(vec(any::<u8>(), 0..48usize), 0..16usize),
        cut_seed in any::<u64>(),
    ) {
        let case = build_journal("trunc", &records);
        let path = &case.path;
        let full = std::fs::read(path).unwrap();
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        std::fs::write(path, &full[..cut]).unwrap();

        let (_, recovered, recovery) = Journal::open(path).unwrap();
        assert_prefix(&recovered, &records);
        prop_assert_eq!(recovery.records, recovered.len() as u64);
        // Cutting inside the 8-byte magic quarantines; otherwise the file
        // is repaired in place and a reopen must be clean.
        if cut >= 8 {
            prop_assert!(recovery.quarantined.is_none());
            let (_, again, recovery2) = Journal::open(path).unwrap();
            prop_assert!(recovery2.was_clean());
            prop_assert_eq!(again.len(), recovered.len());
        }
    }

    #[test]
    fn bit_flip_at_any_offset_recovers_a_prefix(
        records in vec(vec(any::<u8>(), 0..48usize), 1..16usize),
        offset_seed in any::<u64>(),
        bit in 0u32..8,
    ) {
        let case = build_journal("flip", &records);
        let path = &case.path;
        let mut bytes = std::fs::read(path).unwrap();
        let offset = (offset_seed % bytes.len() as u64) as usize;
        bytes[offset] ^= 1u8 << bit;
        std::fs::write(path, &bytes).unwrap();

        let (_, recovered, recovery) = Journal::open(path).unwrap();
        assert_prefix(&recovered, &records);
        prop_assert_eq!(recovery.records, recovered.len() as u64);
        if offset >= 8 {
            // Damage past the magic: every record before the damaged frame
            // must survive. Find which record's frame the flip landed in.
            let mut frame_start = 8usize;
            let mut damaged_index = records.len();
            for (i, record) in records.iter().enumerate() {
                let frame_end = frame_start + 8 + record.len();
                if offset < frame_end {
                    damaged_index = i;
                    break;
                }
                frame_start = frame_end;
            }
            prop_assert!(
                recovered.len() >= damaged_index,
                "lost {} undamaged records before the flipped frame",
                damaged_index - recovered.len()
            );
        }
    }

    #[test]
    fn undamaged_journals_always_roundtrip(
        records in vec(vec(any::<u8>(), 0..128usize), 0..24usize),
    ) {
        let case = build_journal("clean", &records);
        let path = &case.path;
        let (_, recovered, recovery) = Journal::open(path).unwrap();
        prop_assert!(recovery.was_clean());
        prop_assert_eq!(recovered, records);
    }
}
