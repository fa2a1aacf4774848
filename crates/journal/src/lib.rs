//! Crash-safe persistence for long-running campaigns.
//!
//! The reproduced paper's measurement system ran continuously for three
//! years; the durable record, not any single process, is the asset. This
//! crate provides the two storage primitives the campaign runner builds
//! on:
//!
//! - [`Journal`] — an append-only write-ahead log of per-round records,
//!   each length-prefixed and CRC-32 checksummed. Opening a journal
//!   recovers the longest valid prefix: torn or bit-corrupted tails are
//!   physically truncated away, and a file with a damaged header is
//!   quarantined (renamed to `<name>.quarantined`) rather than trusted or
//!   deleted. [`Journal::open_with`] does this in one streaming pass that
//!   hands each CRC-checked record to a visitor, so recovery memory is one
//!   read buffer plus one record however long the journal grows;
//!   [`Journal::open`] collects the records instead.
//! - [`write_snapshot`] / [`read_snapshot`] — atomic whole-state
//!   snapshots (temp file + fsync + rename) with a versioned header, so a
//!   resume can skip replaying most of the journal. The replaced snapshot
//!   is kept as `<name>.prev` and rewritten in place by the next write,
//!   so replacing one frees no disk blocks.
//!
//! Both formats checksum with the zlib-compatible CRC-32 ([`crc32`], a
//! slicing-by-8 table kernel) and carry explicit magic/version bytes so
//! stale or foreign files fail fast.
//!
//! This crate is deliberately payload-version-agnostic: it moves opaque
//! bytes, and `fbs-core`'s checkpoint layer owns the schema. For
//! orientation, the payload versions that layer has shipped:
//!
//! | Version | Campaigns | Adds |
//! |---|---|---|
//! | 2 | legacy single-vantage | baseline layout |
//! | 3 | any vantage roster | per-vantage ledgers + disagreement |
//! | 4 | passive (IBR) signal on | per-AS predictor + radiation ledgers |
//! | 5 | supervised shard execution | per-round shard outcomes + ledger |
//!
//! Each version is additive and self-selecting: a campaign serializes as
//! the lowest version that can carry its features, so old checkpoint
//! directories stay bit-compatible and resume unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc32;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32;
pub use snapshot::{quarantine_snapshot, read_snapshot, write_snapshot, SNAPSHOT_MAGIC};
pub use wal::{Journal, JournalRecovery, MAX_RECORD_LEN, WAL_MAGIC};
