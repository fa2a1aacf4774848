//! External-feed identity, staleness, and quarantine vocabulary.
//!
//! The campaign's three outage signals lean on three external feeds:
//! RouteViews-style RIB dumps (the BGP ★ signal), monthly geolocation
//! snapshots (regional classification), and RIR delegation files (target
//! derivation). Real wartime collections of all three suffer gaps, partial
//! exports, and registry lag; an ingest layer that treats one malformed
//! line as a fatal error will either crash mid-campaign or — worse —
//! silently hallucinate country-scale outages when a feed goes dark.
//!
//! This module is the shared vocabulary for feed resilience: which feed
//! ([`FeedKind`]), how trustworthy its latest delivery is ([`FeedStatus`]),
//! and what a lossy parser set aside ([`QuarantinedRecord`]). The parsing
//! crates (`fbs-bgp`, `fbs-delegations`, `fbs-geodb`) depend only on this
//! crate, so their `parse_lossy` paths can report quarantined records
//! without pulling in the feed-loading machinery of `fbs-feeds`.

use crate::codec::{ByteReader, ByteWriter, Persist};
use crate::error::{FbsError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which external feed a status or quarantine report refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FeedKind {
    /// RouteViews-style RIB dumps driving the BGP ★ signal.
    Bgp,
    /// Monthly geolocation snapshots driving regional classification.
    Geo,
    /// RIR delegation files driving target derivation.
    Delegations,
}

impl FeedKind {
    /// Every feed, in canonical (persist/report) order.
    pub const ALL: [FeedKind; 3] = [FeedKind::Bgp, FeedKind::Geo, FeedKind::Delegations];

    /// Stable lowercase name, used in reports and fixture paths.
    pub fn name(self) -> &'static str {
        match self {
            FeedKind::Bgp => "bgp",
            FeedKind::Geo => "geo",
            FeedKind::Delegations => "delegations",
        }
    }

    /// Position in [`FeedKind::ALL`]; stable across versions.
    pub fn index(self) -> usize {
        match self {
            FeedKind::Bgp => 0,
            FeedKind::Geo => 1,
            FeedKind::Delegations => 2,
        }
    }
}

impl fmt::Display for FeedKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How current one feed's data is for one round.
///
/// The ordering is by severity (`Fresh < Stale(n) < Stale(n+1) < Missing`),
/// so [`Ord::max`] / [`FeedStatus::worst`] combines verdicts.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum FeedStatus {
    /// The feed delivered and parsed within tolerance this round.
    #[default]
    Fresh,
    /// No (acceptable) delivery this round; the pipeline is running on
    /// data carried forward from `age` rounds ago (`age >= 1`).
    Stale(u32),
    /// No delivery this round and no last-good data to carry forward.
    Missing,
}

impl FeedStatus {
    /// The more severe of two statuses.
    #[inline]
    pub fn worst(self, other: FeedStatus) -> FeedStatus {
        self.max(other)
    }

    /// Whether the feed delivered fresh data this round.
    #[inline]
    pub fn is_fresh(self) -> bool {
        self == FeedStatus::Fresh
    }

    /// Whether any data (fresh or carried forward) backs this round.
    #[inline]
    pub fn has_data(self) -> bool {
        self != FeedStatus::Missing
    }

    /// Rounds since the last fresh delivery (0 when fresh, `None` when no
    /// data has ever arrived).
    #[inline]
    pub fn age(self) -> Option<u32> {
        match self {
            FeedStatus::Fresh => Some(0),
            FeedStatus::Stale(n) => Some(n),
            FeedStatus::Missing => None,
        }
    }

    /// The status after a round with no acceptable delivery: last-good data
    /// ages by one round; never-delivered stays missing.
    #[inline]
    pub fn aged(self) -> FeedStatus {
        match self {
            FeedStatus::Fresh => FeedStatus::Stale(1),
            FeedStatus::Stale(n) => FeedStatus::Stale(n.saturating_add(1)),
            FeedStatus::Missing => FeedStatus::Missing,
        }
    }
}

impl fmt::Display for FeedStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FeedStatus::Fresh => f.write_str("fresh"),
            FeedStatus::Stale(n) => write!(f, "stale({n})"),
            FeedStatus::Missing => f.write_str("missing"),
        }
    }
}

/// One malformed record a lossy parser set aside instead of failing the
/// whole feed. `line` is 1-based, or 0 for a structural record of the
/// whole delivery (a missing header, too few records); `input` is the
/// offending line, truncated to [`QuarantinedRecord::MAX_INPUT`] bytes so
/// a corrupt feed cannot bloat the report.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct QuarantinedRecord {
    /// 1-based line number within the feed text; 0 for a structural
    /// record that no one line carries.
    pub line: u32,
    /// Why the record was rejected (parser error message).
    pub reason: String,
    /// The offending input line, truncated to a UTF-8-safe prefix.
    pub input: String,
}

impl QuarantinedRecord {
    /// Cap on stored input bytes per quarantined record.
    pub const MAX_INPUT: usize = 200;

    /// Builds a record, truncating `input` at a char boundary.
    pub fn new(line: u32, reason: impl Into<String>, input: &str) -> Self {
        let mut end = input.len().min(Self::MAX_INPUT);
        while end < input.len() && !input.is_char_boundary(end) {
            end -= 1;
        }
        QuarantinedRecord {
            line,
            reason: reason.into(),
            input: input[..end].to_string(),
        }
    }
}

impl fmt::Display for QuarantinedRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}: {} (input: {:?})",
            self.line, self.reason, self.input
        )
    }
}

impl Persist for FeedKind {
    // Tags mirror `index()`: the wire format is unchanged, but the match
    // keeps both codec sides naming every variant, so adding a feed kind
    // without extending restore() is a compile- or lint-visible error.
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            FeedKind::Bgp => w.put_u8(0),
            FeedKind::Geo => w.put_u8(1),
            FeedKind::Delegations => w.put_u8(2),
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(FeedKind::Bgp),
            1 => Ok(FeedKind::Geo),
            2 => Ok(FeedKind::Delegations),
            other => Err(FbsError::Io {
                reason: format!("invalid feed kind tag {other:#x}"),
            }),
        }
    }
}

impl Persist for FeedStatus {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            FeedStatus::Fresh => w.put_u8(0),
            FeedStatus::Stale(n) => {
                w.put_u8(1);
                w.put_u32(*n);
            }
            FeedStatus::Missing => w.put_u8(2),
        }
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(FeedStatus::Fresh),
            1 => Ok(FeedStatus::Stale(r.get_u32()?)),
            2 => Ok(FeedStatus::Missing),
            other => Err(FbsError::Io {
                reason: format!("invalid feed status tag {other:#x}"),
            }),
        }
    }
}

impl Persist for QuarantinedRecord {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.line);
        w.put_str(&self.reason);
        w.put_str(&self.input);
    }
    fn restore(r: &mut ByteReader<'_>) -> Result<Self> {
        Ok(QuarantinedRecord {
            line: r.get_u32()?,
            reason: r.get_str()?,
            input: r.get_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Persist + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = ByteWriter::new();
        value.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = T::restore(&mut r).expect("restore");
        r.expect_exhausted().expect("all bytes consumed");
        assert_eq!(back, value);
    }

    #[test]
    fn severity_order() {
        assert!(FeedStatus::Fresh < FeedStatus::Stale(1));
        assert!(FeedStatus::Stale(1) < FeedStatus::Stale(12));
        assert!(FeedStatus::Stale(u32::MAX) < FeedStatus::Missing);
        assert_eq!(
            FeedStatus::Fresh.worst(FeedStatus::Stale(3)),
            FeedStatus::Stale(3)
        );
    }

    #[test]
    fn aging_transitions() {
        assert_eq!(FeedStatus::Fresh.aged(), FeedStatus::Stale(1));
        assert_eq!(FeedStatus::Stale(4).aged(), FeedStatus::Stale(5));
        assert_eq!(FeedStatus::Missing.aged(), FeedStatus::Missing);
        assert_eq!(
            FeedStatus::Stale(u32::MAX).aged(),
            FeedStatus::Stale(u32::MAX)
        );
    }

    #[test]
    fn predicates_and_age() {
        assert!(FeedStatus::Fresh.is_fresh());
        assert!(FeedStatus::Fresh.has_data());
        assert!(FeedStatus::Stale(2).has_data());
        assert!(!FeedStatus::Missing.has_data());
        assert_eq!(FeedStatus::Fresh.age(), Some(0));
        assert_eq!(FeedStatus::Stale(9).age(), Some(9));
        assert_eq!(FeedStatus::Missing.age(), None);
    }

    #[test]
    fn kind_names_and_order() {
        assert_eq!(FeedKind::ALL.len(), 3);
        for (i, k) in FeedKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        assert_eq!(FeedKind::Bgp.to_string(), "bgp");
        assert_eq!(FeedKind::Delegations.name(), "delegations");
    }

    /// Pins the repaired `FeedKind` codec to its wire format: the rewrite
    /// of persist() from `self.index()` to an explicit match must emit the
    /// exact bytes the old encoder produced, or resuming a pre-repair
    /// journal would misread every feed tag.
    #[test]
    fn feed_kind_wire_tags_are_pinned() {
        for kind in FeedKind::ALL {
            let mut w = ByteWriter::new();
            kind.persist(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(bytes, vec![kind.index() as u8], "{kind} tag drifted");
            let mut r = ByteReader::new(&bytes);
            assert_eq!(FeedKind::restore(&mut r).expect("restore"), kind);
        }
    }

    #[test]
    fn quarantine_truncates_on_char_boundary() {
        let long = "п".repeat(300); // 2-byte chars; 300 chars = 600 bytes
        let q = QuarantinedRecord::new(7, "bad record", &long);
        assert!(q.input.len() <= QuarantinedRecord::MAX_INPUT);
        assert!(q.input.chars().all(|c| c == 'п'));
        assert_eq!(q.line, 7);
    }

    #[test]
    fn persist_roundtrips() {
        for k in FeedKind::ALL {
            roundtrip(k);
        }
        roundtrip(FeedStatus::Fresh);
        roundtrip(FeedStatus::Stale(42));
        roundtrip(FeedStatus::Missing);
        roundtrip(QuarantinedRecord::new(3, "bad prefix", "10.0.0.0/33|1"));
    }

    #[test]
    fn invalid_tags_rejected() {
        let mut r = ByteReader::new(&[9]);
        assert!(FeedKind::restore(&mut r).is_err());
        let mut r = ByteReader::new(&[7]);
        assert!(FeedStatus::restore(&mut r).is_err());
    }
}
