//! Line-oriented text format for geo snapshots.
//!
//! The BGP and delegation feeds already have streamable text formats; this
//! module gives the monthly geolocation snapshot one too, so all three
//! external feeds can be delivered, corrupted, quarantined, and carried
//! forward through the same machinery. One block per line:
//!
//! ```text
//! # geo snapshot
//! geo|2022-03
//! 10.0.0.0/24|25482|50|Kherson:200
//! 10.0.1.0/24|-|100|Kherson:100,Kyiv:40,US:10
//! ```
//!
//! Header `geo|YYYY-MM`, then `block|asn|radius_km|region:count,...` with
//! `-` for an unrouted block and regions named either by oblast (paper
//! spelling, hyphen/case tolerant) or a two-letter country code. Like the
//! BGP dump format, [`from_str`] is strict with `line N:` context and
//! [`parse_lossy`] quarantines malformed records instead of failing.

use crate::radius::{RadiusKm, RADIUS_SCALE};
use crate::snapshot::{BlockGeo, GeoRegion, GeoSnapshot};
use fbs_types::{Asn, BlockId, FbsError, MonthId, Oblast, Prefix, QuarantinedRecord, Result};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Serializes a snapshot to the line format, blocks in address order.
/// The second line is a `# blocks: N` comment declaring the record
/// count, which the feed layer uses to detect truncated deliveries.
pub fn to_string(snap: &GeoSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "geo|{}", snap.month);
    let _ = writeln!(out, "# blocks: {}", snap.num_blocks());
    for b in snap.iter() {
        let _ = write!(out, "{}|", b.block);
        match b.asn {
            Some(a) => {
                let _ = write!(out, "{}", a.value());
            }
            None => out.push('-'),
        }
        let _ = write!(out, "|{}|", b.radius.km());
        for (i, (region, count)) in b.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{count}", region.label());
        }
        out.push('\n');
    }
    out
}

/// Parses the `geo|YYYY-MM` header line.
fn parse_header(line: &str) -> Option<MonthId> {
    let rest = line.strip_prefix("geo|")?;
    let (y, m) = rest.split_once('-')?;
    if y.is_empty() || !y.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let year: i32 = y.parse().ok()?;
    let month: u8 = m.parse().ok()?;
    if !(1..=12).contains(&month) {
        return None;
    }
    Some(MonthId::new(year, month))
}

fn parse_region(s: &str) -> Option<GeoRegion> {
    let b = s.as_bytes();
    if b.len() == 2 && b.iter().all(|c| c.is_ascii_alphabetic()) {
        return Some(GeoRegion::Foreign([
            b[0].to_ascii_uppercase(),
            b[1].to_ascii_uppercase(),
        ]));
    }
    Oblast::parse_name(s).map(GeoRegion::Ua)
}

fn radius_from_km(km: u16) -> Option<RadiusKm> {
    RADIUS_SCALE.iter().copied().find(|r| r.km() == km)
}

/// Splits one record line. Errors carry `(reason, offending input)`
/// without line context — the strict and lossy wrappers add it.
fn parse_block_line(line: &str) -> std::result::Result<BlockGeo, (String, String)> {
    let fields: Vec<&str> = line.split('|').collect();
    if fields.len() != 4 {
        return Err((
            "expected 4 '|'-separated fields".to_string(),
            line.to_string(),
        ));
    }
    let prefix: Prefix = fields[0]
        .parse()
        .map_err(|_| ("bad block".to_string(), fields[0].to_string()))?;
    if prefix.len() != 24 {
        return Err(("block must be a /24".to_string(), fields[0].to_string()));
    }
    let block = BlockId::containing(prefix.network());
    let asn = match fields[1] {
        "-" => None,
        a => Some(
            a.parse::<u32>()
                .map(Asn)
                .map_err(|_| ("bad ASN".to_string(), a.to_string()))?,
        ),
    };
    let radius = fields[2]
        .parse::<u16>()
        .ok()
        .and_then(radius_from_km)
        .ok_or_else(|| ("bad radius".to_string(), fields[2].to_string()))?;
    let mut counts = Vec::new();
    let mut regions_seen = BTreeSet::new();
    if !fields[3].is_empty() {
        for part in fields[3].split(',') {
            let (region, count) = part
                .split_once(':')
                .ok_or_else(|| ("missing ':' in region count".to_string(), part.to_string()))?;
            let region = parse_region(region)
                .ok_or_else(|| ("unknown region".to_string(), region.to_string()))?;
            let count: u16 = count
                .parse()
                .map_err(|_| ("bad count".to_string(), part.to_string()))?;
            if count == 0 {
                return Err(("zero count".to_string(), part.to_string()));
            }
            if !regions_seen.insert(region) {
                return Err(("duplicate region".to_string(), part.to_string()));
            }
            counts.push((region, count));
        }
    }
    if counts.iter().map(|(_, c)| *c as u32).sum::<u32>() > BlockId::SIZE {
        return Err(("counts exceed block capacity".to_string(), line.to_string()));
    }
    Ok(BlockGeo {
        block,
        asn,
        counts,
        radius,
    })
}

/// Parses a snapshot produced by [`to_string`].
///
/// Strict: the first line (after blanks/comments) must be the header, and
/// any malformed or duplicate block line is a [`FbsError::Parse`] with
/// `line N:` context.
pub fn from_str(s: &str) -> Result<GeoSnapshot> {
    let mut month = None;
    let mut records = Vec::new();
    let mut seen = BTreeSet::new();
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if month.is_none() {
            month = Some(parse_header(line).ok_or_else(|| {
                FbsError::parse(format!("line {}: bad geo header", lineno + 1), line)
            })?);
            continue;
        }
        let rec = parse_block_line(line).map_err(|(reason, input)| {
            FbsError::parse(format!("line {}: {reason}", lineno + 1), &input)
        })?;
        if !seen.insert(rec.block) {
            return Err(FbsError::parse(
                format!("line {}: duplicate block {}", lineno + 1, rec.block),
                line,
            ));
        }
        records.push(rec);
    }
    let month = month.ok_or_else(|| FbsError::parse("missing geo header", ""))?;
    GeoSnapshot::from_records(month, records)
}

/// Lossy parse: never fails. Malformed and duplicate block lines are
/// quarantined with 1-based line context (first occurrence wins on
/// duplicates); a missing or malformed header yields an epoch-month
/// snapshot plus a quarantine entry so the caller's tolerance judgement
/// sees the structural failure.
pub fn parse_lossy(s: &str) -> (GeoSnapshot, Vec<QuarantinedRecord>) {
    let mut month = None;
    let mut records = Vec::new();
    let mut quarantine = Vec::new();
    let mut seen = BTreeSet::new();
    let mut header_tried = false;
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = (lineno + 1) as u32;
        // Only the first content line may be the header; a malformed one is
        // quarantined and the remaining lines still parse as records.
        if !header_tried {
            header_tried = true;
            match parse_header(line) {
                Some(m) => month = Some(m),
                None => quarantine.push(QuarantinedRecord::new(lineno, "bad geo header", line)),
            }
            continue;
        }
        match parse_block_line(line) {
            Err((reason, _)) => quarantine.push(QuarantinedRecord::new(lineno, reason, line)),
            Ok(rec) => {
                if seen.insert(rec.block) {
                    records.push(rec);
                } else {
                    quarantine.push(QuarantinedRecord::new(
                        lineno,
                        format!("duplicate block {}", rec.block),
                        line,
                    ));
                }
            }
        }
    }
    if !header_tried {
        // Synthetic entry (line 0): no content line exists to blame, so the
        // tolerance judgement weighs it as the whole payload.
        quarantine.push(QuarantinedRecord::new(0, "missing geo header", ""));
    }
    // Blocks are unique by construction here, so the lossy constructor
    // quarantines nothing further.
    let (snap, more) = GeoSnapshot::from_records_lossy(month.unwrap_or(MonthId(0)), records);
    quarantine.extend(more);
    (snap, quarantine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GeoSnapshot {
        GeoSnapshot::from_records(
            MonthId::new(2022, 3),
            vec![
                BlockGeo {
                    block: BlockId::from_octets(10, 0, 0),
                    asn: Some(Asn(25482)),
                    counts: vec![(GeoRegion::Ua(Oblast::Kherson), 200)],
                    radius: RadiusKm::R50,
                },
                BlockGeo {
                    block: BlockId::from_octets(10, 0, 1),
                    asn: None,
                    counts: vec![
                        (GeoRegion::Ua(Oblast::IvanoFrankivsk), 100),
                        (GeoRegion::Ua(Oblast::Kyiv), 40),
                        (GeoRegion::foreign("US"), 10),
                    ],
                    radius: RadiusKm::R500,
                },
                BlockGeo {
                    block: BlockId::from_octets(10, 0, 2),
                    asn: Some(Asn(21151)),
                    counts: vec![],
                    radius: RadiusKm::R5000,
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_is_canonical() {
        let text = to_string(&sample());
        let parsed = from_str(&text).unwrap();
        assert_eq!(parsed.month, MonthId::new(2022, 3));
        assert_eq!(parsed.num_blocks(), 3);
        let b = parsed.get(BlockId::from_octets(10, 0, 1)).unwrap();
        assert_eq!(b.asn, None);
        assert_eq!(b.radius, RadiusKm::R500);
        assert_eq!(b.counts[0], (GeoRegion::Ua(Oblast::IvanoFrankivsk), 100));
        assert_eq!(to_string(&parsed), text);
    }

    #[test]
    fn malformed_lines_error_with_context() {
        let err = from_str("geo|2022-03\n10.0.0.0/24|25482|50\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/22|1|50|Kyiv:1\n").unwrap_err();
        assert!(err.to_string().contains("/24"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|51|Kyiv:1\n").unwrap_err();
        assert!(err.to_string().contains("bad radius"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|50|Atlantis:1\n").unwrap_err();
        assert!(err.to_string().contains("unknown region"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|50|Kyiv:0\n").unwrap_err();
        assert!(err.to_string().contains("zero count"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|50|Kyiv:200,Kyiv:3\n").unwrap_err();
        assert!(err.to_string().contains("duplicate region"), "{err}");
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|50|Kyiv:200,Lviv:100\n").unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
        let err = from_str("not-a-header\n").unwrap_err();
        assert!(err.to_string().contains("bad geo header"), "{err}");
        assert!(from_str("").is_err());
    }

    #[test]
    fn duplicate_block_is_an_error_with_line_context() {
        let err = from_str("geo|2022-03\n10.0.0.0/24|1|50|Kyiv:1\n10.0.0.0/24|1|50|Kyiv:2\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "{msg}");
        assert!(msg.contains("duplicate block"), "{msg}");
    }

    #[test]
    fn lossy_quarantines_instead_of_failing() {
        let text = "geo|2022-03\n\
                    10.0.0.0/24|1|50|Kyiv:1\n\
                    garbage line\n\
                    10.0.0.0/24|1|50|Kyiv:2\n\
                    10.0.1.0/24|-|100|Kherson:5\n";
        let (snap, quarantine) = parse_lossy(text);
        assert_eq!(snap.num_blocks(), 2);
        assert_eq!(
            snap.get(BlockId::from_octets(10, 0, 0)).unwrap().counts,
            vec![(GeoRegion::Ua(Oblast::Kyiv), 1)]
        );
        assert_eq!(quarantine.len(), 2);
        assert_eq!(quarantine[0].line, 3);
        assert_eq!(quarantine[1].line, 4);
        assert!(quarantine[1].reason.contains("duplicate block"));
    }

    #[test]
    fn lossy_missing_header_is_quarantined_not_fatal() {
        let (snap, quarantine) = parse_lossy("10.0.0.0/24|1|50|Kyiv:1\n");
        assert_eq!(snap.num_blocks(), 0);
        assert!(quarantine.iter().any(|q| q.reason.contains("header")));
    }

    #[test]
    fn header_missing_from_a_contentless_delivery_is_filed_at_line_0() {
        // A comment-only text has no line to blame: the record is
        // synthetic, like the other formats' structural records.
        for text in ["", "#\n", "# blocks: 3\n"] {
            let (_, quarantine) = parse_lossy(text);
            assert_eq!(quarantine.len(), 1, "{text:?}");
            assert_eq!(quarantine[0].line, 0, "{text:?}");
            assert_eq!(quarantine[0].reason, "missing geo header");
        }
    }

    #[test]
    fn lossy_on_valid_snapshot_quarantines_nothing_and_roundtrips() {
        let text = to_string(&sample());
        let (snap, quarantine) = parse_lossy(&text);
        assert!(quarantine.is_empty());
        assert_eq!(to_string(&snap), text);
    }
}
