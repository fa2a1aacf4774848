//! Lossy-parse tolerance judgement.
//!
//! A lossy parser never fails — it returns whatever parsed plus a list of
//! quarantined records. Whether that delivery is *acceptable* is a policy
//! question answered here: a dump that lost 2% of its lines to corruption
//! is still far better than no dump, but one that lost half its lines
//! would silently erase half the routing table and must be rejected so the
//! pipeline carries forward the last good delivery instead.

use fbs_types::codec::{ByteReader, ByteWriter, Persist};
use fbs_types::{FeedKind, Prefix, QuarantinedRecord, Round};
use serde::{Deserialize, Serialize};

/// Acceptance thresholds for a lossy delivery.
///
/// Both rates are fractions in `[0, 1]`, judged independently; exceeding
/// either rejects the delivery. The byte rate catches the case where few
/// records are quarantined but they carry most of the payload (a truncated
/// dump whose tail fused into one giant garbage line); the record rate
/// catches widespread line-level corruption.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LossyTolerance {
    /// Maximum quarantined fraction of parseable records (default 0.10).
    pub max_record_rate: f64,
    /// Maximum quarantined fraction of content bytes (default 0.25).
    pub max_byte_rate: f64,
}

impl Default for LossyTolerance {
    fn default() -> Self {
        LossyTolerance {
            max_record_rate: 0.10,
            max_byte_rate: 0.25,
        }
    }
}

impl LossyTolerance {
    /// A tolerance that rejects any quarantined record at all.
    pub fn zero() -> Self {
        LossyTolerance {
            max_record_rate: 0.0,
            max_byte_rate: 0.0,
        }
    }

    /// Validates the rates are finite fractions.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for (name, v) in [
            ("max_record_rate", self.max_record_rate),
            ("max_byte_rate", self.max_byte_rate),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(fbs_types::FbsError::config(format!(
                    "{name} must be within [0, 1], got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// What a lossy parse set aside, with enough context to judge severity.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeedQuarantine {
    /// The quarantined records, in line order.
    pub records: Vec<QuarantinedRecord>,
    /// Records accepted by the parse (the denominator's healthy part).
    pub accepted_records: usize,
    /// Content bytes in the delivery (blank/comment lines excluded).
    pub content_bytes: usize,
    /// Content bytes belonging to quarantined lines.
    ///
    /// Computed from the raw line lengths, not the (truncated) stored
    /// inputs, so one fused multi-kilobyte garbage line weighs fully.
    pub quarantined_bytes: usize,
}

impl FeedQuarantine {
    /// Builds the quarantine summary for a delivery of `text` whose lossy
    /// parse accepted `accepted_records` and set aside `records`.
    pub fn measure(text: &str, accepted_records: usize, records: Vec<QuarantinedRecord>) -> Self {
        let mut content_bytes = 0usize;
        for line in text.lines() {
            let t = line.trim();
            if !t.is_empty() && !t.starts_with('#') {
                content_bytes += t.len();
            }
        }
        let mut quarantined_bytes = 0usize;
        {
            // Re-walk the text to weigh quarantined lines by their raw
            // length (stored inputs are truncated). Lines are 1-based.
            let mut want = records.iter().map(|r| r.line as usize).collect::<Vec<_>>();
            want.sort_unstable();
            let mut w = 0;
            for (lineno, line) in text.lines().enumerate() {
                while w < want.len() && want[w] == lineno + 1 {
                    quarantined_bytes += line.trim().len();
                    w += 1;
                }
            }
            // Synthetic entries (line 0, e.g. "missing header") have no
            // line of their own; weigh them as structural: whole payload.
            if records.iter().any(|r| r.line == 0) {
                quarantined_bytes = content_bytes;
            }
        }
        FeedQuarantine {
            records,
            accepted_records,
            content_bytes,
            quarantined_bytes,
        }
    }

    /// Total records seen by the parser.
    pub fn total_records(&self) -> usize {
        self.accepted_records + self.records.len()
    }

    /// Fraction of records quarantined (0 for an empty delivery).
    pub fn record_rate(&self) -> f64 {
        let total = self.total_records();
        if total == 0 {
            0.0
        } else {
            self.records.len() as f64 / total as f64
        }
    }

    /// Fraction of content bytes quarantined (0 for an empty delivery).
    pub fn byte_rate(&self) -> f64 {
        if self.content_bytes == 0 {
            0.0
        } else {
            self.quarantined_bytes as f64 / self.content_bytes as f64
        }
    }

    /// Whether the delivery stays within `tolerance`.
    pub fn within(&self, tolerance: &LossyTolerance) -> bool {
        self.record_rate() <= tolerance.max_record_rate
            && self.byte_rate() <= tolerance.max_byte_rate
    }

    /// Whether anything was quarantined.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl Persist for FeedQuarantine {
    fn persist(&self, w: &mut ByteWriter) {
        self.records.persist(w);
        self.accepted_records.persist(w);
        self.content_bytes.persist(w);
        self.quarantined_bytes.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(FeedQuarantine {
            records: Vec::<QuarantinedRecord>::restore(r)?,
            accepted_records: usize::restore(r)?,
            content_bytes: usize::restore(r)?,
            quarantined_bytes: usize::restore(r)?,
        })
    }
}

/// Outcome of ingesting one delivered feed text.
#[derive(Debug, Clone)]
pub struct IngestResult<T> {
    /// The parsed value (partial under quarantine; meaningless if
    /// rejected). BGP dumps are judged without a table, so theirs is `()`.
    pub value: T,
    /// What was quarantined, and how much.
    pub quarantine: FeedQuarantine,
    /// Whether the delivery passed the tolerance judgement.
    pub accepted: bool,
}

/// One feed-tagged quarantine, as the report writer consumes it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaggedQuarantine {
    /// Which feed the delivery belonged to.
    pub kind: FeedKind,
    /// The round the delivery was for.
    pub round: Round,
    /// The quarantine summary.
    pub quarantine: FeedQuarantine,
}

impl Persist for TaggedQuarantine {
    fn persist(&self, w: &mut ByteWriter) {
        self.kind.persist(w);
        self.round.persist(w);
        self.quarantine.persist(w);
    }
    fn restore(r: &mut ByteReader<'_>) -> fbs_types::Result<Self> {
        Ok(TaggedQuarantine {
            kind: FeedKind::restore(r)?,
            round: Round::restore(r)?,
            quarantine: FeedQuarantine::restore(r)?,
        })
    }
}

/// The record count a delivery declares about itself, if readable: the
/// `# routes: N` / `# blocks: N` comment for dumps and snapshots, the
/// header's count field for delegation files.
///
/// A count the corruption ate returns `None` — the completeness check
/// simply cannot run, and the per-record tolerance still governs.
fn declared_count(text: &str, kind: FeedKind) -> Option<usize> {
    let comment_count = |tag: &str| {
        text.lines()
            .map(str::trim)
            .find_map(|l| l.strip_prefix(tag))
            .and_then(|n| n.trim().parse::<usize>().ok())
    };
    match kind {
        FeedKind::Bgp => comment_count("# routes:"),
        FeedKind::Geo => comment_count("# blocks:"),
        FeedKind::Delegations => {
            // Version-2 exchange header: `2|registry|serial|count|...`.
            let header = text
                .lines()
                .map(str::trim)
                .find(|l| !l.is_empty() && !l.starts_with('#'))?;
            let fields: Vec<&str> = header.split('|').collect();
            if fields.len() >= 4 && fields[0] == "2" {
                fields[3].parse().ok()
            } else {
                None
            }
        }
    }
}

/// Judges a delivery against its own declared record count.
///
/// Truncation removes bytes; the lossy parser cannot quarantine lines
/// that never arrived, so record- and byte-rate tolerances alone would
/// wave a short dump through as a "clean" small one. When the delivery
/// declares a count and the parser saw fewer records (accepted plus
/// quarantined), a synthetic structural quarantine entry (line 0) weighs
/// the whole payload, which rejects the delivery.
fn check_completeness(quarantine: &mut FeedQuarantine, text: &str, kind: FeedKind) {
    let Some(declared) = declared_count(text, kind) else {
        return;
    };
    let seen = quarantine.total_records();
    if declared > seen {
        quarantine.records.push(QuarantinedRecord::new(
            0,
            format!("incomplete delivery: header declares {declared} records, parser saw {seen}"),
            "",
        ));
        quarantine.quarantined_bytes = quarantine.content_bytes;
    }
}

/// Ingests a BGP RIB dump: one pass over its lines plus the tolerance
/// judgement, without building the routing table.
///
/// The verdict is the one [`fbs_bgp::dump::parse_lossy`] measured by
/// [`FeedQuarantine::measure`] would give: each content line is checked
/// by the dump's route-line grammar, and a well-formed line whose prefix
/// an earlier line already announced is quarantined as a duplicate, as
/// the table's first-announcement-wins lookup finds it. The campaign
/// keeps only the verdict (the journal's `routed` bits carry the routing
/// truth), so no table is returned.
pub fn ingest_bgp(text: &str, tolerance: &LossyTolerance) -> IngestResult<()> {
    let mut records = Vec::new();
    let mut routes: Vec<(Prefix, u32, &str)> = Vec::new();
    let mut content_bytes = 0;
    let mut quarantined_bytes = 0;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = (lineno + 1) as u32;
        content_bytes += line.len();
        match fbs_bgp::dump::check_route_line(line) {
            Ok(prefix) => routes.push((prefix, lineno, line)),
            Err(reason) => {
                quarantined_bytes += line.len();
                records.push(QuarantinedRecord::new(lineno, reason, line));
            }
        }
    }
    // Sorted by (prefix, line), every route after the first of its
    // prefix repeats an announcement.
    routes.sort_unstable_by_key(|&(prefix, lineno, _)| (prefix, lineno));
    let malformed = records.len();
    for pair in routes.windows(2) {
        let (next, lineno, line) = pair[1];
        if next == pair[0].0 {
            quarantined_bytes += line.len();
            records.push(QuarantinedRecord::new(lineno, "duplicate prefix", line));
        }
    }
    let duplicates = records.len() - malformed;
    // Back into line order, the order a lossy parse files records in.
    records.sort_by_key(|r| r.line);
    let mut quarantine = FeedQuarantine {
        records,
        accepted_records: routes.len() - duplicates,
        content_bytes,
        quarantined_bytes,
    };
    check_completeness(&mut quarantine, text, FeedKind::Bgp);
    let accepted = quarantine.within(tolerance);
    IngestResult {
        value: (),
        quarantine,
        accepted,
    }
}

/// Ingests a geolocation snapshot.
pub fn ingest_geo(text: &str, tolerance: &LossyTolerance) -> IngestResult<fbs_geodb::GeoSnapshot> {
    let (snap, records) = fbs_geodb::text::parse_lossy(text);
    let mut quarantine = FeedQuarantine::measure(text, snap.num_blocks(), records);
    check_completeness(&mut quarantine, text, FeedKind::Geo);
    let accepted = quarantine.within(tolerance);
    IngestResult {
        value: snap,
        quarantine,
        accepted,
    }
}

/// Ingests an RIR delegation file.
pub fn ingest_delegations(
    text: &str,
    tolerance: &LossyTolerance,
) -> IngestResult<fbs_delegations::DelegationFile> {
    let (file, records) = fbs_delegations::parse_lossy(text);
    let mut quarantine = FeedQuarantine::measure(text, file.records.len(), records);
    check_completeness(&mut quarantine, text, FeedKind::Delegations);
    let accepted = quarantine.within(tolerance);
    IngestResult {
        value: file,
        quarantine,
        accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_dump_is_accepted_with_empty_quarantine() {
        let r = ingest_bgp(
            "10.0.0.0/24|65000\n10.0.1.0/24|65001\n",
            &LossyTolerance::default(),
        );
        assert!(r.accepted);
        assert!(r.quarantine.is_empty());
        assert_eq!(r.quarantine.accepted_records, 2);
        assert_eq!(r.quarantine.record_rate(), 0.0);
        assert_eq!(r.quarantine.byte_rate(), 0.0);
    }

    #[test]
    fn light_corruption_is_accepted_heavy_rejected() {
        // 1 bad line out of 20: 5% < 10% default record tolerance.
        let mut light = String::new();
        for i in 0..19 {
            light.push_str(&format!("10.0.{i}.0/24|65000\n"));
        }
        light.push_str("garbage\n");
        let r = ingest_bgp(&light, &LossyTolerance::default());
        assert!(r.accepted);
        assert_eq!(r.quarantine.records.len(), 1);

        // Half bad: rejected, but the parsed half is still returned.
        let mut heavy = String::new();
        for i in 0..10 {
            heavy.push_str(&format!("10.0.{i}.0/24|65000\n"));
            heavy.push_str(&format!("garbage {i}\n"));
        }
        let r = ingest_bgp(&heavy, &LossyTolerance::default());
        assert!(!r.accepted);
        assert_eq!(r.quarantine.accepted_records, 10);
        assert!((r.quarantine.record_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn byte_rate_catches_fused_garbage_tail() {
        // One quarantined record among many — fine by record rate — but it
        // holds most of the payload (a truncated dump's fused tail).
        let mut text = String::new();
        for i in 0..20 {
            text.push_str(&format!("10.0.{i}.0/24|65000\n"));
        }
        text.push_str(&"x".repeat(4096));
        text.push('\n');
        let r = ingest_bgp(&text, &LossyTolerance::default());
        assert!(r.quarantine.record_rate() < 0.10);
        assert!(r.quarantine.byte_rate() > 0.25);
        assert!(!r.accepted);
        // The quarantined input is stored truncated, but weighed fully.
        assert!(r.quarantine.records[0].input.len() <= fbs_types::QuarantinedRecord::MAX_INPUT);
        assert!(r.quarantine.quarantined_bytes >= 4096);
    }

    #[test]
    fn zero_tolerance_rejects_any_quarantine() {
        let r = ingest_bgp("10.0.0.0/24|65000\ngarbage\n", &LossyTolerance::zero());
        assert!(!r.accepted);
        let r = ingest_bgp("10.0.0.0/24|65000\n", &LossyTolerance::zero());
        assert!(r.accepted);
    }

    #[test]
    fn missing_header_weighs_as_structural_failure() {
        // A delegation file without its header parses records fine, but
        // the synthetic header quarantine weighs the whole payload.
        let r = ingest_delegations(
            "ripencc|UA|ipv4|91.237.4.0|512|20120601|allocated\n",
            &LossyTolerance::default(),
        );
        assert!(!r.accepted);
        assert!((r.quarantine.byte_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geo_ingest_judges_like_the_others() {
        let good = "geo|2022-03\n10.0.0.0/24|1|50|Kyiv:10\n";
        let r = ingest_geo(good, &LossyTolerance::default());
        assert!(r.accepted);
        assert_eq!(r.value.num_blocks(), 1);
        let r = ingest_geo("geo|2022-03\ngarbage\n", &LossyTolerance::default());
        assert!(!r.accepted, "100% of records quarantined");
    }

    #[test]
    fn truncated_dump_is_rejected_by_declared_count() {
        // A canonical dump declares its count; cutting its tail leaves
        // only well-formed lines, so no per-line quarantine fires and the
        // completeness check is the only honest detector.
        let mut rib = fbs_bgp::Rib::new();
        for i in 0..10 {
            rib.announce(
                format!("10.0.{i}.0/24").parse().unwrap(),
                vec![fbs_types::Asn(65000)],
            )
            .unwrap();
        }
        let full = fbs_bgp::dump::to_string(&rib);
        let r = ingest_bgp(&full, &LossyTolerance::default());
        assert!(r.accepted);
        assert!(r.quarantine.is_empty());

        let cut: String = full.lines().take(7).map(|l| format!("{l}\n")).collect();
        let r = ingest_bgp(&cut, &LossyTolerance::default());
        assert!(!r.accepted, "truncated dump must be rejected");
        assert!(r
            .quarantine
            .records
            .iter()
            .any(|q| q.line == 0 && q.reason.contains("incomplete delivery")));
        assert!(
            (r.quarantine.byte_rate() - 1.0).abs() < 1e-12,
            "structural weight"
        );
    }

    #[test]
    fn declared_count_covers_all_three_formats() {
        // Geo snapshots declare `# blocks: N`.
        let short = "geo|2022-03\n# blocks: 3\n10.0.0.0/24|1|50|Kyiv:10\n";
        let r = ingest_geo(short, &LossyTolerance::default());
        assert!(!r.accepted);
        let exact = "geo|2022-03\n# blocks: 1\n10.0.0.0/24|1|50|Kyiv:10\n";
        let r = ingest_geo(exact, &LossyTolerance::default());
        assert!(r.accepted);

        // Delegation files declare the count in header field 4.
        let short = "2|ripencc|1|2|19920101|1|+0000\n\
                     ripencc|UA|ipv4|91.237.4.0|512|20120601|allocated\n";
        let r = ingest_delegations(short, &LossyTolerance::default());
        assert!(!r.accepted);
        let exact = "2|ripencc|1|1|19920101|1|+0000\n\
                     ripencc|UA|ipv4|91.237.4.0|512|20120601|allocated\n";
        let r = ingest_delegations(exact, &LossyTolerance::default());
        assert!(r.accepted);
    }

    #[test]
    fn unreadable_count_skips_the_completeness_check() {
        // A mangled count comment cannot support the check; the delivery
        // is then judged on record/byte tolerance alone.
        let r = ingest_bgp(
            "# rtes: 999\n10.0.0.0/24|65000\n",
            &LossyTolerance::default(),
        );
        assert!(r.accepted);
        // Surplus (more records than declared, e.g. a mangled comment
        // turned into a quarantined line) never counts as a shortfall.
        let r = ingest_bgp(
            "# routes: 1\n10.0.0.0/24|65000\ngarbage\n",
            &LossyTolerance::zero(),
        );
        assert!(!r.accepted, "zero tolerance still rejects the garbage line");
        assert!(r.quarantine.records.iter().all(|q| q.line != 0));
    }

    #[test]
    fn quarantine_persist_roundtrips() {
        let r = ingest_bgp(
            "# routes: 3\n10.0.0.0/24|65000\ngarbage\n",
            &LossyTolerance::default(),
        );
        let tagged = TaggedQuarantine {
            kind: FeedKind::Bgp,
            round: Round(17),
            quarantine: r.quarantine,
        };
        let mut w = fbs_types::codec::ByteWriter::new();
        tagged.persist(&mut w);
        let bytes = w.into_bytes();
        let mut rd = fbs_types::codec::ByteReader::new(&bytes);
        let back = TaggedQuarantine::restore(&mut rd).unwrap();
        rd.expect_exhausted().unwrap();
        assert_eq!(back, tagged);
    }

    #[test]
    fn tolerance_validation() {
        assert!(LossyTolerance::default().validate().is_ok());
        assert!(LossyTolerance {
            max_record_rate: 1.5,
            max_byte_rate: 0.0
        }
        .validate()
        .is_err());
        assert!(LossyTolerance {
            max_record_rate: 0.1,
            max_byte_rate: f64::NAN
        }
        .validate()
        .is_err());
    }
}
