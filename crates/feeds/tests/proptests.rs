//! Property tests for the lossy feed parsers.
//!
//! Two contracts, per format (BGP dump / geo snapshot / delegation file):
//!
//! 1. **Totality** — the lossy ingest path never panics and never errors
//!    on arbitrary bytes; whatever happens, the quarantine accounting is
//!    internally consistent.
//! 2. **Round-trip** — `parse_lossy ∘ serialize` over an arbitrary *valid*
//!    structure quarantines nothing, is accepted at the default tolerance,
//!    and preserves the record count.
//!
//! A third pins the loader's memo: over any sequence of deliveries, a
//! campaign-long [`FeedLoader`] returns exactly the verdict a fresh
//! `ingest_*` gives the same bytes. A fourth pins the one-pass BGP judge:
//! on arbitrary text and on damaged canonical dumps, `ingest_bgp` returns
//! the quarantine and verdict of a lossy parse into a routing table.

use fbs_delegations::{DelegationFile, DelegationRecord, DelegationStatus};
use fbs_feeds::{
    ingest_bgp, ingest_delegations, ingest_geo, FeedLoader, FeedOutcome, FeedQuarantine,
    LossyTolerance, RetryPolicy,
};
use fbs_geodb::{BlockGeo, GeoRegion, GeoSnapshot, RadiusKm};
use fbs_types::{
    Asn, BlockId, CivilDate, FeedKind, MonthId, Oblast, Prefix, QuarantinedRecord, Round,
    ALL_OBLASTS,
};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;
use std::net::Ipv4Addr;

mod accounting;
use accounting::check_accounting;

/// Feed-ish garbage alphabet: digits, separators, newlines, comment
/// markers — the characters that steer the parsers' state machines.
const CHARSET: &[u8] = b"0123456789abcdefgUARU .|/:,-#\n\n|";

fn garble(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| CHARSET[*b as usize % CHARSET.len()] as char)
        .collect()
}

/// The totality properties' checks on one BGP text.
fn bgp_total(text: &str) {
    let r = ingest_bgp(text, &LossyTolerance::default());
    check_accounting(&r.quarantine, text);
    if r.accepted {
        assert!(r.quarantine.within(&LossyTolerance::default()));
    }
}

/// The totality properties' checks on one geo text.
fn geo_total(text: &str) {
    let r = ingest_geo(text, &LossyTolerance::default());
    check_accounting(&r.quarantine, text);
}

/// The totality properties' checks on one delegation text.
fn delegations_total(text: &str) {
    let r = ingest_delegations(text, &LossyTolerance::default());
    check_accounting(&r.quarantine, text);
}

/// Texts with no content line, which random bytes almost never produce:
/// each format must still account for them.
#[test]
fn ingest_is_total_on_contentless_texts() {
    for text in ["", "#\n", "# blocks: 3\n", "# routes: 2\n"] {
        bgp_total(text);
        geo_total(text);
        delegations_total(text);
    }
}

proptest! {
    // ---- Totality: arbitrary bytes, both raw and parser-shaped. ----

    #[test]
    fn bgp_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            bgp_total(&text);
        }
    }

    #[test]
    fn geo_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            geo_total(&text);
        }
    }

    #[test]
    fn delegations_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            delegations_total(&text);
        }
    }

    // ---- Round-trips: serialize a valid structure, ingest it back. ----

    #[test]
    fn bgp_roundtrip_quarantines_nothing(
        spec in vec((any::<u8>(), any::<u8>(), 1u32..100_000, 1u32..100_000), 0..24usize),
    ) {
        let mut rib = fbs_bgp::Rib::new();
        for (b, c, transit, origin) in &spec {
            let prefix = Prefix::from_block(BlockId::from_octets(10, *b, *c));
            rib.announce(prefix, vec![Asn(*transit), Asn(*origin)]).expect("valid route");
        }
        let text = fbs_bgp::dump::to_string(&rib);
        let r = ingest_bgp(&text, &LossyTolerance::zero());
        assert!(r.accepted, "pristine dump rejected: {:?}", r.quarantine.records);
        assert!(r.quarantine.is_empty(), "{:?}", r.quarantine.records);
        assert_eq!(r.quarantine.accepted_records, rib.num_routes());
    }

    #[test]
    fn geo_roundtrip_quarantines_nothing(
        spec in vec((any::<u8>(), any::<u8>(), 0usize..26, 1u16..200, any::<bool>()), 0..24usize),
        year in 2022i32..2026,
        month in 1u8..=12,
    ) {
        let records: Vec<BlockGeo> = spec
            .iter()
            .enumerate()
            .map(|(i, (b, c, oblast, count, foreign))| BlockGeo {
                // Index-keyed first octet keeps blocks unique by construction.
                block: BlockId::from_octets(20 + i as u8, *b, *c),
                asn: (*count % 3 != 0).then_some(Asn(64_000 + i as u32)),
                counts: if *foreign {
                    vec![
                        (GeoRegion::Ua(ALL_OBLASTS[*oblast % ALL_OBLASTS.len()]), *count),
                        (GeoRegion::foreign("PL"), 7),
                    ]
                } else {
                    vec![(GeoRegion::Ua(ALL_OBLASTS[*oblast % ALL_OBLASTS.len()]), *count)]
                },
                radius: RadiusKm::quantize(*count as f64),
            })
            .collect();
        let n = records.len();
        let (snap, dupes) = GeoSnapshot::from_records_lossy(MonthId::new(year, month), records);
        assert!(dupes.is_empty(), "generator produced duplicate blocks");
        let text = fbs_geodb::text::to_string(&snap);
        let r = ingest_geo(&text, &LossyTolerance::zero());
        assert!(r.accepted, "pristine snapshot rejected: {:?}", r.quarantine.records);
        assert!(r.quarantine.is_empty(), "{:?}", r.quarantine.records);
        assert_eq!(r.value.num_blocks(), n);
        assert_eq!(r.value.month, snap.month);
    }

    #[test]
    fn delegations_roundtrip_quarantines_nothing(
        spec in vec((any::<u8>(), 0u64..16, any::<bool>()), 0..24usize),
        day in 1u8..=28,
    ) {
        let date = CivilDate::new(2023, 6, day);
        let records: Vec<DelegationRecord> = spec
            .iter()
            .enumerate()
            .map(|(i, (b, size, assigned))| {
                let status = if *assigned {
                    DelegationStatus::Assigned
                } else {
                    DelegationStatus::Allocated
                };
                DelegationRecord::ipv4(
                    "UA",
                    std::net::Ipv4Addr::new(31, i as u8, *b, 0),
                    256 << (size % 5),
                    date,
                    status,
                )
            })
            .collect();
        let n = records.len();
        let file = DelegationFile::new("ripencc", date, records);
        let text = fbs_delegations::serialize_file(&file);
        let r = ingest_delegations(&text, &LossyTolerance::zero());
        assert!(r.accepted, "pristine file rejected: {:?}", r.quarantine.records);
        assert!(r.quarantine.is_empty(), "{:?}", r.quarantine.records);
        assert_eq!(r.value.records.len(), n);
        assert_eq!(r.value.registry, "ripencc");
    }
}

/// Twenty-record deliveries of each format, each also with one record
/// mangled (accepted with a quarantine at the default tolerance), plus an
/// over-tolerance and an empty text. Every kind is offered every text.
fn delivery_pool() -> Vec<String> {
    let mut rib = fbs_bgp::Rib::new();
    let geo: Vec<BlockGeo> = (0..20u8)
        .map(|c| BlockGeo {
            block: BlockId::from_octets(10, 0, c),
            asn: Some(Asn(100)),
            counts: vec![(GeoRegion::Ua(Oblast::Kherson), 50 + c as u16)],
            radius: RadiusKm::quantize(20.0),
        })
        .collect();
    let date = CivilDate::new(2023, 6, 1);
    let delegations: Vec<DelegationRecord> = (0..20u8)
        .map(|c| {
            let net = std::net::Ipv4Addr::new(10, 0, c, 0);
            DelegationRecord::ipv4("UA", net, 256, date, DelegationStatus::Allocated)
        })
        .collect();
    for g in &geo {
        rib.announce(Prefix::from_block(g.block), vec![Asn(1), Asn(100)])
            .expect("valid route");
    }
    let (snap, _) = GeoSnapshot::from_records_lossy(MonthId::new(2023, 6), geo);
    let mut pool = vec![String::new(), "garbage\nmore garbage\n".to_string()];
    for text in [
        fbs_bgp::dump::to_string(&rib),
        fbs_geodb::text::to_string(&snap),
        fbs_delegations::serialize_file(&DelegationFile::new("ripencc", date, delegations)),
    ] {
        // The 10.0.7.0 record with its field separators swapped.
        let mangled: Vec<String> = text
            .lines()
            .map(|l| {
                if l.contains("10.0.7.") {
                    l.replace('|', ";")
                } else {
                    l.to_string()
                }
            })
            .collect();
        let mangled = mangled.join("\n") + "\n";
        pool.push(text);
        pool.push(mangled);
    }
    pool
}

/// A fresh ingest verdict: the quarantine and whether it was accepted.
fn fresh_verdict(kind: FeedKind, text: &str, tolerance: &LossyTolerance) -> (FeedQuarantine, bool) {
    match kind {
        FeedKind::Bgp => {
            let r = ingest_bgp(text, tolerance);
            (r.quarantine, r.accepted)
        }
        FeedKind::Geo => {
            let r = ingest_geo(text, tolerance);
            (r.quarantine, r.accepted)
        }
        FeedKind::Delegations => {
            let r = ingest_delegations(text, tolerance);
            (r.quarantine, r.accepted)
        }
    }
}

#[test]
fn delivery_pool_draws_every_verdict_for_every_feed() {
    let pool = delivery_pool();
    for kind in FeedKind::ALL {
        let verdicts: Vec<(bool, bool)> = pool
            .iter()
            .map(|text| {
                let (q, accepted) = fresh_verdict(kind, text, &LossyTolerance::default());
                (accepted, q.is_empty())
            })
            .collect();
        for want in [(true, true), (true, false), (false, false)] {
            assert!(verdicts.contains(&want), "{kind:?} lacks {want:?}");
        }
    }
}

proptest! {
    // ---- The loader's memo: a repeat is judged once, identically. ----

    #[test]
    fn loader_verdicts_equal_fresh_ingest(
        deliveries in vec((0usize..3, vec(option::of(any::<u8>()), 1..4)), 1..40usize),
        strict in any::<bool>(),
    ) {
        let pool = delivery_pool();
        let tolerance = if strict { LossyTolerance::zero() } else { LossyTolerance::default() };
        let policy = RetryPolicy::default();
        let allowed = policy.attempts_allowed() as usize;
        let mut loader = FeedLoader::new(policy, tolerance);
        for (round, (kind, attempts)) in deliveries.iter().enumerate() {
            let kind = FeedKind::ALL[*kind];
            // Attempt `i` serves `attempts[i]`: a pool text, or a failed
            // fetch (`None`, also past the end of the list).
            let text = |i: u8| &pool[i as usize % pool.len()];
            let mut source = |_k: FeedKind, _r: Round, attempt: u32| {
                attempts.get(attempt as usize).copied().flatten().map(|i| text(i).clone())
            };
            let got = loader.load(&mut source, kind, Round(round as u32));
            let want = match attempts.iter().take(allowed).position(Option::is_some) {
                Some(k) => {
                    let delivered = text(attempts[k].expect("position found a delivery"));
                    let (quarantine, accepted) = fresh_verdict(kind, delivered, &tolerance);
                    let retries = k as u32;
                    if accepted {
                        FeedOutcome::Accepted { retries, quarantine }
                    } else {
                        FeedOutcome::Rejected { retries, quarantine }
                    }
                }
                None => FeedOutcome::Absent { retries: allowed as u32 - 1 },
            };
            prop_assert_eq!(got, want, "delivery {} of {:?}", round, kind);
        }
    }
}

/// Oblast list sanity used by the geo generator (guards the `% len`).
#[test]
fn oblast_table_is_nonempty() {
    assert!(!ALL_OBLASTS.is_empty());
    assert!(Oblast::from_index(0).is_some());
}

// ---- The one-pass BGP judge against a lossy parse into a table. ----

/// The judgement a BGP delivery got from a full lossy parse: the routes
/// land in a table, the quarantine is measured line by line, and a dump
/// declaring more routes than the parser saw gains the structural
/// incompleteness record.
fn reference_bgp(text: &str, tolerance: &LossyTolerance) -> (FeedQuarantine, bool) {
    let (rib, records) = fbs_bgp::dump::parse_lossy(text);
    let mut q = FeedQuarantine::measure(text, rib.num_routes(), records);
    let declared = text
        .lines()
        .map(str::trim)
        .find_map(|l| l.strip_prefix("# routes:"))
        .and_then(|n| n.trim().parse::<usize>().ok());
    let seen = q.total_records();
    if let Some(declared) = declared.filter(|&d| d > seen) {
        q.records.push(QuarantinedRecord::new(
            0,
            format!("incomplete delivery: header declares {declared} records, parser saw {seen}"),
            "",
        ));
        q.quarantined_bytes = q.content_bytes;
    }
    let accepted = q.within(tolerance);
    (q, accepted)
}

/// Asserts `ingest_bgp` judges `text` exactly as the reference does.
fn assert_judged_like_the_reference(text: &str) {
    let tolerance = LossyTolerance::default();
    let r = ingest_bgp(text, &tolerance);
    let (quarantine, accepted) = reference_bgp(text, &tolerance);
    assert_eq!(r.quarantine, quarantine, "quarantine of {text:?}");
    assert_eq!(r.accepted, accepted, "verdict on {text:?}");
}

/// Route-line soup: digits and the dump's separators, so garbled lines
/// often get as far as the prefix or the path.
const ROUTE_CHARSET: &[u8] = b"0123456789./|,  #x\n\n\r";

/// One route of an arbitrary table: any prefix length, a 1–3 hop path.
fn arb_route() -> impl Strategy<Value = (Prefix, Vec<Asn>)> {
    (any::<u32>(), 0u8..=32, vec(0u32..70_000, 1..4)).prop_map(|(raw, len, path)| {
        (
            Prefix::new(Ipv4Addr::from(raw), len),
            path.into_iter().map(Asn).collect(),
        )
    })
}

/// `line`'s route rewritten with host bits set, so it parses to the same
/// prefix as `line` (`10.0.0.1/24` for `10.0.0.0/24`); `None` for a
/// line that is not a route or a /32, which has no host bits.
fn with_host_bits(line: &str, salt: u32) -> Option<String> {
    let (prefix, path) = line.split_once('|')?;
    let prefix: Prefix = prefix.parse().ok()?;
    let host_mask = u32::MAX.checked_shr(prefix.len().into()).unwrap_or(0);
    let host = (salt | 1) & host_mask;
    (host != 0).then(|| {
        let addr = Ipv4Addr::from(prefix.raw() | host);
        format!("{addr}/{}|{path}", prefix.len())
    })
}

/// A canonical dump of `routes` with edit `ops[i]` applied to its line
/// `i` (the `# routes:` header is line 0): kept, corrupted, duplicated,
/// truncated, dropped, followed by a host-bit alias, preceded by a blank
/// or comment line, or given a wrong count.
fn damaged_dump(routes: &[(Prefix, Vec<Asn>)], ops: &[(u8, u32)], crlf: bool) -> String {
    let mut rib = fbs_bgp::Rib::new();
    for (prefix, path) in routes {
        rib.announce(*prefix, path.clone()).expect("non-empty path");
    }
    let dump = fbs_bgp::dump::to_string(&rib);
    let mut out: Vec<String> = Vec::new();
    for (i, line) in dump.lines().enumerate() {
        let (op, salt) = ops.get(i).copied().unwrap_or((0, 0));
        let cut = salt as usize % (line.len() + 1);
        match op {
            1 => {
                let junk = ROUTE_CHARSET[salt as usize % ROUTE_CHARSET.len()] as char;
                let at = cut.min(line.len().saturating_sub(1));
                let mut bad = line.to_string();
                bad.replace_range(at..(at + 1).min(line.len()), &junk.to_string());
                out.push(bad);
            }
            2 => out.extend([line.to_string(), line.to_string()]),
            3 => out.push(line[..cut].to_string()),
            4 => {}
            5 => {
                out.push(line.to_string());
                out.extend(with_host_bits(line, salt));
            }
            6 => out.extend([String::new(), line.to_string()]),
            7 => out.extend(["# collector rrc00".to_string(), line.to_string()]),
            8 if i == 0 => {
                let n = rib.num_routes() + salt as usize % 5;
                out.push(format!("# routes: {}", n.saturating_sub(2)));
            }
            _ => out.push(line.to_string()),
        }
    }
    let eol = if crlf { "\r\n" } else { "\n" };
    out.join(eol) + eol
}

#[test]
fn one_pass_bgp_judge_matches_the_reference_on_edge_cases() {
    for text in [
        "",
        "\n\n",
        "# routes: 2\n",
        "# routes: 0\n10.0.0.0/24|1\n",
        "# routes: 9\n10.0.0.0/24|1\n10.0.1.0/24|2\n",
        "# routes: x\n10.0.0.0/24|1\n",
        "# routes: 1\n# routes: 7\n10.0.0.0/24|1\n",
        // A host-bit prefix canonicalizes onto the earlier line's.
        "10.0.0.0/24|1\n10.0.0.1/24|2\n",
        "10.0.0.1/24|2\n10.0.0.0/24|1\n10.0.0.255/24|3\n",
        // The same prefix three times, around a distinct one.
        "10.0.0.0/24|1\n10.0.1.0/24|1\n10.0.0.0/24|1\n10.0.0.0/24|2\n",
        "# routes: 2\r\n10.0.0.0/24|1\r\n\r\n# c\r\n10.0.1.0/24|2\r\n",
        "  10.0.0.0/24|1  \n\t10.0.0.0/24|1\n",
        "0.0.0.0/0|0\n255.255.255.255/32|4294967295\n0.0.0.0/0|1\n",
        "10.0.0.0/24\n10.0.0.0/24|\n10.0.0.0/24|1,,2\n10.0.0.0/33|1\n10.0.0.0/24|-1\n",
        "10.0.0.0/24|4294967296\n10.0.0/24|1\nx|1\n|\n10.0.0.0/24|1|2\n",
        "10.0.0.0/24|1, 2 ,3\n10.0.0.0/24|é\n",
    ] {
        assert_judged_like_the_reference(text);
    }
    let long = format!("10.0.0.0/24|1\n{}\n10.0.0.0/24|2\n", "9".repeat(4096));
    assert_judged_like_the_reference(&long);
}

proptest! {
    #[test]
    fn one_pass_bgp_judge_matches_the_reference_on_arbitrary_text(
        raw in vec(any::<u8>(), 0..600usize),
    ) {
        let soup: String = raw
            .iter()
            .map(|b| ROUTE_CHARSET[*b as usize % ROUTE_CHARSET.len()] as char)
            .collect();
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw), soup] {
            assert_judged_like_the_reference(&text);
        }
    }

    #[test]
    fn one_pass_bgp_judge_matches_the_reference_on_damaged_dumps(
        routes in vec(arb_route(), 0..30usize),
        ops in vec((0u8..12, any::<u32>()), 0..32usize),
        crlf in any::<bool>(),
    ) {
        let text = damaged_dump(&routes, &ops, crlf);
        assert_judged_like_the_reference(&text);
    }
}
