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
//! `ingest_*` gives the same bytes.

use fbs_delegations::{DelegationFile, DelegationRecord, DelegationStatus};
use fbs_feeds::{
    ingest_bgp, ingest_delegations, ingest_geo, FeedLoader, FeedOutcome, FeedQuarantine,
    LossyTolerance, RetryPolicy,
};
use fbs_geodb::{BlockGeo, GeoRegion, GeoSnapshot, RadiusKm};
use fbs_types::{Asn, BlockId, CivilDate, FeedKind, MonthId, Oblast, Prefix, Round, ALL_OBLASTS};
use proptest::collection::vec;
use proptest::option;
use proptest::prelude::*;

/// Feed-ish garbage alphabet: digits, separators, newlines, comment
/// markers — the characters that steer the parsers' state machines.
const CHARSET: &[u8] = b"0123456789abcdefgUARU .|/:,-#\n\n|";

fn garble(bytes: &[u8]) -> String {
    bytes
        .iter()
        .map(|b| CHARSET[*b as usize % CHARSET.len()] as char)
        .collect()
}

/// The invariants every quarantine summary must satisfy, no matter how
/// hostile the input.
fn check_accounting(q: &FeedQuarantine, text: &str) {
    let lines = text.lines().count();
    assert!(
        q.total_records() <= lines.max(q.total_records()),
        "more records than lines"
    );
    // A structural (line-0) entry weighs the whole payload; otherwise the
    // quarantined lines are a subset of the content.
    assert!(
        q.quarantined_bytes <= q.content_bytes,
        "quarantined {} of {} content bytes",
        q.quarantined_bytes,
        q.content_bytes
    );
    assert!(q.record_rate() >= 0.0 && q.record_rate() <= 1.0);
    assert!(q.byte_rate() >= 0.0 && q.byte_rate() <= 1.0);
    for r in &q.records {
        assert!(!r.reason.is_empty(), "quarantine entries carry a reason");
    }
}

proptest! {
    // ---- Totality: arbitrary bytes, both raw and parser-shaped. ----

    #[test]
    fn bgp_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            let r = ingest_bgp(&text, &LossyTolerance::default());
            check_accounting(&r.quarantine, &text);
            if r.accepted {
                assert!(r.quarantine.within(&LossyTolerance::default()));
            }
        }
    }

    #[test]
    fn geo_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            let r = ingest_geo(&text, &LossyTolerance::default());
            check_accounting(&r.quarantine, &text);
        }
    }

    #[test]
    fn delegations_ingest_is_total(raw in vec(any::<u8>(), 0..600usize)) {
        for text in [String::from_utf8_lossy(&raw).into_owned(), garble(&raw)] {
            let r = ingest_delegations(&text, &LossyTolerance::default());
            check_accounting(&r.quarantine, &text);
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
        assert_eq!(r.value.num_routes(), rib.num_routes());
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
