//! Walks the checked-in malformed-fixture corpus under
//! `fixtures/feed-corruption/` and asserts the lossy ingest path gives
//! every file the judgement its name promises (see the corpus README):
//! `quarantine_*` is accepted with a non-empty quarantine, `reject_*` is
//! rejected, and every quarantine keeps the property tests' accounting.
//! Runs in CI so every new corpus entry is exercised.

use fbs_feeds::{ingest_bgp, ingest_delegations, ingest_geo, FeedQuarantine, LossyTolerance};
use std::path::PathBuf;

mod accounting;
use accounting::check_accounting;

fn corpus_dir(format: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/feed-corruption")
        .join(format)
}

/// Reads every `.txt` fixture in one format directory, sorted by name.
fn fixtures(format: &str) -> Vec<(String, String)> {
    let dir = corpus_dir(format);
    let mut out: Vec<(String, String)> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "txt"))
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).unwrap();
            (name, text)
        })
        .collect();
    out.sort();
    assert!(
        out.len() >= 4,
        "corpus for {format} is too small ({} files) — it must cover \
         several damage classes",
        out.len()
    );
    out
}

/// Asserts one fixture's judgement matches its filename prefix, plus the
/// cross-checks every corpus entry must satisfy: the quarantine accounting
/// holds, strict parsing fails whenever a real line was quarantined, and
/// ingest is deterministic.
fn check<F>(format: &str, ingest: F, strict_fails: impl Fn(&str) -> bool)
where
    F: Fn(&str) -> (bool, FeedQuarantine),
{
    for (name, text) in fixtures(format) {
        let (accepted, quarantine) = ingest(&text);
        if name.starts_with("quarantine_") {
            assert!(accepted, "{format}/{name}: expected accepted, got rejected");
            assert!(
                !quarantine.is_empty(),
                "{format}/{name}: expected a non-empty quarantine"
            );
        } else if name.starts_with("reject_") {
            assert!(
                !accepted,
                "{format}/{name}: expected rejected, got accepted"
            );
        } else {
            panic!("{format}/{name}: fixture name must start with quarantine_ or reject_");
        }
        check_accounting(&quarantine, &text);
        // Any quarantined content line (line 0 is the synthetic
        // completeness entry) must also fail the strict parser.
        if quarantine.records.iter().any(|r| r.line > 0) {
            assert!(
                strict_fails(&text),
                "{format}/{name}: lossy parse quarantined a line the strict \
                 parser accepts"
            );
        }
        // Same bytes, same judgement: the quarantine is deterministic.
        let (accepted2, quarantine2) = ingest(&text);
        assert_eq!(
            (accepted, format!("{quarantine:?}")),
            (accepted2, format!("{quarantine2:?}")),
            "{format}/{name}: ingest is not deterministic"
        );
    }
}

#[test]
fn bgp_corpus_judged_as_named() {
    check(
        "bgp",
        |text| {
            let r = ingest_bgp(text, &LossyTolerance::default());
            (r.accepted, r.quarantine)
        },
        |text| fbs_bgp::dump::from_str(text).is_err(),
    );
}

#[test]
fn geo_corpus_judged_as_named() {
    check(
        "geo",
        |text| {
            let r = ingest_geo(text, &LossyTolerance::default());
            (r.accepted, r.quarantine)
        },
        |text| fbs_geodb::text::from_str(text).is_err(),
    );
}

#[test]
fn delegations_corpus_judged_as_named() {
    check(
        "delegations",
        |text| {
            let r = ingest_delegations(text, &LossyTolerance::default());
            (r.accepted, r.quarantine)
        },
        |text| fbs_delegations::parse_file(text).is_err(),
    );
}
