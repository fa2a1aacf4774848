//! The quarantine accounting every ingest must keep, shared by the
//! property tests and the corruption corpus.

use fbs_feeds::FeedQuarantine;

/// The invariants every quarantine summary must satisfy, no matter how
/// hostile the input.
pub fn check_accounting(q: &FeedQuarantine, text: &str) {
    let lines: Vec<&str> = text.lines().collect();
    // A record with a line number names a content line of the text; a
    // structural record (line 0) names none.
    let mut line_records = 0;
    for r in &q.records {
        assert!(!r.reason.is_empty(), "quarantine entries carry a reason");
        if r.line > 0 {
            let line = lines.get(r.line as usize - 1).map(|l| l.trim());
            assert!(
                line.is_some_and(|l| !l.is_empty() && !l.starts_with('#')),
                "record {r} names no content line of {text:?}"
            );
            line_records += 1;
        }
    }
    assert!(
        q.accepted_records + line_records <= lines.len(),
        "{} accepted and {line_records} quarantined records in {} lines",
        q.accepted_records,
        lines.len()
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
}
