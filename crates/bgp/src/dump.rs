//! Text dump format for RIB tables.
//!
//! One route per line: `prefix|asn,asn,...,origin` — a deliberately minimal
//! analogue of the `show ip bgp`-style exports RouteViews publishes. The
//! format is line-oriented so dumps can be streamed, diffed and grepped.
//!
//! Two parse modes exist. [`from_str`] is strict (any malformed or
//! duplicate line is an error with `line N:` context) because
//! machine-generated round-trips must be perfect. [`parse_lossy`] is the
//! feed-resilience path: it never fails, instead quarantining each
//! malformed record with its line context so the feed layer can judge the
//! dump against tolerance thresholds. Both read lines through one grammar,
//! which [`check_route_line`] exposes for judging a line without keeping
//! its route.

use crate::rib::Rib;
use fbs_types::{Asn, FbsError, Prefix, QuarantinedRecord, Result};

/// Bytes reserved per route when [`to_string`] sizes its output: a /24
/// and a three-hop path of five-digit ASNs, with separators.
const ROUTE_BYTES: usize = 32;

/// Serializes a RIB to the line format, prefixes in address order.
///
/// The first line is a `# routes: N` comment declaring the record count.
/// Parsers skip it like any comment, but the feed layer reads it to
/// detect truncated deliveries — absent bytes leave no malformed lines
/// for the lossy parser to quarantine, so only a declared count makes a
/// short dump distinguishable from a genuinely small one.
///
/// Numbers are written digit by digit into one pre-sized string; the
/// bytes equal `Display`'s for the prefix and the ASNs.
pub fn to_string(rib: &Rib) -> String {
    let mut out = String::with_capacity(ROUTE_BYTES * (rib.num_routes() + 1));
    out.push_str("# routes: ");
    push_decimal(&mut out, rib.num_routes() as u64);
    out.push('\n');
    for (prefix, entry) in rib.iter() {
        for (i, octet) in prefix.network().octets().into_iter().enumerate() {
            if i > 0 {
                out.push('.');
            }
            push_decimal(&mut out, octet.into());
        }
        out.push('/');
        push_decimal(&mut out, prefix.len().into());
        out.push('|');
        for (i, asn) in entry.path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_decimal(&mut out, asn.value().into());
        }
        out.push('\n');
    }
    out
}

/// Appends `v` in decimal, without leading zeros.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        out.push(char::from(d));
    }
}

/// The route-line grammar: checks one non-blank, non-comment dump line
/// and returns its prefix, handing each path ASN to `asn` in order. An
/// error carries `(reason, offending input)` without line context — the
/// whole line, or the bad ASN token; callers add the `line N:` prefix.
fn route_line(
    line: &str,
    mut asn: impl FnMut(Asn),
) -> std::result::Result<Prefix, (&'static str, &str)> {
    let (prefix, path) = line.split_once('|').ok_or(("missing '|'", line))?;
    let prefix: Prefix = prefix.parse().map_err(|_| ("bad prefix", line))?;
    for a in path.split(',') {
        let value = a.trim().parse::<u32>().map_err(|_| ("bad ASN", a))?;
        asn(Asn(value));
    }
    Ok(prefix)
}

/// Checks one non-blank, non-comment dump line against the route-line
/// grammar without collecting its path: the route's prefix, or the reason
/// [`parse_lossy`] would quarantine the line with.
///
/// A well-formed line always has a non-empty path, so the table would
/// accept it unless an earlier line announced the same prefix.
pub fn check_route_line(line: &str) -> std::result::Result<Prefix, &'static str> {
    route_line(line, |_| {}).map_err(|(reason, _)| reason)
}

/// Splits one route line into its prefix and AS path.
fn parse_route_line(line: &str) -> std::result::Result<(Prefix, Vec<Asn>), (&'static str, &str)> {
    let mut path = Vec::with_capacity(4);
    let prefix = route_line(line, |asn| path.push(asn))?;
    Ok((prefix, path))
}

/// Parses a dump produced by [`to_string`] back into a RIB.
///
/// Blank lines and `#` comments are permitted; anything else malformed —
/// including a prefix announced twice, which a canonical dump never
/// contains — is a [`FbsError::Parse`] with `line N:` context.
pub fn from_str(s: &str) -> Result<Rib> {
    let mut rib = Rib::new();
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (prefix, path) = parse_route_line(line).map_err(|(reason, input)| {
            FbsError::parse(format!("line {}: {reason}", lineno + 1), input)
        })?;
        if rib.route_exact(prefix).is_some() {
            return Err(FbsError::parse(
                format!("line {}: duplicate prefix", lineno + 1),
                line,
            ));
        }
        rib.announce(prefix, path)
            .map_err(|e| FbsError::parse(format!("line {}: {e}", lineno + 1), line))?;
    }
    Ok(rib)
}

/// Lossy parse: never fails. Malformed and duplicate lines are set aside
/// as [`QuarantinedRecord`]s (with 1-based line context) while every
/// well-formed route still lands in the RIB. Tolerance judgement — how
/// much quarantine is too much — belongs to the caller (`fbs-feeds`).
pub fn parse_lossy(s: &str) -> (Rib, Vec<QuarantinedRecord>) {
    let mut rib = Rib::new();
    let mut quarantine = Vec::new();
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let lineno = (lineno + 1) as u32;
        match parse_route_line(line) {
            Err((reason, _)) => quarantine.push(QuarantinedRecord::new(lineno, reason, line)),
            Ok((prefix, path)) => {
                if rib.route_exact(prefix).is_some() {
                    quarantine.push(QuarantinedRecord::new(lineno, "duplicate prefix", line));
                } else if let Err(e) = rib.announce(prefix, path) {
                    quarantine.push(QuarantinedRecord::new(lineno, e.to_string(), line));
                }
            }
        }
    }
    (rib, quarantine)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rib() -> Rib {
        let mut rib = Rib::new();
        rib.announce(
            "193.151.240.0/22".parse().unwrap(),
            vec![Asn(3356), Asn(6849), Asn(25482)],
        )
        .unwrap();
        rib.announce(
            "91.237.4.0/23".parse().unwrap(),
            vec![Asn(3356), Asn(21151)],
        )
        .unwrap();
        rib
    }

    #[test]
    fn roundtrip() {
        let rib = sample_rib();
        let dump = to_string(&rib);
        let parsed = from_str(&dump).unwrap();
        assert_eq!(parsed.num_routes(), 2);
        assert_eq!(
            parsed
                .route_exact("193.151.240.0/22".parse().unwrap())
                .unwrap()
                .path,
            vec![Asn(3356), Asn(6849), Asn(25482)]
        );
        // Second serialization is identical (canonical order).
        assert_eq!(to_string(&parsed), dump);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# RouteViews-lite dump\n\n10.0.0.0/24|65000\n";
        let rib = from_str(text).unwrap();
        assert_eq!(rib.num_routes(), 1);
    }

    #[test]
    fn malformed_lines_error_with_context() {
        assert!(from_str("10.0.0.0/24").is_err()); // no pipe
        assert!(from_str("10.0.0.0/24|").is_err()); // empty path
        assert!(from_str("10.0.0.0/24|abc").is_err()); // bad asn
        assert!(from_str("not-a-prefix|1").is_err());
        let err = from_str("x|1").unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    /// Unwraps a [`FbsError::Parse`], panicking informatively otherwise.
    fn parse_err(text: &str) -> (String, String) {
        match from_str(text).unwrap_err() {
            FbsError::Parse { reason, input } => (reason, input),
            other => panic!("expected FbsError::Parse, got {other:?}"),
        }
    }

    #[test]
    fn missing_pipe_reports_one_based_line_number() {
        // The malformed line is the 3rd physical line: a comment and a
        // valid route precede it, so the number must count input lines
        // (1-based), not parsed routes.
        let (reason, input) = parse_err("# header\n10.0.0.0/24|65000\n10.0.1.0/24\n");
        assert!(reason.contains("line 3"), "wrong line number: {reason}");
        assert!(reason.contains("missing '|'"), "wrong reason: {reason}");
        assert_eq!(input, "10.0.1.0/24");
    }

    #[test]
    fn bad_prefix_reports_one_based_line_number() {
        // Blank lines are skipped but still counted.
        let (reason, input) = parse_err("\n\nnot-a-prefix|65000\n");
        assert!(reason.contains("line 3"), "wrong line number: {reason}");
        assert!(reason.contains("bad prefix"), "wrong reason: {reason}");
        assert_eq!(input, "not-a-prefix|65000");

        // Out-of-range octets and masks are prefix errors too.
        let (reason, _) = parse_err("10.0.0.0/33|65000");
        assert!(reason.contains("line 1"), "{reason}");
        assert!(reason.contains("bad prefix"), "{reason}");
        let (reason, _) = parse_err("10.0.0.0/24|1\n999.0.0.0/24|2");
        assert!(reason.contains("line 2"), "{reason}");
    }

    #[test]
    fn bad_asn_reports_one_based_line_number_and_token() {
        let (reason, input) = parse_err("10.0.0.0/24|65000\n10.0.1.0/24|3356,abc,25482\n");
        assert!(reason.contains("line 2"), "wrong line number: {reason}");
        assert!(reason.contains("bad ASN"), "wrong reason: {reason}");
        assert_eq!(input, "abc", "the offending token is carried as context");

        // Negative and overflowing ASNs are rejected the same way.
        let (reason, _) = parse_err("10.0.0.0/24|-5");
        assert!(
            reason.contains("line 1") && reason.contains("bad ASN"),
            "{reason}"
        );
        let (reason, _) = parse_err("10.0.0.0/24|4294967296");
        assert!(reason.contains("bad ASN"), "{reason}");
    }

    #[test]
    fn first_malformed_line_wins() {
        // Parsing is strict and fail-fast: the error names the first bad
        // line even when later lines are also malformed.
        let (reason, _) = parse_err("x|1\nalso-bad\n");
        assert!(reason.contains("line 1"), "{reason}");
    }

    #[test]
    fn duplicate_prefix_is_an_error_with_line_context() {
        // Regression: route-table errors used to propagate out of
        // `rib.announce` without the `line N:` prefix the other parse
        // errors carry. A duplicate prefix is the reachable case — a
        // canonical dump never repeats a prefix, so strict mode rejects it.
        let (reason, input) = parse_err("10.0.0.0/24|65000\n10.0.0.0/24|65001\n");
        assert!(reason.contains("line 2"), "missing line context: {reason}");
        assert!(
            reason.contains("duplicate prefix"),
            "wrong reason: {reason}"
        );
        assert_eq!(input, "10.0.0.0/24|65001");
    }

    #[test]
    fn lossy_quarantines_instead_of_failing() {
        let text = "10.0.0.0/24|65000\n\
                    not-a-prefix|1\n\
                    10.0.1.0/24|3356,abc\n\
                    10.0.0.0/24|65001\n\
                    10.0.2.0/24|21151\n";
        let (rib, quarantine) = parse_lossy(text);
        assert_eq!(rib.num_routes(), 2);
        assert!(rib.route_exact("10.0.2.0/24".parse().unwrap()).is_some());
        // The duplicate keeps the first announcement, not last-wins.
        assert_eq!(
            rib.route_exact("10.0.0.0/24".parse().unwrap())
                .unwrap()
                .path,
            vec![Asn(65000)]
        );
        assert_eq!(quarantine.len(), 3);
        assert_eq!(quarantine[0].line, 2);
        assert!(quarantine[0].reason.contains("bad prefix"));
        assert_eq!(quarantine[1].line, 3);
        assert!(quarantine[1].reason.contains("bad ASN"));
        assert_eq!(quarantine[2].line, 4);
        assert!(quarantine[2].reason.contains("duplicate prefix"));
    }

    #[test]
    fn lossy_on_valid_dump_quarantines_nothing_and_roundtrips() {
        let dump = to_string(&sample_rib());
        let (rib, quarantine) = parse_lossy(&dump);
        assert!(quarantine.is_empty());
        assert_eq!(to_string(&rib), dump);
    }

    #[test]
    fn dump_is_line_oriented() {
        let dump = to_string(&sample_rib());
        assert_eq!(dump.lines().count(), 3);
        assert_eq!(dump.lines().next().unwrap(), "# routes: 2");
        assert!(dump.lines().skip(1).all(|l| l.contains('|')));
    }
}
