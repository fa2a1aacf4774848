//! Fixture-driven rule tests: one firing and one non-firing case per rule.
//!
//! Every fixture under `fixtures/<rule>/` is linted as if it lived at a
//! chosen workspace-relative path — the path controls the file kind and
//! crate scoping, so positives are checked against the exact rule name
//! *and* line, and negatives (near-misses: comments, strings, test
//! regions, sanctioned idioms) must produce zero findings.

#![forbid(unsafe_code)]

use fbs_lint::{lint_bytes, lint_bytes_with_lock};
use std::path::Path;

fn fixture(rule: &str, which: &str) -> Vec<u8> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(format!("{which}.rs"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The frozen `SCHEMA.lock` baseline committed next to a lock-dependent
/// rule's fixture (`positive.lock` / `negative.lock`).
fn lock_fixture(rule: &str, which: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(rule)
        .join(format!("{which}.lock"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Lints a fixture against its committed lock baseline, returning
/// `(rule, line)` pairs in diagnostic order.
fn lint_locked_fixture(rule: &str, which: &str, virtual_path: &str) -> Vec<(String, u32)> {
    let lock = lock_fixture(rule, which);
    lint_bytes_with_lock(virtual_path, fixture(rule, which), &lock)
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

/// Lints a fixture as if it lived at `virtual_path`, returning
/// `(rule, line)` pairs in diagnostic order.
fn lint_fixture(rule: &str, which: &str, virtual_path: &str) -> Vec<(String, u32)> {
    lint_bytes(virtual_path, fixture(rule, which))
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn assert_fires(rule: &str, virtual_path: &str, expected_lines: &[u32]) {
    let got = lint_fixture(rule, "positive", virtual_path);
    let want: Vec<(String, u32)> = expected_lines
        .iter()
        .map(|&l| (rule.to_string(), l))
        .collect();
    assert_eq!(got, want, "positive fixture for {rule} at {virtual_path}");
}

fn assert_clean(rule: &str, virtual_path: &str) {
    let got = lint_fixture(rule, "negative", virtual_path);
    assert!(got.is_empty(), "negative fixture for {rule} fired: {got:?}");
}

#[test]
fn wall_clock_fires_on_library_instant_now() {
    assert_fires("wall-clock", "crates/geodb/src/fixture.rs", &[6]);
}

#[test]
fn wall_clock_ignores_comments_strings_and_tests() {
    assert_clean("wall-clock", "crates/geodb/src/fixture.rs");
}

#[test]
fn wall_clock_exempts_binaries() {
    // The same clock-reading code is sanctioned in a bin target (the
    // missing-forbid-unsafe finding is expected there: a file under
    // src/bin/ is a crate root, and the fixture omits the attribute).
    let got = lint_fixture("wall-clock", "positive", "crates/bench/src/bin/fixture.rs");
    assert!(
        !got.iter().any(|(rule, _)| rule == "wall-clock"),
        "bin target must be exempt from wall-clock, got {got:?}"
    );
}

#[test]
fn ambient_rng_fires_on_thread_rng() {
    assert_fires("ambient-rng", "crates/geodb/src/fixture.rs", &[4]);
}

#[test]
fn ambient_rng_ignores_world_rng_idiom() {
    assert_clean("ambient-rng", "crates/geodb/src/fixture.rs");
}

#[test]
fn unordered_persist_fires_on_hashmap_near_persist() {
    assert_fires("unordered-persist", "crates/geodb/src/fixture.rs", &[4, 7]);
}

#[test]
fn unordered_persist_accepts_btreemap() {
    assert_clean("unordered-persist", "crates/geodb/src/fixture.rs");
}

#[test]
fn unordered_persist_only_guards_persist_files() {
    // Without a Persist/ByteWriter mention the rule does not apply, so a
    // HashMap far from serialization is fine. Strip the `use ... Persist`
    // line to simulate that.
    let src = fixture("unordered-persist", "positive");
    let stripped: Vec<u8> = String::from_utf8(src)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("Persist"))
        .flat_map(|l| l.bytes().chain([b'\n']))
        .collect();
    let got = lint_bytes("crates/geodb/src/fixture.rs", stripped);
    assert!(got.is_empty(), "rule over-applies: {got:?}");
}

#[test]
fn unordered_persist_guards_quarantine_report_writer() {
    // The feeds quarantine writer emits a report file, so it is on the
    // emission list: the rule applies there even with no Persist/ByteWriter
    // mention in the source.
    let src = fixture("unordered-persist", "positive");
    let stripped: Vec<u8> = String::from_utf8(src)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("Persist"))
        .flat_map(|l| l.bytes().chain([b'\n']))
        .collect();
    let got = lint_bytes("crates/feeds/src/quarantine.rs", stripped);
    assert!(
        got.iter().any(|f| f.rule == "unordered-persist"),
        "quarantine writer must be covered by unordered-persist, got {got:?}"
    );
}

#[test]
fn panic_in_pipeline_fires_on_all_shapes() {
    // line 6: .unwrap(), line 7: m[&k] map indexing, line 11: panic!.
    assert_fires(
        "panic-in-pipeline",
        "crates/core/src/fixture.rs",
        &[6, 7, 11],
    );
}

#[test]
fn panic_in_pipeline_ignores_safe_idioms_and_tests() {
    assert_clean("panic-in-pipeline", "crates/core/src/fixture.rs");
}

#[test]
fn panic_in_pipeline_scopes_to_pipeline_crates() {
    // The same panicking code is out of scope in a non-pipeline crate.
    let got = lint_fixture(
        "panic-in-pipeline",
        "positive",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "rule escaped its crates: {got:?}");
}

#[test]
fn nan_unsafe_cmp_fires_on_partial_cmp_unwrap_and_float_eq() {
    // line 4: partial_cmp().unwrap(), line 8: x == 0.0.
    assert_fires("nan-unsafe-cmp", "crates/analysis/src/fixture.rs", &[4, 8]);
}

#[test]
fn nan_unsafe_cmp_accepts_total_cmp_and_tolerances() {
    assert_clean("nan-unsafe-cmp", "crates/analysis/src/fixture.rs");
}

#[test]
fn missing_forbid_unsafe_fires_at_file_head() {
    assert_fires("missing-forbid-unsafe", "crates/geodb/src/lib.rs", &[1]);
}

#[test]
fn missing_forbid_unsafe_satisfied_by_attribute() {
    assert_clean("missing-forbid-unsafe", "crates/geodb/src/lib.rs");
}

#[test]
fn missing_forbid_unsafe_only_guards_crate_roots() {
    // A non-root module without the attribute is fine.
    let got = lint_fixture(
        "missing-forbid-unsafe",
        "positive",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "rule fired off the crate root: {got:?}");
}

#[test]
fn persist_field_drift_fires_on_missing_restore_field() {
    assert_fires("persist-field-drift", "crates/geodb/src/fixture.rs", &[8]);
}

#[test]
fn persist_field_drift_accepts_symmetric_and_index_codecs() {
    assert_clean("persist-field-drift", "crates/geodb/src/fixture.rs");
}

#[test]
fn persist_field_drift_skips_non_library_files() {
    // The same asymmetric impl inside an integration test is out of scope.
    let got = lint_fixture(
        "persist-field-drift",
        "positive",
        "crates/geodb/tests/fixture.rs",
    );
    assert!(
        !got.iter().any(|(rule, _)| rule == "persist-field-drift"),
        "rule escaped library scope: {got:?}"
    );
}

#[test]
fn unregistered_emission_fires_on_rogue_write_site() {
    assert_fires("unregistered-emission", "crates/geodb/src/fixture.rs", &[7]);
}

#[test]
fn unregistered_emission_ignores_renderers_and_test_writes() {
    assert_clean("unregistered-emission", "crates/geodb/src/fixture.rs");
}

#[test]
fn unregistered_emission_accepts_registered_files() {
    // The very same write site is sanctioned inside a registry entry.
    let got = lint_fixture(
        "unregistered-emission",
        "positive",
        "crates/feeds/src/quarantine.rs",
    );
    assert!(
        !got.iter().any(|(rule, _)| rule == "unregistered-emission"),
        "registered file must be exempt, got {got:?}"
    );
}

#[test]
fn nondet_collection_flow_fires_one_hop_from_the_emitter() {
    assert_fires(
        "nondet-collection-flow",
        "crates/geodb/src/fixture.rs",
        &[11],
    );
}

#[test]
fn nondet_collection_flow_accepts_ordered_and_unreachable_maps() {
    assert_clean("nondet-collection-flow", "crates/geodb/src/fixture.rs");
}

#[test]
fn shard_merge_order_fires_at_the_unordered_sink_call() {
    assert_fires("shard-merge-order", "crates/core/src/fixture.rs", &[7]);
}

#[test]
fn shard_merge_order_accepts_sorted_sequential_and_merged_flows() {
    assert_clean("shard-merge-order", "crates/core/src/fixture.rs");
}

#[test]
fn rng_domain_collision_fires_on_all_three_shapes() {
    // line 5: unregistered literal, line 9: computed argument,
    // lines 13/17: the same literal at two live call sites.
    assert_fires(
        "rng-domain-collision",
        "crates/netsim/src/fixture.rs",
        &[5, 9, 13, 17],
    );
}

#[test]
fn rng_domain_collision_accepts_registered_pragmad_and_test_draws() {
    assert_clean("rng-domain-collision", "crates/netsim/src/fixture.rs");
}

#[test]
fn shared_mutable_fires_two_hops_below_the_round_loop() {
    assert_fires(
        "shared-mutable-in-shard-path",
        "crates/core/src/fixture.rs",
        &[13],
    );
}

#[test]
fn shared_mutable_accepts_owned_state_and_off_path_helpers() {
    assert_clean("shared-mutable-in-shard-path", "crates/core/src/fixture.rs");
}

#[test]
fn float_reduction_order_fires_on_sum_and_additive_fold() {
    // line 9: .sum::<f64>() in a helper the emitter calls, line 13: an
    // additive f64 fold one hop further; lines 21, 26 and 33: an untyped
    // .sum() / .product() whose f64 comes from a `let x: f64` binding, a
    // `-> f64` tail and a `return` in an `-> f64` function.
    assert_fires(
        "float-reduction-order",
        "crates/core/src/fixture.rs",
        &[9, 13, 21, 26, 33],
    );
}

#[test]
fn float_reduction_order_accepts_integer_max_and_pragmad_reductions() {
    // Includes untyped sums typed as integers by their binding, by a
    // `-> u64` tail, and inside a closure of an `-> f64` function.
    assert_clean("float-reduction-order", "crates/core/src/fixture.rs");
}

#[test]
fn unprobed_version_fires_on_asymmetric_write_read_sets() {
    // Both findings anchor at the `impl Persist` line: the encoder writes
    // v3 the decoder never accepts, and the decoder accepts v9, which
    // nothing writes and the lock freezes no layout for.
    let got = lint_locked_fixture(
        "unprobed-version",
        "positive",
        "crates/geodb/src/fixture.rs",
    );
    let want = ("unprobed-version".to_string(), 18);
    assert_eq!(got, [want.clone(), want]);
}

#[test]
fn unprobed_version_accepts_read_only_versions_the_lock_freezes() {
    let got = lint_locked_fixture(
        "unprobed-version",
        "negative",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "negative fixture fired: {got:?}");
    // Without the lock nothing is frozen, so the read-only v1 and v2 are
    // dead acceptances.
    let unlocked = lint_fixture(
        "unprobed-version",
        "negative",
        "crates/geodb/src/fixture.rs",
    );
    let want = ("unprobed-version".to_string(), 14);
    assert_eq!(unlocked, [want.clone(), want]);
}

#[test]
fn frozen_version_edit_fires_on_reorders_against_the_lock() {
    // line 16: `Header` swapped its two field writes relative to the
    // frozen baseline; line 34: the written v2 layout of `Record` moved
    // `notes` ahead of `head`. The read-only v1 layout raises nothing.
    let got = lint_locked_fixture(
        "frozen-version-edit",
        "positive",
        "crates/geodb/src/fixture.rs",
    );
    assert_eq!(
        got,
        [
            ("frozen-version-edit".to_string(), 16),
            ("frozen-version-edit".to_string(), 34),
        ]
    );
}

#[test]
fn frozen_version_edit_accepts_a_matching_lock() {
    let got = lint_locked_fixture(
        "frozen-version-edit",
        "negative",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "negative fixture fired: {got:?}");
}

#[test]
fn frozen_version_edit_fires_when_a_frozen_varint_goes_fixed_width() {
    // line 9: the lock froze each element of `Counts` as a varint; the
    // source now writes it as a `u64`.
    let got = lint_locked_fixture(
        "frozen-version-edit",
        "varint-positive",
        "crates/geodb/src/fixture.rs",
    );
    assert_eq!(got, [("frozen-version-edit".to_string(), 9)]);
}

#[test]
fn frozen_version_edit_accepts_a_matching_varint_lock() {
    let got = lint_locked_fixture(
        "frozen-version-edit",
        "varint-negative",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "negative fixture fired: {got:?}");
}

#[test]
fn schema_lock_drift_fires_on_a_new_type_and_a_new_write_tag() {
    // line 28: `Extra` is absent from the frozen baseline; line 48:
    // `Record` now writes v3, a tag the baseline lacks. Both are additive
    // drift, not frozen-version breaks.
    let got = lint_locked_fixture(
        "schema-lock-drift",
        "positive",
        "crates/geodb/src/fixture.rs",
    );
    assert_eq!(
        got,
        [
            ("schema-lock-drift".to_string(), 28),
            ("schema-lock-drift".to_string(), 48),
        ]
    );
}

#[test]
fn schema_lock_drift_accepts_a_matching_lock() {
    let got = lint_locked_fixture(
        "schema-lock-drift",
        "negative",
        "crates/geodb/src/fixture.rs",
    );
    assert!(got.is_empty(), "negative fixture fired: {got:?}");
}

#[test]
fn every_rule_has_both_fixtures() {
    let lexical = fbs_lint::RULES.iter().map(|r| r.name);
    let semantic = fbs_lint::SEMANTIC_RULES.iter().map(|r| r.name);
    for name in lexical.chain(semantic) {
        for which in ["positive", "negative"] {
            let _ = fixture(name, which); // panics with the path if missing
        }
    }
}
