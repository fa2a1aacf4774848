//! Compatibility-classifier tests: every edit family the wire-schema
//! gate distinguishes, asserted against exact `Additive` / `Breaking`
//! verdicts on minimal extraction pairs (`old` = the frozen lockfile
//! state, `new` = the edited source). The last group runs the gate the
//! way the workspace sweep does, lockfile text and all.

#![forbid(unsafe_code)]

use fbs_lint::{
    diff_schemas, extract, lint_sources_with_lock, render_lock, EditKind, FileMeta, SourceFile,
    WireSchema,
};

const PATH: &str = "crates/types/src/x.rs";

fn analyze(src: &str) -> Vec<SourceFile> {
    vec![SourceFile::analyze(
        FileMeta::infer(PATH),
        src.as_bytes().to_vec(),
    )]
}

/// Extracts the wire schema of one virtual library file.
fn schema_of(src: &str) -> WireSchema {
    let files = analyze(src);
    let g = fbs_lint::graph::build(&files);
    extract(&files, &g)
}

/// Diffs two sources and asserts exactly one edit with the expected
/// verdict and a detail mentioning `needle`.
fn assert_verdict(old: &str, new: &str, kind: EditKind, needle: &str) {
    let edits = diff_schemas(&schema_of(old), &schema_of(new));
    assert_eq!(edits.len(), 1, "expected one edit, got {edits:?}");
    assert_eq!(edits[0].kind, kind, "wrong verdict: {edits:?}");
    assert!(
        edits[0].detail.contains(needle),
        "detail `{}` does not mention `{needle}`",
        edits[0].detail
    );
}

const PAIR_OLD: &str = "impl Persist for Pair {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(self.a);
        w.put_u64(self.b);
    }
}
";

#[test]
fn reorder_in_a_frozen_struct_is_breaking() {
    let new = "impl Persist for Pair {
        fn persist(&self, w: &mut ByteWriter) {
            w.put_u64(self.b);
            w.put_u32(self.a);
        }
    }
    ";
    assert_verdict(PAIR_OLD, new, EditKind::Breaking, "field order changed");
}

#[test]
fn codec_change_of_a_frozen_field_is_breaking() {
    let new = "impl Persist for Pair {
        fn persist(&self, w: &mut ByteWriter) {
            w.put_u32(self.a);
            w.put_i64(self.b);
        }
    }
    ";
    assert_verdict(
        PAIR_OLD,
        new,
        EditKind::Breaking,
        "codec of `self.b` changed",
    );
}

#[test]
fn removal_of_a_frozen_field_is_breaking() {
    let new = "impl Persist for Pair {
        fn persist(&self, w: &mut ByteWriter) {
            w.put_u32(self.a);
        }
    }
    ";
    assert_verdict(PAIR_OLD, new, EditKind::Breaking, "removed");
}

#[test]
fn appending_a_field_to_a_frozen_struct_is_still_breaking() {
    // Appending without a version gate changes the frozen byte stream;
    // only a new version tag makes additions safe.
    let new = "impl Persist for Pair {
        fn persist(&self, w: &mut ByteWriter) {
            w.put_u32(self.a);
            w.put_u64(self.b);
            w.put_bool(self.c);
        }
    }
    ";
    assert_verdict(PAIR_OLD, new, EditKind::Breaking, "appended");
}

/// A record that writes its union layout v6 and still decodes v5 — the
/// shape of `RoundRecord` once a layout turns read-only.
const VERSIONED_OLD: &str = "const V5: u32 = 5;
const V6: u32 = 6;
impl Persist for Rec {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u32(V6);
        self.base.persist(w);
        self.extra.persist(w);
    }
    fn restore(r: &mut ByteReader) -> Result<Self> {
        let version = r.get_u32()?;
        match version {
            V5 | V6 => decode(r, version),
            other => Err(other),
        }
    }
}
";

#[test]
fn editing_the_written_layout_is_breaking() {
    let new = VERSIONED_OLD.replace(
        "self.base.persist(w);\n        self.extra.persist(w);",
        "self.extra.persist(w);\n        self.base.persist(w);",
    );
    assert_verdict(
        VERSIONED_OLD,
        &new,
        EditKind::Breaking,
        "frozen v6 layout of `Rec` edited: field order changed",
    );
}

#[test]
fn bumping_the_write_tag_with_a_decode_arm_is_additive() {
    // v6 stops being written but stays decodable: it turns read-only,
    // which is not an edit. v7 is a fresh tag.
    let new = VERSIONED_OLD
        .replace(
            "const V6: u32 = 6;",
            "const V6: u32 = 6;\nconst V7: u32 = 7;",
        )
        .replace("w.put_u32(V6);", "w.put_u32(V7);")
        .replace(
            "self.extra.persist(w);",
            "self.extra.persist(w);\n        self.more.persist(w);",
        )
        .replace("V5 | V6 =>", "V5 | V6 | V7 =>");
    assert_verdict(
        VERSIONED_OLD,
        &new,
        EditKind::Additive,
        "new version tag v7 of `Rec`",
    );
}

#[test]
fn dropping_a_read_only_decode_arm_is_breaking() {
    let new = VERSIONED_OLD.replace("V5 | V6 =>", "V6 =>");
    assert_verdict(
        VERSIONED_OLD,
        &new,
        EditKind::Breaking,
        "`Rec` no longer reads version 5",
    );
}

const ENUM_OLD: &str = "impl Persist for Kind {
    fn persist(&self, w: &mut ByteWriter) {
        match self {
            Kind::A => w.put_u8(0),
            Kind::B(x) => {
                w.put_u8(1);
                x.persist(w);
            }
        }
    }
}
";

#[test]
fn enum_retag_is_breaking() {
    let new = "impl Persist for Kind {
        fn persist(&self, w: &mut ByteWriter) {
            match self {
                Kind::A => w.put_u8(0),
                Kind::B(x) => {
                    w.put_u8(2);
                    x.persist(w);
                }
            }
        }
    }
    ";
    assert_verdict(ENUM_OLD, new, EditKind::Breaking, "retagged: 1 → 2");
}

#[test]
fn enum_variant_on_a_fresh_tag_is_additive() {
    let new = "impl Persist for Kind {
        fn persist(&self, w: &mut ByteWriter) {
            match self {
                Kind::A => w.put_u8(0),
                Kind::B(x) => {
                    w.put_u8(1);
                    x.persist(w);
                }
                Kind::C => w.put_u8(7),
            }
        }
    }
    ";
    assert_verdict(ENUM_OLD, new, EditKind::Additive, "fresh tag");
}

#[test]
fn enum_variant_reusing_a_frozen_tag_is_breaking() {
    let new = "impl Persist for Kind {
        fn persist(&self, w: &mut ByteWriter) {
            match self {
                Kind::A => w.put_u8(0),
                Kind::B(x) => {
                    w.put_u8(1);
                    x.persist(w);
                }
                Kind::C => w.put_u8(1),
            }
        }
    }
    ";
    assert_verdict(ENUM_OLD, new, EditKind::Breaking, "reuses frozen tag 1");
}

#[test]
fn an_identical_extraction_produces_no_edits() {
    assert!(diff_schemas(&schema_of(VERSIONED_OLD), &schema_of(VERSIONED_OLD)).is_empty());
    assert!(diff_schemas(&schema_of(ENUM_OLD), &schema_of(ENUM_OLD)).is_empty());
}

/// The wire-schema findings of a lint run over one virtual library file
/// against `lock`, as `(rule, path, line)`; `complete` marks a workspace
/// sweep.
fn gate(src: &str, lock: Option<&str>, complete: bool) -> Vec<(&'static str, String, u32)> {
    lint_sources_with_lock(&analyze(src), complete, lock)
        .findings
        .into_iter()
        .filter(|f| {
            matches!(
                f.finding.rule,
                "frozen-version-edit" | "unprobed-version" | "schema-lock-drift"
            )
        })
        .map(|f| (f.finding.rule, f.path, f.finding.line))
        .collect()
}

#[test]
fn a_sweep_rejects_a_missing_lock_or_one_whose_text_is_not_canonical() {
    let canonical = render_lock(&schema_of(PAIR_OLD));
    assert!(gate(PAIR_OLD, Some(&canonical), true).is_empty());
    // Same layouts, but without the generated header.
    let hand_edited: String = canonical
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    for lock in [Some(hand_edited.as_str()), None] {
        assert_eq!(
            gate(PAIR_OLD, lock, true),
            [("schema-lock-drift", "SCHEMA.lock".to_string(), 1)]
        );
        // A file subset judges layouts only, so hand-written locks serve
        // as fixture baselines.
        assert!(gate(PAIR_OLD, lock, false).is_empty());
    }
}

#[test]
fn a_sweep_rejects_a_lock_that_lost_a_read_only_layout() {
    // `Rec` writes v6 and still reads v5, whose layout only the lock
    // records.
    let lost = render_lock(&schema_of(VERSIONED_OLD));
    let frozen = lost.replace("  v6\n", "  v5\n    u32 V5\n    nested self.base\n  v6\n");
    assert!(gate(VERSIONED_OLD, Some(&frozen), true).is_empty());
    assert_eq!(
        gate(VERSIONED_OLD, Some(&lost), true),
        [("unprobed-version", PATH.to_string(), 3)]
    );
}

#[test]
fn no_pragma_or_test_region_excuses_a_frozen_layout_edit() {
    let lock = render_lock(&schema_of(PAIR_OLD));
    let reordered = "impl Persist for Pair {
    fn persist(&self, w: &mut ByteWriter) {
        w.put_u64(self.b);
        w.put_u32(self.a);
    }
}
";
    let pragma = format!("// fbs-lint: allow(frozen-version-edit) layout reordered\n{reordered}");
    let test_region = format!("#[cfg(test)]\nmod tests {{\n{reordered}}}\n");
    for (src, line) in [(&pragma, 2), (&test_region, 3)] {
        for complete in [true, false] {
            assert_eq!(
                gate(src, Some(&lock), complete),
                [("frozen-version-edit", PATH.to_string(), line)],
                "{src}"
            );
        }
    }
}
