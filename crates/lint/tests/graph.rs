//! Symbol-graph assembly over a miniature two-file workspace fixture:
//! a types file defining `Record`/`Mode` plus a Persist impl, and a
//! store file that calls the codec and writes bytes out. Exercises the
//! cross-file links the semantic rules depend on — type definitions,
//! Persist impl bodies, callee edges, and write sites.

#![forbid(unsafe_code)]

use fbs_lint::graph::build;
use fbs_lint::{FileMeta, SourceFile};
use std::path::Path;

fn fixture_file(name: &str, virtual_path: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("graph")
        .join(name);
    let src = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    SourceFile::analyze(FileMeta::infer(virtual_path), src)
}

#[test]
fn two_file_workspace_graph_links_types_impls_and_calls() {
    let files = [
        fixture_file("types_file.rs", "crates/types/src/record.rs"),
        fixture_file("store_file.rs", "crates/core/src/store.rs"),
    ];
    let g = build(&files);

    // Type definitions resolve to their files.
    let record = g.unique_struct("Record").expect("Record defined once");
    assert_eq!(record.file, 0);
    let mode = g.unique_enum("Mode").expect("Mode defined once");
    assert_eq!(files[mode.file].ast.enums[mode.item].variants.len(), 2);
    assert!(g.unique_struct("Store").is_some());

    // The one Persist impl (Record's; Store has none) carries both codec
    // bodies.
    assert_eq!(g.persist_impls.len(), 1);
    let pi = &g.persist_impls[0];
    assert_eq!(pi.type_name, "Record");
    assert_eq!(pi.file, 0);
    assert!(pi.encode.is_some() && pi.decode.is_some());

    // Callee edges cross files by name: Store::save → encode_record,
    // which exists as a function node in file 1 of the set.
    let save = &g.fns[g.fns_by_name["save"][0]];
    assert_eq!(save.file, 1);
    assert_eq!(save.impl_type.as_deref(), Some("Store"));
    assert!(save.callees.iter().any(|c| c == "encode_record"));
    let callee_idx = g.fns_by_name["encode_record"][0];
    assert_eq!(g.fns[callee_idx].file, 1);
    assert!(g.fns[callee_idx].callees.iter().any(|c| c == "persist"));

    // The write site is found in `save`, nowhere else.
    assert_eq!(save.write_sites.len(), 1);
    assert_eq!(save.write_sites[0].callee, "fs::write");
    let total_writes: usize = g.fns.iter().map(|f| f.write_sites.len()).sum();
    assert_eq!(total_writes, 1);
}
