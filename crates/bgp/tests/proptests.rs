//! Property tests: the prefix trie against a naive model, RIB accounting
//! invariants, dump round-trips, and the dump renderer against `Display`.

use fbs_bgp::{dump, PrefixTrie, Rib};
use fbs_types::{Asn, Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::net::Ipv4Addr;

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 8u8..=28).prop_map(|(raw, len)| Prefix::new(Ipv4Addr::from(raw), len))
}

/// Naive longest-prefix match over a map, as the reference model.
fn model_lpm(model: &BTreeMap<Prefix, u32>, addr: Ipv4Addr) -> Option<(Prefix, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains_addr(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    /// Trie get/insert/remove agree with a BTreeMap model.
    #[test]
    fn trie_matches_map_model(
        ops in proptest::collection::vec((arb_prefix(), any::<u32>(), any::<bool>()), 1..60),
        probes in proptest::collection::vec(any::<u32>(), 10),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Prefix, u32> = BTreeMap::new();
        for (prefix, value, insert) in ops {
            if insert {
                trie.insert(prefix, value);
                model.insert(prefix, value);
            } else {
                let got = trie.remove(prefix);
                let expect = model.remove(&prefix);
                prop_assert_eq!(got, expect);
            }
            prop_assert_eq!(trie.len(), model.len());
        }
        for (p, v) in &model {
            prop_assert_eq!(trie.get(*p), Some(v));
        }
        for raw in probes {
            let addr = Ipv4Addr::from(raw);
            let got = trie.longest_match(addr).map(|(p, v)| (p, *v));
            prop_assert_eq!(got, model_lpm(&model, addr));
        }
    }

    /// Trie iteration yields exactly the model's contents.
    #[test]
    fn trie_iter_complete(entries in proptest::collection::btree_map(arb_prefix(), any::<u32>(), 0..40)) {
        let mut trie = PrefixTrie::new();
        for (p, v) in &entries {
            trie.insert(*p, *v);
        }
        let collected: BTreeMap<Prefix, u32> = trie.iter().map(|(p, v)| (p, *v)).collect();
        prop_assert_eq!(collected, entries);
    }

    /// Rib routed-block counts equal the union of originated prefixes'
    /// block coverage; announce/withdraw keeps visibility consistent.
    #[test]
    fn rib_accounting(
        routes in proptest::collection::vec((arb_prefix(), 1u32..6), 1..30),
    ) {
        let mut rib = Rib::new();
        for (p, asn) in &routes {
            rib.announce(*p, vec![Asn(3356), Asn(*asn)]).unwrap();
        }
        // Model per-origin coverage (later announcements of the same
        // prefix override earlier ones).
        let mut last: BTreeMap<Prefix, u32> = BTreeMap::new();
        for (p, asn) in &routes {
            last.insert(*p, *asn);
        }
        for asn in 1u32..6 {
            let mut blocks = std::collections::BTreeSet::new();
            for (p, owner) in &last {
                if *owner == asn {
                    for b in p.blocks() {
                        blocks.insert(b);
                    }
                }
            }
            prop_assert_eq!(rib.routed_blocks_of(Asn(asn)), blocks.len() as u64);
            prop_assert_eq!(rib.is_visible(Asn(asn)), !last.values().all(|o| *o != asn));
        }
        // Withdraw everything: the table empties.
        for p in last.keys() {
            rib.withdraw(*p);
        }
        prop_assert_eq!(rib.num_routes(), 0);
        for asn in 1u32..6 {
            prop_assert!(!rib.is_visible(Asn(asn)));
        }
    }

    /// Dump serialization round-trips arbitrary tables.
    #[test]
    fn dump_roundtrip(routes in proptest::collection::btree_map(arb_prefix(), 1u32..100, 0..25)) {
        let mut rib = Rib::new();
        for (p, asn) in &routes {
            rib.announce(*p, vec![Asn(1299), Asn(*asn)]).unwrap();
        }
        let text = dump::to_string(&rib);
        let parsed = dump::from_str(&text).unwrap();
        prop_assert_eq!(parsed.num_routes(), rib.num_routes());
        prop_assert_eq!(dump::to_string(&parsed), text);
    }
}

/// The dump as `write!` renders it through `Display`: the reference the
/// direct formatter in [`dump::to_string`] must match byte for byte.
fn display_dump(rib: &Rib) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# routes: {}", rib.num_routes());
    for (prefix, entry) in rib.iter() {
        let _ = write!(out, "{prefix}|");
        for (i, asn) in entry.path.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", asn.value());
        }
        out.push('\n');
    }
    out
}

/// Any prefix, with `/0` and `/32` drawn often.
fn arb_edge_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), prop_oneof![Just(0u8), Just(32u8), 0u8..=32])
        .prop_map(|(raw, len)| Prefix::new(Ipv4Addr::from(raw), len))
}

/// Any ASN, with 0 and `u32::MAX` drawn often.
fn arb_edge_asn() -> impl Strategy<Value = Asn> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..100_000, any::<u32>()].prop_map(Asn)
}

#[test]
fn direct_render_matches_display_on_edge_routes() {
    let mut rib = Rib::new();
    for (prefix, path) in [
        ("0.0.0.0/0", vec![Asn(0)]),
        ("255.255.255.255/32", vec![Asn(u32::MAX)]),
        ("10.0.0.0/8", vec![Asn(0), Asn(9), Asn(10), Asn(u32::MAX)]),
        (
            "100.64.100.0/24",
            vec![Asn(99), Asn(100), Asn(1_000_000_000)],
        ),
    ] {
        rib.announce(prefix.parse().unwrap(), path).unwrap();
    }
    let text = dump::to_string(&rib);
    assert_eq!(text, display_dump(&rib));
    assert!(text.contains("0.0.0.0/0|0\n"), "{text}");
    assert!(text.contains("255.255.255.255/32|4294967295\n"), "{text}");
    assert_eq!(dump::to_string(&Rib::new()), "# routes: 0\n");
}

proptest! {
    /// The direct formatter writes exactly `Display`'s bytes.
    #[test]
    fn direct_render_matches_display(
        routes in proptest::collection::vec(
            (arb_edge_prefix(), proptest::collection::vec(arb_edge_asn(), 1..5)),
            0..40,
        ),
    ) {
        let mut rib = Rib::new();
        for (prefix, path) in routes {
            rib.announce(prefix, path).unwrap();
        }
        prop_assert_eq!(dump::to_string(&rib), display_dump(&rib));
    }
}
