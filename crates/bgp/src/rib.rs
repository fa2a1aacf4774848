//! The routing information base.
//!
//! A [`Rib`] holds the currently-routed prefixes with their origin AS and AS
//! path, as a RouteViews collector would see them. The signal layer asks two
//! questions of it, both answered here:
//!
//! 1. *How many /24 blocks does AS X (or region R) currently route?* — the
//!    `BGP ★` signal;
//! 2. *Does the path to prefix P traverse a given transit AS?* — rerouting
//!    detection (the paper's occupied-Kherson traffic ran via Russian
//!    upstreams from May to November 2022).

use crate::trie::PrefixTrie;
use fbs_types::{Asn, BlockId, Prefix};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// One routed prefix: origin and the AS path from the collector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// The prefix being routed.
    pub prefix: Prefix,
    /// AS path from the collector's peer to the origin; the *last* element
    /// is the origin AS.
    pub path: Vec<Asn>,
}

impl RouteEntry {
    /// Origin AS (last element of the path).
    ///
    /// Panics on an empty path — entries are validated on announcement.
    pub fn origin(&self) -> Asn {
        *self.path.last().expect("path validated non-empty")
    }

    /// Whether the path traverses `asn` as a transit hop (not the origin).
    pub fn transits_via(&self, asn: Asn) -> bool {
        self.path[..self.path.len() - 1].contains(&asn)
    }
}

/// The routing table at one instant.
#[derive(Debug, Clone, Default)]
pub struct Rib {
    routes: PrefixTrie<RouteEntry>,
    /// Per-origin set of routed prefixes, kept in sync with the trie.
    by_origin: BTreeMap<Asn, BTreeSet<Prefix>>,
}

impl Rib {
    /// An empty table.
    pub fn new() -> Self {
        Rib::default()
    }

    /// Number of routed prefixes.
    pub fn num_routes(&self) -> usize {
        self.routes.len()
    }

    /// Announces a route, replacing any previous route for the same prefix.
    ///
    /// An empty path is rejected: a route must have an origin.
    pub fn announce(&mut self, prefix: Prefix, path: Vec<Asn>) -> fbs_types::Result<()> {
        if path.is_empty() {
            return Err(fbs_types::FbsError::config("AS path must be non-empty"));
        }
        let entry = RouteEntry { prefix, path };
        let origin = entry.origin();
        if let Some(old) = self.routes.insert(prefix, entry) {
            let old_origin = old.origin();
            if old_origin != origin {
                if let Some(set) = self.by_origin.get_mut(&old_origin) {
                    set.remove(&prefix);
                    if set.is_empty() {
                        self.by_origin.remove(&old_origin);
                    }
                }
            }
        }
        self.by_origin.entry(origin).or_default().insert(prefix);
        Ok(())
    }

    /// Withdraws the route for `prefix`, if present.
    pub fn withdraw(&mut self, prefix: Prefix) -> Option<RouteEntry> {
        let old = self.routes.remove(prefix)?;
        let origin = old.origin();
        if let Some(set) = self.by_origin.get_mut(&origin) {
            set.remove(&prefix);
            if set.is_empty() {
                self.by_origin.remove(&origin);
            }
        }
        Some(old)
    }

    /// The route covering `addr`, if any (longest-prefix match).
    pub fn route_for(&self, addr: Ipv4Addr) -> Option<&RouteEntry> {
        self.routes.longest_match(addr).map(|(_, e)| e)
    }

    /// The exact route for `prefix`, if announced.
    pub fn route_exact(&self, prefix: Prefix) -> Option<&RouteEntry> {
        self.routes.get(prefix)
    }

    /// Whether `block` is covered by any announced route.
    pub fn block_routed(&self, block: BlockId) -> bool {
        self.routes.longest_match(block.network()).is_some()
    }

    /// Number of /24 blocks originated by `asn` (the per-AS `BGP ★` value).
    ///
    /// Counts each covered /24 once even when announced through multiple
    /// (nested) prefixes of the same origin.
    pub fn routed_blocks_of(&self, asn: Asn) -> u64 {
        let Some(prefixes) = self.by_origin.get(&asn) else {
            return 0;
        };
        // Nested prefixes of the same origin would double-count; collect
        // block-level coverage. Prefix counts here are small (an AS holds
        // tens of prefixes), so the set stays cheap.
        let mut blocks: BTreeSet<u32> = BTreeSet::new();
        for p in prefixes {
            for b in p.blocks() {
                blocks.insert(b.0);
            }
        }
        blocks.len() as u64
    }

    /// All origins present in the table.
    pub fn origins(&self) -> impl Iterator<Item = Asn> + '_ {
        self.by_origin.keys().copied()
    }

    /// Whether `asn` currently originates anything at all.
    ///
    /// The paper's long-outage flag keys on this: an AS with *no* routed /24
    /// stays "in outage" even after the moving average adapts.
    pub fn is_visible(&self, asn: Asn) -> bool {
        self.by_origin.contains_key(&asn)
    }

    /// Iterates every `(prefix, entry)` in address order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &RouteEntry)> {
        self.routes.iter()
    }

    /// Origins whose path to the collector transits `asn` — the rerouting
    /// report (e.g. Ukrainian ASes reached via Russian upstreams).
    pub fn origins_transiting(&self, transit: Asn) -> BTreeSet<Asn> {
        let mut out = BTreeSet::new();
        for (_, e) in self.routes.iter() {
            if e.transits_via(transit) {
                out.insert(e.origin());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_withdraw_visibility() {
        let mut rib = Rib::new();
        assert!(!rib.is_visible(Asn(25482)));
        rib.announce(
            p("193.151.240.0/22"),
            vec![Asn(3356), Asn(6849), Asn(25482)],
        )
        .unwrap();
        assert!(rib.is_visible(Asn(25482)));
        assert_eq!(rib.routed_blocks_of(Asn(25482)), 4);
        assert!(rib.block_routed(BlockId::from_octets(193, 151, 241)));

        let old = rib.withdraw(p("193.151.240.0/22")).unwrap();
        assert_eq!(old.origin(), Asn(25482));
        assert!(!rib.is_visible(Asn(25482)));
        assert_eq!(rib.routed_blocks_of(Asn(25482)), 0);
        assert!(rib.withdraw(p("193.151.240.0/22")).is_none());
    }

    #[test]
    fn empty_path_rejected() {
        let mut rib = Rib::new();
        assert!(rib.announce(p("10.0.0.0/24"), vec![]).is_err());
    }

    #[test]
    fn nested_prefixes_do_not_double_count() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/22"), vec![Asn(1)]).unwrap();
        rib.announce(p("10.0.1.0/24"), vec![Asn(1)]).unwrap();
        // /22 covers 4 blocks, the nested /24 adds nothing new.
        assert_eq!(rib.routed_blocks_of(Asn(1)), 4);
    }

    #[test]
    fn reannouncement_moves_origin() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/24"), vec![Asn(1)]).unwrap();
        // Same prefix re-originated by a different AS (hijack or transfer).
        rib.announce(p("10.0.0.0/24"), vec![Asn(2)]).unwrap();
        assert_eq!(rib.routed_blocks_of(Asn(1)), 0);
        assert_eq!(rib.routed_blocks_of(Asn(2)), 1);
        assert!(!rib.is_visible(Asn(1)));
    }

    #[test]
    fn longest_match_for_address() {
        let mut rib = Rib::new();
        rib.announce(p("91.0.0.0/8"), vec![Asn(100)]).unwrap();
        rib.announce(p("91.237.5.0/24"), vec![Asn(200)]).unwrap();
        assert_eq!(
            rib.route_for(Ipv4Addr::new(91, 237, 5, 1))
                .unwrap()
                .origin(),
            Asn(200)
        );
        assert_eq!(
            rib.route_for(Ipv4Addr::new(91, 1, 1, 1)).unwrap().origin(),
            Asn(100)
        );
        assert!(rib.route_for(Ipv4Addr::new(8, 8, 8, 8)).is_none());
    }

    #[test]
    fn transit_detection() {
        let mut rib = Rib::new();
        let rostelecom = Asn(12389);
        rib.announce(p("10.0.0.0/24"), vec![Asn(3356), rostelecom, Asn(25482)])
            .unwrap();
        rib.announce(p("10.0.1.0/24"), vec![Asn(3356), Asn(6849), Asn(21151)])
            .unwrap();
        // Origin itself does not count as transit.
        rib.announce(p("10.0.2.0/24"), vec![Asn(3356), rostelecom])
            .unwrap();

        let rerouted = rib.origins_transiting(rostelecom);
        assert!(rerouted.contains(&Asn(25482)));
        assert!(!rerouted.contains(&Asn(21151)));
        assert!(!rerouted.contains(&rostelecom));
    }

    #[test]
    fn origins_iterates_current_set() {
        let mut rib = Rib::new();
        rib.announce(p("10.0.0.0/24"), vec![Asn(5)]).unwrap();
        rib.announce(p("10.0.1.0/24"), vec![Asn(3)]).unwrap();
        let origins: Vec<Asn> = rib.origins().collect();
        assert_eq!(origins, vec![Asn(3), Asn(5)]);
    }
}
