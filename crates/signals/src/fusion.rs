//! Multi-vantage fusion: quorum voting over per-vantage block observations.
//!
//! The paper's pipeline rides on a single vantage point, so routing damage
//! on the one path, congestion near the scanner, and genuinely-dark hosts
//! are indistinguishable (the limitation §7 concedes). With N vantage
//! points the picture sharpens — but disagreement must be *resolved before
//! detection*, or one sick vantage poisons every signal. This module is
//! that resolution stage:
//!
//! * **Masking** — a vantage whose round is [`RoundQuality::Unusable`] (or
//!   that is offline outright) is excluded from the vote entirely, the
//!   per-signal degradation pattern applied per vantage: its silence is a
//!   statement about the vantage, not about the targets.
//! * **Quorum voting** — a block counts as reachable when at least half of
//!   the *usable* vantages saw a responder (`2·up ≥ usable`). Ties break
//!   toward reachable: with evidence split, fabricating an outage is the
//!   worse error. With one usable vantage this degenerates to exactly the
//!   single-vantage rule (`responsive > 0`), which is what keeps an N=1
//!   roster bit-identical to an empty roster's implicit vantage.
//! * **Reach classification** — `reachable-from-some-but-not-all`
//!   separates *routing damage* (some paths still deliver) from
//!   *host-down* (no path delivers), the distinction a single vantage
//!   cannot make.
//!
//! The vote is deliberately simple and order-free: every fused quantity is
//! a max/min/count over the usable votes, so vantage order cannot leak
//! into results — the deterministic vantage-ordered merge in the campaign
//! loop is belt-and-braces, not load-bearing for the arithmetic.

use fbs_types::RoundQuality;

/// One usable vantage's observation of one block in one round.
///
/// Only *usable* vantages cast votes; the caller applies the mask (offline
/// or `Unusable` vantages never reach the ballot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockVote {
    /// Responding addresses the vantage observed in the block.
    pub responsive: u32,
    /// The vantage's observed round-trip time for the block, nanoseconds.
    pub rtt_ns: u64,
}

impl BlockVote {
    /// Whether this vantage saw the block answer at all.
    #[inline]
    pub fn reachable(&self) -> bool {
        self.responsive > 0
    }
}

/// Where a block sits between the vantages this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReachClass {
    /// Every usable vantage reached the block: plainly up.
    All,
    /// Reachable from some vantages but not all: the signature of routing
    /// damage or severe path congestion, *not* of dark hosts.
    Some,
    /// No usable vantage reached the block: host-down (or an outage close
    /// enough to the targets that every path is severed).
    None,
}

/// The quorum's resolved view of one block in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusedBlock {
    /// Responsive count after the vote: the *maximum* over reachable
    /// votes when the quorum says reachable (the best path is the least
    /// lossy estimate of who is actually up), `0` when it says not.
    pub responsive: u32,
    /// Fused RTT: the minimum over reachable votes (best-path latency),
    /// falling back to the minimum over all votes for unreachable blocks.
    pub rtt_ns: u64,
    /// The reach classification over the usable vantages.
    pub reach: ReachClass,
    /// Usable vantages that saw the block answer.
    pub up_votes: u32,
    /// Usable vantages that voted at all.
    pub usable_votes: u32,
    /// Whether the quorum *overrode* a minority reachable claim (some
    /// vantage saw responders, but too few vantages agreed).
    pub suppressed: bool,
}

impl FusedBlock {
    /// Whether the quorum resolved the block as reachable.
    #[inline]
    pub fn reachable(&self) -> bool {
        self.responsive > 0
    }

    /// Whether the vantages disagreed about this block (reachable from
    /// some but not all).
    #[inline]
    pub fn disputed(&self) -> bool {
        self.reach == ReachClass::Some
    }
}

/// The quorum rule: reachable iff at least half of the usable vantages
/// saw the block answer (`2·up ≥ usable`, `usable > 0`).
///
/// Properties the proptests pin:
///
/// * **N=1 identity** — one usable vantage: reachable iff it saw a
///   responder, exactly the single-vantage rule.
/// * **Monotone** — adding a reachable vote never flips the verdict from
///   reachable to unreachable (`2(up+1) ≥ usable+1` follows from
///   `2·up ≥ usable`).
/// * **Mask-out never widens an outage** — dropping an unusable vantage
///   (which could only have voted "dark": it measured nothing) never
///   turns a reachable verdict unreachable (`2·up ≥ usable+1` implies
///   `2·up ≥ usable`).
#[inline]
pub fn quorum_reachable(up_votes: u32, usable_votes: u32) -> bool {
    usable_votes > 0 && 2 * up_votes as u64 >= usable_votes as u64
}

/// Resolves one block's per-vantage votes into the quorum verdict.
///
/// `votes` carries one entry per *usable* vantage (masking already
/// applied). An empty ballot — every vantage masked — resolves to
/// [`ReachClass::None`] with zero votes; callers treat such rounds as
/// unmeasured rather than as outage evidence.
pub fn fuse_block(votes: &[BlockVote]) -> FusedBlock {
    let usable_votes = votes.len() as u32;
    let up_votes = votes.iter().filter(|v| v.reachable()).count() as u32;
    let reachable = quorum_reachable(up_votes, usable_votes);
    let reach = if up_votes == 0 {
        ReachClass::None
    } else if up_votes == usable_votes {
        ReachClass::All
    } else {
        ReachClass::Some
    };
    // Best-path view: max responders and min RTT over the vantages that
    // actually got through; an unreachable block keeps the min RTT over
    // all votes so the field stays meaningful for diagnostics.
    let responsive = if reachable {
        votes
            .iter()
            .filter(|v| v.reachable())
            .map(|v| v.responsive)
            .max()
            .unwrap_or(0)
    } else {
        0
    };
    let rtt_ns = votes
        .iter()
        .filter(|v| !reachable || v.reachable())
        .map(|v| v.rtt_ns)
        .min()
        .unwrap_or(0);
    FusedBlock {
        responsive,
        rtt_ns,
        reach,
        up_votes,
        usable_votes,
        suppressed: !reachable && up_votes > 0,
    }
}

/// Whether a vantage's round participates in the quorum at all.
///
/// Offline and [`RoundQuality::Unusable`] vantages are masked out — their
/// measurements describe the vantage, not the targets — exactly as the
/// feed layer masks a stale BGP dump out of per-signal detection.
#[inline]
pub fn vantage_usable(online: bool, quality: RoundQuality) -> bool {
    online && quality.is_usable()
}

/// Fuses per-vantage round qualities into the round's verdict: the *best*
/// (least severe) quality among usable vantages, [`RoundQuality::Unusable`]
/// when every vantage is masked.
///
/// Best-of is the graceful-degradation rule: one clean vantage keeps the
/// round fully trustworthy even while another sits behind 100% loss —
/// the sick vantage is already masked out of the vote, so it must not
/// drag the round's quality down either.
pub fn fuse_round_quality(
    per_vantage: impl IntoIterator<Item = (bool, RoundQuality)>,
) -> RoundQuality {
    per_vantage
        .into_iter()
        .filter(|(online, q)| vantage_usable(*online, *q))
        .map(|(_, q)| q)
        .min()
        .unwrap_or(RoundQuality::Unusable)
}

/// Restores deterministic slot order over results that arrive in
/// completion order from a parallel executor.
///
/// Any parallel fan-out — the vantage roster, the shard pool — produces
/// results in scheduling order, which must never reach a merge or a sink.
/// This is the shared laundering step: sort by the stable slot key the
/// work was partitioned under, so the merge consumes roster order no
/// matter how the workers raced.
pub fn roster_ordered<T>(mut items: Vec<T>, slot: impl FnMut(&T) -> u32) -> Vec<T> {
    items.sort_by_key(slot);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn up(responsive: u32) -> BlockVote {
        BlockVote {
            responsive,
            rtt_ns: 40_000_000,
        }
    }

    fn dark() -> BlockVote {
        BlockVote {
            responsive: 0,
            rtt_ns: 0,
        }
    }

    #[test]
    fn single_vantage_is_the_legacy_rule() {
        let fused = fuse_block(&[up(118)]);
        assert!(fused.reachable());
        assert_eq!(fused.responsive, 118);
        assert_eq!(fused.reach, ReachClass::All);
        assert!(!fused.suppressed);

        let fused = fuse_block(&[dark()]);
        assert!(!fused.reachable());
        assert_eq!(fused.reach, ReachClass::None);
        assert!(!fused.suppressed);
    }

    #[test]
    fn two_of_three_passes_one_of_three_is_suppressed() {
        let fused = fuse_block(&[up(100), up(90), dark()]);
        assert!(fused.reachable());
        assert_eq!(fused.responsive, 100, "max over reachable votes");
        assert_eq!(fused.reach, ReachClass::Some);
        assert!(!fused.suppressed);

        let fused = fuse_block(&[up(100), dark(), dark()]);
        assert!(!fused.reachable());
        assert_eq!(fused.responsive, 0);
        assert_eq!(fused.reach, ReachClass::Some, "still a disagreement");
        assert!(fused.suppressed, "the minority claim was overridden");
    }

    #[test]
    fn ties_break_toward_reachable() {
        let fused = fuse_block(&[up(50), dark()]);
        assert!(fused.reachable(), "1-of-2 must not fabricate an outage");
        assert_eq!(fused.reach, ReachClass::Some);
    }

    #[test]
    fn empty_ballot_is_unmeasured_not_an_outage() {
        let fused = fuse_block(&[]);
        assert!(!fused.reachable());
        assert_eq!(fused.usable_votes, 0);
        assert_eq!(fused.reach, ReachClass::None);
        assert!(!fused.suppressed);
        assert!(!quorum_reachable(0, 0));
    }

    #[test]
    fn fused_rtt_is_best_path() {
        let fused = fuse_block(&[
            BlockVote {
                responsive: 10,
                rtt_ns: 90_000_000,
            },
            BlockVote {
                responsive: 8,
                rtt_ns: 40_000_000,
            },
        ]);
        assert_eq!(fused.rtt_ns, 40_000_000);
        assert_eq!(fused.responsive, 10);
    }

    #[test]
    fn masking_rules() {
        assert!(vantage_usable(true, RoundQuality::Ok));
        assert!(vantage_usable(true, RoundQuality::Degraded));
        assert!(!vantage_usable(true, RoundQuality::Unusable));
        assert!(!vantage_usable(false, RoundQuality::Ok));
    }

    #[test]
    fn roster_ordered_restores_slot_order() {
        let arrival = vec![(3u32, "d"), (0, "a"), (2, "c"), (1, "b")];
        let ordered = roster_ordered(arrival, |(slot, _)| *slot);
        assert_eq!(ordered, vec![(0, "a"), (1, "b"), (2, "c"), (3, "d")]);
        assert!(roster_ordered(Vec::<(u32, ())>::new(), |(s, _)| *s).is_empty());
    }

    #[test]
    fn round_quality_is_best_of_usable() {
        use RoundQuality::*;
        assert_eq!(fuse_round_quality([(true, Ok), (true, Unusable)]), Ok);
        assert_eq!(
            fuse_round_quality([(true, Degraded), (true, Unusable)]),
            Degraded
        );
        assert_eq!(
            fuse_round_quality([(true, Unusable), (false, Ok)]),
            Unusable
        );
        assert_eq!(fuse_round_quality(std::iter::empty()), Unusable);
    }
}
