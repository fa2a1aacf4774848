//! The deterministic feed-loading loop.
//!
//! [`FeedLoader`] drives an abstract [`FeedSource`] (an HTTP mirror in
//! production, the simulator's feed-fault layer in tests) through a
//! bounded retry loop and judges each delivery against the lossy
//! tolerance. There is no wall clock anywhere: backoff is an explicit
//! *budget* of virtual cost units, so a replayed campaign makes
//! byte-identical decisions.
//!
//! One loader lives for a whole campaign and remembers, per feed, the
//! bytes and verdict of the last delivery it judged. Ingest is a pure
//! function of the bytes and the loader's fixed tolerance, so a delivery
//! byte-identical to that one reuses its verdict instead of being parsed
//! again — the common case for a BGP dump that no routing event changed
//! and for the world-static delegation file.

use crate::ingest::{
    ingest_bgp, ingest_delegations, ingest_geo, FeedQuarantine, IngestResult, LossyTolerance,
};
use fbs_types::{FeedKind, Round};
use serde::{Deserialize, Serialize};

/// Deterministic retry/backoff policy.
///
/// Attempt `i` (0-based) costs `base_cost << i` virtual units; attempts
/// stop once the cumulative cost would exceed `backoff_budget` or
/// `max_attempts` is reached. With the defaults (3 attempts, budget 7,
/// base 1) the classic 1+2+4 exponential ladder fits exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Hard cap on fetch attempts per feed per round.
    pub max_attempts: u32,
    /// Total virtual backoff budget per feed per round.
    pub backoff_budget: u64,
    /// Cost of the first attempt (doubles each retry).
    pub base_cost: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff_budget: 7,
            base_cost: 1,
        }
    }
}

impl RetryPolicy {
    /// Attempts the budget affords (≥ 1 so a delivery is always tried).
    pub fn attempts_allowed(&self) -> u32 {
        let mut spent = 0u64;
        let mut n = 0u32;
        while n < self.max_attempts {
            let cost = self.base_cost.saturating_shl(n);
            if spent.saturating_add(cost) > self.backoff_budget {
                break;
            }
            spent = spent.saturating_add(cost);
            n += 1;
        }
        n.max(1)
    }
}

trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        if n >= 64 || self > (u64::MAX >> n) {
            u64::MAX
        } else {
            self << n
        }
    }
}

/// Where feed texts come from. `attempt` is 0-based; returning `None`
/// means this attempt failed (timeout, transfer error, 404).
pub trait FeedSource {
    /// One fetch attempt for `kind`'s delivery for `round`.
    fn fetch(&mut self, kind: FeedKind, round: Round, attempt: u32) -> Option<String>;
}

impl<F> FeedSource for F
where
    F: FnMut(FeedKind, Round, u32) -> Option<String>,
{
    fn fetch(&mut self, kind: FeedKind, round: Round, attempt: u32) -> Option<String> {
        self(kind, round, attempt)
    }
}

/// Outcome of one feed load for one round.
///
/// `retries` counts the fetch attempts after the first (the budget spent
/// on this round's delivery).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedOutcome {
    /// A delivery arrived and passed the tolerance judgement.
    Accepted {
        /// Extra fetch attempts before the delivery arrived.
        retries: u32,
        /// What was quarantined (possibly empty).
        quarantine: FeedQuarantine,
    },
    /// A delivery arrived but exceeded the tolerance; carry forward.
    Rejected {
        /// Extra fetch attempts before the delivery arrived.
        retries: u32,
        /// What was quarantined.
        quarantine: FeedQuarantine,
    },
    /// No delivery at all after the retry budget; carry forward.
    Absent {
        /// Extra fetch attempts spent before giving up.
        retries: u32,
    },
}

/// The last delivery of one feed the loader judged, with its verdict.
#[derive(Debug)]
struct Judged {
    text: String,
    quarantine: FeedQuarantine,
    accepted: bool,
}

/// Drives a [`FeedSource`] with retries and tolerance judgement for all
/// three feeds, judging a repeated delivery once.
#[derive(Debug)]
pub struct FeedLoader {
    policy: RetryPolicy,
    tolerance: LossyTolerance,
    /// Per feed ([`FeedKind::index`]), the last delivery judged.
    memo: [Option<Judged>; 3],
}

impl FeedLoader {
    /// Builds a loader with the given policies and nothing judged yet.
    pub fn new(policy: RetryPolicy, tolerance: LossyTolerance) -> Self {
        FeedLoader {
            policy,
            tolerance,
            memo: [None, None, None],
        }
    }

    /// Fetches `kind`'s delivery for `round` from `source` with retries
    /// and judges it.
    ///
    /// The verdict equals a fresh `ingest_*` judgement of the delivered
    /// bytes at the loader's tolerance. A failed attempt leaves the memo
    /// alone; any judged delivery, accepted or rejected, replaces it.
    pub fn load(
        &mut self,
        source: &mut impl FeedSource,
        kind: FeedKind,
        round: Round,
    ) -> FeedOutcome {
        let attempts = self.policy.attempts_allowed();
        for attempt in 0..attempts {
            let Some(text) = source.fetch(kind, round, attempt) else {
                continue;
            };
            let (quarantine, accepted) = self.judge(kind, text);
            // A delivery over tolerance is not retried: the mirror would
            // serve the same bytes again. Reject and carry forward.
            return if accepted {
                FeedOutcome::Accepted {
                    retries: attempt,
                    quarantine,
                }
            } else {
                FeedOutcome::Rejected {
                    retries: attempt,
                    quarantine,
                }
            };
        }
        FeedOutcome::Absent {
            retries: attempts - 1,
        }
    }

    /// The verdict on one delivery: the remembered one when the bytes
    /// repeat the feed's last judged delivery, else a fresh ingest.
    fn judge(&mut self, kind: FeedKind, text: String) -> (FeedQuarantine, bool) {
        let memo = &mut self.memo[kind.index()];
        if let Some(last) = memo.as_ref().filter(|last| last.text == text) {
            return (last.quarantine.clone(), last.accepted);
        }
        let tolerance = &self.tolerance;
        let (quarantine, accepted) = match kind {
            FeedKind::Bgp => verdict(ingest_bgp(&text, tolerance)),
            FeedKind::Geo => verdict(ingest_geo(&text, tolerance)),
            FeedKind::Delegations => verdict(ingest_delegations(&text, tolerance)),
        };
        *memo = Some(Judged {
            text,
            quarantine: quarantine.clone(),
            accepted,
        });
        (quarantine, accepted)
    }
}

/// An ingest result's verdict, its parsed value dropped.
fn verdict<T>(result: IngestResult<T>) -> (FeedQuarantine, bool) {
    (result.quarantine, result.accepted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_is_deterministic() {
        assert_eq!(RetryPolicy::default().attempts_allowed(), 3);
        // Budget cuts the ladder short: 1 + 2 fits, + 4 does not.
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_budget: 3,
            base_cost: 1,
        };
        assert_eq!(p.attempts_allowed(), 2);
        // Always at least one attempt, even with a zero budget.
        let p = RetryPolicy {
            max_attempts: 3,
            backoff_budget: 0,
            base_cost: 1,
        };
        assert_eq!(p.attempts_allowed(), 1);
        // Huge shifts saturate instead of overflowing.
        let p = RetryPolicy {
            max_attempts: 200,
            backoff_budget: u64::MAX,
            base_cost: 1,
        };
        assert!(p.attempts_allowed() >= 63);
    }

    fn loader() -> FeedLoader {
        FeedLoader::new(RetryPolicy::default(), LossyTolerance::default())
    }

    #[test]
    fn loader_retries_then_accepts() {
        // Fails twice, succeeds on the third attempt.
        let mut source = |_k: FeedKind, _r: Round, attempt: u32| {
            (attempt == 2).then(|| "10.0.0.0/24|65000\n".to_string())
        };
        let out = loader().load(&mut source, FeedKind::Bgp, Round(0));
        assert!(matches!(out, FeedOutcome::Accepted { retries: 2, .. }));
    }

    #[test]
    fn loader_gives_up_within_budget() {
        let mut source = |_k: FeedKind, _r: Round, _a: u32| None;
        let out = loader().load(&mut source, FeedKind::Bgp, Round(0));
        assert_eq!(out, FeedOutcome::Absent { retries: 2 });
    }

    #[test]
    fn over_tolerance_delivery_is_rejected_not_retried() {
        let mut calls = 0u32;
        let mut source = |_k: FeedKind, _r: Round, _a: u32| {
            calls += 1;
            Some("garbage\nmore garbage\n".to_string())
        };
        let out = loader().load(&mut source, FeedKind::Bgp, Round(7));
        assert!(matches!(out, FeedOutcome::Rejected { retries: 0, .. }));
        assert_eq!(
            calls, 1,
            "rejection must not burn retries on the same bytes"
        );
    }
}
