//! Shard-level fault injection for the supervised parallel executor.
//!
//! [`faults`](crate::faults) injects hostility into the *measured network*;
//! this module injects hostility into the *measurement machinery itself*.
//! The shard supervisor in `fbs-core` splits each round's per-block work
//! into deterministic shards and must survive a worker that crashes, wedges
//! past its deadline, or merely runs slow. Those failure modes cannot be
//! provoked on demand from real hardware, so the chaos matrix scripts them:
//!
//! * [`ShardFaultKind::Panic`] — the shard task panics outright and the
//!   supervisor must contain it with `catch_unwind`;
//! * [`ShardFaultKind::Stall`] — the shard's virtual execution cost is
//!   inflated past its deadline budget, tripping the watchdog;
//! * [`ShardFaultKind::Jitter`] — the shard runs slow but finishes inside
//!   its budget: no supervision action, just schedule skew, which the
//!   deterministic merge must absorb without changing a single byte.
//!
//! Determinism follows the same contract as every other noise source: each
//! trigger decision is a pure hash of `(round, shard, attempt)` under the
//! dedicated `"shards"` world-RNG domain (see [`shards_domain`]), so a
//! retried shard re-draws its fault exactly and a killed-and-resumed
//! campaign replays the same panics in the same places.

use crate::rng::WorldRng;
use fbs_types::Round;
use serde::{Deserialize, Serialize};

/// Salts decorrelating the shard-fault decision streams.
mod salt {
    pub const TRIGGER: u64 = 0x5A4D01;
}

/// What an injected shard fault does to the shard's attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardFaultKind {
    /// The shard task panics mid-flight; the supervisor must isolate the
    /// unwind and schedule a retry.
    Panic,
    /// The shard wedges: its virtual execution cost is inflated by
    /// `extra_ns`, pushing it past the per-shard deadline so the watchdog
    /// declares a timeout.
    Stall {
        /// Virtual nanoseconds added to the shard's execution cost.
        extra_ns: u64,
    },
    /// The shard runs slow but completes: `extra_ns` is added to its
    /// virtual cost without (by construction of the test plan) crossing
    /// the deadline. Exercises merge determinism under schedule skew.
    Jitter {
        /// Virtual nanoseconds added to the shard's execution cost.
        extra_ns: u64,
    },
}

/// One scripted shard-fault window: a fault striking specific shards over
/// a round range, for a bounded number of attempts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardFaultWindow {
    /// Human-readable label ("round-90-panic").
    pub name: String,
    /// First round the window covers (inclusive).
    pub start_round: u32,
    /// First round past the window (exclusive).
    pub end_round: u32,
    /// Shard slots the fault strikes; empty = every shard.
    #[serde(default)]
    pub shards: Vec<u32>,
    /// How many attempts the fault strikes before letting the shard run:
    /// `1` fails only the first try (a retry then succeeds), a value
    /// larger than the supervisor's retry budget exhausts it and loses
    /// the shard.
    #[serde(default = "one_attempt")]
    pub attempts: u32,
    /// Probability the fault strikes a covered `(round, shard, attempt)`
    /// coordinate, drawn from the `"shards"` RNG domain.
    #[serde(default = "always")]
    pub probability: f64,
    /// The fault injected while the window is striking.
    pub kind: ShardFaultKind,
}

fn one_attempt() -> u32 {
    1
}

fn always() -> f64 {
    1.0
}

impl ShardFaultWindow {
    /// Builds a deterministic always-striking window over a round range
    /// and shard set (test/scenario convenience).
    pub fn scripted(
        name: impl Into<String>,
        rounds: std::ops::Range<u32>,
        shards: Vec<u32>,
        attempts: u32,
        kind: ShardFaultKind,
    ) -> Self {
        ShardFaultWindow {
            name: name.into(),
            start_round: rounds.start,
            end_round: rounds.end,
            shards,
            attempts,
            probability: 1.0,
            kind,
        }
    }

    /// The rounds the window covers (half-open).
    pub fn rounds(&self) -> std::ops::Range<u32> {
        self.start_round..self.end_round
    }

    /// Whether the window covers `(round, shard, attempt)` before the
    /// probabilistic draw.
    fn covers(&self, round: Round, shard: u32, attempt: u32) -> bool {
        self.rounds().contains(&round.0)
            && attempt < self.attempts
            && (self.shards.is_empty() || self.shards.contains(&shard))
    }
}

/// A serde-loadable schedule of shard faults over the campaign.
///
/// The first window covering a `(round, shard, attempt)` coordinate wins,
/// so a plan can layer a broad low-probability jitter window under a
/// pinpoint scripted panic without the two compounding.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct ShardFaultPlan {
    /// Scheduled fault windows, earliest-listed wins on overlap.
    pub windows: Vec<ShardFaultWindow>,
}

impl ShardFaultPlan {
    /// A plan injecting nothing anywhere.
    pub fn none() -> Self {
        ShardFaultPlan::default()
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_null(&self) -> bool {
        self.windows.is_empty()
    }

    /// Validates every window: probabilities in `0..=1`, at least one
    /// striking attempt, a non-empty round range.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for w in &self.windows {
            if !(0.0..=1.0).contains(&w.probability) || !w.probability.is_finite() {
                return Err(fbs_types::FbsError::config(format!(
                    "shard fault window {:?}: probability {} outside 0..=1",
                    w.name, w.probability
                )));
            }
            if w.attempts == 0 {
                return Err(fbs_types::FbsError::config(format!(
                    "shard fault window {:?}: attempts=0 never strikes",
                    w.name
                )));
            }
            if w.rounds().is_empty() {
                return Err(fbs_types::FbsError::config(format!(
                    "shard fault window {:?}: empty round range {}..{}",
                    w.name, w.start_round, w.end_round
                )));
            }
        }
        Ok(())
    }

    /// The fault striking `(round, shard, attempt)`, if any.
    ///
    /// `rng` must be the `"shards"` domain (see [`shards_domain`]): the
    /// draw is a pure hash of the coordinate, so a retried shard and a
    /// resumed campaign re-derive the identical verdict.
    pub fn fault_at(
        &self,
        rng: &WorldRng,
        round: Round,
        shard: u32,
        attempt: u32,
    ) -> Option<ShardFaultKind> {
        for w in &self.windows {
            if !w.covers(round, shard, attempt) {
                continue;
            }
            if w.probability >= 1.0
                || rng.chance3(
                    w.probability,
                    round.0 as u64,
                    shard as u64,
                    salt::TRIGGER.wrapping_add(attempt as u64),
                )
            {
                return Some(w.kind);
            }
        }
        None
    }
}

/// Derives the shard-fault RNG domain from a world RNG. This is the *only*
/// place the `"shards"` domain string is drawn: the supervisor in
/// `fbs-core` and any test double route through it, so injected shard
/// faults stay decorrelated from wire faults, vantage faults and world
/// truth by construction.
pub fn shards_domain(world_rng: WorldRng) -> WorldRng {
    world_rng.domain("shards")
}

/// The panic a scripted [`ShardFaultKind::Panic`] raises inside the shard
/// task. Lives here (not in `fbs-core`) because the pipeline crates forbid
/// panics in library code; the netsim fault layer is the one place allowed
/// to blow up on purpose, and the supervisor must catch it.
///
/// It unwinds with [`std::panic::resume_unwind`], which skips the panic
/// hook: a scripted fault prints no `panicked at` message or backtrace,
/// while the supervisor's `catch_unwind` still catches it.
pub fn injected_panic(window: &str, round: Round, shard: u32, attempt: u32) -> ! {
    std::panic::resume_unwind(Box::new(format!(
        "injected shard fault {window:?}: panic in shard {shard} attempt {attempt} of round {}",
        round.0
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::fault_domain;

    fn panic_plan() -> ShardFaultPlan {
        ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "w",
                10..20,
                vec![2],
                1,
                ShardFaultKind::Panic,
            )],
        }
    }

    #[test]
    fn scripted_window_strikes_exact_coordinates_only() {
        let rng = shards_domain(WorldRng::new(42));
        let plan = panic_plan();
        assert_eq!(
            plan.fault_at(&rng, Round(10), 2, 0),
            Some(ShardFaultKind::Panic)
        );
        assert_eq!(
            plan.fault_at(&rng, Round(19), 2, 0),
            Some(ShardFaultKind::Panic)
        );
        // Outside the round range, the wrong shard, or a later attempt:
        // nothing strikes.
        assert_eq!(plan.fault_at(&rng, Round(9), 2, 0), None);
        assert_eq!(plan.fault_at(&rng, Round(20), 2, 0), None);
        assert_eq!(plan.fault_at(&rng, Round(10), 1, 0), None);
        assert_eq!(plan.fault_at(&rng, Round(10), 2, 1), None, "retry is clean");
    }

    #[test]
    fn empty_shard_list_strikes_every_shard() {
        let rng = shards_domain(WorldRng::new(42));
        let plan = ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "all",
                5..6,
                Vec::new(),
                3,
                ShardFaultKind::Stall { extra_ns: 1 },
            )],
        };
        for shard in 0..8 {
            for attempt in 0..3 {
                assert!(plan.fault_at(&rng, Round(5), shard, attempt).is_some());
            }
            assert!(plan.fault_at(&rng, Round(5), shard, 3).is_none());
        }
    }

    #[test]
    fn first_matching_window_wins_on_overlap() {
        let rng = shards_domain(WorldRng::new(42));
        let plan = ShardFaultPlan {
            windows: vec![
                ShardFaultWindow::scripted("pin", 10..11, vec![0], 1, ShardFaultKind::Panic),
                ShardFaultWindow::scripted(
                    "broad",
                    0..100,
                    Vec::new(),
                    1,
                    ShardFaultKind::Jitter { extra_ns: 7 },
                ),
            ],
        };
        assert_eq!(
            plan.fault_at(&rng, Round(10), 0, 0),
            Some(ShardFaultKind::Panic),
            "the pinpoint window shadows the broad one"
        );
        assert_eq!(
            plan.fault_at(&rng, Round(10), 1, 0),
            Some(ShardFaultKind::Jitter { extra_ns: 7 })
        );
    }

    #[test]
    fn probabilistic_draws_are_deterministic_and_seed_sensitive() {
        let plan = ShardFaultPlan {
            windows: vec![ShardFaultWindow {
                name: "coin".into(),
                start_round: 0,
                end_round: 1000,
                shards: Vec::new(),
                attempts: 1,
                probability: 0.5,
                kind: ShardFaultKind::Panic,
            }],
        };
        let a = shards_domain(WorldRng::new(42));
        let b = shards_domain(WorldRng::new(42));
        let c = shards_domain(WorldRng::new(43));
        let draws = |rng: &WorldRng| -> Vec<bool> {
            (0..1000)
                .map(|r| plan.fault_at(rng, Round(r), 0, 0).is_some())
                .collect()
        };
        assert_eq!(draws(&a), draws(&b), "same seed must replay identically");
        assert_ne!(draws(&a), draws(&c), "different seed must differ");
        let hits = draws(&a).iter().filter(|h| **h).count();
        assert!((300..700).contains(&hits), "p=0.5 badly skewed: {hits}");
    }

    #[test]
    fn shards_domain_is_disjoint_from_the_wire_fault_domain() {
        let world = WorldRng::new(42);
        let shards = shards_domain(world);
        let wire = fault_domain(world);
        let stream = |rng: &WorldRng| -> Vec<u64> { (0..64).map(|i| rng.hash3(i, 1, 2)).collect() };
        assert_ne!(
            stream(&shards),
            stream(&wire),
            "shard faults must not correlate with wire faults"
        );
    }

    #[test]
    fn validate_rejects_bad_windows() {
        let mut plan = panic_plan();
        assert!(plan.validate().is_ok());
        plan.windows[0].probability = 1.5;
        assert!(plan.validate().is_err());
        plan.windows[0].probability = 1.0;
        plan.windows[0].attempts = 0;
        assert!(plan.validate().is_err());
        plan.windows[0].attempts = 1;
        plan.windows[0].start_round = 10;
        plan.windows[0].end_round = 10;
        assert!(plan.validate().is_err());
        assert!(ShardFaultPlan::none().validate().is_ok());
        assert!(ShardFaultPlan::none().is_null());
    }
}
