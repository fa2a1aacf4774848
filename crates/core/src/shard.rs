//! Supervised sharded execution of per-round block work.
//!
//! The measurement half of a round — the scan sweep, the per-vantage
//! fan-out, the darknet volume sum — is embarrassingly parallel: every
//! per-block value is a pure function of `(seed, round, block)`. This
//! module splits that work into deterministic AS-aligned shards of
//! contiguous block indices and runs them on the calling thread plus up to
//! `threads − 1` scoped helpers, with each shard *supervised*:
//!
//! * **panic isolation** — the shard task runs under `catch_unwind`; a
//!   panicking shard costs a retry, never the campaign;
//! * **deadline watchdog** — an attempt struck by a scripted
//!   [`ShardFaultKind::Stall`] is one that misses its deadline: the
//!   watchdog abandons it as a timeout without running the task, exactly
//!   as it would abandon a wedged worker. The verdict comes from the
//!   fault plan, never from a clock, so machine load cannot time a shard
//!   out;
//! * **bounded deterministic retry** — a failed attempt is re-run up to
//!   [`SHARD_RETRIES`] times. Every per-block draw is coordinate-addressed,
//!   so a retried shard is bit-identical to a first-try shard;
//! * **graceful loss** — a shard that exhausts its budget is `Lost`: its
//!   blocks are marked missing and the round is downgraded by the caller,
//!   mirroring the fault machinery's degraded-round handling.
//!
//! The claim loop: each dispatch spawns `threads − 1` scoped helpers, and
//! the calling thread works beside them instead of waiting. It first runs
//! a step of its own that the dispatch overlaps with the shards — the
//! campaign runner finishes the previous round there (its accumulation,
//! journal append and snapshot hand-off) while the helpers measure the
//! next round's shards — and then claims shards too. Every worker claims
//! slots from one shared counter and keeps its outputs; the helpers hand
//! theirs back through their join handles, and a helper's genuine panic
//! resurfaces on the caller when it joins, after the caller's own step
//! has finished: an unsupervised panic in round r + 1's shards surfaces
//! from the runner's step of round r, once round r is journaled.
//!
//! Determinism under parallelism: shards are keyed by block coordinates
//! (never by scheduling), and results are re-sorted into slot order by
//! [`roster_order`] before any merge. The output bytes are therefore
//! identical at any thread count, which `tests/byte_identity.rs` pins at
//! `threads = 1, 2, 8` on a multi-shard world, kill and resume included.

use crate::checkpoint::{ShardObs, ShardOutcomeObs};
use fbs_netsim::shardfaults::{injected_panic, shards_domain, ShardFaultKind, ShardFaultPlan};
use fbs_netsim::WorldRng;
use fbs_types::{Asn, Round};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Retries per shard per round in supervised mode: a panicked or
/// timed-out shard is re-run at most this many times before it is
/// declared lost and its blocks degrade the round.
pub const SHARD_RETRIES: u32 = 2;

/// Target shard size in blocks. Shards are cut at AS boundaries near this
/// size (hard-capped at twice it), so one shard never splits a small AS
/// and the partition depends only on the block→AS map — never on the
/// thread count.
pub(crate) const SHARD_TARGET_BLOCKS: usize = 64;

/// One supervised shard's result: its outcome for the ledger, its output
/// when it completed, and how long it held a worker.
pub(crate) struct SupervisedShard<T> {
    /// The shard's roster slot (index into the partition).
    pub slot: u32,
    /// The supervision verdict, as journaled.
    pub outcome: ShardOutcomeObs,
    /// The task output; `None` exactly when the shard was lost.
    pub output: Option<T>,
    /// Wall time the shard held a worker, nanoseconds. Diagnostic only:
    /// never persisted or compared, so it cannot leak into output bytes.
    pub wall_ns: u64,
}

/// The shard executor: a deterministic partition plus the supervision
/// parameters, built once per campaign.
pub(crate) struct ShardExec {
    ranges: Vec<Range<usize>>,
    threads: usize,
    plan: Option<ShardFaultPlan>,
    rng: WorldRng,
}

impl ShardExec {
    /// Builds the executor for a campaign: the AS-aligned partition of
    /// `block_as`, the resolved worker count, and the shard-fault plan.
    /// `world_rng` is the *world* RNG; the `"shards"` fault domain is
    /// derived internally so injected shard faults never correlate with
    /// world truth or wire faults.
    pub fn build(
        block_as: &[Asn],
        threads: usize,
        plan: Option<ShardFaultPlan>,
        world_rng: WorldRng,
    ) -> Self {
        ShardExec {
            ranges: partition(block_as),
            threads: threads.max(1),
            plan,
            rng: shards_domain(world_rng),
        }
    }

    /// Number of shards in the partition.
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The block-index ranges, in slot order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Whether supervision outcomes are journaled (a shard plan is set).
    pub fn supervised(&self) -> bool {
        self.plan.is_some()
    }

    /// Runs `task` once per shard on the claim loop while the calling
    /// thread first runs `first`, then claims shards too. Returns
    /// `first`'s value and the supervised results in *arrival order* —
    /// the caller must pass them through [`roster_order`] before folding.
    ///
    /// `first` is the caller's own work, overlapped with the shards; it
    /// stays on the calling thread, so it may hold `&mut` state that no
    /// claimant could be handed without a lock. The task receives the
    /// shard's slot and block range and must be a pure function of them
    /// (all RNG draws coordinate-addressed), which is what makes a retry
    /// bit-identical to a first try. Up to `threads − 1` helpers claim, one
    /// per shard at most, so even a one-shard partition gets a helper while
    /// the caller is busy with `first`; `threads = 1` runs `first` and then
    /// every shard inline, in slot order.
    pub fn shard_execute<P, T, F>(
        &self,
        round: Round,
        first: impl FnOnce() -> P,
        task: &F,
    ) -> (P, Vec<SupervisedShard<T>>)
    where
        T: Send,
        F: Fn(u32, Range<usize>) -> T + Sync,
    {
        let n = self.ranges.len();
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut out = Vec::new();
            loop {
                let slot = next.fetch_add(1, Ordering::SeqCst);
                if slot >= n {
                    return out;
                }
                out.push(self.supervise(round, slot, task));
            }
        };
        let helpers = (self.threads - 1).min(n);
        if helpers == 0 {
            let p = first();
            return (p, claim());
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..helpers).map(|_| s.spawn(claim)).collect();
            let p = first();
            let mut out = claim();
            for handle in handles {
                match handle.join() {
                    Ok(part) => out.extend(part),
                    Err(payload) => resume_unwind(payload),
                }
            }
            (p, out)
        })
    }

    /// Supervises one shard: bounded retry around the deadline watchdog
    /// and `catch_unwind` panic isolation.
    fn supervise<T, F>(&self, round: Round, slot: usize, task: &F) -> SupervisedShard<T>
    where
        F: Fn(u32, Range<usize>) -> T,
    {
        let range = self.ranges[slot].clone();
        let slot32 = slot as u32;
        let mut panics = 0u32;
        let mut timeouts = 0u32;
        // fbs-lint: allow(wall-clock) per-shard wall time is a report diagnostic, never persisted or compared
        let started = std::time::Instant::now();
        for attempt in 0..=SHARD_RETRIES {
            let fault = self
                .plan
                .as_ref()
                .and_then(|p| p.fault_at(&self.rng, round, slot32, attempt));
            if fault == Some(ShardFaultKind::Stall) {
                // The watchdog's verdict: this attempt misses its deadline,
                // so it is abandoned without letting it wedge a worker.
                timeouts += 1;
                continue;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                if matches!(fault, Some(ShardFaultKind::Panic)) {
                    injected_panic("shard-plan", round, slot32, attempt);
                }
                task(slot32, range.clone())
            }));
            match result {
                Ok(output) => {
                    return SupervisedShard {
                        slot: slot32,
                        outcome: ShardOutcomeObs::Completed {
                            attempt,
                            panics,
                            timeouts,
                        },
                        output: Some(output),
                        wall_ns: started.elapsed().as_nanos() as u64,
                    };
                }
                Err(payload) => {
                    if self.plan.is_none() {
                        // Unsupervised mode: a genuine panic propagates
                        // exactly as the serial pipeline would have.
                        resume_unwind(payload);
                    }
                    panics += 1;
                }
            }
        }
        SupervisedShard {
            slot: slot32,
            outcome: ShardOutcomeObs::Lost { panics, timeouts },
            output: None,
            wall_ns: started.elapsed().as_nanos() as u64,
        }
    }
}

/// Splits the block index space into contiguous shards cut at AS
/// boundaries near [`SHARD_TARGET_BLOCKS`] (hard-capped at twice it, so a
/// giant AS still parallelizes). Depends only on the block→AS map: the
/// same world partitions identically at any thread count.
pub(crate) fn partition(block_as: &[Asn]) -> Vec<Range<usize>> {
    let n = block_as.len();
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for bi in 1..=n {
        let len = bi - start;
        let as_boundary = bi == n || block_as[bi] != block_as[bi - 1];
        if bi == n || (len >= SHARD_TARGET_BLOCKS && as_boundary) || len >= 2 * SHARD_TARGET_BLOCKS
        {
            ranges.push(start..bi);
            start = bi;
        }
    }
    ranges
}

/// Restores roster (slot) order over arrival-ordered supervised results:
/// the deterministic ordering step between the parallel executor and any
/// merge, required by the `shard-merge-order` lint rule.
pub(crate) fn roster_order<T>(shards: Vec<SupervisedShard<T>>) -> Vec<SupervisedShard<T>> {
    fbs_signals::roster_ordered(shards, |s| s.slot)
}

/// Folds slot-ordered supervised results into the journaled [`ShardObs`].
pub(crate) fn reduce_outcomes<T>(ordered: &[SupervisedShard<T>]) -> ShardObs {
    ShardObs {
        outcomes: ordered.iter().map(|s| s.outcome).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_netsim::shardfaults::ShardFaultWindow;
    use std::sync::{mpsc, Mutex};
    use std::thread;
    use std::time::Duration;

    fn as_map(sizes: &[(u32, usize)]) -> Vec<Asn> {
        sizes
            .iter()
            .flat_map(|&(asn, n)| std::iter::repeat_n(Asn(asn), n))
            .collect()
    }

    fn exec(block_as: &[Asn], threads: usize, plan: Option<ShardFaultPlan>) -> ShardExec {
        ShardExec::build(block_as, threads, plan, WorldRng::new(42))
    }

    /// One dispatch with no first step of the caller's, in slot order.
    fn execute<T, F>(ex: &ShardExec, round: Round, task: &F) -> Vec<SupervisedShard<T>>
    where
        T: Send,
        F: Fn(u32, Range<usize>) -> T + Sync,
    {
        roster_order(ex.shard_execute(round, || (), task).1)
    }

    #[test]
    fn partition_is_as_aligned_and_thread_independent() {
        let blocks = as_map(&[(100, 10), (200, 70), (300, 5), (400, 200)]);
        let ranges = partition(&blocks);
        // Covers every block exactly once, in order.
        let mut covered = 0;
        for r in &ranges {
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, blocks.len());
        // No range ends mid-AS unless it already hit the hard cap.
        for r in &ranges {
            if r.end < blocks.len() && blocks[r.end - 1] == blocks[r.end] {
                assert!(r.len() >= 2 * SHARD_TARGET_BLOCKS, "mid-AS cut in {r:?}");
            }
            assert!(r.len() <= 2 * SHARD_TARGET_BLOCKS);
        }
        // The 200-block AS must split rather than form one giant shard.
        assert!(ranges.len() >= 3);
        assert!(partition(&[]).is_empty());
    }

    #[test]
    fn execute_is_identical_across_thread_counts() {
        let blocks = as_map(&[(1, 100), (2, 100), (3, 100)]);
        let task = |slot: u32, range: Range<usize>| -> Vec<u64> {
            range.map(|bi| (slot as u64) << 32 | bi as u64).collect()
        };
        let collect = |threads: usize| -> Vec<(u32, Vec<u64>)> {
            let ex = exec(&blocks, threads, None);
            execute(&ex, Round(7), &task)
                .into_iter()
                .map(|s| {
                    assert!(s.outcome.completed());
                    (s.slot, s.output.expect("completed shard has output"))
                })
                .collect()
        };
        let serial = collect(1);
        assert_eq!(collect(2), serial);
        assert_eq!(collect(8), serial);
        assert_eq!(serial.len(), exec(&blocks, 1, None).n_shards());
    }

    #[test]
    fn injected_panic_is_isolated_and_retried() {
        let blocks = as_map(&[(1, 128)]);
        let plan = ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "once",
                5..6,
                vec![0],
                1,
                ShardFaultKind::Panic,
            )],
        };
        let ex = exec(&blocks, 4, Some(plan));
        let task = |_slot: u32, range: Range<usize>| range.len();
        let shards = execute(&ex, Round(5), &task);
        assert_eq!(
            shards[0].outcome,
            ShardOutcomeObs::Completed {
                attempt: 1,
                panics: 1,
                timeouts: 0
            },
            "one scripted panic, then a clean retry"
        );
        // Other rounds are untouched.
        let clean = execute(&ex, Round(6), &task);
        for s in &clean {
            assert_eq!(
                s.outcome,
                ShardOutcomeObs::Completed {
                    attempt: 0,
                    panics: 0,
                    timeouts: 0
                }
            );
        }
    }

    #[test]
    fn stall_past_deadline_times_out_and_exhausts_to_lost() {
        let blocks = as_map(&[(1, 64), (2, 64)]);
        let plan = ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "wedge",
                9..10,
                vec![1],
                u32::MAX,
                ShardFaultKind::Stall,
            )],
        };
        let ex = exec(&blocks, 2, Some(plan));
        let task = |_slot: u32, range: Range<usize>| range.len();
        let shards = execute(&ex, Round(9), &task);
        assert!(shards[0].outcome.completed());
        assert_eq!(
            shards[1].outcome,
            ShardOutcomeObs::Lost {
                panics: 0,
                timeouts: 3
            },
            "2 retries + first try, all eaten by the stall"
        );
        assert!(shards[1].output.is_none());
        let obs = reduce_outcomes(&shards);
        assert_eq!(obs.outcomes.len(), 2);
        assert!(!obs.outcomes[1].completed());
    }

    #[test]
    fn a_panic_over_a_stall_costs_one_attempt_of_each() {
        // The first covering window wins: attempt 0 panics, attempt 1
        // stalls, attempt 2 runs clean.
        let plan = ShardFaultPlan {
            windows: vec![
                ShardFaultWindow::scripted("panic", 4..5, vec![0], 1, ShardFaultKind::Panic),
                ShardFaultWindow::scripted("stall", 4..5, vec![0], 2, ShardFaultKind::Stall),
            ],
        };
        let ex = exec(&as_map(&[(1, 64)]), 1, Some(plan));
        let shards = execute(&ex, Round(4), &|_slot: u32, range: Range<usize>| {
            range.len()
        });
        assert_eq!(
            shards[0].outcome,
            ShardOutcomeObs::Completed {
                attempt: 2,
                panics: 1,
                timeouts: 1
            }
        );
        assert_eq!(shards[0].output, Some(64));
    }

    #[test]
    fn unsupervised_genuine_panic_propagates() {
        let blocks = as_map(&[(1, 10)]);
        let ex = exec(&blocks, 1, None);
        let task = |_slot: u32, _range: Range<usize>| -> usize { panic!("genuine bug") };
        let caught = catch_unwind(AssertUnwindSafe(|| execute(&ex, Round(0), &task)));
        assert!(
            caught.is_err(),
            "without a shard plan, a real panic must surface like the serial pipeline"
        );
    }

    /// How long a test slot waits for its counterpart on another thread
    /// before giving up: a failed rendezvous fails the test, never hangs it.
    const RENDEZVOUS: Duration = Duration::from_secs(30);

    #[test]
    fn the_caller_works_one_slot_while_a_helper_works_another() {
        // Two slots, two workers. The slot on the calling thread waits for
        // the helper's slot to start, and the helper's slot waits until the
        // caller has seen it: both slots are in progress at once, one on
        // each thread, and neither can finish alone.
        let blocks = as_map(&[(1, 64), (2, 64)]);
        let caller = thread::current().id();
        let (started_tx, started_rx) = mpsc::channel::<u32>();
        let (seen_tx, seen_rx) = mpsc::channel::<()>();
        let (started_rx, seen_rx) = (Mutex::new(started_rx), Mutex::new(seen_rx));
        let task = |slot: u32, range: Range<usize>| -> (bool, Option<u32>, Range<usize>) {
            let on_caller = thread::current().id() == caller;
            let met = if on_caller {
                let helper_slot = started_rx.lock().unwrap().recv_timeout(RENDEZVOUS).ok();
                seen_tx.send(()).unwrap();
                helper_slot
            } else {
                started_tx.send(slot).unwrap();
                seen_rx
                    .lock()
                    .unwrap()
                    .recv_timeout(RENDEZVOUS)
                    .ok()
                    .map(|()| slot)
            };
            (on_caller, met, range)
        };
        let ex = exec(&blocks, 2, None);
        let shards = execute(&ex, Round(4), &task);
        // Every slot delivered once, in roster order, with its own range.
        let slots: Vec<u32> = shards.iter().map(|s| s.slot).collect();
        assert_eq!(slots, [0, 1]);
        let outputs: Vec<_> = shards.into_iter().map(|s| s.output.unwrap()).collect();
        for (output, range) in outputs.iter().zip(ex.ranges()) {
            assert_eq!(&output.2, range);
        }
        let on_caller: Vec<bool> = outputs.iter().map(|o| o.0).collect();
        assert!(
            on_caller.contains(&true) && on_caller.contains(&false),
            "one slot on the caller, one on a helper: {on_caller:?}"
        );
        let helper_slot = outputs.iter().position(|o| !o.0).unwrap() as u32;
        for output in &outputs {
            assert_eq!(output.1, Some(helper_slot), "the rendezvous completed");
        }
    }

    #[test]
    fn the_caller_runs_its_first_step_while_a_helper_claims_a_shard() {
        let caller = thread::current().id();
        // One shard and three: even a lone shard gets a helper while the
        // caller is busy with its first step.
        for sizes in [&[(1, 10)][..], &[(1, 64), (2, 64), (3, 64)]] {
            let ex = exec(&as_map(sizes), 2, None);
            let (tx, rx) = mpsc::channel::<thread::ThreadId>();
            let task = |_slot: u32, range: Range<usize>| -> (Range<usize>, thread::ThreadId) {
                tx.send(thread::current().id()).unwrap();
                (range, thread::current().id())
            };
            let first = || rx.recv_timeout(RENDEZVOUS).ok();
            let (met, shards) = ex.shard_execute(Round(4), first, &task);
            // The first step ran on the caller and saw a helper's shard start.
            assert!(met.is_some_and(|id| id != caller), "{met:?}");
            let shards = roster_order(shards);
            let slots: Vec<u32> = shards.iter().map(|s| s.slot).collect();
            assert_eq!(slots, (0..ex.n_shards() as u32).collect::<Vec<_>>());
            for (s, range) in shards.iter().zip(ex.ranges()) {
                assert_eq!(&s.output.as_ref().unwrap().0, range, "slot {}", s.slot);
            }
        }
        // One thread runs the first step, then every shard, inline.
        let inline = exec(&as_map(&[(1, 64), (2, 64), (3, 64)]), 1, None);
        let (tx, rx) = mpsc::channel::<u32>();
        let task = |slot: u32, _range: Range<usize>| {
            tx.send(slot).unwrap();
            thread::current().id()
        };
        let (before, shards) = inline.shard_execute(Round(4), || rx.try_recv().ok(), &task);
        assert_eq!(before, None, "no shard ran before the first step");
        assert_eq!(rx.try_iter().collect::<Vec<_>>(), [0, 1, 2]);
        assert!(shards.iter().all(|s| s.output == Some(caller)));
    }

    /// Runs `dispatch` with a task that panics on any helper thread and,
    /// on the calling thread, waits until a helper has claimed its slot —
    /// so the panic is certain to be raised on a helper. Returns the
    /// payload that came out of the dispatch.
    fn helper_panic_payload(dispatch: impl FnOnce(&(dyn Fn() + Sync))) -> String {
        let caller = thread::current().id();
        let (tx, rx) = mpsc::channel::<()>();
        let rx = Mutex::new(rx);
        let step = || {
            if thread::current().id() == caller {
                rx.lock()
                    .unwrap()
                    .recv_timeout(RENDEZVOUS)
                    .expect("a helper claimed a slot");
            } else {
                tx.send(()).unwrap();
                panic!("genuine bug on a helper");
            }
        };
        let caught = catch_unwind(AssertUnwindSafe(|| dispatch(&step)));
        let payload = caught.expect_err("the helper's panic must propagate");
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default()
    }

    #[test]
    fn a_helper_threads_genuine_panic_propagates_past_the_callers_first_step() {
        // The caller's own shard waits for the helper's.
        let ex = exec(&as_map(&[(1, 64), (2, 64)]), 2, None);
        let payload = helper_panic_payload(|step| {
            ex.shard_execute(Round(0), || (), &|_slot: u32, range: Range<usize>| {
                step();
                range.len()
            });
        });
        assert_eq!(payload, "genuine bug on a helper");
        // The caller's first step waits for the helper's lone shard, and
        // finishes before the panic comes out of the dispatch.
        let ex = exec(&as_map(&[(1, 10)]), 2, None);
        let mut finished = false;
        let payload = helper_panic_payload(|step| {
            let first = || {
                step();
                finished = true;
            };
            ex.shard_execute(Round(0), first, &|_slot: u32, _range: Range<usize>| step());
        });
        assert_eq!(payload, "genuine bug on a helper");
        assert!(finished, "the first step ran to its end");
    }

    #[test]
    fn supervised_retry_matches_first_try_byte_for_byte() {
        let blocks = as_map(&[(1, 64), (2, 64)]);
        let task = |slot: u32, range: Range<usize>| -> Vec<u64> {
            // Stand-in for coordinate-addressed measurement draws.
            let rng = WorldRng::new(99);
            range
                .map(|bi| rng.hash3(3, bi as u64, slot as u64))
                .collect()
        };
        let flaky = ShardFaultPlan {
            windows: vec![ShardFaultWindow::scripted(
                "flaky",
                3..4,
                vec![0],
                2,
                ShardFaultKind::Panic,
            )],
        };
        let clean: Vec<_> = execute(&exec(&blocks, 2, None), Round(3), &task)
            .into_iter()
            .map(|s| s.output)
            .collect();
        let retried = execute(&exec(&blocks, 2, Some(flaky)), Round(3), &task);
        assert_eq!(
            retried[0].outcome,
            ShardOutcomeObs::Completed {
                attempt: 2,
                panics: 2,
                timeouts: 0
            }
        );
        let outputs: Vec<_> = retried.into_iter().map(|s| s.output).collect();
        assert_eq!(outputs, clean, "a retried shard must be bit-identical");
    }
}
