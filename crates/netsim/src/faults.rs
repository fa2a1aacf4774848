//! Fault injection: a hostile transport decorator and per-window plans.
//!
//! The paper's campaign ran through wartime network conditions — probe and
//! reply loss on the paths out of the vantage point, duplicated and
//! reordered packets on congested links, latency spikes under rerouting,
//! bit corruption, unsolicited/spoofed ICMP traffic, and per-source ICMP
//! rate limiting at target networks. [`WorldTransport`](crate::transport)
//! models none of that: it is a lossless ideal wire. This module supplies
//! the missing hostility:
//!
//! * [`FaultIntensity`] — the per-fault probabilities and magnitudes;
//! * [`FaultWindow`] / [`FaultPlan`] — serde-loadable schedules, so a
//!   scenario can declare *degraded* vantage windows (e.g. "the first two
//!   weeks of March ran at 15% reply loss") rather than only offline ones;
//! * [`FaultyTransport`] — a decorator over any [`Transport`] applying the
//!   faults deterministically, seeded from the world RNG: identical seed,
//!   plan and probe sequence ⇒ bit-identical observations.
//!
//! Determinism comes from the coordinate-addressable [`WorldRng`]: every
//! decision hashes `(round, packet sequence number, fault kind)`, so the
//! decorator holds no mutable RNG state and replaying a round replays its
//! faults exactly.

use crate::rng::WorldRng;
use fbs_prober::packet::{self, IcmpKind};
use fbs_prober::{QualityConfig, Transport};
use fbs_types::{Round, RoundQuality, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BinaryHeap};

/// Salts decorrelating the per-fault decision streams.
mod salt {
    pub const PROBE_LOSS: u64 = 0xFA01;
    pub const REPLY_LOSS: u64 = 0xFA02;
    pub const DUPLICATE: u64 = 0xFA03;
    pub const REORDER: u64 = 0xFA04;
    pub const SPIKE: u64 = 0xFA05;
    pub const CORRUPT: u64 = 0xFA06;
    pub const UNSOLICITED: u64 = 0xFA07;
    pub const THIN: u64 = 0xFA08;
}

/// Per-fault probabilities and magnitudes active during one window.
///
/// All probabilities are per-packet and independent; magnitudes are virtual
/// nanoseconds. The default is the null intensity (no faults), under which
/// [`FaultyTransport`] takes a zero-overhead forwarding path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultIntensity {
    /// Probability an outgoing probe is dropped before the wire.
    pub probe_loss: f64,
    /// Probability an incoming reply is dropped.
    pub reply_loss: f64,
    /// Probability a reply is delivered twice (the copy trails slightly).
    pub duplicate: f64,
    /// Probability a reply is held back by a random extra delay of up to
    /// [`reorder_jitter_ns`](Self::reorder_jitter_ns), reordering it past
    /// its neighbours.
    pub reorder: f64,
    /// Maximum extra delay applied to reordered replies.
    pub reorder_jitter_ns: u64,
    /// Probability a reply suffers a full latency spike of
    /// [`latency_spike_ns`](Self::latency_spike_ns).
    pub latency_spike: f64,
    /// Extra delay of a latency spike.
    pub latency_spike_ns: u64,
    /// Probability a reply is corrupted in flight (bit flip, truncation or
    /// a zero-length mangle, chosen pseudorandomly).
    pub corrupt: f64,
    /// Probability a probe triggers an unsolicited or spoofed reply —
    /// either raw garbage or a well-formed echo reply that fails stateless
    /// validation.
    pub unsolicited: f64,
    /// Per-source (/24) reply budget per round, modelling ICMP rate
    /// limiting at the target network; `0` = unlimited.
    pub icmp_reply_budget: u32,
}

impl Default for FaultIntensity {
    fn default() -> Self {
        FaultIntensity {
            probe_loss: 0.0,
            reply_loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            reorder_jitter_ns: 0,
            latency_spike: 0.0,
            latency_spike_ns: 0,
            corrupt: 0.0,
            unsolicited: 0.0,
            icmp_reply_budget: 0,
        }
    }
}

impl FaultIntensity {
    /// Whether every fault is off (the decorator forwards untouched).
    pub fn is_null(&self) -> bool {
        self.probe_loss == 0.0
            && self.reply_loss == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.latency_spike == 0.0
            && self.corrupt == 0.0
            && self.unsolicited == 0.0
            && self.icmp_reply_budget == 0
    }

    /// Validates that every probability lies in `0..=1`.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for (name, p) in [
            ("probe_loss", self.probe_loss),
            ("reply_loss", self.reply_loss),
            ("duplicate", self.duplicate),
            ("reorder", self.reorder),
            ("latency_spike", self.latency_spike),
            ("corrupt", self.corrupt),
            ("unsolicited", self.unsolicited),
        ] {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(fbs_types::FbsError::config(format!(
                    "fault probability {name}={p} outside 0..=1"
                )));
            }
        }
        Ok(())
    }

    /// Elementwise worst-case combination of two intensities: probabilities
    /// and delays take the maximum; reply budgets take the tighter
    /// (smaller nonzero) limit.
    pub fn combine(&self, other: &FaultIntensity) -> FaultIntensity {
        FaultIntensity {
            probe_loss: self.probe_loss.max(other.probe_loss),
            reply_loss: self.reply_loss.max(other.reply_loss),
            duplicate: self.duplicate.max(other.duplicate),
            reorder: self.reorder.max(other.reorder),
            reorder_jitter_ns: self.reorder_jitter_ns.max(other.reorder_jitter_ns),
            latency_spike: self.latency_spike.max(other.latency_spike),
            latency_spike_ns: self.latency_spike_ns.max(other.latency_spike_ns),
            corrupt: self.corrupt.max(other.corrupt),
            unsolicited: self.unsolicited.max(other.unsolicited),
            icmp_reply_budget: match (self.icmp_reply_budget, other.icmp_reply_budget) {
                (0, b) => b,
                (a, 0) => a,
                (a, b) => a.min(b),
            },
        }
    }

    /// Probability a single probe→reply attempt survives end to end.
    pub fn attempt_success(&self) -> f64 {
        (1.0 - self.probe_loss) * (1.0 - self.reply_loss) * (1.0 - self.corrupt)
    }

    /// Probability a responsive host yields at least one valid reply when
    /// the scanner probes it `retries + 1` times.
    pub fn delivery_rate(&self, retries: u32) -> f64 {
        1.0 - (1.0 - self.attempt_success()).powi(retries as i32 + 1)
    }

    /// The complement of [`delivery_rate`](Self::delivery_rate): the share
    /// of genuinely responsive hosts this intensity silences.
    pub fn expected_loss(&self, retries: u32) -> f64 {
        1.0 - self.delivery_rate(retries)
    }

    /// Oracle-path analogue of the wire faults: deterministically thins a
    /// block's true responsive count by the delivery rate (binomial, keyed
    /// on `(round, block)`) and applies the ICMP reply budget.
    ///
    /// `rng` must be the caller's fault domain (see
    /// [`FaultyTransport::fault_domain`]) so the wire and oracle paths
    /// draw decorrelated but equally deterministic faults.
    pub fn thin_responsive(
        &self,
        responsive: u32,
        retries: u32,
        rng: &WorldRng,
        round: u64,
        block: u64,
    ) -> u32 {
        if self.is_null() {
            return responsive;
        }
        let mut n = rng.binomial3(
            responsive,
            self.delivery_rate(retries),
            round,
            block,
            salt::THIN,
        );
        if self.icmp_reply_budget > 0 {
            n = n.min(self.icmp_reply_budget);
        }
        n
    }

    /// Oracle-path latency distortion: the extra RTT a block's replies see
    /// this round (a latency spike, when one strikes).
    pub fn extra_rtt_ns(&self, rng: &WorldRng, round: u64, block: u64) -> u64 {
        if self.latency_spike > 0.0 && rng.chance3(self.latency_spike, round, block, salt::SPIKE) {
            self.latency_spike_ns
        } else {
            0
        }
    }
}

/// One scheduled fault window: an intensity active between two timestamps.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Human-readable label ("march-shelling-loss").
    pub name: String,
    /// Window start (inclusive).
    pub start: Timestamp,
    /// Window end (exclusive); `None` = until the campaign ends.
    pub end: Option<Timestamp>,
    /// The faults active during the window.
    pub intensity: FaultIntensity,
}

impl FaultWindow {
    /// Builds a window covering a round range (test/scenario convenience).
    pub fn over_rounds(
        name: impl Into<String>,
        rounds: std::ops::Range<u32>,
        intensity: FaultIntensity,
    ) -> Self {
        FaultWindow {
            name: name.into(),
            start: Round(rounds.start).start(),
            end: Some(Round(rounds.end).start()),
            intensity,
        }
    }

    /// The rounds the window covers, clamped to `[0, total)`.
    pub fn round_range(&self, total: u32) -> std::ops::Range<u32> {
        let s = Round::first_at_or_after(self.start).0.min(total);
        let e = match self.end {
            Some(end) => Round::first_at_or_after(end).0.min(total),
            None => total,
        };
        s..e.max(s)
    }

    /// Whether the window covers `round`.
    pub fn covers(&self, round: Round, total: u32) -> bool {
        self.round_range(total).contains(&round.0)
    }
}

/// A serde-loadable schedule of fault intensities over the campaign.
///
/// The `baseline` applies to every round; `windows` layer additional
/// hostility over specific periods. Overlapping windows combine via
/// [`FaultIntensity::combine`] (worst case wins).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FaultPlan {
    /// Always-on fault intensity.
    pub baseline: FaultIntensity,
    /// Scheduled windows of additional faults.
    pub windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// A plan with no faults at all.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan applying `intensity` to every round.
    pub fn constant(intensity: FaultIntensity) -> Self {
        FaultPlan {
            baseline: intensity,
            windows: Vec::new(),
        }
    }

    /// Whether the plan injects nothing anywhere.
    pub fn is_null(&self) -> bool {
        self.baseline.is_null() && self.windows.iter().all(|w| w.intensity.is_null())
    }

    /// Validates the baseline and every window.
    pub fn validate(&self) -> fbs_types::Result<()> {
        self.baseline.validate()?;
        for w in &self.windows {
            w.intensity.validate().map_err(|e| {
                fbs_types::FbsError::config(format!("fault window {:?}: {e}", w.name))
            })?;
        }
        Ok(())
    }

    /// The combined intensity active at `round` of a `total`-round campaign.
    pub fn intensity_at(&self, round: Round, total: u32) -> FaultIntensity {
        let mut acc = self.baseline;
        for w in &self.windows {
            if w.covers(round, total) {
                acc = acc.combine(&w.intensity);
            }
        }
        acc
    }

    /// Expected quality verdict for `round` given the scanner's retry
    /// budget — what a well-calibrated prober should conclude from its
    /// `ScanStats` under this plan.
    pub fn quality_at(
        &self,
        round: Round,
        total: u32,
        retries: u32,
        quality: &QualityConfig,
    ) -> RoundQuality {
        let i = self.intensity_at(round, total);
        if i.is_null() {
            return RoundQuality::Ok;
        }
        quality.from_loss(i.expected_loss(retries))
    }
}

/// Counters of what the decorator actually did to the traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Probes dropped before the wire.
    pub probes_dropped: u64,
    /// Replies dropped.
    pub replies_dropped: u64,
    /// Replies suppressed by the per-source ICMP budget.
    pub rate_limited: u64,
    /// Replies delivered twice.
    pub replies_duplicated: u64,
    /// Replies delayed (reordering or latency spike).
    pub replies_delayed: u64,
    /// Replies corrupted in flight.
    pub replies_corrupted: u64,
    /// Unsolicited/spoofed packets injected.
    pub unsolicited_injected: u64,
}

/// Reply scheduled for future delivery (min-heap by arrival time).
#[derive(Debug, PartialEq, Eq)]
struct Pending {
    arrival_ns: u64,
    bytes: Vec<u8>,
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.arrival_ns.cmp(&self.arrival_ns) // reversed: min-heap
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic fault-injecting decorator over any [`Transport`].
///
/// Wraps the inner transport for one scan round. Every decision is a pure
/// hash of `(round, packet sequence, fault salt)` under the fault-domain
/// RNG, so two decorators built from the same seed, plan and round apply
/// byte-identical faults to an identical probe stream.
pub struct FaultyTransport<T> {
    inner: T,
    rng: WorldRng,
    intensity: FaultIntensity,
    /// `intensity.is_null()`, frozen at construction: the per-packet fast
    /// path must be one predictable branch, not eight float compares.
    null: bool,
    round: u64,
    /// What the decorator did so far this round.
    pub stats: FaultStats,
    probe_seq: u64,
    reply_seq: u64,
    budgets: BTreeMap<[u8; 3], u32>,
    delayed: BinaryHeap<Pending>,
    scratch: Vec<(u64, Vec<u8>)>,
}

/// Derives the wire-fault RNG domain from a world RNG (or any seed
/// source). This is the *only* place the domain string is drawn: the wire
/// path ([`FaultyTransport`]) and the oracle-path mirror in the pipeline
/// both route through it, so their draws stay the same stream by
/// construction rather than by keeping two literals in sync.
pub fn fault_domain(world_rng: WorldRng) -> WorldRng {
    world_rng.domain("faults")
}

impl<T: Transport> FaultyTransport<T> {
    /// Derives the fault RNG domain from a world RNG (or any seed source).
    pub fn fault_domain(world_rng: WorldRng) -> WorldRng {
        fault_domain(world_rng)
    }

    /// Wraps `inner` for `round` with a fixed intensity.
    ///
    /// `world_rng` is the *world* RNG (e.g. [`crate::World::rng`]); the
    /// fault domain is derived internally so fault draws never correlate
    /// with world truth draws.
    pub fn new(inner: T, world_rng: WorldRng, round: Round, intensity: FaultIntensity) -> Self {
        FaultyTransport {
            inner,
            rng: Self::fault_domain(world_rng),
            null: intensity.is_null(),
            intensity,
            round: round.0 as u64,
            stats: FaultStats::default(),
            probe_seq: 0,
            reply_seq: 0,
            budgets: BTreeMap::new(),
            delayed: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Wraps `inner` for `round` with the intensity a plan schedules there.
    pub fn for_round(
        inner: T,
        world_rng: WorldRng,
        plan: &FaultPlan,
        round: Round,
        total_rounds: u32,
    ) -> Self {
        let intensity = plan.intensity_at(round, total_rounds);
        Self::new(inner, world_rng, round, intensity)
    }

    /// The active intensity.
    pub fn intensity(&self) -> &FaultIntensity {
        &self.intensity
    }

    /// Crafts a deterministic unsolicited packet for probe `seq`: odd
    /// hashes produce raw garbage, even ones a spoofed echo reply from the
    /// probed address that fails stateless validation.
    fn unsolicited_packet(&self, probe_bytes: &[u8], seq: u64) -> Vec<u8> {
        let h = self.rng.hash3(self.round, seq, salt::UNSOLICITED ^ 0xBEEF);
        if h & 1 == 1 || packet::parse(probe_bytes).is_err() {
            // Raw garbage: 8–59 bytes of hash output.
            let len = 8 + (h >> 8) as usize % 52;
            (0..len)
                .map(|i| (self.rng.hash3(self.round, seq, i as u64) & 0xff) as u8)
                .collect()
        } else {
            // A well-formed spoofed reply with a bogus ident/seq pair: it
            // parses cleanly but must fail the keyed validation.
            let probe = packet::parse(probe_bytes).expect("checked above");
            packet::encode(
                probe.dst,
                probe.src,
                55,
                IcmpKind::EchoReply,
                (h >> 16) as u16,
                (h >> 32) as u16,
                probe.timestamp_ns,
            )
        }
    }

    /// Applies reply-side faults to one packet; pushes delayed/duplicate
    /// copies onto the heap and returns the packet if it passes through
    /// undelayed.
    fn filter_reply(&mut self, arrival_ns: u64, mut bytes: Vec<u8>) -> Option<(u64, Vec<u8>)> {
        self.reply_seq += 1;
        let seq = self.reply_seq;
        let i = self.intensity;

        // Per-source (/24) ICMP rate limiting: the replying network stops
        // answering after its budget, before any path effects apply.
        if i.icmp_reply_budget > 0 && bytes.len() >= 16 {
            let key = [bytes[12], bytes[13], bytes[14]];
            let used = self.budgets.entry(key).or_insert(0);
            *used += 1;
            if *used > i.icmp_reply_budget {
                self.stats.rate_limited += 1;
                return None;
            }
        }
        if i.reply_loss > 0.0
            && self
                .rng
                .chance3(i.reply_loss, self.round, seq, salt::REPLY_LOSS)
        {
            self.stats.replies_dropped += 1;
            return None;
        }
        if i.corrupt > 0.0
            && !bytes.is_empty()
            && self.rng.chance3(i.corrupt, self.round, seq, salt::CORRUPT)
        {
            match self.rng.below3(3, self.round, seq, salt::CORRUPT ^ 0xC0) {
                0 => {
                    let pos =
                        self.rng
                            .below3(bytes.len() as u64, self.round, seq, salt::CORRUPT ^ 0xC1)
                            as usize;
                    bytes[pos] ^= 0xff;
                }
                1 => bytes.truncate(bytes.len() / 2),
                _ => bytes.clear(),
            }
            self.stats.replies_corrupted += 1;
        }
        if i.duplicate > 0.0
            && self
                .rng
                .chance3(i.duplicate, self.round, seq, salt::DUPLICATE)
        {
            self.delayed.push(Pending {
                arrival_ns: arrival_ns + 1, // the copy trails by 1 ns
                bytes: bytes.clone(),
            });
            self.stats.replies_duplicated += 1;
        }
        if i.latency_spike > 0.0
            && self
                .rng
                .chance3(i.latency_spike, self.round, seq, salt::SPIKE)
        {
            self.stats.replies_delayed += 1;
            self.delayed.push(Pending {
                arrival_ns: arrival_ns + i.latency_spike_ns,
                bytes,
            });
            return None;
        }
        if i.reorder > 0.0 && self.rng.chance3(i.reorder, self.round, seq, salt::REORDER) {
            let jitter = if i.reorder_jitter_ns > 0 {
                self.rng
                    .below3(i.reorder_jitter_ns, self.round, seq, salt::REORDER ^ 0xD0)
            } else {
                0
            };
            self.stats.replies_delayed += 1;
            self.delayed.push(Pending {
                arrival_ns: arrival_ns + 1 + jitter,
                bytes,
            });
            return None;
        }
        Some((arrival_ns, bytes))
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn send(&mut self, bytes: &[u8], now_ns: u64) {
        if self.null {
            return self.inner.send(bytes, now_ns); // zero-overhead fast path
        }
        self.probe_seq += 1;
        let seq = self.probe_seq;
        if self.intensity.unsolicited > 0.0
            && self.rng.chance3(
                self.intensity.unsolicited,
                self.round,
                seq,
                salt::UNSOLICITED,
            )
        {
            let junk = self.unsolicited_packet(bytes, seq);
            self.stats.unsolicited_injected += 1;
            self.delayed.push(Pending {
                arrival_ns: now_ns + 1_000_000, // arrives ~1 ms later
                bytes: junk,
            });
        }
        if self.intensity.probe_loss > 0.0
            && self
                .rng
                .chance3(self.intensity.probe_loss, self.round, seq, salt::PROBE_LOSS)
        {
            self.stats.probes_dropped += 1;
            return;
        }
        self.inner.send(bytes, now_ns);
    }

    fn recv(&mut self, now_ns: u64, out: &mut Vec<(u64, Vec<u8>)>) {
        if self.null && self.delayed.is_empty() {
            return self.inner.recv(now_ns, out); // zero-overhead fast path
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        self.inner.recv(now_ns, &mut scratch);
        for (arrival_ns, bytes) in scratch.drain(..) {
            if let Some(delivered) = self.filter_reply(arrival_ns, bytes) {
                out.push(delivered);
            }
        }
        self.scratch = scratch;
        while let Some(head) = self.delayed.peek() {
            if head.arrival_ns > now_ns {
                break;
            }
            let p = self.delayed.pop().expect("peeked element exists");
            out.push((p.arrival_ns, p.bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbs_prober::scan::loopback::LoopbackTransport;
    use fbs_prober::{ScanConfig, Scanner, TargetSet};
    use fbs_types::Prefix;
    use std::net::Ipv4Addr;

    fn targets() -> TargetSet {
        TargetSet::from_prefixes(&["10.1.0.0/23".parse::<Prefix>().unwrap()])
    }

    fn loopback(hosts: u8) -> LoopbackTransport {
        let mut lo = LoopbackTransport::new();
        for h in 1..=hosts {
            lo.add_host(Ipv4Addr::new(10, 1, 0, h), 25_000_000);
            lo.add_host(Ipv4Addr::new(10, 1, 1, h), 25_000_000);
        }
        lo
    }

    fn scanner(retries: u32) -> Scanner {
        Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            retries,
            ..ScanConfig::default()
        })
    }

    fn scan_with(
        intensity: FaultIntensity,
        retries: u32,
        seed: u64,
    ) -> (
        fbs_prober::RoundObservations,
        fbs_prober::ScanStats,
        FaultStats,
    ) {
        let mut t = FaultyTransport::new(loopback(40), WorldRng::new(seed), Round(3), intensity);
        let (obs, stats) = scanner(retries).scan_round(Round(3), &targets(), &mut t);
        (obs, stats, t.stats)
    }

    #[test]
    fn null_intensity_is_transparent() {
        let (clean_obs, clean_stats) = {
            let mut lo = loopback(40);
            scanner(0).scan_round(Round(3), &targets(), &mut lo)
        };
        let (obs, stats, fstats) = scan_with(FaultIntensity::default(), 0, 11);
        assert_eq!(obs, clean_obs, "null faults must not change observations");
        assert_eq!(stats, clean_stats);
        assert_eq!(fstats, FaultStats::default());
    }

    #[test]
    fn reply_loss_silences_some_responders_and_retries_recover() {
        let intensity = FaultIntensity {
            reply_loss: 0.4,
            ..FaultIntensity::default()
        };
        let (obs0, stats0, f0) = scan_with(intensity, 0, 11);
        assert!(f0.replies_dropped > 0);
        assert!(
            obs0.total_responsive() < 80,
            "40% loss must silence someone out of 80"
        );
        assert!(stats0.is_conserved(), "{stats0:?}");
        let (obs2, stats2, _) = scan_with(intensity, 2, 11);
        assert!(
            obs2.total_responsive() > obs0.total_responsive(),
            "retries must recover responders: {} vs {}",
            obs2.total_responsive(),
            obs0.total_responsive()
        );
        assert!(stats2.is_conserved(), "{stats2:?}");
    }

    #[test]
    fn corruption_and_unsolicited_are_rejected_not_recorded() {
        let intensity = FaultIntensity {
            corrupt: 0.5,
            unsolicited: 0.3,
            ..FaultIntensity::default()
        };
        let (obs, stats, fstats) = scan_with(intensity, 0, 7);
        assert!(fstats.replies_corrupted > 0);
        assert!(fstats.unsolicited_injected > 0);
        assert!(
            stats.parse_errors > 0,
            "corruption must surface as parse errors"
        );
        assert!(
            stats.invalid > 0,
            "spoofed replies must surface as validation failures"
        );
        assert!(stats.is_conserved(), "{stats:?}");
        // Whatever was observed is a subset of the truth: corrupted or
        // spoofed packets never mark an address responsive.
        let clean = {
            let mut lo = loopback(40);
            scanner(0).scan_round(Round(3), &targets(), &mut lo).0
        };
        for (noisy, truth) in obs.blocks.iter().zip(clean.blocks.iter()) {
            let inter = noisy.responders.intersection(&truth.responders);
            assert_eq!(inter, noisy.responders, "phantom responder appeared");
        }
    }

    #[test]
    fn duplication_and_reordering_leave_aggregates_clean() {
        let intensity = FaultIntensity {
            duplicate: 0.5,
            reorder: 0.5,
            reorder_jitter_ns: 2_000_000,
            ..FaultIntensity::default()
        };
        let (obs, stats, fstats) = scan_with(intensity, 0, 13);
        assert!(fstats.replies_duplicated > 0);
        assert!(fstats.replies_delayed > 0);
        assert!(stats.duplicates > 0, "duplicates must be counted");
        assert!(stats.is_conserved(), "{stats:?}");
        // Every responder still counted exactly once; RTT aggregates hold
        // one sample per unique responder.
        assert_eq!(obs.total_responsive(), 80);
        let samples: u64 = obs.blocks.iter().map(|b| b.rtt.count).sum();
        assert_eq!(samples, 80);
    }

    #[test]
    fn icmp_budget_caps_per_block_replies() {
        let intensity = FaultIntensity {
            icmp_reply_budget: 10,
            ..FaultIntensity::default()
        };
        let (obs, stats, fstats) = scan_with(intensity, 0, 17);
        assert!(fstats.rate_limited > 0);
        for b in &obs.blocks {
            assert!(
                b.responders.count() <= 10,
                "budget exceeded: {}",
                b.responders.count()
            );
        }
        assert!(stats.is_conserved(), "{stats:?}");
    }

    #[test]
    fn identical_seeds_give_bit_identical_observations() {
        let intensity = FaultIntensity {
            probe_loss: 0.1,
            reply_loss: 0.15,
            duplicate: 0.2,
            reorder: 0.2,
            reorder_jitter_ns: 3_000_000,
            latency_spike: 0.05,
            latency_spike_ns: 400_000_000,
            corrupt: 0.1,
            unsolicited: 0.1,
            icmp_reply_budget: 25,
        };
        let (obs_a, stats_a, fstats_a) = scan_with(intensity, 1, 99);
        let (obs_b, stats_b, fstats_b) = scan_with(intensity, 1, 99);
        assert_eq!(obs_a, obs_b, "same seed+plan must replay identically");
        assert_eq!(stats_a, stats_b);
        assert_eq!(fstats_a, fstats_b);
        // A different seed perturbs the observations.
        let (obs_c, _, _) = scan_with(intensity, 1, 100);
        assert_ne!(obs_a, obs_c, "different seed must draw different faults");
    }

    #[test]
    fn plan_windows_schedule_intensity() {
        let calm = FaultIntensity::default();
        let rough = FaultIntensity {
            reply_loss: 0.3,
            ..calm
        };
        let worse = FaultIntensity {
            reply_loss: 0.1,
            corrupt: 0.2,
            icmp_reply_budget: 50,
            ..calm
        };
        let plan = FaultPlan {
            baseline: calm,
            windows: vec![
                FaultWindow::over_rounds("rough", 10..20, rough),
                FaultWindow::over_rounds("worse", 15..30, worse),
            ],
        };
        assert!(plan.validate().is_ok());
        assert!(!plan.is_null());
        assert!(plan.intensity_at(Round(5), 100).is_null());
        assert_eq!(plan.intensity_at(Round(12), 100).reply_loss, 0.3);
        // Overlap takes the worst case of both windows.
        let both = plan.intensity_at(Round(17), 100);
        assert_eq!(both.reply_loss, 0.3);
        assert_eq!(both.corrupt, 0.2);
        assert_eq!(both.icmp_reply_budget, 50);
        assert_eq!(plan.intensity_at(Round(25), 100).reply_loss, 0.1);
        assert!(plan.intensity_at(Round(40), 100).is_null());
    }

    #[test]
    fn plan_quality_hints_track_loss() {
        let q = fbs_prober::QualityConfig::default();
        let plan = FaultPlan::constant(FaultIntensity {
            reply_loss: 0.2,
            ..FaultIntensity::default()
        });
        assert_eq!(
            plan.quality_at(Round(0), 100, 0, &q),
            RoundQuality::Degraded
        );
        // Two retries push the compound delivery rate back above the bar.
        assert_eq!(plan.quality_at(Round(0), 100, 2, &q), RoundQuality::Ok);
        let brutal = FaultPlan::constant(FaultIntensity {
            reply_loss: 0.9,
            ..FaultIntensity::default()
        });
        assert_eq!(
            brutal.quality_at(Round(0), 100, 0, &q),
            RoundQuality::Unusable
        );
        assert_eq!(
            FaultPlan::none().quality_at(Round(0), 100, 0, &q),
            RoundQuality::Ok
        );
    }

    #[test]
    fn combine_and_validate_edges() {
        let a = FaultIntensity {
            probe_loss: 0.1,
            icmp_reply_budget: 0,
            ..FaultIntensity::default()
        };
        let b = FaultIntensity {
            probe_loss: 0.05,
            icmp_reply_budget: 30,
            ..FaultIntensity::default()
        };
        let c = a.combine(&b);
        assert_eq!(c.probe_loss, 0.1);
        assert_eq!(c.icmp_reply_budget, 30, "zero budget means unlimited");
        let bad = FaultIntensity {
            reply_loss: 1.5,
            ..FaultIntensity::default()
        };
        assert!(bad.validate().is_err());
        assert!(FaultIntensity::default().validate().is_ok());
        assert!(FaultIntensity::default().is_null());
        // Compound loss math: one attempt at 20% loss, three attempts
        // shrink the miss probability cubically.
        let l = FaultIntensity {
            reply_loss: 0.2,
            ..FaultIntensity::default()
        };
        assert!((l.expected_loss(0) - 0.2).abs() < 1e-12);
        assert!((l.expected_loss(2) - 0.008).abs() < 1e-12);
    }
}
