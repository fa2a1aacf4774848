//! The scanner loop: permuted targets, paced sends, validated replies.
//!
//! [`Scanner::scan_round`] probes every address of a [`TargetSet`] once,
//! exactly as the paper's campaign does every two hours: targets in
//! pseudorandom order ([`CyclicPermutation`]), sends paced by a token bucket
//! (8,000 pps in the paper), replies validated statelessly and folded into
//! per-block bitmaps and RTT aggregates.
//!
//! Time is virtual (nanoseconds), driven by the rate limiter: the scanner
//! *advances* its clock to each send slot instead of sleeping, and
//! transports deliver replies stamped with their own virtual arrival times.
//! A full 10.5M-address round at 8,000 pps therefore simulates ≈ 22 minutes
//! of campaign time in however long the CPU needs, deterministically.

use crate::observe::{BlockObservation, RoundObservations};
use crate::packet::{self, ProbePacket};
use crate::permutation::CyclicPermutation;
use crate::rate::TokenBucket;
use crate::target::TargetSet;
use fbs_types::{BlockId, Round, RoundQuality};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// How the scanner reaches the network.
///
/// Implementations include the in-crate [`loopback::LoopbackTransport`]
/// (tests, examples) and `fbs-netsim`'s world transport (the campaign
/// simulator). All times are virtual nanoseconds on the scanner's clock.
pub trait Transport {
    /// Transmit one raw packet at virtual time `now_ns`.
    fn send(&mut self, bytes: &[u8], now_ns: u64);

    /// Append every packet that has *arrived* by `now_ns` to `out` as
    /// `(arrival_ns, bytes)` pairs, removing them from the transport.
    fn recv(&mut self, now_ns: u64, out: &mut Vec<(u64, Vec<u8>)>);
}

/// Scanner configuration.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Source address of probes (the vantage point).
    pub source: Ipv4Addr,
    /// Validation key; also seeds the per-round permutation.
    pub key: u64,
    /// Packets per second (paper: 8,000).
    pub rate_pps: u64,
    /// Token-bucket burst (packets).
    pub burst: u64,
    /// Initial TTL of probes.
    pub ttl: u8,
    /// How long to keep listening after the last probe (cooldown).
    pub timeout_ns: u64,
    /// Bounded re-probe passes for non-responders (ZMap's `--retries`).
    ///
    /// After the first full sweep the scanner waits one `timeout_ns` for
    /// stragglers, then re-probes only the addresses that have not answered,
    /// up to `retries` times. On a lossy path this recovers most of the
    /// responders a single probe would miss; on a clean path the extra
    /// passes cost nothing but the re-walk of the permutation.
    pub retries: u32,
}

impl Default for ScanConfig {
    /// The paper's configuration: 8,000 pps, 8-packet burst, 5 s cooldown.
    fn default() -> Self {
        ScanConfig {
            source: Ipv4Addr::new(192, 0, 2, 1),
            key: 0x6b68_6572_736f_6e21,
            rate_pps: 8_000,
            burst: 8,
            ttl: 64,
            timeout_ns: 5_000_000_000,
            retries: 0,
        }
    }
}

/// Bookkeeping counters for one scan round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Probes transmitted.
    pub sent: u64,
    /// Raw packets received (before any validation).
    pub received: u64,
    /// Replies that parsed and validated against the scan key.
    pub valid: u64,
    /// Packets that failed checksum/parse.
    pub parse_errors: u64,
    /// Parsed packets that failed validation (wrong hash, wrong type) or
    /// answered for addresses outside the target set.
    pub invalid: u64,
    /// Validated replies for an address already marked responsive.
    pub duplicates: u64,
    /// Virtual duration of the round, send start to listen end.
    pub duration_ns: u64,
}

impl ScanStats {
    /// Share of received packets that failed checksum/parse (0 when no
    /// packets arrived at all).
    pub fn parse_error_rate(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.parse_errors as f64 / self.received as f64
        }
    }

    /// Shortfall of valid replies against an expected baseline (clamped to
    /// `0..=1`); the baseline typically comes from recent healthy rounds.
    pub fn loss_vs_baseline(&self, baseline_valid: f64) -> f64 {
        if baseline_valid <= 0.0 {
            0.0
        } else {
            (1.0 - self.valid as f64 / baseline_valid).clamp(0.0, 1.0)
        }
    }

    /// The conservation invariant every round must satisfy: all received
    /// packets are accounted for exactly once, and no more replies validate
    /// than probes were sent.
    pub fn is_conserved(&self) -> bool {
        self.received == self.valid + self.parse_errors + self.invalid + self.duplicates
            && self.valid <= self.sent
    }
}

/// Thresholds for judging a round's measurement quality from its
/// [`ScanStats`] (loss ratio, parse-error rate, sent-vs-expected).
///
/// The defaults are deliberately tolerant of the reply-loss levels the
/// chaos tests inject (≤ 20%): such rounds come back [`Degraded`]
/// (`RoundQuality::Degraded`), which damps detection without blinding it,
/// while only a collapse of the measurement itself yields `Unusable`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct QualityConfig {
    /// Valid-reply shortfall vs baseline at or above which a round is
    /// `Degraded`.
    pub degraded_loss: f64,
    /// Shortfall at or above which a round is `Unusable`.
    pub unusable_loss: f64,
    /// Parse-error share of received packets ⇒ `Degraded`.
    pub degraded_parse_errors: f64,
    /// Parse-error share ⇒ `Unusable`.
    pub unusable_parse_errors: f64,
    /// Minimum `sent / expected` ratio; below it the sweep was truncated
    /// and the round is `Unusable`.
    pub min_sent_ratio: f64,
}

impl Default for QualityConfig {
    fn default() -> Self {
        QualityConfig {
            degraded_loss: 0.05,
            unusable_loss: 0.65,
            degraded_parse_errors: 0.02,
            unusable_parse_errors: 0.50,
            min_sent_ratio: 0.90,
        }
    }
}

impl QualityConfig {
    /// Validates that every ratio lies in `0..=1` and the degraded bounds
    /// do not exceed their unusable counterparts.
    pub fn validate(&self) -> fbs_types::Result<()> {
        for (name, v) in [
            ("degraded_loss", self.degraded_loss),
            ("unusable_loss", self.unusable_loss),
            ("degraded_parse_errors", self.degraded_parse_errors),
            ("unusable_parse_errors", self.unusable_parse_errors),
            ("min_sent_ratio", self.min_sent_ratio),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(fbs_types::FbsError::config(format!(
                    "quality ratio {name}={v} outside 0..=1"
                )));
            }
        }
        if self.degraded_loss > self.unusable_loss {
            return Err(fbs_types::FbsError::config(
                "degraded_loss must not exceed unusable_loss",
            ));
        }
        if self.degraded_parse_errors > self.unusable_parse_errors {
            return Err(fbs_types::FbsError::config(
                "degraded_parse_errors must not exceed unusable_parse_errors",
            ));
        }
        Ok(())
    }

    /// Verdict from a loss ratio alone (used when the expected loss is
    /// known directly, e.g. from an injected fault plan).
    pub fn from_loss(&self, loss: f64) -> RoundQuality {
        if loss >= self.unusable_loss {
            RoundQuality::Unusable
        } else if loss >= self.degraded_loss {
            RoundQuality::Degraded
        } else {
            RoundQuality::Ok
        }
    }

    /// Full verdict for a completed round.
    ///
    /// `expected_probes` is the size of a complete first sweep
    /// (`targets.num_addresses()`); `baseline_valid` is the expected number
    /// of valid replies under healthy conditions (`None` = no baseline yet,
    /// e.g. the first rounds of a campaign), typically a trailing average.
    pub fn assess(
        &self,
        stats: &ScanStats,
        expected_probes: u64,
        baseline_valid: Option<f64>,
    ) -> RoundQuality {
        if expected_probes > 0 && (stats.sent as f64) < self.min_sent_ratio * expected_probes as f64
        {
            return RoundQuality::Unusable;
        }
        let mut q = RoundQuality::Ok;
        let per = stats.parse_error_rate();
        if per >= self.unusable_parse_errors && stats.received > 0 {
            return RoundQuality::Unusable;
        }
        if per >= self.degraded_parse_errors && stats.received > 0 {
            q = q.worst(RoundQuality::Degraded);
        }
        if let Some(base) = baseline_valid {
            q = q.worst(self.from_loss(stats.loss_vs_baseline(base)));
        }
        q
    }
}

/// A single-vantage-point full-block scanner.
#[derive(Debug, Clone)]
pub struct Scanner {
    config: ScanConfig,
}

impl Scanner {
    /// Creates a scanner with the given configuration.
    pub fn new(config: ScanConfig) -> Self {
        Scanner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ScanConfig {
        &self.config
    }

    /// Probes every address of `targets` once and collects replies.
    ///
    /// `round` selects the per-round permutation seed (so consecutive rounds
    /// traverse the space in different orders) and stamps the result.
    /// Returns the per-block observations plus transmission statistics.
    pub fn scan_round<T: Transport>(
        &self,
        round: Round,
        targets: &TargetSet,
        transport: &mut T,
    ) -> (RoundObservations, ScanStats) {
        let mut stats = ScanStats::default();
        let mut obs = RoundObservations {
            round,
            blocks: vec![BlockObservation::default(); targets.num_blocks()],
            block_ids: targets.blocks().to_vec(),
        };
        if targets.is_empty() {
            return (obs, stats);
        }

        let seed = self
            .config
            .key
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(round.0 as u64);
        let perm = CyclicPermutation::new(targets.num_addresses(), seed);
        let mut bucket = TokenBucket::new(self.config.rate_pps, self.config.burst);

        let mut now_ns: u64 = 0;
        let mut inbox: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut since_drain = 0u32;

        for idx in perm.iter() {
            now_ns = bucket.next_send_time(now_ns);
            bucket.consume(now_ns);
            let dst = targets.addr_at(idx);
            let probe = ProbePacket::echo_request(
                self.config.source,
                dst,
                self.config.key,
                now_ns,
                self.config.ttl,
            );
            transport.send(&probe.bytes, now_ns);
            stats.sent += 1;

            // Drain periodically rather than per-packet: at 8k pps a reply
            // arrives tens of ms after its probe, so batching is harmless
            // and keeps the hot loop tight.
            since_drain += 1;
            if since_drain == 256 {
                since_drain = 0;
                transport.recv(now_ns, &mut inbox);
                self.process_inbox(&mut inbox, targets, &mut obs, &mut stats);
            }
        }

        // Bounded re-probe passes: wait out the reply horizon, then probe
        // only the addresses still silent. Responders found by an earlier
        // pass are skipped, so duplicates stay rare even on lossy paths.
        for _pass in 0..self.config.retries {
            now_ns += self.config.timeout_ns;
            transport.recv(now_ns, &mut inbox);
            self.process_inbox(&mut inbox, targets, &mut obs, &mut stats);
            if stats.valid >= targets.num_addresses() {
                break; // everything answered; nothing left to re-probe
            }
            for idx in perm.iter() {
                let bi = (idx / 256) as usize;
                let host = (idx % 256) as u8;
                if obs.blocks[bi].responders.get(host) {
                    continue;
                }
                now_ns = bucket.next_send_time(now_ns);
                bucket.consume(now_ns);
                let dst = targets.addr_at(idx);
                let probe = ProbePacket::echo_request(
                    self.config.source,
                    dst,
                    self.config.key,
                    now_ns,
                    self.config.ttl,
                );
                transport.send(&probe.bytes, now_ns);
                stats.sent += 1;
                since_drain += 1;
                if since_drain == 256 {
                    since_drain = 0;
                    transport.recv(now_ns, &mut inbox);
                    self.process_inbox(&mut inbox, targets, &mut obs, &mut stats);
                }
            }
        }

        // Cooldown: listen for stragglers.
        now_ns += self.config.timeout_ns;
        transport.recv(now_ns, &mut inbox);
        self.process_inbox(&mut inbox, targets, &mut obs, &mut stats);
        stats.duration_ns = now_ns;
        (obs, stats)
    }

    fn process_inbox(
        &self,
        inbox: &mut Vec<(u64, Vec<u8>)>,
        targets: &TargetSet,
        obs: &mut RoundObservations,
        stats: &mut ScanStats,
    ) {
        for (arrival_ns, bytes) in inbox.drain(..) {
            stats.received += 1;
            let parsed = match packet::parse(&bytes) {
                Ok(p) => p,
                Err(_) => {
                    stats.parse_errors += 1;
                    continue;
                }
            };
            if !parsed.validates(self.config.key) {
                stats.invalid += 1;
                continue;
            }
            let Some(block_idx) = targets.block_index(parsed.src) else {
                stats.invalid += 1;
                continue;
            };
            let host = BlockId::host_of(parsed.src);
            let block = &mut obs.blocks[block_idx];
            if block.responders.get(host) {
                stats.duplicates += 1;
                continue;
            }
            stats.valid += 1;
            block.responders.set(host);
            let rtt = arrival_ns.saturating_sub(parsed.timestamp_ns);
            block.rtt.record(rtt);
        }
    }
}

pub mod loopback {
    //! An in-memory echo transport for tests and examples.
    //!
    //! Hosts listed as responsive answer echo requests after a configurable
    //! per-host RTT; everyone else stays silent. Optionally injects noise:
    //! corrupted packets and unsolicited replies, which the scanner must
    //! reject.

    use super::Transport;
    use crate::packet::{self, ParsedReply};
    use std::collections::{BinaryHeap, HashMap};
    use std::net::Ipv4Addr;

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

    /// See the [module docs](self).
    #[derive(Debug, Default)]
    pub struct LoopbackTransport {
        hosts: HashMap<Ipv4Addr, u64>,
        queue: BinaryHeap<Pending>,
        /// Corrupt every nth reply (0 = never). Successive corruptions
        /// cycle through a bit flip, a truncation, and a zero-length
        /// packet, so one knob exercises all the scanner's parse paths.
        pub corrupt_every: u64,
        /// Deliver every nth reply twice (0 = never): models the duplicate
        /// packets loaded links produce.
        pub duplicate_every: u64,
        reply_counter: u64,
        corruptions: u64,
    }

    impl LoopbackTransport {
        /// An empty transport: every probe goes unanswered.
        pub fn new() -> Self {
            Self::default()
        }

        /// Marks `addr` as responsive with the given round-trip time.
        pub fn add_host(&mut self, addr: Ipv4Addr, rtt_ns: u64) {
            self.hosts.insert(addr, rtt_ns);
        }

        /// Injects an arbitrary raw packet arriving at `arrival_ns`.
        pub fn inject(&mut self, arrival_ns: u64, bytes: Vec<u8>) {
            self.queue.push(Pending { arrival_ns, bytes });
        }
    }

    impl Transport for LoopbackTransport {
        fn send(&mut self, bytes: &[u8], now_ns: u64) {
            let Ok(req) = packet::parse(bytes) else {
                return;
            };
            let Some(&rtt) = self.hosts.get(&req.dst) else {
                return;
            };
            let mut reply = ParsedReply::reply_for(&req, 55);
            self.reply_counter += 1;
            if self.corrupt_every != 0 && self.reply_counter.is_multiple_of(self.corrupt_every) {
                match self.corruptions % 3 {
                    0 => {
                        // Flip a payload bit without fixing the checksum.
                        let last = reply.len() - 1;
                        reply[last] ^= 0xff;
                    }
                    1 => reply.truncate(reply.len() / 2),
                    _ => reply.clear(), // zero-length datagram
                }
                self.corruptions += 1;
            }
            if self.duplicate_every != 0 && self.reply_counter.is_multiple_of(self.duplicate_every)
            {
                self.queue.push(Pending {
                    arrival_ns: now_ns + rtt + 1, // the copy trails by 1 ns
                    bytes: reply.clone(),
                });
            }
            self.queue.push(Pending {
                arrival_ns: now_ns + rtt,
                bytes: reply,
            });
        }

        fn recv(&mut self, now_ns: u64, out: &mut Vec<(u64, Vec<u8>)>) {
            while let Some(head) = self.queue.peek() {
                if head.arrival_ns > now_ns {
                    break;
                }
                let p = self.queue.pop().expect("peeked element exists");
                out.push((p.arrival_ns, p.bytes));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::loopback::LoopbackTransport;
    use super::*;
    use crate::packet::encode;
    use fbs_types::Prefix;

    fn targets() -> TargetSet {
        TargetSet::from_prefixes(&["10.1.0.0/23".parse::<Prefix>().unwrap()])
    }

    fn scanner() -> Scanner {
        Scanner::new(ScanConfig {
            rate_pps: 1_000_000, // fast virtual scanning in tests
            ..ScanConfig::default()
        })
    }

    #[test]
    fn finds_exactly_the_responsive_hosts() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        let responsive = [
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 77),
            Ipv4Addr::new(10, 1, 1, 200),
        ];
        for a in responsive {
            lo.add_host(a, 25_000_000); // 25 ms
        }
        // A host outside the target set must not pollute results.
        lo.add_host(Ipv4Addr::new(10, 9, 9, 9), 1_000_000);

        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.sent, 512);
        assert_eq!(stats.valid, 3);
        assert_eq!(stats.duplicates, 0);
        assert_eq!(obs.total_responsive(), 3);
        assert_eq!(obs.active_blocks(), 2);
        // The exact addresses are marked.
        let b0 = t
            .index_of_block(fbs_types::BlockId::from_octets(10, 1, 0))
            .unwrap();
        assert!(obs.blocks[b0].responders.get(1));
        assert!(obs.blocks[b0].responders.get(77));
        assert!(!obs.blocks[b0].responders.get(2));
    }

    #[test]
    fn rtt_is_measured_from_echoed_timestamp() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        lo.add_host(Ipv4Addr::new(10, 1, 0, 1), 40_000_000);
        let (obs, _) = scanner().scan_round(Round(1), &t, &mut lo);
        let b0 = t
            .index_of_block(fbs_types::BlockId::from_octets(10, 1, 0))
            .unwrap();
        assert_eq!(obs.blocks[b0].rtt.mean_ns(), Some(40_000_000));
    }

    #[test]
    fn corrupted_replies_are_counted_not_recorded() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        lo.add_host(Ipv4Addr::new(10, 1, 0, 1), 1_000);
        lo.corrupt_every = 1; // corrupt everything
        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.valid, 0);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(obs.total_responsive(), 0);
    }

    #[test]
    fn unsolicited_replies_fail_validation() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        // Forge an echo reply that was never requested: wrong ident/seq.
        let forged = encode(
            Ipv4Addr::new(10, 1, 0, 5),
            Ipv4Addr::new(192, 0, 2, 1),
            55,
            crate::packet::IcmpKind::EchoReply,
            0x1234,
            0x5678,
            0,
        );
        lo.inject(10, forged);
        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.invalid, 1);
        assert_eq!(obs.total_responsive(), 0);
    }

    #[test]
    fn different_rounds_scan_in_different_orders_same_result() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        lo.add_host(Ipv4Addr::new(10, 1, 1, 9), 5_000);
        let (a, _) = scanner().scan_round(Round(0), &t, &mut lo);
        let (b, _) = scanner().scan_round(Round(7), &t, &mut lo);
        assert_eq!(a.total_responsive(), 1);
        assert_eq!(b.total_responsive(), 1);
        let bi = t
            .index_of_block(fbs_types::BlockId::from_octets(10, 1, 1))
            .unwrap();
        assert_eq!(a.blocks[bi].responders, b.blocks[bi].responders);
    }

    #[test]
    fn empty_target_set_is_a_noop() {
        let t = TargetSet::from_blocks(vec![]);
        let mut lo = LoopbackTransport::new();
        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.sent, 0);
        assert_eq!(obs.blocks.len(), 0);
    }

    /// Drops the first `drop_remaining` probes outright (they never reach
    /// the loopback), then behaves normally — a deterministic lossy path.
    struct LossyTransport {
        inner: LoopbackTransport,
        drop_remaining: u32,
    }

    impl Transport for LossyTransport {
        fn send(&mut self, bytes: &[u8], now_ns: u64) {
            if self.drop_remaining > 0 {
                self.drop_remaining -= 1;
                return;
            }
            self.inner.send(bytes, now_ns);
        }

        fn recv(&mut self, now_ns: u64, out: &mut Vec<(u64, Vec<u8>)>) {
            self.inner.recv(now_ns, out);
        }
    }

    #[test]
    fn corruption_cycles_through_all_modes() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        for host in [1u8, 2, 3] {
            lo.add_host(Ipv4Addr::new(10, 1, 0, host), 1_000);
        }
        lo.corrupt_every = 1; // every reply corrupted: flip, truncate, clear
        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.received, 3);
        assert_eq!(stats.parse_errors, 3, "all three modes must fail parse");
        assert_eq!(stats.valid, 0);
        assert_eq!(obs.total_responsive(), 0);
        assert!(stats.is_conserved(), "{stats:?}");
    }

    #[test]
    fn duplicates_counted_once_in_bitmaps_and_rtt() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        let hosts = [1u8, 77, 200];
        for host in hosts {
            lo.add_host(Ipv4Addr::new(10, 1, 0, host), 40_000_000);
        }
        lo.duplicate_every = 1; // every reply arrives twice
        let (obs, stats) = scanner().scan_round(Round(0), &t, &mut lo);
        assert_eq!(stats.valid, 3);
        assert_eq!(stats.duplicates, 3);
        assert_eq!(stats.received, 6);
        assert!(stats.is_conserved(), "{stats:?}");
        // Bitmaps count each responder once...
        assert_eq!(obs.total_responsive(), 3);
        let b0 = t
            .index_of_block(fbs_types::BlockId::from_octets(10, 1, 0))
            .unwrap();
        assert_eq!(obs.blocks[b0].responders.count(), 3);
        // ...and RTT aggregates ignore the duplicate copies entirely (the
        // trailing copy would otherwise skew the mean by its extra delay).
        assert_eq!(obs.blocks[b0].rtt.count, 3);
        assert_eq!(obs.blocks[b0].rtt.mean_ns(), Some(40_000_000));
    }

    #[test]
    fn retries_recover_dropped_replies() {
        let t = targets();
        let run = |retries: u32| {
            let mut inner = LoopbackTransport::new();
            for host in [1u8, 77, 200] {
                inner.add_host(Ipv4Addr::new(10, 1, 0, host), 1_000);
            }
            // Swallow the entire first sweep.
            let mut lossy = LossyTransport {
                inner,
                drop_remaining: 512,
            };
            let scanner = Scanner::new(ScanConfig {
                rate_pps: 1_000_000,
                timeout_ns: 1_000_000,
                retries,
                ..ScanConfig::default()
            });
            scanner.scan_round(Round(0), &t, &mut lossy)
        };
        let (obs0, stats0) = run(0);
        assert_eq!(stats0.valid, 0, "without retries the round is blind");
        assert_eq!(obs0.total_responsive(), 0);
        let (obs1, stats1) = run(1);
        assert_eq!(stats1.sent, 1024, "one full re-probe pass");
        assert_eq!(stats1.valid, 3, "the re-probe pass recovers responders");
        assert_eq!(obs1.total_responsive(), 3);
        assert!(stats1.is_conserved());
    }

    #[test]
    fn retry_pass_skips_known_responders() {
        let t = targets();
        let mut lo = LoopbackTransport::new();
        for host in [1u8, 77, 200] {
            lo.add_host(Ipv4Addr::new(10, 1, 0, host), 1_000);
        }
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1_000_000,
            timeout_ns: 1_000_000,
            retries: 2,
            ..ScanConfig::default()
        });
        let (obs, stats) = scanner.scan_round(Round(0), &t, &mut lo);
        // Responders answered in pass 1, so passes 2 and 3 only re-probe
        // the 509 silent addresses.
        assert_eq!(stats.sent, 512 + 2 * 509);
        assert_eq!(stats.valid, 3);
        assert_eq!(stats.duplicates, 0, "skipping responders avoids dups");
        assert_eq!(obs.total_responsive(), 3);
    }

    #[test]
    fn quality_verdicts_from_stats() {
        let q = QualityConfig::default();
        assert!(q.validate().is_ok());
        let healthy = ScanStats {
            sent: 512,
            received: 100,
            valid: 100,
            ..ScanStats::default()
        };
        assert_eq!(q.assess(&healthy, 512, Some(100.0)), RoundQuality::Ok);
        // 20% shortfall vs baseline: degraded, not unusable.
        let lossy = ScanStats {
            valid: 80,
            received: 80,
            ..healthy
        };
        assert_eq!(q.assess(&lossy, 512, Some(100.0)), RoundQuality::Degraded);
        // Collapse of the signal: unusable.
        let dead = ScanStats {
            valid: 10,
            received: 10,
            ..healthy
        };
        assert_eq!(q.assess(&dead, 512, Some(100.0)), RoundQuality::Unusable);
        // Garbled inbox: parse errors dominate received packets.
        let garbled = ScanStats {
            received: 100,
            valid: 40,
            parse_errors: 60,
            ..ScanStats::default()
        };
        let garbled = ScanStats {
            sent: 512,
            ..garbled
        };
        assert_eq!(q.assess(&garbled, 512, None), RoundQuality::Unusable);
        // Truncated sweep: unusable regardless of replies.
        let truncated = ScanStats {
            sent: 100,
            ..healthy
        };
        assert_eq!(
            q.assess(&truncated, 512, Some(100.0)),
            RoundQuality::Unusable
        );
        // No baseline and a clean inbox: Ok.
        assert_eq!(q.assess(&healthy, 512, None), RoundQuality::Ok);
    }

    #[test]
    fn quality_from_loss_boundaries() {
        let q = QualityConfig::default();
        assert_eq!(q.from_loss(0.0), RoundQuality::Ok);
        assert_eq!(q.from_loss(q.degraded_loss), RoundQuality::Degraded);
        assert_eq!(q.from_loss(0.20), RoundQuality::Degraded);
        assert_eq!(q.from_loss(q.unusable_loss), RoundQuality::Unusable);
        assert_eq!(q.from_loss(1.0), RoundQuality::Unusable);
        // Invalid configs are rejected.
        let bad = QualityConfig {
            degraded_loss: 0.9,
            unusable_loss: 0.5,
            ..QualityConfig::default()
        };
        assert!(bad.validate().is_err());
        let nan = QualityConfig {
            min_sent_ratio: f64::NAN,
            ..QualityConfig::default()
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    fn pacing_bounds_round_duration() {
        // 512 probes at 1000 pps must take at least ~511 ms of virtual time.
        let t = targets();
        let mut lo = LoopbackTransport::new();
        let scanner = Scanner::new(ScanConfig {
            rate_pps: 1000,
            burst: 1,
            timeout_ns: 0,
            ..ScanConfig::default()
        });
        let (_, stats) = scanner.scan_round(Round(0), &t, &mut lo);
        assert!(
            stats.duration_ns >= 511_000_000,
            "duration {}",
            stats.duration_ns
        );
    }
}
