//! Network link models.
//!
//! Every message sent through `Ctx::send` passes through
//! the world's [`LinkModel`], which decides whether it is delivered and
//! when. Models compose by wrapping: e.g. i.i.d. loss around a
//! bandwidth-queued, jittered latency link.
//!
//! The paper assumes "reliable high-speed communication like 10 Gbps
//! Ethernet" between each contents peer and the leaf; [`FixedLatency`]
//! reproduces that, while the loss models exercise the parity-recovery
//! machinery (paper §3.2) beyond the paper's own evaluation.

use std::collections::HashMap;

use crate::event::ActorId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Outcome of pushing one message through a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkVerdict {
    /// Message arrives at the given absolute time.
    Deliver(SimTime),
    /// Message is lost.
    Drop,
}

/// A (possibly stateful) model of the network between two actors.
pub trait LinkModel {
    /// Decide the fate of a `bytes`-sized message sent `from → to` at `now`.
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict;

    /// A lower bound on the one-way delay of *every* delivered message:
    /// [`LinkModel::process`] must never return `Deliver(t)` with
    /// `t < now + min_latency()`. The sharded world
    /// ([`crate::shard::ShardedWorld`]) uses this bound as its
    /// conservative lookahead — a model that understates its own minimum
    /// is merely conservative (smaller windows, same results), but one
    /// that *overstates* it breaks the causality contract and is clamped
    /// and counted (a hard error under `debug_assertions`).
    ///
    /// The default is the only universally safe bound, zero — which also
    /// tells the sharded world the model cannot support cross-shard
    /// lookahead at all.
    fn min_latency(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

impl LinkModel for Box<dyn LinkModel + Send> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        self.as_mut().process(now, from, to, bytes, rng)
    }

    fn min_latency(&self) -> SimDuration {
        self.as_ref().min_latency()
    }
}

/// Delivers everything after a fixed one-way latency.
#[derive(Clone, Copy, Debug)]
pub struct FixedLatency {
    /// One-way propagation delay applied to every message.
    pub latency: SimDuration,
}

impl FixedLatency {
    /// A link with the given one-way delay.
    pub fn new(latency: SimDuration) -> Self {
        FixedLatency { latency }
    }
}

impl LinkModel for FixedLatency {
    fn process(
        &mut self,
        now: SimTime,
        _from: ActorId,
        _to: ActorId,
        _bytes: usize,
        _rng: &mut SimRng,
    ) -> LinkVerdict {
        LinkVerdict::Deliver(now + self.latency)
    }

    fn min_latency(&self) -> SimDuration {
        self.latency
    }
}

/// Fixed base latency plus uniform random jitter in `[0, jitter]`.
#[derive(Clone, Copy, Debug)]
pub struct JitterLatency {
    /// Minimum one-way delay.
    pub base: SimDuration,
    /// Maximum extra delay, drawn uniformly per message.
    pub jitter: SimDuration,
}

impl LinkModel for JitterLatency {
    fn process(
        &mut self,
        now: SimTime,
        _from: ActorId,
        _to: ActorId,
        _bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let extra = if self.jitter.as_nanos() == 0 {
            0
        } else {
            rng.gen_below(self.jitter.as_nanos() + 1)
        };
        LinkVerdict::Deliver(now + self.base + SimDuration::from_nanos(extra))
    }

    fn min_latency(&self) -> SimDuration {
        self.base
    }
}

/// Drops each message independently with probability `p`; otherwise
/// defers to the inner model.
#[derive(Clone)]
pub struct IidLoss<L> {
    /// Per-message drop probability.
    pub p: f64,
    /// Model applied to surviving messages.
    pub inner: L,
}

impl<L: LinkModel> LinkModel for IidLoss<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        if rng.gen_bool(self.p) {
            LinkVerdict::Drop
        } else {
            self.inner.process(now, from, to, bytes, rng)
        }
    }

    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

/// Two-state Gilbert–Elliott bursty loss, tracked per directed peer pair.
///
/// In the *good* state messages drop with probability `loss_good`, in the
/// *bad* state with `loss_bad`; the chain transitions good→bad with
/// probability `p_gb` and bad→good with `p_bg` per message.
#[derive(Clone)]
pub struct GilbertElliott<L> {
    /// Good→bad transition probability (per message).
    pub p_gb: f64,
    /// Bad→good transition probability (per message).
    pub p_bg: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
    /// Model applied to surviving messages.
    pub inner: L,
    bad: HashMap<(ActorId, ActorId), bool>,
}

impl<L> GilbertElliott<L> {
    /// A bursty channel wrapping `inner`. All pairs start in the good state.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64, inner: L) -> Self {
        GilbertElliott {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            inner,
            bad: HashMap::new(),
        }
    }
}

impl<L: LinkModel> LinkModel for GilbertElliott<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let bad = self.bad.entry((from, to)).or_insert(false);
        // Transition first, then sample loss in the new state.
        if *bad {
            if rng.gen_bool(self.p_bg) {
                *bad = false;
            }
        } else if rng.gen_bool(self.p_gb) {
            *bad = true;
        }
        let p = if *bad { self.loss_bad } else { self.loss_good };
        if rng.gen_bool(p) {
            LinkVerdict::Drop
        } else {
            self.inner.process(now, from, to, bytes, rng)
        }
    }

    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

/// Serializes messages per directed pair at a finite bandwidth: a message
/// must finish transmitting before the next one starts, adding queueing
/// delay under load.
#[derive(Clone)]
pub struct Bandwidth<L> {
    /// Link capacity in bytes per (simulated) second.
    pub bytes_per_sec: u64,
    /// Model applied after the transmission delay (e.g. propagation).
    pub inner: L,
    busy_until: HashMap<(ActorId, ActorId), SimTime>,
}

impl<L> Bandwidth<L> {
    /// A bandwidth-limited link of `bytes_per_sec` capacity wrapping `inner`.
    pub fn new(bytes_per_sec: u64, inner: L) -> Self {
        assert!(bytes_per_sec > 0, "zero-bandwidth link");
        Bandwidth {
            bytes_per_sec,
            inner,
            busy_until: HashMap::new(),
        }
    }

    fn tx_time(&self, bytes: usize) -> SimDuration {
        // ceil(bytes * 1e9 / rate) nanoseconds
        let num = bytes as u128 * 1_000_000_000u128;
        let den = self.bytes_per_sec as u128;
        SimDuration::from_nanos(num.div_ceil(den) as u64)
    }
}

impl<L: LinkModel> LinkModel for Bandwidth<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let tx = self.tx_time(bytes);
        let busy = self.busy_until.entry((from, to)).or_insert(SimTime::ZERO);
        let start = if *busy > now { *busy } else { now };
        let done = start + tx;
        *busy = done;
        match self.inner.process(done, from, to, bytes, rng) {
            LinkVerdict::Deliver(t) => LinkVerdict::Deliver(t),
            LinkVerdict::Drop => LinkVerdict::Drop,
        }
    }

    /// Transmission time only tightens the bound (a zero-byte message
    /// adds nothing), so the inner model's floor is the safe answer.
    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

/// Per-sender uplink capacity: each sending actor has its own serial
/// transmission queue at its own rate — the heterogeneous-peer model of
/// the paper's §2 (and its §5 future work). Actors without an entry use
/// `default_bytes_per_sec`.
#[derive(Clone)]
pub struct PerSenderBandwidth<L> {
    caps: Vec<u64>,
    default_bytes_per_sec: u64,
    /// Model applied after the transmission delay.
    pub inner: L,
    busy_until: HashMap<ActorId, SimTime>,
}

impl<L> PerSenderBandwidth<L> {
    /// Capacities indexed by sender actor id; `default_bytes_per_sec`
    /// covers senders beyond the list (e.g. the leaf).
    pub fn new(caps: Vec<u64>, default_bytes_per_sec: u64, inner: L) -> Self {
        assert!(default_bytes_per_sec > 0);
        assert!(caps.iter().all(|&c| c > 0), "zero-capacity sender");
        PerSenderBandwidth {
            caps,
            default_bytes_per_sec,
            inner,
            busy_until: HashMap::new(),
        }
    }

    fn rate_of(&self, from: ActorId) -> u64 {
        self.caps
            .get(from.index())
            .copied()
            .unwrap_or(self.default_bytes_per_sec)
    }
}

impl<L: LinkModel> LinkModel for PerSenderBandwidth<L> {
    fn process(
        &mut self,
        now: SimTime,
        from: ActorId,
        to: ActorId,
        bytes: usize,
        rng: &mut SimRng,
    ) -> LinkVerdict {
        let rate = self.rate_of(from);
        let tx = SimDuration::from_nanos(
            (bytes as u128 * 1_000_000_000u128).div_ceil(rate as u128) as u64,
        );
        let busy = self.busy_until.entry(from).or_insert(SimTime::ZERO);
        let start = if *busy > now { *busy } else { now };
        let done = start + tx;
        *busy = done;
        self.inner.process(done, from, to, bytes, rng)
    }

    fn min_latency(&self) -> SimDuration {
        self.inner.min_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ActorId = ActorId(0);
    const B: ActorId = ActorId(1);

    #[test]
    fn fixed_latency_shifts_by_constant() {
        let mut l = FixedLatency::new(SimDuration::from_millis(2));
        let mut rng = SimRng::new(1);
        assert_eq!(
            l.process(SimTime(1_000), A, B, 100, &mut rng),
            LinkVerdict::Deliver(SimTime(1_000) + SimDuration::from_millis(2))
        );
    }

    #[test]
    fn jitter_within_bounds() {
        let mut l = JitterLatency {
            base: SimDuration::from_millis(1),
            jitter: SimDuration::from_millis(3),
        };
        let mut rng = SimRng::new(2);
        for _ in 0..1000 {
            match l.process(SimTime::ZERO, A, B, 10, &mut rng) {
                LinkVerdict::Deliver(t) => {
                    assert!(t >= SimTime(1_000_000));
                    assert!(t <= SimTime(4_000_000));
                }
                LinkVerdict::Drop => panic!("jitter never drops"),
            }
        }
    }

    #[test]
    fn zero_jitter_is_fixed() {
        let mut l = JitterLatency {
            base: SimDuration::from_millis(1),
            jitter: SimDuration::ZERO,
        };
        let mut rng = SimRng::new(2);
        assert_eq!(
            l.process(SimTime::ZERO, A, B, 10, &mut rng),
            LinkVerdict::Deliver(SimTime(1_000_000))
        );
    }

    #[test]
    fn iid_loss_rate_matches_p() {
        let mut l = IidLoss {
            p: 0.25,
            inner: FixedLatency::new(SimDuration::ZERO),
        };
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let dropped = (0..n)
            .filter(|_| l.process(SimTime::ZERO, A, B, 10, &mut rng) == LinkVerdict::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate={rate}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // Compare mean burst length of consecutive drops vs i.i.d. at the
        // same marginal loss rate.
        let mut ge = GilbertElliott::new(0.01, 0.1, 0.0, 1.0, FixedLatency::new(SimDuration::ZERO));
        let mut rng = SimRng::new(4);
        let n = 200_000;
        let mut drops = 0usize;
        let mut bursts = 0usize;
        let mut in_burst = false;
        for _ in 0..n {
            let d = ge.process(SimTime::ZERO, A, B, 10, &mut rng) == LinkVerdict::Drop;
            if d {
                drops += 1;
                if !in_burst {
                    bursts += 1;
                    in_burst = true;
                }
            } else {
                in_burst = false;
            }
        }
        assert!(drops > 0 && bursts > 0);
        let mean_burst = drops as f64 / bursts as f64;
        // With p_bg = 0.1 and loss_bad = 1.0, bursts average ~10 messages.
        assert!(mean_burst > 5.0, "mean burst {mean_burst}");
    }

    #[test]
    fn gilbert_elliott_state_is_per_pair() {
        let mut ge = GilbertElliott::new(1.0, 0.0, 0.0, 1.0, FixedLatency::new(SimDuration::ZERO));
        let mut rng = SimRng::new(5);
        // Pair (A,B) transitions to bad immediately and drops everything.
        assert_eq!(
            ge.process(SimTime::ZERO, A, B, 1, &mut rng),
            LinkVerdict::Drop
        );
        // Opposite direction keeps its own state but also starts good→bad.
        assert_eq!(
            ge.process(SimTime::ZERO, B, A, 1, &mut rng),
            LinkVerdict::Drop
        );
        assert_eq!(ge.bad.len(), 2);
    }

    #[test]
    fn bandwidth_serializes_messages() {
        // 1000 bytes/s; each 100-byte message takes 0.1 s on the wire.
        let mut l = Bandwidth::new(1_000, FixedLatency::new(SimDuration::ZERO));
        let mut rng = SimRng::new(6);
        let t1 = match l.process(SimTime::ZERO, A, B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        let t2 = match l.process(SimTime::ZERO, A, B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t1, SimTime(100_000_000));
        assert_eq!(
            t2,
            SimTime(200_000_000),
            "second message queues behind first"
        );
        // Different pair does not queue.
        let t3 = match l.process(SimTime::ZERO, B, A, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t3, SimTime(100_000_000));
    }

    #[test]
    fn per_sender_bandwidth_serializes_per_sender() {
        // Sender A at 1000 B/s, sender B at 100 B/s.
        let mut l = PerSenderBandwidth::new(
            vec![1_000, 100],
            10_000,
            FixedLatency::new(SimDuration::ZERO),
        );
        let mut rng = SimRng::new(8);
        let t_a = match l.process(SimTime::ZERO, A, B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        let t_b = match l.process(SimTime::ZERO, B, A, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t_a, SimTime(100_000_000), "fast sender: 0.1 s");
        assert_eq!(t_b, SimTime(1_000_000_000), "slow sender: 1 s");
        // A's second message queues behind its first; B's queue is B's own.
        let t_a2 = match l.process(SimTime::ZERO, A, B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t_a2, SimTime(200_000_000));
        // Unlisted sender uses the default rate.
        let t_c = match l.process(SimTime::ZERO, ActorId(7), B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t_c, SimTime(10_000_000));
    }

    #[test]
    fn bandwidth_idle_link_resets() {
        let mut l = Bandwidth::new(1_000, FixedLatency::new(SimDuration::ZERO));
        let mut rng = SimRng::new(7);
        l.process(SimTime::ZERO, A, B, 100, &mut rng);
        // Long after the first transmission finished: no queueing delay.
        let t = match l.process(SimTime(1_000_000_000), A, B, 100, &mut rng) {
            LinkVerdict::Deliver(t) => t,
            _ => panic!(),
        };
        assert_eq!(t, SimTime(1_100_000_000));
    }
}
