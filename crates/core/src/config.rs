//! Session configuration shared by every coordination protocol.

use std::sync::Arc;

use mss_media::parity::Coding;
use mss_media::ContentDesc;
use mss_sim::time::SimDuration;

/// How much of the sender's knowledge rides along in coordination
/// messages.
///
/// The paper's pseudocode is ambiguous here (§3.4 puts only the sender's
/// *selections* in `c.VW`; its Figure 10 anchor point is only consistent
/// with richer piggybacking), so both variants are first-class and the
/// harness reports both.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Piggyback {
    /// Messages carry the sender's full merged view, and the leaf's
    /// content request carries the initially selected set. Views converge
    /// fast; redundant selection is minimized.
    FullView,
    /// Messages carry only `{sender} ∪ {sender's selections}`, and the
    /// leaf's request carries no view — the literal reading of the
    /// pseudocode.
    SelectionsOnly,
}

/// How a divided postfix is re-protected with parity (§3.4 step 3's
/// `Esq(pkt_j[m_j⟩, h)`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Reenhance {
    /// Divide the postfix as-is, existing parity included, adding
    /// nothing: parity density is set once by the initial enhancement
    /// and never changes. This reproduces the paper's Figure 12 DCoP
    /// curve *exactly* (`receipt rate = (h+1)/h = H/(H−1)` at every
    /// depth).
    None,
    /// Strip the postfix's existing parity packets and generate fresh
    /// parity over the remaining data: parity density returns to `1/h`
    /// at every tree depth (slightly above `None` when short postfixes
    /// round up). The default — it keeps every division's shares
    /// independently protected.
    DataOnly,
    /// Enhance the enhanced postfix as-is, producing the nested
    /// parity-over-parity packets of the paper's §3.6 examples. Parity
    /// overhead then compounds by `(h+1)/h` per tree level — available
    /// as an ablation.
    Nested,
}

/// Which coordination protocol a session runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// Distributed coordination protocol (§3.4): redundant flooding;
    /// a child may be adopted by several parents and merges assignments.
    Dcop,
    /// Tree-based coordination protocol (§3.5): non-redundant; each
    /// selection wave is a 3-round probe/confirm/commit handshake.
    Tcop,
    /// Baseline (§3.1, Fig. 4(1)): the leaf floods all `n` peers; every
    /// peer streams its `1/n` share immediately.
    Broadcast,
    /// Baseline (§3.1, Fig. 4(2)): peers activate one at a time along a
    /// chain — minimum redundancy, maximum synchronization time.
    Unicast,
    /// Baseline (\[5\]): a coordinator peer runs a 2PC-style
    /// prepare/vote/commit among all peers before anyone streams.
    Centralized,
    /// Baseline (\[8\], Liu & Vuong): the leaf computes the entire
    /// transmission schedule and sends it to every peer in one round.
    LeafSchedule,
}

impl Protocol {
    /// All protocols, for comparison sweeps.
    pub const ALL: [Protocol; 6] = [
        Protocol::Dcop,
        Protocol::Tcop,
        Protocol::Broadcast,
        Protocol::Unicast,
        Protocol::Centralized,
        Protocol::LeafSchedule,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Dcop => "DCoP",
            Protocol::Tcop => "TCoP",
            Protocol::Broadcast => "broadcast",
            Protocol::Unicast => "unicast",
            Protocol::Centralized => "centralized",
            Protocol::LeafSchedule => "leaf-schedule",
        }
    }
}

/// Leaf-driven repair (extension beyond the paper): when the stream goes
/// quiet with data packets still missing, the leaf NACKs the missing
/// sequence numbers to a few random contents peers, which retransmit.
/// Complements parity: parity masks losses in real time, repair closes
/// the residue (coordination-message loss, multi-loss segments).
#[derive(Clone, Copy, Debug)]
pub struct RepairConfig {
    /// Quiet period after which missing packets are NACKed.
    pub check_interval: SimDuration,
    /// Peers each NACK round is sent to.
    pub fanout: usize,
    /// Give up after this many NACK rounds.
    pub max_rounds: u32,
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            check_interval: SimDuration::from_millis(50),
            fanout: 3,
            max_rounds: 8,
        }
    }
}

/// Full description of one streaming session.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Number of contents peers `n`.
    pub n: usize,
    /// Gossip fan-out `H` (≤ n): peers initially contacted by the leaf,
    /// and children selected per parent.
    pub fanout: usize,
    /// Parity interval `h` (≥ 1): data packets per recovery segment.
    pub parity_interval: usize,
    /// The content being streamed.
    pub content: ContentDesc,
    /// The paper's `δ`: how long after sending control packets a parent
    /// switches to its re-divided schedule; must be ≥ the one-way
    /// control-packet latency so children switch in time.
    pub delta: SimDuration,
    /// View piggybacking variant (see [`Piggyback`]).
    pub piggyback: Piggyback,
    /// When false, peers coordinate but do not stream data packets —
    /// Figures 10/11 measure coordination only, which keeps those sweeps
    /// cheap. Receipt rate is still available analytically from the
    /// converged schedules.
    pub data_plane: bool,
    /// The guaranteed-coverage extensions, one switch for both
    /// protocols. DCoP: an already-active peer re-selects children every
    /// time another control packet reaches it (the literal pseudocode)
    /// instead of only upon first activation. TCoP: a parent keeps
    /// probing fresh candidates after a round that found no child,
    /// where the paper stops ("if C = φ, CP_j stops selecting") and can
    /// strand peers dormant at small `H`. On in `paper_eval` and
    /// `small`; off in `large` and `live`, where both are quadratic in n.
    pub guaranteed_coverage: bool,
    /// TCoP: how long a parent waits for probe replies before treating
    /// missing ones as rejections (matters only under faults/loss).
    pub reply_timeout: SimDuration,
    /// Re-enhancement mode for divided postfixes (see [`Reenhance`]).
    pub reenhance: Reenhance,
    /// Erasure code for recovery segments: the paper's single XOR parity
    /// ([`Coding::Xor`], default) or Reed–Solomon with `r` parity rows
    /// ([`Coding::Rs`]) — the extension that tolerates `r` losses per
    /// segment and makes "(H − h) faulty peers" exact (set `H = h + r`).
    pub coding: Coding,
    /// Whether a trailing partial recovery segment also receives a parity
    /// packet. The paper's `Esq` protects only full segments
    /// (`|[pkt]^h| = |pkt|(h+1)/h` exactly) — `false` reproduces its
    /// Figure 12 overhead; `true` trades extra parity for tail protection.
    pub tail_parity: bool,
    /// Leaf-driven NACK repair; `None` (the default and the paper's
    /// model) relies on parity alone.
    pub repair: Option<RepairConfig>,
    /// Heterogeneous mode (the paper's §5 future work): relative uplink
    /// bandwidth per contents peer (length `n`). When set, the leaf's
    /// initial division is bandwidth-proportional via the §2 time-slot
    /// allocator; when `None`, peers are assumed homogeneous (the paper's
    /// §3 simplification) and the division is uniform. Shared, not
    /// owned: every peer holds a clone of the config.
    pub bandwidths: Option<Arc<[u64]>>,
    /// RNG seed for the whole session.
    pub seed: u64,
}

impl SessionConfig {
    /// A session shaped like the paper's evaluation: `n = 100` peers,
    /// content rate normalized, `h = H − 1` parity.
    pub fn paper_eval(fanout: usize, seed: u64) -> SessionConfig {
        let n = 100;
        assert!(fanout >= 2 && fanout <= n);
        SessionConfig {
            n,
            fanout,
            parity_interval: fanout.saturating_sub(1).max(1),
            content: ContentDesc::small(seed, 2_000),
            delta: SimDuration::from_millis(20),
            piggyback: Piggyback::FullView,
            data_plane: false,
            guaranteed_coverage: true,
            reply_timeout: SimDuration::from_millis(100),
            reenhance: Reenhance::DataOnly,
            coding: Coding::Xor,
            tail_parity: false,
            repair: None,
            bandwidths: None,
            seed,
        }
    }

    /// A small, fully-streaming session for tests and examples.
    pub fn small(n: usize, fanout: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            n,
            fanout,
            parity_interval: fanout.saturating_sub(1).max(1),
            content: ContentDesc::small(seed, 200),
            delta: SimDuration::from_millis(20),
            piggyback: Piggyback::FullView,
            data_plane: true,
            guaranteed_coverage: true,
            reply_timeout: SimDuration::from_millis(100),
            reenhance: Reenhance::DataOnly,
            coding: Coding::Xor,
            tail_parity: true,
            repair: None,
            bandwidths: None,
            seed,
        }
    }

    /// A large-population session (n = 10⁴–10⁶, as `large_world` and
    /// `shardcheck` run it): streaming enabled with the small test
    /// content, and [`guaranteed_coverage`](Self::guaranteed_coverage)
    /// off, because both of its extensions are quadratic in n at
    /// population scale:
    ///
    /// - DCoP re-selection happens only on first activation — the
    ///   literal-pseudocode re-selection re-scans the whole population
    ///   on *every* control packet;
    /// - TCoP probing follows the paper's "if C = φ stop" literally —
    ///   persistent probing keeps re-probing already-claimed peers, and
    ///   measured event counts grow ∝ n² (0.9M events at n=10³, 14.9M
    ///   at n=4·10³).
    ///
    /// The trade is a tiny probabilistic tail of unreached peers
    /// (~0.03% at n = 10⁵) instead of guaranteed total coverage; the
    /// `shardcheck` gate pins coverage ≥ 99.5%.
    pub fn large(n: usize, fanout: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            guaranteed_coverage: false,
            ..SessionConfig::small(n, fanout, seed)
        }
    }

    /// A live-plane session (real sockets, wall clock) at loopback
    /// scale. Starts from [`SessionConfig::large`] — the quadratic
    /// guaranteed-coverage extensions stay off, for the same reasons —
    /// and adapts the timing knobs to wall-clock hosting:
    ///
    /// - `reply_timeout` is relaxed: on a loaded box, scheduling jitter
    ///   between a probe and its reply can exceed the simulator's
    ///   100 ms budget, which would spuriously re-probe;
    /// - NACK repair is on: kernel receive-queue overflow is real
    ///   (counted by `net.rx_dropped`) and repair closes the stream
    ///   despite it, exactly as over lossy links.
    ///
    /// Frame-size note: a UDP datagram caps a frame at ~64 KiB. The
    /// old fixed bit-vector piggyback (n/8 bytes in every request and
    /// control packet) bounded live sessions around n ≈ 4·10³. The
    /// adaptive codec removed that wall: a view frame costs at most
    /// `min(members·varint, runs·2·varint, n/8) + 6` bytes, so the
    /// worst case is the dense bitmap at n/8 — live n = 10⁴ peaks near
    /// 1.25 KiB per view and stays datagram-safe up to n ≈ 5·10⁵.
    pub fn live(n: usize, fanout: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            reply_timeout: SimDuration::from_millis(250),
            repair: Some(RepairConfig {
                check_interval: SimDuration::from_millis(150),
                fanout: fanout.min(n),
                max_rounds: 40,
            }),
            ..SessionConfig::large(n, fanout, seed)
        }
    }

    /// The configuration a host of `protocol` runs: validated, and with
    /// the one protocol-dependent rule applied — the unicast chain is
    /// DCoP with fan-out 1. Every session host (simulated, multi-leaf,
    /// live) starts here, so `Unicast` cannot silently run with fan-out
    /// `H`.
    pub fn normalized(mut self, protocol: Protocol) -> SessionConfig {
        self.validate();
        if protocol == Protocol::Unicast {
            self.fanout = 1;
        }
        self
    }

    /// Validate invariants; panics with a descriptive message when the
    /// configuration is inconsistent.
    pub fn validate(&self) {
        assert!(self.n >= 1, "need at least one contents peer");
        assert!(
            self.fanout >= 1 && self.fanout <= self.n,
            "fanout H={} must be in 1..=n={}",
            self.fanout,
            self.n
        );
        assert!(self.parity_interval >= 1, "parity interval h must be >= 1");
        if let Coding::Rs { r } = self.coding {
            assert!(r >= 1, "RS needs at least one parity row");
            assert!(
                self.parity_interval + r as usize <= 255,
                "RS segment exceeds GF(256)"
            );
        }
        assert!(self.content.packets >= 1, "empty content");
        assert!(self.delta > SimDuration::ZERO, "delta must be positive");
        if let Some(b) = &self.bandwidths {
            assert_eq!(b.len(), self.n, "bandwidths must cover all n peers");
            assert!(b.iter().all(|&x| x > 0), "zero-bandwidth peer");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        SessionConfig::paper_eval(60, 1).validate();
        SessionConfig::small(10, 3, 2).validate();
    }

    #[test]
    fn paper_eval_uses_h_equals_fanout_minus_one() {
        let c = SessionConfig::paper_eval(60, 1);
        assert_eq!(c.parity_interval, 59);
        assert_eq!(c.n, 100);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn validate_rejects_fanout_above_n() {
        let mut c = SessionConfig::small(5, 3, 1);
        c.fanout = 6;
        c.validate();
    }

    #[test]
    fn protocol_names_are_distinct() {
        let mut names: Vec<&str> = Protocol::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), Protocol::ALL.len());
    }
}
