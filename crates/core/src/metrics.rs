//! Metric names recorded during a session and the consolidated
//! [`SessionOutcome`] the harness consumes.
//!
//! The names and their `const` slot ids are declared, with their merge
//! kind, in `mss_sim::metrics`' one table (its `session` group) and
//! re-exported here.

pub use mss_sim::metrics::session::*;
use mss_sim::metrics::MetricId;

use crate::config::Protocol;
use crate::msg::{ControlKind, Msg};

/// Per-kind breakdown of [`COORD_BYTES_TX`]: which message kinds carry
/// the control bytes.
pub const COORD_BYTES_TX_KINDS: [MetricId; 9] = [
    COORD_BYTES_TX_REQUEST_ID,
    COORD_BYTES_TX_ACTIVATE_ID,
    COORD_BYTES_TX_PROBE_ID,
    COORD_BYTES_TX_COMMIT_ID,
    COORD_BYTES_TX_ANNOUNCE_ID,
    COORD_BYTES_TX_REPLY_ID,
    COORD_BYTES_TX_TWOPHASE_ID,
    COORD_BYTES_TX_ASSIGN_ID,
    COORD_BYTES_TX_NACK_ID,
];

/// Slot of a coordination message's per-kind byte counter, one of
/// [`COORD_BYTES_TX_KINDS`].
///
/// # Panics
///
/// On [`Msg::Data`] — data packets are not coordination traffic and
/// never reach the coordination send paths.
pub fn coord_bytes_tx_kind_id(msg: &Msg) -> MetricId {
    match msg {
        Msg::Request(_) => COORD_BYTES_TX_REQUEST_ID,
        Msg::Control(c) => match c.body.kind {
            ControlKind::Activate => COORD_BYTES_TX_ACTIVATE_ID,
            ControlKind::Probe => COORD_BYTES_TX_PROBE_ID,
            ControlKind::Commit => COORD_BYTES_TX_COMMIT_ID,
            ControlKind::Announce => COORD_BYTES_TX_ANNOUNCE_ID,
        },
        Msg::Reply(_) => COORD_BYTES_TX_REPLY_ID,
        Msg::TwoPhase(_) => COORD_BYTES_TX_TWOPHASE_ID,
        Msg::Assign(_) => COORD_BYTES_TX_ASSIGN_ID,
        Msg::Nack(_) => COORD_BYTES_TX_NACK_ID,
        Msg::Data(_) => unreachable!("data packets are not coordination traffic"),
    }
}

/// Consolidated result of one session run.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionOutcome {
    /// Which protocol ran.
    pub protocol: Protocol,
    /// Population size `n`.
    pub n: usize,
    /// Fan-out `H`.
    pub fanout: usize,
    /// Synchronization rounds, per the paper's counting (see
    /// `session::rounds_of_metrics`).
    pub rounds: u32,
    /// Coordination messages until every peer had started transmitting.
    pub coord_msgs_until_active: u64,
    /// Coordination messages over the whole run (incl. post-activation
    /// probing/flooding).
    pub coord_msgs_total: u64,
    /// Bytes of coordination traffic over the whole run, under the
    /// paper model ([`COORD_BYTES`]; feeds the Figure 10/11 series).
    pub coord_bytes: u64,
    /// Coordination bytes actually transmitted: exact codec frames with
    /// adaptive views ([`COORD_BYTES_TX`]).
    pub coord_bytes_tx: u64,
    /// Equal to [`coord_bytes_tx`](Self::coord_bytes_tx)
    /// ([`COORD_BYTES_FULL`]).
    pub coord_bytes_full: u64,
    /// Contents peers that activated (coverage; should equal `n`).
    pub activated: u64,
    /// Nanoseconds from session start to the last activation.
    pub sync_nanos: u64,
    /// Aggregate steady-state send rate of all active peers divided by
    /// the content rate — the paper's Figure 12 quantity, computed from
    /// the converged schedules.
    pub receipt_rate_analytic: f64,
    /// Same quantity measured from actual arrivals at the leaf (None when
    /// the data plane is disabled or too little arrived to measure).
    pub receipt_rate_measured: Option<f64>,
    /// Total payload bytes the leaf accepted divided by the content size —
    /// the volume form of Figure 12's receipt rate (1.0 = no redundancy;
    /// robust to ramp-up/tail effects that skew the mean-rate estimate).
    pub receipt_volume_ratio: f64,
    /// Data packets the leaf accepted.
    pub leaf_accepted: u64,
    /// Packets carrying nothing new (duplicate/already-decoded content).
    pub leaf_duplicates: u64,
    /// Packets dropped by the leaf's `ρ_s` overrun gate.
    pub leaf_overruns: u64,
    /// True when the leaf reconstructed every data packet byte-exactly.
    pub complete: bool,
    /// Nanoseconds to full reconstruction, when complete.
    pub complete_nanos: Option<u64>,
    /// Data packets recovered via parity rather than received directly.
    pub recovered_via_parity: u64,
    /// Data packets never reconstructed (0 when `complete`).
    pub leaf_missing: u64,
    /// Total data messages sent by peers.
    pub data_msgs: u64,
}

impl SessionOutcome {
    /// Messages per peer until activation — a normalized efficiency
    /// figure.
    pub fn msgs_per_peer(&self) -> f64 {
        self.coord_msgs_until_active as f64 / self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msgs_per_peer_normalizes() {
        let o = SessionOutcome {
            protocol: Protocol::Dcop,
            n: 100,
            fanout: 10,
            rounds: 2,
            coord_msgs_until_active: 500,
            coord_msgs_total: 700,
            coord_bytes: 10_000,
            coord_bytes_tx: 8_000,
            coord_bytes_full: 9_000,
            activated: 100,
            sync_nanos: 1,
            receipt_rate_analytic: 1.0,
            receipt_rate_measured: None,
            receipt_volume_ratio: 0.0,
            leaf_accepted: 0,
            leaf_duplicates: 0,
            leaf_overruns: 0,
            complete: false,
            complete_nanos: None,
            recovered_via_parity: 0,
            leaf_missing: 0,
            data_msgs: 0,
        };
        assert!((o.msgs_per_peer() - 5.0).abs() < 1e-12);
    }
}
