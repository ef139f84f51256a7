//! Metric names recorded during a session and the consolidated
//! [`SessionOutcome`] the harness consumes.

use std::sync::OnceLock;

use mss_sim::metrics::MetricId;

use crate::config::Protocol;

/// Every coordination message sent (requests, controls, probes, replies,
/// commits) — the quantity on Figures 10/11's dotted lines.
pub const COORD_MSGS: &str = "coord.msgs";
/// Bytes of coordination messages under the *paper model* (fixed
/// `n/8`-byte view bitmaps, field-count estimates — `Msg::model_size`).
/// Kept as the historical accounting so the Figure 10/11 series stay
/// comparable across revisions; [`COORD_BYTES_TX`] carries the bytes a
/// codec actually puts on the wire.
pub const COORD_BYTES: &str = "coord.bytes";
/// Bytes of coordination traffic as actually transmitted: exact codec
/// frame lengths with adaptive view encodings (`Msg::wire_size`).
pub const COORD_BYTES_TX: &str = "coord.bytes_tx";
/// Written with the [`COORD_BYTES_TX`] value: every view travels as a
/// full frame, so "priced as full" is what was transmitted. Kept for
/// readers that compare both series.
pub const COORD_BYTES_FULL: &str = "coord.bytes_full";
/// Snapshot of [`COORD_MSGS`] taken at each first-activation; its final
/// value is the message count *until all peers started transmitting*.
/// A world advances it by what it sent since its previous snapshot, so
/// merged over a run's worlds it reads the sum of their snapshots.
pub const COORD_MSGS_AT_ACTIVATION: &str = "coord.msgs_at_activation";
/// Number of contents peers that activated.
pub const COORD_ACTIVATIONS: &str = "coord.activations";
/// Maximum activation wave (DCoP/broadcast/unicast rounds).
pub const COORD_MAX_WAVE: &str = "coord.max_wave";
/// Maximum probe wave executed (TCoP; one wave = 3 protocol rounds).
pub const COORD_PROBE_WAVES: &str = "coord.probe_waves";
/// Snapshot of [`COORD_PROBE_WAVES`] at each first-activation: probe
/// waves needed *to synchronize*, excluding post-activation retries.
pub const COORD_PROBE_WAVES_AT_ACTIVATION: &str = "coord.probe_waves_at_activation";
/// Virtual time (nanos) of the last first-activation.
pub const COORD_LAST_ACTIVATION_NANOS: &str = "coord.last_activation_nanos";
/// Fixed round count for protocols with a constant-round structure
/// (centralized 2PC = 3).
pub const COORD_FIXED_ROUNDS: &str = "coord.fixed_rounds";

/// Data packets sent by contents peers.
pub const DATA_MSGS: &str = "data.msgs";

/// NACK rounds the leaf sent.
pub const REPAIR_ROUNDS: &str = "repair.rounds";
/// NACKs served by contents peers.
pub const REPAIR_REQUESTS: &str = "repair.requests";
/// Data packets retransmitted in answer to NACKs.
pub const REPAIR_PACKETS: &str = "repair.packets";

/// Virtual time (nanos) at which the leaf held every data packet.
pub const LEAF_COMPLETE_NANOS: &str = "leaf.complete_nanos";

/// Control packets whose kind the receiving protocol does not handle
/// (e.g. an `Announce` reaching a DCoP peer). Such packets are dropped —
/// this counter makes the drop observable instead of silently treating
/// the packet as whatever kind the handler expected.
pub const COORD_UNEXPECTED_KIND: &str = "coord.unexpected_kind";

mss_sim::metric_ids! {
    coord_msgs_id => COORD_MSGS;
    coord_bytes_id => COORD_BYTES;
    coord_bytes_tx_id => COORD_BYTES_TX;
    coord_bytes_full_id => COORD_BYTES_FULL;
    coord_msgs_at_activation_id => COORD_MSGS_AT_ACTIVATION;
    coord_activations_id => COORD_ACTIVATIONS;
    coord_max_wave_id => COORD_MAX_WAVE;
    coord_probe_waves_id => COORD_PROBE_WAVES;
    coord_probe_waves_at_activation_id => COORD_PROBE_WAVES_AT_ACTIVATION;
    coord_last_activation_nanos_id => COORD_LAST_ACTIVATION_NANOS;
    coord_fixed_rounds_id => COORD_FIXED_ROUNDS;
    coord_unexpected_kind_id => COORD_UNEXPECTED_KIND;
    data_msgs_id => DATA_MSGS;
    repair_rounds_id => REPAIR_ROUNDS;
    repair_requests_id => REPAIR_REQUESTS;
    repair_packets_id => REPAIR_PACKETS;
    leaf_complete_nanos_id => LEAF_COMPLETE_NANOS;
}

/// Per-kind breakdown of [`COORD_BYTES_TX`]: which message kinds carry
/// the control bytes. Indexed by [`coord_kind_index`].
pub const COORD_BYTES_TX_KINDS: [&str; 9] = [
    "coord.bytes_tx.request",
    "coord.bytes_tx.activate",
    "coord.bytes_tx.probe",
    "coord.bytes_tx.commit",
    "coord.bytes_tx.announce",
    "coord.bytes_tx.reply",
    "coord.bytes_tx.twophase",
    "coord.bytes_tx.assign",
    "coord.bytes_tx.nack",
];

/// Index of a coordination message into [`COORD_BYTES_TX_KINDS`].
///
/// # Panics
///
/// On [`crate::msg::Msg::Data`] — data packets are not coordination
/// traffic and never reach the coordination send paths.
pub fn coord_kind_index(msg: &crate::msg::Msg) -> usize {
    use crate::msg::{ControlKind, Msg};
    match msg {
        Msg::Request(_) => 0,
        Msg::Control(c) => match c.body.kind {
            ControlKind::Activate => 1,
            ControlKind::Probe => 2,
            ControlKind::Commit => 3,
            ControlKind::Announce => 4,
        },
        Msg::Reply(_) => 5,
        Msg::TwoPhase(_) => 6,
        Msg::Assign(_) => 7,
        Msg::Nack(_) => 8,
        Msg::Data(_) => unreachable!("data packets are not coordination traffic"),
    }
}

/// Interned slot id for a coordination message's per-kind byte counter.
pub fn coord_bytes_tx_kind_id(msg: &crate::msg::Msg) -> MetricId {
    static IDS: OnceLock<[MetricId; 9]> = OnceLock::new();
    let ids = IDS.get_or_init(|| COORD_BYTES_TX_KINDS.map(mss_sim::metrics::register));
    ids[coord_kind_index(msg)]
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
