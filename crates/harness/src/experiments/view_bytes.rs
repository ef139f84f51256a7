//! Control-plane byte curves: what the view piggyback costs per peer
//! per round under two accountings of the *same* session —
//!
//! - **model**: the paper-model fixed bitmap (`n/8` bytes in every
//!   view-bearing packet, the pre-adaptive wire format),
//! - **wire**: the adaptive codec (sparse varint / run-length / dense,
//!   whichever is smallest) — the bytes actually framed on the wire.
//!
//! Both are metered simultaneously by the send paths (`coord.bytes`,
//! `coord.bytes_tx`), so one deterministic session per point yields the
//! whole curve; nothing is re-simulated per accounting.

use mss_core::prelude::*;

use super::{ExperimentOutput, RunOpts};
use crate::table::{f, Table};

/// One measured session under the two byte accountings.
#[derive(Clone, Debug)]
pub struct BytesPoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Population size.
    pub n: usize,
    /// Synchronisation rounds the session took.
    pub rounds: u64,
    /// Paper-model bytes (fixed `n/8` bitmap per view).
    pub model: u64,
    /// Adaptive codec — the real wire bytes.
    pub wire: u64,
}

impl BytesPoint {
    /// Bytes per peer per round under an accounting.
    pub fn per_peer_round(&self, bytes: u64) -> f64 {
        bytes as f64 / (self.n as f64 * self.rounds.max(1) as f64)
    }
}

/// The population grid: 10² to 10⁴ by default, 10⁵ with `--full`.
pub fn population_grid(full: bool) -> Vec<usize> {
    let mut g = vec![100, 1_000, 10_000];
    if full {
        g.push(100_000);
    }
    g
}

/// Run one deterministic session and read the two byte meters.
pub fn measure(protocol: Protocol, n: usize) -> BytesPoint {
    let cfg = SessionConfig::large(n, 8, 42);
    let outcome = Session::new(cfg, protocol).run();
    BytesPoint {
        protocol,
        n,
        rounds: u64::from(outcome.rounds),
        model: outcome.coord_bytes,
        wire: outcome.coord_bytes_tx,
    }
}

/// Run the byte-accounting sweep.
pub fn run(opts: &RunOpts) -> ExperimentOutput {
    let mut t = Table::new(
        "Control bytes per peer per round — fixed bitmap vs adaptive (H=8)",
        &[
            "protocol",
            "n",
            "rounds",
            "model_B",
            "wire_B",
            "model_B_ppr",
            "wire_B_ppr",
            "adaptive_cut",
        ],
    );
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for &n in &population_grid(opts.full) {
            let p = measure(protocol, n);
            eprintln!(
                "[view_bytes] {} n={}: model {} B, wire {} B",
                protocol.name(),
                n,
                p.model,
                p.wire
            );
            t.push(vec![
                protocol.name().to_owned(),
                n.to_string(),
                p.rounds.to_string(),
                p.model.to_string(),
                p.wire.to_string(),
                f(p.per_peer_round(p.model), 1),
                f(p.per_peer_round(p.wire), 1),
                f(p.model as f64 / p.wire.max(1) as f64, 2),
            ]);
        }
    }
    ExperimentOutput {
        name: "view_bytes",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_wire_beats_the_fixed_bitmap() {
        // At n=1000 the adaptive encodings must beat the fixed bitmap
        // overall, on both protocols.
        for protocol in [Protocol::Dcop, Protocol::Tcop] {
            let p = measure(protocol, 1_000);
            assert!(p.model > 0 && p.rounds > 0);
            assert!(
                p.wire < p.model,
                "{protocol:?}: adaptive must beat the fixed bitmap"
            );
        }
    }

    #[test]
    fn grid_is_sane() {
        assert_eq!(population_grid(false), vec![100, 1_000, 10_000]);
        assert!(population_grid(true).contains(&100_000));
    }
}
