//! Live-plane scaling: thousands of real peers on loopback UDP, hosted
//! by `LiveSession` (simulator worlds on a wall clock, bundled
//! datagrams, `recvmmsg`/`sendmmsg` batching).
//!
//! Each point hosts one [`SessionConfig::live`] session over real
//! sockets, cold start to completed stream, and reports messages per
//! second over the hosting time (total wall-clock minus the fixed
//! post-completion settle grace). Setup — binding the workers'
//! sockets, building the peers — is deliberately inside the measured
//! window. The `done_s` column additionally reports the in-session
//! latency (start signal → leaf done), which excludes setup. Each point
//! also reports the leaf receipt rate and the batching/overflow counters
//! the runtime exposes, including bundle fill (frames per datagram) on
//! both sides of the wire. The best of [`REPS`] repetitions per point is
//! kept. Timing rows run strictly sequentially; `--threads` is ignored
//! here.
//!
//! The default grid tops out at n = 2·10³; `--full` adds n = 4·10³ —
//! the old fixed-bitmap piggyback frame bound — and n = 10⁴, which only
//! became hostable once the adaptive view codec shrank control frames (a fixed bitmap at n = 10⁴ cost 1.25 KB in
//! *every* request and control packet).

use std::time::{Duration, Instant};

use mss_core::prelude::*;
use mss_net::LiveSession;

use super::{ExperimentOutput, RunOpts};
use crate::table::{f, Table};

/// Repetitions per point; the best is kept.
pub const REPS: usize = 2;

/// One measured live run.
#[derive(Clone, Debug)]
pub struct LivePoint {
    /// Protocol measured.
    pub protocol: Protocol,
    /// Population size.
    pub n: usize,
    /// Cold-start hosting seconds: whole-run wall-clock minus the fixed
    /// post-completion settle grace (setup and teardown included).
    pub wall_s: f64,
    /// Seconds from session start to the leaf's done signal — the
    /// in-session latency, setup excluded (falls back to `wall_s` on
    /// deadline).
    pub done_s: f64,
    /// Messages sent across all peers (`net.sent`).
    pub msgs: u64,
    /// Messages per second over the cold-start hosting window.
    pub events_per_sec: f64,
    /// Peers activated (must equal `n`).
    pub activated: usize,
    /// Leaf finished streaming.
    pub complete: bool,
    /// Fraction of content packets the leaf reconstructed.
    pub receipt_rate: f64,
    /// Largest `recvmmsg` batch observed.
    pub rx_batch_max: u64,
    /// Largest `sendmmsg` batch observed.
    pub tx_batch_max: u64,
    /// Kernel receive-queue drops (`net.rx_dropped`), in datagrams.
    pub rx_dropped: u64,
    /// Bundle fill on the send side: frames per datagram
    /// (`net.tx_frames / net.tx_datagrams`).
    pub tx_fill: f64,
    /// Bundle fill on the receive side (`net.rx_frames / net.rx_datagrams`).
    pub rx_fill: f64,
}

/// The population grid: up to 2·10³ by default; `--full` adds 4·10³
/// (the old fixed-bitmap frame bound) and 10⁴ (adaptive views only).
pub fn population_grid(full: bool) -> Vec<usize> {
    let mut g = vec![100, 250, 500, 1_000, 2_000];
    if full {
        g.push(4_000);
        g.push(10_000);
    }
    g
}

/// Wall-clock budget for one run: generous, because completion is
/// signaled — a finished session returns immediately, only a stuck one
/// pays the whole budget.
pub fn wall_budget(n: usize) -> Duration {
    Duration::from_millis(8_000 + 40 * n as u64)
}

/// Host one `(protocol, n)` session and measure it.
pub fn measure(protocol: Protocol, n: usize) -> LivePoint {
    let cfg = SessionConfig::live(n, 8, 42);
    let packets = cfg.content.packets;
    let start = Instant::now();
    let outcome = LiveSession::new(cfg, protocol, wall_budget(n))
        .run()
        .expect("live session I/O");
    // The settle grace only runs after a completion signal; subtract it
    // so the metric is hosting time, not a fixed sleep.
    let settled = outcome.time_to_done.is_some();
    let wall_s = (start.elapsed().as_secs_f64()
        - if settled {
            mss_net::runtime::SETTLE.as_secs_f64()
        } else {
            0.0
        })
    .max(1e-9);
    let done_s = outcome
        .time_to_done
        .map_or(wall_s, |d| d.as_secs_f64().max(1e-9));
    let msgs = outcome.metrics.counter("net.sent");
    let fill = |frames, datagrams| {
        outcome.metrics.counter(frames) as f64 / outcome.metrics.counter(datagrams).max(1) as f64
    };
    LivePoint {
        protocol,
        n,
        wall_s,
        done_s,
        msgs,
        events_per_sec: msgs as f64 / wall_s,
        activated: outcome.activated,
        complete: outcome.complete,
        receipt_rate: (packets.saturating_sub(outcome.missing as u64)) as f64
            / packets.max(1) as f64,
        rx_batch_max: outcome.metrics.counter("net.rx_batch_max"),
        tx_batch_max: outcome.metrics.counter("net.tx_batch_max"),
        rx_dropped: outcome.metrics.counter("net.rx_dropped"),
        tx_fill: fill(mss_net::names::TX_FRAMES, mss_net::names::TX_DATAGRAMS),
        rx_fill: fill(mss_net::names::RX_FRAMES, mss_net::names::RX_DATAGRAMS),
    }
}

/// Keep the better of two repetitions: completion first, then fuller
/// activation, then lower hosting time.
fn better(a: LivePoint, b: LivePoint) -> LivePoint {
    if a.complete != b.complete {
        return if a.complete { a } else { b };
    }
    if a.activated != b.activated {
        return if a.activated > b.activated { a } else { b };
    }
    if a.wall_s <= b.wall_s {
        a
    } else {
        b
    }
}

fn push_point(t: &mut Table, p: &LivePoint) {
    t.push(vec![
        p.protocol.name().to_owned(),
        p.n.to_string(),
        f(p.wall_s, 3),
        f(p.done_s, 3),
        p.msgs.to_string(),
        f(p.events_per_sec, 0),
        p.activated.to_string(),
        p.complete.to_string(),
        f(p.receipt_rate, 4),
        p.rx_batch_max.to_string(),
        p.tx_batch_max.to_string(),
        p.rx_dropped.to_string(),
        f(p.tx_fill, 1),
        f(p.rx_fill, 1),
    ]);
}

/// Run the live-plane population sweep.
pub fn run(opts: &RunOpts) -> ExperimentOutput {
    let mut t = Table::new(
        "Live loopback scaling — one world per worker (H=8)",
        &[
            "protocol",
            "n",
            "wall_s",
            "done_s",
            "msgs",
            "events_per_sec",
            "activated",
            "complete",
            "receipt_rate",
            "rx_batch_max",
            "tx_batch_max",
            "rx_dropped",
            "tx_frames_per_datagram",
            "rx_frames_per_datagram",
        ],
    );
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        for &n in &population_grid(opts.full) {
            let best = (0..REPS)
                .map(|_| {
                    let p = measure(protocol, n);
                    eprintln!(
                        "[live_scale] {} n={}: hosted {:.2}s, {:.0} msgs/s, complete={}",
                        protocol.name(),
                        n,
                        p.wall_s,
                        p.events_per_sec,
                        p.complete
                    );
                    p
                })
                .reduce(better)
                .expect("REPS >= 1");
            push_point(&mut t, &best);
        }
    }
    ExperimentOutput {
        name: "live_scale",
        tables: vec![t],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_live_point_completes() {
        let p = measure(Protocol::Dcop, 24);
        assert_eq!(p.activated, 24);
        assert!(p.complete);
        assert!(p.msgs > 0);
        assert!(p.receipt_rate > 0.999);
    }

    fn point(complete: bool, activated: usize, wall_s: f64) -> LivePoint {
        LivePoint {
            protocol: Protocol::Dcop,
            n: 8,
            wall_s,
            done_s: wall_s * 0.5,
            msgs: 10,
            events_per_sec: 10.0 / wall_s,
            activated,
            complete,
            receipt_rate: if complete { 1.0 } else { 0.5 },
            rx_batch_max: 0,
            tx_batch_max: 0,
            rx_dropped: 0,
            tx_fill: 1.0,
            rx_fill: 1.0,
        }
    }

    #[test]
    fn grids_and_budgets_are_sane() {
        assert_eq!(population_grid(false), vec![100, 250, 500, 1_000, 2_000]);
        assert!(population_grid(true).contains(&4_000));
        assert!(population_grid(true).contains(&10_000));
        assert!(wall_budget(1_000) >= Duration::from_secs(40));
        // Completion beats speed; fuller activation beats speed; then
        // the faster repetition wins.
        assert!(better(point(true, 8, 2.0), point(false, 8, 1.0)).complete);
        assert_eq!(
            better(point(true, 8, 2.0), point(true, 7, 1.0)).activated,
            8
        );
        assert_eq!(better(point(true, 8, 2.0), point(true, 8, 1.0)).wall_s, 1.0);
    }
}
