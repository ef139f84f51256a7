//! The same protocol state machines, running on real worker threads, a
//! wall clock and UDP loopback sockets instead of the simulator — hosted
//! by `LiveSession`.
//!
//! Without an argument: DCoP at n = 8, first on clean links, then with
//! 3 % of every peer's sends dropped and NACK repair closing the gaps.
//! With a population (`-- 10000`): one `SessionConfig::live(n, 8, 7)`
//! session per coordination protocol on one and on two workers, to
//! read the wire off — how many frames each datagram carried (bundle
//! fill), drops, decode errors, whether every send crossed the wire —
//! and the host: hosted wall time (setup included, the settle grace
//! excluded), `net.sent` per hosted second, the paper's rounds and
//! Figure 12's receipt rate (the received volume over the content) as
//! the simulator summarises them, the share of packets the leaf
//! completed, the largest receive and send batches, how many frames
//! were copied from a fan-out's record instead of encoded (tx) or
//! answered from a body a worker had already decoded (rx), and how busy
//! each worker was. This is the live plane's per-population measuring tool.
//!
//! ```text
//! cargo run --release --example live_session [-- n]
//! ```

use std::time::{Duration, Instant};

use mss::core::prelude::*;
use mss::net::runtime::SETTLE;
use mss::net::{names, LiveOutcome, LiveSession};

/// Frames ÷ datagrams on each side of the wire.
fn bundle_fill(out: &LiveOutcome) -> String {
    let m = &out.metrics;
    let fill = |frames, datagrams| {
        let (f, d) = (m.counter(frames), m.counter(datagrams));
        format!(
            "{f} frames / {d} datagrams = {:.1}",
            f as f64 / d.max(1) as f64
        )
    };
    format!(
        "tx {}, rx {}",
        fill(names::TX_FRAMES, names::TX_DATAGRAMS),
        fill(names::RX_FRAMES, names::RX_DATAGRAMS)
    )
}

/// Frames written or parsed once per fan-out, as shares of each side's
/// frames, and each worker's busy time ÷ `time_to_done`.
fn host_load(out: &LiveOutcome) -> String {
    let m = &out.metrics;
    let share = |shared, frames| {
        let (s, f) = (m.counter(shared), m.counter(frames));
        format!("{s} of {f} ({:.1} %)", 100.0 * s as f64 / f.max(1) as f64)
    };
    let busy: Vec<String> = out
        .worker_busy
        .iter()
        .map(|b| {
            let ratio = out
                .time_to_done
                .map_or(f64::NAN, |d| b.as_secs_f64() / d.as_secs_f64());
            format!("{ratio:.2}")
        })
        .collect();
    format!(
        "bodies shared: tx {}, rx {}; busy / time_to_done per worker [{}]",
        share(names::TX_BODIES_SHARED, names::TX_FRAMES),
        share(names::RX_BODIES_SHARED, names::RX_FRAMES),
        busy.join(", ")
    )
}

fn small_demo() {
    let mut cfg = SessionConfig::small(8, 3, 7);
    cfg.content = ContentDesc::small(3, 120);
    cfg.repair = Some(mss::core::config::RepairConfig::default());
    println!(
        "live session: {} peers + leaf, {} packets (~{:.0} ms of stream)\n",
        cfg.n,
        cfg.content.packets,
        cfg.content.duration_secs() * 1e3
    );

    for (label, loss) in [("clean links  ", 0.0), ("3% send loss ", 0.03)] {
        let t0 = Instant::now();
        let out = LiveSession::new(cfg.clone(), Protocol::Dcop, Duration::from_millis(2500))
            .loss(loss)
            .run()
            .expect("live session");
        println!(
            "{label}: activated {}/{} peers, complete={}, missing={}, \
             {} coordination msgs, {} sends dropped ({:.0} ms wall)\n               {}",
            out.outcome.activated,
            cfg.n,
            out.outcome.complete,
            out.outcome.leaf_missing,
            out.outcome.coord_msgs_total,
            out.metrics.counter(names::TX_DROPPED),
            t0.elapsed().as_secs_f64() * 1e3,
            bundle_fill(&out)
        );
        assert!(out.outcome.complete, "live session failed to stream");
    }
    println!("\nsame protocol code as the simulator — swap the Runtime, keep the state machines.");
}

fn population(n: usize) {
    println!("live sessions at n = {n} (H = 8, loopback UDP)\n");
    for (protocol, workers) in [Protocol::Dcop, Protocol::Tcop]
        .into_iter()
        .flat_map(|p| [(p, 1), (p, 2)])
    {
        let cfg = SessionConfig::live(n, 8, 7);
        let packets = cfg.content.packets;
        let budget = Duration::from_millis(8_000 + 40 * n as u64);
        let start = Instant::now();
        let out = LiveSession::new(cfg, protocol, budget)
            .workers(workers)
            .run()
            .expect("live session");
        // Hosted time: setup and teardown included, the fixed settle
        // grace after a completion signal excluded.
        let settle = if out.time_to_done.is_some() {
            SETTLE
        } else {
            Duration::ZERO
        };
        let hosted = start.elapsed().saturating_sub(settle).as_secs_f64();
        let m = &out.metrics;
        let sent = m.counter(mss::sim::metrics::NET_SENT);
        let crossed = sent == m.counter(names::TX_FRAMES) + m.counter(names::TX_DROPPED);
        let completed =
            packets.saturating_sub(out.outcome.leaf_missing) as f64 / packets.max(1) as f64;
        println!(
            "{:<5} on {workers} worker(s): activated {}/{n}, complete={}, done in {:.0} ms, \
             {} coordination msgs, {} rounds\n       \
             hosted {:.0} ms, {:.0} net.sent/s, receipt rate {:.4}, \
             completed share {completed:.4}, batch max rx {} tx {}\n       \
             {}\n       rx_dropped {}, rx_decode_err {}, \
             net.sent = tx_frames + tx_dropped: {crossed}\n       {}",
            protocol.name(),
            out.outcome.activated,
            out.outcome.complete,
            out.time_to_done.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3),
            out.outcome.coord_msgs_total,
            out.outcome.rounds,
            hosted * 1e3,
            sent as f64 / hosted.max(1e-9),
            out.outcome.receipt_volume_ratio,
            m.counter(names::RX_BATCH_MAX),
            m.counter(names::TX_BATCH_MAX),
            bundle_fill(&out),
            m.counter(names::RX_DROPPED),
            m.counter(names::RX_DECODE_ERR),
            host_load(&out),
        );
        assert!(out.outcome.complete, "live session failed to stream");
    }
}

fn main() {
    match std::env::args().nth(1) {
        None => small_demo(),
        Some(n) => population(n.parse().expect("population must be a number")),
    }
}
