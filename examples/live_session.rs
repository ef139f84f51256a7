//! The same DCoP state machines, running on real worker threads, a wall
//! clock and UDP loopback sockets instead of the simulator — hosted by
//! `LiveSession`, first on clean links, then with 3 % of every peer's
//! sends dropped and NACK repair closing the gaps.
//!
//! ```text
//! cargo run --release --example live_session
//! ```

use std::time::{Duration, Instant};

use mss::core::prelude::*;
use mss::net::LiveSession;

fn main() {
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
             {} coordination msgs, {} sends dropped ({:.0} ms wall)",
            out.activated,
            cfg.n,
            out.complete,
            out.missing,
            out.coord_msgs,
            out.metrics.counter(mss::net::names::TX_DROPPED),
            t0.elapsed().as_secs_f64() * 1e3
        );
        assert!(out.complete, "live session failed to stream");
    }
    println!("\nsame protocol code as the simulator — swap the Runtime, keep the state machines.");
}
