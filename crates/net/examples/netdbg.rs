use mss_core::prelude::*;
use mss_net::LiveSession;
use std::time::Duration;

fn main() {
    let mut cfg = SessionConfig::small(6, 2, 77);
    cfg.content = ContentDesc::small(5, 60);
    let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_millis(1500))
        .run()
        .expect("live session");
    println!(
        "activated={} complete={} missing={}",
        out.activated, out.complete, out.missing
    );
    for (k, v) in out.metrics.counters() {
        println!("  {k} = {v}");
    }
    for r in &out.reports {
        println!(
            "  {:?} active={} sent={} sched={} iv={}",
            r.me, r.active, r.sent, r.sched_len, r.interval_nanos
        );
    }
}
