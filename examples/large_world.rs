//! Large world — activate and stream a 10⁵-peer session on the sharded
//! parallel kernel, and print the numbers behind the scaling claim:
//! events/sec, peak RSS, and per-shard load imbalance.
//!
//! ```text
//! cargo run --release --example large_world [n] [shards] [protocol]
//! ```
//!
//! Defaults: `n = 100_000`, `shards = available cores`, `protocol =
//! dcop`. `shards = 1` runs the classic single-threaded kernel for an
//! honest baseline. The run is deterministic for a fixed `(seed,
//! shards)` pair; the event-stream digest printed at the end is the
//! reproducibility fingerprint. The outcome's rounds must agree with
//! the peers' own reports on every shard count (see
//! [`assert_rounds_agree`]). This is the simulated substrate's
//! per-point measuring tool; `scripts/mem_profile.sh` records a run in
//! `results/bench_history.jsonl`.

use mss::core::prelude::*;
use std::time::Instant;

/// Nonzero per-kind control-byte counters (codec-exact wire bytes).
fn kind_bytes_of(m: &mss::sim::metrics::Metrics) -> Vec<(&'static str, u64)> {
    mss::core::metrics::COORD_BYTES_TX_KINDS
        .iter()
        .filter_map(|&id| {
            let (name, v) = (id.name(), m.counter_id(id));
            (v > 0).then_some((name.rsplit('.').next().unwrap_or(name), v))
        })
        .collect()
}

/// The rounds the merged metrics report against the deepest wave the
/// peers report: DCoP's rounds are that wave, TCoP counts three rounds
/// per probe wave and probes no deeper than its tree. A merge that adds
/// the shards' maxima instead of taking the largest fails here.
fn assert_rounds_agree(protocol: Protocol, rounds: u32, reports: &[PeerReport]) {
    let deepest = reports.iter().filter_map(|r| r.wave).max().unwrap_or(0);
    match protocol {
        Protocol::Tcop => assert!(
            rounds / 3 <= deepest,
            "{rounds} rounds for a deepest wave of {deepest}"
        ),
        _ => assert_eq!(rounds, deepest, "rounds against the deepest wave"),
    }
}

/// Peak resident set (`VmHWM`) in bytes, from procfs; `None` off Linux.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("n must be a number"))
        .unwrap_or(100_000);
    let shards: usize = args
        .next()
        .map(|a| a.parse().expect("shards must be a number"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let protocol = match args.next().as_deref().unwrap_or("dcop") {
        "dcop" => Protocol::Dcop,
        "tcop" => Protocol::Tcop,
        other => panic!("unknown protocol {other:?} (want dcop or tcop)"),
    };

    let cfg = SessionConfig::large(n, 8, 42);
    println!(
        "activating + streaming: {} with n={n}, H={}, {shards} shard(s)",
        protocol.name(),
        cfg.fanout
    );
    let start = Instant::now();
    let (outcome, events, digest, stats, kind_bytes, reports) = if shards <= 1 {
        let (outcome, world, reports) = Session::new(cfg, protocol).run_with_world();
        let kinds = kind_bytes_of(world.metrics());
        (
            outcome,
            world.events_dispatched(),
            None,
            Vec::new(),
            kinds,
            reports,
        )
    } else {
        let (outcome, world, reports) = Session::new(cfg, protocol)
            .shards(shards)
            .run_with_sharded_world();
        let kinds = kind_bytes_of(world.metrics());
        (
            outcome,
            world.events_dispatched(),
            Some(world.event_digest()),
            world.shard_stats(),
            kinds,
            reports,
        )
    };
    let wall = start.elapsed().as_secs_f64();

    let coverage = outcome.activated as f64 / n as f64;
    println!(
        "peers activated     : {}/{n} ({:.2}%)",
        outcome.activated,
        coverage * 100.0
    );
    println!("stream complete     : {}", outcome.complete);
    println!("sync rounds         : {}", outcome.rounds);
    println!("events dispatched   : {events}");
    // Two byte views of the same control traffic: the paper-model cost
    // (fixed bitmap formulas, keeps figures comparable) and the
    // codec-exact bytes actually framed (adaptive views).
    println!(
        "coord bytes (model) : {:.1} MiB",
        outcome.coord_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "coord bytes (wire)  : {:.1} MiB",
        outcome.coord_bytes_tx as f64 / (1 << 20) as f64
    );
    for (kind, bytes) in &kind_bytes {
        println!(
            "  {:<10}: {:>12} bytes ({:.1}%)",
            kind,
            bytes,
            100.0 * *bytes as f64 / outcome.coord_bytes_tx.max(1) as f64
        );
    }
    println!("wall clock          : {wall:.2} s");
    println!(
        "events/sec          : {:.0}",
        events as f64 / wall.max(1e-9)
    );
    if let Some(rss) = peak_rss_bytes() {
        println!(
            "peak RSS            : {:.1} MiB",
            rss as f64 / (1 << 20) as f64
        );
    }
    if let Some(d) = digest {
        println!("event digest        : {d:016x}");
    }
    if !stats.is_empty() {
        let max = stats.iter().map(|s| s.dispatched).max().unwrap_or(0);
        let mean = events as f64 / stats.len() as f64;
        println!(
            "shard load          : max/mean = {:.3} ({} shards, {} windows)",
            max as f64 / mean.max(1e-9),
            stats.len(),
            stats.first().map_or(0, |s| s.windows),
        );
        for s in &stats {
            println!(
                "  shard {:>2}: {:>8} actors, {:>10} events, {:>8} cross-sent",
                s.shard, s.actors, s.dispatched, s.cross_sent
            );
        }
    }
    // Activation-only reselection (`SessionConfig::large`) trades the
    // paper's quadratic every-control reselection for a tiny
    // probabilistic tail of unreached peers; near-total coverage is the
    // contract at this scale.
    assert!(
        coverage >= 0.995,
        "coverage collapsed at scale: {}/{n}",
        outcome.activated
    );
    assert_rounds_agree(protocol, outcome.rounds, &reports);
}
