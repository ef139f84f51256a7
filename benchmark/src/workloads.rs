//! The four workloads: input generation from `(seed, workload, round)`,
//! running one session on its host (single world, sharded world, live
//! UDP), and the per-session output checks.
//!
//! The program under test receives only the generated `SessionConfig`s;
//! the benchmark seed never reaches it directly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mss::core::config::{Piggyback, Protocol, Reenhance, RepairConfig, SessionConfig};
use mss::core::leaf::LeafActor;
use mss::core::metrics as mnames;
use mss::core::metrics::SessionOutcome;
use mss::core::session::{rounds_of_metrics, Session};
use mss::harness::experiments::{fanout_grid, fig12::rate_grid};
use mss::media::ContentDesc;
use mss::net::bus::SETTLE;
use mss::net::LiveSession;
use mss::overlay::PeerId;
use mss::sim::event::ActorId;
use mss::sim::metrics::Metrics;
use mss::sim::shard::ShardStats;
use mss::sim::time::SimDuration;

use crate::trace::Tracer;

/// Shard count of the sharded workload. Fixed, not `nproc`: the event
/// stream is defined per `(seed, shards)`, and two workers are the most
/// this benchmark may keep runnable.
pub const SHARDS: usize = 2;

/// Share of `n` that must activate for a sim session to pass (the
/// `shardcheck` gate's floor; `SessionConfig::large` trades ~0.03 %).
const MIN_ACTIVATED: f64 = 0.995;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    PaperSweep,
    StreamVideo,
    Scale1e5,
    Live1e4,
}

/// What hosts a workload's sessions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Host {
    Single,
    Sharded,
    Live,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperSweep,
        Workload::StreamVideo,
        Workload::Scale1e5,
        Workload::Live1e4,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::StreamVideo => "stream_video",
            Workload::Scale1e5 => "scale_1e5",
            Workload::Live1e4 => "live_1e4",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn host(self) -> Host {
        match self {
            Workload::PaperSweep | Workload::StreamVideo => Host::Single,
            Workload::Scale1e5 => Host::Sharded,
            Workload::Live1e4 => Host::Live,
        }
    }

    /// Rounds run before timing starts; they are part of `setup_s`.
    /// `scale_1e5` has none at full size: its set-up is the n=10⁴
    /// determinism pair, which warms the same code, and a 10⁵-peer
    /// warm-up would cost a third of the run for a ~2 % first-round
    /// effect that the median round time does not see anyway.
    pub fn warmup_rounds(self) -> u64 {
        match self {
            Workload::PaperSweep => 3,
            Workload::StreamVideo => 5,
            Workload::Scale1e5 => 0,
            Workload::Live1e4 => 1,
        }
    }

    /// The first this-many timed rounds always run, whatever `--seconds`
    /// says, and the model metrics are taken over exactly them — so for a
    /// fixed seed they repeat exactly on the sim workloads however many
    /// further rounds the time budget allows.
    pub fn model_rounds(self) -> u64 {
        match self {
            Workload::PaperSweep => 24,
            Workload::StreamVideo => 60,
            Workload::Scale1e5 => 2,
            Workload::Live1e4 => 4,
        }
    }

    /// Population of the workload's sessions (`smoke` scales the two big
    /// ones to 10³).
    pub fn n(self, smoke: bool) -> usize {
        match self {
            Workload::PaperSweep | Workload::StreamVideo => 100,
            Workload::Scale1e5 if smoke => 1_000,
            Workload::Scale1e5 => 100_000,
            Workload::Live1e4 if smoke => 1_000,
            Workload::Live1e4 => 10_000,
        }
    }
}

/// One generated session: everything the program under test is given.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    pub cfg: SessionConfig,
    pub protocol: Protocol,
    /// Crash-stop this contents peer at this simulated time.
    pub crash: Option<(SimDuration, PeerId)>,
    /// Simulated-time limit of the run.
    pub limit: Option<SimDuration>,
}

impl SessionSpec {
    fn plain(cfg: SessionConfig, protocol: Protocol) -> SessionSpec {
        SessionSpec {
            cfg,
            protocol,
            crash: None,
            limit: None,
        }
    }

    /// The library's own builder for this spec.
    pub fn session(&self) -> Session {
        let mut s = Session::new(self.cfg.clone(), self.protocol);
        if let Some((at, peer)) = self.crash {
            s = s.fault(at, peer);
        }
        if let Some(limit) = self.limit {
            s = s.time_limit(limit);
        }
        s
    }
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Session seed `k` of round `round` of `workload` under benchmark seed
/// `seed`: a chained mix, so neighbouring seeds, rounds and workloads
/// share no session seed.
pub fn derive_seed(seed: u64, workload: Workload, round: u64, k: u64) -> u64 {
    let name = workload
        .name()
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
    [name, round, k].iter().fold(mix(seed), |h, &x| mix(h ^ x))
}

/// The sessions of one round, in the order they run: the DCoP half, then
/// the TCoP half on the same configurations.
pub fn round_inputs(w: Workload, seed: u64, round: u64, smoke: bool) -> Vec<SessionSpec> {
    let n = w.n(smoke);
    let mut specs = Vec::new();
    for protocol in [Protocol::Dcop, Protocol::Tcop] {
        let mut k = 0u64;
        let mut next_seed = || {
            k += 1;
            derive_seed(seed, w, round, k)
        };
        match w {
            Workload::PaperSweep => {
                // Figures 10/11: coordination only, h = 1, full views.
                for fanout in fanout_grid(false) {
                    let mut cfg = SessionConfig::paper_eval(fanout, next_seed());
                    cfg.parity_interval = 1;
                    cfg.piggyback = Piggyback::FullView;
                    specs.push(SessionSpec::plain(cfg, protocol));
                }
                // Figure 12: data plane on, per-protocol settings as in
                // `fig12::sweep`.
                for fanout in rate_grid(false) {
                    let s = next_seed();
                    let mut cfg = SessionConfig::paper_eval(fanout, s);
                    cfg.data_plane = true;
                    cfg.content = ContentDesc::small(mix(s), 600);
                    if protocol == Protocol::Tcop {
                        cfg.piggyback = Piggyback::SelectionsOnly;
                    } else {
                        cfg.reenhance = Reenhance::None;
                    }
                    specs.push(SessionSpec {
                        limit: Some(SimDuration::from_secs(60)),
                        ..SessionSpec::plain(cfg, protocol)
                    });
                }
            }
            Workload::StreamVideo => {
                let s = next_seed();
                let mut cfg = SessionConfig::small(n, 8, s);
                cfg.content = ContentDesc::video_30mbps(mix(s), 8);
                cfg.repair = Some(RepairConfig::default());
                specs.push(SessionSpec {
                    crash: Some((
                        SimDuration::from_secs(2),
                        PeerId((mix(s) % n as u64) as u32),
                    )),
                    ..SessionSpec::plain(cfg, protocol)
                });
            }
            Workload::Scale1e5 => {
                let cfg = SessionConfig::large(n, 8, next_seed());
                specs.push(SessionSpec::plain(cfg, protocol));
            }
            Workload::Live1e4 => {
                let cfg = SessionConfig::live(n, 8, next_seed());
                specs.push(SessionSpec::plain(cfg, protocol));
            }
        }
    }
    specs
}

/// Counters only a live session has.
#[derive(Clone, Copy, Default, Debug)]
pub struct LiveStats {
    /// Hosting time minus `time_to_done`: sockets, threads, 10⁴ peers.
    pub setup_s: f64,
    pub done_s: f64,
    pub sent: u64,
    pub rx_batches: u64,
    pub rx_datagrams: u64,
    pub tx_batches: u64,
    pub tx_datagrams: u64,
    pub rx_dropped: u64,
    pub rx_decode_err: u64,
    pub mailbox_hwm: u64,
    pub view_resync_fallbacks: u64,
    pub mmsg_active: bool,
}

/// Counters only a sharded session has.
#[derive(Clone, Debug, Default)]
pub struct ShardSummary {
    pub stats: Vec<ShardStats>,
    pub digest: u64,
    pub sent: u64,
}

/// What one session produced, whichever host ran it.
#[derive(Clone, Debug)]
pub struct SessionResult {
    pub protocol: Protocol,
    pub n: usize,
    pub data_plane: bool,
    /// Host wall time charged to the round: run plus teardown on the sim
    /// hosts, hosting time (wall − `SETTLE`) on the live host.
    pub wall: Duration,
    /// Why the session failed, if it did.
    pub failed: Option<String>,
    /// The library's own outcome (sim hosts only).
    pub outcome: Option<SessionOutcome>,
    /// Time to the leaf's full reconstruction, ms — simulated on the sim
    /// hosts, wall on the live host; `None` without a data plane.
    pub stream_done_ms: Option<f64>,
    pub coord_msgs_until_active: u64,
    pub coord_msgs: u64,
    pub coord_bytes_tx: u64,
    pub rounds: u32,
    pub data_msgs: u64,
    pub packets: u64,
    pub activated: u64,
    pub leaf_accepted: u64,
    pub recovered: u64,
    pub repair_rounds: u64,
    /// Events dispatched (0 on the live host).
    pub events: u64,
    pub queue_high_water: usize,
    pub shard: Option<ShardSummary>,
    pub live: Option<LiveStats>,
}

impl SessionResult {
    fn failed(spec: &SessionSpec, wall: Duration, why: String) -> SessionResult {
        SessionResult {
            failed: Some(why),
            ..SessionResult::blank(spec, wall)
        }
    }

    /// The fields the spec alone decides; everything measured is zero.
    fn blank(spec: &SessionSpec, wall: Duration) -> SessionResult {
        SessionResult {
            protocol: spec.protocol,
            n: spec.cfg.n,
            data_plane: spec.cfg.data_plane,
            wall,
            failed: None,
            outcome: None,
            stream_done_ms: None,
            coord_msgs_until_active: 0,
            coord_msgs: 0,
            coord_bytes_tx: 0,
            rounds: 0,
            data_msgs: 0,
            packets: spec.cfg.content.packets,
            activated: 0,
            leaf_accepted: 0,
            recovered: 0,
            repair_rounds: 0,
            events: 0,
            queue_high_water: 0,
            shard: None,
            live: None,
        }
    }

    /// A sim-host result from the library's outcome and the finished
    /// world's leaf and metrics.
    fn from_sim(
        spec: &SessionSpec,
        outcome: SessionOutcome,
        leaf: &LeafActor,
        metrics: &Metrics,
    ) -> SessionResult {
        let cfg = &spec.cfg;
        let mut why = Vec::new();
        if (outcome.activated as f64) < MIN_ACTIVATED * cfg.n as f64 {
            why.push(format!(
                "only {} of {} peers activated",
                outcome.activated, cfg.n
            ));
        }
        if cfg.data_plane {
            if !outcome.complete {
                why.push("leaf did not complete (or hit the time limit first)".to_owned());
            }
            if outcome.leaf_missing > 0 {
                why.push(format!("leaf_missing = {}", outcome.leaf_missing));
            }
            if !leaf.payloads_verified() {
                why.push("payloads_verified failed".to_owned());
            }
        }
        SessionResult {
            failed: (!why.is_empty()).then(|| why.join("; ")),
            stream_done_ms: outcome.complete_nanos.map(|ns| ns as f64 / 1e6),
            coord_msgs_until_active: outcome.coord_msgs_until_active,
            coord_msgs: outcome.coord_msgs_total,
            coord_bytes_tx: outcome.coord_bytes_tx,
            rounds: outcome.rounds,
            data_msgs: outcome.data_msgs,
            activated: outcome.activated,
            leaf_accepted: outcome.leaf_accepted,
            recovered: outcome.recovered_via_parity,
            repair_rounds: metrics.counter("repair.rounds"),
            outcome: Some(outcome),
            ..SessionResult::blank(spec, Duration::ZERO)
        }
    }
}

/// Wall-clock budget of one live session: generous, because completion
/// is signalled — only a stuck session pays it (then it fails).
fn live_budget(n: usize) -> Duration {
    Duration::from_millis(8_000 + 2 * n as u64)
}

/// Run one session on `host` and check its outputs. With a tracer the
/// sim hosts run the decorated world instead of `Session`'s; `round` is
/// then the enclosing round span.
pub fn run_session(
    spec: &SessionSpec,
    host: Host,
    tracer: Option<(&mut Tracer, u32)>,
) -> SessionResult {
    let started = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| match host {
        Host::Single => run_single(spec, tracer),
        Host::Sharded => run_sharded(spec, tracer),
        Host::Live => run_live(spec),
    }));
    run.unwrap_or_else(|_| {
        SessionResult::failed(
            spec,
            started.elapsed(),
            "panicked (message on stderr)".to_owned(),
        )
    })
}

fn run_single(spec: &SessionSpec, mut tracer: Option<(&mut Tracer, u32)>) -> SessionResult {
    let t = Instant::now();
    let (outcome, world, reports) = match &mut tracer {
        None => spec.session().run_with_world(),
        Some((tr, round)) => tr.run_with_world(*round, spec),
    };
    let ran = t.elapsed();
    // Output checks are the benchmark's work, not the program's: off the clock.
    let leaf: &LeafActor = world
        .actor_as(ActorId(spec.cfg.n as u32))
        .expect("leaf actor");
    let mut r = SessionResult::from_sim(spec, outcome, leaf, world.metrics());
    r.events = world.events_dispatched();
    r.queue_high_water = world.queue_high_water();
    // Teardown is what `Session::run` would have paid before returning.
    let t = Instant::now();
    match tracer {
        None => drop((world, reports)),
        Some((tr, _)) => tr.finish_session(world, reports),
    }
    r.wall = ran + t.elapsed();
    r
}

fn run_sharded(spec: &SessionSpec, mut tracer: Option<(&mut Tracer, u32)>) -> SessionResult {
    let t = Instant::now();
    let (outcome, world, reports) = match &mut tracer {
        None => spec.session().shards(SHARDS).run_with_sharded_world(),
        Some((tr, round)) => tr.run_with_sharded_world(*round, spec, SHARDS),
    };
    let ran = t.elapsed();
    let leaf: &LeafActor = world
        .actor_as(ActorId(spec.cfg.n as u32))
        .expect("leaf actor");
    let mut r = SessionResult::from_sim(spec, outcome, leaf, world.metrics());
    r.events = world.events_dispatched();
    r.shard = Some(ShardSummary {
        stats: world.shard_stats(),
        digest: world.event_digest(),
        sent: world.metrics().counter(mss::sim::metrics::NET_SENT),
    });
    let t = Instant::now();
    match tracer {
        None => drop((world, reports)),
        Some((tr, _)) => tr.finish_session(world, reports),
    }
    r.wall = ran + t.elapsed();
    r
}

fn run_live(spec: &SessionSpec) -> SessionResult {
    let cfg = &spec.cfg;
    let t = Instant::now();
    // One worker plus the poll thread: two runnable threads.
    let live = LiveSession::new(cfg.clone(), spec.protocol, live_budget(cfg.n)).workers(1);
    let out = match live.run() {
        Ok(out) => out,
        Err(e) => {
            return SessionResult::failed(spec, t.elapsed(), format!("live session I/O: {e}"))
        }
    };
    let total = t.elapsed();
    // The settle grace is a fixed sleep after the done signal, not hosting.
    let hosting = match out.time_to_done {
        Some(_) => total.saturating_sub(SETTLE),
        None => total,
    };
    let m = &out.metrics;
    let rx_decode_err = m.counter("net.rx_decode_err");
    let mut why = Vec::new();
    if out.time_to_done.is_none() {
        why.push("hit its wall limit".to_owned());
    }
    if !out.complete || out.missing > 0 {
        why.push(format!("leaf incomplete, missing = {}", out.missing));
    }
    if rx_decode_err > 0 {
        why.push(format!("net.rx_decode_err = {rx_decode_err}"));
    }
    let done = out.time_to_done.unwrap_or(hosting);
    SessionResult {
        wall: hosting,
        failed: (!why.is_empty()).then(|| why.join("; ")),
        stream_done_ms: out.time_to_done.map(|d| d.as_secs_f64() * 1e3),
        coord_msgs_until_active: out.coord_msgs,
        coord_msgs: out.coord_msgs,
        coord_bytes_tx: m.counter(mnames::COORD_BYTES_TX),
        rounds: rounds_of_metrics(m, spec.protocol),
        data_msgs: m.counter(mnames::DATA_MSGS),
        activated: out.activated as u64,
        repair_rounds: m.counter("repair.rounds"),
        live: Some(LiveStats {
            setup_s: hosting.saturating_sub(done).as_secs_f64(),
            done_s: done.as_secs_f64(),
            sent: m.counter(mss::sim::metrics::NET_SENT),
            rx_batches: m.counter("net.rx_batches"),
            rx_datagrams: m.counter("net.rx_datagrams"),
            tx_batches: m.counter("net.tx_batches"),
            tx_datagrams: m.counter("net.tx_datagrams"),
            rx_dropped: m.counter("net.rx_dropped"),
            rx_decode_err,
            mailbox_hwm: m.counter("net.mailbox_hwm"),
            view_resync_fallbacks: m.counter("net.view_resync_fallbacks"),
            mmsg_active: m.counter("net.mmsg_active") == 1,
        }),
        ..SessionResult::blank(spec, hosting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_derive_from_seed_workload_round_and_index() {
        let base = derive_seed(1, Workload::PaperSweep, 0, 1);
        assert_eq!(
            base,
            derive_seed(1, Workload::PaperSweep, 0, 1),
            "same inputs, same seed"
        );
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8 {
            for w in Workload::ALL {
                for round in 0..8 {
                    for k in 1..=4 {
                        assert!(
                            seen.insert(derive_seed(seed, w, round, k)),
                            "collision at seed {seed} {} round {round} k {k}",
                            w.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rounds_hold_the_dcop_half_then_the_tcop_half_on_the_same_configs() {
        for (w, sessions) in [
            (Workload::PaperSweep, 78),
            (Workload::StreamVideo, 2),
            (Workload::Scale1e5, 2),
            (Workload::Live1e4, 2),
        ] {
            let round = round_inputs(w, 3, 7, false);
            assert_eq!(round.len(), sessions, "{}", w.name());
            let (dcop, tcop) = round.split_at(sessions / 2);
            assert!(dcop.iter().all(|s| s.protocol == Protocol::Dcop));
            assert!(tcop.iter().all(|s| s.protocol == Protocol::Tcop));
            for (d, t) in dcop.iter().zip(tcop) {
                assert_eq!(
                    (d.cfg.seed, d.cfg.n, d.cfg.fanout),
                    (t.cfg.seed, t.cfg.n, t.cfg.fanout)
                );
                assert_eq!(d.cfg.content, t.cfg.content);
                assert_eq!(d.crash, t.crash);
                d.cfg.validate();
            }
            // The same (seed, workload, round) gives the same inputs;
            // another round or seed gives others.
            let again = round_inputs(w, 3, 7, false);
            assert!(round
                .iter()
                .zip(&again)
                .all(|(a, b)| a.cfg.seed == b.cfg.seed));
            assert_ne!(round[0].cfg.seed, round_inputs(w, 3, 8, false)[0].cfg.seed);
            assert_ne!(round[0].cfg.seed, round_inputs(w, 4, 7, false)[0].cfg.seed);
            assert_eq!(round[0].cfg.n, w.n(false));
        }
        assert_eq!(round_inputs(Workload::Scale1e5, 1, 0, true)[0].cfg.n, 1_000);
        assert_eq!(round_inputs(Workload::Live1e4, 1, 0, true)[0].cfg.n, 1_000);
    }

    #[test]
    fn a_failing_session_is_reported_not_hidden() {
        // Three peers at fan-out 1 under a time limit far too short to
        // stream: the leaf cannot complete.
        let mut spec = round_inputs(Workload::StreamVideo, 1, 0, false).remove(0);
        spec.limit = Some(SimDuration::from_millis(5));
        let r = run_session(&spec, Host::Single, None);
        let why = r.failed.expect("an incomplete stream must fail");
        assert!(why.contains("did not complete"), "{why}");
    }
}
