//! Session builder and runner: the crate's main entry point.
//!
//! A [`Session`] wires a leaf and `n` contents peers of the chosen
//! [`Protocol`] into an [`mss_sim`] world, optionally injects crash-stop
//! faults, runs to quiescence, and distills a [`SessionOutcome`] — the
//! row format of every figure in the paper's evaluation.
//!
//! ```
//! use mss_core::prelude::*;
//!
//! let cfg = SessionConfig::small(10, 3, 42);
//! let outcome = Session::new(cfg, Protocol::Dcop).run();
//! assert_eq!(outcome.activated, 10);
//! assert!(outcome.complete);
//! ```

use std::ops::Range;
use std::sync::Arc;

use mss_media::buffer::OverrunGate;
use mss_overlay::{Directory, PeerId};
use mss_sim::event::ActorId;
use mss_sim::link::{JitterLatency, LinkModel};
use mss_sim::prelude::*;
use mss_sim::shard::ShardedWorld;
use mss_sim::world::{ActorGroup, World};

use crate::baselines::{BroadcastPeer, CentralizedPeer, SchedulePeer};
use crate::config::{Protocol, SessionConfig};
use crate::dcop::DcopPeer;
use crate::leaf::LeafActor;
use crate::metrics as mnames;
use crate::metrics::SessionOutcome;
use crate::msg::Msg;
use crate::peer_core::PeerReport;
use crate::plane::{Plane, PlanePeer};
use crate::tcop::TcopPeer;

/// Crash-stop fault injector: kills listed peers at listed times.
struct FaultInjector {
    faults: Vec<(SimDuration, ActorId)>,
}

impl Actor<Msg> for FaultInjector {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        for (i, (at, _)) in self.faults.iter().enumerate() {
            ctx.set_timer(*at, i as u64);
        }
    }
    fn on_message(&mut self, _: &mut dyn Runtime<Msg>, _: ActorId, _: Msg) {}
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, _: TimerId, tag: u64) {
        let (_, target) = self.faults[tag as usize];
        ctx.kill(target);
    }
    mss_sim::impl_as_any!();
}

/// Builds a fresh instance of the session's link for each world (each
/// shard of a sharded run), so stateful models stay thread-local.
type LinkFactory = Box<dyn Fn() -> Box<dyn LinkModel + Send>>;

pub(crate) fn default_link() -> JitterLatency {
    JitterLatency {
        base: SimDuration::from_millis(1),
        jitter: SimDuration::from_millis(1),
    }
}

/// Builder for one streaming session.
pub struct Session {
    cfg: SessionConfig,
    protocol: Protocol,
    link: LinkFactory,
    gate: Option<OverrunGate>,
    faults: Vec<(SimDuration, PeerId)>,
    limit: SimTime,
    shards: usize,
}

impl Session {
    /// A session with the default link: 1–2 ms one-way latency (the
    /// paper's "reliable high-speed" channels, with enough jitter that
    /// concurrent probes do not arrive in artificial lockstep).
    pub fn new(cfg: SessionConfig, protocol: Protocol) -> Session {
        Session {
            cfg: cfg.normalized(protocol),
            protocol,
            link: Box::new(|| Box::new(default_link())),
            gate: None,
            faults: Vec::new(),
            limit: SimTime::MAX,
            shards: 1,
        }
    }

    /// Replace the network model. `link` is the prototype of every
    /// world's link: each shard of a sharded run gets its own clone, so
    /// stateful models stay thread-local, and a single-world run clones
    /// it once (an unused clone behaves exactly like the original). Its
    /// [`LinkModel::min_latency`] is the sharded run's synchronization
    /// lookahead; a link whose minimum latency is zero always runs on
    /// one world.
    pub fn link(mut self, link: impl LinkModel + Clone + Send + 'static) -> Session {
        self.link = Box::new(move || Box::new(link.clone()));
        self
    }

    /// Split the session across `shards` worker threads (1 = a single
    /// world, the default). Sharded runs are deterministic per
    /// `(seed, shards)` pair but not stream-identical across different
    /// shard counts; `run()` stays on one world when the link's
    /// [`LinkModel::min_latency`] is zero, since no lookahead exists to
    /// synchronize shards on (see [`Session::link`]).
    pub fn shards(mut self, shards: usize) -> Session {
        self.shards = shards.max(1);
        self
    }

    /// Bound the leaf's receipt rate `ρ_s` with an overrun gate.
    pub fn gate(mut self, gate: OverrunGate) -> Session {
        self.gate = Some(gate);
        self
    }

    /// Crash contents peer `peer` at time `at`.
    pub fn fault(mut self, at: SimDuration, peer: PeerId) -> Session {
        self.faults.push((at, peer));
        self
    }

    /// Stop the simulation at `limit` even if events remain.
    pub fn time_limit(mut self, limit: SimDuration) -> Session {
        self.limit = SimTime::ZERO + limit;
        self
    }

    /// Run to quiescence and summarize. Dispatches to the sharded world
    /// when more than one shard was requested and the link has a
    /// positive minimum latency, and to a single world otherwise — so
    /// existing callers keep the bit-for-bit single-world event stream.
    pub fn run(self) -> SessionOutcome {
        if self.shards > 1 && (self.link)().min_latency() > SimDuration::ZERO {
            self.run_with_sharded_world().0
        } else {
            self.run_with_world().0
        }
    }

    /// Run and also hand back the world for deeper inspection. Always
    /// uses the single-threaded world (ignoring [`Session::shards`]);
    /// use [`Session::run_with_sharded_world`] for the parallel kernel.
    pub fn run_with_world(self) -> (SessionOutcome, World<Msg>, Vec<PeerReport>) {
        self.run_on_one_world(1)
    }

    /// [`Session::run_with_world`] with the peers split into `blocks`
    /// [`Plane`]s of [`shard_blocks`] on the one world. Every split gives
    /// the same run, since plane scratch never reaches behaviour (see
    /// [`crate::plane`]); the tests compare one plane with a plane per
    /// peer.
    fn run_on_one_world(self, blocks: usize) -> (SessionOutcome, World<Msg>, Vec<PeerReport>) {
        let p = self.into_parts(blocks);
        let mut world: World<Msg> = World::new((p.link)(), p.cfg.seed);
        world.reserve_events(p.reserve);
        for (members, group) in p.actors.blocks {
            world.add_group(members, group);
        }
        let leaf_id = world.add_actor(p.actors.leaf);
        debug_assert_eq!(leaf_id, p.dir.leaf());
        if let Some(injector) = p.actors.injector {
            world.add_actor(injector);
        }
        world.run_until(p.limit);

        let reports = peer_reports(&world, p.protocol, &p.dir);
        let leaf: &LeafActor = world.actor_as(p.dir.leaf()).expect("leaf actor");
        let outcome = summarize(world.metrics(), leaf, p.protocol, &p.cfg, &reports);
        (outcome, world, reports)
    }

    /// Run on the sharded parallel kernel and hand back the sharded
    /// world for deeper inspection.
    ///
    /// Peers are block-partitioned into contiguous id ranges, one
    /// [`Plane`] slab per shard; the leaf and the fault injector live on
    /// shard 0. The synchronization lookahead is the link model's
    /// [`LinkModel::min_latency`].
    ///
    /// # Panics
    /// If more than one shard runs and the link's minimum latency is
    /// zero (no conservative lookahead exists; [`Session::run`] stays on
    /// one world instead).
    pub fn run_with_sharded_world(self) -> (SessionOutcome, ShardedWorld<Msg>, Vec<PeerReport>) {
        let shards = self.shards.clamp(1, self.cfg.n);
        let p = self.into_parts(shards);
        let lookahead = (p.link)().min_latency();
        let mut world: ShardedWorld<Msg> =
            ShardedWorld::new(shards, lookahead, p.cfg.seed, |_k| (p.link)());
        world.reserve_events(p.reserve);
        let leaf_id = p.actors.register(&mut world);
        debug_assert_eq!(leaf_id, p.dir.leaf());
        world.run_until(p.limit);

        let reports = sharded_peer_reports(&world, p.protocol, &p.dir);
        let leaf: &LeafActor = world.actor_as(p.dir.leaf()).expect("leaf actor");
        let outcome = summarize(world.metrics(), leaf, p.protocol, &p.cfg, &reports);
        (outcome, world, reports)
    }

    /// The worlds of a live session on `workers` workers (at most one
    /// per peer): this session's actors registered exactly as
    /// [`Session::run_with_sharded_world`] registers them, and handed
    /// out by [`ShardedWorld::into_live_worlds`], so every send is
    /// staged for the host to carry. The link, time limit and
    /// [`Session::shards`] are the host's business and are ignored.
    pub fn into_live_worlds(self, workers: usize) -> Vec<World<Msg>> {
        let workers = workers.clamp(1, self.cfg.n);
        let p = self.into_parts(workers);
        let mut world = ShardedWorld::live(workers, p.cfg.seed);
        let leaf_id = p.actors.register(&mut world);
        debug_assert_eq!(leaf_id, p.dir.leaf());
        world.into_live_worlds()
    }

    /// The one place a session becomes actors: a [`Plane`] of contents
    /// peers for each block of `shard_blocks(n, shards)` (one shard is
    /// the single world), the leaf, and the crash injector if any fault
    /// was asked for. Every kernel registers exactly these, in this
    /// order.
    fn into_parts(self, shards: usize) -> Parts {
        let Session {
            cfg,
            protocol,
            link,
            gate,
            faults,
            limit,
            shards: _,
        } = self;
        let dir = Arc::new(Directory::dense(cfg.n));
        let blocks = shard_blocks(cfg.n, shards)
            .windows(2)
            .map(|w| plane(protocol, w[0]..w[1], &dir, &cfg))
            .collect();
        let leaf = Box::new(LeafActor::new(cfg.clone(), protocol, dir.clone(), gate));
        let injector = (!faults.is_empty()).then(|| -> Box<dyn Actor<Msg>> {
            let faults = faults
                .iter()
                .map(|(at, p)| (*at, dir.actor_of(*p)))
                .collect();
            Box::new(FaultInjector { faults })
        });
        Parts {
            // Each data packet is at least one send + one delivery event,
            // plus per-peer timer churn; pre-reserving avoids repeated
            // growth of the event queue during the streaming phase.
            reserve: cfg.content.packets as usize * 2 + cfg.n * 8,
            cfg,
            protocol,
            link,
            limit,
            dir,
            actors: Actors {
                blocks,
                leaf,
                injector,
            },
        }
    }
}

/// The contents peers one block hosts: a [`Plane`] group and its
/// member count.
pub(crate) type Hosted = (usize, Box<dyn ActorGroup<Msg>>);

impl Actors {
    /// Register on a sharded world: shard k hosts block k (global ids
    /// stay dense because the blocks go in ascending order), shard 0 the
    /// leaf and the injector. Returns the leaf's id.
    fn register(self, world: &mut ShardedWorld<Msg>) -> ActorId {
        for (k, (members, group)) in self.blocks.into_iter().enumerate() {
            world.add_group(k, members, group);
        }
        let leaf = world.add_actor(0, self.leaf);
        if let Some(injector) = self.injector {
            world.add_actor(0, injector);
        }
        leaf
    }
}

/// The `protocol` contents peers of `block`, as one [`Plane`].
pub(crate) fn plane(
    protocol: Protocol,
    block: Range<usize>,
    dir: &Arc<Directory>,
    cfg: &SessionConfig,
) -> Hosted {
    match protocol {
        Protocol::Dcop | Protocol::Unicast => plane_of(DcopPeer::new, block, dir, cfg),
        Protocol::Tcop => plane_of(TcopPeer::new, block, dir, cfg),
        Protocol::Broadcast => plane_of(BroadcastPeer::new, block, dir, cfg),
        Protocol::Centralized => plane_of(CentralizedPeer::new, block, dir, cfg),
        Protocol::LeafSchedule => plane_of(SchedulePeer::new, block, dir, cfg),
    }
}

/// The peers of `block`, built by `new`, as one [`Plane`].
fn plane_of<P: PlanePeer>(
    new: fn(PeerId, Arc<Directory>, SessionConfig) -> P,
    block: Range<usize>,
    dir: &Arc<Directory>,
    cfg: &SessionConfig,
) -> Hosted {
    let members: Vec<P> = block
        .map(|p| new(PeerId(p as u32), dir.clone(), cfg.clone()))
        .collect();
    (members.len(), Box::new(Plane::new(members)))
}

/// A session's actor set (see [`Session::into_parts`]) and what is left
/// of its builder for the kernel: link, time limit, events to reserve.
struct Parts {
    cfg: SessionConfig,
    protocol: Protocol,
    link: LinkFactory,
    limit: SimTime,
    reserve: usize,
    dir: Arc<Directory>,
    actors: Actors,
}

/// The actors of [`Parts`], in registration order.
struct Actors {
    /// One entry per block, in ascending peer-id order.
    blocks: Vec<Hosted>,
    leaf: Box<dyn Actor<Msg>>,
    injector: Option<Box<dyn Actor<Msg>>>,
}

/// Block-partition `n` peers over `shards` shards: `shards + 1` range
/// starts, the first `n % shards` blocks one peer larger so sizes never
/// differ by more than one.
pub fn shard_blocks(n: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let (base, extra) = (n / shards, n % shards);
    let mut starts = Vec::with_capacity(shards + 1);
    let mut at = 0;
    starts.push(0);
    for k in 0..shards {
        at += base + usize::from(k < extra);
        starts.push(at);
    }
    starts
}

/// Downcast a hosted contents peer (behind its [`std::any::Any`] face,
/// a [`Plane`] member) to its report.
fn report_from_any(any: &dyn std::any::Any, protocol: Protocol) -> Option<PeerReport> {
    match protocol {
        Protocol::Dcop | Protocol::Unicast => any.downcast_ref::<DcopPeer>().map(|p| p.report()),
        Protocol::Tcop => any.downcast_ref::<TcopPeer>().map(|p| p.report()),
        Protocol::Broadcast => any.downcast_ref::<BroadcastPeer>().map(|p| p.report()),
        Protocol::Centralized => any.downcast_ref::<CentralizedPeer>().map(|p| p.report()),
        Protocol::LeafSchedule => any.downcast_ref::<SchedulePeer>().map(|p| p.report()),
    }
}

/// Extract every contents peer's report from a finished world.
pub fn peer_reports(world: &World<Msg>, protocol: Protocol, dir: &Directory) -> Vec<PeerReport> {
    collect_reports(|id| world.actor_any(id), protocol, dir)
}

/// Extract every contents peer's report from a finished sharded world.
pub fn sharded_peer_reports(
    world: &ShardedWorld<Msg>,
    protocol: Protocol,
    dir: &Directory,
) -> Vec<PeerReport> {
    collect_reports(|id| world.actor_any(id), protocol, dir)
}

/// Every contents peer's report, in peer order, from any host:
/// `actor_any` resolves an actor id on whichever world holds it (one
/// world, a shard, a live worker, one of a multi-leaf run's sessions).
///
/// # Panics
/// If a peer of `dir` is not found, or is not a `protocol` peer.
pub fn collect_reports<'w>(
    actor_any: impl Fn(ActorId) -> Option<&'w dyn std::any::Any>,
    protocol: Protocol,
    dir: &Directory,
) -> Vec<PeerReport> {
    dir.peers()
        .map(|p| {
            actor_any(dir.actor_of(p))
                .and_then(|a| report_from_any(a, protocol))
                .expect("peer type")
        })
        .collect()
}

/// The paper's round counting per protocol (see crate docs for the
/// interpretation), read off a session's metrics (the single or the
/// sharded world's): activation waves for the flooding protocols, three
/// rounds per probe wave for TCoP, the fixed 2PC count for the
/// centralized baseline.
pub fn rounds_of_metrics(m: &Metrics, protocol: Protocol) -> u32 {
    match protocol {
        Protocol::Tcop => {
            let probe_waves = m.counter(mnames::COORD_PROBE_WAVES_AT_ACTIVATION) as u32;
            if probe_waves == 0 {
                m.counter(mnames::COORD_MAX_WAVE) as u32
            } else {
                3 * probe_waves
            }
        }
        Protocol::Centralized => m.counter(mnames::COORD_FIXED_ROUNDS) as u32,
        _ => m.counter(mnames::COORD_MAX_WAVE) as u32,
    }
}

/// Distill the outcome from the pieces every host produces: the metrics
/// merged over its worlds, the finished leaf, and the peer reports
/// ([`collect_reports`]). The single world, the sharded world and the
/// live host all summarise here.
pub fn summarize(
    m: &Metrics,
    leaf: &LeafActor,
    protocol: Protocol,
    cfg: &SessionConfig,
    reports: &[PeerReport],
) -> SessionOutcome {
    let packet_bits = (cfg.content.packet_bytes * 8) as f64;
    let analytic_bps: f64 = reports
        .iter()
        .filter(|r| r.active && r.interval_nanos != u64::MAX && r.interval_nanos > 0)
        .map(|r| 1e9 / r.interval_nanos as f64 * packet_bits)
        .sum();
    SessionOutcome {
        protocol,
        n: cfg.n,
        fanout: cfg.fanout,
        rounds: rounds_of_metrics(m, protocol),
        coord_msgs_until_active: m.counter(mnames::COORD_MSGS_AT_ACTIVATION),
        coord_msgs_total: m.counter(mnames::COORD_MSGS),
        coord_bytes: m.counter(mnames::COORD_BYTES),
        coord_bytes_tx: m.counter(mnames::COORD_BYTES_TX),
        coord_bytes_full: m.counter(mnames::COORD_BYTES_FULL),
        activated: m.counter(mnames::COORD_ACTIVATIONS),
        sync_nanos: m.counter(mnames::COORD_LAST_ACTIVATION_NANOS),
        receipt_rate_analytic: analytic_bps / cfg.content.rate_bps as f64,
        receipt_rate_measured: leaf
            .measured_bps()
            .map(|bps| bps / cfg.content.rate_bps as f64),
        receipt_volume_ratio: leaf.received_bytes() as f64
            / (cfg.content.packets as f64 * cfg.content.packet_bytes as f64),
        leaf_accepted: leaf.accepted(),
        leaf_duplicates: leaf.duplicates(),
        leaf_overruns: leaf.overruns(),
        complete: leaf.is_complete(),
        complete_nanos: leaf.complete_nanos(),
        recovered_via_parity: leaf.recovered(),
        leaf_missing: leaf.missing_count() as u64,
        data_msgs: m.counter(mnames::DATA_MSGS),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;
    use proptest::prelude::*;

    /// Everything observable of one session on one world with its peers
    /// in `blocks` planes: the peer reports, the full counter table, and
    /// the outcome (its `Debug` covers the float fields exactly).
    fn observe(
        protocol: Protocol,
        n: usize,
        seed: u64,
        faults: &[(u64, u32)],
        blocks: usize,
    ) -> (Vec<PeerReport>, Vec<(String, u64)>, String) {
        let mut cfg = SessionConfig::small(n, 8.min(n), seed);
        cfg.content = ContentDesc::small(seed ^ 0xC0DE, 240);
        let mut session = Session::new(cfg, protocol);
        for &(at_ms, victim) in faults {
            session = session.fault(SimDuration::from_millis(at_ms), PeerId(victim));
        }
        let (outcome, world, reports) = session.run_on_one_world(blocks);
        let counters = world
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        (reports, counters, format!("{outcome:?}"))
    }

    /// One plane over all `n` peers must run exactly as `n` one-peer
    /// planes, each peer with scratch of its own.
    fn assert_one_plane_matches_plane_per_peer(
        protocol: Protocol,
        n: usize,
        seed: u64,
        faults: &[(u64, u32)],
    ) {
        let one = observe(protocol, n, seed, faults, 1);
        let per_peer = observe(protocol, n, seed, faults, n);
        let shape = format!("{protocol:?} n={n} seed={seed} faults={faults:?}");
        assert_eq!(one.0, per_peer.0, "peer reports diverged: {shape}");
        assert_eq!(one.1, per_peer.1, "metric counters diverged: {shape}");
        assert_eq!(one.2, per_peer.2, "outcome diverged: {shape}");
    }

    /// Every protocol, small and large populations, eight seeds each.
    #[test]
    fn one_plane_matches_plane_per_peer_across_protocols_sizes_and_seeds() {
        for protocol in Protocol::ALL {
            for n in [10usize, 100] {
                for seed in 0..8u64 {
                    assert_one_plane_matches_plane_per_peer(protocol, n, seed * 7 + 1, &[]);
                }
            }
        }
    }

    /// Two crashes land mid-coordination and mid-streaming; a killed
    /// member must drop at the same event whatever plane hosts it.
    #[test]
    fn one_plane_matches_plane_per_peer_under_crash_faults() {
        for protocol in Protocol::ALL {
            for n in [10usize, 100] {
                for seed in 0..8u64 {
                    let victim = (seed as u32 % (n as u32 - 1)) + 1;
                    let faults = [(40 + seed * 11, victim), (90, (victim + 3) % n as u32)];
                    assert_one_plane_matches_plane_per_peer(protocol, n, seed * 13 + 5, &faults);
                }
            }
        }
    }

    /// The unicast chain has the deepest activation waves a plane sees.
    #[test]
    fn one_plane_matches_plane_per_peer_for_unicast_chain() {
        for seed in [3u64, 17, 29] {
            assert_one_plane_matches_plane_per_peer(Protocol::Unicast, 24, seed, &[]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary shapes: protocol, population (fan-out capped by
        /// `n`), seed, and an optional crash.
        #[test]
        fn one_plane_matches_plane_per_peer_for_arbitrary_shapes(
            n in 2usize..40,
            seed in any::<u64>(),
            protocol in 0..Protocol::ALL.len(),
            crash in any::<bool>(),
            crash_at in 20u64..120,
            crash_victim in 1u32..40,
        ) {
            let faults: Vec<(u64, u32)> = if crash {
                vec![(crash_at, crash_victim % n as u32)]
            } else {
                Vec::new()
            };
            assert_one_plane_matches_plane_per_peer(Protocol::ALL[protocol], n, seed, &faults);
        }
    }

    /// A live worker's world resolves exactly the ids it hosts, so the
    /// host finds each peer's report on the one world that has it.
    #[test]
    fn live_worlds_resolve_each_id_on_its_hosting_world_only() {
        let n = 24;
        for workers in 1..=3 {
            let worlds = Session::new(SessionConfig::small(n, 4, 5), Protocol::Dcop)
                .into_live_worlds(workers);
            let blocks = shard_blocks(n, workers);
            for id in 0..=n {
                // The leaf, id n, lives on worker 0.
                let host = if id == n {
                    0
                } else {
                    blocks.partition_point(|&start| start <= id) - 1
                };
                for (k, world) in worlds.iter().enumerate() {
                    assert_eq!(world.actor_count(), n + 1);
                    assert_eq!(
                        world.actor_any(ActorId(id as u32)).is_some(),
                        k == host,
                        "id {id} on world {k} of {workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn dcop_small_session_covers_and_completes() {
        let cfg = SessionConfig::small(10, 3, 42);
        let outcome = Session::new(cfg, Protocol::Dcop).run();
        assert_eq!(outcome.activated, 10, "every peer must activate");
        assert!(outcome.complete, "leaf must reconstruct the content");
        assert!(outcome.rounds >= 2, "10 peers at H=3 need several waves");
        assert!(outcome.coord_msgs_until_active >= 10 - 3);
    }

    #[test]
    fn dcop_is_deterministic_per_seed() {
        let a = Session::new(SessionConfig::small(20, 4, 7), Protocol::Dcop).run();
        let b = Session::new(SessionConfig::small(20, 4, 7), Protocol::Dcop).run();
        assert_eq!(a.coord_msgs_total, b.coord_msgs_total);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.sync_nanos, b.sync_nanos);
        let c = Session::new(SessionConfig::small(20, 4, 8), Protocol::Dcop).run();
        // A different seed gives a different random structure (message
        // totals may coincide, times almost never do).
        assert!(
            c.sync_nanos != a.sync_nanos || c.coord_msgs_total != a.coord_msgs_total,
            "different seeds produced identical runs"
        );
    }

    #[test]
    fn tcop_small_session_covers_and_completes() {
        let cfg = SessionConfig::small(10, 3, 42);
        let outcome = Session::new(cfg, Protocol::Tcop).run();
        assert_eq!(outcome.activated, 10);
        assert!(outcome.complete);
        assert_eq!(outcome.rounds % 3, 0, "TCoP rounds come in threes");
    }

    #[test]
    fn tcop_children_have_unique_parents() {
        let cfg = SessionConfig::small(12, 3, 5);
        let (outcome, world, _) = Session::new(cfg, Protocol::Tcop).run_with_world();
        assert_eq!(outcome.activated, 12);
        for i in 0..12u32 {
            let p: &TcopPeer = world.actor_as(ActorId(i)).unwrap();
            assert!(p.has_parent(), "CP{} never claimed", i + 1);
        }
    }

    #[test]
    fn all_protocols_cover_and_complete() {
        for protocol in Protocol::ALL {
            let cfg = SessionConfig::small(8, 3, 11);
            let outcome = Session::new(cfg, protocol).run();
            assert_eq!(outcome.activated, 8, "{}", protocol.name());
            assert!(outcome.complete, "{} failed to stream", protocol.name());
            assert!(outcome.rounds >= 1, "{}", protocol.name());
        }
    }

    #[test]
    fn unicast_takes_many_rounds_few_messages() {
        let cfg = SessionConfig::small(10, 3, 3);
        let outcome = Session::new(cfg, Protocol::Unicast).run();
        assert_eq!(outcome.activated, 10);
        assert_eq!(outcome.rounds, 10, "the chain activates one peer per wave");
        assert!(outcome.coord_msgs_until_active <= 2 * 10);
    }

    #[test]
    fn centralized_is_three_rounds() {
        let cfg = SessionConfig::small(10, 3, 3);
        let outcome = Session::new(cfg, Protocol::Centralized).run();
        assert_eq!(outcome.rounds, 3);
        // 1 request + (n-1) prepares + (n-1) votes + (n-1) decisions.
        assert_eq!(outcome.coord_msgs_total, 1 + 3 * 9);
    }

    #[test]
    fn leaf_schedule_is_one_round_n_messages() {
        let cfg = SessionConfig::small(10, 3, 3);
        let outcome = Session::new(cfg, Protocol::LeafSchedule).run();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.coord_msgs_total, 10);
        assert!(outcome.complete);
    }

    #[test]
    fn broadcast_is_one_round_n_squared_messages() {
        let cfg = SessionConfig::small(10, 3, 3);
        let outcome = Session::new(cfg, Protocol::Broadcast).run();
        assert_eq!(outcome.rounds, 1);
        assert_eq!(outcome.coord_msgs_total, 10 + 10 * 9);
        assert!(outcome.complete);
        assert!(
            outcome.leaf_duplicates > 0,
            "the redundant phase must produce duplicates"
        );
    }

    #[test]
    fn dcop_survives_peer_crashes_with_parity() {
        // h = H - 1 = 3: one whole peer per division may vanish.
        let mut cfg = SessionConfig::small(8, 4, 19);
        cfg.parity_interval = 3;
        let outcome = Session::new(cfg, Protocol::Dcop)
            .fault(SimDuration::from_millis(300), PeerId(2))
            .run();
        assert!(
            outcome.complete,
            "leaf failed to reconstruct despite parity (missing data)"
        );
        assert!(outcome.recovered_via_parity > 0, "parity never exercised");
    }

    #[test]
    fn outcome_rates_are_plausible() {
        let cfg = SessionConfig::small(10, 3, 42);
        let outcome = Session::new(cfg, Protocol::Dcop).run();
        // Receipt rate must exceed the content rate (parity overhead) but
        // stay within a small factor for a shallow tree.
        let r = outcome.receipt_rate_analytic;
        assert!(r > 1.0, "analytic rate {r} missing parity overhead");
        assert!(r < 4.0, "analytic rate {r} implausibly high");
    }
}
