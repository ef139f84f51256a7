//! Multi-leaf sessions — the full MSS model of paper §2.
//!
//! The paper's system is `CP_1..CP_n` contents peers serving
//! `LP_1..LP_m` leaf peers ("a large number of leaf peers are required
//! to be supported"); its evaluation only ever exercises `m = 1`. This
//! module runs `m` ordinary sessions side by side in one world, each an
//! independent tree over the same `n` contents peers: session `s`'s
//! peers are one [`crate::plane::Plane`] at actors `s·n .. (s+1)·n` and
//! its leaf is actor `m·n + s`. Contents peer `i` is the `m` instances
//! at actors `s·n + i`; its load is their sum. Coordination and data
//! traffic of different sessions interleave freely on the shared link.

use std::sync::Arc;

use mss_overlay::Directory;
use mss_sim::event::{ActorId, TimerId};
use mss_sim::prelude::*;
use mss_sim::world::World;

use crate::config::{Protocol, SessionConfig};
use crate::leaf::LeafActor;
use crate::metrics as mnames;
use crate::msg::Msg;
use crate::session::{collect_reports, default_link, plane};

/// A leaf that sends its request `delay` into the run (staggered
/// arrivals rather than a flash crowd).
struct LateLeaf {
    delay: SimDuration,
    leaf: LeafActor,
}

/// Timer tag of the delayed start (the leaf's own tags are smaller).
const TAG_LEAF_START: u64 = 999;

impl Actor<Msg> for LateLeaf {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        if self.delay == SimDuration::ZERO {
            self.leaf.on_start(ctx);
        } else {
            ctx.set_timer(self.delay, TAG_LEAF_START);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, from: ActorId, msg: Msg) {
        self.leaf.on_message(ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, timer: TimerId, tag: u64) {
        if tag == TAG_LEAF_START {
            self.leaf.on_start(ctx);
        } else {
            self.leaf.on_timer(ctx, timer, tag);
        }
    }

    mss_sim::impl_as_any!();
}

/// Per-leaf summary of a multi-session run.
#[derive(Clone, Debug)]
pub struct LeafSummary {
    /// Session index.
    pub session: u32,
    /// Whether this leaf reconstructed its whole content.
    pub complete: bool,
    /// Nanoseconds (absolute) at which reconstruction finished.
    pub complete_nanos: Option<u64>,
    /// Data packets this leaf never reconstructed.
    pub missing: usize,
    /// Received-volume ratio for this leaf.
    pub volume: f64,
}

/// Outcome of a multi-leaf run.
#[derive(Debug)]
pub struct MultiOutcome {
    /// One summary per leaf/session.
    pub per_leaf: Vec<LeafSummary>,
    /// Data packets sent per contents peer, aggregated over sessions.
    pub per_peer_sent: Vec<u64>,
    /// Coordination messages across all sessions.
    pub coord_msgs: u64,
    /// Virtual time at quiescence (nanos).
    pub end_nanos: u64,
}

impl MultiOutcome {
    /// Fraction of leaves that completed.
    pub fn completion(&self) -> f64 {
        if self.per_leaf.is_empty() {
            return 0.0;
        }
        self.per_leaf.iter().filter(|l| l.complete).count() as f64 / self.per_leaf.len() as f64
    }

    /// Heaviest-loaded peer's data-packet count.
    pub fn max_peer_sent(&self) -> u64 {
        self.per_peer_sent.iter().copied().max().unwrap_or(0)
    }

    /// Load imbalance: max peer load over mean peer load.
    pub fn load_imbalance(&self) -> f64 {
        let mean =
            self.per_peer_sent.iter().sum::<u64>() as f64 / self.per_peer_sent.len().max(1) as f64;
        if mean == 0.0 {
            0.0
        } else {
            self.max_peer_sent() as f64 / mean
        }
    }
}

/// Builder for a shared-swarm, many-leaves run.
pub struct MultiSession {
    cfg: SessionConfig,
    protocol: Protocol,
    leaves: usize,
    stagger: SimDuration,
    limit: SimTime,
}

impl MultiSession {
    /// `leaves` concurrent sessions over `cfg.n` shared peers, on the
    /// default link of [`crate::session::Session::new`].
    pub fn new(cfg: SessionConfig, protocol: Protocol, leaves: usize) -> MultiSession {
        assert!(leaves >= 1);
        MultiSession {
            cfg: cfg.normalized(protocol),
            protocol,
            leaves,
            stagger: SimDuration::ZERO,
            limit: SimTime::MAX,
        }
    }

    /// Delay each successive leaf's request by `stagger` (0 = flash crowd).
    pub fn stagger(mut self, stagger: SimDuration) -> MultiSession {
        self.stagger = stagger;
        self
    }

    /// Stop the simulation at `limit` even if events remain.
    pub fn time_limit(mut self, limit: SimDuration) -> MultiSession {
        self.limit = SimTime::ZERO + limit;
        self
    }

    /// Run to quiescence and summarize.
    pub fn run(self) -> MultiOutcome {
        let MultiSession {
            cfg,
            protocol,
            leaves,
            stagger,
            limit,
        } = self;
        let n = cfg.n;
        let actor = |i: usize| ActorId(i as u32);
        let mut world: World<Msg> = World::new(default_link(), cfg.seed);
        let mut dirs = Vec::with_capacity(leaves);
        for s in 0..leaves {
            let peers = (s * n..(s + 1) * n).map(actor).collect();
            let dir = Arc::new(Directory::new(peers, actor(leaves * n + s)));
            let mut peer_cfg = cfg.clone();
            // Independent randomness per (peer, session).
            peer_cfg.seed = cfg.seed.wrapping_add(1 + s as u64 * 7919);
            let (members, group) = plane(protocol, 0..n, &dir, &peer_cfg);
            world.add_group(members, group);
            dirs.push(dir);
        }
        // The leaves go after every plane, so the actor layout is the
        // module doc's.
        for (s, dir) in dirs.iter().enumerate() {
            let mut leaf_cfg = cfg.clone();
            leaf_cfg.seed = cfg.seed.wrapping_add(0xF00 + s as u64 * 104_729);
            world.add_actor(Box::new(LateLeaf {
                delay: stagger.saturating_mul(s as u64),
                leaf: LeafActor::new(leaf_cfg, protocol, dir.clone(), None),
            }));
        }
        world.run_until(limit);

        let content_bytes = cfg.content.packets as f64 * cfg.content.packet_bytes as f64;
        let per_leaf = (0..leaves)
            .map(|s| {
                let late: &LateLeaf = world.actor_as(actor(leaves * n + s)).expect("leaf actor");
                let leaf = &late.leaf;
                LeafSummary {
                    session: s as u32,
                    complete: leaf.is_complete(),
                    complete_nanos: leaf.complete_nanos(),
                    missing: leaf.missing_count(),
                    volume: leaf.received_bytes() as f64 / content_bytes,
                }
            })
            .collect();
        let mut per_peer_sent = vec![0; n];
        for dir in &dirs {
            let reports = collect_reports(|id| world.actor_any(id), protocol, dir);
            for (sent, report) in per_peer_sent.iter_mut().zip(reports) {
                *sent += report.sent;
            }
        }
        MultiOutcome {
            per_leaf,
            per_peer_sent,
            coord_msgs: world.metrics().counter(mnames::COORD_MSGS),
            end_nanos: world.now().as_nanos(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_media::ContentDesc;

    fn base_cfg() -> SessionConfig {
        let mut cfg = SessionConfig::small(12, 3, 71);
        cfg.content = ContentDesc::small(7, 120);
        cfg
    }

    #[test]
    fn four_leaves_all_complete_over_one_swarm() {
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 4)
            .time_limit(SimDuration::from_secs(120))
            .run();
        assert_eq!(out.per_leaf.len(), 4);
        for l in &out.per_leaf {
            assert!(l.complete, "leaf {} missing {}", l.session, l.missing);
            assert!(l.volume >= 0.999);
        }
        // Every peer carried work for multiple sessions.
        let total: u64 = out.per_peer_sent.iter().sum();
        let single = MultiSession::new(base_cfg(), Protocol::Dcop, 1)
            .time_limit(SimDuration::from_secs(120))
            .run();
        let single_total: u64 = single.per_peer_sent.iter().sum();
        assert!(
            total >= 3 * single_total,
            "4 sessions should send ~4x one session's packets ({total} vs {single_total})"
        );
    }

    #[test]
    fn staggered_arrivals_complete_in_order() {
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 3)
            .stagger(SimDuration::from_millis(40))
            .time_limit(SimDuration::from_secs(120))
            .run();
        let times: Vec<u64> = out
            .per_leaf
            .iter()
            .map(|l| l.complete_nanos.expect("complete"))
            .collect();
        assert!(
            times[0] < times[1] && times[1] < times[2],
            "staggered sessions should finish in arrival order: {times:?}"
        );
    }

    #[test]
    fn tcop_multi_leaf_builds_independent_trees() {
        let out = MultiSession::new(base_cfg(), Protocol::Tcop, 3)
            .time_limit(SimDuration::from_secs(120))
            .run();
        for l in &out.per_leaf {
            assert!(l.complete, "leaf {} missing {}", l.session, l.missing);
        }
    }

    #[test]
    fn sessions_are_isolated() {
        // A run with 2 leaves must give each leaf the same completeness a
        // solo run gives, despite interleaved traffic.
        let out = MultiSession::new(base_cfg(), Protocol::Dcop, 2)
            .time_limit(SimDuration::from_secs(120))
            .run();
        assert_eq!(out.completion(), 1.0);
        assert!(out.coord_msgs > 0);
    }

    /// Exact outcomes of a staggered three-leaf run for every protocol:
    /// each leaf's completion time, every peer's aggregate load and the
    /// coordination total. Any change to how sessions share the world
    /// (actor layout, event order, link draws) shows up here.
    #[test]
    fn staggered_three_leaf_outcomes_are_pinned() {
        #[rustfmt::skip]
        let golden: [(Protocol, [u64; 3], [u64; 24], u64); 6] = [
            (Protocol::Dcop, [104_138_017, 136_248_514, 135_948_585],
             [27, 17, 40, 53, 15, 44, 22, 54, 15, 29, 44, 39, 34, 39, 49, 26, 18, 28, 26, 23, 21, 48, 33, 17], 586),
            (Protocol::Tcop, [103_908_194, 117_435_309, 133_465_779],
             [18, 11, 37, 68, 27, 54, 17, 63, 25, 26, 57, 40, 26, 51, 31, 14, 40, 16, 36, 19, 25, 31, 44, 17], 1144),
            (Protocol::Broadcast, [98_290_413, 113_480_989, 128_091_223],
             [42, 43, 45, 46, 43, 44, 44, 44, 45, 45, 45, 46, 44, 48, 47, 44, 46, 44, 45, 46, 47, 45, 46, 43], 1728),
            (Protocol::Unicast, [105_686_596, 120_533_582, 135_049_348],
             [0, 0, 70, 66, 66, 0, 26, 30, 0, 0, 186, 4, 20, 160, 0, 0, 0, 10, 1, 0, 1, 0, 161, 0], 72),
            (Protocol::Centralized, [110_099_840, 125_122_624, 140_426_763],
             [36, 36, 36, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33], 210),
            (Protocol::LeafSchedule, [105_397_106, 120_372_319, 134_793_570],
             [36, 36, 36, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33, 33], 72),
        ];
        for (protocol, done, per_peer_sent, coord_msgs) in golden {
            let out = MultiSession::new(SessionConfig::small(24, 4, 35), protocol, 3)
                .stagger(SimDuration::from_millis(15))
                .time_limit(SimDuration::from_secs(120))
                .run();
            let got: Vec<Option<u64>> = out.per_leaf.iter().map(|l| l.complete_nanos).collect();
            assert_eq!(got, done.map(Some), "{protocol:?}: leaf completion times");
            assert_eq!(
                out.per_peer_sent, per_peer_sent,
                "{protocol:?}: per-peer load"
            );
            assert_eq!(
                out.coord_msgs, coord_msgs,
                "{protocol:?}: coordination messages"
            );
        }
    }
}
