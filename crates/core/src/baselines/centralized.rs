//! Centralized baseline — the 2PC-style coordination of Itaya et al. \[5\].
//!
//! One contents peer (CP_1) acts as the controller. On the leaf's
//! request it runs a prepare/vote/commit exchange with every other peer;
//! only after the commit does anybody stream. Synchronization always
//! takes three rounds ("it takes at least three rounds to synchronize
//! multiple contents peers") and `~3n` messages, but nothing streams
//! until the slowest peer has voted — the single-point-of-failure,
//! latency-bound design the flooding protocols improve on.

use std::sync::Arc;

use mss_sim::prelude::*;

use crate::config::SessionConfig;
use crate::metrics as mnames;
use crate::msg::{Msg, TwoPhase};
use crate::peer_core::{Core, PeerReport};
use crate::plane::{PlanePeer, RoundShared};
use crate::schedule::initial_assignment_opts;
use mss_overlay::{Directory, PeerId};

/// Fixed round count of the 2PC exchange.
pub const TWO_PC_ROUNDS: u64 = 3;

/// A contents peer running the centralized baseline. The peer with id 0
/// is the coordinator.
pub struct CentralizedPeer {
    core: Core,
    /// Coordinator: votes received (including its own).
    votes: usize,
    /// Non-coordinator: assigned part, remembered between prepare and
    /// decision.
    prepared: Option<(u32, u32, u32)>, // (part, parts, h)
}

impl CentralizedPeer {
    /// Peer `me` of a centralized session.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> CentralizedPeer {
        CentralizedPeer {
            core: Core::new(me, dir, cfg),
            votes: 0,
            prepared: None,
        }
    }

    fn is_coordinator(&self) -> bool {
        self.core.me == PeerId(0)
    }

    /// Leaf's request reaches the coordinator: run phase 1.
    fn on_request(&mut self, ctx: &mut dyn Runtime<Msg>) {
        if !self.is_coordinator() {
            return;
        }
        ctx.metrics()
            .set_max_id(mnames::COORD_FIXED_ROUNDS_ID, TWO_PC_ROUNDS);
        let n = self.core.cfg.n;
        let h = self.core.cfg.parity_interval;
        let interval = self.core.content().packet_interval_nanos();
        self.votes = 1; // coordinator votes for itself
        let me = self.core.me;
        let peers: Vec<PeerId> = self.core.dir.peers().filter(|p| *p != me).collect();
        for peer in peers {
            let msg = Msg::TwoPhase(TwoPhase::Prepare {
                part: peer.0,
                parts: n as u32,
                h: h as u32,
                interval_nanos: interval,
            });
            let to = self.core.dir.actor_of(peer);
            self.core.send_coord(ctx, to, msg);
        }
        if n == 1 {
            self.decide(ctx);
        }
    }

    fn on_prepare(&mut self, ctx: &mut dyn Runtime<Msg>, part: u32, parts: u32, h: u32) {
        self.prepared = Some((part, parts, h));
        let msg = Msg::TwoPhase(TwoPhase::Vote {
            from: self.core.me,
            ok: true,
        });
        let to = self.core.dir.actor_of(PeerId(0));
        self.core.send_coord(ctx, to, msg);
    }

    fn on_vote(&mut self, ctx: &mut dyn Runtime<Msg>, ok: bool) {
        if !self.is_coordinator() || !ok {
            return;
        }
        self.votes += 1;
        if self.votes == self.core.cfg.n {
            self.decide(ctx);
        }
    }

    /// Phase 3: everyone (coordinator included) starts streaming.
    fn decide(&mut self, ctx: &mut dyn Runtime<Msg>) {
        let me = self.core.me;
        let peers: Vec<PeerId> = self.core.dir.peers().filter(|p| *p != me).collect();
        for peer in peers {
            let to = self.core.dir.actor_of(peer);
            self.core
                .send_coord(ctx, to, Msg::TwoPhase(TwoPhase::Decision { commit: true }));
        }
        self.activate(
            ctx,
            0,
            self.core.cfg.n as u32,
            self.core.cfg.parity_interval as u32,
        );
    }

    fn on_decision(&mut self, ctx: &mut dyn Runtime<Msg>, commit: bool) {
        if !commit {
            return;
        }
        let Some((part, parts, h)) = self.prepared else {
            return;
        };
        self.activate(ctx, part, parts, h);
    }

    fn activate(&mut self, ctx: &mut dyn Runtime<Msg>, part: u32, parts: u32, h: u32) {
        let assignment = initial_assignment_opts(
            self.core.content().packets,
            h as usize,
            parts as usize,
            part as usize,
            self.core.content().packet_interval_nanos(),
            self.core.cfg.tail_parity,
            self.core.cfg.coding,
        );
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, TWO_PC_ROUNDS as u32);
    }
}

impl PlanePeer for CentralizedPeer {
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, _: &mut RoundShared, msg: Msg) {
        match msg {
            Msg::Request(_) => self.on_request(ctx),
            Msg::TwoPhase(TwoPhase::Prepare { part, parts, h, .. }) => {
                self.on_prepare(ctx, part, parts, h)
            }
            Msg::TwoPhase(TwoPhase::Vote { ok, .. }) => self.on_vote(ctx, ok),
            Msg::TwoPhase(TwoPhase::Decision { commit }) => self.on_decision(ctx, commit),
            Msg::Nack(n) => self.core.on_nack(ctx, &n),
            _ => {}
        }
    }

    fn plane_timer(&mut self, ctx: &mut dyn Runtime<Msg>, _: &mut RoundShared, tag: u64) {
        self.core.on_timer(ctx, tag);
    }

    fn report(&self) -> PeerReport {
        self.core.report()
    }
}
