//! DCoP — the redundant distributed coordination protocol (paper §3.4).
//!
//! On activation (by the leaf's content request or by a parent's control
//! packet) a contents peer starts transmitting its assigned subsequence,
//! randomly selects up to `H` further peers it cannot rule out as dormant,
//! and sends each a control packet carrying its view, current position
//! (`SEQ`), rate and part assignment. A peer adopted by several parents
//! merges the assignments (`pkt_i := pkt_i ∪ pkt_ji`). Selection stops
//! when the view is full or the candidate pool is empty.
//!
//! The unicast-chain baseline of §3.1 (Fig. 4(2)) is this same actor run
//! with `H = 1`.

use std::sync::Arc;

use mss_sim::prelude::*;

use crate::config::SessionConfig;
use crate::msg::{ContentRequest, ControlKind, ControlPacket, Msg};
use crate::peer_core::{Core, PeerReport};
use crate::plane::{PlanePeer, RoundShared};
use mss_overlay::{Directory, PeerId};

/// A contents peer running DCoP.
pub struct DcopPeer {
    core: Core,
}

impl DcopPeer {
    /// Peer `me` of a DCoP session.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> DcopPeer {
        DcopPeer {
            core: Core::new(me, dir, cfg),
        }
    }

    /// §3.4 step 2: activation by the leaf's content request.
    fn on_request(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        req: ContentRequest,
    ) {
        if let Some(v) = &req.view {
            self.core.learn_view(v);
        }
        let assignment = self.core.request_assignment(&req, shared);
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, req.wave);
        self.select_and_spawn(ctx, shared, req.wave + 1);
    }

    /// §3.4 step 3: a control packet from a parent.
    fn on_control(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        c: &ControlPacket,
    ) {
        let b = &*c.body;
        if b.kind != ControlKind::Activate {
            // DCoP speaks only `Activate`; anything else (a misrouted
            // probe, commit or announce) is dropped — and counted, so the
            // drop is observable — instead of being misread as an
            // activation.
            self.core.count_unexpected_control(ctx);
            return;
        }
        self.core.learn(b);
        let assignment = self.core.control_assignment(c);
        let was_active = self.core.active;
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, b.wave);
        if !was_active || self.core.cfg.guaranteed_coverage {
            self.select_and_spawn(ctx, shared, b.wave + 1);
        }
    }

    /// Select up to `H` children, assign them parts of this peer's
    /// re-divided schedule, and schedule this peer's own switch at δ.
    /// Unless every control packet re-selects, this was the peer's only
    /// `Select`: the view has no reader left and is closed.
    fn select_and_spawn(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        wave: u32,
    ) {
        self.spawn_children(ctx, shared, wave);
        if !self.core.cfg.guaranteed_coverage {
            self.core.close_view();
        }
    }

    /// One `Select` and its fan-out of `Activate` packets.
    fn spawn_children(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, wave: u32) {
        if self.core.selection_done() {
            return;
        }
        let fanout = self.core.cfg.fanout;
        let children = self.core.select_children_in(fanout, &mut shared.pool);
        if children.is_empty() {
            return; // C = φ: stop selecting.
        }
        let h = self.core.cfg.parity_interval;
        self.core.fan_out(
            ctx,
            &mut shared.outbox,
            ControlKind::Activate,
            wave,
            &children,
            h,
        );
    }
}

impl PlanePeer for DcopPeer {
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, msg: Msg) {
        match msg {
            Msg::Request(req) => self.on_request(ctx, shared, *req),
            Msg::Control(c) => self.on_control(ctx, shared, &c),
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
