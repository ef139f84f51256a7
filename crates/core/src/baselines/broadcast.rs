//! Broadcast baseline — §3.1's "first broadcast way" (Figure 4(1)).
//!
//! The leaf floods a content request to all `n` contents peers; every
//! peer immediately streams the **whole** packet sequence at the content
//! rate (so the leaf initially receives `n·τ` — maximal redundancy and a
//! real risk of `ρ_s` buffer overrun), while exchanging state
//! announcements with every other peer. Once a peer has heard from all
//! peers it re-divides: it switches to its `1/n` share of the enhanced
//! sequence. One round to activate, but `n(n−1)` control messages.

use std::sync::Arc;

use mss_sim::prelude::*;

use crate::config::SessionConfig;
use crate::msg::{ContentRequest, ControlBody, ControlKind, Msg};
use crate::peer_core::{Core, PeerReport};
use crate::plane::{PlanePeer, RoundShared};
use crate::schedule::{initial_assignment_opts, TxSchedule};
use mss_media::PacketSeq;
use mss_overlay::{Directory, PeerId};

/// A contents peer running the broadcast baseline.
pub struct BroadcastPeer {
    core: Core,
    /// Peers heard from (including self once activated).
    heard: usize,
    switched: bool,
    /// This peer's part index for the eventual re-division.
    part: u32,
}

impl BroadcastPeer {
    /// Peer `me` of a broadcast session.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> BroadcastPeer {
        BroadcastPeer {
            core: Core::new(me, dir, cfg),
            heard: 0,
            switched: false,
            part: 0,
        }
    }

    fn on_request(&mut self, ctx: &mut dyn Runtime<Msg>, req: ContentRequest) {
        if let Some(v) = &req.view {
            self.core.learn_view(v);
        }
        self.part = req.part;
        self.heard += 1; // self
                         // Maximal redundancy: the whole data sequence at the content rate.
        let assignment = TxSchedule {
            seq: PacketSeq::data_range(self.core.content().packets).into(),
            pos: 0,
            interval_nanos: req.interval_nanos,
            first_delay_nanos: req.interval_nanos,
        };
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, req.wave);
        // Group-communication state exchange with every other peer.
        let body = Arc::new(ControlBody {
            kind: ControlKind::Announce,
            from: self.core.me,
            wave: req.wave,
            view: self.core.piggyback_view(&[]),
            sched: mss_media::SeqView::empty(),
            pos: 0,
            interval_nanos: req.interval_nanos,
            mark_delta_nanos: 0,
            parts: 0,
            h: req.h,
            fanout: req.fanout,
            basis: None,
        });
        let me = self.core.me;
        let peers: Vec<PeerId> = self.core.dir.peers().filter(|p| *p != me).collect();
        for peer in peers {
            let to = self.core.dir.actor_of(peer);
            self.core.send_coord(ctx, to, Msg::control(&body, 0));
        }
        self.maybe_switch(ctx);
    }

    fn on_announce(&mut self, ctx: &mut dyn Runtime<Msg>, from: PeerId) {
        self.core.learn_peer(from);
        self.heard += 1;
        self.maybe_switch(ctx);
    }

    /// Once every peer is known active, drop to the `1/n` enhanced share.
    ///
    /// Peers switch at slightly different instants (announcement jitter),
    /// so a postfix division from per-peer marks would leave coverage
    /// holes. Instead every peer re-divides the whole enhanced content
    /// from the start — the few packets already streamed are re-sent
    /// inside the shares and deduplicated by the leaf.
    fn maybe_switch(&mut self, ctx: &mut dyn Runtime<Msg>) {
        if self.switched || self.heard < self.core.cfg.n {
            return;
        }
        self.switched = true;
        let own = initial_assignment_opts(
            self.core.content().packets,
            self.core.cfg.parity_interval,
            self.core.cfg.n,
            self.part as usize,
            self.core.content().packet_interval_nanos(),
            self.core.cfg.tail_parity,
            self.core.cfg.coding,
        );
        // The fresh whole-content division re-covers everything already
        // sent, so the switch may apply immediately.
        let pos = self.core.sched.pos;
        self.core.arm_switch(ctx, own, Some(pos));
    }
}

impl PlanePeer for BroadcastPeer {
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, _: &mut RoundShared, msg: Msg) {
        match msg {
            Msg::Request(req) => self.on_request(ctx, *req),
            Msg::Control(c) if c.body.kind == ControlKind::Announce => {
                self.on_announce(ctx, c.body.from)
            }
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
