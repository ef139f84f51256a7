//! TCoP — the non-redundant tree-based coordination protocol (paper §3.5).
//!
//! Selection is a three-round handshake: a parent sends a probe (`c1`) to
//! each candidate; each candidate replies (`cc1`), accepting only if it
//! has no parent yet; the parent commits (`c2`) the accepters with their
//! final part assignments. Every contents peer therefore has exactly one
//! parent and the session forms a spanning tree rooted at the leaf — at
//! the cost of three rounds per selection wave and probe traffic wasted
//! on already-claimed peers.
//!
//! A candidate reads nothing of a probe but its sender and wave, so a
//! probe carries an empty view over the population; the parent's view
//! travels in full on the commit.

use std::sync::Arc;

use mss_sim::prelude::*;

use crate::config::SessionConfig;
use crate::metrics as mnames;
use crate::msg::{ContentRequest, ControlBody, ControlKind, ControlPacket, Msg, ProbeReply};
use crate::peer_core::{Core, PeerReport, TAG_REPLY_TIMEOUT};
use crate::plane::{PlanePeer, RoundShared};
use mss_overlay::{Directory, PeerId, View};

/// In-flight probe round state on the parent side.
struct ProbeRound {
    /// Activation wave the committed children will belong to.
    child_wave: u32,
    /// Probed candidates whose reply is still awaited; a reply from
    /// anyone else (a duplicate, an echo) is not part of this round.
    awaiting: Vec<PeerId>,
    /// Candidates that accepted this parent.
    accepted: Vec<PeerId>,
    /// Fallback timer in case replies are lost.
    timer: TimerId,
}

/// A contents peer running TCoP.
pub struct TcopPeer {
    core: Core,
    /// True once claimed by a parent (or activated by the leaf); a
    /// claimed peer rejects further probes — the non-redundancy rule.
    has_parent: bool,
    probe: Option<ProbeRound>,
}

impl TcopPeer {
    /// Peer `me` of a TCoP session.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> TcopPeer {
        TcopPeer {
            core: Core::new(me, dir, cfg),
            has_parent: false,
            probe: None,
        }
    }

    /// Whether this peer was claimed by a parent (incl. the leaf).
    pub fn has_parent(&self) -> bool {
        self.has_parent
    }

    /// §3.5 step 1-2: activation by the leaf's content request.
    fn on_request(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        req: ContentRequest,
    ) {
        if let Some(v) = &req.view {
            self.core.learn_view(v);
        }
        self.has_parent = true; // parent is the leaf
        let assignment = self.core.request_assignment(&req, shared);
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, req.wave);
        self.start_probe(ctx, shared, req.wave + 1);
    }

    /// §3.5 step 2: `Aselect` a candidate set and probe it.
    fn start_probe(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        child_wave: u32,
    ) {
        if self.probe.is_some() || self.core.selection_done() {
            return;
        }
        let candidates = self
            .core
            .select_children_in(self.core.cfg.fanout, &mut shared.pool);
        if candidates.is_empty() {
            return;
        }
        // One probe round = 3 protocol rounds; track the deepest round.
        ctx.metrics()
            .set_max_id(mnames::COORD_PROBE_WAVES_ID, u64::from(child_wave - 1));
        let body = Arc::new(ControlBody {
            kind: ControlKind::Probe,
            from: self.core.me,
            wave: child_wave,
            view: View::empty(self.core.cfg.n),
            sched: mss_media::SeqView::empty(),
            pos: 0,
            interval_nanos: self.core.sched.interval_nanos,
            mark_delta_nanos: 0,
            parts: 0,
            h: self.core.cfg.parity_interval as u32,
            fanout: self.core.cfg.fanout as u32,
            basis: None,
        });
        debug_assert!(shared.outbox.is_empty());
        for child in &candidates {
            let to = self.core.dir.actor_of(*child);
            shared.outbox.push((to, Msg::control(&body, 0)));
        }
        self.core.send_coord_batch(ctx, &mut shared.outbox);
        let timer = ctx.set_timer(self.core.cfg.reply_timeout, TAG_REPLY_TIMEOUT);
        self.probe = Some(ProbeRound {
            child_wave,
            awaiting: candidates,
            accepted: Vec::new(),
            timer,
        });
    }

    /// §3.5 step 3: a probe arrives; accept iff unclaimed.
    ///
    /// A probe is only a claim attempt: the child notes the prober but
    /// does not merge its view — view knowledge transfers on the commit
    /// (`c2`), which is what reproduces the paper's 6 rounds at `H = 60`
    /// (the committed wave still has peers to probe).
    fn on_probe(&mut self, ctx: &mut dyn Runtime<Msg>, c: &ControlBody) {
        self.core.learn_peer(c.from);
        let accept = !self.has_parent;
        if accept {
            self.has_parent = true; // reserved until the commit arrives
        }
        let reply = ProbeReply {
            from: self.core.me,
            accept,
            wave: c.wave,
        };
        let to = self.core.dir.actor_of(c.from);
        self.core.send_coord(ctx, to, Msg::Reply(reply));
    }

    /// §3.5 step 4: collect confirmations.
    fn on_reply(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, r: ProbeReply) {
        let Some(round) = self.probe.as_mut() else {
            return; // late reply after timeout
        };
        if r.wave != round.child_wave {
            return;
        }
        // Count each probed candidate once: a duplicated datagram or a
        // peer echoing the wave must not commit a child twice.
        let Some(k) = round.awaiting.iter().position(|p| *p == r.from) else {
            self.core.count_unexpected_control(ctx);
            return;
        };
        round.awaiting.swap_remove(k);
        if r.accept {
            round.accepted.push(r.from);
        }
        if round.awaiting.is_empty() {
            let timer = round.timer;
            ctx.cancel_timer(timer);
            self.finish_probe(ctx, shared);
        }
    }

    /// §3.5 steps 4–6: commit the confirmed children and re-divide.
    /// Ends this peer's selection unless it re-probes (`C = φ` under
    /// persistent probing): until here the view stays open, so a probe
    /// received while waiting still reaches the commits' piggyback.
    fn finish_probe(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared) {
        let Some(round) = self.probe.take() else {
            return;
        };
        if round.accepted.is_empty() {
            // The paper stops here ("if C = φ"); with persistent probing
            // the parent tries the next candidate batch, which guarantees
            // every peer is eventually probed.
            if self.core.cfg.guaranteed_coverage {
                self.start_probe(ctx, shared, round.child_wave + 1);
            } else {
                self.core.close_view();
            }
            return;
        }
        let parts = round.accepted.len() + 1;
        // Recovery segments cannot span subtrees: under XOR parity the
        // re-enhancement interval is the division arity (the paper's
        // `Esq(pkt_j[m_j⟩, c2.n)`).
        let h_eff = if self.core.cfg.coding == mss_media::parity::Coding::Xor {
            parts
        } else {
            self.core.cfg.parity_interval
        };
        self.core.fan_out(
            ctx,
            &mut shared.outbox,
            ControlKind::Commit,
            round.child_wave,
            &round.accepted,
            h_eff,
        );
        // A committed parent never probes again: the commits' piggyback
        // was the view's last read.
        self.core.close_view();
    }

    /// §3.5 step 5: the commit activates this peer.
    fn on_commit(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        c: &ControlPacket,
    ) {
        let b = &*c.body;
        self.core.learn(b);
        let assignment = self.core.control_assignment(c);
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, b.wave);
        self.start_probe(ctx, shared, b.wave + 1);
    }
}

impl PlanePeer for TcopPeer {
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, msg: Msg) {
        match msg {
            Msg::Request(req) => self.on_request(ctx, shared, *req),
            Msg::Control(c) => match c.body.kind {
                ControlKind::Probe => self.on_probe(ctx, &c.body),
                ControlKind::Commit => self.on_commit(ctx, shared, &c),
                // TCoP has no handler for these kinds; drop and count
                // instead of silently ignoring.
                ControlKind::Activate | ControlKind::Announce => {
                    self.core.count_unexpected_control(ctx)
                }
            },
            Msg::Reply(r) => self.on_reply(ctx, shared, r),
            Msg::Nack(n) => self.core.on_nack(ctx, &n),
            _ => {}
        }
    }

    fn plane_timer(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, tag: u64) {
        match tag {
            TAG_REPLY_TIMEOUT => self.finish_probe(ctx, shared),
            _ => self.core.on_timer(ctx, tag),
        }
    }

    fn report(&self) -> PeerReport {
        self.core.report()
    }
}
