//! Shared contents-peer machinery: activation bookkeeping, data-plane
//! streaming, deferred schedule switching, and child selection.
//!
//! Every protocol's peer actor embeds a [`Core`] and drives it from its
//! message handlers; the `Core` owns everything that is identical across
//! DCoP, TCoP and the baselines.

use std::sync::Arc;

use mss_media::ContentDesc;
use mss_overlay::select::select_from_complement_with;
use mss_overlay::{Directory, PeerId, View};
use mss_sim::prelude::*;

use crate::config::{Piggyback, SessionConfig};
use crate::metrics as mnames;
use crate::msg::{ContentRequest, ControlBody, ControlKind, ControlPacket, Msg};
use crate::plane::RoundShared;
use crate::schedule::{derived_assignment_opts, DivisionBasis, TxSchedule};

/// Timer tag: transmit the next scheduled packet.
pub const TAG_SEND: u64 = 1;
/// Timer tag: switch to the pending re-divided schedule (δ elapsed).
pub const TAG_SWITCH: u64 = 2;
/// Timer tag: TCoP probe-reply timeout.
pub const TAG_REPLY_TIMEOUT: u64 = 3;

/// Snapshot of a peer's state for post-run analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PeerReport {
    /// Peer identity.
    pub me: PeerId,
    /// Whether the peer ever started transmitting.
    pub active: bool,
    /// Activation wave; `None` when never activated. (A sentinel `0`
    /// would be ambiguous: wire-decoded requests can legitimately carry
    /// wave 0, so an activated peer's wave can be 0.)
    pub wave: Option<u32>,
    /// Virtual/wall nanoseconds of first activation (u64::MAX if never).
    pub activated_nanos: u64,
    /// Final per-packet interval (u64::MAX when idle).
    pub interval_nanos: u64,
    /// Scheduled packets (length of the final schedule).
    pub sched_len: usize,
    /// Packets actually sent.
    pub sent: u64,
}

/// State shared by every contents-peer actor.
pub struct Core {
    /// This peer's identity.
    pub me: PeerId,
    /// Directory of the session, shared across all its peers: `n` peers
    /// holding one refcounted directory instead of `n` copied actor
    /// tables.
    pub dir: Arc<Directory>,
    /// Session parameters.
    pub cfg: SessionConfig,
    /// Perceived-active view `VW_i` (always contains `me`), kept only
    /// while its one reader — this peer's own `Select` — can still run:
    /// `None` once the protocol closed selection (see
    /// [`Core::close_view`]).
    view: Option<View>,
    /// True once transmitting (the paper's *active* state).
    pub active: bool,
    /// Wave at which this peer first activated.
    pub wave: u32,
    /// Nanoseconds of first activation (u64::MAX until then).
    pub activated_nanos: u64,
    /// Live transmission schedule.
    pub sched: TxSchedule,
    /// Re-divided schedule to adopt at the switch point.
    pub pending_switch: Option<TxSchedule>,
    /// Position on the live schedule at which the pending re-division
    /// applies (the mark). The switch happens when the peer has actually
    /// *sent* up to the mark — not merely when δ has elapsed — so
    /// wall-clock timer drift can never drop the packets in
    /// `[pos, mark)`. Runs without a data plane fall back to the δ timer.
    pub switch_at_pos: Option<usize>,
    /// The armed send timer and its fire time, if any.
    send_timer: Option<(TimerId, SimTime)>,
    /// Packets sent so far.
    pub sent: u64,
    /// Per-peer RNG substream (selection decisions).
    pub rng: SimRng,
}

impl Core {
    /// Core for peer `me` of a session; `dir` is the session's one
    /// shared table.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> Core {
        let mut view = View::empty(cfg.n);
        view.insert(me);
        let rng = SimRng::new(cfg.seed).fork(1000 + u64::from(me.0));
        Core {
            me,
            dir,
            cfg,
            view: Some(view),
            active: false,
            wave: 0,
            activated_nanos: u64::MAX,
            sched: TxSchedule::idle(),
            pending_switch: None,
            switch_at_pos: None,
            send_timer: None,
            sent: 0,
            rng,
        }
    }

    /// The content this session streams.
    pub fn content(&self) -> &ContentDesc {
        &self.cfg.content
    }

    /// Report for post-run analysis.
    pub fn report(&self) -> PeerReport {
        PeerReport {
            me: self.me,
            active: self.active,
            wave: self.active.then_some(self.wave),
            activated_nanos: self.activated_nanos,
            interval_nanos: self.sched.interval_nanos,
            sched_len: self.sched.seq.len(),
            sent: self.sent,
        }
    }

    /// Send a coordination message, maintaining the Figure-10/11
    /// counters: the legacy paper-model bytes (`coord.bytes`), the
    /// codec-exact transmitted bytes plus its per-kind breakdown
    /// (`coord.bytes_tx[.*]`), and `coord.bytes_full`, which equals
    /// `coord.bytes_tx`.
    pub fn send_coord(&mut self, ctx: &mut dyn Runtime<Msg>, to: ActorId, msg: Msg) {
        debug_assert!(msg.is_coordination());
        let m = ctx.metrics();
        m.incr_id(mnames::COORD_MSGS_ID);
        m.add_id(mnames::COORD_BYTES_ID, msg.model_size() as u64);
        let tx = msg.wire_size() as u64;
        m.add_id(mnames::COORD_BYTES_TX_ID, tx);
        m.add_id(mnames::coord_bytes_tx_kind_id(&msg), tx);
        m.add_id(mnames::COORD_BYTES_FULL_ID, tx);
        ctx.send(to, msg);
    }

    /// [`Core::send_coord`] for a whole fan-out at once: drains `batch`
    /// through [`Runtime::send_batch`] and maintains the byte counters
    /// with one add per series instead of one per message. Send order —
    /// and therefore the seeded event stream — is identical to sending
    /// the batch elements one by one.
    pub fn send_coord_batch(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        batch: &mut Vec<(ActorId, Msg)>,
    ) {
        if batch.is_empty() {
            return;
        }
        let mut model = 0u64;
        let mut tx = 0u64;
        // Fan-out batches are kind-homogeneous (one wave of probes,
        // commits, or activates), so one per-kind add covers them all.
        let kind_id = mnames::coord_bytes_tx_kind_id(&batch[0].1);
        for (_, msg) in batch.iter() {
            debug_assert!(msg.is_coordination());
            debug_assert_eq!(mnames::coord_bytes_tx_kind_id(msg), kind_id);
            model += msg.model_size() as u64;
            tx += msg.wire_size() as u64;
        }
        let m = ctx.metrics();
        m.add_id(mnames::COORD_MSGS_ID, batch.len() as u64);
        m.add_id(mnames::COORD_BYTES_ID, model);
        m.add_id(mnames::COORD_BYTES_TX_ID, tx);
        m.add_id(kind_id, tx);
        m.add_id(mnames::COORD_BYTES_FULL_ID, tx);
        ctx.send_batch(batch);
    }

    /// Count (and thereby observably drop) a control packet whose kind
    /// this protocol has no handler for.
    pub fn count_unexpected_control(&mut self, ctx: &mut dyn Runtime<Msg>) {
        ctx.metrics().incr_id(mnames::COORD_UNEXPECTED_KIND_ID);
    }

    /// The initial assignment a leaf content request confers on this
    /// peer — weighted when the request carries bandwidth weights,
    /// uniform otherwise. Both divisions start from the full content's
    /// enhanced sequence, which `shared` memoizes across the peers of a
    /// plane (every part of one request enhances identical input).
    pub fn request_assignment(
        &mut self,
        req: &ContentRequest,
        shared: &mut RoundShared,
    ) -> TxSchedule {
        let enhanced = shared.enhanced_content(
            self.cfg.content.packets,
            req.h as usize,
            self.cfg.tail_parity,
            self.cfg.coding,
        );
        match &req.weights {
            Some(w) => crate::schedule::weighted_initial_from_enhanced(
                &enhanced,
                self.cfg.content.packets,
                w,
                req.part as usize,
                req.interval_nanos,
            ),
            None => {
                // The uniform initial division is a `DivisionBasis` with
                // the content-rate slot; each part is an O(1) strided
                // view of the shared enhanced sequence.
                let slot = (req.interval_nanos as u128 * self.cfg.content.packets as u128
                    / enhanced.len().max(1) as u128)
                    .max(1) as u64;
                crate::schedule::DivisionBasis::new(enhanced, slot)
                    .assign(req.parts as usize, req.part as usize)
            }
        }
    }

    /// The assignment a parent's control packet confers on this peer:
    /// its `part` of the division the shared body describes. An
    /// in-session body carries the parent's pre-derived division basis;
    /// a wire-decoded one doesn't, and the child re-derives it from the
    /// recipe — identical by `DivisionBasis`'s contract.
    pub fn control_assignment(&self, c: &ControlPacket) -> TxSchedule {
        let (b, part) = (&*c.body, c.part as usize);
        match &b.basis {
            Some(basis) => basis.assign(b.parts as usize, part),
            None => derived_assignment_opts(
                &b.sched,
                b.pos as usize,
                b.interval_nanos,
                b.mark_delta_nanos,
                b.h as usize,
                b.parts as usize,
                part,
                self.cfg.reenhance,
                self.cfg.tail_parity,
                self.cfg.coding,
            ),
        }
    }

    /// Mark this peer active (first time only), updating the
    /// synchronization metrics.
    pub fn record_activation(&mut self, ctx: &mut dyn Runtime<Msg>, wave: u32) {
        if self.active {
            return;
        }
        self.active = true;
        self.wave = wave;
        self.activated_nanos = ctx.now().as_nanos();
        let now = ctx.now().as_nanos();
        let m = ctx.metrics();
        let msgs = m.counter_id(mnames::COORD_MSGS_ID);
        let probe_waves = m.counter_id(mnames::COORD_PROBE_WAVES_ID);
        // The snapshot advances by what this world sent since its last
        // one, so worlds' snapshots add up when they merge.
        let snapshot = m.counter_id(mnames::COORD_MSGS_AT_ACTIVATION_ID);
        m.incr_id(mnames::COORD_ACTIVATIONS_ID);
        m.set_max_id(mnames::COORD_MAX_WAVE_ID, u64::from(wave));
        m.add_id(mnames::COORD_MSGS_AT_ACTIVATION_ID, msgs - snapshot);
        m.set_max_id(mnames::COORD_PROBE_WAVES_AT_ACTIVATION_ID, probe_waves);
        m.set_max_id(mnames::COORD_LAST_ACTIVATION_NANOS_ID, now);
    }

    /// Install (or DCoP-merge) an assignment and start streaming.
    pub fn adopt(&mut self, ctx: &mut dyn Runtime<Msg>, assignment: TxSchedule) {
        if self.active {
            // Multi-parent: merge into whichever schedule is current —
            // the pending re-division if one is armed, else the live one.
            self.pending_switch
                .as_mut()
                .unwrap_or(&mut self.sched)
                .merge(&assignment);
        } else {
            self.sched = assignment;
        }
        self.arm_send(ctx);
    }

    /// The schedule basis a new division must be computed from: the
    /// pending re-division when one is armed (it supersedes the live
    /// schedule), else the live schedule. Returns
    /// `(sequence, position, interval, delta_for_mark)` — a pending
    /// basis divides from its start (nothing of it has been sent), so
    /// the mark delta is zero.
    pub fn effective_basis(&self) -> (&TxSchedule, usize, u64) {
        match self.pending_switch.as_ref() {
            Some(p) => (p, 0, 0),
            None => (&self.sched, self.sched.pos, self.cfg.delta.as_nanos()),
        }
    }

    /// Divide this peer's schedule among `children` and itself: DCoP's
    /// `Select` fan-out and TCoP's commit round. One derivation and one
    /// `kind` body, piggybacking this peer's view, serve the whole
    /// fan-out — child `j` gets a handle on it for part `j + 1` and
    /// deals out its own part — and this peer keeps part 0, switching
    /// at δ. The *effective* schedule is divided: re-dividing before an
    /// earlier division has switched must divide that division's own
    /// part, never hand the same packets out twice.
    pub fn fan_out(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        outbox: &mut Vec<(ActorId, Msg)>,
        kind: ControlKind,
        wave: u32,
        children: &[PeerId],
        h: usize,
    ) {
        let parts = children.len() + 1;
        let view = self.piggyback_view(children);
        let (sched, pos, mark_delta, interval, basis_is_live) = {
            let was_pending = self.pending_switch.is_some();
            let (b, p, d) = self.effective_basis();
            (b.seq.clone(), p as u32, d, b.interval_nanos, !was_pending)
        };
        let basis = DivisionBasis::derive(
            &sched,
            pos as usize,
            interval,
            mark_delta,
            h,
            self.cfg.reenhance,
            self.cfg.tail_parity,
            self.cfg.coding,
        );
        let own = basis.assign(parts, 0);
        let body = Arc::new(ControlBody {
            kind,
            from: self.me,
            wave,
            view,
            sched,
            pos,
            interval_nanos: interval,
            mark_delta_nanos: mark_delta,
            parts: parts as u32,
            h: h as u32,
            fanout: self.cfg.fanout as u32,
            basis: Some(basis),
        });
        debug_assert!(outbox.is_empty());
        for (j, child) in children.iter().enumerate() {
            let to = self.dir.actor_of(*child);
            outbox.push((to, Msg::control(&body, (j + 1) as u32)));
        }
        self.send_coord_batch(ctx, outbox);
        let live_mark = basis_is_live
            .then(|| crate::schedule::mark_position(pos as usize, interval, mark_delta));
        self.arm_switch(ctx, own, live_mark);
    }

    /// Arm a re-divided schedule to replace the live one at the switch
    /// point. `live_mark` is the mark position on the live schedule when
    /// the division was derived from it (None when it was derived from an
    /// already-pending schedule, whose original mark still governs).
    ///
    /// A still-pending earlier division is *replaced*, not merged: a new
    /// self-division is always derived from the pending basis (see
    /// [`Core::effective_basis`]), so the new part supersedes the old
    /// pending schedule rather than adding to it.
    pub fn arm_switch(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        next: TxSchedule,
        live_mark: Option<usize>,
    ) {
        self.pending_switch = Some(next);
        if live_mark.is_some() {
            self.switch_at_pos = live_mark;
        }
        ctx.set_timer(self.cfg.delta, TAG_SWITCH);
    }

    /// Apply the pending re-division if the live schedule has reached its
    /// mark (or has nothing left to send). `at_timer` marks the δ
    /// fallback path, which applies unconditionally when no data plane is
    /// pacing the position.
    fn maybe_apply_switch(&mut self, ctx: &mut dyn Runtime<Msg>, at_timer: bool) {
        if self.pending_switch.is_none() {
            return;
        }
        let mark = self.switch_at_pos.unwrap_or(0);
        let reached = self.sched.pos >= mark.min(self.sched.seq.len());
        let force = at_timer && !self.cfg.data_plane;
        if reached || force {
            self.sched = self.pending_switch.take().expect("checked");
            self.switch_at_pos = None;
            self.arm_send(ctx);
        }
    }

    /// Handle the timers every protocol shares, [`TAG_SEND`] and
    /// [`TAG_SWITCH`]; any other tag is ignored.
    pub fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, tag: u64) {
        match tag {
            TAG_SEND => self.on_send_timer(ctx),
            TAG_SWITCH => self.on_switch_timer(ctx),
            _ => {}
        }
    }

    /// Handle the δ switch timer (fallback path; the primary switch point
    /// is reaching the mark position while streaming).
    pub fn on_switch_timer(&mut self, ctx: &mut dyn Runtime<Msg>) {
        self.maybe_apply_switch(ctx, true);
    }

    /// (Re-)arm the send timer if streaming is enabled and the current
    /// schedule's next transmission is due earlier than any armed timer —
    /// adopting a faster or phase-earlier schedule pulls the next send
    /// forward instead of waiting out a stale delay.
    pub fn arm_send(&mut self, ctx: &mut dyn Runtime<Msg>) {
        if !self.cfg.data_plane || self.sched.exhausted() {
            return;
        }
        let due = ctx.now() + SimDuration::from_nanos(self.sched.delay_for_next());
        if let Some((tid, at)) = self.send_timer {
            if due >= at {
                return; // existing timer fires soon enough
            }
            ctx.cancel_timer(tid);
        }
        let tid = ctx.set_timer(
            SimDuration::from_nanos(self.sched.delay_for_next()),
            TAG_SEND,
        );
        self.send_timer = Some((tid, due));
    }

    /// Handle the send timer: transmit one packet to the leaf and re-arm.
    pub fn on_send_timer(&mut self, ctx: &mut dyn Runtime<Msg>) {
        self.send_timer = None;
        // Apply a due re-division BEFORE transmitting: when the mark
        // equals the current position the division already owns this
        // packet, and sending it from the old schedule would duplicate it.
        self.maybe_apply_switch(ctx, false);
        if self.sched.exhausted() {
            return;
        }
        let id = self
            .sched
            .seq
            .get(self.sched.pos)
            .expect("in range")
            .clone();
        self.sched.pos += 1;
        self.sent += 1;
        let packet = self.cfg.content.materialize(&id);
        ctx.metrics().incr_id(mnames::DATA_MSGS_ID);
        let leaf = self.dir.leaf();
        ctx.send(leaf, Msg::data(self.me, packet));
        self.arm_send(ctx);
    }

    /// Serve a repair request: retransmit the asked-for data packets to
    /// the leaf immediately (repair volumes are small; no pacing).
    pub fn on_nack(&mut self, ctx: &mut dyn Runtime<Msg>, nack: &crate::msg::Nack) {
        if !self.cfg.data_plane {
            return;
        }
        ctx.metrics().incr_id(mnames::REPAIR_REQUESTS_ID);
        let leaf = self.dir.leaf();
        for &seq in nack.seqs.iter() {
            if seq.0 == 0 || seq.0 > self.cfg.content.packets {
                continue;
            }
            let packet = self
                .cfg
                .content
                .materialize(&mss_media::PacketId::Data(seq));
            ctx.metrics().incr_id(mnames::REPAIR_PACKETS_ID);
            ctx.metrics().incr_id(mnames::DATA_MSGS_ID);
            self.sent += 1;
            ctx.send(leaf, Msg::data(self.me, packet));
        }
    }

    /// The live view, or `None` once selection is closed.
    pub fn view(&self) -> Option<&View> {
        self.view.as_ref()
    }

    /// Learn from a received control packet: its sender is active and so
    /// is everyone it lists — `VW_i := VW_i ∪ {c.from} ∪ c.VW`.
    pub fn learn(&mut self, c: &ControlBody) {
        self.learn_peer(c.from);
        self.learn_view(&c.view);
    }

    /// Note one peer as active. A closed view ignores it — nothing will
    /// ever read the result.
    pub fn learn_peer(&mut self, peer: PeerId) {
        if let Some(own) = self.view.as_mut() {
            own.insert(peer);
        }
    }

    /// Merge a received view (`VW_i := VW_i ∪ VW`). A closed view
    /// ignores it.
    pub fn learn_view(&mut self, view: &View) {
        if let Some(own) = self.view.as_mut() {
            own.union_with(view);
        }
    }

    /// Close selection: this peer will never `Select` again, so its
    /// view has no reader left — release it and ignore further
    /// learning. Protocols call this after their last possible
    /// selection; everything up to and including that `Select` saw the
    /// full view, so decisions, messages and RNG draws are unchanged.
    pub fn close_view(&mut self) {
        self.view = None;
    }

    /// True when `Select` has nobody left to pick: the view is full, or
    /// selection is closed.
    pub fn selection_done(&self) -> bool {
        self.view.as_ref().is_none_or(View::is_full)
    }

    /// The paper's `Select`: up to `m` peers drawn uniformly from the
    /// complement of this peer's view. Selected peers are added to the
    /// view (they are now perceived active / claimed). Nobody once
    /// selection is closed.
    pub fn select_children(&mut self, m: usize) -> Vec<PeerId> {
        self.select_children_in(m, &mut Vec::new())
    }

    /// [`Core::select_children`] drawing through caller-owned pool
    /// scratch (one complement buffer per plane instead of one per
    /// selection). Consumes the identical RNG stream.
    pub fn select_children_in(&mut self, m: usize, pool: &mut Vec<PeerId>) -> Vec<PeerId> {
        let Some(view) = self.view.as_mut() else {
            return Vec::new();
        };
        let picked = select_from_complement_with(view, m, &mut self.rng, pool);
        for p in &picked {
            view.insert(*p);
        }
        picked
    }

    /// The view to piggyback on an outgoing coordination message, per the
    /// configured variant. `selected` is the just-chosen child set.
    ///
    /// # Panics
    ///
    /// When selection is closed: a piggyback accompanies a selection,
    /// and a closed peer makes none.
    pub fn piggyback_view(&self, selected: &[PeerId]) -> View {
        match self.cfg.piggyback {
            Piggyback::FullView => self.view.clone().expect("piggyback after selection closed"),
            Piggyback::SelectionsOnly => {
                let mut v = View::empty(self.cfg.n);
                v.insert(self.me);
                for p in selected {
                    v.insert(*p);
                }
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SessionConfig;

    fn core(n: usize) -> Core {
        let dir = Arc::new(Directory::dense(n));
        Core::new(PeerId(0), dir, SessionConfig::small(n, 3, 7))
    }

    #[test]
    fn new_core_is_dormant_and_self_aware() {
        let c = core(10);
        assert!(!c.active);
        let view = c.view().expect("open");
        assert!(view.contains(PeerId(0)));
        assert_eq!(view.count(), 1);
        assert!(c.sched.exhausted());
        let r = c.report();
        assert!(!r.active);
        assert_eq!(r.sent, 0);
    }

    #[test]
    fn select_children_claims_into_view() {
        let mut c = core(10);
        let picked = c.select_children(4);
        assert_eq!(picked.len(), 4);
        let view = c.view().expect("open");
        for p in &picked {
            assert!(view.contains(*p));
        }
        assert_eq!(view.count(), 5);
        // Selecting again avoids previously claimed peers.
        let picked2 = c.select_children(10);
        assert_eq!(picked2.len(), 5, "only 5 unclaimed remain");
        for p in &picked2 {
            assert!(!picked.contains(p));
        }
    }

    #[test]
    fn piggyback_variants_differ() {
        let mut c = core(10);
        let picked = c.select_children(2);
        let full = c.piggyback_view(&picked);
        assert_eq!(full.count(), 3);
        c.cfg.piggyback = Piggyback::SelectionsOnly;
        let sel = c.piggyback_view(&picked);
        assert_eq!(sel.count(), 3, "self + 2 selections");
        // Distinction shows once the view has merged outside knowledge.
        c.learn_peer(PeerId(9));
        let full2 = c.piggyback_view(&picked);
        assert_eq!(full2.count(), 3, "SelectionsOnly ignores merged view");
        c.cfg.piggyback = Piggyback::FullView;
        assert_eq!(c.piggyback_view(&picked).count(), 4);
    }
}
