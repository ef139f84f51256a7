//! Protocol-plane hosting: all `n` contents peers of a session as one
//! flat [`ActorGroup`] with shared round scratch.
//!
//! The seed stored each peer as its own boxed `dyn Actor`, so every
//! round paid a virtual dispatch per message plus per-peer allocation of
//! the selection pool, the fan-out's message list, and the enhanced
//! content sequence. A [`Plane`] keeps the peers in one dense `Vec`
//! indexed by [`mss_overlay::PeerId`] (the directory maps ids densely,
//! so `member == peer.0`) and threads one [`RoundShared`] scratch arena
//! through every handler call. Scratch contents never influence handler
//! behavior — buffers are cleared or overwritten before use, the
//! enhance cache is pure memoization, and the delta tracker only picks
//! a view's wire encoding — so a plane-hosted session is bit-for-bit
//! identical to solo-hosted actors (the session equivalence tests pin
//! this).

use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

use mss_media::parity::{enhance, Coding};
use mss_media::PacketSeq;
use mss_overlay::{PeerId, View};
use mss_sim::event::ActorId;
use mss_sim::prelude::*;
use mss_sim::world::ActorGroup;

use crate::msg::Msg;

/// Memoized enhanced full-content sequence (the initial division's
/// input): identical for every part of one leaf request.
struct InitEntry {
    packets: u64,
    h: usize,
    tail_parity: bool,
    coding: Coding,
    enhanced: Arc<PacketSeq>,
}

/// Per-round scratch shared by every peer of a plane (or owned by a
/// single solo-hosted peer). Reuse is an allocation amortization only:
/// nothing here influences *protocol* behavior between handler
/// invocations except the pure [`RoundShared::enhanced_content`] memo —
/// the [`DeltaTracker`] carries state across calls, but it only selects
/// the wire encoding of a view (`ViewWire`), never what any handler
/// decides.
#[derive(Default)]
pub struct RoundShared {
    /// Selection-pool scratch for `Select` — cleared by every draw.
    pub pool: Vec<PeerId>,
    /// Fan-out staging for batched round delivery: handlers push their
    /// whole fan-out here, then drain it through
    /// [`crate::peer_core::Core::send_coord_batch`].
    pub outbox: Vec<(ActorId, Msg)>,
    /// Sender-side per-edge view snapshots backing delta piggybacks.
    pub delta: DeltaTracker,
    init_cache: Option<InitEntry>,
}

/// Tracks, per directed parent→child edge, the last full view the
/// parent shipped, so a follow-up on the same edge (TCoP's probe →
/// commit) can carry only the ids gained since — the delta piggyback.
///
/// Epochs stamp full frames so receivers pair a delta with the right
/// snapshot. An edge's entry is consumed by [`DeltaTracker::take`]
/// (commit sent, or the probe was refused), so epochs can restart after
/// a later re-probe; that is safe because the receiver additionally
/// checks the snapshot's cardinality, and two snapshots of one
/// grow-only view with equal cardinality are the same set.
#[derive(Default)]
pub struct DeltaTracker {
    edges: HashMap<u64, (u32, Arc<View>)>,
}

impl DeltaTracker {
    fn key(from: PeerId, to: PeerId) -> u64 {
        (u64::from(from.0) << 32) | u64::from(to.0)
    }

    /// Record that `from` is shipping `view` in full to `to`; returns
    /// the epoch to stamp on the frame.
    pub fn record_full(&mut self, from: PeerId, to: PeerId, view: &Arc<View>) -> u32 {
        let k = DeltaTracker::key(from, to);
        let epoch = self.edges.get(&k).map_or(1, |(e, _)| e.wrapping_add(1));
        self.edges.insert(k, (epoch, Arc::clone(view)));
        epoch
    }

    /// Consume the edge's snapshot for a delta follow-up (or to drop a
    /// refused edge). Returns the stamped epoch and the snapshot view.
    pub fn take(&mut self, from: PeerId, to: PeerId) -> Option<(u32, Arc<View>)> {
        self.edges.remove(&DeltaTracker::key(from, to))
    }

    /// Number of tracked edges (tests and memory accounting).
    pub fn tracked_edges(&self) -> usize {
        self.edges.len()
    }
}

impl RoundShared {
    /// The enhanced sequence of the full content — `Esq([pkt], h)` over
    /// `data_range(packets)` — memoized on its inputs. Every peer an
    /// initial division touches computes this identical sequence; one
    /// plane computes it once.
    pub fn enhanced_content(
        &mut self,
        packets: u64,
        h: usize,
        tail_parity: bool,
        coding: Coding,
    ) -> Arc<PacketSeq> {
        match &self.init_cache {
            Some(e)
                if e.packets == packets
                    && e.h == h
                    && e.tail_parity == tail_parity
                    && e.coding == coding =>
            {
                e.enhanced.clone()
            }
            _ => {
                let enhanced = Arc::new(enhance(
                    &PacketSeq::data_range(packets),
                    h,
                    tail_parity,
                    coding,
                ));
                self.init_cache = Some(InitEntry {
                    packets,
                    h,
                    tail_parity,
                    coding,
                    enhanced: enhanced.clone(),
                });
                enhanced
            }
        }
    }
}

/// A peer hostable inside a [`Plane`]: the protocol handlers with the
/// shared scratch threaded in explicitly. Solo hosting wraps these same
/// handlers around a peer-owned [`RoundShared`].
pub trait PlanePeer: Send + 'static {
    /// Deliver one message.
    fn plane_message(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        from: ActorId,
        msg: Msg,
    );
    /// Fire one timer.
    fn plane_timer(
        &mut self,
        ctx: &mut dyn Runtime<Msg>,
        shared: &mut RoundShared,
        timer: TimerId,
        tag: u64,
    );
}

/// Dense slab of one session's contents peers plus their shared round
/// scratch, hosted as a single [`ActorGroup`].
pub struct Plane<P: PlanePeer> {
    members: Vec<P>,
    shared: RoundShared,
}

impl<P: PlanePeer> Plane<P> {
    /// Plane over `members`, indexed by their dense peer ids.
    pub fn new(members: Vec<P>) -> Plane<P> {
        Plane {
            members,
            shared: RoundShared::default(),
        }
    }
}

impl<P: PlanePeer> ActorGroup<Msg> for Plane<P> {
    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, from: ActorId, msg: Msg) {
        self.members[member as usize].plane_message(ctx, &mut self.shared, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, timer: TimerId, tag: u64) {
        self.members[member as usize].plane_timer(ctx, &mut self.shared, timer, tag);
    }

    fn member_as_any(&self, member: u32) -> &dyn Any {
        &self.members[member as usize]
    }
}
