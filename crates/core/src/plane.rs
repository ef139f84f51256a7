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
//! behavior — buffers are cleared or overwritten before use and the
//! enhance cache is pure memoization — so a plane-hosted session is
//! bit-for-bit identical to solo-hosted actors (the session equivalence
//! tests pin this). Nothing per-edge lives here: the one piece of
//! sender-side state a delta piggyback needs, the view a probe round
//! shipped in full, is held by that round (see [`crate::tcop`]).

use std::any::Any;
use std::sync::Arc;

use mss_media::parity::{enhance, Coding};
use mss_media::PacketSeq;
use mss_overlay::PeerId;
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
/// nothing here carries over between handler invocations except the
/// pure [`RoundShared::enhanced_content`] memo.
#[derive(Default)]
pub struct RoundShared {
    /// Selection-pool scratch for `Select` — cleared by every draw.
    pub pool: Vec<PeerId>,
    /// Fan-out staging for batched round delivery: handlers push their
    /// whole fan-out here, then drain it through
    /// [`crate::peer_core::Core::send_coord_batch`].
    pub outbox: Vec<(ActorId, Msg)>,
    init_cache: Option<InitEntry>,
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
