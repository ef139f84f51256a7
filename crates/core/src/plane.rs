//! Protocol-plane hosting: the contents peers of a session (or of one
//! shard's block of it) as one flat [`ActorGroup`] with shared round
//! scratch — the only way a contents peer is hosted.
//!
//! A [`Plane`] keeps the peers in one dense `Vec` indexed by
//! [`mss_overlay::PeerId`] (the directory maps ids densely, so
//! `member == peer.0` within the block) and threads one [`RoundShared`]
//! scratch arena through every handler call, instead of each peer
//! owning its selection pool, fan-out list and enhanced content
//! sequence. Scratch contents never influence handler behavior —
//! buffers are cleared or overwritten before use and the enhance cache
//! is pure memoization — so one plane over all peers is bit-for-bit
//! identical to one plane per peer (`session.rs`'s
//! `one_plane_matches_plane_per_peer` tests pin this). Nothing per-edge
//! lives here.

use std::any::Any;
use std::sync::Arc;

use mss_media::parity::{enhance, Coding};
use mss_media::PacketSeq;
use mss_overlay::PeerId;
use mss_sim::event::ActorId;
use mss_sim::prelude::*;
use mss_sim::world::ActorGroup;

use crate::msg::Msg;
use crate::peer_core::PeerReport;

/// Memoized enhanced full-content sequence (the initial division's
/// input): identical for every part of one leaf request.
struct InitEntry {
    packets: u64,
    h: usize,
    tail_parity: bool,
    coding: Coding,
    enhanced: Arc<PacketSeq>,
}

/// Per-round scratch shared by every peer of a plane. Reuse is an
/// allocation amortization only: nothing here carries over between
/// handler invocations except the pure [`RoundShared::enhanced_content`]
/// memo.
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

/// A contents peer of any protocol: the handlers with the plane's
/// shared scratch threaded in explicitly (protocols that need no
/// scratch ignore it). [`Plane`] does not forward `on_start`; a peer
/// type that needs one must have it forwarded first.
pub trait PlanePeer: Send + 'static {
    /// Deliver one message.
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, msg: Msg);
    /// Fire the timer set with `tag`.
    fn plane_timer(&mut self, ctx: &mut dyn Runtime<Msg>, shared: &mut RoundShared, tag: u64);
    /// Post-run state snapshot.
    fn report(&self) -> PeerReport;
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
    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, _: ActorId, msg: Msg) {
        self.members[member as usize].plane_message(ctx, &mut self.shared, msg);
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, member: u32, _: TimerId, tag: u64) {
        self.members[member as usize].plane_timer(ctx, &mut self.shared, tag);
    }

    fn member_as_any(&self, member: u32) -> &dyn Any {
        &self.members[member as usize]
    }
}
