//! Receiver-side reconstruction of delta-coded view piggybacks.
//!
//! A sender ships its full view once (epoch-stamped) and follow-ups
//! carry only the ids gained since (a TCoP probe round keeps the view
//! its probes carried, see `mss_core::tcop`). The codec decodes such a
//! delta into a control packet whose `view` holds the additions alone;
//! each receiver (a peer a live worker hosts) owns one [`ViewReassembler`],
//! which caches the last tracked full view per *sender* and upgrades
//! delta packets back to the sender's complete view before the protocol
//! handler sees them. A decoded body may be shared with the fan-out's
//! other recipients on the same worker (`crate::codec::FanoutDecoder`
//! parses it once), so the upgrade copies it first (`Arc::make_mut`):
//! resolving a delta for one receiver never changes what another
//! decodes.
//!
//! A snapshot lives exactly as long as a delta can still read it — the
//! mirror of the sender's probe round:
//!
//! - an epoch-0 frame ([`ViewWire::full`], all of DCoP) announces that no
//!   delta will follow and is never snapshotted;
//! - a delta *consumes* the sender's snapshot (the sender's round ended
//!   with the commit, so none can follow without a new full frame
//!   first);
//! - a receiver that refuses the prober
//!   ([`ViewReassembler::observe_sent`]) drops the edge: the sender's
//!   round will not commit it. Only the refused round's snapshot goes:
//!   a live worker resolves every frame of a receive pass before its
//!   actors answer any, so a later probe from the same prober may
//!   already have replaced it.
//!
//! What remains is at most one snapshot per receiver: an accepted probe
//! whose commit was lost.
//!
//! When the cached snapshot doesn't match (a lost, reordered or
//! duplicated frame), the packet keeps its additions-only view — the
//! documented degraded mode. That is safe, not merely tolerable: views
//! are grow-only and every id in a delta is genuinely in the sender's
//! view, so a mismatch can only *under*-inform the receiver, which the
//! protocols already absorb (the same peer can be re-selected,
//! re-probed, or re-announced to). The fallback count is surfaced as the
//! `net.view_resync_fallbacks` metric so live runs can confirm deltas
//! are actually resolving.

use std::collections::HashMap;
use std::sync::Arc;

use mss_core::msg::{ControlPacket, Msg, ViewWire};
use mss_overlay::wire::apply_delta;
use mss_overlay::View;
use mss_sim::event::ActorId;

/// One receiver's cache of tracked full views, keyed by sending actor.
#[derive(Default)]
pub struct ViewReassembler {
    /// Per sender: the snapshot's epoch, the wave of the frame that
    /// carried it, and the view.
    snaps: HashMap<u32, (u32, u32, Arc<View>)>,
    fallbacks: u64,
}

impl ViewReassembler {
    /// Fresh reassembler with no cached edges.
    pub fn new() -> ViewReassembler {
        ViewReassembler::default()
    }

    /// Resolve a just-decoded control packet from `sender` in place:
    /// a tracked full frame (epoch ≠ 0) becomes the edge's snapshot; a
    /// delta frame consumes the snapshot — the sender built it by
    /// consuming its own — and is rebuilt against it when epoch and base
    /// cardinality match, otherwise left additions-only (counted as a
    /// fallback).
    pub fn resolve(&mut self, sender: ActorId, c: &mut ControlPacket) {
        match &c.body.view_wire {
            ViewWire::Full { epoch: 0 } => {}
            ViewWire::Full { epoch } => {
                self.snaps
                    .insert(sender.0, (*epoch, c.body.wave, Arc::clone(&c.body.view)));
            }
            ViewWire::Delta {
                epoch,
                base_count,
                additions,
            } => match self.snaps.remove(&sender.0) {
                Some((e, _, base)) if e == *epoch && base.count() == *base_count as usize => {
                    let view = Arc::new(apply_delta(&base, additions));
                    // The worker's decoder may share the body with the
                    // fan-out's other recipients: copy, then upgrade.
                    Arc::make_mut(&mut c.body).view = view;
                }
                _ => self.fallbacks += 1,
            },
        }
    }

    /// Note a message this receiver is sending: refusing a prober
    /// (`Reply { accept: false }`) ends that edge — no commit, and so no
    /// delta, will follow — and drops the prober's snapshot if the
    /// refused probe carried it (a reply names its probe's wave). A
    /// snapshot of another wave came with a later probe, resolved before
    /// the refusal was sent, and stays.
    pub fn observe_sent(&mut self, to: ActorId, msg: &Msg) {
        if let Msg::Reply(r) = msg {
            if !r.accept && self.snaps.get(&to.0).is_some_and(|s| s.1 == r.wave) {
                self.snaps.remove(&to.0);
            }
        }
    }

    /// Deltas that could not be paired with a snapshot and fell back to
    /// their additions-only view.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Number of senders currently holding a snapshot.
    pub fn tracked_edges(&self) -> usize {
        self.snaps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mss_core::msg::{ControlBody, ControlKind, ProbeReply};
    use mss_media::SeqView;
    use mss_overlay::PeerId;

    const SENDER: ActorId = ActorId(4);

    fn view_of(n: usize, ids: &[u32]) -> View {
        let mut v = View::empty(n);
        for &i in ids {
            v.insert(PeerId(i));
        }
        v
    }

    fn control(view: View, view_wire: ViewWire) -> Msg {
        let body = ControlBody {
            kind: ControlKind::Commit,
            from: PeerId(4),
            wave: 1,
            view: Arc::new(view),
            view_wire,
            sched: SeqView::empty(),
            pos: 0,
            interval_nanos: 1,
            mark_delta_nanos: 0,
            parts: 2,
            h: 2,
            fanout: 2,
            basis: None,
        };
        Msg::control(&Arc::new(body), 1)
    }

    /// Drive a packet through the real codec, as a live worker does
    /// before resolving it.
    fn through_codec(msg: Msg) -> ControlPacket {
        let frame = crate::codec::encode(SENDER, &msg);
        match crate::codec::decode(&frame).expect("decodes").1 {
            Msg::Control(c) => c,
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn full_then_delta_reconstructs_the_grown_view_and_consumes_the_snapshot() {
        let mut r = ViewReassembler::new();
        let base = view_of(300, &[1, 9, 250]);
        let mut first = through_codec(control(base.clone(), ViewWire::Full { epoch: 1 }));
        r.resolve(SENDER, &mut first);
        assert_eq!(first.body.view.as_ref(), &base);
        assert_eq!(r.tracked_edges(), 1);

        let grown = view_of(300, &[1, 2, 9, 250, 299]);
        let mut second = through_codec(control(
            grown.clone(),
            ViewWire::Delta {
                epoch: 1,
                base_count: base.count() as u32,
                additions: grown.diff_ids(&base).into(),
            },
        ));
        // The codec alone only sees the additions…
        assert_eq!(second.body.view.count(), 2);
        r.resolve(SENDER, &mut second);
        // …the reassembler restores the sender's complete view.
        assert_eq!(second.body.view.as_ref(), &grown);
        assert_eq!(r.fallbacks(), 0);
        assert_eq!(
            r.tracked_edges(),
            0,
            "the delta was the snapshot's last reader"
        );
    }

    #[test]
    fn untracked_full_frames_are_never_snapshotted() {
        let mut r = ViewReassembler::new();
        let mut c = through_codec(control(view_of(64, &[1, 2]), ViewWire::full()));
        r.resolve(SENDER, &mut c);
        assert_eq!(c.body.view.count(), 2);
        assert_eq!(r.tracked_edges(), 0);
    }

    #[test]
    fn refusal_drops_the_edge() {
        let mut r = ViewReassembler::new();
        let mut c = through_codec(control(view_of(64, &[1]), ViewWire::Full { epoch: 1 }));
        r.resolve(SENDER, &mut c);
        let reply = |accept| {
            Msg::Reply(ProbeReply {
                from: PeerId(0),
                accept,
                wave: 1,
            })
        };
        r.observe_sent(ActorId(5), &reply(false));
        assert_eq!(r.tracked_edges(), 1, "another sender's refusal");
        r.observe_sent(SENDER, &reply(true));
        assert_eq!(r.tracked_edges(), 1, "an acceptance awaits its commit");
        r.observe_sent(SENDER, &reply(false));
        assert_eq!(r.tracked_edges(), 0);
    }

    #[test]
    fn mismatched_delta_falls_back_to_additions_only() {
        let mut r = ViewReassembler::new();
        let grown = view_of(100, &[3, 4, 5]);
        let delta = ViewWire::Delta {
            epoch: 9,
            base_count: 1,
            additions: vec![4, 5].into(),
        };
        // No snapshot at all (lost full frame).
        let mut c = through_codec(control(grown.clone(), delta.clone()));
        r.resolve(SENDER, &mut c);
        assert_eq!(c.body.view.count(), 2, "additions-only floor");
        assert_eq!(r.fallbacks(), 1);
        // Snapshot under a different epoch: also a fallback — and the
        // stale snapshot goes with it.
        let mut full = through_codec(control(view_of(100, &[3]), ViewWire::Full { epoch: 1 }));
        r.resolve(SENDER, &mut full);
        let mut c = through_codec(control(grown, delta));
        r.resolve(SENDER, &mut c);
        assert_eq!(c.body.view.count(), 2);
        assert_eq!(r.fallbacks(), 2);
        assert_eq!(r.tracked_edges(), 0);
    }

    /// Two receivers on one worker receive one commit fan-out: the decoder
    /// parses the body once and hands both a handle on it. Resolving
    /// the delta for the first copies the body, so the shared body —
    /// and the second receiver's decode of the same frame — still hold the
    /// additions alone, until the second receiver resolves its own.
    #[test]
    fn resolving_a_shared_body_leaves_it_untouched() {
        let mut decoder = crate::codec::FanoutDecoder::new(8);
        let mut receivers = [ViewReassembler::new(), ViewReassembler::new()];
        let base = view_of(300, &[1, 9, 250]);
        let grown = view_of(300, &[1, 2, 9, 250, 299]);
        let fanout = |view: &View, view_wire| {
            let body = Arc::new(ControlBody {
                kind: ControlKind::Commit,
                from: PeerId(4),
                wave: 1,
                view: Arc::new(view.clone()),
                view_wire,
                sched: SeqView::empty(),
                pos: 0,
                interval_nanos: 1,
                mark_delta_nanos: 0,
                parts: 3,
                h: 2,
                fanout: 2,
                basis: None,
            });
            [1, 2].map(|part| crate::codec::encode(SENDER, &Msg::control(&body, part)))
        };
        let decode = |decoder: &mut crate::codec::FanoutDecoder, frame: &[u8]| match decoder
            .decode(frame)
            .expect("decodes")
        {
            (from, Msg::Control(c)) => (from, c),
            other => panic!("wrong variant {other:?}"),
        };
        for (receiver, frame) in receivers
            .iter_mut()
            .zip(fanout(&base, ViewWire::Full { epoch: 1 }))
        {
            let (from, mut c) = decode(&mut decoder, &frame);
            receiver.resolve(from, &mut c);
        }
        let [first, second] = fanout(
            &grown,
            ViewWire::Delta {
                epoch: 1,
                base_count: base.count() as u32,
                additions: grown.diff_ids(&base).into(),
            },
        );

        let (from, mut one) = decode(&mut decoder, &first);
        let shared = Arc::clone(&one.body);
        receivers[0].resolve(from, &mut one);
        assert_eq!(one.body.view.as_ref(), &grown);
        assert!(!Arc::ptr_eq(&one.body, &shared), "resolved on a copy");
        assert_eq!(
            shared.view.count(),
            2,
            "the shared body keeps the additions"
        );

        let (from, mut two) = decode(&mut decoder, &second);
        assert!(Arc::ptr_eq(&two.body, &shared), "parsed once for both");
        assert_eq!(two.part, 2);
        assert_eq!(two.body.view.count(), 2, "the next decode is untouched");
        receivers[1].resolve(from, &mut two);
        assert_eq!(two.body.view.as_ref(), &grown);
        assert_eq!(shared.view.count(), 2);
        assert_eq!(decoder.shared(), 2, "one repeat per fan-out");
        assert_eq!(decoder.held(), 0, "both recipients decoded both");
        assert!(receivers
            .iter()
            .all(|t| t.fallbacks() == 0 && t.tracked_edges() == 0));
    }

    #[test]
    fn snapshots_are_keyed_by_sender() {
        let mut r = ViewReassembler::new();
        let base = view_of(50, &[1]);
        let mut c = through_codec(control(base.clone(), ViewWire::Full { epoch: 1 }));
        r.resolve(SENDER, &mut c);
        // Same epoch and size from a different sender: no snapshot.
        let mut d = through_codec(control(
            view_of(50, &[1, 2]),
            ViewWire::Delta {
                epoch: 1,
                base_count: 1,
                additions: vec![2].into(),
            },
        ));
        r.resolve(ActorId(11), &mut d);
        assert_eq!(r.fallbacks(), 1);
    }
}
