//! Stateful property test of the receive-side view lifetime: one
//! receiver's [`ViewReassembler`] against several senders, each a small
//! model of a TCoP parent's probe rounds (a per-round epoch stamp and
//! the snapshot of the round still open) over a grow-only view, under
//! scripts that mix delivered and dropped full frames, commits (deltas),
//! refusals, duplicated deltas, and replays of stale frames.
//!
//! Invariants, after every delivered delta frame — fresh, duplicated or
//! stale alike: either it resolved to exactly the view the sender built
//! it from, or it was counted as a fallback and kept its additions-only
//! view; it never resolves to anything else. And once every edge has
//! been answered (a commit delivered, or the probe refused), no snapshot
//! is left.

use proptest::prelude::*;
use std::sync::Arc;

use mss_core::msg::{ControlBody, ControlKind, ControlPacket, Msg, ProbeReply, ViewWire};
use mss_net::codec::{decode, encode};
use mss_net::views::ViewReassembler;
use mss_overlay::{PeerId, View};
use mss_sim::event::ActorId;
use mss_sim::rng::SimRng;

const RECEIVER: PeerId = PeerId(0);

/// One sender: a grow-only view, its probe rounds towards the receiver
/// (`epoch` stamps the latest, `open` holds its snapshot until it is
/// answered), and the frames it has put on the wire so far (for
/// replays), each with the view it stood for.
struct Sender {
    me: PeerId,
    view: View,
    epoch: u32,
    open: Option<Arc<View>>,
    sent_fulls: Vec<Vec<u8>>,
    sent_deltas: Vec<(Vec<u8>, View)>,
}

impl Sender {
    fn grow(&mut self, rng: &mut SimRng) {
        let n = self.view.population() as u64;
        for _ in 0..rng.gen_below(6) {
            self.view.insert(PeerId(rng.gen_below(n) as u32));
        }
    }

    fn packet(&self, kind: ControlKind, view_wire: ViewWire) -> Vec<u8> {
        let body = ControlBody {
            kind,
            from: self.me,
            wave: 2,
            view: Arc::new(self.view.clone()),
            view_wire,
            sched: mss_media::SeqView::empty(),
            pos: 0,
            interval_nanos: 1,
            mark_delta_nanos: 0,
            parts: 1,
            h: 2,
            fanout: 2,
            basis: None,
        };
        encode(ActorId(self.me.0), &Msg::control(&Arc::new(body), 0)).to_vec()
    }
}

/// Decode `frame` as the receiver's worker would and resolve it.
fn deliver(r: &mut ViewReassembler, frame: &[u8]) -> ControlPacket {
    let (from, msg) = decode(frame).expect("own frames decode");
    let Msg::Control(mut c) = msg else {
        panic!("control frames only");
    };
    r.resolve(from, &mut c);
    c
}

/// Deliver a delta frame that stood for `truth` and check the
/// resolve-or-count invariant.
fn deliver_delta(r: &mut ViewReassembler, frame: &[u8], truth: &View) -> Result<(), String> {
    let before = r.fallbacks();
    let c = deliver(r, frame);
    let c = &*c.body;
    let ViewWire::Delta { additions, .. } = &c.view_wire else {
        return Err("delta frame decoded as something else".into());
    };
    if r.fallbacks() == before {
        if c.view.as_ref() != truth {
            return Err(format!(
                "resolved to {} ids, sender had {}",
                c.view.count(),
                truth.count()
            ));
        }
    } else {
        if r.fallbacks() != before + 1 {
            return Err("one frame counted more than one fallback".into());
        }
        let got: Vec<u32> = c.view.iter().map(|p| p.0).collect();
        if got != additions.to_vec() {
            return Err("fallback must keep exactly the additions".into());
        }
    }
    Ok(())
}

fn run_script(seed: u64) -> Result<(), String> {
    let mut rng = SimRng::new(seed).fork(0x5EA5);
    let n = 64 + rng.gen_below(4000) as usize;
    let mut senders: Vec<Sender> = (1..=1 + rng.gen_below(4) as u32)
        .map(|i| {
            let mut view = View::empty(n);
            view.insert(PeerId(i));
            Sender {
                me: PeerId(i),
                view,
                epoch: 0,
                open: None,
                sent_fulls: Vec::new(),
                sent_deltas: Vec::new(),
            }
        })
        .collect();
    let mut r = ViewReassembler::new();

    // `answer`: commit (true) or refuse (false) the sender's open edge.
    // Returns whether a commit's first delivery resolved.
    let answer = |s: &mut Sender,
                  r: &mut ViewReassembler,
                  rng: &mut SimRng,
                  commit: bool|
     -> Result<bool, String> {
        let Some(base) = s.open.take() else {
            return Ok(true); // nothing outstanding on this edge
        };
        if !commit {
            let refusal = ProbeReply {
                from: RECEIVER,
                accept: false,
                wave: 2,
            };
            r.observe_sent(ActorId(s.me.0), &Msg::Reply(refusal));
            return Ok(true);
        }
        s.grow(rng);
        let wire = ViewWire::Delta {
            epoch: s.epoch,
            base_count: base.count() as u32,
            additions: s.view.diff_ids(&base).into(),
        };
        let frame = s.packet(ControlKind::Commit, wire);
        let before = r.fallbacks();
        deliver_delta(r, &frame, &s.view)?;
        let resolved = r.fallbacks() == before;
        if rng.gen_bool(0.25) {
            // Duplicated in flight: the snapshot is gone, so the copy
            // can only fall back.
            let before = r.fallbacks();
            deliver_delta(r, &frame, &s.view)?;
            if r.fallbacks() != before + 1 {
                return Err("a duplicated delta resolved twice".into());
            }
        }
        s.sent_deltas.push((frame, s.view.clone()));
        Ok(resolved)
    };
    let probe = |s: &mut Sender, r: &mut ViewReassembler, rng: &mut SimRng, dropped: bool| {
        s.grow(rng);
        s.epoch += 1;
        s.open = Some(Arc::new(s.view.clone()));
        let frame = s.packet(ControlKind::Probe, ViewWire::Full { epoch: s.epoch });
        if !dropped {
            let c = deliver(r, &frame);
            assert_eq!(c.body.view.as_ref(), &s.view, "full frames carry the view");
        }
        s.sent_fulls.push(frame);
    };

    for _ in 0..rng.gen_below(60) {
        let k = rng.gen_below(senders.len() as u64) as usize;
        let s = &mut senders[k];
        match rng.gen_below(8) {
            0..=2 => {
                let dropped = rng.gen_bool(0.3);
                probe(s, &mut r, &mut rng, dropped);
            }
            3 | 4 => {
                answer(s, &mut r, &mut rng, true)?;
            }
            5 => {
                answer(s, &mut r, &mut rng, false)?;
            }
            6 => {
                // Replay of an old full frame (stale epoch, older view).
                if !s.sent_fulls.is_empty() {
                    let i = rng.gen_below(s.sent_fulls.len() as u64) as usize;
                    deliver(&mut r, &s.sent_fulls[i]);
                }
            }
            _ => {
                // Replay of an old delta frame.
                if !s.sent_deltas.is_empty() {
                    let i = rng.gen_below(s.sent_deltas.len() as u64) as usize;
                    let (frame, truth) = &s.sent_deltas[i];
                    deliver_delta(&mut r, frame, truth)?;
                }
            }
        }
        if r.tracked_edges() > senders.len() {
            return Err("more snapshots than senders".into());
        }
    }

    // Close every edge: a delivered probe, then its answer.
    for s in &mut senders {
        probe(s, &mut r, &mut rng, false);
        let commit = rng.gen_bool(0.5);
        if !answer(s, &mut r, &mut rng, commit)? {
            return Err("an in-order probe → commit must resolve".into());
        }
    }
    let open = senders.iter().filter(|s| s.open.is_some()).count();
    if r.tracked_edges() != 0 || open != 0 {
        return Err(format!(
            "{} receiver / {open} sender snapshots outlived their readers",
            r.tracked_edges(),
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reassembler_resolves_or_counts_and_leaks_nothing(seed in any::<u64>()) {
        if let Err(why) = run_script(seed) {
            prop_assert!(false, "seed {}: {}", seed, why);
        }
    }
}
