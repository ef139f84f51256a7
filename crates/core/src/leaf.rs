//! The leaf peer `LP_s`: initiates coordination and consumes the stream.
//!
//! One actor serves every protocol; only the initiation step differs
//! (how many peers the leaf contacts and with what message). On the
//! receive side the leaf runs the parity [`Decoder`], meters its receipt
//! rate, enforces its maximum receipt rate `ρ_s` through an optional
//! [`OverrunGate`], and records when each data packet became playable.

use std::sync::Arc;

use mss_media::buffer::{OverrunGate, ReceiptMeter};
use mss_media::parity::{div_all, enhance, Decoder, InsertOutcome};
use mss_media::{PacketId, PacketSeq};
use mss_overlay::{Directory, PeerId, View};
use mss_sim::prelude::*;

use crate::config::{Piggyback, Protocol, SessionConfig};
use crate::metrics as mnames;
use crate::msg::{ContentRequest, Msg, Nack, ScheduleAssignment};
use crate::schedule::divided_interval;

/// Leaf timer tag: repair-check tick.
const TAG_REPAIR: u64 = 100;
/// Missing seqs NACKed per round (bounds message size).
const REPAIR_BATCH: usize = 512;

/// The leaf-peer actor.
pub struct LeafActor {
    cfg: SessionConfig,
    protocol: Protocol,
    dir: Arc<Directory>,
    gate: Option<OverrunGate>,
    decoder: Decoder,
    meter: ReceiptMeter,
    /// nanos at which each data packet (1-based) became decodable.
    avail: Vec<u64>,
    duplicates: u64,
    accepted: u64,
    overruns: u64,
    /// Data packets learned through parity recovery rather than direct
    /// receipt.
    recovered: u64,
    complete_nanos: Option<u64>,
    rng: SimRng,
    /// Repair state: accepted-count at the last check and rounds used.
    repair_armed: bool,
    repair_last_accepted: u64,
    repair_rounds: u32,
}

impl LeafActor {
    /// A leaf for the given session and protocol. `gate` models `ρ_s`
    /// (None = unlimited).
    pub fn new(
        cfg: SessionConfig,
        protocol: Protocol,
        dir: Arc<Directory>,
        gate: Option<OverrunGate>,
    ) -> LeafActor {
        let l = cfg.content.packets as usize;
        let rng = SimRng::new(cfg.seed).fork(1);
        LeafActor {
            cfg,
            protocol,
            dir,
            gate,
            decoder: Decoder::new(),
            meter: ReceiptMeter::new(),
            avail: vec![u64::MAX; l],
            duplicates: 0,
            accepted: 0,
            overruns: 0,
            recovered: 0,
            complete_nanos: None,
            rng,
            repair_armed: false,
            repair_last_accepted: 0,
            repair_rounds: 0,
        }
    }

    fn arm_repair(&mut self, ctx: &mut dyn Runtime<Msg>) {
        let Some(repair) = self.cfg.repair else {
            return;
        };
        if self.repair_armed || self.complete_nanos.is_some() {
            return;
        }
        self.repair_armed = true;
        ctx.set_timer(repair.check_interval, TAG_REPAIR);
    }

    /// Repair tick: if the stream has gone quiet with data still missing,
    /// NACK the missing sequence numbers to a few random peers.
    fn on_repair_timer(&mut self, ctx: &mut dyn Runtime<Msg>) {
        self.repair_armed = false;
        let Some(repair) = self.cfg.repair else {
            return;
        };
        if self.complete_nanos.is_some() || self.repair_rounds >= repair.max_rounds {
            return;
        }
        if self.accepted != self.repair_last_accepted {
            // Still making progress; check again later.
            self.repair_last_accepted = self.accepted;
            self.arm_repair(ctx);
            return;
        }
        // Quiet and incomplete: request the missing packets. The
        // popcount fast path means a clean tick allocates nothing; the
        // batch is only materialized when there is something to NACK.
        // One shared batch; each fan-out target's Nack clone is a
        // refcount bump.
        if self.missing_count() == 0 {
            return;
        }
        let missing: Arc<[mss_media::Seq]> = self.missing_seqs(REPAIR_BATCH).into();
        self.repair_rounds += 1;
        ctx.metrics().incr_id(mnames::REPAIR_ROUNDS_ID);
        let pool: Vec<PeerId> = self.dir.peers().collect();
        let targets = self.rng.sample(&pool, repair.fanout.max(1));
        for peer in targets {
            let to = self.dir.actor_of(peer);
            self.send_coord(
                ctx,
                to,
                Msg::Nack(Nack {
                    seqs: missing.clone(),
                }),
            );
        }
        self.arm_repair(ctx);
    }

    /// Up to `limit` still-missing data seqs, in stream order — a
    /// zero-bit walk over the decoder's availability bitmap with an
    /// early stop.
    fn missing_seqs(&self, limit: usize) -> Vec<mss_media::Seq> {
        self.decoder
            .missing_iter(self.cfg.content.packets)
            .take(limit)
            .collect()
    }

    fn send_coord(&mut self, ctx: &mut dyn Runtime<Msg>, to: mss_sim::event::ActorId, msg: Msg) {
        let m = ctx.metrics();
        m.incr_id(mnames::COORD_MSGS_ID);
        m.add_id(mnames::COORD_BYTES_ID, msg.model_size() as u64);
        let tx = msg.wire_size() as u64;
        m.add_id(mnames::COORD_BYTES_TX_ID, tx);
        m.add_id(mnames::coord_bytes_tx_kind_id(&msg), tx);
        m.add_id(mnames::COORD_BYTES_FULL_ID, tx);
        ctx.send(to, msg);
    }

    /// Leaf's selection of the initial `H` contents peers. The
    /// centralized baseline always addresses the coordinator CP_1.
    fn initial_selection(&mut self, count: usize) -> Vec<PeerId> {
        if self.protocol == Protocol::Centralized {
            return vec![PeerId(0)];
        }
        let pool: Vec<PeerId> = self.dir.peers().collect();
        self.rng.sample(&pool, count)
    }

    fn initiate_flooding(&mut self, ctx: &mut dyn Runtime<Msg>, count: usize) {
        let selected = self.initial_selection(count);
        let view = match self.cfg.piggyback {
            Piggyback::FullView => {
                let mut v = View::empty(self.cfg.n);
                for p in &selected {
                    v.insert(*p);
                }
                Some(Arc::new(v))
            }
            Piggyback::SelectionsOnly => None,
        };
        let interval = self.cfg.content.packet_interval_nanos();
        let parts = selected.len() as u32;
        // Heterogeneous mode: ship the selected peers' relative
        // bandwidths so each derives its §2-proportional share.
        let weights: Option<Arc<[u64]>> = self
            .cfg
            .bandwidths
            .as_ref()
            .map(|b| selected.iter().map(|p| b[p.index()]).collect());
        for (k, peer) in selected.iter().enumerate() {
            let req = ContentRequest {
                wave: 1,
                interval_nanos: interval,
                h: self.cfg.parity_interval as u32,
                fanout: self.cfg.fanout as u32,
                part: k as u32,
                parts,
                view: view.clone(),
                weights: weights.clone(),
            };
            let to = self.dir.actor_of(*peer);
            self.send_coord(ctx, to, Msg::request(req));
        }
    }

    fn initiate_leaf_schedule(&mut self, ctx: &mut dyn Runtime<Msg>) {
        // Liu & Vuong-style: the leaf computes the complete transmission
        // schedule and ships each peer its share explicitly. In
        // heterogeneous mode the shares are bandwidth-proportional.
        let n = self.cfg.n;
        let h = self.cfg.parity_interval;
        let enhanced = enhance(
            &PacketSeq::data_range(self.cfg.content.packets),
            h,
            self.cfg.tail_parity,
            self.cfg.coding,
        );
        let shares: Vec<PacketSeq> = match &self.cfg.bandwidths {
            None => div_all(&enhanced, n),
            Some(bws) => {
                let alloc = mss_media::slots::allocate(bws, enhanced.len() as u64);
                alloc
                    .per_channel
                    .iter()
                    .map(|positions| {
                        PacketSeq::from_ids(
                            positions
                                .iter()
                                .map(|&p| enhanced.ids()[(p - 1) as usize].clone())
                                .collect(),
                        )
                    })
                    .collect()
            }
        };
        let uniform_interval = divided_interval(self.cfg.content.packet_interval_nanos(), h, n);
        let window =
            self.cfg.content.packet_interval_nanos() as u128 * self.cfg.content.packets as u128;
        for (k, share) in shares.into_iter().enumerate() {
            let interval = if self.cfg.bandwidths.is_some() && !share.is_empty() {
                (window / share.len() as u128).max(1) as u64
            } else {
                uniform_interval
            };
            let msg = Msg::assign(ScheduleAssignment {
                part: k as u32,
                parts: n as u32,
                h: h as u32,
                interval_nanos: interval,
                sched: share,
            });
            let to = self.dir.actor_of(PeerId(k as u32));
            self.send_coord(ctx, to, msg);
        }
    }

    fn on_data(&mut self, ctx: &mut dyn Runtime<Msg>, id: &PacketId, payload: &Arc<[u8]>) {
        let now = ctx.now().as_nanos();
        self.arm_repair(ctx);
        if let Some(gate) = self.gate.as_mut() {
            if !gate.offer(now, payload.len() + 16) {
                self.overruns += 1;
                return;
            }
        }
        self.accepted += 1;
        self.meter.record(now, payload.len());
        // `insert_bytes`: a fresh data packet is adopted by Arc clone —
        // no payload copy on the common receive path.
        match self.decoder.insert_bytes(id, payload) {
            InsertOutcome::Learned(seqs) => {
                // The first learned seq came directly when `id` is a data
                // packet; everything else was recovered via parity.
                for (j, s) in seqs.iter().enumerate() {
                    let idx = (s.0 - 1) as usize;
                    if idx < self.avail.len() && self.avail[idx] == u64::MAX {
                        self.avail[idx] = now;
                    }
                    let direct = j == 0 && id.is_data();
                    if !direct {
                        self.recovered += 1;
                    }
                }
                if self.complete_nanos.is_none()
                    && self.decoder.known_count() as u64 >= self.cfg.content.packets
                {
                    self.complete_nanos = Some(now);
                    ctx.metrics()
                        .set_max_id(mnames::LEAF_COMPLETE_NANOS_ID, now);
                }
            }
            InsertOutcome::Redundant => self.duplicates += 1,
            InsertOutcome::Buffered => {}
        }
    }

    // ---- post-run accessors -------------------------------------------

    /// True once every data packet was reconstructed.
    pub fn is_complete(&self) -> bool {
        self.complete_nanos.is_some()
    }

    /// Nanoseconds to full reconstruction.
    pub fn complete_nanos(&self) -> Option<u64> {
        self.complete_nanos
    }

    /// Data packets accepted (post-gate).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Redundant packets received.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Packets dropped by the ρ_s gate.
    pub fn overruns(&self) -> u64 {
        self.overruns
    }

    /// Data packets recovered via parity.
    pub fn recovered(&self) -> u64 {
        self.recovered
    }

    /// Mean receipt rate in bits/second (None until measurable).
    pub fn measured_bps(&self) -> Option<f64> {
        self.meter.mean_bps()
    }

    /// Total payload bytes accepted.
    pub fn received_bytes(&self) -> u64 {
        self.meter.bytes()
    }

    /// Per-packet availability times (nanos; `u64::MAX` = never).
    pub fn availability(&self) -> &[u64] {
        &self.avail
    }

    /// The decoder's availability bitmap (bit `s` set ⇔ `t_s` decoded) —
    /// consistent with [`LeafActor::availability`] and accepted by
    /// `PlayoutClock::continuity_bits` for word-scanned playout checks.
    pub fn known_bitmap(&self) -> &mss_media::kernels::Bitmap {
        self.decoder.known_bitmap()
    }

    /// Number of data packets still missing.
    pub fn missing_count(&self) -> usize {
        self.cfg.content.packets as usize - self.decoder.known_count()
    }

    /// Verify every recovered payload against the content definition.
    pub fn payloads_verified(&self) -> bool {
        (1..=self.cfg.content.packets).all(|s| {
            let seq = mss_media::Seq(s);
            match self.decoder.payload(seq) {
                Some(p) => p == &self.cfg.content.payload(seq),
                None => false,
            }
        })
    }
}

impl Actor<Msg> for LeafActor {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Msg>) {
        match self.protocol {
            Protocol::Dcop | Protocol::Tcop => self.initiate_flooding(ctx, self.cfg.fanout),
            Protocol::Broadcast => self.initiate_flooding(ctx, self.cfg.n),
            Protocol::Unicast => self.initiate_flooding(ctx, 1),
            // The centralized coordinator is CP_1; the leaf's request
            // triggers the 2PC among all peers.
            Protocol::Centralized => self.initiate_flooding(ctx, 1),
            Protocol::LeafSchedule => self.initiate_leaf_schedule(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Runtime<Msg>, _from: mss_sim::event::ActorId, msg: Msg) {
        if let Msg::Data(d) = msg {
            self.on_data(ctx, &d.packet.id, &d.packet.payload);
            crate::msg::recycle_data(d);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Runtime<Msg>, _timer: mss_sim::event::TimerId, tag: u64) {
        if tag == TAG_REPAIR {
            self.on_repair_timer(ctx);
        }
    }

    mss_sim::impl_as_any!();
}
