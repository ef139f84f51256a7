//! Leaf-schedule baseline — Liu & Vuong \[8\].
//!
//! The requesting leaf computes the complete transmission schedule
//! itself and ships every contents peer its share. One round, `n`
//! messages — but the messages carry explicit schedules (size
//! proportional to the content), the leaf must know every peer's
//! capability up front, and nothing adapts once streaming starts.

use std::sync::Arc;

use mss_sim::prelude::*;

use crate::config::SessionConfig;
use crate::msg::{Msg, ScheduleAssignment};
use crate::peer_core::{Core, PeerReport};
use crate::plane::{PlanePeer, RoundShared};
use crate::schedule::TxSchedule;
use mss_overlay::{Directory, PeerId};

/// A contents peer running the leaf-schedule baseline.
pub struct SchedulePeer {
    core: Core,
}

impl SchedulePeer {
    /// Peer `me` of a leaf-schedule session.
    pub fn new(me: PeerId, dir: Arc<Directory>, cfg: SessionConfig) -> SchedulePeer {
        SchedulePeer {
            core: Core::new(me, dir, cfg),
        }
    }

    fn on_assign(&mut self, ctx: &mut dyn Runtime<Msg>, a: ScheduleAssignment) {
        let assignment = TxSchedule {
            seq: a.sched.into(),
            pos: 0,
            interval_nanos: a.interval_nanos,
            first_delay_nanos: a.interval_nanos.saturating_mul(u64::from(a.part) + 1)
                / u64::from(a.parts).max(1),
        };
        self.core.adopt(ctx, assignment);
        self.core.record_activation(ctx, 1);
    }
}

impl PlanePeer for SchedulePeer {
    fn plane_message(&mut self, ctx: &mut dyn Runtime<Msg>, _: &mut RoundShared, msg: Msg) {
        match msg {
            Msg::Assign(a) => self.on_assign(ctx, *a),
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
