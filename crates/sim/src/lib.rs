//! # mss-sim — deterministic discrete-event simulation kernel
//!
//! The substrate for reproducing the evaluation of *"Distributed
//! Coordination Protocols to Realize Scalable Multimedia Streaming in
//! Peer-to-Peer Overlay Networks"* (Itaya et al., ICPP 2006). The paper
//! evaluates its coordination protocols on a simulator over "reliable
//! high-speed channels"; this crate provides that simulator:
//!
//! - [`time`]: integer-nanosecond virtual time,
//! - [`event`]: a deterministic `(time, sequence)`-ordered event queue,
//! - [`world`]: the one event kernel — the actor scheduler with timers,
//!   crash-stop fault injection and the per-event digest,
//! - [`shard`]: a sharded parallel world, `S` [`world::World`]s running
//!   the same actors across threads under conservative time-window
//!   synchronization (a shard is a `World` plus an outbox),
//! - [`link`]: pluggable network models (fixed latency, jitter,
//!   i.i.d. and Gilbert–Elliott bursty loss, bandwidth queueing),
//! - [`rng`]: a splittable PCG generator so runs are bit-reproducible,
//! - [`metrics`]: named counters, declared in one table with a merge kind each,
//! - [`pool`]: bounded byte-buffer freelists so live transports frame
//!   deliveries into recycled scratch instead of fresh allocations.
//!
//! # Example
//!
//! ```
//! use mss_sim::prelude::*;
//!
//! struct Echo;
//! impl Actor<u32> for Echo {
//!     fn on_message(&mut self, ctx: &mut dyn Runtime<u32>, from: ActorId, msg: u32) {
//!         if msg < 3 {
//!             ctx.send(from, msg + 1);
//!         }
//!     }
//!     mss_sim::impl_as_any!();
//! }
//!
//! struct Starter(ActorId);
//! impl Actor<u32> for Starter {
//!     fn on_start(&mut self, ctx: &mut dyn Runtime<u32>) {
//!         let peer = self.0;
//!         ctx.send(peer, 0);
//!     }
//!     fn on_message(&mut self, ctx: &mut dyn Runtime<u32>, from: ActorId, msg: u32) {
//!         ctx.send(from, msg + 1);
//!     }
//!     mss_sim::impl_as_any!();
//! }
//!
//! let mut world = World::new(FixedLatency::new(SimDuration::from_millis(1)), 42);
//! let echo = world.add_actor(Box::new(Echo));
//! world.add_actor(Box::new(Starter(echo)));
//! let end = world.run();
//! // 0 → echo(1ms) → starter(2ms) → echo(3ms) → starter(4ms) → echo(5ms)
//! assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(5));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod link;
pub mod metrics;
pub mod pool;
pub mod rng;
pub mod shard;
pub mod time;
pub mod world;

/// One-stop imports for simulator users.
pub mod prelude {
    pub use crate::event::{ActorId, TimerId};
    pub use crate::link::{
        Bandwidth, FixedLatency, GilbertElliott, IidLoss, JitterLatency, LinkModel, LinkVerdict,
    };
    pub use crate::metrics::Metrics;
    pub use crate::rng::SimRng;
    pub use crate::shard::{ShardStats, ShardedWorld};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::{Actor, Ctx, Runtime, SimMessage, World};
}
