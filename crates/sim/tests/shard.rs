//! Sharded-world kernel tests: cross-shard delivery, determinism for a
//! fixed `(seed, shards)` pair, kill propagation, stop propagation, and
//! the lookahead-violation and past-delivery guards.

use mss_sim::event::ActorId;
use mss_sim::impl_as_any;
use mss_sim::link::{FixedLatency, LinkModel, LinkVerdict};
use mss_sim::metrics;
use mss_sim::prelude::*;
use mss_sim::rng::SimRng;
use mss_sim::shard::ShardedWorld;
use mss_sim::world::{Actor, World};

#[derive(Clone, Debug, PartialEq)]
struct Ping(u64);
impl SimMessage for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// Sends `count` pings to `target`, one per millisecond.
struct Pinger {
    target: ActorId,
    count: u64,
}
impl Actor<Ping> for Pinger {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
        for i in 0..self.count {
            ctx.set_timer(SimDuration::from_millis(i + 1), i);
        }
    }
    fn on_message(&mut self, _ctx: &mut dyn Runtime<Ping>, _from: ActorId, _msg: Ping) {}
    fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _timer: TimerId, tag: u64) {
        ctx.send(self.target, Ping(tag));
    }
    impl_as_any!();
}

/// Records `(arrival ns, tag)` pairs.
#[derive(Default)]
struct Sink {
    got: Vec<(u64, u64)>,
}
impl Actor<Ping> for Sink {
    fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, _from: ActorId, msg: Ping) {
        self.got.push((ctx.now().as_nanos(), msg.0));
    }
    impl_as_any!();
}

/// Half of a ping-pong pair: forwards each tag incremented to `peer`
/// until `bound`, optionally serving (tag 0 at start).
struct Volley {
    peer: ActorId,
    bound: u64,
    serve: bool,
}
impl Actor<Ping> for Volley {
    fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
        if self.serve {
            ctx.send(self.peer, Ping(0));
        }
    }
    fn on_message(&mut self, ctx: &mut dyn Runtime<Ping>, _from: ActorId, msg: Ping) {
        if msg.0 < self.bound {
            ctx.send(self.peer, Ping(msg.0 + 1));
        }
    }
    impl_as_any!();
}

const LAT: SimDuration = SimDuration::from_millis(5);

fn fixed_link(_shard: usize) -> Box<dyn LinkModel + Send> {
    Box::new(FixedLatency::new(LAT))
}

#[test]
fn cross_shard_delivery_times_match_single_world() {
    // Same pinger→sink topology in a World and across two shards: the
    // sink must log identical (time, tag) pairs either way.
    let mut w: World<Ping> = World::new(FixedLatency::new(LAT), 7);
    let sink_w = w.add_actor(Box::new(Sink::default()));
    w.add_actor(Box::new(Pinger {
        target: sink_w,
        count: 4,
    }));
    w.run();
    let expect = w.actor_as::<Sink>(sink_w).unwrap().got.clone();

    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 7, fixed_link);
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        1,
        Box::new(Pinger {
            target: sink,
            count: 4,
        }),
    );
    sw.run();
    assert_eq!(sw.actor_as::<Sink>(sink).unwrap().got, expect);
    assert_eq!(sw.clamped_cross_events(), 0);
    let stats = sw.shard_stats();
    assert_eq!(stats.len(), 2);
    assert!(stats[1].cross_sent >= 4, "pings crossed shards");
}

#[test]
fn ping_pong_across_shards_terminates_with_exact_times() {
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 11, fixed_link);
    // Ids are dense in registration order: the returner is id 0, the
    // server id 1, so both peer ids are known up front.
    let returner = sw.add_actor(
        1,
        Box::new(Volley {
            peer: ActorId(1),
            bound: 6,
            serve: false,
        }),
    );
    assert_eq!(returner, ActorId(0));
    sw.add_actor(
        0,
        Box::new(Volley {
            peer: ActorId(0),
            bound: 6,
            serve: true,
        }),
    );
    let end = sw.run();
    // Tag k crosses shards and arrives at (k+1)·5 ms; tag 6 arrives
    // last (35 ms) and is not returned: 7 deliveries total.
    assert_eq!(end, SimTime::ZERO + SimDuration::from_millis(35));
    assert_eq!(sw.metrics().counter(metrics::NET_DELIVERED), 7);
}

#[test]
fn fixed_seed_and_shards_reproduce_bit_for_bit() {
    let run = || {
        let mut sw: ShardedWorld<Ping> = ShardedWorld::new(3, LAT, 99, fixed_link);
        let sink = sw.add_actor(0, Box::new(Sink::default()));
        for shard in 0..3 {
            sw.add_actor(
                shard,
                Box::new(Pinger {
                    target: sink,
                    count: 8,
                }),
            );
        }
        sw.run();
        let got = sw.actor_as::<Sink>(sink).unwrap().got.clone();
        let counters: Vec<(String, u64)> = sw
            .metrics()
            .counters()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        (sw.event_digest(), got, counters, sw.events_dispatched())
    };
    assert_eq!(run(), run());
}

#[test]
fn different_shard_counts_still_complete() {
    // Not stream-identical across shard counts, but each must deliver
    // every ping exactly once.
    for shards in [1usize, 2, 4] {
        let mut sw: ShardedWorld<Ping> = ShardedWorld::new(shards, LAT, 5, fixed_link);
        let sink = sw.add_actor(0, Box::new(Sink::default()));
        for k in 0..shards {
            sw.add_actor(
                k,
                Box::new(Pinger {
                    target: sink,
                    count: 5,
                }),
            );
        }
        sw.run();
        assert_eq!(
            sw.actor_as::<Sink>(sink).unwrap().got.len(),
            5 * shards,
            "shards={shards}"
        );
    }
}

#[test]
fn killed_remote_actor_stops_receiving_at_the_next_window() {
    struct Killer {
        victim: ActorId,
    }
    impl Actor<Ping> for Killer {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
            ctx.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, _: u64) {
            ctx.kill(self.victim);
        }
        impl_as_any!();
    }
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 3, fixed_link);
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        0,
        Box::new(Pinger {
            target: sink,
            count: 40,
        }),
    );
    sw.add_actor(1, Box::new(Killer { victim: sink }));
    sw.run();
    let got = sw.actor_as::<Sink>(sink).unwrap().got.len();
    // Pings arrive at 6,7,8,…ms; the kill fires at 10ms on the other
    // shard and lands at a window boundary ≥ 10ms, so the sink sees at
    // least the first five pings but nowhere near all 40.
    assert!((5..=20).contains(&got), "saw {got} pings");
    assert!(!sw.is_alive(sink));
    assert!(sw.metrics().counter(metrics::NET_TO_DEAD) > 0);
}

#[test]
fn stop_world_halts_every_shard() {
    struct Stopper;
    impl Actor<Ping> for Stopper {
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>) {
            ctx.set_timer(SimDuration::from_millis(8), 0);
        }
        fn on_message(&mut self, _: &mut dyn Runtime<Ping>, _: ActorId, _: Ping) {}
        fn on_timer(&mut self, ctx: &mut dyn Runtime<Ping>, _: TimerId, _: u64) {
            ctx.stop_world();
        }
        impl_as_any!();
    }
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 21, fixed_link);
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        1,
        Box::new(Pinger {
            target: sink,
            count: 100,
        }),
    );
    sw.add_actor(1, Box::new(Stopper));
    sw.run();
    let got = sw.actor_as::<Sink>(sink).unwrap().got.len();
    assert!(got < 100, "stop_world ignored (saw {got} pings)");
}

#[test]
fn run_until_advances_to_limit_and_resumes() {
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 13, fixed_link);
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        1,
        Box::new(Pinger {
            target: sink,
            count: 3,
        }),
    );
    // Pings arrive at 6, 7, 8 ms.
    let reached = sw.run_until(SimTime(6_500_000));
    assert_eq!(reached, SimTime(6_500_000));
    assert_eq!(sw.actor_as::<Sink>(sink).unwrap().got.len(), 1);
    sw.run();
    assert_eq!(sw.actor_as::<Sink>(sink).unwrap().got.len(), 3);
}

#[test]
fn single_shard_works_with_zero_lookahead() {
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(1, SimDuration::ZERO, 2, |_| {
        Box::new(FixedLatency::new(SimDuration::ZERO))
    });
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        0,
        Box::new(Pinger {
            target: sink,
            count: 3,
        }),
    );
    sw.run();
    assert_eq!(sw.actor_as::<Sink>(sink).unwrap().got.len(), 3);
}

#[test]
#[should_panic(expected = "positive lookahead")]
fn multi_shard_rejects_zero_lookahead() {
    let _: ShardedWorld<Ping> = ShardedWorld::new(2, SimDuration::ZERO, 2, |_| {
        Box::new(FixedLatency::new(SimDuration::ZERO))
    });
}

/// A link that claims 5ms of min latency but delivers instantly —
/// exactly the contract violation the clamp guard must catch.
struct LyingLink;
impl LinkModel for LyingLink {
    fn process(
        &mut self,
        now: SimTime,
        _from: ActorId,
        _to: ActorId,
        _bytes: usize,
        _rng: &mut SimRng,
    ) -> LinkVerdict {
        LinkVerdict::Deliver(now)
    }
    fn min_latency(&self) -> SimDuration {
        LAT
    }
}

#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "lookahead contract")]
fn lying_link_fails_the_run_in_debug() {
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 4, |_| Box::new(LyingLink));
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    // Ping sent at t=1ms from the other shard "arrives" at 1ms, inside
    // an already-closed window once it crosses — the guard must trip.
    sw.add_actor(
        1,
        Box::new(Pinger {
            target: sink,
            count: 20,
        }),
    );
    sw.run();
}

/// A link that delivers 1 ns into the past — a bug the one route's
/// clamp-and-count guard must catch on either kernel.
struct PastLink;
impl LinkModel for PastLink {
    fn process(
        &mut self,
        now: SimTime,
        _from: ActorId,
        _to: ActorId,
        _bytes: usize,
        _rng: &mut SimRng,
    ) -> LinkVerdict {
        LinkVerdict::Deliver(SimTime(now.0 - 1))
    }
    fn min_latency(&self) -> SimDuration {
        LAT
    }
}

#[test]
#[cfg_attr(debug_assertions, should_panic(expected = "delivered into the past"))]
fn past_delivery_fails_a_lone_world_in_debug_and_is_clamped_in_release() {
    let mut w: World<Ping> = World::new(PastLink, 6);
    let sink = w.add_actor(Box::new(Sink::default()));
    w.add_actor(Box::new(Pinger {
        target: sink,
        count: 3,
    }));
    w.run();
    // Release only from here: each ping lands at its send time.
    let got = &w.actor_as::<Sink>(sink).unwrap().got;
    assert_eq!(got, &[(1_000_000, 0), (2_000_000, 1), (3_000_000, 2)]);
    assert_eq!(w.metrics().counter(metrics::NET_CLAMPED), 3);

    // The shards route through the same code: the sender clamps the
    // verdict to its clock, the receiver clamps it again to the floor.
    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 6, |_| Box::new(PastLink));
    let sink = sw.add_actor(0, Box::new(Sink::default()));
    sw.add_actor(
        1,
        Box::new(Pinger {
            target: sink,
            count: 3,
        }),
    );
    sw.run();
    assert_eq!(sw.actor_as::<Sink>(sink).unwrap().got.len(), 3);
    assert_eq!(sw.clamped_cross_events(), 6);
    assert_eq!(sw.metrics().counter(metrics::NET_CLAMPED), 6);
}

#[test]
fn group_members_dispatch_on_their_shard() {
    use mss_sim::world::ActorGroup;
    use std::any::Any;

    /// Counts messages per member and forwards each around the ring of
    /// ids 0..4 (possibly to another shard) until the tag runs out.
    struct Relay {
        seen: Vec<u32>,
    }
    impl ActorGroup<Ping> for Relay {
        fn on_message(
            &mut self,
            ctx: &mut dyn Runtime<Ping>,
            member: u32,
            _from: ActorId,
            msg: Ping,
        ) {
            self.seen[member as usize] += 1;
            if msg.0 > 0 {
                ctx.send(ActorId((ctx.id().0 + 1) % 4), Ping(msg.0 - 1));
            }
        }
        fn member_as_any(&self, member: u32) -> &dyn Any {
            &self.seen[member as usize]
        }
        fn on_start(&mut self, ctx: &mut dyn Runtime<Ping>, _member: u32) {
            if ctx.id() == ActorId(0) {
                ctx.send(ActorId(0), Ping(8));
            }
        }
    }

    let mut sw: ShardedWorld<Ping> = ShardedWorld::new(2, LAT, 17, fixed_link);
    // Two 2-member relay groups, one per shard, forming a 4-hop ring.
    let relay = || Box::new(Relay { seen: vec![0; 2] });
    assert_eq!(sw.add_group(0, 2, relay()), ActorId(0));
    assert_eq!(sw.add_group(1, 2, relay()), ActorId(2));
    assert_eq!(sw.actor_count(), 4);
    let hosted: Vec<usize> = sw.shard_stats().iter().map(|s| s.actors).collect();
    assert_eq!(hosted, [2, 2]);
    sw.run();
    // 8 hops around 0→1→2→3→0→…: the initial send hits member 0, then
    // each forward decrements; every member saw at least one message.
    for id in 0..4u32 {
        let seen = sw.actor_as::<u32>(ActorId(id)).unwrap();
        assert!(*seen >= 1, "member {id} never dispatched");
    }
    assert_eq!(sw.metrics().counter(metrics::NET_DELIVERED), 9);
}
