//! # mss-net — live runtimes for the MSS protocol state machines
//!
//! The simulator answers the paper's quantitative questions; this crate
//! answers "does it actually run on real transports?" — the same
//! `mss-core` actors, unchanged, hosted on:
//!
//! - [`bus`]: one OS thread per peer, mpsc channels in between
//!   ([`bus::ThreadedSession`]),
//! - [`udp`]: one UDP loopback socket per peer, frames encoded by the
//!   hand-rolled binary [`codec`] ([`udp::run_udp_session`]),
//! - [`live`]: the scalable plane — peers are cooperative tasks on a
//!   ready-queue scheduler ([`ready`]), I/O is a handful of shared
//!   nonblocking sockets driven by epoll with `recvmmsg`/`sendmmsg`
//!   batching ([`sys`]); thousands of peers per box
//!   ([`live::LiveSession`]).
//!
//! The first two are built on [`runtime::host_actor`], which drives any
//! `mss_sim::world::Actor` against a wall clock and a
//! [`runtime::Transport`]; all session runners share completion-signaled
//! shutdown through [`runtime::SessionControl`].
//!
//! ```no_run
//! use std::time::Duration;
//! use mss_core::prelude::*;
//! use mss_net::bus::ThreadedSession;
//!
//! let cfg = SessionConfig::small(6, 2, 7);
//! let out = ThreadedSession::new(cfg, Protocol::Dcop, Duration::from_secs(2)).run();
//! assert!(out.complete);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod codec;
pub mod live;
pub mod names;
pub(crate) mod ready;
pub mod runtime;
pub(crate) mod sys;
pub mod udp;
pub mod views;

pub use bus::{ThreadedOutcome, ThreadedSession};
pub use live::LiveSession;
pub use runtime::{host_actor, HostReport, NetRuntime, SessionControl, Transport};
