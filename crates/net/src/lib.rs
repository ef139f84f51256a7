//! # mss-net — the live host for the MSS protocol state machines
//!
//! The simulator answers the paper's quantitative questions; this crate
//! answers "does it actually run on real transports?" — the same
//! `mss-core` actors, unchanged, hosted by [`live::LiveSession`]. A
//! live worker is the simulator's own kernel, an `mss_sim` world, on a
//! wall clock: one thread and one nonblocking UDP loopback receive
//! socket per worker, driven by epoll, with `recvmmsg`/`sendmmsg`
//! batching. Every message crosses the wire: frames are encoded by the
//! hand-rolled binary [`codec`] and travel many to a datagram (bundles
//! sealed at one MTU, flushed before a worker waits); thousands of peers
//! per box. Shutdown is completion-signaled through
//! [`runtime::SessionControl`].
//!
//! ```no_run
//! use std::time::Duration;
//! use mss_core::prelude::*;
//! use mss_net::LiveSession;
//!
//! let cfg = SessionConfig::small(6, 2, 7);
//! let out = LiveSession::new(cfg, Protocol::Dcop, Duration::from_secs(2))
//!     .run()
//!     .expect("loopback sockets");
//! assert!(out.outcome.complete);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod codec;
pub mod live;
pub mod names;
pub mod runtime;
pub(crate) mod sys;

pub use live::{LiveOutcome, LiveSession};
pub use runtime::SessionControl;
