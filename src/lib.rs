//! # mss — multi-source P2P streaming (ICPP 2006 reproduction)
//!
//! Umbrella crate re-exporting the whole workspace: a from-scratch Rust
//! reproduction of *"Distributed Coordination Protocols to Realize
//! Scalable Multimedia Streaming in Peer-to-Peer Overlay Networks"*
//! (S. Itaya, N. Hayashibara, T. Enokido, M. Takizawa — ICPP 2006).
//!
//! - [`sim`]: deterministic discrete-event simulation kernel,
//! - [`media`]: packets, sequence algebra, XOR parity coding, time-slot
//!   allocation, playout accounting,
//! - [`overlay`]: peer ids, views, selection, gossip membership,
//! - [`core`]: the DCoP/TCoP coordination protocols and four baselines,
//! - [`net`]: the live host (simulator worlds on a wall clock over UDP
//!   loopback),
//! - [`harness`]: the experiment harness regenerating Figures 10–12.
//!
//! Start with [`core::prelude`]:
//!
//! ```
//! use mss::core::prelude::*;
//!
//! let outcome = Session::new(SessionConfig::small(10, 3, 1), Protocol::Dcop).run();
//! assert!(outcome.complete);
//! ```

pub use mss_core as core;
pub use mss_harness as harness;
pub use mss_media as media;
pub use mss_net as net;
pub use mss_overlay as overlay;
pub use mss_sim as sim;
