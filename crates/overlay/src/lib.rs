//! # mss-overlay — P2P overlay substrate
//!
//! Identity, membership, views and selection for the multi-source
//! streaming session: the machinery the ICPP 2006 paper's
//! coordination protocols assume from the surrounding P2P overlay network.
//!
//! - [`peer`]: dense contents-peer ids `CP_1 … CP_n` and the directory
//!   mapping them to transport actors,
//! - [`view`]: the adaptive `VW_i` views carried in control packets,
//! - [`wire`]: compact self-describing wire encodings for those views
//!   (dense / sparse / runs frames),
//! - [`select`]: the paper's `Select`/`Aselect` child-selection draws,
//! - [`gossip`]: push / push-pull membership dissemination (the paper's
//!   \[6\]-style bootstrap for the `CP` set everyone is assumed to know).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod gossip;
pub mod peer;
pub mod select;
pub mod view;
pub mod wire;

pub use peer::{Directory, PeerId};
pub use view::View;
