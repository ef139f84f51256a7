//! Nothing lives here but a path: `mss::net::bus::SETTLE` is held for
//! `benchmark/src/workloads.rs` until a benchmark PR moves its import to
//! [`crate::runtime::SETTLE`].

pub use crate::runtime::SETTLE;
