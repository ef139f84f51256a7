//! Metric names the live plane records, with their `const` slot ids.
//!
//! They are declared, with their merge kind, in `mss_sim::metrics`' one
//! table (its `live` group) and re-exported here. The I/O loops record
//! through the `*_ID` slots (no string hashing per batch or datagram);
//! readers — the benchmark, the `live_session` example, tests — look
//! the same counters up by name through `Metrics::counter`.
//!
//! Two units appear below. A *datagram* is what one `sendmsg`/`recvmsg`
//! slot moves and what the kernel drops: a bundle of one or more frames
//! (see [`crate::codec`]). A *frame* is one encoded message, a record
//! of a bundle. Bundle fill is frames ÷ datagrams, readable on either
//! side (`net.tx_frames / net.tx_datagrams`, `net.rx_frames /
//! net.rx_datagrams`).

pub use mss_sim::metrics::live::*;
