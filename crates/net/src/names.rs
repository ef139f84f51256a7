//! Metric names the live plane records, with their interned slot ids.
//!
//! The I/O loops record through the `*_id()` accessors (no string
//! hashing per batch or datagram); readers — the benchmark, the
//! `live_session` example, tests — look the same counters up by name
//! through `Metrics::counter`.
//!
//! Two units appear below. A *datagram* is what one `sendmsg`/`recvmsg`
//! slot moves and what the kernel drops: a bundle of one or more frames
//! (see [`crate::codec`]). A *frame* is one encoded message, a record
//! of a bundle. Bundle fill is frames ÷ datagrams, readable on either
//! side (`net.tx_frames / net.tx_datagrams`, `net.rx_frames /
//! net.rx_datagrams`).

/// `recvmmsg` (or fallback) batches that returned at least one datagram.
pub const RX_BATCHES: &str = "net.rx_batches";
/// Datagrams (bundles) received.
pub const RX_DATAGRAMS: &str = "net.rx_datagrams";
/// Frames (bundle records) addressed to a receiver the receiving worker
/// hosts, decodable or not.
pub const RX_FRAMES: &str = "net.rx_frames";
/// Largest receive batch, in datagrams: the maximum over workers (the
/// merge keeps a maximum a maximum; it used to read their sum).
pub const RX_BATCH_MAX: &str = "net.rx_batch_max";
/// Datagrams (bundles — each may carry many frames) the kernel dropped
/// at a full receive queue (`SO_RXQ_OVFL`).
pub const RX_DROPPED: &str = "net.rx_dropped";
/// Malformed input, skipped: a bundle record that was truncated,
/// overlong or shorter than its routing prefix (one count, and the rest
/// of that datagram is discarded), or a frame that does not decode.
pub const RX_DECODE_ERR: &str = "net.rx_decode_err";
/// Frames addressed to a receiver the receiving worker does not host.
pub const RX_UNROUTABLE: &str = "net.rx_unroutable";
/// Most frames one worker queued into its world before one
/// `run_until`: its receive pass plus the passes it makes between
/// bursts of its own sends. A per-layer metric of how much work one
/// loop turn takes on, not an end-to-end one (the name outlived the
/// per-peer mailboxes it once measured). The maximum over workers; it
/// used to read their sum.
pub const MAILBOX_HWM: &str = "net.mailbox_hwm";
/// `sendmmsg` (or fallback) calls made.
pub const TX_BATCHES: &str = "net.tx_batches";
/// Datagrams (bundles) handed to the kernel.
pub const TX_DATAGRAMS: &str = "net.tx_datagrams";
/// Frames (bundle records) written into datagrams.
pub const TX_FRAMES: &str = "net.tx_frames";
/// Largest send burst, in datagrams: the maximum over workers; it used
/// to read their sum.
pub const TX_BATCH_MAX: &str = "net.tx_batch_max";
/// Sends that never reached the kernel: datagrams (bundles) it refused,
/// plus — one count per frame — messages `LiveSession::loss` dropped
/// before bundling and frames too large for any datagram.
pub const TX_DROPPED: &str = "net.tx_dropped";
/// Receive buffer the kernel granted per worker socket (the largest).
pub const RCVBUF_BYTES: &str = "net.rcvbuf_bytes";
/// 1 when the batched syscalls are in use, 0 on the fallback path.
pub const MMSG_ACTIVE: &str = "net.mmsg_active";
/// 1 when every worker socket reports receive-queue overflow counts.
pub const RXQ_OVFL_COUNTED: &str = "net.rxq_ovfl_counted";
/// Control frames written by copying the record of an earlier handle on
/// the same fan-out body instead of encoding it (encodes skipped).
pub const TX_BODIES_SHARED: &str = "net.tx_bodies_shared";
/// Control frames answered from a body the worker already decoded for
/// another recipient of the same fan-out (decodes skipped).
pub const RX_BODIES_SHARED: &str = "net.rx_bodies_shared";
/// Decoded fan-out bodies workers still held when they exited (summed
/// over workers; the decode tables hold at most one per sender).
pub const RX_BODIES_HELD: &str = "net.rx_bodies_held";
/// Nanoseconds workers spent outside `epoll_wait` (summed over workers;
/// `LiveOutcome::worker_busy` has them per worker); read against
/// `LiveOutcome::time_to_done` it says how busy the workers were.
pub const WORKER_BUSY_NS: &str = "net.worker_busy_ns";

mss_sim::metric_ids! {
    rx_batches_id => RX_BATCHES;
    rx_datagrams_id => RX_DATAGRAMS;
    rx_frames_id => RX_FRAMES;
    rx_batch_max_id => RX_BATCH_MAX;
    rx_dropped_id => RX_DROPPED;
    rx_decode_err_id => RX_DECODE_ERR;
    rx_unroutable_id => RX_UNROUTABLE;
    mailbox_hwm_id => MAILBOX_HWM;
    tx_batches_id => TX_BATCHES;
    tx_datagrams_id => TX_DATAGRAMS;
    tx_frames_id => TX_FRAMES;
    tx_batch_max_id => TX_BATCH_MAX;
    tx_dropped_id => TX_DROPPED;
    rcvbuf_bytes_id => RCVBUF_BYTES;
    mmsg_active_id => MMSG_ACTIVE;
    rxq_ovfl_counted_id => RXQ_OVFL_COUNTED;
    tx_bodies_shared_id => TX_BODIES_SHARED;
    rx_bodies_shared_id => RX_BODIES_SHARED;
    rx_bodies_held_id => RX_BODIES_HELD;
    worker_busy_ns_id => WORKER_BUSY_NS;
}
