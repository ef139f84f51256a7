//! # mss-media — packets, sequence algebra, parity coding, slot allocation
//!
//! The media substrate of the ICPP 2006 multi-source streaming
//! reproduction (Itaya et al.): everything the paper's §2 and §3.2 define
//! about *contents* as opposed to *coordination*:
//!
//! - [`packet`]: data and (nested) XOR parity packets with flattened
//!   coverage sets, plus deterministic synthetic payloads,
//! - [`seq`]: the packet-sequence algebra (`∪`, `∩`, prefix `pkt⟨t]`,
//!   postfix `pkt[t⟩`),
//! - [`parity`]: `Esq` (enhanced sequences `[pkt]^h`), `Div` (round-robin
//!   split across `H` peers), and the leaf's peeling [`parity::Decoder`],
//! - [`slots`]: the heterogeneous time-slot allocation of §2 with the
//!   packet allocation property,
//! - [`buffer`]: receipt-rate metering, `ρ_s` overrun gating, and playout
//!   continuity checking,
//! - [`content`]: synthetic content descriptors (e.g. the paper's 30 Mbps
//!   video),
//! - [`gf256`] / [`rs`]: GF(2⁸) arithmetic and systematic Reed–Solomon
//!   coding — the multi-loss generalization that makes the paper's
//!   "(H − h) faulty peers" claim literally true (XOR parity is the
//!   `r = 1` special case),
//! - [`kernels`]: the vectorized coding plane — word-wide XOR,
//!   nibble-table GF(256) multiply-accumulate, availability bitmaps, and
//!   pooled scratch buffers (bit-for-bit equal to the scalar reference
//!   ops; see `tests/kernel_equivalence.rs`).
//!
//! # Example: survive the loss of a whole peer
//!
//! ```
//! use mss_media::parity::{div_all, esq, Decoder};
//! use mss_media::seq::PacketSeq;
//! use mss_media::content::ContentDesc;
//!
//! let content = ContentDesc::small(1, 40);
//! // Enhance with parity interval h = 3, split across H = 4 peers.
//! let enhanced = esq(&PacketSeq::data_range(content.packets), 3);
//! let shares = div_all(&enhanced, 4);
//!
//! // Peer 2 crashes: the leaf receives only the other three shares.
//! let mut decoder = Decoder::new();
//! for (i, share) in shares.iter().enumerate().filter(|(i, _)| *i != 2) {
//!     let _ = i;
//!     for id in share.ids() {
//!         let pkt = content.materialize(id);
//!         decoder.insert(id, &pkt.payload);
//!     }
//! }
//! assert!(decoder.missing(content.packets).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffer;
pub mod content;
pub mod fxhash;
pub mod gf256;
pub mod kernels;
pub mod packet;
pub mod parity;
pub mod rs;
pub mod seq;
pub mod slots;
pub mod view;

pub use content::ContentDesc;
pub use packet::{Cover, Packet, PacketId, Seq};
pub use seq::PacketSeq;
pub use view::SeqView;
