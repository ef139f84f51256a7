//! Synthetic multimedia contents.
//!
//! The paper's workloads are continuous-media streams ("30 Mbps for video
//! streaming"). Only three properties of a content matter to the
//! protocols: how many packets it has, how big each packet is, and the
//! content rate `τ` at which the leaf must receive it. Payloads are
//! synthesized deterministically from a key so end-to-end reconstruction
//! is byte-checkable.

use std::sync::Arc;

use crate::packet::{synth_payload, synth_xor_arc, Packet, PacketId, Seq};

/// Description of one multimedia content.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContentDesc {
    /// Key from which every payload byte derives.
    pub key: u64,
    /// Number of data packets `l` in the sequence `⟨t_1, …, t_l⟩`.
    pub packets: u64,
    /// Payload bytes per packet.
    pub packet_bytes: usize,
    /// Content rate `τ` in bits per second — the rate at which the leaf
    /// must receive the content for smooth playout.
    pub rate_bps: u64,
}

impl ContentDesc {
    /// A content shaped like the paper's motivating example: `secs`
    /// seconds of 30 Mbps video in 1350-byte packets.
    pub fn video_30mbps(key: u64, secs: u64) -> ContentDesc {
        let rate_bps = 30_000_000;
        let packet_bytes = 1350;
        let pps = rate_bps / (packet_bytes as u64 * 8);
        ContentDesc {
            key,
            packets: pps * secs,
            packet_bytes,
            rate_bps,
        }
    }

    /// A small content for tests and quickstarts.
    pub fn small(key: u64, packets: u64) -> ContentDesc {
        ContentDesc {
            key,
            packets,
            packet_bytes: 64,
            rate_bps: 1_000_000,
        }
    }

    /// Packets per second at the content rate.
    pub fn packets_per_sec(&self) -> f64 {
        self.rate_bps as f64 / (self.packet_bytes as f64 * 8.0)
    }

    /// Nanoseconds between consecutive packets at the content rate
    /// (the slot length `τ` of §2 for a full-rate channel).
    pub fn packet_interval_nanos(&self) -> u64 {
        let pps = self.packets_per_sec();
        assert!(pps > 0.0);
        (1e9 / pps).round() as u64
    }

    /// Total playing time in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.packets as f64 / self.packets_per_sec()
    }

    /// The payload of data packet `seq`.
    pub fn payload(&self, seq: Seq) -> Arc<[u8]> {
        self.check_seq(seq);
        synth_payload(self.key, seq, self.packet_bytes)
    }

    /// Materialize any packet (data, XOR parity, or RS parity) of this
    /// content.
    ///
    /// This is the sender hot path (every transmission and NACK
    /// retransmission materializes). A data packet or XOR parity costs
    /// exactly one allocation, the payload's `Arc<[u8]>`, and no zeroing
    /// or copy: the first covered seq is synthesized straight into the
    /// uninitialized buffer and every further one XORed into it, one
    /// vectorized pass each. An RS row accumulates `mul_acc` products in
    /// a pooled scratch buffer (its sources are synthesized into a second
    /// one) and ends in one `Arc::from` copy.
    pub fn materialize(&self, id: &PacketId) -> Packet {
        let payload = match id {
            PacketId::RsParity { seqs, row } => {
                crate::kernels::with_scratch(self.packet_bytes, |acc| {
                    crate::kernels::with_scratch(self.packet_bytes, |src| {
                        for (j, s) in seqs.iter().enumerate() {
                            self.check_seq(*s);
                            crate::packet::synth_fill(self.key, *s, src);
                            crate::gf256::mul_acc(acc, src, crate::gf256::exp(*row as usize * j));
                        }
                    });
                    Arc::from(&*acc)
                })
            }
            _ => {
                let cover = id.coverage_slice();
                for s in cover {
                    self.check_seq(*s);
                }
                synth_xor_arc(self.key, cover, self.packet_bytes)
            }
        };
        Packet {
            id: id.clone(),
            payload,
        }
    }

    /// Same bounds check [`ContentDesc::payload`] applies.
    fn check_seq(&self, seq: Seq) {
        assert!(
            seq.0 >= 1 && seq.0 <= self.packets,
            "seq {seq} out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_preset_has_sane_shape() {
        let c = ContentDesc::video_30mbps(1, 10);
        assert_eq!(c.rate_bps, 30_000_000);
        assert!(c.packets > 20_000, "10s of 30Mbps is many packets");
        assert!((c.duration_secs() - 10.0).abs() < 0.1);
    }

    #[test]
    fn packet_interval_matches_rate() {
        let c = ContentDesc::small(1, 100);
        // 1 Mbps / (64B*8b) = 1953.125 pps → ~512 µs.
        let iv = c.packet_interval_nanos();
        assert!((iv as i64 - 512_000).abs() < 1_000, "iv={iv}");
    }

    #[test]
    fn payload_is_deterministic_per_key() {
        let a = ContentDesc::small(7, 10);
        let b = ContentDesc::small(7, 10);
        let c = ContentDesc::small(8, 10);
        assert_eq!(a.payload(Seq(3)), b.payload(Seq(3)));
        assert_ne!(a.payload(Seq(3)), c.payload(Seq(3)));
    }

    #[test]
    fn materialize_parity_is_xor_of_coverage() {
        let c = ContentDesc::small(7, 10);
        let id = PacketId::parity_of(&[PacketId::Data(Seq(1)), PacketId::Data(Seq(2))]).unwrap();
        let p = c.materialize(&id);
        let expect: Vec<u8> = c
            .payload(Seq(1))
            .iter()
            .zip(c.payload(Seq(2)).iter())
            .map(|(a, b)| a ^ b)
            .collect();
        assert_eq!(p.payload.as_ref(), expect.as_slice());
    }

    /// The scalar combination of the coverage's `payload()`s: XOR for
    /// data and XOR parity, `Σ α^(row·j)·payload(seqs[j])` for an RS row.
    fn combine_payloads(c: &ContentDesc, id: &PacketId) -> Vec<u8> {
        let mut want = vec![0u8; c.packet_bytes];
        for (j, s) in id.coverage_slice().iter().enumerate() {
            let coef = match id {
                PacketId::RsParity { row, .. } => crate::gf256::exp(*row as usize * j),
                _ => 1,
            };
            for (w, b) in want.iter_mut().zip(c.payload(*s).iter()) {
                *w ^= crate::gf256::mul(coef, *b);
            }
        }
        want
    }

    #[test]
    fn materialize_matches_coverage_at_video_sizes() {
        let d = |s: u64| PacketId::Data(Seq(s));
        let seven: Vec<PacketId> = (1..=7).map(d).collect();
        let h7 = PacketId::parity_of(&seven).unwrap();
        let p12 = PacketId::parity_of(&[d(1), d(2)]).unwrap();
        let nested = PacketId::parity_of(&[p12, d(3), d(5)]).unwrap();
        let rs = PacketId::RsParity {
            seqs: (8..=14).map(Seq).collect(),
            row: 2,
        };
        for bytes in [1350, 1351] {
            let c = ContentDesc {
                packet_bytes: bytes,
                ..ContentDesc::video_30mbps(0x0123_4567_89ab_cdef, 1)
            };
            for id in [d(1), h7.clone(), nested.clone(), rs.clone()] {
                let p = c.materialize(&id);
                assert_eq!(p.payload.len(), bytes);
                assert_eq!(
                    &p.payload[..],
                    &combine_payloads(&c, &id)[..],
                    "{id} at {bytes} B"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn payload_bounds_checked() {
        let c = ContentDesc::small(7, 10);
        let _ = c.payload(Seq(11));
    }
}
