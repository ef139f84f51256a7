//! Peer identities and the contents-peer directory.
//!
//! Protocol logic addresses contents peers by dense [`PeerId`]s `0..n`;
//! the [`Directory`] maps those to transport addresses
//! ([`mss_sim::event::ActorId`] in the simulator, socket addresses in the
//! live runtime use their own map). The leaf peer is not a contents peer
//! and has no `PeerId`.

use std::fmt;

use mss_sim::event::ActorId;

/// Dense index of a contents peer within one streaming session
/// (`CP_1 … CP_n` in the paper; 0-based here).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PeerId(pub u32);

impl PeerId {
    /// Index into per-peer tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CP{}", self.0 + 1)
    }
}

/// Maps session-level peer ids to simulator actors.
#[derive(Clone, Debug)]
pub struct Directory {
    actors: Vec<ActorId>,
    leaf: ActorId,
}

impl Directory {
    /// Directory over contents-peer actors plus the leaf actor.
    pub fn new(actors: Vec<ActorId>, leaf: ActorId) -> Self {
        Directory { actors, leaf }
    }

    /// The layout every session host uses: contents peer `i` is actor
    /// `i`, the leaf is actor `n`.
    pub fn dense(n: usize) -> Self {
        Directory::new((0..n as u32).map(ActorId).collect(), ActorId(n as u32))
    }

    /// Number of contents peers `n`.
    pub fn n(&self) -> usize {
        self.actors.len()
    }

    /// Actor implementing contents peer `peer`.
    pub fn actor_of(&self, peer: PeerId) -> ActorId {
        self.actors[peer.index()]
    }

    /// The leaf peer's actor.
    pub fn leaf(&self) -> ActorId {
        self.leaf
    }

    /// All contents peers.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        (0..self.actors.len()).map(|i| PeerId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookups_roundtrip() {
        let d = Directory::dense(5);
        assert_eq!(d.n(), 5);
        assert_eq!(d.actor_of(PeerId(3)), ActorId(3));
        assert_eq!(d.leaf(), ActorId(5));
    }

    #[test]
    fn peers_enumerates_all() {
        let d = Directory::dense(3);
        let ids: Vec<u32> = d.peers().map(|p| p.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn display_is_one_based_like_the_paper() {
        assert_eq!(PeerId(0).to_string(), "CP1");
        assert_eq!(PeerId(9).to_string(), "CP10");
    }
}
