//! The replication-topology descriptor: the chain every member was
//! built with, plus the epoch of the reign in force.
//!
//! Rank 0 is the serving primary; ranks 1..N are backups in
//! deterministic promotion order. A reign's members are the chain from
//! index `epoch` on, so the epoch on every primary heartbeat
//! ([`crate::messages::SideMsg::Heartbeat`]) says all there is to say:
//! every member — whatever it missed — knows who takes over next
//! without a member list on the wire and without any election round.
//!
//! # The epoch-by-rank rule
//!
//! Promoting the rank-`r` member produces `epoch + r`, whose members
//! are the old members from rank `r` on. Because the epoch advances by
//! exactly the number of members removed, *any* cascade path that ends
//! at the same surviving suffix computes the same epoch: if B1 promotes
//! (epoch+1) and then dies so B2 promotes again (epoch+1+1), B2 lands
//! on the same epoch 2 it would have computed promoting directly past
//! both corpses. Equal epochs therefore imply identical topologies,
//! "higher epoch wins" is a complete, tie-break-free adoption rule, and
//! a promoted member's epoch is its index in the chain.

use std::net::Ipv4Addr;

/// See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// Always below `chain.len()`: a reign has at least a primary.
    epoch: u32,
    chain: Vec<Ipv4Addr>,
}

impl Topology {
    /// The epoch-0 topology of `chain`. Panics on an empty or
    /// duplicated chain — both are configuration errors, not runtime
    /// states.
    pub fn new(chain: Vec<Ipv4Addr>) -> Self {
        assert!(!chain.is_empty(), "a topology needs at least a primary");
        let mut uniq = chain.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), chain.len(), "duplicate member in topology");
        Topology { epoch: 0, chain }
    }

    /// The reign counter. Strictly higher epochs supersede.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The current reign's members, rank order (index = rank).
    pub fn members(&self) -> &[Ipv4Addr] {
        &self.chain[self.epoch as usize..]
    }

    /// The serving primary (rank 0).
    pub fn primary(&self) -> Ipv4Addr {
        self.members()[0]
    }

    /// The backups, promotion order (rank 1 first).
    pub fn backups(&self) -> &[Ipv4Addr] {
        &self.members()[1..]
    }

    /// This member's rank, if it is one.
    pub fn rank_of(&self, ip: Ipv4Addr) -> Option<u8> {
        self.members().iter().position(|&m| m == ip).map(|r| r as u8)
    }

    /// The topology at `epoch`, if that reign leaves a member. This is
    /// how a member adopts the reign a heartbeat announces: an index,
    /// checked, into the chain it was built with.
    pub(crate) fn at_epoch(&self, epoch: u32) -> Option<Topology> {
        ((epoch as usize) < self.chain.len()).then(|| Topology { epoch, chain: self.chain.clone() })
    }

    /// The topology after the rank-`r` member takes over: epoch
    /// advances by `r` (one per member removed), survivors are the
    /// members from rank `r` on. See the module docs for why this is
    /// cascade-path independent.
    pub fn promoted(&self, rank: u8) -> Topology {
        self.at_epoch(self.epoch + u32::from(rank))
            .unwrap_or_else(|| panic!("promotion rank {rank} out of range"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    fn topo3() -> Topology {
        Topology::new(vec![ip(2), ip(3), ip(4), ip(5)])
    }

    #[test]
    fn ranks_follow_list_order() {
        let t = topo3();
        assert_eq!(t.primary(), ip(2));
        assert_eq!(t.backups(), &[ip(3), ip(4), ip(5)]);
        assert_eq!(t.rank_of(ip(2)), Some(0));
        assert_eq!(t.rank_of(ip(4)), Some(2));
        assert_eq!(t.rank_of(ip(99)), None);
    }

    #[test]
    fn promotion_drops_the_prefix_and_advances_the_epoch() {
        let t = topo3().promoted(1);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.members(), &[ip(3), ip(4), ip(5)]);
        assert_eq!(t.rank_of(ip(2)), None, "the dead primary is out");
    }

    #[test]
    fn an_epoch_is_adopted_only_while_its_reign_has_a_member() {
        let t = topo3();
        assert_eq!(t.at_epoch(2), Some(t.promoted(2)), "adoption = the same promotion");
        assert_eq!(t.at_epoch(3).map(|t| t.members().to_vec()), Some(vec![ip(5)]));
        for past_the_end in [4, 5, u32::MAX] {
            assert_eq!(t.at_epoch(past_the_end), None, "epoch {past_the_end}");
        }
    }

    #[test]
    fn cascade_paths_converge_on_the_same_epoch() {
        // Path A: B1 promotes, then B2 promotes over the fresh topology.
        let via_b1 = topo3().promoted(1).promoted(1);
        // Path B: B2 promotes directly past both corpses.
        let direct = topo3().promoted(2);
        assert_eq!(via_b1, direct);
        assert_eq!(direct.epoch(), 2);
        assert_eq!(direct.primary(), ip(4));
    }

    #[test]
    #[should_panic(expected = "at least a primary")]
    fn empty_topology_rejected() {
        Topology::new(vec![]);
    }
}
