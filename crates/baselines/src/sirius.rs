//! A Sirius-like dedicated DPU pool (§2.3.3, §8).
//!
//! Sirius steers a high-demand vNIC's processing to a shared pool of
//! high-performance DPUs. Two costs distinguish it from Nezha:
//!
//! 1. **In-line state replication**: "Sirius ping-pongs packets that
//!    change states between the primary and secondary cards … such
//!    in-line state replication limits the achievable CPS to only half of
//!    the total capacity of the two cards."
//! 2. **Bucket-based load balancing with state transfer**: flows hash
//!    into a fixed number of buckets assigned to cards; moving load
//!    reassigns buckets, and long-lived flows' state must transfer.
//!
//! And one cost Nezha does not have at all: the pool is **new hardware**.

use crate::arch::{self, ArchCtx, ArchParams};
use std::sync::Arc;

/// A Sirius-like DPU pool.
#[derive(Clone, Debug)]
pub struct SiriusPool {
    /// Number of DPU cards (must be even: primary/secondary pairs).
    pub cards: usize,
    /// Per-card new-connection capacity (their DPUs are powerful).
    pub card_cps: f64,
    /// Per-card session-table capacity (entries).
    pub card_sessions: u64,
    /// Hash buckets used for load distribution.
    pub buckets: u32,
    /// Current bucket→card-pair assignment.
    assignment: Vec<usize>,
    /// The connection graph (primary process + guarded in-line
    /// replication hop), compiled once at construction.
    graph: Arc<arch::ArchGraph>,
}

impl SiriusPool {
    /// Builds a pool of `cards` DPUs (rounded down to pairs) with a
    /// default 256-bucket map.
    pub fn new(cards: usize, card_cps: f64, card_sessions: u64) -> Self {
        let pairs = (cards / 2).max(1);
        let buckets = 256;
        let assignment = (0..buckets).map(|b| b as usize % pairs).collect();
        SiriusPool {
            cards: pairs * 2,
            card_cps,
            card_sessions,
            buckets,
            assignment,
            graph: Arc::new(arch::sirius_graph()),
        }
    }

    /// Evaluates one (stateful) connection event against the compiled
    /// replication graph: total cycle units, extra fabric packets, and
    /// state copies for a connection whose primary share costs one unit.
    fn conn_footprint(&self) -> ArchCtx {
        let mut ctx = ArchCtx::stateful();
        let mut params = ArchParams {
            card_conn_cycles: 1,
            replication_packets: 8,
            ..ArchParams::default()
        };
        self.graph.eval(&mut ctx, &mut params);
        ctx
    }

    /// Number of primary/secondary pairs.
    pub fn pairs(&self) -> usize {
        self.cards / 2
    }

    /// Aggregate CPS capacity. **Half** the raw card total: every new
    /// connection's state is replicated in-line by ping-ponging the
    /// packet between the pair, consuming both cards' cycles (§2.3.3).
    /// The divisor is the graph's cycle footprint (2 units: primary +
    /// replication hop), not a hand-written constant.
    pub fn cps_capacity(&self) -> f64 {
        self.cards as f64 * self.card_cps / self.conn_footprint().cycles as f64
    }

    /// Raw CPS the same silicon would deliver without in-line replication
    /// (what Nezha-style statelessness would unlock).
    pub fn cps_capacity_unreplicated(&self) -> f64 {
        self.cards as f64 * self.card_cps
    }

    /// Session capacity: state is held once per copy the graph records
    /// (primary + secondary).
    pub fn session_capacity(&self) -> u64 {
        self.cards as u64 * self.card_sessions / self.conn_footprint().state_copies as u64
    }

    /// The pair serving a flow hash.
    pub fn pair_of(&self, flow_hash: u64) -> usize {
        self.assignment[(flow_hash % self.buckets as u64) as usize]
    }

    /// Rebalances: moves `n` buckets from the most- to the least-loaded
    /// pair (the paper's elegant-but-stateful mechanism). Returns the
    /// number of *long-lived* sessions whose state must transfer, given
    /// the caller's estimate of long-lived sessions per bucket.
    pub fn move_buckets(&mut self, n: u32, long_lived_per_bucket: u64) -> u64 {
        if self.pairs() < 2 {
            return 0;
        }
        // Count buckets per pair.
        let mut counts = vec![0u32; self.pairs()];
        for &p in &self.assignment {
            counts[p] += 1;
        }
        let src = (0..self.pairs()).max_by_key(|&p| counts[p]).unwrap();
        let dst = (0..self.pairs()).min_by_key(|&p| counts[p]).unwrap();
        if src == dst {
            return 0;
        }
        let mut moved = 0;
        for a in self.assignment.iter_mut() {
            if moved == n {
                break;
            }
            if *a == src {
                *a = dst;
                moved += 1;
            }
        }
        // "State transfer … is only necessary for long-lived flows."
        moved as u64 * long_lived_per_bucket
    }

    /// Per-connection extra packets on the pool fabric from in-line
    /// replication: each state-changing packet crosses to the secondary
    /// and back. A TCP_CRR connection changes state on SYN, final ACK of
    /// the handshake, and both FINs ⇒ 4 state changes ⇒ 8 extra
    /// traversals, accumulated by the graph's replication stage.
    pub fn replication_packets_per_conn(&self) -> u32 {
        self.conn_footprint().fabric_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> SiriusPool {
        SiriusPool::new(8, 1_000_000.0, 10_000_000)
    }

    #[test]
    fn cps_halves_under_inline_replication() {
        let p = pool();
        assert_eq!(p.cps_capacity(), 4_000_000.0);
        assert_eq!(p.cps_capacity_unreplicated(), 8_000_000.0);
        assert_eq!(p.cps_capacity_unreplicated() / p.cps_capacity(), 2.0);
    }

    #[test]
    fn sessions_stored_twice() {
        let p = pool();
        assert_eq!(p.session_capacity(), 40_000_000);
    }

    #[test]
    fn odd_card_counts_round_to_pairs() {
        let p = SiriusPool::new(5, 1.0, 1);
        assert_eq!(p.cards, 4);
        assert_eq!(p.pairs(), 2);
    }

    #[test]
    fn bucket_moves_transfer_longlived_state_only() {
        let mut p = pool();
        // Unbalance the pool first.
        for a in p.assignment.iter_mut() {
            *a = 0;
        }
        let transferred = p.move_buckets(16, 250);
        assert_eq!(transferred, 16 * 250);
        // The moved buckets now resolve to a different pair.
        let mut seen_dst = 0;
        for b in 0..p.buckets as u64 {
            if p.pair_of(b) != 0 {
                seen_dst += 1;
            }
        }
        assert_eq!(seen_dst, 16);
    }

    #[test]
    fn flow_to_pair_is_stable() {
        let p = pool();
        assert_eq!(p.pair_of(12345), p.pair_of(12345));
        assert_eq!(p.replication_packets_per_conn(), 8);
    }
}
