//! Session state — the data Nezha keeps **local, in one copy**.
//!
//! A session-table entry records bidirectional flows plus their shared
//! state (paper Fig. 1). The state has several independently-optional
//! components (TCP FSM, first-packet direction, stateful-decap address,
//! flow statistics); paper §7.1 measures the *used* state at 5–8 B average
//! against a fixed 64 B slab — we model both the slab and the measured
//! size so the Fig. 15 experiment can reproduce that gap.

use crate::addr::Ipv4Addr;
use crate::flow::Direction;
use crate::tcp_fsm::TcpState;

/// State recorded by stateful decapsulation (paper §5.2): the overlay
/// source (the load balancer's address) seen when the RX packet was
/// decapsulated, so TX responses can be re-encapsulated toward the LB
/// rather than leaking directly to the client.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StatefulDecapState {
    /// The recorded overlay source address (LB VIP endpoint).
    pub overlay_src: Ipv4Addr,
}

/// Flow-level statistics, recorded only when a statistics policy applies
/// (making this the canonical *rule-table-involved* state of §3.2.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StatsState {
    /// Active statistics policy id (0 = none).
    pub policy: u8,
    /// Packets seen TX.
    pub tx_packets: u64,
    /// Packets seen RX.
    pub rx_packets: u64,
    /// Bytes seen TX.
    pub tx_bytes: u64,
    /// Bytes seen RX.
    pub rx_bytes: u64,
}

impl StatsState {
    /// Records one packet in the given direction.
    pub fn record(&mut self, dir: Direction, bytes: u64) {
        match dir {
            Direction::Tx => {
                self.tx_packets += 1;
                self.tx_bytes += bytes;
            }
            Direction::Rx => {
                self.rx_packets += 1;
                self.rx_bytes += bytes;
            }
        }
    }
}

/// The complete per-session state blob.
///
/// The fixed allocation slab is [`SessionState::SLAB_BYTES`] = 64 B (paper
/// §7.1); [`SessionState::used_bytes`] reports the bytes a variable-length
/// encoding would need, which Fig. 15 shows averages 5–8 B in production.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SessionState {
    /// Direction of the session's first packet — the stateful-ACL state.
    pub first_dir: Option<Direction>,
    /// TCP connection tracking state (TCP sessions only).
    pub tcp: TcpState,
    /// Stateful-decap recorded address, when that NF applies.
    pub decap: Option<StatefulDecapState>,
    /// Flow statistics, when a statistics policy applies.
    pub stats: StatsState,
}

impl SessionState {
    /// Fixed state slab size used by the production vSwitch (paper §7.1).
    pub const SLAB_BYTES: usize = 64;

    /// A fresh state whose first packet had direction `dir`.
    pub fn first_packet(dir: Direction) -> Self {
        SessionState {
            first_dir: Some(dir),
            ..Default::default()
        }
    }

    /// Bytes a compact variable-length encoding of the *used* state needs.
    ///
    /// Accounting (mirrors the paper's 5–8 B average): first-packet
    /// direction packs with the TCP FSM into 1 byte; a live (non-terminal)
    /// TCP FSM costs 4 more bytes of tracking data; stateful decap stores a
    /// 4-byte address; an active stats policy stores 1 + 32 bytes of
    /// counters. A pure stateless flow (no state at all) uses 0 bytes but
    /// still occupies the full 64-byte slab in the fixed layout.
    pub fn used_bytes(&self) -> usize {
        let mut n = 0;
        if self.first_dir.is_some() || self.tcp != TcpState::None {
            n += 1;
        }
        if self.tcp != TcpState::None && !self.tcp.is_closed() {
            n += 4;
        }
        if self.decap.is_some() {
            n += 4;
        }
        if self.stats.policy != 0 {
            n += 1 + 32;
        }
        n
    }

    /// True when no stateful NF recorded anything (slab entirely wasted).
    pub fn is_empty(&self) -> bool {
        self.used_bytes() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_state_uses_zero_of_its_slab() {
        let s = SessionState::default();
        assert!(s.is_empty());
        assert_eq!(s.used_bytes(), 0);
        assert_eq!(SessionState::SLAB_BYTES, 64);
    }

    #[test]
    fn typical_stateful_acl_state_is_small() {
        // The common case in production: first-dir + established TCP FSM.
        let mut s = SessionState::first_packet(Direction::Tx);
        s.tcp = TcpState::Established;
        assert_eq!(s.used_bytes(), 5);
        assert!(s.used_bytes() <= 8, "must land in the paper's 5-8B band");
    }

    #[test]
    fn decap_state_adds_four_bytes() {
        let mut s = SessionState::first_packet(Direction::Rx);
        s.decap = Some(StatefulDecapState {
            overlay_src: Ipv4Addr::new(10, 9, 9, 9),
        });
        assert_eq!(s.used_bytes(), 1 + 4);
    }

    #[test]
    fn stats_state_is_the_heavy_case() {
        let mut s = SessionState::first_packet(Direction::Tx);
        s.stats.policy = 2;
        s.stats.record(Direction::Tx, 1500);
        s.stats.record(Direction::Rx, 60);
        assert_eq!(s.stats.tx_packets, 1);
        assert_eq!(s.stats.rx_bytes, 60);
        assert_eq!(s.used_bytes(), 1 + 33);
        assert!(s.used_bytes() <= SessionState::SLAB_BYTES);
    }

    #[test]
    fn closed_tcp_sheds_tracking_bytes() {
        let mut s = SessionState::first_packet(Direction::Tx);
        s.tcp = TcpState::Established;
        let live = s.used_bytes();
        s.tcp = TcpState::Closed;
        assert!(s.used_bytes() < live);
    }
}
