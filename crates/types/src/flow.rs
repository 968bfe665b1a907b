//! Flow and session keys, and packet direction.

use crate::addr::VpcId;
use crate::five_tuple::FiveTuple;
use std::fmt;

/// Direction of a packet relative to the vNIC it belongs to.
///
/// * `Tx` (egress): sent *by* the local VM, traverses BE → FE under Nezha.
/// * `Rx` (ingress): destined *to* the local VM, traverses FE → BE.
///
/// Stateful ACL (paper §5.1) records the direction of a session's first
/// packet as its state.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Direction {
    /// Egress: VM → network.
    Tx,
    /// Ingress: network → VM.
    Rx,
}

impl Direction {
    /// The opposite direction.
    pub const fn flipped(self) -> Self {
        match self {
            Direction::Tx => Direction::Rx,
            Direction::Rx => Direction::Tx,
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Tx => write!(f, "TX"),
            Direction::Rx => write!(f, "RX"),
        }
    }
}

/// Key of a *unidirectional* cached flow: `(VPC ID, 5-tuple)`.
///
/// The VPC ID disambiguates tenants reusing identical private 5-tuples
/// (paper §2.1, Fig. 1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Owning tenant network.
    pub vpc: VpcId,
    /// Directional 5-tuple.
    pub tuple: FiveTuple,
}

impl FlowKey {
    /// Builds a flow key.
    pub const fn new(vpc: VpcId, tuple: FiveTuple) -> Self {
        FlowKey { vpc, tuple }
    }

    /// The same session's opposite-direction flow key.
    pub const fn reversed(self) -> Self {
        FlowKey {
            vpc: self.vpc,
            tuple: self.tuple.reversed(),
        }
    }

    /// The session this flow belongs to.
    pub fn session(self) -> SessionKey {
        SessionKey {
            vpc: self.vpc,
            canonical: self.tuple.canonical(),
        }
    }
}

impl fmt::Debug for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FlowKey[{} {}]", self.vpc, self.tuple)
    }
}

/// Key of a *bidirectional* session-table entry.
///
/// Both directions of a connection map to the same `SessionKey`, so session
/// state (TCP FSM, first-packet direction, statistics) lives in exactly one
/// entry — the property that lets Nezha keep a single local copy of state
/// with no cross-node synchronization (paper §3.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionKey {
    /// Owning tenant network.
    pub vpc: VpcId,
    /// Canonical orientation of the session's 5-tuple.
    pub canonical: FiveTuple,
}

impl SessionKey {
    /// Builds the session key for any directional tuple of the session.
    pub fn of(vpc: VpcId, tuple: FiveTuple) -> Self {
        SessionKey {
            vpc,
            canonical: tuple.canonical(),
        }
    }
}

impl fmt::Debug for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SessionKey[{} {}]", self.vpc, self.canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Ipv4Addr;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            50000,
            Ipv4Addr::new(10, 0, 1, 7),
            443,
        )
    }

    #[test]
    fn both_directions_share_one_session_key() {
        let k = FlowKey::new(VpcId(3), tuple());
        assert_eq!(k.session(), k.reversed().session());
    }

    #[test]
    fn different_vpcs_do_not_collide() {
        let a = FlowKey::new(VpcId(1), tuple());
        let b = FlowKey::new(VpcId(2), tuple());
        assert_ne!(a, b);
        assert_ne!(a.session(), b.session());
    }

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::Tx.flipped(), Direction::Rx);
        assert_eq!(Direction::Rx.flipped(), Direction::Tx);
        assert_eq!(Direction::Tx.to_string(), "TX");
    }

    #[test]
    fn session_key_of_matches_flow_key_session() {
        let k = FlowKey::new(VpcId(5), tuple());
        assert_eq!(SessionKey::of(VpcId(5), tuple()), k.session());
    }
}
