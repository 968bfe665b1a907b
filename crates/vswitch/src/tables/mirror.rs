//! The traffic-mirroring table — one of the "advanced features" whose
//! extra table pushes the slow path toward its 12-table worst case
//! (§2.2.2: "policy-based routing, traffic mirroring, or flow logging").
//!
//! A mirror rule selects flows by destination prefix/ports and names the
//! overlay collector that receives copies. The matched collector rides in
//! the pre-action — stateless tenant configuration like everything else
//! in the slow path, so it offloads to FEs unchanged, and under Nezha the
//! *FE* emits the mirror copies (the packets pass through it anyway).

use super::acl::PortRange;
use nezha_types::Ipv4Addr;

/// One mirroring rule.
#[derive(Clone, Copy, Debug)]
pub struct MirrorRule {
    /// Matched destination prefix.
    pub dst_prefix: (Ipv4Addr, u8),
    /// Matched destination ports.
    pub dst_ports: PortRange,
    /// Overlay address of the collector receiving copies.
    pub collector: Ipv4Addr,
}

/// The mirror table (first match wins).
#[derive(Clone, Debug, Default)]
pub struct MirrorTable {
    rules: Vec<MirrorRule>,
}

impl MirrorTable {
    /// An empty table (nothing mirrored).
    pub fn new() -> Self {
        MirrorTable::default()
    }

    /// Adds a rule.
    pub fn insert(&mut self, rule: MirrorRule) {
        self.rules.push(rule);
    }

    /// The collector for a destination, if any rule matches.
    pub fn lookup(&self, dst: Ipv4Addr, dst_port: u16) -> Option<Ipv4Addr> {
        self.rules
            .iter()
            .find(|r| {
                dst.in_prefix(r.dst_prefix.0, r.dst_prefix.1) && r.dst_ports.contains(dst_port)
            })
            .map(|r| r.collector)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when nothing is mirrored.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Memory footprint under the given per-rule cost.
    pub fn memory_bytes(&self, per_rule: u64) -> u64 {
        self.rules.len() as u64 * per_rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_match_selects_collector() {
        let mut m = MirrorTable::new();
        m.insert(MirrorRule {
            dst_prefix: (Ipv4Addr::new(10, 0, 0, 0), 24),
            dst_ports: PortRange::only(443),
            collector: Ipv4Addr::new(172, 16, 0, 1),
        });
        m.insert(MirrorRule {
            dst_prefix: (Ipv4Addr::new(10, 0, 0, 0), 8),
            dst_ports: PortRange::ANY,
            collector: Ipv4Addr::new(172, 16, 0, 2),
        });
        assert_eq!(
            m.lookup(Ipv4Addr::new(10, 0, 0, 9), 443),
            Some(Ipv4Addr::new(172, 16, 0, 1))
        );
        assert_eq!(
            m.lookup(Ipv4Addr::new(10, 9, 0, 9), 80),
            Some(Ipv4Addr::new(172, 16, 0, 2))
        );
        assert_eq!(m.lookup(Ipv4Addr::new(11, 0, 0, 1), 443), None);
    }

    #[test]
    fn accounting() {
        let mut m = MirrorTable::new();
        assert!(m.is_empty());
        m.insert(MirrorRule {
            dst_prefix: (Ipv4Addr::UNSPECIFIED, 0),
            dst_ports: PortRange::ANY,
            collector: Ipv4Addr::new(1, 1, 1, 1),
        });
        assert_eq!(m.len(), 1);
        assert_eq!(m.memory_bytes(32), 32);
    }
}
