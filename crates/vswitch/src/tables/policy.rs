//! The statistics-policy table (flow logging / metering policy).
//!
//! This table is the canonical source of **rule-table-involved state**
//! (§3.2.2): a session's statistics state ("what to record for this flow")
//! exists only as the outcome of a policy-table lookup. Under Nezha the
//! lookup happens at the FE, so the BE learns the policy either from a
//! notify packet (TX workflow) or piggybacked in the outer header (RX
//! workflow).

use super::acl::PortRange;
use nezha_types::Ipv4Addr;

/// One statistics-policy rule.
#[derive(Clone, Copy, Debug)]
pub struct PolicyRule {
    /// Matched destination prefix.
    pub dst_prefix: (Ipv4Addr, u8),
    /// Matched destination ports.
    pub dst_ports: PortRange,
    /// Policy id stamped into the pre-action and recorded as session
    /// state; 0 = record nothing.
    pub policy: u8,
}

/// The statistics-policy table.
#[derive(Clone, Debug, Default)]
pub struct PolicyTable {
    rules: Vec<PolicyRule>,
}

impl PolicyTable {
    /// An empty table: no flow is recorded.
    pub fn new() -> Self {
        PolicyTable::default()
    }

    /// Adds a rule (first match wins).
    pub fn insert(&mut self, rule: PolicyRule) {
        self.rules.push(rule);
    }

    /// The policy for a destination, 0 when nothing matches.
    pub fn lookup(&self, dst: Ipv4Addr, dst_port: u16) -> u8 {
        self.rules
            .iter()
            .find(|r| {
                dst.in_prefix(r.dst_prefix.0, r.dst_prefix.1) && r.dst_ports.contains(dst_port)
            })
            .map_or(0, |r| r.policy)
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules exist.
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
    fn lookup_matches_prefix_and_port() {
        let mut p = PolicyTable::new();
        p.insert(PolicyRule {
            dst_prefix: (Ipv4Addr::new(10, 0, 0, 0), 8),
            dst_ports: PortRange::only(443),
            policy: 7,
        });
        assert_eq!(p.lookup(Ipv4Addr::new(10, 1, 1, 1), 443), 7);
        assert_eq!(p.lookup(Ipv4Addr::new(10, 1, 1, 1), 80), 0);
        assert_eq!(p.lookup(Ipv4Addr::new(11, 1, 1, 1), 443), 0);
    }

    #[test]
    fn accounting() {
        let mut p = PolicyTable::new();
        assert!(p.is_empty());
        p.insert(PolicyRule {
            dst_prefix: (Ipv4Addr::UNSPECIFIED, 0),
            dst_ports: PortRange::ANY,
            policy: 1,
        });
        assert_eq!(p.len(), 1);
        assert_eq!(p.memory_bytes(24), 24);
    }
}
