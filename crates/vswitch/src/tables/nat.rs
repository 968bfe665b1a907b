//! The NAT table: source-address rewriting for NAT-gateway vNICs.
//!
//! A NAT gateway (one of the paper's three evaluated middleboxes, §6.3.1)
//! rewrites tenant-private sources to allocated public addresses. The
//! mapping rule is stateless tenant configuration — which private prefix
//! maps to which public address — so it offloads to FEs like any other
//! rule table; per-connection port state stays in the session table.

use nezha_types::Ipv4Addr;

/// One source-NAT rule: a private prefix rewritten to a public address.
#[derive(Clone, Copy, Debug)]
pub struct NatRule {
    /// Matched private source prefix.
    pub src_prefix: (Ipv4Addr, u8),
    /// Public address substituted for the source.
    pub public: Ipv4Addr,
}

/// The NAT rule table (first match wins, most-specific-first by insertion
/// discipline of the controller).
#[derive(Clone, Debug, Default)]
pub struct NatTable {
    rules: Vec<NatRule>,
}

impl NatTable {
    /// An empty table (no NAT).
    pub fn new() -> Self {
        NatTable::default()
    }

    /// Adds a rule.
    pub fn insert(&mut self, rule: NatRule) {
        self.rules.push(rule);
    }

    /// The rewrite for `src`, if any rule covers it.
    pub fn lookup(&self, src: Ipv4Addr) -> Option<Ipv4Addr> {
        self.rules
            .iter()
            .find(|r| src.in_prefix(r.src_prefix.0, r.src_prefix.1))
            .map(|r| r.public)
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
    fn first_match_rewrites() {
        let mut nat = NatTable::new();
        nat.insert(NatRule {
            src_prefix: (Ipv4Addr::new(10, 1, 0, 0), 16),
            public: Ipv4Addr::new(203, 0, 113, 1),
        });
        nat.insert(NatRule {
            src_prefix: (Ipv4Addr::new(10, 0, 0, 0), 8),
            public: Ipv4Addr::new(203, 0, 113, 2),
        });
        assert_eq!(
            nat.lookup(Ipv4Addr::new(10, 1, 5, 5)),
            Some(Ipv4Addr::new(203, 0, 113, 1))
        );
        assert_eq!(
            nat.lookup(Ipv4Addr::new(10, 2, 5, 5)),
            Some(Ipv4Addr::new(203, 0, 113, 2))
        );
        assert_eq!(nat.lookup(Ipv4Addr::new(192, 168, 0, 1)), None);
    }

    #[test]
    fn accounting() {
        let mut nat = NatTable::new();
        assert!(nat.is_empty());
        nat.insert(NatRule {
            src_prefix: (Ipv4Addr::new(10, 0, 0, 0), 8),
            public: Ipv4Addr::new(1, 1, 1, 1),
        });
        assert_eq!(nat.len(), 1);
        assert_eq!(nat.memory_bytes(32), 32);
    }
}
