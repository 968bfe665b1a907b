//! The access-control-list table, with stateful rules.
//!
//! ACL rules match on source/destination prefixes, port ranges, and
//! protocol — the "expensive range matching" of §2.1 — in priority order,
//! first hit wins. A rule may be **stateful**: its verdict is preliminary
//! and the final decision combines it with the session's first-packet
//! direction (§5.1). A default verdict applies when nothing matches.

use nezha_types::{Decision, Direction, FiveTuple, IpProtocol, Ipv4Addr};

/// An inclusive port range. `PortRange::ANY` matches every port.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PortRange {
    /// Lowest matching port.
    pub lo: u16,
    /// Highest matching port (inclusive).
    pub hi: u16,
}

impl PortRange {
    /// Matches all ports.
    pub const ANY: PortRange = PortRange {
        lo: 0,
        hi: u16::MAX,
    };

    /// A single-port range.
    pub const fn only(p: u16) -> Self {
        PortRange { lo: p, hi: p }
    }

    /// True when `p` falls inside the range.
    pub const fn contains(&self, p: u16) -> bool {
        self.lo <= p && p <= self.hi
    }
}

/// One ACL rule.
#[derive(Clone, Copy, Debug)]
pub struct AclRule {
    /// Priority; lower value = matched first.
    pub priority: u32,
    /// Direction the rule applies to (`None` = both). Security groups are
    /// direction-scoped: egress and ingress rule sets are distinct.
    pub direction: Option<Direction>,
    /// Source prefix (address, length).
    pub src: (Ipv4Addr, u8),
    /// Destination prefix (address, length).
    pub dst: (Ipv4Addr, u8),
    /// Source port range.
    pub src_ports: PortRange,
    /// Destination port range.
    pub dst_ports: PortRange,
    /// Protocol filter (`None` = any).
    pub protocol: Option<IpProtocol>,
    /// Verdict when the rule matches.
    pub decision: Decision,
    /// True when the verdict is connection-based (stateful ACL, §5.1).
    pub stateful: bool,
}

impl AclRule {
    /// A catch-all rule with the given verdict.
    pub const fn catch_all(priority: u32, decision: Decision, stateful: bool) -> Self {
        AclRule {
            priority,
            direction: None,
            src: (Ipv4Addr::UNSPECIFIED, 0),
            dst: (Ipv4Addr::UNSPECIFIED, 0),
            src_ports: PortRange::ANY,
            dst_ports: PortRange::ANY,
            protocol: None,
            decision,
            stateful,
        }
    }

    /// True when the rule matches the tuple in the given direction.
    pub fn matches(&self, t: &FiveTuple, dir: Direction) -> bool {
        self.direction.is_none_or(|d| d == dir)
            && t.src_ip.in_prefix(self.src.0, self.src.1)
            && t.dst_ip.in_prefix(self.dst.0, self.dst.1)
            && self.src_ports.contains(t.src_port)
            && self.dst_ports.contains(t.dst_port)
            && self.protocol.is_none_or(|p| p == t.protocol)
    }
}

/// Result of an ACL lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AclVerdict {
    /// The matched (or default) decision.
    pub decision: Decision,
    /// Whether the matched rule was stateful.
    pub stateful: bool,
}

/// The ACL table: rules in priority order plus a default verdict.
///
/// `Default` is [`AclTable::allow_all`] — the permissive stateless table.
#[derive(Clone, Debug)]
pub struct AclTable {
    rules: Vec<AclRule>,
    /// Default verdict for egress traffic when no rule matches.
    default_tx: AclVerdict,
    /// Default verdict for ingress traffic when no rule matches. Cloud
    /// security groups typically default-deny inbound *statefully*:
    /// unsolicited ingress drops, but replies to locally initiated
    /// connections pass (§5.1).
    default_rx: AclVerdict,
}

impl Default for AclTable {
    fn default() -> Self {
        AclTable::allow_all()
    }
}

impl AclTable {
    /// An empty table with the given per-direction defaults.
    pub fn new(default_tx: AclVerdict, default_rx: AclVerdict) -> Self {
        AclTable {
            rules: Vec::new(),
            default_tx,
            default_rx,
        }
    }

    /// A permissive table: accept everything, stateless, both directions.
    pub fn allow_all() -> Self {
        let accept = AclVerdict {
            decision: Decision::Accept,
            stateful: false,
        };
        AclTable::new(accept, accept)
    }

    /// The classic security-group shape: egress default-accept (stateful,
    /// so return traffic of an inbound-accepted session also passes),
    /// ingress default-deny *stateful* (replies to locally initiated
    /// connections pass, unsolicited traffic drops — §5.1).
    pub fn security_group() -> Self {
        AclTable::new(
            AclVerdict {
                decision: Decision::Accept,
                stateful: true,
            },
            AclVerdict {
                decision: Decision::Drop,
                stateful: true,
            },
        )
    }

    /// Inserts a rule, keeping priority order (stable for equal priority).
    pub fn insert(&mut self, rule: AclRule) {
        let pos = self.rules.partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the table holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Clears all rules.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// First-hit lookup in priority order; falls back to the direction's
    /// default.
    pub fn lookup(&self, t: &FiveTuple, dir: Direction) -> AclVerdict {
        for r in &self.rules {
            if r.matches(t, dir) {
                return AclVerdict {
                    decision: r.decision,
                    stateful: r.stateful,
                };
            }
        }
        match dir {
            Direction::Tx => self.default_tx,
            Direction::Rx => self.default_rx,
        }
    }

    /// Memory footprint under the given per-rule cost.
    pub fn memory_bytes(&self, per_rule: u64) -> u64 {
        self.rules.len() as u64 * per_rule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16) -> FiveTuple {
        FiveTuple::tcp(src, sp, dst, dp)
    }

    fn table(default_tx: Decision, default_rx: Decision, stateful: bool) -> AclTable {
        AclTable::new(
            AclVerdict {
                decision: default_tx,
                stateful,
            },
            AclVerdict {
                decision: default_rx,
                stateful,
            },
        )
    }

    #[test]
    fn port_range_semantics() {
        assert!(PortRange::ANY.contains(0));
        assert!(PortRange::ANY.contains(65535));
        let r = PortRange { lo: 100, hi: 200 };
        assert!(r.contains(100) && r.contains(200) && r.contains(150));
        assert!(!r.contains(99) && !r.contains(201));
        assert!(PortRange::only(443).contains(443));
        assert!(!PortRange::only(443).contains(444));
    }

    #[test]
    fn priority_order_first_hit_wins() {
        let mut acl = table(Decision::Accept, Decision::Accept, false);
        // Low priority: drop everything from 10/8.
        acl.insert(AclRule {
            priority: 10,
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(10, Decision::Drop, false)
        });
        // Higher priority (lower number): allow 10.1/16.
        acl.insert(AclRule {
            priority: 1,
            src: (Ipv4Addr::new(10, 1, 0, 0), 16),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let allowed = t(Ipv4Addr::new(10, 1, 2, 3), 1, Ipv4Addr::new(8, 8, 8, 8), 80);
        let denied = t(Ipv4Addr::new(10, 2, 2, 3), 1, Ipv4Addr::new(8, 8, 8, 8), 80);
        assert_eq!(
            acl.lookup(&allowed, Direction::Tx).decision,
            Decision::Accept
        );
        assert_eq!(acl.lookup(&denied, Direction::Tx).decision, Decision::Drop);
        assert_eq!(acl.len(), 2);
    }

    #[test]
    fn port_and_protocol_filters() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        acl.insert(AclRule {
            dst_ports: PortRange::only(443),
            protocol: Some(IpProtocol::Tcp),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let https = t(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        let http = t(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 80);
        let udp443 = FiveTuple::udp(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 443);
        assert_eq!(acl.lookup(&https, Direction::Tx).decision, Decision::Accept);
        assert_eq!(acl.lookup(&http, Direction::Tx).decision, Decision::Drop);
        assert_eq!(acl.lookup(&udp443, Direction::Tx).decision, Decision::Drop);
    }

    #[test]
    fn security_group_defaults_are_direction_scoped() {
        let acl = AclTable::security_group();
        let tuple = t(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2);
        let rx = acl.lookup(&tuple, Direction::Rx);
        assert_eq!(rx.decision, Decision::Drop);
        assert!(rx.stateful);
        let tx = acl.lookup(&tuple, Direction::Tx);
        assert_eq!(tx.decision, Decision::Accept);
        assert!(tx.stateful);
        assert!(acl.is_empty());
    }

    #[test]
    fn direction_scoped_rules_only_match_their_direction() {
        let mut acl = AclTable::security_group();
        acl.insert(AclRule {
            direction: Some(Direction::Rx),
            dst_ports: PortRange::only(22),
            ..AclRule::catch_all(1, Decision::Accept, false)
        });
        let ssh = t(Ipv4Addr::new(9, 9, 9, 9), 5, Ipv4Addr::new(10, 0, 0, 1), 22);
        assert_eq!(acl.lookup(&ssh, Direction::Rx).decision, Decision::Accept);
        // The same tuple as egress misses the RX-scoped rule and falls to
        // the TX default (accept, stateful).
        let v = acl.lookup(&ssh, Direction::Tx);
        assert_eq!(v.decision, Decision::Accept);
        assert!(v.stateful);
    }

    #[test]
    fn memory_scales_with_rules() {
        let mut acl = AclTable::allow_all();
        assert_eq!(acl.memory_bytes(64), 0);
        for i in 0..10 {
            acl.insert(AclRule::catch_all(i, Decision::Accept, false));
        }
        assert_eq!(acl.memory_bytes(64), 640);
        acl.clear();
        assert_eq!(acl.memory_bytes(64), 0);
    }

    #[test]
    fn equal_priority_is_stable_insertion_order() {
        let mut acl = table(Decision::Drop, Decision::Drop, false);
        acl.insert(AclRule {
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(5, Decision::Accept, false)
        });
        acl.insert(AclRule {
            src: (Ipv4Addr::new(10, 0, 0, 0), 8),
            ..AclRule::catch_all(5, Decision::Drop, false)
        });
        // The first-inserted accept wins at equal priority.
        let v = acl.lookup(
            &t(Ipv4Addr::new(10, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            Direction::Tx,
        );
        assert_eq!(v.decision, Decision::Accept);
    }
}
