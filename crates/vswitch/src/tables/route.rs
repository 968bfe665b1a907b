//! VXLAN routing: longest-prefix match over overlay destinations.
//!
//! The route table answers "is this overlay destination reachable in the
//! tenant's VPC, and through what overlay endpoint". Entries are grouped
//! by prefix length and probed from most- to least-specific — a simple,
//! allocation-light LPM adequate for the table sizes the model uses.

use nezha_types::Ipv4Addr;
use std::collections::BTreeMap;

/// Outcome of a route lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RouteTarget {
    /// Deliver within the VPC overlay toward this gateway/endpoint hint
    /// (the vNIC→server map resolves the physical server).
    Overlay(Ipv4Addr),
    /// Destination is unreachable in this VPC; drop.
    Blackhole,
}

/// The LPM route table.
#[derive(Clone, Debug, Default)]
pub struct RouteTable {
    /// Prefix-length → (masked address → target). Probed longest-first.
    by_len: BTreeMap<u8, BTreeMap<u32, RouteTarget>>,
    /// Sorted (desc) list of present prefix lengths, kept in sync.
    lens: Vec<u8>,
    entries: usize,
}

impl RouteTable {
    /// An empty table (everything unreachable).
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Inserts or replaces a route for `prefix/len`.
    pub fn insert(&mut self, prefix: Ipv4Addr, len: u8, target: RouteTarget) {
        assert!(len <= 32);
        let masked = prefix.masked(len).0;
        let bucket = self.by_len.entry(len).or_default();
        if bucket.insert(masked, target).is_none() {
            self.entries += 1;
        }
        if !self.lens.contains(&len) {
            self.lens.push(len);
            self.lens.sort_unstable_by(|a, b| b.cmp(a));
        }
    }

    /// Longest-prefix-match lookup; `None` when no route covers `dst`.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<RouteTarget> {
        for &len in &self.lens {
            if let Some(t) = self
                .by_len
                .get(&len)
                .and_then(|b| b.get(&dst.masked(len).0))
            {
                return Some(*t);
            }
        }
        None
    }

    /// Number of routes.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Memory footprint under the given per-entry cost.
    pub fn memory_bytes(&self, per_entry: u64) -> u64 {
        self.entries as u64 * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_prefix_wins() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 8, RouteTarget::Blackhole);
        rt.insert(
            Ipv4Addr::new(10, 1, 0, 0),
            16,
            RouteTarget::Overlay(Ipv4Addr::new(192, 168, 0, 1)),
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 1, 9, 9)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(192, 168, 0, 1)))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 2, 9, 9)),
            Some(RouteTarget::Blackhole)
        );
        assert_eq!(rt.lookup(Ipv4Addr::new(11, 0, 0, 1)), None);
    }

    #[test]
    fn default_route_via_len_zero() {
        let mut rt = RouteTable::new();
        rt.insert(
            Ipv4Addr::UNSPECIFIED,
            0,
            RouteTarget::Overlay(Ipv4Addr::new(1, 1, 1, 1)),
        );
        assert!(rt.lookup(Ipv4Addr::new(203, 0, 113, 5)).is_some());
    }

    #[test]
    fn replace_does_not_double_count() {
        let mut rt = RouteTable::new();
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 24, RouteTarget::Blackhole);
        rt.insert(
            Ipv4Addr::new(10, 0, 0, 0),
            24,
            RouteTarget::Overlay(Ipv4Addr::new(2, 2, 2, 2)),
        );
        assert_eq!(rt.len(), 1);
        assert!(!rt.is_empty());
        assert_eq!(rt.memory_bytes(32), 32);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 7)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(2, 2, 2, 2)))
        );
    }

    #[test]
    fn host_routes() {
        let mut rt = RouteTable::new();
        rt.insert(
            Ipv4Addr::new(10, 0, 0, 7),
            32,
            RouteTarget::Overlay(Ipv4Addr::new(3, 3, 3, 3)),
        );
        rt.insert(Ipv4Addr::new(10, 0, 0, 0), 24, RouteTarget::Blackhole);
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 7)),
            Some(RouteTarget::Overlay(Ipv4Addr::new(3, 3, 3, 3)))
        );
        assert_eq!(
            rt.lookup(Ipv4Addr::new(10, 0, 0, 8)),
            Some(RouteTarget::Blackhole)
        );
    }
}
