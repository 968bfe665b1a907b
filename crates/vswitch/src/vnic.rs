//! A vNIC: the unit of tenant connectivity and of Nezha offloading.
//!
//! Each vNIC owns its full set of rule tables ([`VnicTables`]) for tenant
//! isolation (§2.1). A [`VnicProfile`] describes the *size class* of a
//! vNIC — ordinary VM vNICs need 5.5–10 MB of rule tables, middlebox
//! vNICs reach O(100 MB) (§2.2.2) — and is used both for synthetic table
//! generation and for memory accounting.

use crate::config::MemoryModel;
use crate::tables::acl::{AclRule, AclTable, PortRange};
use crate::tables::mirror::{MirrorRule, MirrorTable};
use crate::tables::nat::{NatRule, NatTable};
use crate::tables::pbr::{PbrRule, PbrTable};
use crate::tables::policy::{PolicyRule, PolicyTable};
use crate::tables::qos::{QosRule, QosTable};
use crate::tables::route::{RouteTable, RouteTarget};
use crate::tables::vnic_server::VnicServerMap;
use nezha_types::{Decision, Ipv4Addr, ServerId, VnicId, VpcId};

/// Size/feature class of a vNIC, used to build synthetic rule tables.
#[derive(Clone, Copy, Debug)]
pub struct VnicProfile {
    /// Number of ACL rules.
    pub acl_rules: usize,
    /// Number of route entries.
    pub routes: usize,
    /// Number of QoS rules.
    pub qos_rules: usize,
    /// Number of NAT rules (0 for non-NAT vNICs).
    pub nat_rules: usize,
    /// Number of statistics-policy rules.
    pub policy_rules: usize,
    /// Number of traffic-mirroring rules (an advanced table, §2.2.2).
    pub mirror_rules: usize,
    /// Number of policy-based-routing rules (an advanced table, §2.2.2).
    pub pbr_rules: usize,
    /// Number of vNIC→server mapping entries this vNIC caches locally
    /// (large VPCs reach O(100K), §2.2.2).
    pub vnic_server_entries: usize,
    /// Advanced tables enabled beyond the base five (policy routing,
    /// mirroring, flow log, … up to 7 more; §2.2.2).
    pub extra_tables: u8,
    /// Multiplier on the rule-lookup cycle cost, capturing per-table
    /// content richness the table *counts* alone miss (large range-match
    /// sets, policy routing, mirroring filters). Ordinary VM vNICs are
    /// 1.0; middlebox pipelines are calibrated so Table 3's "the more
    /// complex the rule table lookup, the lower the CPS without Nezha"
    /// ordering (NAT > LB > TR) reproduces.
    pub lookup_weight: f64,
    /// Whether the ACL behaves statefully (security-group semantics).
    pub stateful_acl: bool,
    /// Whether stateful decapsulation applies (LB real-server vNICs, §5.2).
    pub stateful_decap: bool,
}

impl Default for VnicProfile {
    fn default() -> Self {
        // An ordinary VM vNIC: a modest security group, a few routes, and
        // a few thousand peer mappings => ~5.5-10 MB with table overheads.
        VnicProfile {
            acl_rules: 100,
            routes: 64,
            qos_rules: 8,
            nat_rules: 0,
            policy_rules: 4,
            mirror_rules: 0,
            pbr_rules: 0,
            vnic_server_entries: 2_000,
            extra_tables: 0,
            lookup_weight: 1.0,
            stateful_acl: true,
            stateful_decap: false,
        }
    }
}

impl VnicProfile {
    /// A load-balancer middlebox vNIC: huge ACLs, many peers, stateful
    /// decap toward real servers, O(100 MB) of tables (§6.3.1).
    pub fn load_balancer() -> Self {
        VnicProfile {
            acl_rules: 4_000,
            routes: 2_000,
            qos_rules: 64,
            nat_rules: 0,
            policy_rules: 32,
            mirror_rules: 16,
            pbr_rules: 4,
            vnic_server_entries: 50_000,
            extra_tables: 2,
            lookup_weight: 5.45,
            stateful_acl: true,
            stateful_decap: true,
        }
    }

    /// A NAT-gateway middlebox vNIC: large NAT + ACL tables (§6.3.1).
    pub fn nat_gateway() -> Self {
        VnicProfile {
            acl_rules: 5_000,
            routes: 2_000,
            qos_rules: 64,
            nat_rules: 8_000,
            policy_rules: 32,
            mirror_rules: 16,
            pbr_rules: 4,
            vnic_server_entries: 50_000,
            extra_tables: 2,
            lookup_weight: 7.3,
            stateful_acl: true,
            stateful_decap: false,
        }
    }

    /// A transit-router middlebox vNIC: routing-heavy, **bypasses the
    /// ACL** — which is why TR shows the smallest CPS gain in Table 3
    /// ("TR has the simplest rule table lookup as it bypasses the ACL").
    pub fn transit_router() -> Self {
        VnicProfile {
            acl_rules: 0,
            routes: 20_000,
            qos_rules: 64,
            nat_rules: 0,
            policy_rules: 32,
            mirror_rules: 0,
            pbr_rules: 0,
            vnic_server_entries: 60_000,
            extra_tables: 1,
            lookup_weight: 1.35,
            stateful_acl: false,
            stateful_decap: false,
        }
    }
}

/// The bundle of rule tables owned by one vNIC.
#[derive(Clone, Debug, Default)]
pub struct VnicTables {
    /// Access control.
    pub acl: AclTable,
    /// VXLAN routing.
    pub route: RouteTable,
    /// QoS classification and metering.
    pub qos: QosTable,
    /// Source NAT.
    pub nat: NatTable,
    /// Statistics policy.
    pub policy: PolicyTable,
    /// Traffic mirroring.
    pub mirror: MirrorTable,
    /// Policy-based routing.
    pub pbr: PbrTable,
    /// Cached vNIC→server mappings.
    pub vnic_server: VnicServerMap,
}

impl VnicTables {
    /// Total memory footprint of the tables under `m`, including the fixed
    /// per-vNIC base overhead.
    pub fn memory_bytes(&self, m: &MemoryModel) -> u64 {
        m.vnic_base
            + self.acl.memory_bytes(m.acl_rule)
            + self.route.memory_bytes(m.route_entry)
            + self.qos.memory_bytes(m.qos_rule)
            + self.nat.memory_bytes(m.nat_rule)
            + self.policy.memory_bytes(m.policy_rule)
            + self.mirror.memory_bytes(m.policy_rule)
            + self.pbr.memory_bytes(m.policy_rule)
            + self.vnic_server.memory_bytes(m.vnic_server_entry)
    }

    /// Builds synthetic tables matching a profile.
    ///
    /// The generated rules are deterministic functions of the profile and
    /// `home`: routes cover the vNIC's /16, ACL rules allow a spread of
    /// port ranges under a stateful default, peers map into consecutive
    /// synthetic servers. The content is synthetic but the *lookup work
    /// and memory* match the profile exactly, which is what the
    /// experiments measure.
    pub fn synthesize(profile: &VnicProfile, subnet: Ipv4Addr, home: ServerId) -> Self {
        let mut t = VnicTables {
            acl: if profile.stateful_acl {
                AclTable::security_group()
            } else {
                AclTable::allow_all()
            },
            ..Default::default()
        };
        for i in 0..profile.acl_rules {
            // Alternate accept/drop rules over varied ports and prefixes.
            let port_base = (i as u16).wrapping_mul(13) % 60_000;
            t.acl.insert(AclRule {
                priority: i as u32 + 1,
                direction: None,
                src: (Ipv4Addr::UNSPECIFIED, 0),
                dst: (Ipv4Addr(subnet.0 + ((i as u32) << 8)), 24),
                src_ports: PortRange::ANY,
                dst_ports: PortRange {
                    lo: port_base,
                    hi: port_base + 128,
                },
                protocol: None,
                decision: if i % 4 == 0 {
                    Decision::Drop
                } else {
                    Decision::Accept
                },
                stateful: profile.stateful_acl,
            });
        }
        // Routes: the subnet itself plus /24s fanning out, ending with a
        // default route so synthetic traffic is always routable.
        t.route.insert(subnet, 16, RouteTarget::Overlay(subnet));
        for i in 0..profile.routes {
            t.route.insert(
                Ipv4Addr(subnet.0 ^ ((i as u32 + 1) << 8)),
                24,
                RouteTarget::Overlay(subnet),
            );
        }
        t.route
            .insert(Ipv4Addr::UNSPECIFIED, 0, RouteTarget::Overlay(subnet));
        for i in 0..profile.qos_rules {
            t.qos.add_rule(QosRule {
                dst_ports: PortRange {
                    lo: (i as u16) * 100,
                    hi: (i as u16) * 100 + 99,
                },
                class: (i % 4) as u8,
            });
        }
        for i in 0..profile.nat_rules {
            t.nat.insert(NatRule {
                src_prefix: (Ipv4Addr(subnet.0 + (i as u32)), 32),
                public: Ipv4Addr(0xcb00_7100 + (i as u32 % 250)),
            });
        }
        for i in 0..profile.policy_rules {
            // Statistics policies cover the upper half of the /16 — flow
            // logging applies to designated prefixes, not to all traffic
            // (most production state is just FSM+direction, Fig. 15).
            t.policy.insert(PolicyRule {
                dst_prefix: (Ipv4Addr(subnet.0 + ((128 + i as u32) << 8)), 24),
                dst_ports: PortRange::ANY,
                policy: (i % 3 + 1) as u8,
            });
        }
        for i in 0..profile.mirror_rules {
            // Mirrors watch designated prefixes in the upper /16 half,
            // like the statistics policies (most traffic is not mirrored).
            t.mirror.insert(MirrorRule {
                dst_prefix: (Ipv4Addr(subnet.0 + ((160 + i as u32) << 8)), 24),
                dst_ports: PortRange::ANY,
                collector: Ipv4Addr(subnet.0 + 0xf0_00 + i as u32),
            });
        }
        for i in 0..profile.pbr_rules {
            // Policy routes steer designated source /24s via an egress
            // inspection hop inside the subnet.
            t.pbr.insert(PbrRule {
                src_prefix: (Ipv4Addr(subnet.0 + ((192 + i as u32) << 8)), 24),
                via: Ipv4Addr(subnet.0 + 0xf1_00 + i as u32),
            });
        }
        for i in 0..profile.vnic_server_entries {
            t.vnic_server.set(
                Ipv4Addr(subnet.0 + i as u32),
                ServerId(home.0 + i as u32 % 64),
            );
        }
        t
    }
}

/// A vNIC instance: identity, overlay address, tables, profile.
#[derive(Clone, Debug)]
pub struct Vnic {
    /// The vNIC's id.
    pub id: VnicId,
    /// Owning tenant network.
    pub vpc: VpcId,
    /// The vNIC's overlay address (what peers send to).
    pub addr: Ipv4Addr,
    /// Size/feature profile.
    pub profile: VnicProfile,
    /// The rule tables (present when this node holds them; a Nezha BE in
    /// the final stage has dropped them).
    pub tables: VnicTables,
}

impl Vnic {
    /// Builds a vNIC with synthetic tables per its profile.
    pub fn new(
        id: VnicId,
        vpc: VpcId,
        addr: Ipv4Addr,
        profile: VnicProfile,
        home: ServerId,
    ) -> Self {
        let subnet = addr.masked(16);
        Vnic {
            id,
            vpc,
            addr,
            profile,
            tables: VnicTables::synthesize(&profile, subnet, home),
        }
    }

    /// Memory its tables occupy under `m`.
    pub fn table_memory(&self, m: &MemoryModel) -> u64 {
        self.tables.memory_bytes(m)
    }

    /// Opens an inbound service port: inserts a top-priority stateless
    /// RX accept rule, the security-group idiom for exposing a listener.
    pub fn allow_inbound_port(&mut self, port: u16) {
        self.tables.acl.insert(AclRule {
            priority: 0,
            direction: Some(nezha_types::Direction::Rx),
            src: (Ipv4Addr::UNSPECIFIED, 0),
            dst: (Ipv4Addr::UNSPECIFIED, 0),
            src_ports: PortRange::ANY,
            dst_ports: PortRange::only(port),
            protocol: None,
            decision: Decision::Accept,
            stateful: false,
        });
    }

    /// Rule-lookup cycles for one pipeline pass over this vNIC's tables.
    pub fn lookup_cycles(&self, costs: &crate::config::CostModel, pkt_bytes: usize) -> u64 {
        let base = costs.lookup_cycles(pkt_bytes, self.tables.acl.len(), self.profile.extra_tables);
        (base as f64 * self.profile.lookup_weight) as u64
    }

    /// Full slow-path cycles for this vNIC's first packets.
    pub fn slow_path_cycles(&self, costs: &crate::config::CostModel, pkt_bytes: usize) -> u64 {
        self.lookup_cycles(costs, pkt_bytes) + costs.session_create + costs.first_packet_overhead
    }

    /// Cycles one TCP_CRR connection costs on a local vSwitch: one slow
    /// path (the first packet caches the bidirectional flow) plus six
    /// fast-path packets.
    pub fn crr_cycles(&self, costs: &crate::config::CostModel, pkt_bytes: usize) -> u64 {
        self.slow_path_cycles(costs, pkt_bytes) + 6 * costs.fast_path_cycles(pkt_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::FiveTuple;

    fn mm() -> MemoryModel {
        MemoryModel::default()
    }

    #[test]
    fn default_profile_memory_matches_paper_band() {
        // §2.2.2: "most vNICs require 5.5-10MB of memory".
        let v = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        );
        let mb = v.table_memory(&mm()) as f64 / (1024.0 * 1024.0);
        assert!((5.5..=10.0).contains(&mb), "vNIC memory {mb} MB");
    }

    #[test]
    fn middlebox_profiles_are_order_100mb() {
        // §6.3.1: "the rule table sizes of LB, NAT and TR are generally
        // O(100MB)".
        for p in [
            VnicProfile::load_balancer(),
            VnicProfile::nat_gateway(),
            VnicProfile::transit_router(),
        ] {
            let v = Vnic::new(
                VnicId(2),
                VpcId(1),
                Ipv4Addr::new(10, 8, 0, 1),
                p,
                ServerId(0),
            );
            let mb = v.table_memory(&mm()) as f64 / (1024.0 * 1024.0);
            assert!((50.0..=400.0).contains(&mb), "middlebox memory {mb} MB");
        }
    }

    #[test]
    fn synthetic_tables_have_requested_sizes() {
        let p = VnicProfile {
            acl_rules: 10,
            routes: 5,
            qos_rules: 3,
            nat_rules: 2,
            policy_rules: 4,
            mirror_rules: 2,
            pbr_rules: 0,
            vnic_server_entries: 7,
            extra_tables: 1,
            lookup_weight: 1.0,
            stateful_acl: true,
            stateful_decap: false,
        };
        let t = VnicTables::synthesize(&p, Ipv4Addr::new(10, 9, 0, 0), ServerId(3));
        assert_eq!(t.acl.len(), 10);
        assert_eq!(t.route.len(), 5 + 2); // + subnet route + default route
        assert_eq!(t.qos.len(), 3);
        assert_eq!(t.nat.len(), 2);
        assert_eq!(t.policy.len(), 4);
        assert_eq!(t.mirror.len(), 2);
        assert_eq!(t.vnic_server.len(), 7);
    }

    #[test]
    fn synthetic_traffic_is_routable() {
        let v = Vnic::new(
            VnicId(1),
            VpcId(1),
            Ipv4Addr::new(10, 7, 0, 1),
            VnicProfile::default(),
            ServerId(0),
        );
        // Any destination resolves via the default route.
        assert!(v
            .tables
            .route
            .lookup(Ipv4Addr::new(172, 16, 0, 1))
            .is_some());
        // Peer addresses resolve to servers.
        assert!(!v
            .tables
            .vnic_server
            .lookup(Ipv4Addr::new(10, 7, 0, 5))
            .is_empty());
        // ACL with stateful default never panics on lookup.
        let _ = v.tables.acl.lookup(
            &FiveTuple::tcp(Ipv4Addr::new(1, 1, 1, 1), 1, Ipv4Addr::new(2, 2, 2, 2), 2),
            nezha_types::Direction::Tx,
        );
    }

    #[test]
    fn transit_router_bypasses_acl() {
        let p = VnicProfile::transit_router();
        assert_eq!(p.acl_rules, 0);
        assert!(!p.stateful_acl);
        let t = VnicTables::synthesize(&p, Ipv4Addr::new(10, 1, 0, 0), ServerId(0));
        assert!(t.acl.is_empty());
    }
}
