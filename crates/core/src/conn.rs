//! Connection scripts: the unit of CPS workload.
//!
//! A connection is a fixed script of packets (the netperf TCP_CRR shape
//! the paper's testbed uses, §6.2.1: handshake, request, response,
//! teardown). The cluster drives one step at a time — a step's packet is
//! injected only after the previous step's packet was delivered — so
//! end-to-end behaviour (vSwitch queueing, FE detours, VM kernel
//! saturation, losses and retries) shapes the achieved CPS exactly as it
//! does on a real testbed.

use nezha_sim::time::SimTime;
use nezha_types::{Direction, FiveTuple, ServerId, TcpFlags, VnicId, VpcId};

/// Who initiates the connection, relative to the vNIC's VM.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnKind {
    /// A remote client connects to the VM (the high-CPS middlebox /
    /// server pattern that overloads SmartNICs, §2.2.1).
    Inbound,
    /// The VM initiates toward a remote peer (exercises the §5.1 stateful
    /// ACL TX workflow).
    Outbound,
    /// An inbound connection that stays open after the response — the
    /// persistent-connection pattern of L4 load balancers that bloats
    /// session tables (§2.2.2). The entry lives until idle aging.
    PersistentInbound,
    /// A bare inbound SYN that never completes the handshake: the SYN
    /// flood of §7.3, pinning embryonic state until the short SYN aging
    /// reclaims it.
    SynOnly,
}

/// One step of a connection script.
#[derive(Clone, Copy, Debug)]
pub struct StepDef {
    /// Packet direction relative to the vNIC's VM.
    pub dir: Direction,
    /// TCP flags of the step's packet.
    pub flags: TcpFlags,
    /// Whether the step carries the request/response payload.
    pub has_payload: bool,
}

const fn step(dir: Direction, flags: TcpFlags, has_payload: bool) -> StepDef {
    StepDef {
        dir,
        flags,
        has_payload,
    }
}

/// TCP_CRR script for an inbound connection (client → VM), from the
/// vNIC's perspective: SYN in, SYN+ACK out, ACK+request in, response
/// out, FIN in, FIN out, final ACK in.
pub const INBOUND_SCRIPT: [StepDef; 7] = [
    step(Direction::Rx, TcpFlags(0x02), false), // SYN
    step(Direction::Tx, TcpFlags(0x12), false), // SYN|ACK
    step(Direction::Rx, TcpFlags(0x18), true),  // PSH|ACK request
    step(Direction::Tx, TcpFlags(0x18), true),  // PSH|ACK response
    step(Direction::Rx, TcpFlags(0x11), false), // FIN|ACK
    step(Direction::Tx, TcpFlags(0x11), false), // FIN|ACK
    step(Direction::Rx, TcpFlags(0x10), false), // ACK
];

/// TCP_CRR script for an outbound connection (VM → peer): the mirror
/// image of [`INBOUND_SCRIPT`].
pub const OUTBOUND_SCRIPT: [StepDef; 7] = [
    step(Direction::Tx, TcpFlags(0x02), false),
    step(Direction::Rx, TcpFlags(0x12), false),
    step(Direction::Tx, TcpFlags(0x18), true),
    step(Direction::Rx, TcpFlags(0x18), true),
    step(Direction::Tx, TcpFlags(0x11), false),
    step(Direction::Rx, TcpFlags(0x11), false),
    step(Direction::Tx, TcpFlags(0x10), false),
];

/// Persistent-inbound script: handshake + one exchange, no teardown.
pub const PERSISTENT_INBOUND_SCRIPT: [StepDef; 4] = [
    step(Direction::Rx, TcpFlags(0x02), false),
    step(Direction::Tx, TcpFlags(0x12), false),
    step(Direction::Rx, TcpFlags(0x18), true),
    step(Direction::Tx, TcpFlags(0x18), true),
];

/// SYN-flood script: one unanswered SYN.
pub const SYN_ONLY_SCRIPT: [StepDef; 1] = [step(Direction::Rx, TcpFlags(0x02), false)];

impl ConnKind {
    /// The script for this kind.
    pub fn script(self) -> &'static [StepDef] {
        match self {
            ConnKind::Inbound => &INBOUND_SCRIPT,
            ConnKind::Outbound => &OUTBOUND_SCRIPT,
            ConnKind::PersistentInbound => &PERSISTENT_INBOUND_SCRIPT,
            ConnKind::SynOnly => &SYN_ONLY_SCRIPT,
        }
    }
}

/// A connection to be driven through the cluster.
#[derive(Clone, Copy, Debug)]
pub struct ConnSpec {
    /// The vNIC under test.
    pub vnic: VnicId,
    /// Its VPC.
    pub vpc: VpcId,
    /// The connection 5-tuple, oriented **initiator → responder**.
    pub tuple: FiveTuple,
    /// The server hosting the remote peer endpoint.
    pub peer_server: ServerId,
    /// Who initiates.
    pub kind: ConnKind,
    /// When the first packet is injected.
    pub start: SimTime,
    /// Payload bytes of the request/response steps.
    pub payload: u32,
    /// Overlay encapsulation source stamped on RX packets (exercises
    /// stateful decap, §5.2; `None` for ordinary traffic).
    pub overlay_encap_src: Option<nezha_types::Ipv4Addr>,
}

impl ConnSpec {
    /// The 5-tuple of a given step's packet, oriented as transmitted.
    ///
    /// For `Inbound`, `tuple` is client→VM, so RX steps use it directly
    /// and TX steps use the reverse; `Outbound` mirrors that.
    pub fn step_tuple(&self, dir: Direction) -> FiveTuple {
        let initiator_dir = match self.kind {
            ConnKind::Inbound | ConnKind::PersistentInbound | ConnKind::SynOnly => Direction::Rx,
            ConnKind::Outbound => Direction::Tx,
        };
        if dir == initiator_dir {
            self.tuple
        } else {
            self.tuple.reversed()
        }
    }
}

/// Runtime state of one in-flight connection.
#[derive(Clone, Debug)]
pub struct ConnState {
    /// The immutable spec.
    pub spec: ConnSpec,
    /// Next step index to inject (0-based). `script.len()` = completed.
    pub pos: usize,
    /// Retries used on the current step.
    pub retries: u32,
    /// When the first packet was injected.
    pub started_at: SimTime,
    /// Terminal status.
    pub status: ConnStatus,
}

/// Terminal status of a connection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConnStatus {
    /// Still being driven.
    InFlight,
    /// All steps delivered.
    Completed,
    /// A packet was denied by policy (expected for unsolicited traffic).
    Denied,
    /// Retries exhausted (overload / crash losses).
    Failed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nezha_types::Ipv4Addr;

    fn spec(kind: ConnKind) -> ConnSpec {
        ConnSpec {
            vnic: VnicId(1),
            vpc: VpcId(1),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                5555,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            peer_server: ServerId(9),
            kind,
            start: SimTime(0),
            payload: 128,
            overlay_encap_src: None,
        }
    }

    #[test]
    fn scripts_have_matched_shapes() {
        assert_eq!(INBOUND_SCRIPT.len(), OUTBOUND_SCRIPT.len());
        for (a, b) in INBOUND_SCRIPT.iter().zip(OUTBOUND_SCRIPT.iter()) {
            assert_eq!(a.dir, b.dir.flipped());
            assert_eq!(a.flags, b.flags);
            assert_eq!(a.has_payload, b.has_payload);
        }
    }

    #[test]
    fn inbound_script_starts_with_rx_syn() {
        let s = ConnKind::Inbound.script();
        assert_eq!(s[0].dir, Direction::Rx);
        assert!(s[0].flags.contains(TcpFlags::SYN));
        assert!(!s[0].flags.contains(TcpFlags::ACK));
        // Exactly two payload steps (request + response).
        assert_eq!(s.iter().filter(|st| st.has_payload).count(), 2);
    }

    #[test]
    fn step_tuples_orient_correctly() {
        let inb = spec(ConnKind::Inbound);
        // RX steps carry the client→VM tuple.
        assert_eq!(inb.step_tuple(Direction::Rx), inb.tuple);
        assert_eq!(inb.step_tuple(Direction::Tx), inb.tuple.reversed());

        let outb = spec(ConnKind::Outbound);
        assert_eq!(outb.step_tuple(Direction::Tx), outb.tuple);
        assert_eq!(outb.step_tuple(Direction::Rx), outb.tuple.reversed());
    }

    #[test]
    fn persistent_script_skips_teardown() {
        let s = ConnKind::PersistentInbound.script();
        assert_eq!(s.len(), 4);
        assert!(s.iter().all(|st| !st.flags.contains(TcpFlags::FIN)));
        assert_eq!(ConnKind::SynOnly.script().len(), 1);
    }

    #[test]
    fn both_orientations_share_a_session() {
        let s = spec(ConnKind::Inbound);
        let a = s.step_tuple(Direction::Rx).canonical();
        let b = s.step_tuple(Direction::Tx).canonical();
        assert_eq!(a, b);
    }
}
