//! The per-packet trace vocabulary: structured events and their filter.
//!
//! Where [`crate::metrics`] aggregates, a [`TraceEvent`] narrates: it
//! records *what happened to one packet* (enqueue, CPU charge, table
//! hit/miss, NSH encap/decap, notify, drop-with-reason) at a
//! deterministic [`SimTime`]. Events are stored in the
//! [`Profiler`](crate::profile::Profiler)'s bounded ring next to its
//! spans, so one recorder holds everything known about a packet's trip;
//! a [`TraceFilter`] narrows what is kept (record time) or read back
//! (query time) to one server/vNIC or to drops only.

use crate::time::SimTime;
use nezha_types::{Packet, ServerId, VnicId};
use std::fmt;

/// Why a packet was dropped, as recorded in a [`TraceEventKind::Drop`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The vSwitch CPU backlog was full (overload).
    Backlog,
    /// A policy/security rule denied the packet.
    PolicyDeny,
    /// A QoS class token bucket was empty.
    RateLimited,
    /// No route/session matched and slow-path resolution failed.
    NoRoute,
    /// The carrying FE or destination server had failed.
    PeerDown,
    /// Discarded by the fault engine (injected link loss, partition,
    /// or notify drop) — distinguishes chaos drops from organic ones.
    Fault,
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DropReason::Backlog => "backlog",
            DropReason::PolicyDeny => "policy-deny",
            DropReason::RateLimited => "rate-limited",
            DropReason::NoRoute => "no-route",
            DropReason::PeerDown => "peer-down",
            DropReason::Fault => "fault",
        };
        f.write_str(s)
    }
}

/// The event taxonomy a trace records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// Packet entered a vSwitch ingress queue.
    Enqueue,
    /// The vSwitch charged CPU cycles to process the packet.
    CpuCharge {
        /// Cycles consumed by the pipeline stage.
        cycles: u64,
    },
    /// Fast-path table lookup hit.
    TableHit,
    /// Fast-path table lookup missed (slow path taken).
    TableMiss,
    /// An NSH (Nezha service header) was pushed onto the packet.
    NshEncap,
    /// An NSH was stripped from the packet.
    NshDecap,
    /// An FE sent a Notify back to the BE (first packet of a session).
    Notify,
    /// The packet was dropped.
    Drop(DropReason),
}

/// One recorded event: where and when something happened to a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub at: SimTime,
    /// Correlates the events of one packet across servers.
    pub trace_id: u64,
    /// Server (vSwitch) where the event occurred.
    pub server: ServerId,
    /// The vNIC the packet belongs to.
    pub vnic: VnicId,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The event `kind` for `pkt` on `server` at `at`.
    pub fn of(at: SimTime, server: ServerId, pkt: &Packet, kind: TraceEventKind) -> Self {
        TraceEvent {
            at,
            trace_id: pkt.trace,
            server,
            vnic: pkt.vnic,
            kind,
        }
    }
}

/// Record-time filter: an event is kept only if it passes every set field.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceFilter {
    /// Keep only events on this server.
    pub server: Option<ServerId>,
    /// Keep only events for this vNIC.
    pub vnic: Option<VnicId>,
    /// Keep only `Drop` events.
    pub drops_only: bool,
}

impl TraceFilter {
    /// A filter that keeps everything.
    pub fn all() -> Self {
        TraceFilter::default()
    }

    /// Restricts to one server.
    pub fn on_server(mut self, server: ServerId) -> Self {
        self.server = Some(server);
        self
    }

    /// Restricts to one vNIC.
    pub fn on_vnic(mut self, vnic: VnicId) -> Self {
        self.vnic = Some(vnic);
        self
    }

    /// Restricts to drop events.
    pub fn drops(mut self) -> Self {
        self.drops_only = true;
        self
    }

    pub(crate) fn accepts(&self, ev: &TraceEvent) -> bool {
        if let Some(s) = self.server {
            if ev.server != s {
                return false;
            }
        }
        if let Some(v) = self.vnic {
            if ev.vnic != v {
                return false;
            }
        }
        if self.drops_only && !matches!(ev.kind, TraceEventKind::Drop(_)) {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::PolicyDeny.to_string(), "policy-deny");
        assert_eq!(DropReason::Backlog.to_string(), "backlog");
        assert_eq!(DropReason::Fault.to_string(), "fault");
    }
}
