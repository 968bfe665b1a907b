//! [`HandlerCtx`]: the one place the datapath's cross-cutting plumbing
//! lives.
//!
//! Every BE/FE handler receives a `&mut HandlerCtx` and reaches metrics,
//! the per-packet recorder (trace events and profiler spans), the fault
//! engine, and the CPU-charging model exclusively through it (lint rule
//! D7 enforces this). The handlers keep direct access to protocol state via
//! [`HandlerCtx::cl`] — split field borrows (`switches` vs `fes`) are
//! obtained with `let cl = &mut *ctx.cl;`.

use crate::cluster::Cluster;
use nezha_sim::profile::{Span, SpanId, StageHandle, StageSet};
use nezha_sim::resources::CpuOutcome;
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEvent, TraceEventKind};
use nezha_types::{Action, Packet, ServerId};
use nezha_vswitch::pipeline;

/// Borrowed view of the cluster for one handler invocation: the packet's
/// current server, the arrival time, and the full cluster state.
///
/// The cross-cutting methods below are the *only* sanctioned route from
/// a datapath handler to telemetry, faults, and cycle charging.
pub(crate) struct HandlerCtx<'c> {
    /// The whole cluster; handlers use this for protocol state only.
    pub(crate) cl: &'c mut Cluster,
    /// The server whose vSwitch is processing the packet.
    pub(crate) server: ServerId,
    /// Arrival time of the packet being handled.
    pub(crate) now: SimTime,
}

/// A successful CPU charge: when the work finishes, and how many cycles
/// were actually consumed after gray-failure scaling.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Charge {
    /// Completion time of the charged work.
    pub(crate) done: SimTime,
    /// The scaled cycle count actually burned (profiler attribution).
    pub(crate) scaled: u64,
}

impl<'c> HandlerCtx<'c> {
    pub(crate) fn new(cl: &'c mut Cluster, server: ServerId, now: SimTime) -> Self {
        HandlerCtx { cl, server, now }
    }

    // ------------------------------------------------------------------
    // Arrival gate.
    // ------------------------------------------------------------------

    /// The arrival gate: dead server, blackholed link, scripted link
    /// fault. Returns `false` — after recording the drop and scheduling
    /// the retry — when the packet must be discarded.
    pub(crate) fn gate(&mut self, pkt: &Packet) -> bool {
        if !self.cl.alive[self.server.0 as usize] {
            self.drop_pkt(pkt, DropReason::PeerDown);
            return false;
        }
        if let (Some(src), Some(dst)) = (pkt.outer_src, pkt.outer_dst) {
            if self.cl.link_blackholed(src, dst) {
                self.drop_pkt(pkt, DropReason::PeerDown);
                return false;
            }
            // Scripted link faults: partitions drop deterministically,
            // (bursty) loss models sample the seeded fault RNG.
            if self.cl.faults.should_drop(src, dst) {
                self.cl.tel.inc(self.cl.tel.fault_link_drops);
                self.drop_pkt(pkt, DropReason::Fault);
                return false;
            }
        }
        true
    }

    // ------------------------------------------------------------------
    // Cycle charging.
    // ------------------------------------------------------------------

    /// Charges `cycles` against this server's vSwitch for `pkt`'s vNIC.
    /// On CPU overload the packet is lost (retry scheduled) and `None`
    /// is returned — the handler just returns.
    pub(crate) fn charge(&mut self, pkt: &Packet, cycles: u64) -> Option<Charge> {
        match self.charge_silent(pkt, cycles) {
            Some(c) => Some(c),
            None => {
                self.cl.lose_packet(pkt.trace, self.now);
                None
            }
        }
    }

    /// Like [`HandlerCtx::charge`] but an overload drop is *not* counted
    /// as a lost packet (best-effort traffic such as notifies, which are
    /// retried implicitly on the next miss).
    pub(crate) fn charge_silent(&mut self, pkt: &Packet, cycles: u64) -> Option<Charge> {
        let vs = &mut self.cl.switches[self.server.0 as usize];
        match vs.charge(self.now, pkt.vnic, cycles) {
            CpuOutcome::Dropped => None,
            CpuOutcome::Done { done_at } => Some(Charge {
                done: done_at,
                scaled: vs.scaled_cycles(cycles),
            }),
        }
    }

    /// The cluster's compiled stage graphs (cloned handle, so callers can
    /// keep it across the split borrows of `cl`).
    pub(crate) fn graphs(&self) -> std::sync::Arc<nezha_vswitch::SwitchGraphs> {
        std::sync::Arc::clone(&self.cl.graphs)
    }

    /// Reports cycles burned on this server for its *own* (BE) traffic.
    pub(crate) fn note_local_cycles(&mut self, cycles: u64) {
        self.cl.controller.note_local_cycles(self.server, cycles);
    }

    /// Reports cycles burned on this server on *behalf of others* (FE).
    pub(crate) fn note_remote_cycles(&mut self, cycles: u64) {
        self.cl.controller.note_remote_cycles(self.server, cycles);
    }

    // ------------------------------------------------------------------
    // Tracing and profiling.
    // ------------------------------------------------------------------

    /// Records one cluster-level trace event for `pkt` at this server.
    pub(crate) fn trace(&self, at: SimTime, pkt: &Packet, kind: TraceEventKind) {
        let ev = TraceEvent::of(at, self.server, pkt, kind);
        self.cl.tel.profiler.event(ev);
    }

    /// Whether profiling is on (so handlers can skip leaf assembly).
    pub(crate) fn profiler_enabled(&self) -> bool {
        self.cl.tel.profiler.is_enabled()
    }

    /// The pre-registered stage handles (interned once; lint rule D6).
    pub(crate) fn stages(&self) -> &StageSet {
        &self.cl.tel.stages
    }

    /// Records this handler's root span (parented on the packet's carried
    /// causal id) plus its cycle-bearing leaves; returns the root id for
    /// threading across the BE↔FE hop.
    pub(crate) fn span(
        &self,
        stage: StageHandle,
        pkt: &Packet,
        start: SimTime,
        end: SimTime,
        leaves: &[(StageHandle, u64)],
    ) -> Option<SpanId> {
        let root = Span::root(stage, pkt, self.server, start, end);
        self.cl.tel.profiler.record_tree(root, leaves)
    }

    /// Records one explicit marker span (NSH encap/decap hop parents)
    /// under `parent`.
    pub(crate) fn span_marker(
        &self,
        stage: StageHandle,
        parent: Option<SpanId>,
        pkt: &Packet,
        start: SimTime,
        end: SimTime,
        cycles: u64,
    ) -> Option<SpanId> {
        let marker = self.marker(stage, parent, pkt, start, end, cycles);
        self.cl.tel.profiler.record(marker)
    }

    /// An NSH hop at `at`: the zero-cycle marker span under `parent` and
    /// the trace event `kind`, recorded in one call.
    pub(crate) fn hop(
        &self,
        kind: TraceEventKind,
        stage: StageHandle,
        parent: Option<SpanId>,
        pkt: &Packet,
        at: SimTime,
    ) -> Option<SpanId> {
        let marker = self.marker(stage, parent, pkt, at, at, 0);
        self.cl.tel.profiler.mark(kind, marker)
    }

    /// A marker span on this server. Bytes/packets are not re-counted —
    /// the root span carries them.
    fn marker(
        &self,
        stage: StageHandle,
        parent: Option<SpanId>,
        pkt: &Packet,
        start: SimTime,
        end: SimTime,
        cycles: u64,
    ) -> Span {
        Span {
            stage,
            parent,
            trace: pkt.trace,
            server: self.server,
            vnic: pkt.vnic,
            start,
            end,
            cycles,
            bytes: 0,
            packets: 0,
        }
    }

    // ------------------------------------------------------------------
    // Drops and terminal accounting.
    // ------------------------------------------------------------------

    /// Full fault-drop sequence at arrival time: trace marker, profiler
    /// marker, lost-packet accounting (with retry).
    pub(crate) fn drop_pkt(&mut self, pkt: &Packet, reason: DropReason) {
        self.fault_drop_marker(self.now, pkt, reason);
        self.cl.lose_packet(pkt.trace, self.now);
    }

    /// Trace event + zero-cycle profiler marker for a fault-discarded
    /// packet, parented under the packet's causal span so injected losses
    /// show up inside the victim's span tree — *without* loss accounting
    /// (the caller decides whether the packet counts).
    pub(crate) fn fault_drop_marker(&self, at: SimTime, pkt: &Packet, reason: DropReason) {
        let stage = self.cl.tel.stages.fault_drop;
        let marker = Span::root(stage, pkt, self.server, at, at);
        self.cl
            .tel
            .profiler
            .mark(TraceEventKind::Drop(reason), marker);
    }

    /// A packet arrived somewhere that cannot process it: count the
    /// misroute and lose the packet (retry scheduled).
    pub(crate) fn misroute(&mut self, pkt: &Packet) {
        self.cl.tel.inc(self.cl.tel.misroutes);
        self.cl.lose_packet(pkt.trace, self.now);
    }

    /// Loss accounting + retry scheduling for `trace`.
    pub(crate) fn lose(&mut self, trace: u64) {
        self.cl.lose_packet(trace, self.now);
    }

    /// Terminal policy drop for `trace`'s connection (no retry).
    pub(crate) fn deny(&mut self, trace: u64) {
        self.cl.deny_conn(trace);
    }

    /// `trace`'s step reached its terminal point at `at`.
    pub(crate) fn complete(&mut self, trace: u64, sent_at: SimTime, at: SimTime) {
        self.cl.complete_step(trace, sent_at, at);
    }

    // ------------------------------------------------------------------
    // Targeted event counters and fault queries.
    // ------------------------------------------------------------------

    /// Counts the mirror copies an action fans out (§2.2.2).
    pub(crate) fn count_mirrors(&self, action: &Action) {
        self.cl.tel.add(
            self.cl.tel.mirror_copies,
            pipeline::mirror_copies(action) as u64,
        );
    }

    /// One notify packet generated (§3.2.2).
    pub(crate) fn inc_notifies(&self) {
        self.cl.tel.inc(self.cl.tel.notifies);
    }

    /// One RX packet bounced off the post-final-stage BE.
    pub(crate) fn inc_stale_bounces(&self) {
        self.cl.tel.inc(self.cl.tel.stale_bounces);
    }

    /// One graceful degradation to local processing.
    pub(crate) fn inc_degraded(&self) {
        self.cl.tel.inc(self.cl.tel.degraded_events);
    }

    /// One notify discarded by the scripted fault engine.
    pub(crate) fn inc_fault_notify_drops(&self) {
        self.cl.tel.inc(self.cl.tel.fault_notify_drops);
    }

    /// Samples the scripted notify-loss fault (seeded fault RNG stream).
    pub(crate) fn drop_notify(&mut self) -> bool {
        self.cl.faults.drop_notify()
    }

    /// One RX packet processed by this server's FE — feeds the per-server
    /// `fe.rx_pkts` window counters behind the fairness SLO. No-op until
    /// [`Cluster::enable_windows`](crate::cluster::Cluster::enable_windows).
    pub(crate) fn note_fe_rx(&self) {
        self.cl.tel.note_fe_rx(self.server);
    }
}
