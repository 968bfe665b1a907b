//! Event dispatch: the cluster's [`Event`] match, the arrival gate, and
//! the NSH demux that hands each packet to its role handler (`be` / `fe`).
//!
//! Also home to the flow-hash helpers and the shared terminal forwarding
//! paths (`process_locally` / `forward_to_peer` / `deliver_to_vm`) both
//! roles funnel into.

use crate::cluster::Cluster;
use crate::config::{ConfigOp, LbMode};
use crate::datapath::be;
use crate::datapath::ctx::HandlerCtx;
use crate::datapath::fe::{self, FeBinding};
use nezha_sim::fault::FaultKind;
use nezha_sim::time::SimTime;
use nezha_types::{Direction, NezhaPayloadKind, Packet, ServerId};
use nezha_vswitch::pipeline::{self, ProcessOutcome};

/// Events driving the cluster.
#[derive(Clone, Debug)]
pub enum Event {
    /// A packet arrives at a server's vSwitch.
    ///
    /// The packet itself is parked in the cluster's packet slab and the
    /// heap entry carries only its 4-byte id: the event heap sifts
    /// ~50-byte entries instead of ~220-byte ones, which is most of the
    /// simulator's memory traffic under load.
    Arrive {
        /// Receiving server.
        server: ServerId,
        /// Slab id of the parked packet (`Cluster::schedule_arrive`).
        pkt: u32,
        /// When the packet's current network journey began (for latency).
        sent_at: SimTime,
    },
    /// Start a registered connection.
    StartConn {
        /// Connection id.
        conn: u64,
    },
    /// A step's packet reached its terminal point; inject the next step.
    AdvanceConn {
        /// Connection id.
        conn: u64,
        /// The step that completed.
        from_step: usize,
    },
    /// Retransmit a lost step.
    RetryStep {
        /// Connection id.
        conn: u64,
        /// The step to retry.
        step: usize,
    },
    /// Periodic controller tick (utilization reports + decisions).
    ControllerTick,
    /// Periodic health-monitor tick (ping polling).
    MonitorTick,
    /// Periodic session-aging sweep.
    AgingTick,
    /// A delayed configuration push takes effect.
    Config(ConfigOp),
    /// Hard-crash a server's SmartNIC.
    Crash {
        /// The crashing server.
        server: ServerId,
    },
    /// Begin a standalone probe packet's journey from `from`.
    StartProbe {
        /// Slab id of the parked probe packet (RX-oriented, trace has
        /// the probe bit set).
        pkt: u32,
        /// The injecting server.
        from: ServerId,
    },
    /// A scripted fault transition fires (see `Cluster::apply_fault_plan`).
    Fault(FaultKind),
}

/// The flow hash used for FE selection: `Hash(5-tuple)` over the session's
/// canonical orientation, so both directions of a session select the same
/// FE and each session performs exactly one rule lookup and caches one
/// flow entry. (Nezha does not *need* this — state lives at the BE either
/// way, §3.2.3 — but collocating directions avoids duplicate lookups and
/// duplicate cached flows, and is what makes Fig. 9's CPS knee sit at 4
/// FEs.)
pub(crate) fn flow_hash(t: &nezha_types::FiveTuple) -> u64 {
    t.canonical().stable_hash()
}

/// Mixes a per-packet discriminator into the flow hash for the
/// packet-level LB ablation.
pub(crate) fn packet_hash(t: &nezha_types::FiveTuple, trace: u64) -> u64 {
    let mut h = flow_hash(t) ^ trace.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= h >> 29;
    h
}

impl Cluster {
    /// The FE-selection hash for one packet under the configured LB mode.
    pub(crate) fn select_hash(&self, t: &nezha_types::FiveTuple, trace: u64) -> u64 {
        match self.cfg.lb_mode {
            LbMode::FlowLevel => flow_hash(t),
            LbMode::PacketLevel => packet_hash(t, trace),
        }
    }

    /// Dispatches one engine event.
    pub(crate) fn handle(&mut self, ev: Event, now: SimTime) {
        match ev {
            Event::Arrive {
                server,
                pkt,
                sent_at,
            } => {
                let pkt = self.pkt_slab.take(pkt);
                self.handle_arrive(server, pkt, sent_at, now);
            }
            Event::StartConn { conn } => self.inject_step(conn, 0, now),
            Event::AdvanceConn { conn, from_step } => self.advance_conn(conn, from_step, now),
            Event::RetryStep { conn, step } => self.retry_step(conn, step, now),
            Event::ControllerTick => self.controller_tick(now),
            Event::MonitorTick => self.monitor_tick(now),
            Event::AgingTick => {
                for i in 0..self.switches.len() {
                    if self.alive[i] {
                        self.switches[i].expire_sessions(now);
                    }
                }
                self.engine
                    .schedule_in(self.cfg.aging_period, Event::AgingTick);
            }
            Event::Config(op) => self.apply_config(op, now),
            Event::Crash { server } => {
                self.alive[server.0 as usize] = false;
                self.monitor.crash_pending.insert(server, now);
            }
            Event::StartProbe { pkt, from } => {
                let pkt = self.pkt_slab.take(pkt);
                self.start_probe(pkt, from, now);
            }
            Event::Fault(kind) => self.handle_fault(kind, now),
        }
    }

    /// A packet arrives at `server`: gate it, then demux on the NSH
    /// header (role handlers) or the plain-packet routing rules.
    fn handle_arrive(&mut self, server: ServerId, pkt: Packet, sent_at: SimTime, now: SimTime) {
        let mut ctx = HandlerCtx::new(self, server, now);
        if !ctx.gate(&pkt) {
            return;
        }
        if let Some(nsh) = pkt.nezha {
            match nsh.kind {
                NezhaPayloadKind::TxCarry => fe::fe_handle_tx_carry(&mut ctx, nsh, pkt, sent_at),
                NezhaPayloadKind::RxCarry => be::be_handle_rx_carry(&mut ctx, nsh, pkt, sent_at),
                NezhaPayloadKind::Notify => be::be_handle_notify(&mut ctx, nsh, pkt),
                NezhaPayloadKind::HealthProbe | NezhaPayloadKind::HealthReply => {
                    // Health traffic is handled inline by the monitor tick
                    // (replies are modeled as observation of `alive`).
                }
            }
            return;
        }
        // Plain packet.
        let is_home = ctx.cl.vnic_home.get(&pkt.vnic) == Some(&server);
        if is_home {
            match pkt.dir {
                Direction::Tx => be::be_handle_tx(&mut ctx, pkt, sent_at),
                Direction::Rx => be::be_handle_direct_rx(&mut ctx, pkt, sent_at),
            }
        } else if let Some(binding) = FeBinding::claim(ctx.cl, server, &pkt) {
            fe::fe_handle_rx(&mut ctx, binding, pkt, sent_at);
        } else {
            // Stale mapping pointed at a server that is neither home nor a
            // configured FE (e.g. an FE that was just scaled in).
            ctx.misroute(&pkt);
        }
    }
}

/// Traditional processing at the home vSwitch.
pub(crate) fn process_locally(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let r = vs.process_local(&pkt, now);
    // Priced after the fact so the fast path never pays the slow-path
    // formula's `ln`; the vNIC set is untouched by `process_local`. A CPU
    // drop reports no path — the charge the switch *attempted* still
    // depends on what the flow-cache probe saw, which is re-derivable
    // because a dropped packet mutates no session state.
    let took_fast = match r.path {
        Some(p) => p == nezha_vswitch::PathTaken::Fast,
        None => vs
            .sessions
            .get(&nezha_types::SessionKey::of(pkt.vpc, pkt.tuple))
            .is_some_and(|e| e.pre_actions.is_some()),
    };
    let cycles_hint = if took_fast {
        vs.config().costs.fast_path_cycles(pkt.wire_len())
    } else {
        vs.vnic(pkt.vnic)
            .map(|v| v.slow_path_cycles(&vs.config().costs, pkt.wire_len()))
            .unwrap_or_else(|| vs.config().costs.slow_path_cycles(pkt.wire_len(), 0, 0))
    };
    ctx.note_local_cycles(cycles_hint);
    match r.outcome {
        ProcessOutcome::Forwarded(action) => {
            ctx.count_mirrors(&action);
            match pkt.dir {
                Direction::Tx => forward_to_peer(ctx, pkt, action, sent_at, r.done_at),
                Direction::Rx => deliver_to_vm(ctx, pkt.vnic, pkt.trace, sent_at, r.done_at),
            }
        }
        ProcessOutcome::AclDrop | ProcessOutcome::Unroutable | ProcessOutcome::RateLimited => {
            ctx.deny(pkt.trace)
        }
        ProcessOutcome::CpuOverload => ctx.lose(pkt.trace),
    }
}

/// Final TX forwarding toward the peer endpoint: the conn/probe's
/// packet has cleared the Nezha/local pipeline.
pub(crate) fn forward_to_peer(
    ctx: &mut HandlerCtx<'_>,
    pkt: Packet,
    action: nezha_types::Action,
    sent_at: SimTime,
    done: SimTime,
) {
    let from = ctx.server;
    // Resolve where the peer lives: the action's next hop when the
    // tables knew it, else the conn spec (gateway egress).
    let peer = action
        .next_hop
        .or_else(|| ctx.cl.conn(pkt.trace >> 4).map(|c| c.spec.peer_server));
    let Some(peer) = peer else {
        // No destination (pure probe toward gateway): terminal here.
        ctx.complete(pkt.trace, sent_at, done);
        return;
    };
    let lat = ctx.cl.topo.latency(from, peer, pkt.wire_len());
    // The peer endpoint consumes the packet without vSwitch charging
    // (the peer side is assumed unloaded, §6.1 testbed setup).
    ctx.complete(pkt.trace, sent_at, done + lat);
}

/// Final RX delivery into the VM kernel.
pub(crate) fn deliver_to_vm(
    ctx: &mut HandlerCtx<'_>,
    vnic: nezha_types::VnicId,
    trace: u64,
    sent_at: SimTime,
    done: SimTime,
) {
    let Some(vm) = ctx.cl.vms.get_mut(&vnic) else {
        return ctx.complete(trace, sent_at, done);
    };
    match vm.deliver_packet(done) {
        Some(kernel_done) => ctx.complete(trace, sent_at, kernel_done),
        None => ctx.lose(trace),
    }
}

/// The vSwitch cost path an FE lookup took: a flow-cache miss re-executes
/// the full slow path, a hit is fast-path work.
pub(crate) fn fe_path(miss: bool) -> nezha_vswitch::PathTaken {
    if miss {
        nezha_vswitch::PathTaken::Slow
    } else {
        nezha_vswitch::PathTaken::Fast
    }
}

/// Builds the profiler leaf list for one FE handler: the NSH carry share
/// first (decap on the TX side, encap on RX), then the lookup's own
/// per-stage cost split following the process graph's cost `plan` for
/// the path taken. Overflow tiers clamp onto the last tier handle
/// (inside `plan_leaves`).
pub(crate) fn fe_stage_leaves(
    st: &nezha_sim::profile::StageSet,
    carry: nezha_sim::profile::StageHandle,
    carry_cycles: u64,
    plan: &[nezha_vswitch::CostSlot],
    c: pipeline::StageCosts,
) -> Vec<(nezha_sim::profile::StageHandle, u64)> {
    // nezha-lint: allow(D10): stage attribution only runs under `profiler_enabled()`, never in measurement runs
    let mut leaves = vec![(carry, carry_cycles)];
    nezha_vswitch::stage::costing::plan_leaves(plan, st, &c, &mut leaves);
    leaves
}
