//! Stateful backend (BE) handlers: TX origination + NSH encap, RX-carry
//! consumption, notify absorption, and direct-RX bouncing, plus the
//! graceful-degradation fallback (§3.2.1/§3.2.2, Appendix C.2).

use crate::be::OffloadPhase;
use crate::cluster::Cluster;
use crate::config::ConfigOp;
use crate::datapath::ctx::HandlerCtx;
use crate::datapath::dispatch::{flow_hash, process_locally, Event};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_sim::trace::TraceEventKind;
use nezha_types::{Direction, NezhaHeader, NezhaPayloadKind, Packet, SessionKey, VnicId};
use nezha_vswitch::pipeline;

/// Does this vNIC currently steer TX traffic through FEs?
pub(crate) fn nezha_active_for_tx(cl: &Cluster, vnic: VnicId) -> bool {
    cl.be_meta.get(&vnic).is_some_and(|m| {
        matches!(m.phase, OffloadPhase::OffloadDual | OffloadPhase::Offloaded)
            && !m.ready_fes().is_empty()
    })
}

/// The graceful-degradation trigger: an offloaded vNIC whose entire
/// FE pool is dead. The BE's rule tables are gone and every packet
/// hashed to an FE would be lost until the monitor rebuilds the pool
/// — which it will not do while suspended (Appendix C.2).
pub(crate) fn fe_pool_collapsed(cl: &Cluster, vnic: VnicId) -> bool {
    cl.be_meta.get(&vnic).is_some_and(|m| {
        m.phase == OffloadPhase::Offloaded
            && !m.ready_fes().iter().any(|fe| cl.alive[fe.0 as usize])
    })
}

/// Emergency fallback from the data plane when the FE pool collapses:
/// re-arm the BE with the master tables and schedule the normal
/// fallback teardown. Unlike `Cluster::trigger_fallback` this runs
/// mid-packet and tolerates the dead pool. Returns false when the
/// home vSwitch cannot fit the tables (packets stay lost until the
/// management plane recovers).
pub(crate) fn degrade_to_local(ctx: &mut HandlerCtx<'_>, vnic: VnicId) -> bool {
    let now = ctx.now;
    let cl = &mut *ctx.cl;
    let Some(home) = cl.vnic_home.get(&vnic).copied() else {
        return false;
    };
    let Some(master) = cl.master_vnics.get(&vnic).cloned() else {
        return false;
    };
    if cl.switches[home.0 as usize].vnic(vnic).is_none()
        && cl.switches[home.0 as usize].add_vnic(master).is_err()
    {
        return false;
    }
    let Some(meta) = cl.be_meta.get_mut(&vnic) else {
        return false;
    };
    meta.phase = OffloadPhase::FallbackDual;
    ctx.inc_degraded();
    let cl = &mut *ctx.cl;
    let addr = cl.vnic_addr[&vnic];
    let cfg = cl.cfg.controller;
    let gw_at = now + cfg.gateway_update_delay;
    cl.engine.schedule_at(
        gw_at,
        Event::Config(ConfigOp::GatewayUpdate {
            addr,
            // nezha-lint: allow(D10): degradation to local vswitch is a rare fault-recovery event, not per-packet work
            servers: vec![home],
        }),
    );
    cl.engine.schedule_at(
        gw_at + cl.gateway.learning_interval() + SimDuration::from_millis(50),
        Event::Config(ConfigOp::FallbackFinal { vnic }),
    );
    true
}

/// TX packet from the local VM at its home (BE) vSwitch.
pub(crate) fn be_handle_tx(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    if fe_pool_collapsed(ctx.cl, pkt.vnic) {
        degrade_to_local(ctx, pkt.vnic);
    }
    if !nezha_active_for_tx(ctx.cl, pkt.vnic) {
        return process_locally(ctx, pkt, sent_at);
    }
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let costs = vs.config().costs;
    let mem_model = vs.config().memory;
    let is_first = vs.sessions.get(&key).is_none();
    let cycles = if is_first {
        costs.be_first_packet
    } else {
        costs.be_per_packet
    };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    let charged = charge.scaled;
    ctx.note_local_cycles(cycles);
    // State handling: create (state-only) or update, locally.
    let vs = &mut ctx.cl.switches[server.0 as usize];
    if is_first {
        let mem_ok = vs
            .sessions
            .establish(
                key,
                pkt.vnic,
                Direction::Tx,
                None,
                now,
                &mut vs.mem,
                &mem_model,
            )
            .is_ok();
        if !mem_ok {
            // State memory exhausted: the flow is processed but its
            // stateful guarantees degrade (counted as overflow).
        }
    }
    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::TxCarry, pkt.vnic, pkt.vpc);
    if let Some(entry) = vs.sessions.get_mut(&key) {
        pipeline::update_state(None, &mut entry.state, &pkt);
        entry.last_seen = now;
        nsh.first_dir = entry.state.first_dir;
        nsh.decap_addr = entry.state.decap.map(|d| d.overlay_src);
        if entry.state.stats.policy != 0 {
            nsh.stats_policy = Some(entry.state.stats.policy);
        }
    } else {
        nsh.first_dir = Some(Direction::Tx);
    }
    // Select the FE by flow hash and ship the packet with its state.
    // `nezha_active_for_tx` above implies the meta exists; degrade to a
    // loss (never a panic) if that invariant is ever broken.
    let Some(meta) = ctx.cl.be_meta.get(&pkt.vnic) else {
        return ctx.lose(pkt.trace);
    };
    let h = ctx.cl.select_hash(&pkt.tuple, pkt.trace);
    let Some(fe) = meta.select_fe(&key, h) else {
        return ctx.lose(pkt.trace);
    };
    let mut out = pkt.with_nezha(nsh);
    out.outer_src = Some(server);
    out.outer_dst = Some(fe);
    // Span tree: the BE charge is pure session work (the cost model
    // does not split it further); the zero-cycle encap marker is the
    // causal parent the FE's span will hang off across the hop.
    let st = ctx.stages();
    let root = ctx.span(st.be_tx, &pkt, now, done, &[(st.session_update, charged)]);
    if let Some(encap) = ctx.hop(TraceEventKind::NshEncap, st.nsh_encap, root, &pkt, done) {
        out.prof_span = encap.to_raw();
    }
    let lat = ctx.cl.topo.latency(server, fe, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, fe, out, sent_at);
}

/// RX-carried packet arriving at the BE: update local state with the
/// piggybacked pre-actions and deliver to the VM.
pub(crate) fn be_handle_rx_carry(
    ctx: &mut HandlerCtx<'_>,
    nsh: NezhaHeader,
    pkt: Packet,
    sent_at: SimTime,
) {
    let (server, now) = (ctx.server, ctx.now);
    if ctx.cl.vnic_home.get(&pkt.vnic) != Some(&server) {
        return ctx.misroute(&pkt);
    }
    let Some(pair) = nsh.pre_actions else {
        return ctx.misroute(&pkt);
    };
    ctx.trace(now, &pkt, TraceEventKind::NshDecap);
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let vs = &mut ctx.cl.switches[server.0 as usize];
    let mem_model = vs.config().memory;
    let costs = vs.config().costs;
    let is_first = vs.sessions.get(&key).is_none();
    let cycles = if is_first {
        costs.be_first_packet
    } else {
        costs.be_per_packet
    };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    // The BE charge is again pure session work; the zero-cycle decap
    // marker documents the hop in the tree (flamegraphs skip it).
    let st = ctx.stages();
    if let Some(root) = ctx.span(
        st.be_rx_carry,
        &pkt,
        now,
        done,
        &[(st.session_update, charge.scaled)],
    ) {
        ctx.span_marker(st.nsh_decap, Some(root), &pkt, now, now, 0);
    }
    ctx.note_local_cycles(cycles);

    let vs = &mut ctx.cl.switches[server.0 as usize];
    if is_first {
        let _ = vs.sessions.establish(
            key,
            pkt.vnic,
            Direction::Rx,
            None,
            now,
            &mut vs.mem,
            &mem_model,
        );
    }
    // Restore the info the FE carried for state initialization.
    let mut inner = pkt.strip_nezha();
    inner.overlay_encap_src = nsh.decap_addr;
    let action = if let Some(entry) = vs.sessions.get_mut(&key) {
        entry.last_seen = now;
        // Adopt rule-table-involved state piggybacked in the header
        // without verification (§3.2.2 RX workflow).
        if let Some(p) = nsh.stats_policy {
            entry.state.stats.policy = p;
        }
        pipeline::process_pkt(&pair.rx, &mut entry.state, &inner)
    } else {
        let mut scratch = nezha_types::SessionState::default();
        pipeline::process_pkt(&pair.rx, &mut scratch, &inner)
    };
    if action.verdict == nezha_types::Decision::Drop {
        return ctx.deny(pkt.trace);
    }
    ctx.count_mirrors(&action);
    crate::datapath::dispatch::deliver_to_vm(ctx, pkt.vnic, pkt.trace, sent_at, done);
}

/// Standalone notify packet at the BE (§3.2.2 TX workflow).
pub(crate) fn be_handle_notify(ctx: &mut HandlerCtx<'_>, nsh: NezhaHeader, pkt: Packet) {
    let (server, now) = (ctx.server, ctx.now);
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let cycles = ctx.cl.switches[server.0 as usize]
        .config()
        .costs
        .be_per_packet;
    // A lost notify is retried implicitly on the next miss.
    let Some(charge) = ctx.charge_silent(&pkt, cycles) else {
        return;
    };
    // The notify chains off the FE span that emitted it, closing the
    // BE → FE → BE causal loop for the packet that missed.
    let st = ctx.stages();
    let _ = ctx.span(
        st.be_notify,
        &pkt,
        now,
        charge.done,
        &[(st.notify, charge.scaled)],
    );
    let vs = &mut ctx.cl.switches[server.0 as usize];
    if let Some(entry) = vs.sessions.get_mut(&key) {
        if let Some(p) = nsh.stats_policy {
            entry.state.stats.policy = p;
        }
    }
}

/// RX packet arriving directly at the BE (sender's mapping is stale or
/// the vNIC is simply not offloaded).
pub(crate) fn be_handle_direct_rx(ctx: &mut HandlerCtx<'_>, pkt: Packet, sent_at: SimTime) {
    let (server, now) = (ctx.server, ctx.now);
    // Graceful degradation: with every FE dead, bouncing is futile —
    // fall back to local processing if the tables fit.
    if fe_pool_collapsed(ctx.cl, pkt.vnic) && degrade_to_local(ctx, pkt.vnic) {
        return process_locally(ctx, pkt, sent_at);
    }
    let key = SessionKey::of(pkt.vpc, pkt.tuple);
    let fe = match ctx.cl.be_meta.get(&pkt.vnic) {
        Some(meta) if meta.phase == OffloadPhase::Offloaded => {
            meta.select_fe(&key, flow_hash(&pkt.tuple))
        }
        // Local / dual-running: the BE still has rules and flows.
        _ => return process_locally(ctx, pkt, sent_at),
    };
    // Final stage: tables are gone. Bounce to an FE (costs a parse).
    ctx.inc_stale_bounces();
    let Some(fe) = fe else {
        return ctx.lose(pkt.trace);
    };
    let cycles = ctx.cl.switches[server.0 as usize].config().costs.parse;
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    let mut out = pkt;
    // A stale bounce costs one parse; the FE visit it triggers hangs
    // off this root via `prof_span`.
    let st = ctx.stages();
    if let Some(root) = ctx.span(
        st.be_direct_rx,
        &out,
        now,
        done,
        &[(st.parse, charge.scaled)],
    ) {
        out.prof_span = root.to_raw();
    }
    out.outer_src = Some(server);
    out.outer_dst = Some(fe);
    let lat = ctx.cl.topo.latency(server, fe, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, fe, out, sent_at);
}
