//! Stateless frontend (FE) handlers: TX-carry finalization, RX
//! pre-action lookup + piggybacking, and notify emission (§3.2.1/§3.2.2).

use crate::datapath::ctx::HandlerCtx;
use crate::datapath::dispatch::{fe_path, fe_stage_leaves, forward_to_peer};
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEventKind};
use nezha_types::{Direction, NezhaHeader, NezhaPayloadKind, Packet, ServerId, VnicId};
use nezha_vswitch::pipeline;

/// Proof that `server` was a configured FE for a packet's vNIC at demux
/// time, carrying the facts the RX handler needs (satellite of the
/// membership-assumption fix: `fe_handle_rx` no longer trusts an
/// unstated "caller checked membership" comment — it receives the claim
/// as a value, and degrades to a counted misroute if the entry vanished).
pub(crate) struct FeBinding {
    /// The FE server the claim was made for.
    pub(crate) server: ServerId,
    /// The vNIC whose FE table the claim hit.
    pub(crate) vnic: VnicId,
    /// Where this vNIC's stateful BE lives (captured from the entry).
    pub(crate) be: ServerId,
}

impl FeBinding {
    /// Claims FE membership for a plain packet: only RX traffic is ever
    /// FE-bound, and the `(server, vnic)` pair must have a configured
    /// frontend. Returns `None` — the demux counts a misroute — otherwise.
    pub(crate) fn claim(
        cl: &crate::cluster::Cluster,
        server: ServerId,
        pkt: &Packet,
    ) -> Option<Self> {
        if pkt.dir != Direction::Rx {
            return None;
        }
        let fe = cl.fes.get(&(server, pkt.vnic))?;
        Some(FeBinding {
            server,
            vnic: pkt.vnic,
            be: fe.be_location,
        })
    }
}

/// TX-carried packet arriving at an FE: look up pre-actions, finalize
/// with the carried state, and forward to the destination.
pub(crate) fn fe_handle_tx_carry(
    ctx: &mut HandlerCtx<'_>,
    nsh: NezhaHeader,
    mut pkt: Packet,
    sent_at: SimTime,
) {
    let (server, now) = (ctx.server, ctx.now);
    if !ctx.cl.fes.contains_key(&(server, pkt.vnic)) {
        return ctx.misroute(&pkt);
    }
    ctx.trace(now, &pkt, TraceEventKind::NshDecap);
    let graphs = ctx.graphs();
    // Split borrows: switch and FE are distinct fields.
    let cl = &mut *ctx.cl;
    let vs = &mut cl.switches[server.0 as usize];
    let mem_model = vs.config().memory;
    let costs = vs.config().costs;
    let Some(fe) = cl.fes.get_mut(&(server, pkt.vnic)) else {
        return; // membership checked on entry; fes untouched since
    };
    let (pair, miss) = fe.lookup_or_insert(
        &graphs.lookup,
        &pkt.tuple,
        Direction::Tx,
        &mut vs.mem,
        &mem_model,
    );
    // A cache miss re-executes the full slow path: "the FE executes
    // the same code as before deploying Nezha" (§5.1) — which is why
    // per-FE CPS capacity matches a local vSwitch's, and Fig. 9's
    // gain curve needs ~4 FEs to saturate the VM. Priced only on the
    // miss branch: the slow-path formula costs an `ln` per call.
    let cycles = costs.fe_carry
        + if miss {
            fe.vnic.slow_path_cycles(&costs, pkt.wire_len())
        } else {
            costs.fast_path_cycles(pkt.wire_len())
        };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    let done = charge.done;
    // Attribute the FE charge: the `fe_carry` share is NSH decap work,
    // the remainder follows the lookup path's own cost decomposition.
    // The root hangs off the BE's encap marker carried in `prof_span`,
    // and replaces it so the notify (if any) chains off this FE visit.
    if ctx.profiler_enabled() {
        if let Some(fe) = ctx.cl.fes.get(&(server, pkt.vnic)) {
            let st = ctx.stages();
            let charged = charge.scaled;
            let decap = charged.min(costs.fe_carry);
            let leaves = fe_stage_leaves(
                st,
                st.nsh_decap,
                decap,
                graphs.process.plan(fe_path(miss)),
                graphs.stage_costs(
                    &costs,
                    &fe.vnic,
                    pkt.wire_len(),
                    charged - decap,
                    fe_path(miss),
                ),
            );
            if let Some(root) = ctx.span(st.fe_tx_carry, &pkt, now, done, &leaves) {
                pkt.prof_span = root.to_raw();
            }
        }
    }
    ctx.note_remote_cycles(cycles);

    // Reconstruct the carried state and finalize.
    let mut carried = nezha_types::SessionState {
        first_dir: nsh.first_dir,
        ..Default::default()
    };
    if let Some(a) = nsh.decap_addr {
        carried.decap = Some(nezha_types::StatefulDecapState { overlay_src: a });
    }
    if let Some(p) = nsh.stats_policy {
        carried.stats.policy = p;
    }
    let inner = pkt.strip_nezha();
    let action = pipeline::finalize_with_state(&pair.tx, &carried, &inner);
    if action.verdict == nezha_types::Decision::Drop {
        return ctx.deny(pkt.trace);
    }
    ctx.count_mirrors(&action);

    // Notify packets: rule-table-involved state discovered at the FE
    // that differs from what the packet carried (§3.2.2).
    let state_differs = pair.tx.stats_policy != 0 && nsh.stats_policy != Some(pair.tx.stats_policy);
    if miss && (state_differs || ctx.cl.cfg.notify_always) {
        send_notify(ctx, &pkt, pair.tx.stats_policy, done);
    }

    // Forward toward the destination (peer endpoint).
    forward_to_peer(ctx, inner, action, sent_at, done);
}

/// RX packet arriving at an FE from the fabric: look up pre-actions,
/// piggyback them (plus state-initialization info), send to the BE.
pub(crate) fn fe_handle_rx(
    ctx: &mut HandlerCtx<'_>,
    binding: FeBinding,
    pkt: Packet,
    sent_at: SimTime,
) {
    let (server, now) = (ctx.server, ctx.now);
    let be = binding.be;
    let graphs = ctx.graphs();
    let cl = &mut *ctx.cl;
    let vs = &mut cl.switches[server.0 as usize];
    let mem_model = vs.config().memory;
    let costs = vs.config().costs;
    let Some(fe) = cl.fes.get_mut(&(binding.server, binding.vnic)) else {
        // The binding was claimed at demux time; an FE entry vanishing
        // between then and now means the pool changed under us — count
        // it rather than silently dropping on the floor.
        return ctx.misroute(&pkt);
    };
    let (pair, miss) = fe.lookup_or_insert(
        &graphs.lookup,
        &pkt.tuple,
        Direction::Rx,
        &mut vs.mem,
        &mem_model,
    );
    let cycles = costs.fe_carry
        + if miss {
            fe.vnic.slow_path_cycles(&costs, pkt.wire_len())
        } else {
            costs.fast_path_cycles(pkt.wire_len())
        };
    let Some(charge) = ctx.charge(&pkt, cycles) else {
        return;
    };
    ctx.note_fe_rx();
    let done = charge.done;
    // Attribute the FE charge as on the TX side, except the carry
    // share is encap work here (the FE wraps the packet for the BE).
    let mut hop_span = 0u64;
    if ctx.profiler_enabled() {
        if let Some(fe) = ctx.cl.fes.get(&(binding.server, binding.vnic)) {
            let st = ctx.stages();
            let charged = charge.scaled;
            let encap = charged.min(costs.fe_carry);
            let leaves = fe_stage_leaves(
                st,
                st.nsh_encap,
                0,
                graphs.process.plan(fe_path(miss)),
                graphs.stage_costs(
                    &costs,
                    &fe.vnic,
                    pkt.wire_len(),
                    charged - encap,
                    fe_path(miss),
                ),
            );
            if let Some(root) = ctx.span(st.fe_rx, &pkt, now, done, &leaves) {
                // The encap leaf doubles as the causal hop parent the BE
                // will see — record it explicitly to capture its id.
                let id = ctx.span_marker(st.nsh_encap, Some(root), &pkt, now, done, encap);
                if let Some(id) = id {
                    hop_span = id.to_raw();
                }
            }
        }
    }
    ctx.note_remote_cycles(cycles);

    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::RxCarry, pkt.vnic, pkt.vpc);
    nsh.pre_actions = Some(pair);
    // Information the BE needs for state init that FE processing
    // destroys: the overlay encap source (stateful decap, §3.2.2).
    nsh.decap_addr = pkt.overlay_encap_src;
    if pair.rx.stats_policy != 0 {
        nsh.stats_policy = Some(pair.rx.stats_policy);
    }
    let mut out = pkt;
    out.overlay_encap_src = None; // FE rewrites the outer header
    let mut out = out.with_nezha(nsh);
    out.outer_src = Some(server);
    out.outer_dst = Some(be);
    out.prof_span = hop_span;
    ctx.trace(done, &out, TraceEventKind::NshEncap);
    let lat = ctx.cl.topo.latency(server, be, out.wire_len());
    ctx.cl.schedule_arrive(done + lat, be, out, sent_at);
}

/// Emits one FE→BE notify packet for a missed flow (§3.2.2).
pub(crate) fn send_notify(ctx: &mut HandlerCtx<'_>, pkt: &Packet, policy: u8, done: SimTime) {
    let fe_server = ctx.server;
    ctx.inc_notifies();
    ctx.trace(done, pkt, TraceEventKind::Notify);
    let be = ctx.cl.vnic_home[&pkt.vnic];
    let mut nsh = NezhaHeader::bare(NezhaPayloadKind::Notify, pkt.vnic, pkt.vpc);
    nsh.stats_policy = Some(policy);
    let mut notify = Packet::tx_data(
        0,
        pkt.vpc,
        pkt.vnic,
        pkt.tuple,
        nezha_types::TcpFlags::empty(),
        0,
    )
    .with_nezha(nsh);
    notify.outer_src = Some(fe_server);
    notify.outer_dst = Some(be);
    // The notify inherits the emitting FE visit's span so the BE-side
    // processing lands in the same causal tree as the original packet.
    notify.prof_span = pkt.prof_span;
    // Scripted notify loss (§3.2.2's channel is best-effort: the BE's
    // rule-table-involved state converges on a later miss instead).
    if ctx.drop_notify() {
        ctx.inc_fault_notify_drops();
        ctx.fault_drop_marker(done, &notify, DropReason::Fault);
        return;
    }
    let lat = ctx.cl.topo.latency(fe_server, be, notify.wire_len());
    ctx.cl.schedule_arrive(done + lat, be, notify, done);
}
