//! The Nezha controller: utilization monitoring, offload/fallback,
//! FE selection, and remote-pool scale-out/scale-in (§4.2, §4.3, Fig. 8).
//!
//! Decision tree per vSwitch report (Fig. 8):
//!
//! * utilization > **70%** and dominated by *local* vNIC load → **offload**
//!   vNICs in descending order of consumption until below the safe level;
//! * utilization > **40%**:
//!   * dominated by *remote* (FE) load → **scale out** more FEs;
//!   * dominated by *local* load while hosting FEs → **scale in**: remove
//!     every FE on this vSwitch to prioritize local traffic (§4.3);
//! * an offloaded vNIC whose remote usage is low, where the BE could
//!   absorb the load locally → **fallback** (§4.2.2).
//!
//! Every configuration change takes effect with a modeled propagation
//! delay (log-normal push latency per FE, a gateway update, then the
//! 200 ms learning interval), which yields Table 4's completion-time
//! distribution and the dual-running stage for free.

use crate::be::{BackendMeta, OffloadPhase};
use crate::cluster::{Cluster, ConfigOp, Event};
use crate::fe::FrontEnd;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{NezhaError, NezhaResult, ServerId, VnicId};
use std::collections::BTreeMap;

/// Controller thresholds and delays.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// Utilization report / decision period.
    pub report_period: SimDuration,
    /// Offload trigger threshold (70% in Fig. 8).
    pub offload_threshold: f64,
    /// Scale-out/-in trigger threshold (40% in Fig. 8).
    pub scale_threshold: f64,
    /// Offload vNICs until projected utilization falls below this.
    pub safe_level: f64,
    /// Initial FE count (4 in production, Appendix B.2).
    pub initial_fes: usize,
    /// Minimum FE count maintained by failover (§4.4).
    pub min_fes: usize,
    /// FEs added per scale-out (production doubles 4 → 8, Fig. 11).
    pub scale_out_step: usize,
    /// Minimum spacing between scale-outs of one vNIC's pool: utilization
    /// windows keep reading hot for up to their length after a widening
    /// takes effect, so reacting faster than this double-fires.
    pub scale_out_cooldown: SimDuration,
    /// Median of the per-FE config push latency.
    pub config_push_median: SimDuration,
    /// Log-normal sigma of the push latency.
    pub config_push_sigma: f64,
    /// Delay for a gateway table update to apply.
    pub gateway_update_delay: SimDuration,
    /// Health-monitor ping period (§4.4).
    pub ping_period: SimDuration,
    /// Missed pings before a vSwitch is declared crashed.
    pub ping_misses: u32,
    /// Enable automatic offloading on threshold crossings.
    pub auto_offload: bool,
    /// Enable automatic FE scaling.
    pub auto_scale: bool,
    /// Enable automatic fallback.
    pub auto_fallback: bool,
    /// Remote-usage level (relative to BE capacity) below which fallback
    /// is considered.
    pub fallback_low_water: f64,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            report_period: SimDuration::from_millis(500),
            offload_threshold: 0.70,
            scale_threshold: 0.40,
            safe_level: 0.40,
            initial_fes: 4,
            min_fes: 4,
            scale_out_step: 4,
            scale_out_cooldown: SimDuration::from_secs(2),
            config_push_median: SimDuration::from_millis(430),
            config_push_sigma: 0.50,
            gateway_update_delay: SimDuration::from_millis(100),
            ping_period: SimDuration::from_millis(500),
            ping_misses: 3,
            auto_offload: true,
            auto_scale: true,
            auto_fallback: false,
            fallback_low_water: 0.05,
        }
    }
}

/// Controller bookkeeping between ticks.
#[derive(Debug, Default)]
pub struct ControllerState {
    /// Cycles charged for *local* (BE or traditional) work per server
    /// since the last tick.
    local_cycles: BTreeMap<ServerId, f64>,
    /// Cycles charged for *remote* (FE) work per server since last tick.
    remote_cycles: BTreeMap<ServerId, f64>,
    /// Last scale-out instant per vNIC (cooldown enforcement).
    last_scale_out: BTreeMap<VnicId, SimTime>,
}

impl ControllerState {
    /// Fresh state.
    pub fn new() -> Self {
        ControllerState::default()
    }

    pub(crate) fn note_local_cycles(&mut self, s: ServerId, cycles: u64) {
        *self.local_cycles.entry(s).or_insert(0.0) += cycles as f64;
    }

    pub(crate) fn note_remote_cycles(&mut self, s: ServerId, cycles: u64) {
        *self.remote_cycles.entry(s).or_insert(0.0) += cycles as f64;
    }

    fn split(&self, s: ServerId) -> (f64, f64) {
        (
            self.local_cycles.get(&s).copied().unwrap_or(0.0),
            self.remote_cycles.get(&s).copied().unwrap_or(0.0),
        )
    }

    fn reset(&mut self) {
        self.local_cycles.clear();
        self.remote_cycles.clear();
    }
}

impl Cluster {
    /// One controller decision round (runs every
    /// [`ControllerConfig::report_period`]).
    pub(crate) fn controller_tick(&mut self, now: SimTime) {
        let cfg = self.cfg.controller;
        self.engine
            .schedule_in(cfg.report_period, Event::ControllerTick);
        if !self.nezha_enabled {
            self.controller.reset();
            return;
        }
        // Scripted controller outage: reports are lost and no decision is
        // made until the controller recovers (the data plane keeps
        // forwarding on its last-pushed configuration — §4.4's argument
        // that the controller is off the critical path).
        if self.faults.controller_down() {
            self.controller.reset();
            return;
        }
        let n = self.switches.len();
        let mut to_scale_out: Vec<ServerId> = Vec::new();
        for i in 0..n {
            if !self.alive[i] {
                continue;
            }
            let server = ServerId(i as u32);
            let cpu = self.switches[i].cpu_utilization(now);
            let mem = self.switches[i].mem_utilization();
            let util = cpu.max(mem);
            let (local, remote) = self.controller.split(server);
            // Publish the per-server utilization report the decisions
            // below are based on. The gauge handles were pre-registered
            // at startup (D5): no string-keyed registry lookup here.
            if let Some(g) = self.tel.ctrl_gauges.get(i).copied() {
                let reg = &self.tel.registry;
                reg.set(g.cpu_util, cpu);
                reg.set(g.mem_util, mem);
                reg.set(g.local_cycles, local);
                reg.set(g.remote_cycles, remote);
            }

            if util > cfg.offload_threshold && cfg.auto_offload && local >= remote {
                self.offload_overloaded(server, cpu, mem, now);
            } else if util > cfg.scale_threshold && cfg.auto_scale {
                if remote > local {
                    to_scale_out.push(server);
                } else if remote > 0.0 {
                    self.scale_in_server(server, now);
                }
            }
        }
        // One scale-out per vNIC per tick: several hot FE hosts of the
        // same pool are one signal, not several.
        let mut scaled: Vec<VnicId> = Vec::new();
        for server in to_scale_out {
            if let Some(vnic) = self.hottest_fe_vnic(server) {
                if !scaled.contains(&vnic) {
                    self.scale_out(vnic, cfg.scale_out_step, now);
                    scaled.push(vnic);
                }
            }
        }
        if cfg.auto_fallback {
            self.consider_fallbacks(now);
        }
        self.controller.reset();
    }

    /// Offloads this vSwitch's local vNICs, heaviest first, until the
    /// projected utilization is below the safe level (§4.2.1).
    fn offload_overloaded(&mut self, server: ServerId, cpu: f64, mem: f64, now: SimTime) {
        let cfg = self.cfg.controller;
        let by_cpu = cpu >= mem;
        let vs = &self.switches[server.0 as usize];
        // Rank candidates by the triggering resource.
        let mut candidates: Vec<(VnicId, f64)> = vs
            .vnic_ids()
            .into_iter()
            .filter(|v| self.vnic_home.get(v) == Some(&server))
            .filter(|v| !self.be_meta.contains_key(v))
            .map(|v| {
                let weight = if by_cpu {
                    vs.vnic_cycle_shares().get(&v).copied().unwrap_or(0.0)
                } else {
                    vs.vnic_memory(v) as f64
                };
                (v, weight)
            })
            .collect();
        candidates.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0 .0.cmp(&b.0 .0)));

        let total: f64 = candidates.iter().map(|c| c.1).sum();
        let mut util = cpu.max(mem);
        for (vnic, weight) in candidates {
            if util <= cfg.safe_level {
                break;
            }
            if self.trigger_offload(vnic, now).is_ok() {
                // Project the relief proportionally to the vNIC's share.
                if total > 0.0 {
                    util -= (weight / total) * util;
                }
            }
        }
    }

    /// Starts offloading `vnic` to a fresh FE set (§4.2.1 workflow).
    ///
    /// Errors if the vNIC is unknown, already offloaded, or no candidate
    /// FEs exist.
    pub fn trigger_offload(&mut self, vnic: VnicId, now: SimTime) -> NezhaResult<()> {
        self.trigger_offload_to_version(vnic, now, None)
    }

    /// Offloads `vnic` to FEs running an exact vSwitch version — the §7.2
    /// capability: steer a vNIC onto upgraded vSwitches to get a new
    /// feature early, or onto older known-good ones to dodge a release
    /// bug, without touching the VM.
    pub fn trigger_offload_to_version(
        &mut self,
        vnic: VnicId,
        now: SimTime,
        version: Option<u32>,
    ) -> NezhaResult<()> {
        if self.be_meta.contains_key(&vnic) {
            return Err(NezhaError::AlreadyOffloaded(vnic));
        }
        let home = *self
            .vnic_home
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        let cfg = self.cfg.controller;
        let fes = self.select_idle_vswitches_versioned(home, cfg.initial_fes, &[], version);
        if fes.is_empty() {
            return Err(NezhaError::NoIdleVswitches);
        }
        // BE metadata costs the 2 KB of §6.2.1.
        let be_bytes = self.cfg.vswitch.memory.be_metadata;
        if self.switches[home.0 as usize].mem.alloc(be_bytes).is_err() {
            return Err(NezhaError::InsufficientMemory {
                what: "BE metadata",
            });
        }
        let mut meta = BackendMeta::new(now);
        self.tel.inc(self.tel.offload_events);

        // Push rule tables to each FE with a modeled per-FE delay.
        let mut worst = SimDuration::ZERO;
        for fe in fes {
            meta.add_fe(fe);
            let delay = self
                .rng
                .lognormal_duration(cfg.config_push_median, cfg.config_push_sigma);
            worst = worst.max(delay);
            self.engine
                .schedule_in(delay, Event::Config(ConfigOp::FeConfigured { vnic, fe }));
        }
        self.be_meta.insert(vnic, meta);

        // Gateway update follows the slowest FE config plus its own push;
        // at apply time it reflects whichever FEs actually configured.
        let gw_at = now + worst + cfg.gateway_update_delay;
        self.engine
            .schedule_at(gw_at, Event::Config(ConfigOp::GatewaySyncFes { vnic }));
        if self.cfg.skip_dual_running {
            // Ablation: tear the BE's tables down the moment the FEs are
            // up — before a single peer has learned the new mapping.
            self.engine
                .schedule_at(now + worst, Event::Config(ConfigOp::BeFinalStage { vnic }));
        }
        // Activation check once every sender has learned the new mapping.
        self.engine.schedule_at(
            gw_at + self.gateway.learning_interval(),
            Event::Config(ConfigOp::CheckActivation { vnic }),
        );
        Ok(())
    }

    /// Selects idle vSwitches to host FEs: same ToR first, widening to the
    /// pod and then the whole fabric; candidates must be alive, have
    /// headroom, and have *similar* utilization for a consistent flow
    /// experience (Appendix B.1 — we sort ascending and take a contiguous
    /// low-utilization block).
    pub(crate) fn select_idle_vswitches(
        &mut self,
        home: ServerId,
        want: usize,
        exclude: &[ServerId],
    ) -> Vec<ServerId> {
        self.select_idle_vswitches_versioned(home, want, exclude, None)
    }

    /// FE selection with an optional exact-version requirement (§7.2).
    pub(crate) fn select_idle_vswitches_versioned(
        &mut self,
        home: ServerId,
        want: usize,
        exclude: &[ServerId],
        version: Option<u32>,
    ) -> Vec<ServerId> {
        let now = self.engine.now();
        let scopes = [
            self.topo.rack_peers(home),
            self.topo.pod_peers(home),
            self.topo.all_peers(home),
        ];
        for scope in scopes {
            let mut cands: Vec<(ServerId, f64)> = scope
                .into_iter()
                .filter(|s| self.alive[s.0 as usize])
                .filter(|s| !exclude.contains(s))
                .filter(|s| version.is_none_or(|v| self.switches[s.0 as usize].version == v))
                .map(|s| (s, self.switches[s.0 as usize].cpu_utilization(now)))
                .filter(|(_, u)| *u < self.cfg.controller.scale_threshold)
                .collect();
            if cands.len() >= want {
                cands.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0 .0.cmp(&b.0 .0)));
                return cands.into_iter().take(want).map(|(s, _)| s).collect();
            }
        }
        Vec::new()
    }

    /// Adds `n` more FEs for an offloaded vNIC (scale-out, §4.3).
    ///
    /// A no-op while a previous scale-out's pushes are still in flight —
    /// the pool must see the effect of one widening before deciding on
    /// another.
    pub fn scale_out(&mut self, vnic: VnicId, n: usize, now: SimTime) -> usize {
        self.scale_out_excluding(vnic, n, &[], now)
    }

    /// Like [`Cluster::scale_out`] but never placing FEs on `avoid` —
    /// used by scale-in so the compensating widening does not land right
    /// back on the vSwitch that just shed its remote load.
    pub(crate) fn scale_out_excluding(
        &mut self,
        vnic: VnicId,
        n: usize,
        avoid: &[ServerId],
        _now: SimTime,
    ) -> usize {
        let Some(meta) = self.be_meta.get(&vnic) else {
            return 0;
        };
        if !meta.all_ready() {
            return 0;
        }
        let now = self.engine.now();
        if let Some(&last) = self.controller.last_scale_out.get(&vnic) {
            if now.since(last) < self.cfg.controller.scale_out_cooldown {
                return 0;
            }
        }
        let home = self.vnic_home[&vnic];
        let existing = meta.fe_list.clone();
        let existing_count = existing.len();
        let mut unavailable = existing.clone();
        unavailable.extend_from_slice(avoid);
        let cfg = self.cfg.controller;
        let new_fes = self.select_idle_vswitches(home, n, &unavailable);
        if new_fes.is_empty() {
            return 0;
        }
        self.tel.inc(self.tel.scale_out_events);
        self.controller.last_scale_out.insert(vnic, now);
        // Every added FE re-hashes a slice of the flow space onto a cold
        // cache — counted as churn for the recovery metrics.
        self.tel.add(self.tel.rehash_churn, new_fes.len() as u64);
        let Some(meta) = self.be_meta.get_mut(&vnic) else {
            return 0; // meta existence checked at fn entry
        };
        let mut added = 0;
        for fe in new_fes {
            meta.add_fe(fe);
            added += 1;
        }
        let fe_list = meta.fe_list.clone();
        for fe in fe_list.iter().skip(existing_count).copied() {
            let delay = self
                .rng
                .lognormal_duration(cfg.config_push_median, cfg.config_push_sigma);
            self.engine
                .schedule_in(delay, Event::Config(ConfigOp::FeConfigured { vnic, fe }));
        }
        // Gateway learns the wider set after the pushes.
        let _ = fe_list;
        self.engine.schedule_in(
            cfg.config_push_median.times(2) + cfg.gateway_update_delay,
            Event::Config(ConfigOp::GatewaySyncFes { vnic }),
        );
        added
    }

    /// The vNIC with the largest FE (remote) usage on `server` — the
    /// scale-out candidate when that host runs hot.
    fn hottest_fe_vnic(&self, server: ServerId) -> Option<VnicId> {
        let vs = &self.switches[server.0 as usize];
        let shares = vs.vnic_cycle_shares();
        self.fes
            .keys()
            .filter(|(s, _)| *s == server)
            .map(|(_, v)| (*v, shares.get(v).copied().unwrap_or(0.0)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(b.0 .0.cmp(&a.0 .0)))
            .map(|(v, _)| v)
    }

    /// Scale-in: remove every FE on `server` to prioritize its local vNIC
    /// traffic (§4.3). May trigger compensating scale-out elsewhere.
    pub fn scale_in_server(&mut self, server: ServerId, now: SimTime) {
        let mut victims: Vec<VnicId> = self
            .fes
            .keys()
            .filter(|(s, _)| *s == server)
            .map(|(_, v)| *v)
            .collect();
        victims.sort_unstable_by_key(|v| v.0);
        if victims.is_empty() {
            return;
        }
        self.tel.inc(self.tel.scale_in_events);
        for vnic in victims {
            self.remove_fe(vnic, server, now);
            // Keep the pool at the minimum (§4.4 logic shared with
            // failover): add a replacement if we dropped below — but not
            // on the server we just prioritized for local traffic.
            let cur = self.be_meta.get(&vnic).map_or(0, |m| m.fe_list.len());
            if cur < self.cfg.controller.min_fes {
                self.scale_out_excluding(vnic, self.cfg.controller.min_fes - cur, &[server], now);
            }
        }
    }

    /// Removes one FE of one vNIC: config, gateway, memory.
    pub(crate) fn remove_fe(&mut self, vnic: VnicId, fe_server: ServerId, now: SimTime) {
        let Some(meta) = self.be_meta.get_mut(&vnic) else {
            return;
        };
        if !meta.remove_fe(fe_server) {
            return;
        }
        // A removal re-hashes the departed FE's flow slice onto the
        // survivors (churn, mirrored by the add side in scale-out).
        self.tel.inc(self.tel.rehash_churn);
        let remaining: Vec<ServerId> = meta.ready_fes().to_vec();
        if let Some(fe) = self.fes.remove(&(fe_server, vnic)) {
            let m = self.cfg.vswitch.memory;
            fe.release(&mut self.switches[fe_server.0 as usize].mem, &m);
        }
        // Elephant pins steering to this FE would blackhole their flows.
        self.gateway.unpin_server(self.vnic_addr[&vnic], fe_server);
        // Point the gateway at the survivors (or back at the BE if none).
        let addr = self.vnic_addr[&vnic];
        let servers = if remaining.is_empty() {
            vec![self.vnic_home[&vnic]]
        } else {
            remaining
        };
        self.engine.schedule_in(
            self.cfg.controller.gateway_update_delay,
            Event::Config(ConfigOp::GatewayUpdate { addr, servers }),
        );
        let _ = now;
    }

    /// Starts a fallback to local processing (§4.2.2).
    pub fn trigger_fallback(&mut self, vnic: VnicId, now: SimTime) -> NezhaResult<()> {
        let meta = self
            .be_meta
            .get_mut(&vnic)
            .ok_or(NezhaError::NotOffloaded(vnic))?;
        if meta.phase != OffloadPhase::Offloaded {
            return Err(NezhaError::OffloadInProgress(vnic));
        }
        let home = self.vnic_home[&vnic];
        // Re-arm the BE with the master tables first (dual-running again).
        let master = self
            .master_vnics
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?
            .clone();
        self.switches[home.0 as usize]
            .add_vnic(master)
            .map_err(|_| NezhaError::InsufficientMemory { what: "BE tables" })?;
        let Some(meta) = self.be_meta.get_mut(&vnic) else {
            return Err(NezhaError::NotOffloaded(vnic));
        };
        meta.phase = OffloadPhase::FallbackDual;
        self.tel.inc(self.tel.fallback_events);
        // Gateway points back at the BE; once learned, tear the FEs down.
        let addr = self.vnic_addr[&vnic];
        let cfg = self.cfg.controller;
        let gw_at = now + cfg.gateway_update_delay;
        self.engine.schedule_at(
            gw_at,
            Event::Config(ConfigOp::GatewayUpdate {
                addr,
                servers: vec![home],
            }),
        );
        self.engine.schedule_at(
            gw_at + self.gateway.learning_interval() + SimDuration::from_millis(50),
            Event::Config(ConfigOp::FallbackFinal { vnic }),
        );
        Ok(())
    }

    /// Periodic fallback consideration: offloaded vNICs whose remote usage
    /// is low fall back when the BE can absorb the load (§4.2.2).
    fn consider_fallbacks(&mut self, now: SimTime) {
        let cfg = self.cfg.controller;
        let candidates: Vec<VnicId> = self
            .be_meta
            .iter()
            .filter(|(_, m)| m.phase == OffloadPhase::Offloaded)
            .map(|(v, _)| *v)
            .collect();
        // Remote usage is judged from this tick's cycle counters (reset
        // every tick), normalized to utilization over the report period —
        // a lifetime counter would saturate the threshold permanently.
        let window_cycles = self.cfg.vswitch.capacity_hz() * cfg.report_period.as_secs_f64();
        for vnic in candidates {
            let home = self.vnic_home[&vnic];
            let fe_usage: f64 = self
                .fe_servers(vnic)
                .iter()
                .map(|s| self.controller.split(*s).1)
                .sum::<f64>()
                / window_cycles;
            let be_util = self.switches[home.0 as usize].cpu_utilization(now);
            if fe_usage < cfg.fallback_low_water && be_util + fe_usage < cfg.safe_level {
                let _ = self.trigger_fallback(vnic, now);
            }
        }
    }

    /// Applies a delayed configuration operation.
    pub(crate) fn apply_config(&mut self, op: ConfigOp, now: SimTime) {
        match op {
            ConfigOp::FeConfigured { vnic, fe } => {
                if !self.alive[fe.0 as usize] {
                    return;
                }
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if !meta.fe_list.contains(&fe) {
                    return; // removed while the push was in flight
                }
                let Some(master) = self.master_vnics.get(&vnic) else {
                    return;
                };
                let m = self.cfg.vswitch.memory;
                let bytes = master.table_memory(&m);
                if self.switches[fe.0 as usize].mem.alloc(bytes).is_err() {
                    // The candidate filled up while configuring; drop it.
                    if let Some(meta) = self.be_meta.get_mut(&vnic) {
                        meta.remove_fe(fe);
                    }
                    return;
                }
                let home = self.vnic_home[&vnic];
                let mut frontend = FrontEnd::new(master.clone(), home);
                frontend.charged_table_bytes = bytes;
                self.fes.insert((fe, vnic), frontend);
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return; // meta presence checked above
                };
                meta.mark_ready(fe);
                // A straggling push can land after the scheduled gateway
                // sync; re-sync once the set completes so every ready FE
                // receives RX traffic.
                if meta.all_ready() {
                    self.engine.schedule_in(
                        self.cfg.controller.gateway_update_delay,
                        Event::Config(ConfigOp::GatewaySyncFes { vnic }),
                    );
                }
            }
            ConfigOp::GatewayUpdate { addr, servers } => {
                let live: Vec<ServerId> = servers
                    .into_iter()
                    .filter(|s| self.alive[s.0 as usize])
                    .collect();
                if !live.is_empty() {
                    self.gateway.update(addr, live, now);
                }
            }
            ConfigOp::GatewaySyncFes { vnic } => {
                let Some(meta) = self.be_meta.get(&vnic) else {
                    return;
                };
                let mut servers: Vec<ServerId> = meta
                    .ready_fes()
                    .iter()
                    .copied()
                    .filter(|s| self.alive[s.0 as usize])
                    .collect();
                if servers.is_empty() {
                    servers = vec![self.vnic_home[&vnic]];
                }
                let addr = self.vnic_addr[&vnic];
                self.gateway.update(addr, servers, now);
            }
            ConfigOp::CheckActivation { vnic } => {
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if meta.phase == OffloadPhase::OffloadDual && meta.activated_at.is_none() {
                    meta.activated_at = Some(now);
                    let completion = now.since(meta.triggered_at);
                    self.tel
                        .observe_duration(self.tel.offload_completion, completion);
                    // Enter the final stage after learning-interval + RTT.
                    self.engine.schedule_in(
                        self.gateway.learning_interval() + SimDuration::from_millis(2),
                        Event::Config(ConfigOp::BeFinalStage { vnic }),
                    );
                }
            }
            ConfigOp::BeFinalStage { vnic } => {
                let Some(meta) = self.be_meta.get_mut(&vnic) else {
                    return;
                };
                if meta.phase != OffloadPhase::OffloadDual {
                    return;
                }
                meta.phase = OffloadPhase::Offloaded;
                let home = self.vnic_home[&vnic];
                let vs = &mut self.switches[home.0 as usize];
                // "Delete the rule tables and cached flows on the BE"
                // (§4.2.1): frees the memory that becomes #flows headroom.
                vs.remove_vnic(vnic);
                let m = self.cfg.vswitch.memory;
                vs.sessions.drop_cached_flows(&mut vs.mem, &m);
            }
            ConfigOp::FallbackFinal { vnic } => {
                let Some(meta) = self.be_meta.get(&vnic) else {
                    return;
                };
                if meta.phase != OffloadPhase::FallbackDual {
                    return;
                }
                for fe_server in self.fe_servers(vnic) {
                    if let Some(fe) = self.fes.remove(&(fe_server, vnic)) {
                        let m = self.cfg.vswitch.memory;
                        fe.release(&mut self.switches[fe_server.0 as usize].mem, &m);
                    }
                }
                let home = self.vnic_home[&vnic];
                self.switches[home.0 as usize]
                    .mem
                    .free(self.cfg.vswitch.memory.be_metadata);
                self.gateway.unpin_addr(self.vnic_addr[&vnic]);
                self.be_meta.remove(&vnic);
            }
            ConfigOp::BeLocationUpdate { vnic, new_home } => {
                // §7.2: live migration — repoint every FE's BE location.
                for ((_, v), fe) in self.fes.iter_mut() {
                    if *v == vnic {
                        fe.be_location = new_home;
                    }
                }
                self.vnic_home.insert(vnic, new_home);
            }
        }
    }
}
