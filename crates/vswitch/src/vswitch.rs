//! The assembled vSwitch: vNICs + session table + CPU/memory enforcement.
//!
//! Since the pipeline-as-combinators refactor this file is a *facade*:
//! [`VSwitch::process_local`] implements the traditional architecture of
//! the paper's Fig. 1 by driving the compiled process
//! [`StageGraph`](crate::stage::StageGraph) (built once at construction)
//! over a [`LocalRun`] environment — the fast/slow split, rule lookup and
//! session establishment live in [`crate::stage`], all charged against
//! the CPU server and the table memory pool owned here. `nezha-core`
//! builds the BE and FE roles from the finer-grained primitives also
//! exposed here ([`VSwitch::charge`], [`VSwitch::vnic`], the session
//! table).

use crate::config::VSwitchConfig;
use crate::pipeline::{PathTaken, ProcessOutcome, ProcessResult};
use crate::session::SessionTable;
use crate::stage::local::LocalRun;
use crate::stage::{costing, PktCtx, SwitchGraphs};
use crate::telemetry::SwitchTelemetry;
use crate::vnic::Vnic;
use nezha_sim::dense::DenseMap;
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::profile::{Profiler, Span, StageSet};
use nezha_sim::resources::{CpuOutcome, CpuServer, MemoryPool, OutOfMemory};
use nezha_sim::time::SimTime;
use nezha_sim::trace::{DropReason, TraceEvent, TraceEventKind};
use nezha_types::{Packet, VnicId};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use crate::telemetry::VSwitchCounters;

/// A SmartNIC vSwitch instance.
#[derive(Debug)]
pub struct VSwitch {
    /// The hosting server's id.
    pub id: nezha_types::ServerId,
    /// Software version of this vSwitch. Nezha turns version skew into a
    /// feature (§7.2): vNICs needing a new capability offload to upgraded
    /// FEs; vNICs bitten by a release bug offload to older, known-good
    /// ones.
    pub version: u32,
    pub(crate) cfg: VSwitchConfig,
    cpu: CpuServer,
    /// Table memory pool (rule tables + session table share it, §2.2.2).
    pub mem: MemoryPool,
    /// Dense-hashed: probed (twice) per processed packet. Iteration is
    /// only via [`VSwitch::vnic_ids`], which sorts.
    pub(crate) vnics: DenseMap<VnicId, Vnic>,
    /// The session table (public: the Nezha BE role manipulates it).
    pub sessions: SessionTable,
    pub(crate) tel: SwitchTelemetry,
    /// The compiled stage graphs this switch drives (process pipeline +
    /// lookup subgraph), built once at construction.
    graphs: Arc<SwitchGraphs>,
    /// Cycles charged per vNIC (for the controller's offload-candidate
    /// ranking, §4.2.1), measured over the CPU's utilization window.
    vnic_cycles: BTreeMap<VnicId, f64>,
    /// Exact bytes charged to the pool per vNIC's tables. Table contents
    /// can change after installation (learned vNIC-server entries, rule
    /// pushes); frees must match what was actually charged.
    vnic_charged: DenseMap<VnicId, u64>,
    /// Gray-failure knob: every cycle charge is scaled by this factor
    /// (1.0 when healthy). A degraded SmartNIC burns more cycles for the
    /// same work — the "slow but not dead" member of Appendix C.
    cycle_multiplier: f64,
}

impl VSwitch {
    /// Builds a vSwitch on server `id` with the given configuration,
    /// compiling the standard stage graphs.
    pub fn new(id: nezha_types::ServerId, cfg: VSwitchConfig) -> Self {
        VSwitch {
            id,
            version: 1,
            cpu: CpuServer::new(cfg.cores, cfg.core_hz, cfg.max_backlog),
            mem: MemoryPool::new(cfg.table_memory),
            vnics: DenseMap::new(),
            sessions: SessionTable::new(),
            tel: SwitchTelemetry::register(&MetricsRegistry::new(), id, Profiler::new()),
            graphs: Arc::new(SwitchGraphs::standard()),
            vnic_cycles: BTreeMap::new(),
            vnic_charged: DenseMap::new(),
            cycle_multiplier: 1.0,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VSwitchConfig {
        &self.cfg
    }

    /// The compiled stage graphs this switch drives.
    pub fn graphs(&self) -> &Arc<SwitchGraphs> {
        &self.graphs
    }

    /// Re-homes this switch's `vswitch.*{server=N}` counters into a shared
    /// [`MetricsRegistry`] (carrying over any counts already accumulated in
    /// the private default registry). The cluster calls this so one
    /// snapshot covers every switch.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        let old = self.tel.view();
        self.tel = SwitchTelemetry::register(registry, self.id, self.tel.profiler.clone());
        let carry = [
            (self.tel.forwarded, old.forwarded),
            (self.tel.acl_drops, old.acl_drops),
            (self.tel.unroutable, old.unroutable),
            (self.tel.rate_limited, old.rate_limited),
            (self.tel.cpu_drops, old.cpu_drops),
            (self.tel.session_overflows, old.session_overflows),
            (self.tel.mirrored, old.mirrored),
        ];
        for (h, n) in carry {
            registry.add(h, n);
        }
    }

    /// Attaches the shared per-packet recorder. While its spans are on,
    /// every CPU charge in [`VSwitch::process_local`] records a causal
    /// span tree decomposed per pipeline stage; while its events are on,
    /// packets record structured events (enqueue, CPU charge, table
    /// hit/miss, drops).
    pub fn attach_profiler(&mut self, profiler: &Profiler) {
        self.tel.profiler = profiler.clone();
        self.tel.stages = StageSet::register(profiler);
    }

    /// Lifetime counters, assembled from the metrics registry.
    pub fn counters(&self) -> VSwitchCounters {
        self.tel.view()
    }

    /// Installs a vNIC, charging its rule-table memory. Fails when the
    /// SmartNIC cannot fit the tables — the #vNICs bottleneck of §2.2.2.
    pub fn add_vnic(&mut self, vnic: Vnic) -> Result<(), OutOfMemory> {
        let bytes = vnic.table_memory(&self.cfg.memory);
        self.mem.alloc(bytes)?;
        self.vnic_charged.insert(vnic.id, bytes);
        self.vnics.insert(vnic.id, vnic);
        Ok(())
    }

    /// Removes a vNIC, releasing exactly the bytes charged for its tables.
    /// Returns the vNIC.
    pub fn remove_vnic(&mut self, id: VnicId) -> Option<Vnic> {
        let vnic = self.vnics.remove(&id)?;
        self.mem.free(self.vnic_charged.remove(&id).unwrap_or(0));
        Some(vnic)
    }

    /// Re-reconciles a vNIC's memory charge after its tables changed
    /// (config pushes, learned mappings). Fails when growth does not fit.
    pub fn sync_vnic_memory(&mut self, id: VnicId) -> Result<(), OutOfMemory> {
        let Some(vnic) = self.vnics.get(&id) else {
            return Ok(());
        };
        let new = vnic.table_memory(&self.cfg.memory);
        let old = self.vnic_charged.get(&id).copied().unwrap_or(0);
        if new > old {
            self.mem.alloc(new - old)?;
        } else {
            self.mem.free(old - new);
        }
        self.vnic_charged.insert(id, new);
        Ok(())
    }

    /// Looks up a hosted vNIC.
    pub fn vnic(&self, id: VnicId) -> Option<&Vnic> {
        self.vnics.get(&id)
    }

    /// Mutable vNIC access (controller rule pushes).
    pub fn vnic_mut(&mut self, id: VnicId) -> Option<&mut Vnic> {
        self.vnics.get_mut(&id)
    }

    /// Ids of all hosted vNICs, in stable (id) order — iteration order
    /// must never leak BTreeMap randomness into control decisions.
    pub fn vnic_ids(&self) -> Vec<VnicId> {
        let mut ids: Vec<VnicId> = self.vnics.keys().copied().collect();
        ids.sort_unstable_by_key(|v| v.0);
        ids
    }

    /// Number of hosted vNICs.
    pub fn vnic_count(&self) -> usize {
        self.vnics.len()
    }

    /// Sets the gray-failure cycle multiplier (fault injection; 1.0
    /// restores healthy behavior). Values > 1 inflate every subsequent
    /// cycle charge, shrinking this switch's effective capacity.
    pub fn set_cycle_multiplier(&mut self, multiplier: f64) {
        self.cycle_multiplier = multiplier.max(0.0);
    }

    /// The current gray-failure cycle multiplier.
    pub fn cycle_multiplier(&self) -> f64 {
        self.cycle_multiplier
    }

    /// The post-multiplier cycle cost of a nominal charge: exactly what
    /// [`VSwitch::charge`] bills the CPU and attributes to the vNIC.
    /// Profiling sites record this value so span totals reconcile with
    /// [`VSwitch::vnic_cycle_shares`] even under gray-failure scaling.
    pub fn scaled_cycles(&self, cycles: u64) -> u64 {
        if self.cycle_multiplier == 1.0 {
            cycles
        } else {
            ((cycles as f64) * self.cycle_multiplier).round() as u64
        }
    }

    /// Charges `cycles` of work at `now`, attributed to `vnic`.
    pub fn charge(&mut self, now: SimTime, vnic: VnicId, cycles: u64) -> CpuOutcome {
        let cycles = self.scaled_cycles(cycles);
        let out = self.cpu.offer(now, cycles);
        if !out.is_dropped() {
            *self.vnic_cycles.entry(vnic).or_insert(0.0) += cycles as f64;
        }
        out
    }

    /// CPU utilization over the trailing window, `[0, 1]`.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Replaces the CPU utilization measurement window (default 1 s).
    pub fn set_util_window(&mut self, len: nezha_sim::time::SimDuration) {
        self.cpu.set_window(len);
    }

    /// Memory utilization, `[0, 1]`.
    pub fn mem_utilization(&self) -> f64 {
        self.mem.utilization()
    }

    /// Cumulative cycles attributed to each vNIC (the controller ranks
    /// offload candidates by this, descending — §4.2.1).
    pub fn vnic_cycle_shares(&self) -> &BTreeMap<VnicId, f64> {
        &self.vnic_cycles
    }

    /// Memory bytes attributable to one vNIC: its rule tables plus its
    /// share of the session table.
    pub fn vnic_memory(&self, id: VnicId) -> u64 {
        let tables = self
            .vnics
            .get(&id)
            .map_or(0, |v| v.table_memory(&self.cfg.memory));
        let m = &self.cfg.memory;
        let sessions: u64 = self
            .sessions
            .iter()
            .filter(|(_, e)| e.vnic == id)
            .map(|(_, e)| {
                m.state_slab
                    + if e.pre_actions.is_some() {
                        m.flow_entry
                    } else {
                        0
                    }
            })
            .sum();
        tables + sessions
    }

    /// Sweeps expired sessions (call periodically, e.g. every second).
    pub fn expire_sessions(&mut self, now: SimTime) -> usize {
        self.sessions.expire(now, &self.cfg, &mut self.mem)
    }

    /// Records one structured trace event for `pkt` on this switch.
    pub(crate) fn trace(&self, at: SimTime, pkt: &Packet, kind: TraceEventKind) {
        self.tel
            .profiler
            .event(TraceEvent::of(at, self.id, pkt, kind));
    }

    /// Processes one packet in the **traditional local architecture**:
    /// this vSwitch holds the vNIC's rules, flows, and state.
    ///
    /// The facade only traces the arrival and screens unknown vNICs
    /// (they indicate a stale vNIC-server mapping upstream); everything
    /// else — flow-cache probe, CPU charge, rule lookup, session
    /// establishment, admission — is the compiled process graph driving
    /// a [`LocalRun`] environment.
    pub fn process_local(&mut self, pkt: &Packet, now: SimTime) -> ProcessResult {
        self.trace(now, pkt, TraceEventKind::Enqueue);
        if !self.vnics.contains_key(&pkt.vnic) {
            return self.finish_traced(
                ProcessOutcome::Unroutable,
                Some(PathTaken::Slow),
                now,
                false,
                false,
                pkt,
            );
        }
        let graphs = Arc::clone(&self.graphs);
        let mut ctx = PktCtx::lookup(pkt.tuple, pkt.dir);
        let mut run = LocalRun::new(self, &graphs, pkt, now);
        graphs.process.eval(&mut ctx, &mut run);
        let r = run.finish();
        // A CPU drop happens before the packet takes any path (satellite
        // of the refactor: `path` is None instead of a meaningless value).
        let path = match r.outcome {
            ProcessOutcome::CpuOverload => None,
            _ => Some(r.path),
        };
        self.finish_traced(r.outcome, path, r.done, r.created, r.overflow, pkt)
    }

    /// Records the span tree for one successful local-pipeline charge:
    /// a `local` root (linked to any span the packet already carries)
    /// with per-stage leaves whose cycles sum to exactly what the CPU
    /// model charged. Leaves follow the process graph's cost plan for
    /// the path taken. No-op while the profiler is disabled.
    pub(crate) fn profile_local(
        &self,
        pkt: &Packet,
        start: SimTime,
        end: SimTime,
        nominal_cycles: u64,
        bytes: usize,
        path: PathTaken,
    ) {
        let prof = &self.tel.profiler;
        if !prof.is_enabled() {
            return;
        }
        let Some(vnic) = self.vnics.get(&pkt.vnic) else {
            return;
        };
        let st = &self.tel.stages;
        let total = self.scaled_cycles(nominal_cycles);
        let c = self
            .graphs
            .stage_costs(&self.cfg.costs, vnic, bytes, total, path);
        let mut leaves = Vec::new();
        costing::plan_leaves(self.graphs.process.plan(path), st, &c, &mut leaves);
        prof.record_tree(Span::root(st.local, pkt, self.id, start, end), &leaves);
    }

    fn finish_traced(
        &mut self,
        outcome: ProcessOutcome,
        path: Option<PathTaken>,
        done_at: SimTime,
        created_session: bool,
        session_overflow: bool,
        pkt: &Packet,
    ) -> ProcessResult {
        let reg = &self.tel.registry;
        let drop_reason = match outcome {
            ProcessOutcome::Forwarded(a) => {
                reg.inc(self.tel.forwarded);
                if a.mirror_to.is_some() {
                    reg.inc(self.tel.mirrored);
                }
                None
            }
            ProcessOutcome::AclDrop => {
                reg.inc(self.tel.acl_drops);
                Some(DropReason::PolicyDeny)
            }
            ProcessOutcome::Unroutable => {
                reg.inc(self.tel.unroutable);
                Some(DropReason::NoRoute)
            }
            ProcessOutcome::RateLimited => {
                reg.inc(self.tel.rate_limited);
                Some(DropReason::RateLimited)
            }
            ProcessOutcome::CpuOverload => {
                reg.inc(self.tel.cpu_drops);
                Some(DropReason::Backlog)
            }
        };
        if session_overflow {
            reg.inc(self.tel.session_overflows);
        }
        if let Some(reason) = drop_reason {
            self.trace(done_at, pkt, TraceEventKind::Drop(reason));
        }
        ProcessResult {
            outcome,
            path,
            done_at,
            created_session,
            session_overflow,
        }
    }
}

#[cfg(test)]
#[path = "vswitch_tests.rs"]
mod tests;
