//! The packet-level testbed: cluster construction, public accessors, and
//! scripted fault application, all on the deterministic event engine.
//!
//! The cluster's moving parts live in sibling modules:
//!
//! * [`crate::config`] — [`ClusterConfig`] + builder and the delayed
//!   [`ConfigOp`] pushes;
//! * [`crate::telemetry`] — the shared registry/recorder bundle and the
//!   aggregated [`ClusterStats`] view;
//! * `crate::datapath` — the per-packet handlers (BE/FE roles, NSH demux,
//!   the `HandlerCtx` plumbing every handler works through);
//! * `crate::driver` — connection scripts, retries and probes.
//!
//! The controller (`controller.rs`) and health monitor (`monitor.rs`)
//! extend this struct with the management plane.

use crate::be::BackendMeta;
use crate::conn::{ConnKind, ConnSpec, ConnState, ConnStatus};
use crate::controller::ControllerState;
use crate::fe::FrontEnd;
use crate::gateway::Gateway;
use crate::monitor::MonitorState;
use crate::telemetry::ClusterTelemetry;
use crate::vm::{VmConfig, VmModel};
use nezha_sim::dense::DenseMap;
use nezha_sim::engine::Engine;
use nezha_sim::fault::{FaultKind, FaultPlan, FaultState};
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::profile::Profiler;
use nezha_sim::rng::SimRng;
use nezha_sim::time::SimTime;
use nezha_sim::topology::Topology;
use nezha_types::{Ipv4Addr, NezhaError, NezhaResult, Packet, ServerId, SessionKey, VnicId};
use nezha_vswitch::vnic::Vnic;
use nezha_vswitch::vswitch::VSwitch;

pub use crate::config::{ClusterConfig, ClusterConfigBuilder, ConfigOp, LbMode};
pub use crate::datapath::dispatch::Event;
pub use crate::driver::retry_backoff;
pub use crate::telemetry::ClusterStats;

use crate::driver::{PROBE_BIT, SILENT_BIT};

/// The packet-level testbed.
#[derive(Debug)]
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    /// The fabric.
    pub topo: Topology,
    /// Event engine.
    pub engine: Engine<Event>,
    pub(crate) switches: Vec<VSwitch>,
    pub(crate) alive: Vec<bool>,
    /// The gateway's versioned vNIC-server table.
    pub gateway: Gateway,
    /// FE instances keyed by `(host, vnic)`. Dense-hashed: the per-packet
    /// FE-binding claim is an O(1) probe. Every iteration site either
    /// aggregates or sorts explicitly (monitor targets, failover victims),
    /// so map order is never behavior-visible.
    pub(crate) fes: DenseMap<(ServerId, VnicId), FrontEnd>,
    /// Per-vNIC lookup tables, all dense-hashed: each is probed on the
    /// per-packet path (home resolution, VM delivery, BE metadata) and
    /// none is iterated order-visibly — the one iteration site (the
    /// monitor's mutual-ping pairs over `be_meta`) sorts explicitly.
    pub(crate) be_meta: DenseMap<VnicId, BackendMeta>,
    pub(crate) vnic_home: DenseMap<VnicId, ServerId>,
    pub(crate) vnic_addr: DenseMap<VnicId, Ipv4Addr>,
    /// Controller-side master copy of each vNIC's tables (tenant intent),
    /// used to (re)configure FEs and to re-arm the BE on fallback.
    pub(crate) master_vnics: DenseMap<VnicId, Vnic>,
    pub(crate) vms: DenseMap<VnicId, VmModel>,
    /// Connection states, indexed by `id - 1`: ids are handed out
    /// sequentially from 1 and never reclaimed, so the dense Vec replaces
    /// the former ordered map — the per-packet conn lookups on the
    /// datapath become direct indexing.
    pub(crate) conns: Vec<ConnState>,
    /// In-flight packets parked between schedule and arrival, addressed
    /// by the `u32` id inside [`Event::Arrive`] / [`Event::StartProbe`].
    /// Slot reuse is LIFO and ids are a pure function of the schedule
    /// call sequence, so replay stays seed-deterministic.
    pub(crate) pkt_slab: nezha_sim::dense::Slab<Packet>,
    next_probe_id: u64,
    /// Telemetry: shared registry + recorder + pre-registered handles.
    pub(crate) tel: ClusterTelemetry,
    /// Controller bookkeeping.
    pub(crate) controller: ControllerState,
    /// Monitor bookkeeping.
    pub(crate) monitor: MonitorState,
    pub(crate) rng: SimRng,
    /// Blackholed directed server pairs (fabric faults between otherwise
    /// healthy servers — the Appendix C.1 scenario the centralized
    /// monitor cannot see).
    blackholes: std::collections::BTreeSet<(ServerId, ServerId)>,
    /// Live scripted fault conditions (chaos injection). Sampled from its
    /// own forked RNG stream so fault outcomes replay seed-for-seed.
    pub(crate) faults: FaultState,
    /// Global switch: when false the cluster behaves as the pre-Nezha
    /// baseline (no offloading ever triggers).
    pub nezha_enabled: bool,
    /// The compiled stage graphs the datapath handlers drive (shared with
    /// every role: FE lookups evaluate `graphs.lookup`, cost/profiler
    /// decomposition follows `graphs.process` — the same topology each
    /// switch compiled for itself, per the paper's §3.1 equivalence).
    pub(crate) graphs: std::sync::Arc<nezha_vswitch::SwitchGraphs>,
}

impl Cluster {
    /// Builds a cluster and schedules the periodic management ticks.
    pub fn new(cfg: ClusterConfig) -> Self {
        let topo = Topology::new(cfg.topology);
        let n = topo.total_servers() as usize;
        let tel = ClusterTelemetry::register(MetricsRegistry::new(), n);
        let switches: Vec<VSwitch> = (0..n)
            .map(|i| {
                let mut vs = VSwitch::new(ServerId(i as u32), cfg.vswitch);
                vs.attach_metrics(&tel.registry);
                vs.attach_profiler(&tel.profiler);
                vs
            })
            .collect();
        let mut engine = Engine::new();
        engine.attach_metrics(&tel.registry);
        engine.schedule_in(cfg.controller.report_period, Event::ControllerTick);
        engine.schedule_in(cfg.controller.ping_period, Event::MonitorTick);
        engine.schedule_in(cfg.aging_period, Event::AgingTick);
        Cluster {
            topo,
            engine,
            switches,
            alive: vec![true; n],
            gateway: Gateway::new(cfg.learning_interval),
            fes: DenseMap::new(),
            be_meta: DenseMap::new(),
            vnic_home: DenseMap::new(),
            vnic_addr: DenseMap::new(),
            master_vnics: DenseMap::new(),
            vms: DenseMap::new(),
            conns: Vec::new(),
            pkt_slab: nezha_sim::dense::Slab::new(),
            next_probe_id: 1,
            tel,
            controller: ControllerState::new(),
            monitor: MonitorState::new(),
            // nezha-lint: allow(D9): seed derivation pinned by golden fixtures (refactor_equivalence, BENCH_pr6); migrate to derive_seed when re-baselining
            rng: SimRng::new(cfg.seed),
            blackholes: std::collections::BTreeSet::new(),
            // An independent stream derived from the seed (not forked from
            // `rng`, so enabling faults never perturbs baseline draws).
            // nezha-lint: allow(D9): seed derivation pinned by golden fixtures (refactor_equivalence, BENCH_pr6); migrate to derive_seed when re-baselining
            faults: FaultState::new(SimRng::new(
                cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xFA17,
            )),
            nezha_enabled: true,
            graphs: std::sync::Arc::new(nezha_vswitch::SwitchGraphs::standard()),
            cfg,
        }
    }

    /// Blackholes the fabric path between two servers in both directions
    /// (a link/switch fault the servers themselves survive). The BE↔FE
    /// mutual ping (Appendix C.1) is the only detector for this.
    pub fn blackhole_link(&mut self, a: ServerId, b: ServerId) {
        self.blackholes.insert((a, b));
        self.blackholes.insert((b, a));
    }

    /// Restores a blackholed path.
    pub fn heal_link(&mut self, a: ServerId, b: ServerId) {
        self.blackholes.remove(&(a, b));
        self.blackholes.remove(&(b, a));
    }

    /// True when the directed path `from -> to` is blackholed.
    pub fn link_blackholed(&self, from: ServerId, to: ServerId) -> bool {
        self.blackholes.contains(&(from, to))
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Parks `pkt` in the packet slab and schedules its arrival at
    /// `server` — the heap entry carries the slab id, not the packet.
    pub(crate) fn schedule_arrive(
        &mut self,
        at: SimTime,
        server: ServerId,
        pkt: Packet,
        sent_at: SimTime,
    ) {
        let pkt = self.pkt_slab.insert(pkt);
        self.engine.schedule_at(
            at,
            Event::Arrive {
                server,
                pkt,
                sent_at,
            },
        );
    }

    /// The cluster's shared [`MetricsRegistry`] — engine, every vSwitch,
    /// and the management plane all report here. Take `.snapshot()` to
    /// read every metric deterministically.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.tel.registry
    }

    /// Turns on structured per-packet tracing in the shared recorder,
    /// keeping at most `capacity` most-recent records (read them with
    /// `profiler().events()`). Pass 0 to disable again.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tel.profiler.enable_events(capacity);
    }

    /// The shared per-packet recorder: cycle-attribution spans (off until
    /// [`Cluster::enable_profile`]) and trace events (off until
    /// [`Cluster::enable_trace`]).
    pub fn profiler(&self) -> &Profiler {
        &self.tel.profiler
    }

    /// Turns on cycle-attribution profiling: every subsequent CPU charge
    /// records a causal span tree, keeping at most `span_capacity` full
    /// span records (aggregate stage/flamegraph totals are unbounded).
    /// With tracing on too, the shared ring holds the larger capacity.
    pub fn enable_profile(&mut self, span_capacity: usize) {
        self.tel.profiler.enable(span_capacity);
    }

    /// Turns on the live observability plane: windowed rollups of every
    /// registry metric (counter deltas, changed gauges, per-window
    /// histogram summaries) every `width` of simulated time, a bounded
    /// ring of `retain` full window records, and an SLO watchdog over
    /// `rules` evaluated at each window close. Also registers the
    /// per-FE-server `fe.rx_pkts` counters the fairness rule consumes.
    ///
    /// Call before the run starts (registration is string-keyed and must
    /// not happen mid-simulation — lint rule D5). Runs that never enable
    /// windows carry zero overhead and identical snapshots.
    pub fn enable_windows(
        &mut self,
        width: nezha_sim::time::SimDuration,
        retain: usize,
        rules: Vec<nezha_sim::obs::SloRule>,
    ) {
        let n = self.switches.len();
        self.tel.register_windows(n, width, retain, rules);
    }

    /// The windowed rollup (window records, JSONL stream, SLO events);
    /// `None` until [`Cluster::enable_windows`].
    pub fn windows(&self) -> Option<&nezha_sim::obs::WindowedRollup> {
        self.tel.windows.as_ref().map(|w| w.rollup())
    }

    /// Closes every open window whose end is `<= t` against the current
    /// registry contents. `run_until` does this automatically as sim
    /// time advances; experiments stepping the run window-by-window call
    /// it explicitly at segment ends.
    pub fn close_windows_to(&mut self, t: SimTime) {
        let crate::telemetry::ClusterTelemetry {
            windows, registry, ..
        } = &mut self.tel;
        if let Some(w) = windows.as_mut() {
            w.advance_to(t, registry);
        }
    }

    /// Total cycles the CPU model has charged across every switch and
    /// vNIC since construction — the ground truth the profiler's
    /// per-stage totals must reconcile with.
    pub fn total_charged_cycles(&self) -> f64 {
        self.switches
            .iter()
            .map(|vs| vs.vnic_cycle_shares().values().sum::<f64>())
            .sum()
    }

    /// The legacy aggregated view, assembled from the metrics registry.
    pub fn stats(&self) -> ClusterStats {
        self.tel.stats()
    }

    /// Immutable access to a server's vSwitch.
    ///
    /// Errors with [`NezhaError::UnknownServer`] when `s` is outside the
    /// topology.
    pub fn switch(&self, s: ServerId) -> NezhaResult<&VSwitch> {
        self.switches
            .get(s.0 as usize)
            .ok_or(NezhaError::UnknownServer(s))
    }

    /// Mutable access to a server's vSwitch (tests / rule pushes).
    pub fn switch_mut(&mut self, s: ServerId) -> NezhaResult<&mut VSwitch> {
        self.switches
            .get_mut(s.0 as usize)
            .ok_or(NezhaError::UnknownServer(s))
    }

    /// Whether a server is alive.
    pub fn is_alive(&self, s: ServerId) -> bool {
        self.alive[s.0 as usize]
    }

    /// The BE metadata of an offloaded vNIC, if any.
    pub fn backend(&self, vnic: VnicId) -> Option<&BackendMeta> {
        self.be_meta.get(&vnic)
    }

    /// The VM attached to a vNIC.
    pub fn vm(&self, vnic: VnicId) -> Option<&VmModel> {
        self.vms.get(&vnic)
    }

    /// Number of FEs currently hosted for `vnic`.
    pub fn fe_count(&self, vnic: VnicId) -> usize {
        self.fes.keys().filter(|(_, v)| *v == vnic).count()
    }

    /// An FE's `(hits, misses, cache_skips)` counters.
    pub fn fe_counters(&self, fe: ServerId, vnic: VnicId) -> Option<(u64, u64, u64)> {
        self.fes.get(&(fe, vnic)).map(|f| f.counters())
    }

    /// Number of flows cached at one FE.
    pub fn fe_cached_flows(&self, fe: ServerId, vnic: VnicId) -> Option<usize> {
        self.fes.get(&(fe, vnic)).map(|f| f.cached_flows())
    }

    /// Pins an elephant flow's session to a dedicated FE (§7.5): the BE's
    /// TX selection, the gateway's RX selection, and the general hash
    /// ring are all updated — the dedicated FE serves (nearly) only the
    /// elephant from now on.
    pub fn pin_flow(&mut self, vnic: VnicId, key: SessionKey, fe: ServerId) -> NezhaResult<()> {
        let meta = self
            .be_meta
            .get_mut(&vnic)
            .ok_or(NezhaError::NotOffloaded(vnic))?;
        if !meta.fe_list.contains(&fe) {
            return Err(NezhaError::NotAnFe { vnic, fe });
        }
        meta.pin_flow(key, fe);
        let general = meta.general_fes();
        let addr = self.vnic_addr[&vnic];
        let now = self.engine.now();
        self.gateway.pin(addr, key.canonical.stable_hash(), fe);
        if !general.is_empty() {
            self.gateway.update(addr, general, now);
        }
        Ok(())
    }

    /// The BE location configured on one FE (None when that FE does not
    /// exist).
    pub fn fe_be_location(&self, fe: ServerId, vnic: VnicId) -> Option<ServerId> {
        self.fes.get(&(fe, vnic)).map(|f| f.be_location)
    }

    /// The current home (BE) server of a vNIC.
    pub fn home_of(&self, vnic: VnicId) -> Option<ServerId> {
        self.vnic_home.get(&vnic).copied()
    }

    /// Servers hosting FEs for `vnic`, in stable (id) order.
    pub fn fe_servers(&self, vnic: VnicId) -> Vec<ServerId> {
        let mut servers: Vec<ServerId> = self
            .fes
            .keys()
            .filter(|(_, v)| *v == vnic)
            .map(|(s, _)| *s)
            .collect();
        servers.sort_unstable_by_key(|s| s.0);
        servers
    }

    /// Installs a vNIC (with VM) on its home server and registers it at
    /// the gateway.
    ///
    /// Errors when `home` is outside the topology or its vSwitch cannot
    /// fit the vNIC's tables; the cluster is left unchanged.
    pub fn add_vnic(&mut self, vnic: Vnic, home: ServerId, vm: VmConfig) -> NezhaResult<()> {
        let id = vnic.id;
        let addr = vnic.addr;
        self.switches
            .get_mut(home.0 as usize)
            .ok_or(NezhaError::UnknownServer(home))?
            .add_vnic(vnic.clone())
            .map_err(|_| NezhaError::InsufficientMemory {
                what: "vNIC tables",
            })?;
        self.master_vnics.insert(id, vnic);
        self.vnic_home.insert(id, home);
        self.vnic_addr.insert(id, addr);
        self.gateway.update(addr, vec![home], self.engine.now());
        self.vms.insert(id, VmModel::new(vm));
        Ok(())
    }

    /// Registers the mapping of a peer/client overlay address so the
    /// vNIC's egress lookups resolve to real topology servers.
    ///
    /// Errors with [`NezhaError::UnknownVnic`] for a vNIC that was never
    /// [added](Cluster::add_vnic).
    pub fn map_peer(&mut self, vnic: VnicId, addr: Ipv4Addr, server: ServerId) -> NezhaResult<()> {
        let home = *self
            .vnic_home
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?;
        if let Some(master) = self.master_vnics.get_mut(&vnic) {
            master.tables.vnic_server.set(addr, server);
        }
        let home_vs = &mut self.switches[home.0 as usize];
        if let Some(home_vnic) = home_vs.vnic_mut(vnic) {
            home_vnic.tables.vnic_server.set(addr, server);
            if home_vs.sync_vnic_memory(vnic).is_err() {
                // The learned-mapping cache is full: drop the entry (the
                // gateway remains authoritative; traffic to this peer
                // resolves via the gateway/default path instead).
                if let Some(home_vnic) = home_vs.vnic_mut(vnic) {
                    home_vnic.tables.vnic_server.remove(addr);
                }
                let _ = home_vs.sync_vnic_memory(vnic);
            }
        }
        let m = self.cfg.vswitch.memory;
        for ((fe_server, v), fe) in self.fes.iter_mut() {
            if *v == vnic {
                fe.vnic.tables.vnic_server.set(addr, server);
                let pool = &mut self.switches[fe_server.0 as usize].mem;
                if fe.sync_table_memory(pool, &m).is_err() {
                    fe.vnic.tables.vnic_server.remove(addr);
                    let _ = fe.sync_table_memory(pool, &m);
                }
            }
        }
        Ok(())
    }

    /// Registers a connection and schedules its start. Peer addresses are
    /// mapped automatically. Returns the connection id.
    ///
    /// Errors with [`NezhaError::UnknownVnic`] when `spec.vnic` was never
    /// [added](Cluster::add_vnic).
    pub fn add_conn(&mut self, spec: ConnSpec) -> NezhaResult<u64> {
        let id = self.conns.len() as u64 + 1;
        let peer_addr = match spec.kind {
            ConnKind::Inbound | ConnKind::PersistentInbound | ConnKind::SynOnly => {
                spec.tuple.src_ip
            }
            ConnKind::Outbound => spec.tuple.dst_ip,
        };
        self.map_peer(spec.vnic, peer_addr, spec.peer_server)?;
        self.conns.push(ConnState {
            spec,
            pos: 0,
            retries: 0,
            started_at: spec.start,
            status: ConnStatus::InFlight,
        });
        self.engine
            .schedule_at(spec.start, Event::StartConn { conn: id });
        Ok(id)
    }

    /// The state of connection `id` (ids start at 1; 0 and probe traces
    /// resolve to `None`).
    pub(crate) fn conn(&self, id: u64) -> Option<&ConnState> {
        self.conns.get(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    /// Mutable access to connection `id` (the datapath uses split field
    /// borrows instead; tests drive connections through this).
    #[cfg(test)]
    pub(crate) fn conn_mut(&mut self, id: u64) -> Option<&mut ConnState> {
        self.conns
            .get_mut(usize::try_from(id.checked_sub(1)?).ok()?)
    }

    /// Injects a standalone probe packet (latency measurement, Fig. 12).
    /// RX probes start at `from` and follow the full ingress path to the
    /// VM; the delivered latency lands in [`ClusterStats::probe_latency`].
    pub fn inject_probe_rx(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
    ) -> NezhaResult<()> {
        self.inject_rx_packet(vnic, tuple, payload, from, at, false)
    }

    /// Injects a bulk/background RX packet: takes the full data-plane
    /// path (and loads every resource on it) but is excluded from the
    /// probe-latency samples. Used for elephant-flow streams (§7.5).
    pub fn inject_bulk_rx(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
    ) -> NezhaResult<()> {
        self.inject_rx_packet(vnic, tuple, payload, from, at, true)
    }

    fn inject_rx_packet(
        &mut self,
        vnic: VnicId,
        tuple: nezha_types::FiveTuple,
        payload: u32,
        from: ServerId,
        at: SimTime,
        silent: bool,
    ) -> NezhaResult<()> {
        let vpc = self
            .master_vnics
            .get(&vnic)
            .ok_or(NezhaError::UnknownVnic(vnic))?
            .vpc;
        let id = PROBE_BIT | if silent { SILENT_BIT } else { 0 } | self.next_probe_id;
        self.next_probe_id += 1;
        let pkt = Packet::rx_data(id, vpc, vnic, tuple, nezha_types::TcpFlags::ACK, payload);
        let pkt = self.pkt_slab.insert(pkt);
        self.engine.schedule_at(at, Event::StartProbe { pkt, from });
        Ok(())
    }

    /// Crashes a server at `at` (its vSwitch stops processing and stops
    /// answering health probes).
    pub fn crash_at(&mut self, server: ServerId, at: SimTime) {
        self.engine.schedule_at(at, Event::Crash { server });
    }

    /// Schedules every transition of a scripted [`FaultPlan`] onto the
    /// event engine. Faults replay on the simulated clock from the
    /// cluster's seeded fault RNG stream: two runs with the same seed and
    /// the same plan observe identical fault behavior.
    pub fn apply_fault_plan(&mut self, plan: FaultPlan) {
        for ev in plan.into_events() {
            self.engine.schedule_at(ev.at, Event::Fault(ev.kind));
        }
    }

    /// Read access to the live fault conditions.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// Runs the cluster until simulated time `deadline`.
    ///
    /// Dispatch is batched: each engine round drains every event due at
    /// the earliest pending instant, then handles them in sequence order
    /// — identical delivery order to one-at-a-time popping (see
    /// [`Engine::pop_batch_until`]), with one heap peek per instant
    /// instead of one per event.
    ///
    /// When windows are enabled, every window whose end falls at or
    /// before the next batch's timestamp is closed *before* that batch is
    /// handled (a boundary event belongs to the window it opens), and all
    /// windows up to `deadline` are flushed once the event heap drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch = Vec::new();
        loop {
            self.engine.pop_batch_until(deadline, &mut batch);
            match batch.first() {
                None => break,
                Some(s) => {
                    if self.tel.windows.is_some() {
                        self.close_windows_to(s.at);
                    }
                }
            }
            for s in batch.drain(..) {
                let at = s.at;
                self.handle(s.event, at);
            }
        }
        if self.tel.windows.is_some() {
            self.close_windows_to(deadline);
        }
    }

    /// Applies one scripted fault transition: cluster-level side effects
    /// first (liveness flags, vSwitch cycle multipliers), then the
    /// recorded condition set the per-packet queries are answered from.
    pub(crate) fn handle_fault(&mut self, kind: FaultKind, now: SimTime) {
        self.tel.inc(self.tel.fault_events);
        match &kind {
            FaultKind::Crash { server } => {
                if let Some(alive) = self.alive.get_mut(server.0 as usize) {
                    *alive = false;
                }
                self.monitor.crash_pending.insert(*server, now);
            }
            FaultKind::Restart { server } => {
                if let Some(alive) = self.alive.get_mut(server.0 as usize) {
                    *alive = true;
                }
                self.monitor.crash_pending.remove(server);
            }
            FaultKind::GraySlow { server, multiplier } => {
                if let Some(vs) = self.switches.get_mut(server.0 as usize) {
                    vs.set_cycle_multiplier(*multiplier);
                }
            }
            FaultKind::GrayRecover { server } => {
                if let Some(vs) = self.switches.get_mut(server.0 as usize) {
                    vs.set_cycle_multiplier(1.0);
                }
            }
            _ => {}
        }
        self.faults.apply(&kind);
    }
}
