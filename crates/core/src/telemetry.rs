//! The cluster's telemetry plumbing: the shared [`MetricsRegistry`], the
//! shared per-packet recorder ([`Profiler`]: cycle-attribution spans and
//! trace events), and every pre-registered handle the hot paths
//! increment through.
//!
//! Registration happens exactly once, in [`ClusterTelemetry::register`]
//! (called from `Cluster::new`); registry lookups are string-keyed and
//! must never run mid-simulation (lint rules D5/D6). Datapath handlers
//! reach this module only through `datapath::ctx::HandlerCtx` (lint rule
//! D7); the management plane (`controller.rs`, `monitor.rs`) uses the
//! handles directly.

use nezha_sim::metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, SeriesHandle,
};
use nezha_sim::obs::{RegistryWindows, SloRule};
use nezha_sim::profile::{Profiler, StageSet};
use nezha_sim::stats::{Counter, Samples, TimeSeries};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::ServerId;

/// Aggregated measurements.
///
/// Since the telemetry redesign this is an owned *view* assembled on
/// demand from the cluster's [`MetricsRegistry`] by `Cluster::stats`;
/// field names are unchanged so `c.stats.X` call sites only became
/// `c.stats().X`. Experiments should prefer reading the registry snapshot
/// directly (`c.metrics().snapshot()`).
#[derive(Clone, Debug)]
pub struct ClusterStats {
    /// Connection-packet delivery counter (ok vs lost).
    pub pkts: Counter,
    /// End-to-end latency of probe packets (seconds).
    pub probe_latency: Samples,
    /// Completed connection latencies (seconds).
    pub conn_latency: Samples,
    /// Completed connections per time bin (CPS series).
    pub cps_series: TimeSeries,
    /// Lost packets per time bin.
    pub loss_series: TimeSeries,
    /// Injected packets per time bin.
    pub total_series: TimeSeries,
    /// Offload activation completion times (seconds; Table 4).
    pub offload_completion: Samples,
    /// Connections completed / denied / failed.
    pub completed: u64,
    /// Connections denied by policy.
    pub denied: u64,
    /// Connections failed after retries.
    pub failed: u64,
    /// Notify packets generated (§3.2.2).
    pub notifies: u64,
    /// Mirror copies emitted toward collectors (advanced tables, §2.2.2).
    /// Under Nezha the FE emits TX-direction copies and the BE emits
    /// RX-direction ones (each holds the packet at finalization time).
    pub mirror_copies: u64,
    /// RX packets that reached the BE after the final stage and had to be
    /// bounced to an FE (stale vNIC-server mappings).
    pub stale_bounces: u64,
    /// Packets that arrived somewhere that could not process them.
    pub misroutes: u64,
    /// Controller event counters.
    pub offload_events: u64,
    /// Scale-out operations performed.
    pub scale_out_events: u64,
    /// Scale-in operations performed.
    pub scale_in_events: u64,
    /// Fallback operations performed.
    pub fallback_events: u64,
    /// Failovers completed.
    pub failover_events: u64,
    /// Monitor false-positive suspensions (Appendix C).
    pub monitor_suspensions: u64,
    /// Scripted fault transitions applied (chaos injection).
    pub fault_events: u64,
    /// Graceful degradations: the FE pool collapsed and the BE fell back
    /// to local processing from the data plane.
    pub degraded_events: u64,
    /// FE pool membership changes caused by failure handling — each one
    /// re-hashes a slice of the flow space (re-hash churn).
    pub rehash_churn: u64,
    /// Crash-to-failover detection latencies (seconds).
    pub detection_latency: Samples,
}

/// The cluster's telemetry plumbing: the shared registry, the shared
/// per-packet recorder, and the pre-registered handles every hot-path
/// increment goes through. Registered once in `Cluster::new`.
#[derive(Debug, Clone)]
pub(crate) struct ClusterTelemetry {
    /// The registry shared by the engine, every vSwitch, and the cluster.
    pub(crate) registry: MetricsRegistry,
    /// The per-packet recorder shared with every vSwitch: spans are off
    /// until `Cluster::enable_profile`, trace events until
    /// `Cluster::enable_trace`.
    pub(crate) profiler: Profiler,
    /// Pre-registered span stage handles (lint rule D6: stage lookups are
    /// string-keyed and must never run mid-simulation).
    pub(crate) stages: StageSet,
    pub(crate) pkt_ok: CounterHandle,
    pub(crate) pkt_dropped: CounterHandle,
    pub(crate) probe_latency: HistogramHandle,
    pub(crate) conn_latency: HistogramHandle,
    pub(crate) cps_series: SeriesHandle,
    pub(crate) loss_series: SeriesHandle,
    pub(crate) total_series: SeriesHandle,
    pub(crate) offload_completion: HistogramHandle,
    pub(crate) completed: CounterHandle,
    pub(crate) denied: CounterHandle,
    pub(crate) failed: CounterHandle,
    pub(crate) notifies: CounterHandle,
    pub(crate) mirror_copies: CounterHandle,
    pub(crate) stale_bounces: CounterHandle,
    pub(crate) misroutes: CounterHandle,
    pub(crate) offload_events: CounterHandle,
    pub(crate) scale_out_events: CounterHandle,
    pub(crate) scale_in_events: CounterHandle,
    pub(crate) fallback_events: CounterHandle,
    pub(crate) failover_events: CounterHandle,
    pub(crate) monitor_suspensions: CounterHandle,
    pub(crate) fault_events: CounterHandle,
    pub(crate) fault_link_drops: CounterHandle,
    pub(crate) fault_notify_drops: CounterHandle,
    pub(crate) fault_inflight_loss: CounterHandle,
    pub(crate) degraded_events: CounterHandle,
    pub(crate) rehash_churn: CounterHandle,
    pub(crate) detection_latency: HistogramHandle,
    /// Per-server controller report gauges, indexed by `ServerId.0`.
    /// Pre-registered at startup: registry lookups are string-keyed and
    /// must never run mid-simulation (lint rule D5).
    pub(crate) ctrl_gauges: Vec<ServerCtrlGauges>,
    /// Windowed-rollup driver (None until `Cluster::enable_windows`).
    pub(crate) windows: Option<RegistryWindows>,
    /// Per-server FE RX-packet counters (`fe.rx_pkts{server=i}`) feeding
    /// the fairness SLO, indexed by `ServerId.0`. Registered together
    /// with the rollup in [`ClusterTelemetry::register_windows`], so runs
    /// that never enable windows keep their golden snapshots unchanged.
    pub(crate) fe_rx: Option<Vec<CounterHandle>>,
}

/// The gauges one controller report publishes for one server.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ServerCtrlGauges {
    pub(crate) cpu_util: GaugeHandle,
    pub(crate) mem_util: GaugeHandle,
    pub(crate) local_cycles: GaugeHandle,
    pub(crate) remote_cycles: GaugeHandle,
}

impl ClusterTelemetry {
    /// Registers every handle. The registration *order* is part of the
    /// golden-snapshot contract: metric snapshots serialize in it, so it
    /// must not change across refactors.
    pub(crate) fn register(registry: MetricsRegistry, servers: usize) -> Self {
        let ctrl_gauges = (0..servers)
            .map(|i| {
                let labels = [("server", i.to_string())];
                ServerCtrlGauges {
                    cpu_util: registry.gauge("ctrl.cpu_util", &labels),
                    mem_util: registry.gauge("ctrl.mem_util", &labels),
                    local_cycles: registry.gauge("ctrl.local_cycles", &labels),
                    remote_cycles: registry.gauge("ctrl.remote_cycles", &labels),
                }
            })
            .collect();
        let c = |name: &str| registry.counter(name, &[]);
        let h = |name: &str| registry.histogram(name, &[]);
        let profiler = Profiler::new();
        let stages = StageSet::register(&profiler);
        ClusterTelemetry {
            profiler,
            stages,
            pkt_ok: c("pkt.ok"),
            pkt_dropped: c("pkt.dropped"),
            probe_latency: h("latency.probe"),
            conn_latency: h("latency.conn"),
            cps_series: registry.series("conn.cps", &[], SimDuration::from_millis(50)),
            loss_series: registry.series("pkt.loss", &[], SimDuration::from_millis(100)),
            total_series: registry.series("pkt.total", &[], SimDuration::from_millis(100)),
            offload_completion: h("offload.completion"),
            completed: c("conn.completed"),
            denied: c("conn.denied"),
            failed: c("conn.failed"),
            notifies: c("nsh.notifies"),
            mirror_copies: c("pkt.mirror_copies"),
            stale_bounces: c("pkt.stale_bounces"),
            misroutes: c("pkt.misroutes"),
            offload_events: c("ctrl.offload_events"),
            scale_out_events: c("ctrl.scale_out_events"),
            scale_in_events: c("ctrl.scale_in_events"),
            fallback_events: c("ctrl.fallback_events"),
            failover_events: c("ctrl.failover_events"),
            monitor_suspensions: c("monitor.suspensions"),
            fault_events: c("fault.events"),
            fault_link_drops: c("fault.link_drops"),
            fault_notify_drops: c("fault.notify_drops"),
            fault_inflight_loss: c("fault.inflight_loss"),
            degraded_events: c("ctrl.degraded_events"),
            rehash_churn: c("fault.rehash_churn"),
            detection_latency: h("fault.detection_latency"),
            ctrl_gauges,
            windows: None,
            fe_rx: None,
            registry,
        }
    }

    /// Registers the windowed-rollup driver plus the per-FE-server RX
    /// counters the fairness SLO consumes. Lazy by design: enabling
    /// windows adds `fe.rx_pkts{server=i}` keys to the registry, so runs
    /// that never call this serialize exactly the golden snapshots
    /// pinned before the observability plane existed.
    pub(crate) fn register_windows(
        &mut self,
        servers: usize,
        width: SimDuration,
        retain: usize,
        rules: Vec<SloRule>,
    ) {
        let fe_rx = (0..servers)
            .map(|i| {
                self.registry
                    .counter("fe.rx_pkts", &[("server", i.to_string())])
            })
            .collect();
        self.fe_rx = Some(fe_rx);
        self.windows = Some(RegistryWindows::new(width, retain, rules));
    }

    /// Hot-path increment of the per-FE RX counter (no-op until windows
    /// are enabled). One branch, one borrow, one index — no allocation.
    pub(crate) fn note_fe_rx(&self, server: ServerId) {
        if let Some(fe_rx) = &self.fe_rx {
            if let Some(h) = fe_rx.get(server.0 as usize) {
                self.registry.inc(*h);
            }
        }
    }

    /// Counter increment (hot path: one borrow + one index).
    pub(crate) fn inc(&self, h: CounterHandle) {
        self.registry.inc(h);
    }

    /// Counter increment by `n`.
    pub(crate) fn add(&self, h: CounterHandle, n: u64) {
        self.registry.add(h, n);
    }

    /// Duration observation in seconds.
    pub(crate) fn observe_duration(&self, h: HistogramHandle, d: SimDuration) {
        self.registry.observe_duration(h, d);
    }

    /// Series bin accumulation.
    pub(crate) fn series_add(&self, h: SeriesHandle, at: SimTime, v: f64) {
        self.registry.series_add(h, at, v);
    }

    /// Assembles the legacy [`ClusterStats`] view from the registry.
    pub(crate) fn stats(&self) -> ClusterStats {
        let v = |h: CounterHandle| self.registry.counter_value(h);
        ClusterStats {
            pkts: Counter {
                ok: v(self.pkt_ok),
                dropped: v(self.pkt_dropped),
            },
            probe_latency: self.registry.histogram_samples(self.probe_latency),
            conn_latency: self.registry.histogram_samples(self.conn_latency),
            cps_series: self.registry.series_data(self.cps_series),
            loss_series: self.registry.series_data(self.loss_series),
            total_series: self.registry.series_data(self.total_series),
            offload_completion: self.registry.histogram_samples(self.offload_completion),
            completed: v(self.completed),
            denied: v(self.denied),
            failed: v(self.failed),
            notifies: v(self.notifies),
            mirror_copies: v(self.mirror_copies),
            stale_bounces: v(self.stale_bounces),
            misroutes: v(self.misroutes),
            offload_events: v(self.offload_events),
            scale_out_events: v(self.scale_out_events),
            scale_in_events: v(self.scale_in_events),
            fallback_events: v(self.fallback_events),
            failover_events: v(self.failover_events),
            monitor_suspensions: v(self.monitor_suspensions),
            fault_events: v(self.fault_events),
            degraded_events: v(self.degraded_events),
            rehash_churn: v(self.rehash_churn),
            detection_latency: self.registry.histogram_samples(self.detection_latency),
        }
    }
}
