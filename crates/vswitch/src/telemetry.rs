//! Per-switch telemetry plumbing: counter handles and the per-packet
//! recorder (profiler) + its registered stage set.

use nezha_sim::metrics::{CounterHandle, MetricsRegistry};
use nezha_sim::profile::{Profiler, StageSet};

/// Lifetime packet counters of one vSwitch.
///
/// Since the telemetry redesign this is a *view* assembled from the
/// vSwitch's `vswitch.*{server=N}` metrics on demand — the struct is kept
/// so existing `vs.counters().forwarded`-style call sites read unchanged.
#[derive(Clone, Copy, Debug, Default)]
pub struct VSwitchCounters {
    /// Packets processed to a forwarding decision.
    pub forwarded: u64,
    /// Packets dropped by final ACL verdict.
    pub acl_drops: u64,
    /// Packets dropped for lack of a route.
    pub unroutable: u64,
    /// Packets dropped by QoS rate limits.
    pub rate_limited: u64,
    /// Packets dropped because the CPU backlog bound was exceeded.
    pub cpu_drops: u64,
    /// First packets that could not cache a session (memory exhausted).
    pub session_overflows: u64,
    /// Mirror copies generated toward collectors.
    pub mirrored: u64,
}

/// Pre-registered handles for the per-switch counters and the recorder's
/// stages. Registered once at construction (or re-registered on
/// `VSwitch::attach_metrics`); the hot path only does handle increments.
#[derive(Clone, Debug)]
pub(crate) struct SwitchTelemetry {
    pub(crate) registry: MetricsRegistry,
    pub(crate) profiler: Profiler,
    pub(crate) stages: StageSet,
    pub(crate) forwarded: CounterHandle,
    pub(crate) acl_drops: CounterHandle,
    pub(crate) unroutable: CounterHandle,
    pub(crate) rate_limited: CounterHandle,
    pub(crate) cpu_drops: CounterHandle,
    pub(crate) session_overflows: CounterHandle,
    pub(crate) mirrored: CounterHandle,
}

impl SwitchTelemetry {
    pub(crate) fn register(
        registry: &MetricsRegistry,
        server: nezha_types::ServerId,
        profiler: Profiler,
    ) -> Self {
        let labels = [("server", server.raw().to_string())];
        let c = |name: &str| registry.counter(name, &labels);
        let stages = StageSet::register(&profiler);
        SwitchTelemetry {
            registry: registry.clone(),
            profiler,
            stages,
            forwarded: c("vswitch.forwarded"),
            acl_drops: c("vswitch.acl_drops"),
            unroutable: c("vswitch.unroutable"),
            rate_limited: c("vswitch.rate_limited"),
            cpu_drops: c("vswitch.cpu_drops"),
            session_overflows: c("vswitch.session_overflows"),
            mirrored: c("vswitch.mirrored"),
        }
    }

    pub(crate) fn view(&self) -> VSwitchCounters {
        let v = |h: CounterHandle| self.registry.counter_value(h);
        VSwitchCounters {
            forwarded: v(self.forwarded),
            acl_drops: v(self.acl_drops),
            unroutable: v(self.unroutable),
            rate_limited: v(self.rate_limited),
            cpu_drops: v(self.cpu_drops),
            session_overflows: v(self.session_overflows),
            mirrored: v(self.mirrored),
        }
    }
}
