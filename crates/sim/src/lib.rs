//! # nezha-sim
//!
//! A deterministic discrete-event simulator substrate for the Nezha
//! reproduction. The paper's testbed is hundreds of servers with in-house
//! CPU+FPGA SmartNICs; this crate replaces that hardware with explicit,
//! calibrated models:
//!
//! * [`time`] — nanosecond simulated clock ([`SimTime`], [`SimDuration`]);
//! * [`engine`] — a generic event queue with stable FIFO tie-breaking, so
//!   every run with the same seed replays identically;
//! * [`rng`] — seeded RNG plus the heavy-tailed samplers (exponential,
//!   log-normal, bounded Pareto) the workload models need;
//! * [`resources`] — the SmartNIC resource models: a fluid multi-core
//!   [`CpuServer`] with bounded backlog (overload ⇒ queueing ⇒ drops, which
//!   is exactly the mechanism behind the paper's Fig. 12 latency explosion)
//!   and a byte-accounted [`MemoryPool`];
//! * [`topology`] — a three-tier (ToR / aggregation / core) datacenter
//!   fabric giving deterministic hop counts and propagation+serialization
//!   latency between servers;
//! * [`stats`] — exact-percentile sample sets, counters, and time series
//!   used by every experiment harness;
//! * [`metrics`] — the unified telemetry registry: named, labeled
//!   counters/gauges/histograms/series behind cheap pre-registered handles,
//!   snapshotting to deterministic JSON;
//! * [`trace`] — the structured per-packet event vocabulary (enqueue, CPU
//!   charge, table hit/miss, NSH encap/decap, notify, drop-with-reason) on
//!   the simulated clock, and its filter;
//! * [`fault`] — deterministic fault injection: a scripted [`FaultPlan`]
//!   of crashes, gray-slow members, (bursty) link loss, partitions,
//!   controller outages, and notify drops, replayed on the simulated
//!   clock from a seeded RNG stream;
//! * [`obs`] — the live observability plane: fixed-memory mergeable
//!   [`LogHistogram`]s with a documented quantile error bound, windowed
//!   rollups with ring-bounded retention, a declarative SLO watchdog
//!   emitting deterministic events, and Prometheus/JSONL exporters;
//! * [`shard`] — the sharded-execution substrate: contiguous balanced
//!   id partitions ([`ShardSpec`]) and the keyed barrier merge
//!   ([`merge_effects`]) whose output order is a pure function of
//!   (shard id, sorted effect keys);
//! * [`profile`] — the one per-packet recorder: cycle-attribution
//!   profiler and causal span tracer (pre-registered stage handles, spans
//!   that link across the BE↔FE hop, deterministic flamegraph / Chrome
//!   `trace_event` exporters) whose bounded ring also holds the [`trace`]
//!   events.
//!
//! The engine is intentionally *generic over the event type*: higher layers
//! (`nezha-core`, the experiment harnesses) define their own event enums and
//! drive the loop, keeping all domain logic out of the substrate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dense;
pub mod engine;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod profile;
pub mod report;
pub mod resources;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod topology;
pub mod trace;

pub use dense::{DenseMap, Slab};
pub use engine::{Engine, Scheduled};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultState, GilbertElliott};
pub use metrics::{
    CounterHandle, GaugeHandle, HistogramHandle, LogHistogramHandle, MetricValue, MetricsDiff,
    MetricsRegistry, MetricsSnapshot, SeriesHandle,
};
pub use obs::{
    HistSummary, LogHistogram, RegistryWindows, SloEdge, SloEvent, SloRule, SloWatchdog,
    WindowRecord, WindowValue, WindowedRollup,
};
pub use profile::{Profiler, Span, SpanId, SpanRecord, StageHandle, StageSet, StageTotals};
pub use report::{BenchReport, Sample, BENCH_SCHEMA_VERSION};
pub use resources::{CpuOutcome, CpuServer, MemoryPool, UtilizationWindow};
pub use rng::{derive_seed, derive_seed_indexed, SimRng};
pub use shard::{merge_effects, ShardSpec};
pub use stats::{Counter, Samples, TimeSeries};
pub use time::{SimDuration, SimTime};
pub use topology::{Topology, TopologyConfig};
pub use trace::{DropReason, TraceEvent, TraceEventKind, TraceFilter};
