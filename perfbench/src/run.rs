//! One repetition of a workload: set up, run through the drain, read out
//! the deterministic payload. The untraced repetition times only the
//! set-up and the run; the traced one also times every set-up phase on
//! its own, each `add_conn` call, and the run in fixed sim-time slices.

use std::time::Instant;

use nezha_bench::experiments::harness;
use nezha_core::cluster::Cluster;
use nezha_sim::metrics::MetricValue;
use nezha_sim::obs::LogHistogram;
use nezha_sim::time::SimDuration;
use nezha_types::ServerId;

use crate::calib::{Sampler, Span};
use crate::rss;
use crate::workload::{self, secs_since, Kind, Prepared, Scale, SetupTimes};

/// The seed-determined outcome of a repetition, as ordered `name=value`
/// pairs. Two repetitions of one workload and seed must render it
/// byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload(pub Vec<(&'static str, u64)>);

impl Payload {
    /// `name=value` pairs joined by single spaces.
    pub fn render(&self) -> String {
        let parts: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}={v}")).collect();
        parts.join(" ")
    }

    /// The value of field `name`.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.0.iter().find(|(k, _)| *k == name).map(|(_, v)| *v)
    }
}

/// FNV-1a over a byte stream: the payload's digest of long outputs.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Wall-clock figures and payload of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// From nothing to the first simulated load event, seconds.
    pub setup_s: f64,
    /// The simulated run through the drain, seconds.
    pub run_s: f64,
    /// Events handled in the run (engine events; region-model events
    /// for the region workload).
    pub events: u64,
    /// Simulated seconds the run covered.
    pub sim_s: f64,
    /// Peak resident memory of the repetition, bytes.
    pub peak_rss: u64,
    /// The factor that scales `setup_s` to the reference host speed
    /// (see [`crate::calib`]); 1 when no sampler calibrated.
    pub setup_host: f64,
    /// The factor that scales `run_s` to the reference host speed.
    pub run_host: f64,
    /// The deterministic payload.
    pub payload: Payload,
}

/// What the traced repetition measures beyond a [`Rep`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Set-up phases (packet workloads).
    pub setup: SetupTimes,
    /// Connections injected.
    pub conns: u64,
    /// Distinct peer addresses among the injected connections.
    pub peers: u64,
    /// Wall seconds and events of the load and drain slices.
    pub load: (f64, u64),
    /// See `load`.
    pub drain: (f64, u64),
    /// Wall milliseconds of every slice.
    pub slice_ms: Vec<f64>,
    /// Engine queue depth at every slice end.
    pub pending: Vec<usize>,
    /// Largest session table seen at a slice end.
    pub live_set: usize,
    /// Engine events scheduled during the run.
    pub scheduled: u64,
    /// Deterministic counts over the run.
    pub counts: Counts,
    /// `stats()` + `snapshot()` + `LogHistogram::from_samples`, seconds;
    /// `RegionReport::bench_report` for the region workload.
    pub readout_s: f64,
    /// Region set-up and run, seconds (region workload).
    pub region_setup_s: f64,
    /// See `region_setup_s`.
    pub region_run_s: f64,
    /// Server-epochs the region run covered.
    pub server_epochs: u64,
    /// Windows the region closed and SLO events they raised.
    pub windows_closed: u64,
    /// See `windows_closed`.
    pub slo_events: u64,
    /// Utilization samples the region recorded.
    pub region_samples: u64,
}

/// Deterministic per-layer counts of a packet run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Connection packets delivered.
    pub pkts_ok: u64,
    /// Connection packets lost.
    pub pkts_dropped: u64,
    /// Packets the VM kernel dropped (listen-queue overflow).
    pub vm_drops: u64,
    /// Notify packets (FE -> BE state updates).
    pub notifies: u64,
    /// Packets FEs looked up (flow-cache hits, misses and skips).
    pub fe_rx_pkts: u64,
    /// FE flow-cache misses: each runs the lookup graph for both
    /// directions.
    pub fe_misses: u64,
    /// Sessions created over the run, all switches.
    pub sessions_created: u64,
    /// Connections completed.
    pub completed: u64,
    /// Connections failed after retries.
    pub failed: u64,
}

/// Sum of every counter whose key is `name` or `name{labels}`.
fn counter_sum(snap: &nezha_sim::metrics::MetricsSnapshot, name: &str) -> u64 {
    snap.iter()
        .filter(|(k, _)| *k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .map(|(_, v)| match v {
            MetricValue::Counter(c) => *c,
            _ => 0,
        })
        .sum()
}

/// Every vSwitch of the cluster.
fn switches(cluster: &Cluster) -> impl Iterator<Item = &nezha_vswitch::VSwitch> {
    (0u32..)
        .map(move |i| cluster.switch(ServerId(i)))
        .take_while(Result::is_ok)
        .flatten()
}

fn sessions_created(cluster: &Cluster) -> u64 {
    switches(cluster).map(|vs| vs.sessions.counters().0).sum()
}

/// `(lookups, misses)` summed over the FEs of the workload's vNIC.
fn fe_lookups(cluster: &Cluster) -> (u64, u64) {
    let vnic = harness::VNIC;
    cluster
        .fe_servers(vnic)
        .into_iter()
        .filter_map(|fe| cluster.fe_counters(fe, vnic))
        .fold((0, 0), |(n, m), (hits, misses, skips)| {
            (n + hits + misses + skips, m + misses)
        })
}

/// Packets the workload's VM kernel dropped so far.
fn vm_drops(cluster: &Cluster) -> u64 {
    cluster.vm(harness::VNIC).map_or(0, |vm| vm.counters().1)
}

/// Runs one untraced repetition of `kind`.
pub fn rep(kind: Kind, seed: u64, scale: Scale) -> Rep {
    rep_with(kind, seed, scale, &mut Sampler::off())
}

/// [`rep`], with `sampler` ticking between stretches of work and
/// taking a point when the repetition ends, so that the repetition's
/// host factors are known.
pub fn rep_with(kind: Kind, seed: u64, scale: Scale, sampler: &mut Sampler) -> Rep {
    rss::reset_peak();
    let (mut rep, setup_span, run_span) = if kind.is_packet() {
        let open = sampler.open();
        let p = workload::prepare(kind, seed, scale, false, sampler);
        let setup_span = sampler.close(open);
        let open = sampler.open();
        let (p, run_s, events) = run_packet(p, sampler);
        let run_span = sampler.close(open);
        (
            packet_rep(&p, p.setup.total(), run_s, events),
            setup_span,
            run_span,
        )
    } else {
        let (rep, _, (setup_span, run_span)) = region_rep(seed, scale, sampler);
        (rep, setup_span, run_span)
    };
    sampler.point();
    rep.setup_host = sampler.factor(setup_span);
    rep.run_host = sampler.factor(run_span);
    rep.peak_rss = rep.peak_rss.saturating_sub(sampler.resident_bytes());
    rep
}

/// Simulated width of the stretches an untraced run is timed in.
const RUN_STRETCH: SimDuration = SimDuration::from_millis(10);

/// Runs `p` to its deadline; returns wall seconds and events.
fn run_packet(mut p: Prepared, sampler: &mut Sampler) -> (Prepared, f64, u64) {
    let before = p.cluster.engine.processed();
    let mut run_s = 0.0;
    let mut at = p.cluster.now();
    while at < p.deadline {
        at = (at + RUN_STRETCH).min(p.deadline);
        let t = Instant::now();
        p.cluster.run_until(at);
        run_s += secs_since(t);
        sampler.tick();
    }
    let events = p.cluster.engine.processed() - before;
    (p, run_s, events)
}

fn packet_rep(p: &Prepared, setup_s: f64, run_s: f64, events: u64) -> Rep {
    let sim_s = p.cluster.now().since(p.start).as_secs_f64();
    let payload = packet_payload(p, events);
    Rep {
        setup_s,
        run_s,
        events,
        sim_s,
        peak_rss: rss::peak_bytes(),
        setup_host: 1.0,
        run_host: 1.0,
        payload,
    }
}

fn packet_payload(p: &Prepared, events: u64) -> Payload {
    let stats = p.cluster.stats();
    let digest = fnv1a(
        stats
            .conn_latency
            .raw()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    Payload(vec![
        ("settle_events", p.setup.settle_events),
        ("events", events),
        ("sim_ns", p.cluster.now().since(p.start).nanos()),
        ("conns_offered", p.conns),
        ("conns_completed", stats.completed),
        ("conns_failed", stats.failed),
        ("conns_denied", stats.denied),
        ("pkts_ok", stats.pkts.ok),
        ("pkts_dropped", stats.pkts.dropped),
        ("notifies", stats.notifies),
        ("latency_digest", digest),
    ])
}

/// Runs the region workload once; also returns its trace figures and
/// the calibration points its set-up and its run span.
fn region_rep(seed: u64, scale: Scale, sampler: &mut Sampler) -> (Rep, Trace, (Span, Span)) {
    let open = sampler.open();
    let mut r = workload::prepare_region(seed, scale);
    let setup_span = sampler.close(open);
    let open = sampler.open();
    let t = Instant::now();
    let mut report = r.region.run_scenario(&r.scenario, true);
    let run_s = secs_since(t);
    let run_span = sampler.close(open);
    let cfg = workload::region_config(seed);
    let rollup = r.region.windows().expect("windows are enabled");
    let server_epochs = workload::server_epochs(&cfg, &r.scenario);
    let events = workload::region_events(&report);
    let windows_closed = rollup.closed();
    let slo_events = rollup.watchdog().events().len() as u64;
    let windows_digest = fnv1a(
        rollup
            .jsonl()
            .bytes()
            .chain(rollup.watchdog().events_jsonl().bytes()),
    );
    let cpu_digest = fnv1a(
        report
            .cpu_utils
            .raw()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes()),
    );
    let payload = Payload(vec![
        ("server_epochs", server_epochs),
        ("events", events),
        ("offload_events", report.offload_events),
        ("offload_denied", report.offload_denied),
        ("fes_provisioned", report.total_fes_provisioned),
        ("fault_crashes", report.fault_crashes),
        ("flash_crowds", report.flash_crowds),
        ("tenant_births", report.tenant_births),
        ("tenant_deaths", report.tenant_deaths),
        ("migrations", report.migrations),
        ("cps_total", report.daily_cps.iter().sum()),
        ("windows_closed", windows_closed),
        ("slo_events", slo_events),
        ("cpu_digest", cpu_digest),
        ("windows_digest", windows_digest),
    ]);
    // Read out last: `bench_report` sorts the samples the digest covers.
    let t = Instant::now();
    std::hint::black_box(report.bench_report(Kind::RegionWeek.name()));
    let readout_s = secs_since(t);
    let sim_s = r.scenario.days as f64 * 24.0 * 3600.0;
    let rep = Rep {
        setup_s: r.setup_s,
        run_s,
        events,
        sim_s,
        peak_rss: rss::peak_bytes(),
        setup_host: 1.0,
        run_host: 1.0,
        payload,
    };
    let trace = Trace {
        readout_s,
        region_setup_s: r.setup_s,
        region_run_s: run_s,
        server_epochs,
        windows_closed,
        slo_events,
        region_samples: (report.cpu_utils.len() + report.mem_utils.len()) as u64,
        ..Trace::default()
    };
    (rep, trace, (setup_span, run_span))
}

/// Simulated width of one traced-run slice.
pub const SLICE: SimDuration = SimDuration::from_millis(2);

/// Runs one traced repetition of `kind`.
pub fn traced(kind: Kind, seed: u64, scale: Scale) -> (Rep, Trace) {
    rss::reset_peak();
    if !kind.is_packet() {
        let (rep, trace, _) = region_rep(seed, scale, &mut Sampler::off());
        return (rep, trace);
    }
    let mut p = workload::prepare(kind, seed, scale, true, &mut Sampler::off());
    let mut trace = Trace {
        conns: p.conns,
        peers: p.peers,
        ..Trace::default()
    };
    let snap0 = p.cluster.metrics().snapshot();
    let created0 = sessions_created(&p.cluster);
    let fe0 = fe_lookups(&p.cluster);
    let vm0 = vm_drops(&p.cluster);
    let before = p.cluster.engine.processed();
    let mut run_s = 0.0;
    let mut at = p.start;
    while at < p.deadline {
        let next = (at + SLICE).min(p.deadline);
        let ev0 = p.cluster.engine.processed();
        let t = Instant::now();
        p.cluster.run_until(next);
        let dt = secs_since(t);
        run_s += dt;
        let ev = p.cluster.engine.processed() - ev0;
        let phase = if next <= p.load_end {
            &mut trace.load
        } else {
            &mut trace.drain
        };
        phase.0 += dt;
        phase.1 += ev;
        trace.slice_ms.push(dt * 1e3);
        trace.pending.push(p.cluster.engine.pending());
        let live = switches(&p.cluster)
            .map(|vs| vs.sessions.len())
            .max()
            .unwrap_or(0);
        trace.live_set = trace.live_set.max(live);
        at = next;
    }
    let events = p.cluster.engine.processed() - before;

    let t = Instant::now();
    let stats = p.cluster.stats();
    let snap = p.cluster.metrics().snapshot();
    let hist = LogHistogram::from_samples(&snap.histogram("latency.conn"));
    trace.readout_s = secs_since(t);
    std::hint::black_box((&stats, &hist));

    let delta = |name: &str| counter_sum(&snap, name) - counter_sum(&snap0, name);
    let fe = fe_lookups(&p.cluster);
    trace.scheduled = delta("engine.scheduled");
    trace.counts = Counts {
        pkts_ok: delta("pkt.ok"),
        pkts_dropped: delta("pkt.dropped"),
        vm_drops: vm_drops(&p.cluster) - vm0,
        notifies: delta("nsh.notifies"),
        fe_rx_pkts: fe.0 - fe0.0,
        fe_misses: fe.1 - fe0.1,
        sessions_created: sessions_created(&p.cluster) - created0,
        completed: delta("conn.completed"),
        failed: delta("conn.failed"),
    };
    let setup_s = p.setup.total();
    let rep = packet_rep(&p, setup_s, run_s, events);
    trace.setup = std::mem::take(&mut p.setup);
    (rep, trace)
}
