//! The four benchmark workloads, built and driven through the program's
//! public API only.
//!
//! A packet workload is prepared in four timed phases — build the
//! testbed, offload and settle, generate the load, inject every
//! connection — and then run through its drain. The region workload is
//! `Region::new` plus windows, then `Region::run_scenario`. Every phase
//! reads the wall clock from outside the call it times.

use std::collections::BTreeSet;
use std::time::Instant;

use nezha_bench::experiments::harness::{self, TestbedOpts};
use nezha_core::be::OffloadPhase;
use nezha_core::cluster::Cluster;
use nezha_core::conn::ConnSpec;
use nezha_core::region::{Region, RegionConfig, RegionReport, Scenario};
use nezha_sim::obs::SloRule;
use nezha_sim::rng::{derive_seed, SimRng};
use nezha_sim::time::{SimDuration, SimTime};
use nezha_workloads::cps::CpsWorkload;
use nezha_workloads::flows::PersistentFlows;

use crate::calib::Sampler;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Full-scale testbed, 4 FEs, Poisson TCP_CRR below capacity.
    CrrSteady,
    /// Quarter-scale testbed, 4 FEs, TCP_CRR at 4.2x local capacity.
    CrrOverload,
    /// Full-scale testbed, 4 FEs, paced persistent connections that
    /// never close.
    FlowsPersistent,
    /// The fluid region model: 10K servers, 1M tenants, 8 shards.
    RegionWeek,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 4] = [
        Kind::CrrSteady,
        Kind::CrrOverload,
        Kind::FlowsPersistent,
        Kind::RegionWeek,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::CrrSteady => "crr_steady",
            Kind::CrrOverload => "crr_overload",
            Kind::FlowsPersistent => "flows_persistent",
            Kind::RegionWeek => "region_week",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// True for the workloads that drive the packet datapath.
    pub fn is_packet(self) -> bool {
        self != Kind::RegionWeek
    }
}

/// Offered TCP_CRR rate of `crr_steady` (below the 4-FE capacity).
const STEADY_RATE: f64 = 120_000.0;
/// Load seconds of `crr_steady`.
const STEADY_LOAD: SimDuration = SimDuration::from_secs(2);
/// Offered load of `crr_overload`, as a multiple of the testbed's local
/// capacity: the upper bracket every Fig. 9/10 capacity search probes
/// first.
const OVERLOAD_FACTOR: f64 = 4.2;
/// Load seconds of `crr_overload` (one Fig. 9/10 probe: warm-up + window).
const OVERLOAD_LOAD: SimDuration = SimDuration::from_secs(1);
/// Persistent connections `flows_persistent` opens (before the seed's
/// jitter).
const FLOWS: usize = 200_000;
/// Up to this many extra connections, drawn from the seed.
const FLOWS_JITTER: u64 = 1_000;
/// Pacing between persistent opens.
const FLOWS_INTERVAL: SimDuration = SimDuration::from_micros(10);
/// Simulated drain after the load of every packet workload.
const DRAIN: SimDuration = SimDuration::from_secs(2);
/// Simulated settle time after the offload trigger.
const SETTLE: SimDuration = SimDuration::from_secs(3);
/// Region size.
const REGION_SERVERS: usize = 10_000;
const REGION_TENANTS: u64 = 1_000_000;
const REGION_SHARDS: u32 = 8;
/// Simulated days of `region_week`.
const REGION_DAYS: usize = 7;
/// Region epoch (48 per day).
const REGION_EPOCH: SimDuration = SimDuration::from_secs(1800);

/// How large a workload is built: `1.0` is the benchmark; tests use
/// smaller fractions so a debug build finishes quickly. Scales the
/// offered load (connections, days); never the testbed itself.
#[derive(Clone, Copy, Debug)]
pub struct Scale(pub f64);

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale(1.0);

    fn duration(self, d: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(d.as_secs_f64() * self.0)
    }

    fn count(self, n: usize) -> usize {
        ((n as f64 * self.0).round() as usize).max(1)
    }
}

/// Wall-clock seconds since `t`.
pub(crate) fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The timed phases of preparing a packet workload.
#[derive(Clone, Debug, Default)]
pub struct SetupTimes {
    /// `Cluster::new` + `add_vnic`.
    pub build_s: f64,
    /// `trigger_offload` + the settle run.
    pub settle_s: f64,
    /// Engine events the settle run processed.
    pub settle_events: u64,
    /// The workload generator.
    pub generate_s: f64,
    /// Every `add_conn` call.
    pub inject_s: f64,
    /// Wall time of each `add_conn` call, seconds; empty unless asked for.
    pub per_conn_s: Vec<f64>,
}

impl SetupTimes {
    /// The whole set-up: from nothing to the first load event.
    pub fn total(&self) -> f64 {
        self.build_s + self.settle_s + self.generate_s + self.inject_s
    }
}

/// A packet workload after set-up, ready to run.
pub struct Prepared {
    /// The cluster, with every connection injected.
    pub cluster: Cluster,
    /// Simulated time the load starts.
    pub start: SimTime,
    /// Simulated time the offered load ends.
    pub load_end: SimTime,
    /// End of the drain: the run goes to here.
    pub deadline: SimTime,
    /// Connections offered.
    pub conns: u64,
    /// Distinct peer addresses among them.
    pub peers: u64,
    /// Set-up timings.
    pub setup: SetupTimes,
}

/// Connections injected between two sampler ticks.
const INJECT_CHUNK: usize = 4096;

/// Builds, offloads, generates and injects packet workload `kind`.
/// With `time_each_conn`, every `add_conn` call is timed on its own.
/// `sampler` ticks between phases and between injection chunks.
pub fn prepare(
    kind: Kind,
    seed: u64,
    scale: Scale,
    time_each_conn: bool,
    sampler: &mut Sampler,
) -> Prepared {
    let mut setup = SetupTimes::default();
    let t = Instant::now();
    let opts = match kind {
        Kind::CrrOverload => TestbedOpts::scaled(),
        _ => TestbedOpts::default(),
    };
    let mut cluster = harness::testbed(opts);
    setup.build_s = secs_since(t);
    sampler.tick();

    let t = Instant::now();
    let events_before = cluster.engine.processed();
    cluster
        .trigger_offload(harness::VNIC, cluster.now())
        .expect("the testbed vNIC offloads");
    let settle_to = cluster.now() + SETTLE;
    cluster.run_until(settle_to);
    setup.settle_s = secs_since(t);
    setup.settle_events = cluster.engine.processed() - events_before;
    assert_eq!(
        cluster.backend(harness::VNIC).map(|m| m.phase),
        Some(OffloadPhase::Offloaded),
        "offload did not reach the final stage"
    );
    sampler.tick();

    let start = cluster.now();
    let t = Instant::now();
    let (specs, load) = generate(kind, seed, scale, &cluster, start);
    setup.generate_s = secs_since(t);

    let peers: BTreeSet<u32> = specs.iter().map(|s| s.tuple.src_ip.0).collect();
    let conns = specs.len() as u64;
    if time_each_conn {
        setup.per_conn_s.reserve(specs.len());
    }
    let mut specs = specs.into_iter().peekable();
    while specs.peek().is_some() {
        sampler.tick();
        let t = Instant::now();
        if time_each_conn {
            for s in specs.by_ref().take(INJECT_CHUNK) {
                let c = Instant::now();
                cluster.add_conn(s).expect("the workload's vNIC exists");
                setup.per_conn_s.push(secs_since(c));
            }
        } else {
            for s in specs.by_ref().take(INJECT_CHUNK) {
                cluster.add_conn(s).expect("the workload's vNIC exists");
            }
        }
        setup.inject_s += secs_since(t);
    }

    Prepared {
        cluster,
        start,
        load_end: start + load,
        deadline: start + load + DRAIN,
        conns,
        peers: peers.len() as u64,
        setup,
    }
}

/// The connection specs of packet workload `kind`, drawn from `seed`,
/// and the length of the offered load.
fn generate(
    kind: Kind,
    seed: u64,
    scale: Scale,
    cluster: &Cluster,
    start: SimTime,
) -> (Vec<ConnSpec>, SimDuration) {
    let mut rng = SimRng::new(derive_seed(seed, kind.name()));
    match kind {
        Kind::CrrSteady | Kind::CrrOverload => {
            let (rate, load) = if kind == Kind::CrrSteady {
                (STEADY_RATE, scale.duration(STEADY_LOAD))
            } else {
                (
                    OVERLOAD_FACTOR * harness::local_capacity(cluster),
                    scale.duration(OVERLOAD_LOAD),
                )
            };
            let wl = CpsWorkload::tcp_crr(
                harness::VNIC,
                harness::VPC,
                harness::SERVICE_ADDR,
                harness::SERVICE_PORT,
                harness::client_servers(),
                rate,
                load,
            );
            (wl.generate(start, &mut rng), load)
        }
        Kind::FlowsPersistent => {
            let count = scale.count(FLOWS) + rng.range(0, FLOWS_JITTER) as usize;
            let clients = harness::client_servers();
            let wl = PersistentFlows {
                vnic: harness::VNIC,
                vpc: harness::VPC,
                service_addr: harness::SERVICE_ADDR,
                service_port: harness::SERVICE_PORT,
                client_servers: clients.clone(),
                count,
                open_interval: FLOWS_INTERVAL,
            };
            let mut specs = wl.generate(start);
            // Each connection's client host is drawn from the seed.
            for s in &mut specs {
                s.peer_server = clients[rng.index(clients.len())];
            }
            (specs, SimDuration(FLOWS_INTERVAL.nanos() * count as u64))
        }
        Kind::RegionWeek => unreachable!("the region workload injects no connections"),
    }
}

/// The region workload after set-up.
pub struct RegionPrepared {
    /// The region, windows enabled.
    pub region: Region,
    /// Its scenario.
    pub scenario: Scenario,
    /// `Region::new` + `enable_windows`, seconds.
    pub setup_s: f64,
}

/// Builds the region workload from `seed`.
pub fn prepare_region(seed: u64, scale: Scale) -> RegionPrepared {
    let cfg = region_config(seed);
    let t = Instant::now();
    let mut region = Region::new(cfg);
    region.enable_windows(
        64,
        vec![
            SloRule::p99_above("cpu_p99_hot", "region.util.cpu", 0.60),
            SloRule::counter_above("flash_crowd", "region.flash_crowds", 0),
        ],
    );
    let setup_s = secs_since(t);
    let scenario = Scenario {
        days: scale.count(REGION_DAYS),
        ..Scenario::production_day()
    };
    RegionPrepared {
        region,
        scenario,
        setup_s,
    }
}

/// The region configuration for `seed`.
pub(crate) fn region_config(seed: u64) -> RegionConfig {
    RegionConfig {
        servers: REGION_SERVERS,
        shards: REGION_SHARDS,
        tenants: REGION_TENANTS,
        epoch: REGION_EPOCH,
        seed: derive_seed(seed, Kind::RegionWeek.name()),
        ..RegionConfig::default()
    }
}

/// Server-epochs a region run covers: the region model's unit of work.
pub(crate) fn server_epochs(cfg: &RegionConfig, sc: &Scenario) -> u64 {
    let per_day = (24.0 * 3600.0 / cfg.epoch.as_secs_f64()).round() as u64;
    cfg.servers as u64 * per_day * sc.days as u64
}

/// Discrete events the region model handled: tenant lifecycle
/// (births, deaths, migrations), offload grants and denials, flash
/// crowds and fault crashes.
pub(crate) fn region_events(r: &RegionReport) -> u64 {
    r.tenant_births
        + r.tenant_deaths
        + r.migrations
        + r.offload_events
        + r.offload_denied
        + r.flash_crowds
        + r.fault_crashes
}
