//! Standalone per-layer costs, in nanoseconds per operation, each timed
//! from outside the layer's public functions with a fixed operation
//! count. The sized ones (session table, `DenseMap`, engine queue) run
//! at the live size the traced run of the workload measured.

use std::hint::black_box;
use std::time::Instant;

use nezha_bench::experiments::harness;
use nezha_core::be::BackendMeta;
use nezha_sim::dense::DenseMap;
use nezha_sim::engine::Engine;
use nezha_sim::metrics::MetricsRegistry;
use nezha_sim::obs::LogHistogram;
use nezha_sim::resources::MemoryPool;
use nezha_sim::rng::SimRng;
use nezha_sim::time::{SimDuration, SimTime};
use nezha_types::{
    Direction, FiveTuple, Ipv4Addr, NezhaHeader, NezhaPayloadKind, NshView, PreAction,
    PreActionPair, ServerId, SessionKey,
};
use nezha_vswitch::config::VSwitchConfig;
use nezha_vswitch::session::SessionTable;
use nezha_vswitch::stage::lookup::{direction_lookup, lookup_graph};
use nezha_vswitch::vnic::{Vnic, VnicProfile};

/// Operations per unsized measurement.
const OPS: u64 = 400_000;

/// Nanoseconds per operation of `ops` runs of `f`.
fn ns_per_op(ops: u64, mut f: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..ops {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// An inbound client tuple toward the testbed's service, one per `i`.
fn tuple(i: u64) -> FiveTuple {
    FiveTuple::tcp(
        Ipv4Addr(0x0a07_0100 + (i % 60_000) as u32),
        10_000 + (i / 60_000 % 50_000) as u16,
        harness::SERVICE_ADDR,
        harness::SERVICE_PORT,
    )
}

fn key(i: u64) -> SessionKey {
    SessionKey::of(harness::VPC, tuple(i))
}

/// `n` distinct keys and a seeded random visiting order over them.
fn keys_and_order(n: usize, seed: u64) -> (Vec<SessionKey>, Vec<usize>) {
    let keys: Vec<SessionKey> = (0..n as u64).map(key).collect();
    let mut order: Vec<usize> = (0..n).collect();
    SimRng::new(seed).shuffle(&mut order);
    (keys, order)
}

/// One `StageGraph::eval` of the standard lookup graph over the
/// testbed's vNIC, one direction of one inbound packet.
pub fn stage_eval_ns() -> f64 {
    let graph = lookup_graph();
    let mut vnic = Vnic::new(
        harness::VNIC,
        harness::VPC,
        harness::SERVICE_ADDR,
        VnicProfile::default(),
        harness::HOME,
    );
    vnic.allow_inbound_port(harness::SERVICE_PORT);
    ns_per_op(OPS / 4, |i| {
        black_box(direction_lookup(&graph, &vnic, &tuple(i), Direction::Rx));
    })
}

/// `SessionTable::establish` and `get` at `live` sessions:
/// `(establish_ns, lookup_ns)`. Establishes run in batches that are
/// removed again untimed, so the table stays near `live`.
pub fn session_ns(live: usize, seed: u64) -> (f64, f64) {
    let live = live.max(1);
    let cfg = VSwitchConfig::default();
    let mut pool = MemoryPool::new(u64::MAX / 2);
    let mut table = SessionTable::new();
    let (keys, order) = keys_and_order(live, seed);
    let pair = Some(PreActionPair::accept(None, None));
    for k in &keys {
        table
            .establish(
                *k,
                harness::VNIC,
                Direction::Rx,
                pair,
                SimTime(0),
                &mut pool,
                &cfg.memory,
            )
            .expect("the pool is unbounded");
    }
    let lookup = ns_per_op(OPS, |i| {
        black_box(
            table
                .get(&keys[order[(i % live as u64) as usize]])
                .is_some(),
        );
    });
    let batch = live.clamp(1_000, 20_000) as u64;
    let mut timed = 0.0;
    let mut fresh = live as u64;
    let mut done = 0;
    while done < OPS / 2 {
        let t = Instant::now();
        for i in fresh..fresh + batch {
            black_box(
                table
                    .establish(
                        key(i),
                        harness::VNIC,
                        Direction::Rx,
                        pair,
                        SimTime(0),
                        &mut pool,
                        &cfg.memory,
                    )
                    .is_ok(),
            );
        }
        timed += t.elapsed().as_secs_f64();
        for i in fresh..fresh + batch {
            table.remove(&key(i), &mut pool, &cfg.memory);
        }
        fresh += batch;
        done += batch;
    }
    (timed * 1e9 / done as f64, lookup)
}

/// `DenseMap::insert` and `get` at `live` entries: `(insert_ns, get_ns)`.
/// Inserts run in batches removed again untimed, as in [`session_ns`].
pub fn dense_ns(live: usize, seed: u64) -> (f64, f64) {
    let live = live.max(1);
    let (keys, order) = keys_and_order(live, seed);
    let mut map: DenseMap<SessionKey, u64> = DenseMap::new();
    for (i, k) in keys.iter().enumerate() {
        map.insert(*k, i as u64);
    }
    let get = ns_per_op(OPS, |i| {
        black_box(map.get(&keys[order[(i % live as u64) as usize]]));
    });
    let batch = live.clamp(1_000, 20_000) as u64;
    let mut timed = 0.0;
    let mut fresh = live as u64;
    let mut done = 0;
    while done < OPS {
        let t = Instant::now();
        for i in fresh..fresh + batch {
            black_box(map.insert(key(i), i));
        }
        timed += t.elapsed().as_secs_f64();
        for i in fresh..fresh + batch {
            map.remove(&key(i));
        }
        fresh += batch;
        done += batch;
    }
    (timed * 1e9 / done as f64, get)
}

/// The full Nezha service header the BE<->FE carry path encodes.
fn full_header() -> NezhaHeader {
    let mut h = NezhaHeader::bare(NezhaPayloadKind::RxCarry, harness::VNIC, harness::VPC);
    h.first_dir = Some(Direction::Rx);
    h.pre_actions = Some(PreActionPair {
        tx: PreAction::accept(Some(ServerId(17))),
        rx: PreAction::accept(None),
    });
    h
}

/// `NezhaHeader::encode_into` and `NshView::parse` with the demux reads:
/// `(encode_ns, parse_ns)`.
pub fn nsh_ns() -> (f64, f64) {
    let h = full_header();
    let mut buf = [0u8; NezhaHeader::MAX_WIRE_LEN];
    let encode = ns_per_op(OPS, |_| {
        black_box(black_box(&h).encode_into(&mut buf));
    });
    let len = h.encode_into(&mut buf);
    let wire = buf[..len].to_vec();
    let parse = ns_per_op(OPS, |_| {
        let v = NshView::parse(black_box(&wire)).expect("valid header");
        black_box((v.kind(), v.vnic(), v.vpc()));
    });
    (encode, parse)
}

/// FE selection on a 4-FE pool: canonical 5-tuple hash + `select_fe`.
pub fn lb_hash_ns() -> f64 {
    let mut meta = BackendMeta::new(SimTime(0));
    for s in 1..=4 {
        meta.add_fe(ServerId(s));
        meta.mark_ready(ServerId(s));
    }
    ns_per_op(OPS, |i| {
        let t = tuple(i);
        let k = SessionKey::of(harness::VPC, t);
        black_box(meta.select_fe(&k, t.canonical().stable_hash()));
    })
}

/// `MetricsRegistry::observe` into one histogram, and
/// `LogHistogram::record`: `(observe_ns, record_ns)`.
pub fn telemetry_ns() -> (f64, f64) {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("perfbench.observe", &[]);
    let observe = ns_per_op(OPS, |i| reg.observe(h, black_box(i as f64 * 1e-6)));
    let mut hist = LogHistogram::new();
    let record = ns_per_op(OPS, |i| hist.record(black_box(1e-6 + i as f64 * 1e-7)));
    black_box(hist.count());
    (observe, record)
}

/// One pop plus one push of the engine's event queue, holding `depth`
/// pending events: each popped event is replaced by one `residence`
/// (mean, exponential) later, so the queue's depth and time spread
/// match the workload's.
pub fn engine_ns(depth: usize, residence: SimDuration, seed: u64) -> f64 {
    let depth = depth.max(1);
    let mean = residence.as_secs_f64().max(1e-9);
    let mut rng = SimRng::new(seed);
    let mut engine: Engine<u64> = Engine::new();
    for i in 0..depth as u64 {
        engine.schedule_in(SimDuration::from_secs_f64(rng.exp(mean)), i);
    }
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_secs_f64(rng.exp(mean)))
        .collect();
    ns_per_op(OPS * 2, |i| {
        let ev = engine.pop().expect("the queue holds `depth` events");
        engine.schedule_in(delays[(i % 4096) as usize], black_box(ev.event));
    })
}
