//! A tour of the telemetry subsystem through the `nezha::prelude`:
//! build a cluster with the config builder, drive traffic, offload the
//! vNIC, and read everything back through metrics snapshots and the
//! packet-level trace events — including the typed errors the control plane returns
//! for invalid operations.
//!
//! Run with `cargo run --example telemetry_tour`.

use nezha::prelude::*;

const VNIC: VnicId = VnicId(1);
const HOME: ServerId = ServerId(0);
const SERVICE: Ipv4Addr = Ipv4Addr::new(10, 7, 0, 1);
const PORT: u16 = 9000;

fn main() {
    // One fluent chain replaces the old default-then-reassign dance.
    let cfg = ClusterConfig::builder()
        .cores(2)
        .auto(false)
        .seed(7)
        .build();
    let mut cluster = Cluster::new(cfg);

    // Keep the last 4096 packet-level events for inspection.
    cluster.enable_trace(4096);

    let mut vnic = Vnic::new(VNIC, VpcId(1), SERVICE, VnicProfile::default(), HOME);
    vnic.allow_inbound_port(PORT);
    cluster
        .add_vnic(vnic, HOME, VmConfig::with_vcpus(64))
        .expect("fresh cluster fits one vNIC");

    // Control-plane misuse is reported as typed errors, not panics.
    match cluster.trigger_offload(VnicId(99), SimTime::ZERO) {
        Err(NezhaError::UnknownVnic(v)) => println!("refused as expected: unknown vNIC {}", v.0),
        other => panic!("expected UnknownVnic, got {other:?}"),
    }

    // Offload the real vNIC and let the configuration propagate.
    cluster.trigger_offload(VNIC, SimTime::ZERO).unwrap();
    cluster.run_until(SimTime::ZERO + SimDuration::from_secs(3));
    println!("offloaded to {} FEs", cluster.fe_count(VNIC));

    // Drive 200 inbound connections through the FE set.
    let t0 = cluster.now();
    for i in 0..200u32 {
        cluster
            .add_conn(ConnSpec {
                vnic: VNIC,
                vpc: VpcId(1),
                tuple: FiveTuple::tcp(
                    Ipv4Addr::new(10, 7, 2, (i % 200) as u8 + 1),
                    (10_000 + i) as u16,
                    SERVICE,
                    PORT,
                ),
                peer_server: ServerId(8 + (i % 8)),
                kind: ConnKind::Inbound,
                start: t0 + SimDuration::from_micros(500 * i as u64),
                payload: 128,
                overlay_encap_src: None,
            })
            .unwrap();
    }
    cluster.run_until(cluster.now() + SimDuration::from_secs(5));

    // --- Metrics: one deterministic snapshot of every registered series.
    let snap = cluster.metrics().snapshot();
    println!();
    println!("completed conns : {}", snap.counter("conn.completed"));
    println!("packets ok      : {}", snap.counter("pkt.ok"));
    println!("packets dropped : {}", snap.counter("pkt.dropped"));
    println!("offload events  : {}", snap.counter("ctrl.offload_events"));
    let mut lat = snap.histogram("latency.conn");
    if !lat.is_empty() {
        println!(
            "conn latency    : p50 {:.1} us, p99 {:.1} us",
            lat.percentile(50.0) * 1e6,
            lat.percentile(99.0) * 1e6,
        );
    }

    // --- Trace: packet-level events in the recorder's bounded ring.
    let trace = cluster.profiler();
    println!();
    println!(
        "trace ring      : {} events held ({} recorded, {} evicted)",
        trace.events().len(),
        trace.recorded(),
        trace.evicted()
    );
    let on_home = trace.query(TraceFilter::all().on_server(HOME));
    println!("events at BE    : {}", on_home.len());
    if let Some(ev) = on_home.first() {
        println!(
            "first BE event  : {:?} pkt={} kind={:?}",
            ev.at, ev.trace_id, ev.kind
        );
    }
}
