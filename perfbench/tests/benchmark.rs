//! The benchmark's own checks: payload determinism and seed
//! sensitivity, metric names and units, the traced run's coverage, and
//! agreement with `BENCHMARK.json`. Workloads run scaled down; the
//! testbed itself keeps its full size.

use nezha_perfbench::calib::Sampler;
use nezha_perfbench::workload::{Kind, Scale};
use nezha_perfbench::{end_to_end, per_layer, pinned, run, Outcome};

/// Small enough for a debug build, large enough to load every layer.
fn small(kind: Kind) -> Scale {
    match kind {
        Kind::CrrSteady | Kind::FlowsPersistent => Scale(0.05),
        Kind::CrrOverload => Scale(0.1),
        Kind::RegionWeek => Scale(0.15),
    }
}

#[test]
fn same_seed_gives_a_byte_identical_payload() {
    for kind in Kind::ALL {
        let a = run::rep(kind, 7, small(kind)).payload.render();
        let b = run::rep(kind, 7, small(kind)).payload.render();
        assert_eq!(a, b, "{}", kind.name());
    }
}

#[test]
fn different_seeds_give_different_payloads() {
    for kind in Kind::ALL {
        let a = run::rep(kind, 1, small(kind)).payload;
        let b = run::rep(kind, 2, small(kind)).payload;
        assert_ne!(a, b, "{}", kind.name());
    }
}

#[test]
fn the_traced_run_keeps_the_payload() {
    for kind in Kind::ALL {
        let plain = run::rep(kind, 3, small(kind)).payload;
        let (traced, _) = run::traced(kind, 3, small(kind));
        assert_eq!(plain, traced.payload, "{}", kind.name());
    }
}

#[test]
fn calibration_scales_only_calibrated_repetitions() {
    for kind in [Kind::CrrSteady, Kind::RegionWeek] {
        let plain = run::rep(kind, 4, small(kind));
        assert_eq!((plain.setup_host, plain.run_host), (1.0, 1.0));
        let mut sampler = Sampler::new();
        let calibrated = run::rep_with(kind, 4, small(kind), &mut sampler);
        assert_eq!(plain.payload, calibrated.payload, "{}", kind.name());
        // A point before the repetition and one at its end, at least.
        assert!(sampler.points().len() >= 2);
        for f in [calibrated.setup_host, calibrated.run_host] {
            assert!(f.is_finite() && f > 0.0, "{}: factor {f}", kind.name());
        }
    }
}

#[test]
fn pinned_payloads_hold() {
    // The region workload is the one cheap enough to run at full size here.
    let kind = Kind::RegionWeek;
    for seed in [0, 1] {
        let want = pinned(kind, seed).expect("seeds 0 and 1 are pinned");
        assert_eq!(run::rep(kind, seed, Scale::FULL).payload.render(), want);
    }
    for kind in Kind::ALL {
        assert!(
            pinned(kind, 0).is_some(),
            "{} has no pin for seed 0",
            kind.name()
        );
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_metric_has_a_valid_name_and_a_unit() {
    for kind in Kind::ALL {
        let e2e = end_to_end(kind, 5, 0.0, small(kind));
        let layers = per_layer(kind, 5, 0.0, small(kind));
        for o in [&e2e, &layers] {
            assert!(o.correct(), "{}: {o:?}", kind.name());
            for m in &o.metrics {
                assert!(valid_name(m.name), "{}", m.name);
                assert!(!m.unit.is_empty(), "{} has no unit", m.name);
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
        for m in &e2e.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} reads {}",
                kind.name(),
                m.name,
                m.value
            );
        }
        let json = e2e.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
    }
}

/// The per-layer names the benchmark promises, by layer.
const PROMISED_LAYERS: &[&str] = &[
    "workloads.generate_s",
    "workloads.conns",
    "cluster.build_s",
    "offload.settle_s",
    "offload.settle_events",
    "inject.s",
    "inject.conns",
    "inject.peers",
    "inject.us_per_conn_p50",
    "inject.us_per_conn_p99",
    "run.load_events_per_s",
    "run.drain_events_per_s",
    "run.slice_ms_p50",
    "run.slice_ms_p99",
    "engine.pending_peak",
    "engine.pending_mean",
    "engine.events",
    "engine.scheduled",
    "engine.ns_per_event",
    "datapath.pkts_ok",
    "datapath.pkts_dropped",
    "datapath.cpu_drops",
    "datapath.notifies",
    "datapath.fe_rx_pkts",
    "conn.completed",
    "conn.failed",
    "datapath.useful_ratio",
    "vswitch.stage_eval_ns",
    "vswitch.session_establish_ns",
    "vswitch.session_lookup_ns",
    "dense.insert_ns",
    "dense.get_ns",
    "nsh.encode_ns",
    "nsh.parse_ns",
    "lb.hash_ns",
    "metrics.observe_ns",
    "loghist.record_ns",
    "readout.s",
    "region.setup_s",
    "region.run_s",
    "region.server_epochs_per_s",
    "region.windows_closed",
    "region.slo_events",
    "ledger.modeled_s",
    "ledger.residual_frac",
    "trace.overhead_frac",
    "host.calibration_s",
];

#[test]
fn the_traced_run_reports_every_layer_and_a_bounded_residual() {
    for kind in [Kind::CrrSteady, Kind::RegionWeek] {
        let o = per_layer(kind, 9, 0.0, small(kind));
        assert!(o.correct(), "{}", kind.name());
        for name in PROMISED_LAYERS {
            assert!(o.get(name).is_some(), "{}: {name} missing", kind.name());
        }
        let residual = o.get("ledger.residual_frac").expect("reported");
        assert!(
            (0.0..=1.0).contains(&residual),
            "{}: residual {residual}",
            kind.name()
        );
        assert!(o.get("ledger.modeled_s").expect("reported") > 0.0);
    }
    let o = per_layer(Kind::CrrSteady, 9, 0.0, small(Kind::CrrSteady));
    for name in [
        "inject.conns",
        "engine.events",
        "datapath.fe_rx_pkts",
        "vswitch.live_sessions",
    ] {
        assert!(
            o.get(name).expect("reported") > 0.0,
            "crr_steady: {name} reads 0"
        );
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(doc: &str, key: &str) -> Vec<String> {
    let start = doc.find(&format!("\"{key}\"")).expect("key present");
    let section = &doc[start..];
    let section = &section[..section.find(']').expect("array closes")];
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("string closes")].to_string())
        .collect()
}

/// `"name": "…", "unit": "…"` for every metric of `o`.
fn name_units(o: &Outcome) -> Vec<String> {
    o.metrics
        .iter()
        .map(|m| format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit))
        .collect()
}

#[test]
fn benchmark_json_matches_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let kinds: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names_in(&doc, "workloads"), kinds);
    let region = small(Kind::RegionWeek);
    for (key, o) in [
        ("end_to_end", end_to_end(Kind::RegionWeek, 1, 0.0, region)),
        ("per_layer", per_layer(Kind::RegionWeek, 1, 0.0, region)),
    ] {
        let printed: Vec<&str> = o.metrics.iter().map(|m| m.name).collect();
        assert_eq!(names_in(&doc, key), printed, "{key}");
        for entry in name_units(&o) {
            assert!(doc.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
