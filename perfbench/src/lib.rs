//! End-to-end and per-layer benchmark of the Nezha simulator.
//!
//! [`end_to_end`] repeats one workload (set-up, run, read-out) until the
//! time budget is spent and reports the medians of six user-facing
//! metrics. [`per_layer`] adds one traced repetition and standalone
//! per-layer costs. Both check every repetition's deterministic payload
//! against the pinned one for the seed (`pins.txt`), or, for a seed with
//! no pin, against the first repetition. All load is simulated: every
//! number is simulator wall time (or memory) on the host that runs it.
//! The end-to-end times are scaled to a reference host speed by
//! calibration points taken during the repetitions (see [`calib`]).

pub mod calib;
mod layers;
pub mod rss;
pub mod run;
pub mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use run::{Payload, Rep, Trace};
use workload::{Kind, Scale};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that panicked or whose payload was wrong.
    pub failed: u64,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// True when every repetition succeeded.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The pinned payloads: `workload seed payload` per line.
const PINS: &str = include_str!("../pins.txt");

/// The pinned payload of `kind` at `seed`, if there is one.
pub fn pinned(kind: Kind, seed: u64) -> Option<&'static str> {
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let mut parts = l.splitn(3, ' ');
        let (name, s, payload) = (parts.next()?, parts.next()?, parts.next()?);
        (name == kind.name() && s.parse() == Ok(seed)).then_some(payload)
    })
}

/// Seed-independent facts every payload of `kind` must satisfy.
fn check_invariants(kind: Kind, p: &Payload) -> Result<(), String> {
    let f = |name: &str| p.get(name).ok_or(format!("payload lacks {name}"));
    match kind {
        Kind::CrrSteady | Kind::FlowsPersistent => {
            if f("conns_completed")? != f("conns_offered")? || f("pkts_dropped")? != 0 {
                return Err(format!(
                    "{}: not every connection completed loss-free",
                    kind.name()
                ));
            }
        }
        Kind::CrrOverload => {
            let settled = f("conns_completed")? + f("conns_failed")? + f("conns_denied")?;
            if settled > f("conns_offered")? || f("pkts_dropped")? == 0 {
                return Err(
                    "crr_overload: no overload losses, or more outcomes than offers".into(),
                );
            }
        }
        Kind::RegionWeek => {
            if f("windows_closed")? * workload::region_config(0).servers as u64
                != f("server_epochs")?
            {
                return Err("region_week: windows closed != epochs run".into());
            }
        }
    }
    if f("events")? == 0 {
        return Err(format!("{}: the run handled no events", kind.name()));
    }
    Ok(())
}

/// Runs repetitions and checks their payloads against one reference.
struct Checker {
    kind: Kind,
    reference: Option<String>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(kind: Kind, seed: u64, scale: Scale) -> Self {
        let reference = (scale.0 == Scale::FULL.0)
            .then(|| pinned(kind, seed).map(str::to_string))
            .flatten();
        Checker {
            kind,
            reference,
            attempted: 0,
            failed: 0,
        }
    }

    /// Runs `f` once; returns its result when it did not panic and its
    /// payload is right.
    fn attempt<T>(&mut self, f: impl FnOnce() -> (Rep, T)) -> Option<(Rep, T)> {
        self.attempted += 1;
        let verdict = match catch_unwind(AssertUnwindSafe(f)) {
            Err(_) => Err("the repetition panicked".to_string()),
            Ok((rep, extra)) => {
                let got = rep.payload.render();
                check_invariants(self.kind, &rep.payload)
                    .and_then(|()| match &self.reference {
                        Some(want) if *want != got => {
                            Err(format!("payload mismatch\n  want: {want}\n  got:  {got}"))
                        }
                        _ => Ok(()),
                    })
                    .map(|()| {
                        self.reference.get_or_insert(got);
                        (rep, extra)
                    })
            }
        };
        match verdict {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!(
                    "{}: repetition {} failed: {e}",
                    self.kind.name(),
                    self.attempted
                );
                self.failed += 1;
                None
            }
        }
    }
}

/// The median of `xs` (0 when empty).
fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation (0 when empty).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Fewest untraced repetitions per invocation, however short the budget.
const MIN_REPS: u64 = 2;

/// Untraced repetitions while the next one, at the mean length so far,
/// still ends within `seconds` (and at least `min` of them), with
/// host-speed calibration points taken around and during each. Returns
/// the repetitions and every calibration point.
fn repeat(
    checker: &mut Checker,
    kind: Kind,
    seed: u64,
    scale: Scale,
    seconds: f64,
    min: u64,
) -> (Vec<Rep>, Vec<f64>) {
    let t = Instant::now();
    let mut sampler = calib::Sampler::new();
    let mut reps = Vec::new();
    loop {
        let (done, spent) = (checker.attempted, t.elapsed().as_secs_f64());
        if done >= min && spent + spent / done as f64 > seconds {
            break;
        }
        let rep = checker.attempt(|| (run::rep_with(kind, seed, scale, &mut sampler), ()));
        if let Some((rep, ())) = rep {
            eprintln!(
                "{} rep {}: setup {:.4} s, run {:.4} s, peak {:.1} MB, host factors {:.4} {:.4}",
                kind.name(),
                checker.attempted,
                rep.setup_s,
                rep.run_s,
                rep.peak_rss as f64 / 1048576.0,
                rep.setup_host,
                rep.run_host,
            );
            reps.push(rep);
        }
    }
    (reps, sampler.points().to_vec())
}

/// The six end-to-end metrics: medians over repetitions, every time
/// scaled to the reference host speed.
fn end_to_end_metrics(reps: &[Rep]) -> Vec<Metric> {
    let m = |name, unit, f: fn(&Rep) -> f64| Metric {
        name,
        value: median(&reps.iter().map(f).collect::<Vec<_>>()),
        unit,
    };
    vec![
        m("setup_s", "s", |r| r.setup_s * r.setup_host),
        m("run_s", "s", |r| r.run_s * r.run_host),
        m("wall_s", "s", |r| {
            r.setup_s * r.setup_host + r.run_s * r.run_host
        }),
        m("events_per_s", "1/s", |r| {
            r.events as f64 / (r.run_s * r.run_host)
        }),
        m("sim_s_per_wall_s", "s/s", |r| {
            r.sim_s / (r.run_s * r.run_host)
        }),
        m("peak_rss_mb", "MB", |r| r.peak_rss as f64 / 1048576.0),
    ]
}

/// Untraced mode: repeat `kind` for `seconds`, report the end-to-end
/// metrics.
pub fn end_to_end(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut checker = Checker::new(kind, seed, scale);
    let (reps, calib_s) = repeat(&mut checker, kind, seed, scale, seconds, MIN_REPS);
    eprintln!(
        "{}: calibration median {:.4} s, host factor {:.4}",
        kind.name(),
        median(&calib_s),
        calib::REFERENCE_S / median(&calib_s)
    );
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: end_to_end_metrics(&reps),
    }
}

/// Traced mode: untraced repetitions for half of `seconds` (the
/// baseline of the tracing overhead), one traced repetition, and the
/// standalone per-layer costs at the workload's measured sizes.
pub fn per_layer(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Outcome {
    let mut checker = Checker::new(kind, seed, scale);
    let (reps, calib_s) = repeat(&mut checker, kind, seed, scale, seconds / 2.0, 1);
    let traced = checker.attempt(|| run::traced(kind, seed, scale));
    let metrics = match (reps.is_empty(), traced) {
        (false, Some((rep, trace))) => {
            let untraced_run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
            let mut metrics = layer_metrics(kind, seed, &rep, &trace, untraced_run_s);
            metrics.push(Metric {
                name: "host.calibration_s",
                value: median(&calib_s),
                unit: "s",
            });
            metrics
        }
        _ => Vec::new(),
    };
    Outcome {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Assembles the per-layer metrics from the traced repetition and the
/// standalone layer costs. Layers a workload does not run report 0.
fn layer_metrics(kind: Kind, seed: u64, rep: &Rep, tr: &Trace, untraced_run_s: f64) -> Vec<Metric> {
    let c = &tr.counts;
    let per_conn_us: Vec<f64> = tr.setup.per_conn_s.iter().map(|s| s * 1e6).collect();
    let pending: Vec<f64> = tr.pending.iter().map(|&p| p as f64).collect();
    let pending_mean = ratio(pending.iter().sum(), pending.len() as f64);
    let rate = |(wall, events): (f64, u64)| ratio(events as f64, wall);

    // Standalone costs. Datapath layers run only for packet workloads.
    let (mut stage, mut est, mut look, mut ins, mut get, mut enc, mut parse, mut lb, mut eng) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if kind.is_packet() {
        stage = layers::stage_eval_ns();
        (est, look) = layers::session_ns(tr.live_set, seed);
        (ins, get) = layers::dense_ns(tr.live_set, seed);
        (enc, parse) = layers::nsh_ns();
        lb = layers::lb_hash_ns();
        // Little's law: mean residence = mean depth / event rate.
        let residence = pending_mean * rep.sim_s / rep.events.max(1) as f64;
        eng = layers::engine_ns(
            pending_mean.round() as usize,
            nezha_sim::time::SimDuration::from_secs_f64(residence),
            seed,
        );
    }
    let (observe, record) = layers::telemetry_ns();

    // The ledger: deterministic counts x standalone cost per operation.
    let pkts = (c.pkts_ok + c.pkts_dropped) as f64;
    let modeled_ns = if kind.is_packet() {
        rep.events as f64 * eng
            + pkts * (look + lb + get)
            + c.sessions_created as f64 * est
            + c.fe_misses as f64 * 2.0 * stage
            + (c.fe_rx_pkts + c.notifies) as f64 * (enc + parse)
            + c.completed as f64 * observe
    } else {
        tr.region_samples as f64 * observe
    };
    let modeled_s = modeled_ns * 1e-9;
    let residual = (untraced_run_s - modeled_s).abs() / untraced_run_s.max(modeled_s).max(1e-12);

    [
        ("workloads.generate_s", "s", tr.setup.generate_s),
        ("workloads.conns", "count", tr.conns as f64),
        ("cluster.build_s", "s", tr.setup.build_s),
        ("offload.settle_s", "s", tr.setup.settle_s),
        (
            "offload.settle_events",
            "count",
            tr.setup.settle_events as f64,
        ),
        ("inject.s", "s", tr.setup.inject_s),
        ("inject.conns", "count", tr.conns as f64),
        ("inject.peers", "count", tr.peers as f64),
        ("inject.us_per_conn_p50", "us", quantile(&per_conn_us, 0.5)),
        ("inject.us_per_conn_p99", "us", quantile(&per_conn_us, 0.99)),
        ("run.load_events_per_s", "1/s", rate(tr.load)),
        ("run.drain_events_per_s", "1/s", rate(tr.drain)),
        ("run.slice_ms_p50", "ms", quantile(&tr.slice_ms, 0.5)),
        ("run.slice_ms_p99", "ms", quantile(&tr.slice_ms, 0.99)),
        (
            "engine.pending_peak",
            "count",
            pending.iter().copied().fold(0.0, f64::max),
        ),
        ("engine.pending_mean", "count", pending_mean),
        ("engine.events", "count", rep.events as f64),
        ("engine.scheduled", "count", tr.scheduled as f64),
        ("engine.ns_per_event", "ns", eng),
        ("datapath.pkts_ok", "count", c.pkts_ok as f64),
        ("datapath.pkts_dropped", "count", c.pkts_dropped as f64),
        ("datapath.vm_drops", "count", c.vm_drops as f64),
        (
            "datapath.cpu_drops",
            "count",
            c.pkts_dropped.saturating_sub(c.vm_drops) as f64,
        ),
        ("datapath.notifies", "count", c.notifies as f64),
        ("datapath.fe_rx_pkts", "count", c.fe_rx_pkts as f64),
        ("datapath.fe_misses", "count", c.fe_misses as f64),
        ("conn.completed", "count", c.completed as f64),
        ("conn.failed", "count", c.failed as f64),
        (
            "datapath.useful_ratio",
            "ratio",
            ratio(c.pkts_ok as f64, pkts),
        ),
        ("vswitch.live_sessions", "count", tr.live_set as f64),
        ("vswitch.stage_eval_ns", "ns", stage),
        ("vswitch.session_establish_ns", "ns", est),
        ("vswitch.session_lookup_ns", "ns", look),
        ("dense.insert_ns", "ns", ins),
        ("dense.get_ns", "ns", get),
        ("nsh.encode_ns", "ns", enc),
        ("nsh.parse_ns", "ns", parse),
        ("lb.hash_ns", "ns", lb),
        ("metrics.observe_ns", "ns", observe),
        ("loghist.record_ns", "ns", record),
        ("readout.s", "s", tr.readout_s),
        ("region.setup_s", "s", tr.region_setup_s),
        ("region.run_s", "s", tr.region_run_s),
        (
            "region.server_epochs_per_s",
            "1/s",
            ratio(tr.server_epochs as f64, tr.region_run_s),
        ),
        ("region.windows_closed", "count", tr.windows_closed as f64),
        ("region.slo_events", "count", tr.slo_events as f64),
        ("ledger.modeled_s", "s", modeled_s),
        ("ledger.residual_frac", "ratio", residual),
        (
            "trace.overhead_frac",
            "ratio",
            rep.run_s / untraced_run_s - 1.0,
        ),
        ("trace.run_s", "s", rep.run_s),
    ]
    .into_iter()
    .map(|(name, unit, value)| Metric { name, value, unit })
    .collect()
}
