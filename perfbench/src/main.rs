//! `nezha-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints progress on standard error and, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//!
//! `nezha-perfbench --workload NAME --pin FROM TO` prints the pin lines
//! of seeds `FROM..=TO` for `pins.txt`.

use std::process::ExitCode;

use nezha_perfbench::workload::{Kind, Scale};
use nezha_perfbench::{end_to_end, per_layer, run};

const USAGE: &str =
    "usage: nezha-perfbench --workload crr_steady|crr_overload|flows_persistent|region_week \
                     (--seed N --seconds S --trace 0|1 | --pin FROM TO)";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: Option<(u64, u64)>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, false, None);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--pin" => {
                let from = value()?.parse().map_err(|e| format!("--pin: {e}"))?;
                let to = args.next().ok_or("--pin needs FROM TO")?;
                pin = Some((from, to.parse().map_err(|e| format!("--pin: {e}"))?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    if pin.is_none() && (seed.is_none() || seconds.is_none()) {
        return Err("--seed and --seconds are required".into());
    }
    Ok(Args {
        kind,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(0.0),
        trace,
        pin,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((from, to)) = args.pin {
        for seed in from..=to {
            let payload = run::rep(args.kind, seed, Scale::FULL).payload.render();
            println!("{} {seed} {payload}", args.kind.name());
        }
        return ExitCode::SUCCESS;
    }
    if nezha_perfbench::pinned(args.kind, args.seed).is_none() {
        eprintln!(
            "{}: seed {} has no pinned payload; repetitions are checked against the first",
            args.kind.name(),
            args.seed
        );
    }
    let outcome = if args.trace {
        per_layer(args.kind, args.seed, args.seconds, Scale::FULL)
    } else {
        end_to_end(args.kind, args.seed, args.seconds, Scale::FULL)
    };
    for m in &outcome.metrics {
        eprintln!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
