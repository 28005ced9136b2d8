//! Wall-clock loopback benchmark for RNDI.
//!
//! ```text
//! wallbench --workload <point-read|write-heavy|discovery|replicated|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload stands the program up over loopback TCP through its
//! public composition, preloads a seeded namespace, runs closed-loop
//! callers for `--seconds`, checks every answer, and prints its metrics.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` splits the time
//! into layers (see README.md). The last line of standard output is one
//! JSON object; a wrong answer exits 1 after printing it.

mod check;
mod codec;
mod deploy;
mod layers;
mod provenance;
mod report;
mod runner;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use report::Outcome;
use workload::Workload;

const USAGE: &str =
    "usage: wallbench --workload <point-read|write-heavy|discovery|replicated|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?]
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcomes: Vec<(Workload, Outcome)> = Vec::new();
    for &w in &args.workloads {
        match report::run_workload(w, args.seed, args.seconds, args.trace) {
            Ok(o) => outcomes.push((w, o)),
            Err(e) => {
                eprintln!("wallbench: {}: {e}", w.name());
                return ExitCode::from(3);
            }
        }
    }
    let correct = outcomes.iter().all(|(_, o)| o.correct);
    let line = if let [(_, only)] = outcomes.as_slice() {
        only.result_json(None)
    } else {
        report::combined_json(&outcomes)
    };
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
