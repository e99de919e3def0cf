//! `rfibench --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//!
//! Run from the repository root. Prints every metric as `name value unit`,
//! then one JSON result line. Exits 1 when any output diverged from its
//! reference, 2 on bad arguments.

use rfibench::corpus::CorpusSpec;
use rfibench::run::{traced, untraced, Report};
use rfibench::workloads::Workload;
use std::path::Path;
use std::process::ExitCode;

/// Where the traced run writes its spans, relative to the working
/// directory.
const SPANS_DIR: &str = "target/rfibench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn print(report: &Report) {
    for m in &report.metrics {
        match m.samples {
            Some(n) => println!("{} {} {} (samples {n})", m.name, m.value, m.unit),
            None => println!("{} {} {}", m.name, m.value, m.unit),
        }
    }
    if let Some(path) = &report.spans_path {
        println!("spans {path}");
    }
    for what in &report.check_failed {
        println!("check failed: {what}");
    }
    println!("{}", report.json());
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rfibench: {e}");
            eprintln!(
                "usage: rfibench --workload <letters|kiosk|served|sim_trials> --seed <u64> \
                 [--seconds <n>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let spec = CorpusSpec::full();
    let report = if args.trace {
        traced(
            args.workload,
            &spec,
            args.seed,
            args.seconds,
            Path::new(SPANS_DIR),
        )
    } else {
        untraced(args.workload, &spec, args.seed, args.seconds)
    };
    print(&report);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
