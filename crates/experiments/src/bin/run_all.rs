//! Regenerates the entire evaluation in one command:
//! `cargo run --release -p experiments --bin run_all [-- quick] [-- --jobs N]`.
//!
//! Spawns every table/figure binary (they are all seeded and deterministic)
//! and prints a pass/fail summary in the fixed roster order. With `quick`,
//! each binary runs at reduced repetitions for a fast smoke pass. With
//! `--jobs N`, up to `N` binaries run concurrently; because every binary is
//! seeded, its output is independent of what else is running, so the
//! summary is identical to a serial pass — only the wall clock changes.
//! `--jobs 0` picks the machine's available parallelism.

use experiments::fanout;
use std::io::Write;
use std::process::Command;

const EXPERIMENTS: &[(&str, Option<&str>)] = &[
    ("fig02_observations", None),
    ("fig03_theory", None),
    ("fig04_tag_diversity", None),
    ("fig05_deviation_bias", None),
    ("fig06_unwrap", None),
    ("fig07_graymap", None),
    ("fig08_phase_trends", None),
    ("fig09_letter_h", None),
    ("fig11_pair_interference", None),
    ("fig12_array_interference", None),
    ("table1_los_nlos", Some("20")),
    ("fig16_environments", Some("30")),
    ("fig17_tx_power", Some("30")),
    ("fig18_angle", Some("10")),
    ("fig19_distance", Some("30")),
    ("fig20_users", Some("20")),
    ("fig21_time_cdf", Some("25")),
    ("fig22_segmentation", Some("30")),
    ("fig23_letters", Some("15")),
    ("fig24_latency", Some("50")),
    ("fig25_trajectory", None),
    ("coexistence", None),
    ("two_pads", None),
    ("hopping", Some("10")),
    ("ablation_direction", Some("15")),
    ("resilience", Some("15")),
    ("letters_confusion", Some("10")),
];

/// Outcome of one experiment binary.
struct Outcome {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn parse_jobs() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        let requested = if let Some(v) = a.strip_prefix("--jobs=") {
            v.parse::<usize>().ok()
        } else if a == "--jobs" {
            args.get(i + 1).and_then(|v| v.parse::<usize>().ok())
        } else {
            continue;
        };
        let n = requested.unwrap_or_else(|| {
            obs::error!("--jobs expects a number (e.g. --jobs 4)");
            std::process::exit(2);
        });
        if n == 0 {
            return std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1);
        }
        return n;
    }
    1
}

fn run_one(name: &'static str, reps: Option<&str>, quick: bool) -> Outcome {
    let exe_dir = std::env::current_exe()
        .expect("current exe path")
        .parent()
        .expect("exe directory")
        .to_path_buf();
    let mut cmd = Command::new(exe_dir.join(name));
    if let Some(r) = reps {
        let reps_value = if quick {
            "3".to_string()
        } else {
            r.to_string()
        };
        cmd.arg(reps_value);
    }
    match cmd.output() {
        Ok(out) if out.status.success() => Outcome {
            name,
            ok: true,
            detail: String::new(),
        },
        Ok(out) => Outcome {
            name,
            ok: false,
            detail: format!(
                "exit {:?}: {}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            ),
        },
        Err(e) => Outcome {
            name,
            ok: false,
            detail: format!("failed to launch: {e}"),
        },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let jobs = parse_jobs().min(EXPERIMENTS.len()).max(1);

    if jobs > 1 {
        println!(
            "running {} experiments on {jobs} workers …",
            EXPERIMENTS.len()
        );
    }

    // Results come back in roster order, so the report order never
    // depends on timing. One worker runs the roster in order on this
    // thread, printing as it goes.
    let outcomes = fanout::map_ordered(EXPERIMENTS, jobs, |&(name, reps)| {
        if jobs == 1 {
            print!("running {name:<24} … ");
            let _ = std::io::stdout().flush();
        }
        let outcome = run_one(name, reps, quick);
        if jobs == 1 {
            println!("{}", if outcome.ok { "ok" } else { "FAILED" });
        }
        outcome
    });

    if jobs > 1 {
        for o in &outcomes {
            println!("{:<24} {}", o.name, if o.ok { "ok" } else { "FAILED" });
        }
    }

    let failures: Vec<&Outcome> = outcomes.iter().filter(|o| !o.ok).collect();
    println!(
        "\n{} experiments, {} failed{}",
        EXPERIMENTS.len(),
        failures.len(),
        if quick { " (quick mode)" } else { "" }
    );
    for o in &failures {
        let tail: String = o
            .detail
            .lines()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .join(" | ");
        println!("  {}: {tail}", o.name);
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!("\nFull outputs are printed by each binary; EXPERIMENTS.md records the\ncanonical paper-vs-measured comparison.");
}
