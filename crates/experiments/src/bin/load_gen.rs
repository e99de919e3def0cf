//! Loopback load generator for the TCP ingest server: replays the golden
//! trace over N concurrent client connections, each multiplexing M
//! sessions onto an in-process `rfipad::serve` server, and requires every
//! served session to reproduce the single-stream replay bit for bit —
//! the wire is a transport, never an interpretation.
//!
//! On success the run merges a `serve_loopback` entry into
//! `BENCH_pipeline.json` next to the other perf-trajectory probes.
//!
//! Usage: `cargo run --release -p experiments --bin load_gen [-- \
//!   --connections N] [--sessions N] [--metrics-addr HOST:PORT] [--hold SECS]`
//!
//! `--metrics-addr` serves the engine's metrics/health/debug endpoint for
//! the replay's duration, and `--hold` keeps the process (and endpoint)
//! alive after the drain so external probes — `bench-check.sh` smoke-curls
//! `/healthz`, `/readyz` and `/debug/journal` — hit a live engine.
//!
//! Defaults: 4 connections × 2 sessions. Every run sends
//! `DEFAULT_INGEST_BATCH`-report batches to an engine with its default
//! workers (one per core) and queue capacity. The golden trace is read from
//! `tests/data/golden_session.rftrace` when run from the repo root; a
//! missing trace falls back to re-recording the golden session live
//! (bit-identical by construction — it is seeded).

use experiments::golden::{golden_bench, GOLDEN_LETTER};
use experiments::serveload::{golden_reports, replay_over_loopback, serial_replay, LoopbackConfig};
use rfipad::engine::DEFAULT_INGEST_BATCH;
use rfipad::PipelineEvent;
use std::process::ExitCode;
use std::sync::Arc;

fn parse_args() -> Result<LoopbackConfig, String> {
    let mut cfg = LoopbackConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--connections" => cfg.connections = grab("--connections")?,
            "--sessions" => cfg.sessions_per_connection = grab("--sessions")?,
            "--metrics-addr" => {
                cfg.metrics_addr = Some(
                    it.next()
                        .ok_or("--metrics-addr needs a value".to_string())?,
                )
            }
            "--hold" => {
                cfg.hold_s = it
                    .next()
                    .ok_or("--hold needs a value".to_string())?
                    .parse::<f64>()
                    .map_err(|e| format!("--hold: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cfg.connections == 0 || cfg.sessions_per_connection == 0 {
        return Err("--connections and --sessions must be at least 1".into());
    }
    Ok(cfg)
}

fn run() -> Result<(), String> {
    let cfg = parse_args()?;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    obs::info!("calibrating golden bench");
    let bench = golden_bench();
    let reports = Arc::new(golden_reports(&bench));
    let expected = serial_replay(&bench.recognizer, &reports);
    let letters: Vec<_> = expected
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(*letter),
            _ => None,
        })
        .collect();
    if letters != vec![Some(GOLDEN_LETTER)] {
        return Err(format!(
            "serial replay must recognize '{GOLDEN_LETTER}', got {letters:?}"
        ));
    }

    obs::info!("replaying over loopback"; connections = cfg.connections,
        sessions_per_connection = cfg.sessions_per_connection, batch = DEFAULT_INGEST_BATCH,
        reports = reports.len());
    let run = replay_over_loopback(&bench.recognizer, &reports, &expected, &cfg)?;
    println!(
        "{} connections × {} sessions replayed '{GOLDEN_LETTER}' identically over \
         loopback in {:.3} s ({:.0} reports/s through {} workers)",
        cfg.connections, cfg.sessions_per_connection, run.wall_s, run.reports_per_s, run.workers,
    );

    let entry = format!(
        "{{ \"connections\": {}, \"sessions_per_connection\": {}, \"workers\": {}, \
         \"cores\": {cores}, \"batch\": {}, \"reports_per_session\": {}, \
         \"wall_s\": {:.3}, \"reports_per_s\": {:.0}, \"events_per_session\": {}, \
         \"identical_to_serial\": true }}",
        cfg.connections,
        cfg.sessions_per_connection,
        run.workers,
        DEFAULT_INGEST_BATCH,
        reports.len(),
        run.wall_s,
        run.reports_per_s,
        run.events_per_session,
    );
    experiments::benchjson::merge_entry("serve_loopback", &entry)
        .map_err(|e| format!("BENCH_pipeline.json: {e}"))?;
    obs::info!("merged serve_loopback entry into BENCH_pipeline.json");

    println!(
        "end-to-end response time over {} served events: p50 {:.6} s, p99 {:.6} s",
        run.e2e_samples, run.e2e_p50_s, run.e2e_p99_s,
    );
    let entry = format!(
        "{{ \"sessions\": {}, \"events\": {}, \"p50_s\": {:.6}, \"p99_s\": {:.6} }}",
        run.sessions, run.e2e_samples, run.e2e_p50_s, run.e2e_p99_s,
    );
    experiments::benchjson::merge_entry("serve_e2e_latency", &entry)
        .map_err(|e| format!("BENCH_pipeline.json: {e}"))?;
    obs::info!("merged serve_e2e_latency entry into BENCH_pipeline.json");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            obs::error!("{e}");
            ExitCode::FAILURE
        }
    }
}
