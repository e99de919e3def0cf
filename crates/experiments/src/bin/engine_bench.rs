//! Multi-session ingest benchmark: N concurrent sessions replay the
//! golden trace through `rfipad::engine` and every one of them must
//! reproduce the single-stream replay bit for bit.
//!
//! The check is the whole point: the engine's per-session single-consumer
//! scheduling plus [`rfipad::engine::Backpressure::Block`] (lossless)
//! means concurrency must not change recognition — only wall-clock
//! metadata, which [`rfipad::engine::normalize_events`] strips before the
//! comparison. Each session ingests `--batch`-sized batches per
//! `SessionHandle::ingest_batch`; on success the run merges an
//! `ingest_batch` entry into `BENCH_pipeline.json` next to the other
//! perf-trajectory probes.
//!
//! Usage: `cargo run --release -p experiments --bin engine_bench [-- \
//!   --sessions N] [--jobs N] [--capacity N] [--batch N]`
//!
//! Defaults: 8 sessions, one worker per core, 1024-item queues, 64-report
//! batches. The golden trace is read from
//! `tests/data/golden_session.rftrace`; a missing trace falls back to
//! re-recording the golden session live (bit-identical by construction —
//! it is seeded).

use experiments::golden::{golden_bench, GOLDEN_LETTER};
use experiments::serveload::{golden_reports, serial_replay, session_pipeline};
use rfid_gen2::report::TagReport;
use rfipad::engine::{normalize_events, Backpressure, Engine, LatencySnapshot};
use rfipad::PipelineEvent;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    sessions: usize,
    jobs: usize,
    capacity: usize,
    batch: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sessions: 8,
        jobs: 0,
        capacity: 1024,
        batch: 64,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut grab = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<usize>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--sessions" => args.sessions = grab("--sessions")?,
            "--jobs" => args.jobs = grab("--jobs")?,
            "--capacity" => args.capacity = grab("--capacity")?,
            "--batch" => args.batch = grab("--batch")?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }
    if args.batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    Ok(args)
}

/// Outcome of one multi-session replay: wall time, throughput, worst
/// per-session push latencies.
struct ReplayStats {
    wall_s: f64,
    reports_per_s: f64,
    worst_p50: u64,
    worst_p99: u64,
    workers: usize,
}

/// Replays the golden trace through `sessions` concurrent engine sessions,
/// `batch`-report batches per `ingest_batch`, and checks every one against
/// the serial reference: the recognitions must be bit-identical.
fn run_replay(
    bench: &experiments::Bench,
    reports: &Arc<Vec<TagReport>>,
    expected: &Arc<Vec<PipelineEvent>>,
    args: &Args,
) -> Result<ReplayStats, String> {
    let engine = Arc::new(
        Engine::builder()
            .workers(args.jobs)
            .queue_capacity(args.capacity)
            .backpressure(Backpressure::Block)
            .build()
            .map_err(|e| e.to_string())?,
    );
    let workers = engine.config().workers;
    obs::info!("streaming sessions"; sessions = args.sessions, reports = reports.len(),
        workers = workers, queue_capacity = args.capacity, batch = args.batch);

    let start = Instant::now();
    let feeders: Vec<_> = (0..args.sessions)
        .map(|i| {
            let engine = Arc::clone(&engine);
            let reports = Arc::clone(reports);
            let expected = Arc::clone(expected);
            let pipeline = session_pipeline(&bench.recognizer);
            let capacity = args.capacity;
            let batch = args.batch;
            std::thread::spawn(move || -> Result<LatencySnapshot, String> {
                let session = engine
                    .open_session(format!("replay-{i}"), pipeline)
                    .map_err(|e| e.to_string())?;
                let mut receipt = rfipad::IngestReceipt::default();
                for chunk in reports.chunks(batch) {
                    receipt += session
                        .ingest_batch(chunk.to_vec())
                        .map_err(|e| e.to_string())?;
                }
                if receipt.accepted != reports.len() as u64 || receipt.dropped != 0 {
                    return Err(format!(
                        "session {i}: receipt {} accepted / {} dropped, expected {} / 0",
                        receipt.accepted,
                        receipt.dropped,
                        reports.len()
                    ));
                }
                let stats = session.stats();
                if stats.queue_depth > capacity {
                    return Err(format!(
                        "session {i}: queue depth {} exceeds capacity {}",
                        stats.queue_depth, capacity
                    ));
                }
                // Final counters come from close_with_stats: a stats() taken
                // here races the worker's drain and can miss every latency
                // sample of a short batched replay (p50 = p99 = 0).
                let (mut events, stats) = session.close_with_stats().map_err(|e| e.to_string())?;
                normalize_events(&mut events);
                if events != *expected {
                    return Err(format!(
                        "session {i}: engine replay diverged from the single-stream replay \
                         ({} events vs {})",
                        events.len(),
                        expected.len()
                    ));
                }
                Ok(stats.push_latency)
            })
        })
        .collect();

    let mut worst_p50 = 0u64;
    let mut worst_p99 = 0u64;
    for feeder in feeders {
        let latency = feeder.join().map_err(|_| "feeder panicked".to_string())??;
        if latency.count == 0 || latency.p50_ns == 0 {
            return Err(format!(
                "push latency empty after drain ({} samples, p50 {} ns) — \
                 final session stats must include every push",
                latency.count, latency.p50_ns
            ));
        }
        worst_p50 = worst_p50.max(latency.p50_ns);
        worst_p99 = worst_p99.max(latency.p99_ns);
    }
    let wall_s = start.elapsed().as_secs_f64();

    let stats = engine.stats();
    let total_reports = args.sessions * reports.len();
    if stats.reports_in != total_reports as u64 || stats.reports_dropped != 0 {
        return Err(format!(
            "engine counted {} in / {} dropped, expected {total_reports} / 0",
            stats.reports_in, stats.reports_dropped
        ));
    }
    Ok(ReplayStats {
        wall_s,
        reports_per_s: total_reports as f64 / wall_s,
        worst_p50,
        worst_p99,
        workers,
    })
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    obs::info!("calibrating golden bench");
    let bench = golden_bench();
    let reports = Arc::new(golden_reports(&bench));
    let expected = Arc::new(serial_replay(&bench.recognizer, &reports));
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

    let replay = run_replay(&bench, &reports, &expected, &args)?;
    println!(
        "{} sessions replayed '{GOLDEN_LETTER}' identically in {:.3} s with \
         {}-report batches ({:.0} reports/s; worst per-session push p50 {} ns, p99 {} ns)",
        args.sessions,
        replay.wall_s,
        args.batch,
        replay.reports_per_s,
        replay.worst_p50,
        replay.worst_p99,
    );
    let entry = format!(
        "{{ \"sessions\": {}, \"workers\": {}, \"cores\": {cores}, \"queue_capacity\": {}, \
         \"batch\": {}, \"reports_per_session\": {}, \"wall_s\": {:.3}, \
         \"reports_per_s\": {:.0}, \"push_p50_ns\": {}, \"push_p99_ns\": {}, \
         \"events_per_session\": {}, \"identical_to_serial\": true }}",
        args.sessions,
        replay.workers,
        args.capacity,
        args.batch,
        reports.len(),
        replay.wall_s,
        replay.reports_per_s,
        replay.worst_p50,
        replay.worst_p99,
        expected.len(),
    );
    experiments::benchjson::merge_entry("ingest_batch", &entry)
        .map_err(|e| format!("BENCH_pipeline.json: {e}"))?;
    obs::info!("merged ingest_batch entry into BENCH_pipeline.json");
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
