//! Loopback load generation for the TCP ingest server.
//!
//! [`replay_over_loopback`] stands up an [`rfipad::serve::IngestServer`]
//! on `127.0.0.1:0`, replays a report stream over N concurrent client
//! connections (each multiplexing M sessions, batches round-robined
//! across them), and checks every served session's recognitions against
//! the single-stream reference bit for bit — the wire must be a
//! transparent transport. Both the `load_gen` binary (which merges the
//! `serve_loopback` entry into `BENCH_pipeline.json`) and the
//! `serve_loopback` integration test drive it.
//!
//! The module also holds the replay helpers other callers share:
//! [`golden_reports`] (the golden session's reports), [`session_pipeline`]
//! (the stage graph every replay uses) and the reference
//! [`serial_replay`]. `kernel_bench`, `trace_tool`, `fig24_latency`, the
//! integration tests and `rfibench` call them.

use rfid_gen2::report::TagReport;
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::wire::IngestClient;
use rfipad::engine::{normalize_events, Backpressure, Engine, DEFAULT_INGEST_BATCH};
use rfipad::serve::{CollectingSink, EventSink, IngestServer};
use rfipad::{PipelineEvent, Recognizer, StageGraph};
use std::sync::Arc;
use std::time::Instant;

/// Where the committed golden trace lives relative to the repo root.
pub const GOLDEN_TRACE_PATH: &str = "tests/data/golden_session.rftrace";

/// Shape of a loopback replay.
#[derive(Debug, Clone)]
pub struct LoopbackConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Sessions multiplexed on each connection.
    pub sessions_per_connection: usize,
    /// When set, the engine serves its metrics/health/debug endpoint
    /// here for the replay's duration (e.g. `127.0.0.1:7939`).
    pub metrics_addr: Option<String>,
    /// Keep the engine (and its endpoint) alive this long after the
    /// replay drains, so external probes can scrape a live process.
    pub hold_s: f64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            sessions_per_connection: 2,
            metrics_addr: None,
            hold_s: 0.0,
        }
    }
}

/// Outcome of one loopback replay in which every session reproduced the
/// reference events.
#[derive(Debug, Clone, Copy)]
pub struct LoopbackRun {
    /// Wall time of the replay, connect to drain.
    pub wall_s: f64,
    /// Total reports delivered per second across all sessions.
    pub reports_per_s: f64,
    /// Engine workers actually used.
    pub workers: usize,
    /// Total sessions served.
    pub sessions: usize,
    /// Events each session produced.
    pub events_per_session: usize,
    /// Median end-to-end response time over every served event, seconds
    /// (the paper's response-time metric, measured through the wire).
    pub e2e_p50_s: f64,
    /// 99th-percentile end-to-end response time, seconds.
    pub e2e_p99_s: f64,
    /// Events the percentiles were computed over.
    pub e2e_samples: usize,
}

/// The golden report stream: decoded from the committed trace when it is
/// reachable, otherwise re-recorded live (bit-identical by construction —
/// the session is seeded).
pub fn golden_reports(bench: &crate::Bench) -> Vec<TagReport> {
    // Repo-root relative for binaries run from the root, manifest
    // relative for tests whose working directory is the crate.
    let candidates = [
        GOLDEN_TRACE_PATH,
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/data/golden_session.rftrace"
        ),
    ];
    for path in candidates {
        match TraceSource::open(path) {
            Ok(mut source) => match source.try_collect_reports() {
                Ok(reports) if !reports.is_empty() => return reports,
                Ok(_) => obs::warn!("trace is empty"; path = path),
                Err(e) => obs::warn!("{e}"; path = path),
            },
            Err(e) => obs::debug!("{e}"; path = path),
        }
    }
    obs::warn!("no readable trace; re-recording the golden session");
    crate::golden::golden_trial(bench).reports
}

/// The session stage graph every replay (serial, in-process, served)
/// uses.
pub fn session_pipeline(recognizer: &Recognizer) -> StageGraph {
    StageGraph::builder()
        .recognizer(recognizer.clone())
        .letter_gap_s(1.5)
        .build()
        .expect("valid stage graph")
}

/// The single-stream reference replay, normalized for comparison.
pub fn serial_replay(recognizer: &Recognizer, reports: &[TagReport]) -> Vec<PipelineEvent> {
    let mut graph = session_pipeline(recognizer);
    let mut events = Vec::new();
    graph.push_batch(reports, &mut events);
    graph.finish_into(&mut events);
    normalize_events(&mut events);
    events
}

/// Replays `reports` over loopback TCP through an in-process ingest
/// server and checks every session's recognitions against `expected`
/// (the normalized reference from [`serial_replay`]).
///
/// # Errors
///
/// A description of the first divergence: a wire error, a session whose
/// receipt lost reports, or a session whose events differ from the
/// reference.
pub fn replay_over_loopback(
    recognizer: &Recognizer,
    reports: &Arc<Vec<TagReport>>,
    expected: &[PipelineEvent],
    cfg: &LoopbackConfig,
) -> Result<LoopbackRun, String> {
    if cfg.connections == 0 || cfg.sessions_per_connection == 0 {
        return Err("connections and sessions must both be at least 1".into());
    }
    let mut builder = Engine::builder().backpressure(Backpressure::Block);
    if let Some(addr) = &cfg.metrics_addr {
        builder = builder.metrics_addr(addr.clone());
    }
    let engine = Arc::new(builder.build().map_err(|e| e.to_string())?);
    let workers = engine.config().workers;
    let sink = Arc::new(CollectingSink::new());
    let factory_recognizer = recognizer.clone();
    let server = IngestServer::builder()
        .engine(Arc::clone(&engine))
        .pipeline_factory(move |_| Ok(session_pipeline(&factory_recognizer)))
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .map_err(|e| e.to_string())?;
    let addr = server.local_addr();

    let start = Instant::now();
    let clients: Vec<_> = (0..cfg.connections)
        .map(|c| {
            let reports = Arc::clone(reports);
            let sessions = cfg.sessions_per_connection;
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = IngestClient::connect(addr).map_err(|e| e.to_string())?;
                let ids: Vec<String> = (0..sessions).map(|s| format!("pad-{s}")).collect();
                for id in &ids {
                    client.open(id).map_err(|e| e.to_string())?;
                }
                // Round-robin the batches across the connection's
                // sessions: genuine frame-level multiplexing, not one
                // session after another.
                let mut seq = 0u32;
                for chunk in reports.chunks(DEFAULT_INGEST_BATCH) {
                    for id in &ids {
                        seq += 1;
                        let delivery = client
                            .send_batch(id, seq, chunk.to_vec())
                            .map_err(|e| e.to_string())?;
                        if delivery.accepted != chunk.len() as u64 || delivery.dropped != 0 {
                            return Err(format!(
                                "connection {c} session {id}: delivered {} / dropped {}, \
                                 expected {} / 0",
                                delivery.accepted,
                                delivery.dropped,
                                chunk.len()
                            ));
                        }
                    }
                }
                for id in &ids {
                    client.close(id).map_err(|e| e.to_string())?;
                }
                Ok(())
            })
        })
        .collect();
    for client in clients {
        client.join().map_err(|_| "client panicked".to_string())??;
    }
    let wall_s = start.elapsed().as_secs_f64();
    server.shutdown();

    let sessions = cfg.connections * cfg.sessions_per_connection;
    let collected = sink.take();
    if collected.len() != sessions {
        return Err(format!(
            "served {} sessions but the sink drained {}",
            sessions,
            collected.len()
        ));
    }
    // End-to-end response times ride the raw events; they are zeroed by
    // normalization, so collect them before comparing.
    let mut e2e_s: Vec<f64> = Vec::new();
    for (id, events) in collected {
        let mut events = events;
        for event in &events {
            match event {
                PipelineEvent::StrokeDetected {
                    response_time_s, ..
                }
                | PipelineEvent::LetterRecognized {
                    response_time_s, ..
                } => e2e_s.push(*response_time_s),
            }
        }
        normalize_events(&mut events);
        if events != expected {
            return Err(format!(
                "session {id}: served replay diverged from the single-stream replay \
                 ({} events vs {})",
                events.len(),
                expected.len()
            ));
        }
    }
    e2e_s.sort_by(f64::total_cmp);
    let pct = |p: f64| {
        if e2e_s.is_empty() {
            0.0
        } else {
            e2e_s[((e2e_s.len() - 1) as f64 * p).round() as usize]
        }
    };
    let (e2e_p50_s, e2e_p99_s, e2e_samples) = (pct(0.50), pct(0.99), e2e_s.len());

    if cfg.hold_s > 0.0 {
        obs::info!("holding the engine alive for probes"; hold_s = cfg.hold_s,
            addr = cfg.metrics_addr.as_deref().unwrap_or("-"));
        std::thread::sleep(std::time::Duration::from_secs_f64(cfg.hold_s));
    }

    let total_reports = sessions * reports.len();
    Ok(LoopbackRun {
        wall_s,
        reports_per_s: total_reports as f64 / wall_s,
        workers,
        sessions,
        events_per_session: expected.len(),
        e2e_p50_s,
        e2e_p99_s,
        e2e_samples,
    })
}
