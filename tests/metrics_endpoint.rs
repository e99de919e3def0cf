//! Live-engine exposition coverage: with the HTTP endpoint enabled, a
//! serving [`rfipad::Engine`] must expose every telemetry layer at once —
//! reader counters from the simulated Gen2 inventory, per-stage pipeline
//! histograms, engine aggregates, and per-session queue/drop gauges —
//! and the text must survive the exposition-format validator.

use experiments::golden::{golden_bench, golden_trial, GOLDEN_LETTER};
use rfipad::{Engine, PipelineEvent, StageGraph};
use std::io::{Read as _, Write as _};

fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("response has a body");
    (head.to_string(), body.to_string())
}

#[test]
fn live_engine_exposition_covers_every_layer() {
    // The golden trial runs the simulated Gen2 reader, so the
    // `rfid_reader_*` families are populated before the engine serves.
    let bench = golden_bench();
    let trial = golden_trial(&bench);

    let engine = Engine::builder()
        .workers(2)
        .metrics_addr("127.0.0.1:0")
        .build()
        .expect("engine with endpoint");
    let graph = StageGraph::builder()
        .recognizer(bench.recognizer.clone())
        .letter_gap_s(1.5)
        .build()
        .expect("stage graph");
    let session = engine
        .open_session("kiosk-metrics", graph)
        .expect("open session");
    for r in &trial.reports {
        session.ingest_batch(vec![*r]).expect("ingest");
    }
    // Wait for the worker to process every queued report, so the stage
    // histograms have observations when we scrape.
    loop {
        let stats = session.stats();
        if stats.queue_depth == 0 && stats.push_latency.count == trial.reports.len() as u64 {
            break;
        }
        std::thread::yield_now();
    }

    let addr = engine.metrics_local_addr().expect("endpoint address");
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    obs::expo::validate(&body).expect("well-formed exposition");
    for needle in [
        "rfid_reader_reads_total",
        "rfid_reader_inventory_rounds_total",
        "rfipad_stage_push_seconds_bucket{stage=\"framing\"",
        "rfipad_stage_push_seconds_bucket{stage=\"segmentation\"",
        "rfipad_stage_push_seconds_bucket{stage=\"motion\"",
        "rfipad_stage_push_seconds_bucket{stage=\"letter\"",
        "rfipad_stage_push_seconds_bucket{stage=\"grammar\"",
        "rfipad_pipeline_reports_total",
        "rfipad_engine_reports_in_total",
        "rfipad_engine_push_latency_ns_count",
        "rfipad_hop_seconds_bucket{hop=\"queue\"",
        "rfipad_hop_seconds_bucket{hop=\"stage:framing\"",
        "rfipad_session_queue_depth{session=\"kiosk-metrics\"}",
        "rfipad_session_reports_dropped{session=\"kiosk-metrics\"}",
    ] {
        assert!(body.contains(needle), "exposition is missing {needle}");
    }

    // Health, readiness, and debug routes ride the same endpoint.
    let (head, body) = http_get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ok\n");
    let (head, body) = http_get(addr, "/readyz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, "ready\n");
    let (head, json) = http_get(addr, "/debug/journal");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(json.starts_with("{\"entries\":["), "{json}");
    let (head, _) = http_get(addr, "/debug/trace/no-such-session");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    let (head, json) = http_get(addr, "/stats.json");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(json.contains("\"id\":\"kiosk-metrics\""));
    assert!(json.contains("\"metrics\":{"));

    // The instrumentation must not change recognition.
    let mut events = session.close().expect("close");
    rfipad::engine::normalize_events(&mut events);
    let letters: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(*letter),
            _ => None,
        })
        .collect();
    assert_eq!(letters, vec![Some(GOLDEN_LETTER)]);
    engine.shutdown();
}

/// Every JSON document the workspace writes must pass the strict
/// `obs::json` reader, not just substring checks.
#[test]
fn every_json_writer_output_parses_strictly() {
    let bench = golden_bench();
    let trial = golden_trial(&bench);
    let engine = Engine::builder().workers(1).build().expect("engine");
    let graph = StageGraph::builder()
        .recognizer(bench.recognizer.clone())
        .build()
        .expect("stage graph");
    let session = engine.open_session("json-writers", graph).expect("open");
    for r in &trial.reports[..trial.reports.len() / 2] {
        session.ingest_batch(vec![*r]).expect("ingest");
    }
    let checkpoint = session.checkpoint().expect("checkpoint");
    obs::warn!("journal entry with \"quotes\"\tand a tab");
    let recorder = obs::trace::FlightRecorder::new(4);
    recorder.record(obs::trace::SpanEvent {
        trace: obs::trace::TraceId(1),
        span: obs::trace::SpanId(2),
        parent: None,
        name: "stage:\"odd\"\nname".into(),
        start_us: 3,
        end_us: 4,
    });
    for (writer, document) in [
        ("Engine::metrics_json", engine.metrics_json()),
        ("Registry::render_json", obs::registry().render_json()),
        ("journal_json", obs::logging::journal_json()),
        ("FlightRecorder::to_json", recorder.to_json()),
        ("PipelineCheckpoint::to_json", checkpoint.to_json()),
        (
            "encode_json_line",
            rfid_gen2::trace::encode_json_line(&trial.reports[0]),
        ),
    ] {
        if let Err(e) = obs::json::parse(&document) {
            panic!("{writer} wrote invalid JSON: {e}");
        }
    }
    session.close().expect("close");
}
