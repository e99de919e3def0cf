//! Trace record/replay: a recorded session must drive the recognizer and
//! the online pipeline to bit-identical results, in both trace framings.
//!
//! The golden traces under `tests/data/` were recorded once with
//! `trace_tool record`; the golden session itself is fully seeded, so a
//! live re-run here must match them byte for byte — any drift in the
//! simulator, the reader, or the trace codec fails these tests.

use experiments::golden::{golden_bench, golden_trial};
use rfid_gen2::report::TagReport;
use rfid_gen2::source::{LiveSource, ReportSource, TraceSource};
use rfid_gen2::trace::{write_trace, TraceFormat};
use rfipad::{PipelineEvent, RecognizedStroke, Recognizer, StageGraph};

const GOLDEN_JSONL: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_session.jsonl"
);
const GOLDEN_BINARY: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/data/golden_session.rftrace"
);

fn load(path: &str) -> Vec<TagReport> {
    let mut source = TraceSource::open(path).expect("golden trace opens");
    let reports = source.collect_reports();
    assert!(
        source.error().is_none(),
        "decode error: {:?}",
        source.error()
    );
    reports
}

fn assert_reports_bit_identical(a: &[TagReport], b: &[TagReport]) {
    assert_eq!(a.len(), b.len(), "report counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.epc, y.epc, "epc differs at report {i}");
        assert_eq!(x.tag, y.tag, "tag differs at report {i}");
        assert_eq!(
            x.time.to_bits(),
            y.time.to_bits(),
            "time differs at report {i}"
        );
        assert_eq!(
            x.phase.to_bits(),
            y.phase.to_bits(),
            "phase differs at report {i}"
        );
        assert_eq!(
            x.rss_dbm.to_bits(),
            y.rss_dbm.to_bits(),
            "rss differs at report {i}"
        );
        assert_eq!(
            x.doppler_hz.to_bits(),
            y.doppler_hz.to_bits(),
            "doppler differs at report {i}"
        );
        assert_eq!(x.antenna_port, y.antenna_port, "antenna differs at {i}");
        assert_eq!(x.channel_index, y.channel_index, "channel differs at {i}");
    }
}

fn assert_strokes_equal(a: &[RecognizedStroke], b: &[RecognizedStroke]) {
    assert_eq!(a.len(), b.len(), "stroke counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.stroke, y.stroke);
        assert_eq!(x.span, y.span);
        assert_eq!(x.motion, y.motion);
    }
}

/// Online events with the wall-clock `response_time_s` stripped, so replay
/// comparisons only see simulated-time state.
#[derive(Debug, PartialEq)]
enum ReplayEvent {
    Stroke(RecognizedStroke, f64),
    Letter(Option<char>, usize),
}

fn drive_online(recognizer: &Recognizer, reports: &[TagReport]) -> Vec<ReplayEvent> {
    let mut pipeline = StageGraph::builder()
        .recognizer(recognizer.clone())
        .letter_gap_s(1.5)
        .build()
        .expect("valid gap");
    let mut events = Vec::new();
    let record = |batch: Vec<PipelineEvent>, events: &mut Vec<ReplayEvent>| {
        for event in batch {
            match event {
                PipelineEvent::StrokeDetected {
                    stroke,
                    decision_delay_s,
                    ..
                } => events.push(ReplayEvent::Stroke(stroke, decision_delay_s)),
                PipelineEvent::LetterRecognized {
                    letter, strokes, ..
                } => events.push(ReplayEvent::Letter(letter, strokes.len())),
            }
        }
    };
    for r in reports {
        record(pipeline.push(*r), &mut events);
    }
    record(pipeline.finish(), &mut events);
    events
}

#[test]
fn golden_traces_match_live_session_bit_for_bit() {
    let bench = golden_bench();
    let live = golden_trial(&bench);
    for path in [GOLDEN_JSONL, GOLDEN_BINARY] {
        assert_reports_bit_identical(&load(path), &live.reports);
    }
}

#[test]
fn replayed_trace_reproduces_batch_recognition() {
    let bench = golden_bench();
    let live = golden_trial(&bench);
    assert!(live.result.letter.is_some(), "golden session recognizes");
    for path in [GOLDEN_JSONL, GOLDEN_BINARY] {
        let replayed = bench.recognizer.recognize_session(&load(path));
        assert_eq!(replayed.letter, live.result.letter, "letter via {path}");
        assert_strokes_equal(&replayed.strokes, &live.result.strokes);
    }
}

#[test]
fn replayed_trace_reproduces_online_pipeline() {
    let bench = golden_bench();
    let live = golden_trial(&bench);
    let live_events = drive_online(&bench.recognizer, &live.reports);
    assert!(
        live_events
            .iter()
            .any(|e| matches!(e, ReplayEvent::Letter(Some(_), _))),
        "live online run recognizes a letter"
    );
    for path in [GOLDEN_JSONL, GOLDEN_BINARY] {
        let replay_events = drive_online(&bench.recognizer, &load(path));
        assert_eq!(replay_events, live_events, "online replay via {path}");
    }
}

#[test]
fn trace_sources_stream_what_live_source_holds() {
    let bench = golden_bench();
    let live = golden_trial(&bench);
    let from_live = LiveSource::new(live.reports.clone()).collect_reports();
    assert_reports_bit_identical(&from_live, &live.reports);
    for path in [GOLDEN_JSONL, GOLDEN_BINARY] {
        assert_reports_bit_identical(&load(path), &from_live);
    }
}

#[test]
fn truncated_golden_trace_surfaces_one_typed_error_then_ends() {
    // Regression: a binary trace cut mid-record (after a valid length
    // prefix) must surface a typed truncation error exactly once and then
    // keep the iterator terminated — not yield a partial batch, not loop,
    // and not report a generic `UnexpectedEof` I/O error.
    use rfid_gen2::source::SourceError;
    use rfid_gen2::trace::TraceError;

    let bytes = std::fs::read(GOLDEN_BINARY).expect("golden trace bytes");
    let full = load(GOLDEN_BINARY);
    // Cut 5 bytes into the final record's body: its 4-byte length prefix
    // stays intact, the body is truncated.
    let cut = bytes.len() - rfid_gen2::trace::BINARY_RECORD_LEN + 5;
    let mut source = TraceSource::from_reader(&bytes[..cut]).expect("header intact");

    let mut batch = rfid_gen2::report::ReportBatch::new();
    let n = source.next_batch(usize::MAX, &mut batch);
    assert_eq!(
        n,
        full.len() - 1,
        "every record before the truncation decodes"
    );
    assert_eq!(batch.len(), n);
    match source.error() {
        Some(SourceError::Trace(TraceError::Malformed(reason))) => {
            assert!(reason.contains("truncated record body"), "{reason}");
        }
        other => panic!("expected a typed truncation error, got {other:?}"),
    }
    // The latched error pins the stream: no more reports, no more refills.
    assert!(source.next_report().is_none());
    assert_eq!(source.next_batch(16, &mut batch), 0);
    assert_eq!(batch.len(), n, "a dead source must not touch the batch");
    // The error surfaces exactly once.
    assert!(source.take_error().is_some());
    assert!(source.take_error().is_none());

    // A cut inside the 4-byte magic is typed too.
    match TraceSource::from_reader(&bytes[..3]) {
        Err(SourceError::Trace(TraceError::Malformed(reason))) => {
            assert!(reason.contains("truncated magic"), "{reason}");
        }
        other => panic!("expected a typed magic error, got {other:?}"),
    }
}

#[test]
fn reencoding_the_golden_trace_is_byte_stable() {
    // Decode → encode must reproduce the committed files exactly: the
    // codec has one canonical form per framing.
    for (path, format) in [
        (GOLDEN_JSONL, TraceFormat::JsonLines),
        (GOLDEN_BINARY, TraceFormat::Binary),
    ] {
        let reports = load(path);
        let mut reencoded = Vec::new();
        write_trace(&mut reencoded, format, &reports).expect("encode");
        let original = std::fs::read(path).expect("golden trace bytes");
        assert_eq!(reencoded, original, "re-encode of {path} drifted");
    }
}
