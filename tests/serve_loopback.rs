//! The TCP ingest server is a transparent transport: replaying the golden
//! trace over loopback — concurrent connections, multiplexed sessions,
//! batched frames — must reproduce the in-process batched engine replay
//! bit for bit, and backpressure must surface on the wire as typed SHED
//! deliveries, never as silent loss.

use experiments::golden::{golden_bench, GOLDEN_LETTER};
use experiments::serveload::{
    golden_reports, replay_over_loopback, serial_replay, session_pipeline, LoopbackConfig,
};
use rfid_gen2::report::TagReport;
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::wire::{decode_payload_v, encode_frame_v, Frame, IngestClient, TraceContext};
use rfipad::engine::{normalize_events, Backpressure, Engine};
use rfipad::serve::{CollectingSink, EventSink, IngestServer};
use rfipad::{PipelineEvent, Recognizer};
use std::io::Write;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// The golden fixture is seeded and deterministic but costly to rebuild,
/// so every test shares one recording + recognizer + reference replay.
fn fixture() -> &'static (Arc<Vec<TagReport>>, Recognizer, Vec<PipelineEvent>) {
    static FIXTURE: OnceLock<(Arc<Vec<TagReport>>, Recognizer, Vec<PipelineEvent>)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bench = golden_bench();
        let reports = Arc::new(golden_reports(&bench));
        let expected = serial_replay(&bench.recognizer, &reports);
        (reports, bench.recognizer, expected)
    })
}

/// The in-process reference the wire must match: the golden trace pushed
/// through one engine session in `ingest_batch` batches, then closed.
fn in_process_batched_replay(
    recognizer: &Recognizer,
    reports: &[TagReport],
    batch: usize,
) -> Vec<PipelineEvent> {
    let engine = Engine::builder().workers(2).build().expect("engine");
    let session = engine
        .open_session("in-process", session_pipeline(recognizer))
        .expect("open");
    let mut receipt = rfipad::IngestReceipt::default();
    for chunk in reports.chunks(batch) {
        receipt += session.ingest_batch(chunk.to_vec()).expect("ingest");
    }
    assert_eq!(receipt.accepted, reports.len() as u64);
    assert_eq!(receipt.dropped, 0);
    let mut events = session.close().expect("close");
    normalize_events(&mut events);
    engine.shutdown();
    events
}

#[test]
fn loopback_replay_is_bit_identical_to_in_process_batched_replay() {
    let (reports, recognizer, expected) = fixture();
    // The reference chain: serial push == in-process batched ingest.
    let in_process = in_process_batched_replay(recognizer, reports, 64);
    assert_eq!(in_process, *expected, "in-process batched replay diverged");
    let letters: Vec<_> = expected
        .iter()
        .filter_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(*letter),
            _ => None,
        })
        .collect();
    assert_eq!(letters, vec![Some(GOLDEN_LETTER)]);

    // Four concurrent connections, two sessions each, over loopback TCP:
    // replay_over_loopback itself asserts every served session matches
    // `expected`, which the in-process replay just reproduced.
    let run = replay_over_loopback(
        recognizer,
        reports,
        expected,
        &LoopbackConfig {
            connections: 4,
            sessions_per_connection: 2,
            ..LoopbackConfig::default()
        },
    )
    .expect("loopback replay");
    assert_eq!(run.sessions, 8);
    assert_eq!(run.events_per_session, expected.len());
    assert!(run.e2e_samples > 0, "served events carry response times");
    assert!(run.e2e_p50_s <= run.e2e_p99_s);
}

#[test]
fn loopback_replay_is_bit_identical_with_tracing_disabled() {
    // Tracing must be pure observation: with telemetry (and thus every
    // span, hop histogram, and flight recorder) disabled, the served
    // replay still reproduces the reference bit for bit — and it already
    // does so with tracing enabled in the test above.
    let (reports, recognizer, expected) = fixture();
    let restore = obs::max_level();
    obs::set_level(obs::Level::Off);
    let run = replay_over_loopback(
        recognizer,
        reports,
        expected,
        &LoopbackConfig {
            connections: 2,
            sessions_per_connection: 1,
            ..LoopbackConfig::default()
        },
    );
    obs::set_level(restore);
    let run = run.expect("loopback replay with telemetry off");
    assert_eq!(run.sessions, 2);
    assert_eq!(run.events_per_session, expected.len());
}

#[test]
fn backpressure_surfaces_as_typed_shed_deliveries() {
    let (reports, recognizer, _) = fixture();
    let engine = Arc::new(
        Engine::builder()
            .workers(1)
            .queue_capacity(1)
            .backpressure(Backpressure::DropOldest)
            .build()
            .expect("engine"),
    );
    let sink = Arc::new(CollectingSink::new());
    let recognizer = recognizer.clone();
    let server = IngestServer::builder()
        .engine(engine)
        .pipeline_factory(move |_| Ok(session_pipeline(&recognizer)))
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .read_timeout(Duration::from_millis(5))
        .build()
        .expect("server");
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    client.open("busy").expect("open busy");
    client.open("pad").expect("open pad");
    // Wedge the single worker behind large batches on `busy`: it chews
    // through tens of thousands of reports while `pad`'s 1-slot queue
    // receives batch after batch. Each new batch must evict the queued
    // one, and every eviction must come back as a SHED delivery — the
    // wire reports loss, it never hides it.
    let big: Vec<TagReport> = reports.iter().cycle().take(16_000).copied().collect();
    for seq in 1..=3 {
        let delivery = client
            .send_batch("busy", seq, big.clone())
            .expect("send busy");
        assert_eq!(delivery.accepted, big.len() as u64);
    }
    let mut total = rfid_gen2::wire::Delivery::default();
    for seq in 1..=8 {
        let delivery = client
            .send_batch("pad", seq, reports[..64].to_vec())
            .expect("send pad");
        assert_eq!(
            delivery.accepted, 64,
            "DropOldest always accepts the new batch"
        );
        total.accepted += delivery.accepted;
        total.dropped += delivery.dropped;
    }
    assert_eq!(total.accepted, 512);
    assert!(
        total.dropped > 0,
        "a wedged 1-slot queue must shed: {total:?}"
    );
    assert_eq!(total.dropped % 64, 0, "sheds are whole evicted batches");
    client.close("pad").expect("close pad");
    client.close("busy").expect("close busy");
    server.shutdown();
}

#[test]
fn a_partial_batch_is_discarded_when_the_reader_drops_mid_frame() {
    // A reader that dies inside a frame: 14 of the golden trace's 21
    // BATCHes are acked, half of the 15th frame is written, and the socket
    // drops. The session must close on exactly the acked reports.
    let (reports, recognizer, _) = fixture();
    let acked = 14 * 64;
    let expected = serial_replay(recognizer, &reports[..acked]);
    assert_ne!(
        serial_replay(recognizer, &reports[..acked + 64]),
        expected,
        "the 15th batch must change the events, or this test shows nothing"
    );
    let sink = Arc::new(CollectingSink::new());
    let recognizer = recognizer.clone();
    let server = IngestServer::builder()
        .engine(Arc::new(
            Engine::builder().workers(1).build().expect("engine"),
        ))
        .pipeline_factory(move |_| Ok(session_pipeline(&recognizer)))
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .read_timeout(Duration::from_millis(5))
        .build()
        .expect("server");
    let mut client = IngestClient::connect(server.local_addr()).expect("connect");
    client.open("pad").expect("open");
    let batches: Vec<&[TagReport]> = reports.chunks(64).collect();
    assert_eq!(batches.len(), 21);
    for (seq, batch) in (1..).zip(&batches[..14]) {
        let delivery = client.send_batch("pad", seq, batch.to_vec()).expect("send");
        assert_eq!(delivery.accepted, 64);
    }
    let frame = Frame::Batch {
        session: "pad".into(),
        seq: 15,
        reports: batches[14].to_vec(),
        trace: None,
    };
    let bytes = encode_frame_v(&frame, client.negotiated_version());
    client
        .stream()
        .write_all(&bytes[..bytes.len() / 2])
        .expect("write half a frame");
    drop(client);
    server.shutdown();
    let mut collected = sink.take();
    assert_eq!(collected.len(), 1, "one session drained");
    let (key, mut events) = collected.drain().next().expect("one session");
    assert!(key.ends_with("#pad"), "{key}");
    normalize_events(&mut events);
    assert_eq!(events, expected);
}

/// FNV-1a, 64-bit, over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn golden_trace_wire_bytes_are_pinned() {
    // The golden trace as consecutive 64-report BATCH frames, in both wire
    // versions (v2 with trace context on every frame). The length and
    // hash of the concatenated bytes are fixed: deployed readers and
    // servers must keep talking to each other, so no refactor of how a
    // batch is held in memory may move a byte on the wire.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/golden_session.rftrace"
    );
    let reports = TraceSource::open(path)
        .expect("golden trace opens")
        .try_collect_reports()
        .expect("golden trace decodes");
    let ctx = TraceContext {
        trace: 0x5eed_0000_0000_0001,
        parent_span: 0x0000_0000_0000_0042,
    };
    for (version, trace, len, hash) in [
        (1, None, 78_501usize, 0x90f8_16fc_4ee4_5be1u64),
        (2, Some(ctx), 78_858, 0xfff2_daef_0d1f_0a48),
    ] {
        let mut wire = Vec::new();
        for (i, chunk) in reports.chunks(64).enumerate() {
            let frame = Frame::Batch {
                session: "golden".into(),
                seq: i as u32 + 1,
                reports: chunk.to_vec(),
                trace,
            };
            let bytes = encode_frame_v(&frame, version);
            assert_eq!(
                decode_payload_v(&bytes[4..], version).expect("frame decodes"),
                frame
            );
            wire.extend_from_slice(&bytes);
        }
        assert_eq!((wire.len(), fnv1a(&wire)), (len, hash), "wire v{version}");
    }
}
