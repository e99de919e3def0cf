//! Per-tick segmentation, pinned bit for bit.
//!
//! `tests/trace_replay.rs` pins the strokes and letters a replay emits, but
//! not what the segmentation stage hands downstream at each frame tick: a
//! change that delayed a span by one tick, or moved a tick's
//! `last_activity`, could keep every event and still pass it. These tests
//! drive the public `Framing` → `Segmentation` stages the way `StageGraph`
//! wires them (a retention trim drops stale span-dedup entries) and hash
//! every `SpanBatch`'s spans and `last_activity` bits with FNV-1a 64. The
//! whole-recording `Recognizer::segment` the Fig. 9/22 diagnostics print is
//! hashed too, every `FrameScore` field included. A stage graph
//! checkpointed right after each trim of the idle-spliced stream restores
//! to the uninterrupted run.

use experiments::golden::golden_bench;
use experiments::serveload::golden_reports;
use experiments::trial::Bench;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_gen2::report::TagReport;
use rfipad::engine::normalize_events;
use rfipad::stage::{Framing, Segmentation};
use rfipad::{PipelineCheckpoint, PipelineEvent, Recognizer, Stage, StageGraph};
use std::sync::Arc;

/// Seed of the no-hand reads spliced between the two golden copies.
const IDLE_SEED: u64 = 0x5E6_1D1E;
/// Length of the no-hand stretch: past the 30 s retention window, so a
/// retention trim fires inside it.
const IDLE_S: f64 = 40.0;
/// Gap between spliced recordings, seconds.
const SPLICE_GAP_S: f64 = 0.05;

/// FNV-1a 64 over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// What one stream through the framing and segmentation stages produced.
#[derive(Debug, PartialEq)]
struct TickDigest {
    /// FNV-1a 64 over every batch's span count, span bits and
    /// `last_activity` bits, in tick order.
    hash: u64,
    ticks: usize,
    spans: usize,
    trims: usize,
}

/// Feeds `reports` through a `Framing` → `Segmentation` chain built as
/// `StageGraphBuilder::build` builds it, flushes, and digests every batch.
fn tick_digest(recognizer: &Recognizer, reports: &[TagReport]) -> TickDigest {
    let config = recognizer.config();
    let end_guard_s = config.frame_len_s * config.window_frames as f64;
    let recognizer = Arc::new(recognizer.clone());
    let mut framing = Framing::new(Arc::clone(&recognizer), 1.5, end_guard_s);
    let mut segmentation = Segmentation::new(recognizer, end_guard_s);
    let mut ticks = Vec::new();
    let mut batches = Vec::new();
    let mut hash = Fnv::new();
    let mut digest = TickDigest {
        hash: 0,
        ticks: 0,
        spans: 0,
        trims: 0,
    };
    let mut drive = |ticks: &mut Vec<_>, segmentation: &mut Segmentation| {
        for tick in ticks.drain(..) {
            segmentation.push(tick, &mut batches);
        }
        // Digest and drop each batch at once: a batch holds its tick's
        // stream snapshot.
        for batch in batches.drain(..) {
            digest.ticks += 1;
            digest.spans += batch.spans.len();
            hash.word(batch.spans.len() as u64);
            for span in &batch.spans {
                hash.float(span.start);
                hash.float(span.end);
            }
            hash.float(batch.last_activity);
        }
    };
    let mut trims = 0;
    for &obs in reports {
        framing.push(obs, &mut ticks);
        if let Some(keep_from) = framing.take_trim() {
            segmentation.trim_reported(keep_from);
            trims += 1;
        }
        drive(&mut ticks, &mut segmentation);
    }
    framing.flush(&mut ticks);
    drive(&mut ticks, &mut segmentation);
    digest.hash = hash.0;
    digest.trims = trims;
    digest
}

/// Appends `reports` to `stream`, shifted to start one splice gap after
/// the stream's last report.
fn splice(stream: &mut Vec<TagReport>, reports: &[TagReport]) {
    let base = stream.last().map_or(0.0, |r| r.time + SPLICE_GAP_S);
    let shift = base - reports.first().map_or(0.0, |r| r.time);
    stream.extend(reports.iter().map(|r| TagReport {
        time: r.time + shift,
        ..*r
    }));
}

#[test]
fn golden_ticks_are_pinned() {
    let bench = golden_bench();
    let golden = golden_reports(&bench);
    let digest = tick_digest(&bench.recognizer, &golden);
    assert_eq!(
        digest,
        TickDigest {
            hash: 11_346_457_616_585_935_120,
            ticks: 67,
            spans: 2,
            trims: 0,
        }
    );
}

/// The golden session, a stretch of no-hand reads, and the golden session
/// again.
fn idle_spliced_stream(bench: &Bench) -> Vec<TagReport> {
    let golden = golden_reports(bench);
    let mut rng = StdRng::seed_from_u64(IDLE_SEED);
    let idle = bench
        .reader
        .run(&bench.deployment.scene, &[], 0.0, IDLE_S, &mut rng)
        .events;
    let mut stream = golden.clone();
    splice(&mut stream, &idle);
    splice(&mut stream, &golden);
    stream
}

#[test]
fn idle_spliced_ticks_are_pinned() {
    let bench = golden_bench();
    let stream = idle_spliced_stream(&bench);
    let digest = tick_digest(&bench.recognizer, &stream);
    // Four retention trims fire in the idle stretch. Each drops a prefix
    // of the history; the frame grid stays where the stream began.
    assert_eq!(
        digest,
        TickDigest {
            hash: 7_924_433_684_908_291_595,
            ticks: 523,
            spans: 4,
            trims: 4,
        }
    );
}

#[test]
fn golden_whole_recording_segmentation_is_pinned() {
    let bench = golden_bench();
    let golden = golden_reports(&bench);
    let recognizer = &bench.recognizer;
    let segmentation = recognizer.segment(&recognizer.streams(&golden));
    let mut hash = Fnv::new();
    hash.float(segmentation.threshold);
    for score in &segmentation.frames {
        hash.float(score.time);
        hash.float(score.rms);
        hash.float(score.window_std);
        hash.word(u64::from(score.active));
    }
    for span in &segmentation.spans {
        hash.float(span.start);
        hash.float(span.end);
    }
    assert_eq!(
        (hash.0, segmentation.frames.len(), segmentation.spans.len()),
        (7_735_912_184_471_033_345, 68, 2)
    );
}

#[test]
fn checkpoints_right_after_each_trim_restore_the_uninterrupted_stream() {
    let bench = golden_bench();
    let stream = idle_spliced_stream(&bench);
    let graph = || {
        StageGraph::builder()
            .recognizer(bench.recognizer.clone())
            .letter_gap_s(1.5)
            .build()
            .expect("valid gap")
    };
    // A twin framing stage, fed and trimmed as the graph's is, shows which
    // push made a retention trim; the graph's events show letter closes.
    let config = bench.recognizer.config();
    let end_guard_s = config.frame_len_s * config.window_frames as f64;
    let mut twin = Framing::new(Arc::new(bench.recognizer.clone()), 1.5, end_guard_s);
    let mut ticks = Vec::new();
    let mut pending: Vec<f64> = Vec::new();
    let mut uninterrupted = graph();
    let mut events = Vec::new();
    // (reports fed, checkpoint wire, events emitted) right after each trim.
    let mut cuts = Vec::new();
    let (mut retention, mut closes) = (0, 0);
    let mut last_time = f64::NEG_INFINITY;
    for (i, &r) in stream.iter().enumerate() {
        last_time = last_time.max(r.time);
        let before = events.len();
        twin.set_hold_anchor(pending.first().copied());
        twin.push(
            TagReport {
                time: last_time,
                ..r
            },
            &mut ticks,
        );
        ticks.clear();
        let trimmed = twin.take_trim().is_some();
        uninterrupted.push_into(r, &mut events);
        let mut closed = false;
        for event in &events[before..] {
            match event {
                PipelineEvent::StrokeDetected { stroke, .. } => pending.push(stroke.span.start),
                PipelineEvent::LetterRecognized { strokes, .. } => {
                    pending.clear();
                    twin.trim_after_letter(strokes.last().expect("a closed letter").span.end);
                    closed = true;
                }
            }
        }
        retention += usize::from(trimmed);
        closes += usize::from(closed);
        if trimmed || closed {
            cuts.push((i + 1, uninterrupted.checkpoint().to_json(), events.len()));
        }
    }
    // Closing the first letter trims the history the framing stage alone
    // keeps, so the graph needs one retention trim fewer than
    // `idle_spliced_ticks_are_pinned`; the second letter closes at finish.
    assert_eq!((retention, closes), (3, 1));
    uninterrupted.finish_into(&mut events);
    let last = uninterrupted.checkpoint().to_json();
    cuts.push((stream.len(), last.clone(), events.len()));
    normalize_events(&mut events);
    for (fed, wire, emitted) in cuts {
        let checkpoint = PipelineCheckpoint::from_json(&wire).expect("wire form parses");
        let mut resumed = graph();
        resumed.restore_checkpoint(&checkpoint).expect("restore");
        assert_eq!(resumed.checkpoint().to_json(), wire, "after {fed} reports");
        let mut rest = Vec::new();
        resumed.push_batch(&stream[fed..], &mut rest);
        resumed.finish_into(&mut rest);
        normalize_events(&mut rest);
        assert_eq!(rest, events[emitted..], "resumed after {fed} reports");
        assert_eq!(
            resumed.checkpoint().to_json(),
            last,
            "resumed after {fed} reports"
        );
    }
}
