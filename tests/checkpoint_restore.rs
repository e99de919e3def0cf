//! Checkpoint/restore equivalence over the golden trace: interrupting a
//! streaming session at *any* report boundary, freezing it into a
//! [`PipelineCheckpoint`], shipping it through its JSON wire form, and
//! resuming on a fresh stage graph must reproduce the uninterrupted event
//! stream bit for bit — the property session migration rests on.

use experiments::golden::{golden_bench, golden_trial};
use proptest::prelude::*;
use rfid_gen2::report::TagReport;
use rfipad::engine::normalize_events;
use rfipad::{PipelineCheckpoint, PipelineEvent, Recognizer, RfipadError, StageGraph};
use std::sync::OnceLock;

/// The golden fixture is seeded and deterministic but costly to rebuild,
/// so every proptest case shares one recording + recognizer.
fn fixture() -> &'static (Vec<TagReport>, Recognizer) {
    static FIXTURE: OnceLock<(Vec<TagReport>, Recognizer)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let bench = golden_bench();
        let trial = golden_trial(&bench);
        (trial.reports, bench.recognizer)
    })
}

fn pipeline() -> StageGraph {
    StageGraph::builder()
        .recognizer(fixture().1.clone())
        .letter_gap_s(1.5)
        .build()
        .expect("valid gap")
}

fn run_all(p: &mut StageGraph, reports: &[TagReport]) -> Vec<PipelineEvent> {
    let mut events = Vec::new();
    for &r in reports {
        p.push_into(r, &mut events);
    }
    events
}

fn uninterrupted() -> &'static Vec<PipelineEvent> {
    static EVENTS: OnceLock<Vec<PipelineEvent>> = OnceLock::new();
    EVENTS.get_or_init(|| {
        let mut p = pipeline();
        let mut events = run_all(&mut p, &fixture().0);
        p.finish_into(&mut events);
        normalize_events(&mut events);
        events
    })
}

/// Runs the golden trace with an interruption after `split` reports:
/// checkpoint, round-trip the checkpoint through JSON, restore into a
/// fresh graph, and continue there.
fn interrupted_at(split: usize) -> Vec<PipelineEvent> {
    let (reports, _) = fixture();
    let mut first = pipeline();
    let mut events = run_all(&mut first, &reports[..split]);
    let checkpoint = first.checkpoint();
    drop(first); // the original session is gone; only the snapshot survives
    let wire = checkpoint.to_json();
    let parsed = PipelineCheckpoint::from_json(&wire).expect("wire form parses");
    assert_eq!(parsed, checkpoint, "JSON round-trip must be lossless");
    let mut resumed = pipeline();
    resumed.restore_checkpoint(&parsed).expect("restore");
    events.extend(run_all(&mut resumed, &reports[split..]));
    resumed.finish_into(&mut events);
    normalize_events(&mut events);
    events
}

/// The wire form of a golden-trace checkpoint taken right after the first
/// stroke event: it carries a report buffer and a pending stroke.
fn golden_checkpoint() -> &'static str {
    static WIRE: OnceLock<String> = OnceLock::new();
    WIRE.get_or_init(|| {
        let mut p = pipeline();
        let mut events = Vec::new();
        for &r in &fixture().0 {
            p.push_into(r, &mut events);
            if !events.is_empty() {
                break;
            }
        }
        p.checkpoint().to_json()
    })
}

/// Flips one bit of, drops, or inserts one byte into the golden
/// checkpoint (`op` 0, 1, 2 at `at`), then parses, restores, and
/// finishes it.
fn restore_mutated(op: u8, at: usize, byte: u8) -> Result<Vec<PipelineEvent>, RfipadError> {
    let mut bytes = golden_checkpoint().as_bytes().to_vec();
    let at = at % bytes.len();
    match op {
        0 => bytes[at] ^= 1 << (byte % 8),
        1 => {
            bytes.remove(at);
        }
        _ => bytes.insert(at, byte),
    }
    let checkpoint = PipelineCheckpoint::from_json(&String::from_utf8_lossy(&bytes))?;
    let mut graph = pipeline();
    graph.restore_checkpoint(&checkpoint)?;
    Ok(graph.finish())
}

proptest! {
    /// A one-byte corruption of a real checkpoint either still restores
    /// or is refused as a checkpoint error; it never panics.
    #[test]
    fn mutated_checkpoints_restore_or_are_refused(
        op in 0u8..3,
        at in 0usize..usize::MAX,
        byte in any::<u8>(),
    ) {
        let outcome = restore_mutated(op, at, byte);
        prop_assert!(
            matches!(outcome, Ok(_) | Err(RfipadError::Checkpoint(_))),
            "{outcome:?}"
        );
    }

    #[test]
    fn interrupting_anywhere_reproduces_the_uninterrupted_stream(
        split in 1usize..1301
    ) {
        prop_assume!(split < fixture().0.len());
        prop_assert_eq!(&interrupted_at(split), uninterrupted());
    }
}

#[test]
fn interrupting_mid_stroke_reproduces_the_uninterrupted_stream() {
    // Deterministic anchors on top of the random sweep: mid-stroke,
    // immediately after the first report, and just before the end.
    let n = fixture().0.len();
    for split in [1, n / 3, n / 2, n - 1] {
        assert_eq!(
            interrupted_at(split),
            *uninterrupted(),
            "split at {split}/{n}"
        );
    }
}

#[test]
fn corrupted_checkpoints_are_rejected() {
    let (reports, _) = fixture();
    let mut p = pipeline();
    let _ = run_all(&mut p, &reports[..reports.len() / 2]);
    let wire = p.checkpoint().to_json();

    assert!(PipelineCheckpoint::from_json("").is_err());
    assert!(PipelineCheckpoint::from_json("{}").is_err());
    assert!(PipelineCheckpoint::from_json(&wire[..wire.len() / 2]).is_err());

    // A foreign version number must be refused, not guessed at.
    let foreign = wire.replacen("\"version\":2", "\"version\":99", 1);
    assert_ne!(foreign, wire, "the checkpoint names its version");
    assert!(PipelineCheckpoint::from_json(&foreign).is_err());

    // Unknown fields mean the document is not ours.
    let unknown = format!("{{\"mystery\":4,{}", &wire[1..]);
    assert!(PipelineCheckpoint::from_json(&unknown).is_err());
}

#[test]
fn restore_rejects_a_mismatched_pipeline_configuration() {
    let (reports, recognizer) = fixture();
    let mut p = pipeline();
    let _ = run_all(&mut p, &reports[..reports.len() / 2]);
    let checkpoint = p.checkpoint();
    let mut other_gap = StageGraph::builder()
        .recognizer(recognizer.clone())
        .letter_gap_s(2.5)
        .build()
        .expect("valid gap");
    let err = other_gap
        .restore_checkpoint(&checkpoint)
        .expect_err("gap mismatch");
    assert!(
        err.to_string().contains("checkpoint"),
        "unexpected error: {err}"
    );
}
