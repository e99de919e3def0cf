//! Live kiosk: one ingest-engine session with its own worker thread, fed
//! in reader-sized batches while recognitions are drained as they appear —
//! the deployment shape of an actual installation, where LLRP reports
//! stream in from the network and UI events stream out.
//!
//! Run with: `cargo run --release --example live_kiosk`

use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfipad::engine::{Engine, DEFAULT_INGEST_BATCH};
use rfipad::{PipelineEvent, RfipadConfig, StageGraph};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::volunteer(7);
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let mut rng = StdRng::seed_from_u64(314);

    // Pre-record the reader stream for a user writing "HI".
    let sessions = writer.write_word("HI", 1.0, 1.8, &mut rng);
    let mut observations = Vec::new();
    for session in &sessions {
        observations.extend(bench.record_session(session, &user, &mut rng));
    }
    observations.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));
    println!(
        "streaming {} tag reads through an engine session…",
        observations.len()
    );

    // One worker thread drains the session's queue into its stage graph.
    let engine = Engine::builder().workers(1).build()?;
    let graph = StageGraph::builder()
        .recognizer(bench.recognizer.clone())
        .letter_gap_s(1.8)
        .build()?;
    let session = engine.open_session("kiosk", graph)?;

    // Feed reader-sized batches and show whatever the worker recognized so
    // far after each one, as the kiosk UI would; closing flushes the tail.
    let mut word = String::new();
    for chunk in observations.chunks(DEFAULT_INGEST_BATCH) {
        session.ingest_batch(chunk.to_vec())?;
        show(session.drain_events(), &mut word);
    }
    show(session.close()?, &mut word);

    println!("\nkiosk read: \"{word}\"");
    assert_eq!(word, "HI");

    // The process-global telemetry registry saw the whole run; these are
    // the pipeline counters a fleet scraper would collect from the
    // engine's /metrics endpoint (see EngineBuilder::metrics_addr).
    println!("\npipeline telemetry:");
    let exposition = obs::registry().render_prometheus();
    for line in exposition
        .lines()
        .filter(|l| l.starts_with("rfipad_pipeline_"))
    {
        println!("  {line}");
    }
    Ok(())
}

/// Prints recognitions as the kiosk UI would, appending letters to `word`.
fn show(events: Vec<PipelineEvent>, word: &mut String) {
    for event in events {
        match event {
            PipelineEvent::StrokeDetected {
                stroke,
                response_time_s,
                ..
            } => println!(
                "  [t={:6.2}s] stroke {:6} detected ({:.1} ms compute)",
                stroke.span.end,
                stroke.stroke.to_string(),
                response_time_s * 1000.0
            ),
            PipelineEvent::LetterRecognized {
                letter, strokes, ..
            } => {
                let l = letter.unwrap_or('?');
                println!("  [letter ] {l}  ({} strokes composed)", strokes.len());
                word.push(l);
            }
        }
    }
}
