//! Virtual touch screen: the paper's motivating interaction — clicks,
//! page swipes, and scroll gestures over the pad, recognized live through
//! the streaming pipeline.
//!
//! A kiosk UI only needs three of RFIPad's motions: `click` to select,
//! `−` (left/right) to flip pages, `|` (up/down) to scroll. This example
//! simulates a user operating such a kiosk and maps recognized strokes to
//! UI commands as they arrive from the online engine.
//!
//! Run with: `cargo run --release --example virtual_keyboard`

use hand_kinematics::stroke::{default_placement, Stroke, StrokeShape};
use hand_kinematics::trajectory::HandTarget;
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rf_sim::targets::MovingTarget;
use rfipad::prelude::*;

// Reuse the experiment harness's deployment builder: it assembles the same
// scene the quickstart builds by hand.
use experiments::{Bench, Deployment, DeploymentSpec};

/// The kiosk commands the touch-screen motions map to.
fn command_for(stroke: Stroke) -> &'static str {
    match (stroke.shape, stroke.reversed) {
        (StrokeShape::Click, _) => "SELECT",
        (StrokeShape::HLine, false) => "NEXT PAGE",
        (StrokeShape::HLine, true) => "PREVIOUS PAGE",
        (StrokeShape::VLine, false) => "SCROLL DOWN",
        (StrokeShape::VLine, true) => "SCROLL UP",
        _ => "(unmapped gesture)",
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let mut rng = StdRng::seed_from_u64(77);

    // The user's interaction: scroll down twice, flip a page, click.
    let gestures = [
        Stroke::new(StrokeShape::VLine),
        Stroke::new(StrokeShape::VLine),
        Stroke::new(StrokeShape::HLine),
        Stroke::new(StrokeShape::Click),
    ];

    // Build one long session with pauses between gestures.
    let mut all_observations = Vec::new();
    let mut t = 1.0;
    let mut truth = Vec::new();
    for &gesture in &gestures {
        let session = writer.write_stroke(default_placement(gesture), t, &mut rng);
        let hand = HandTarget::new(session.trajectory.clone(), user.hand_rcs_m2);
        let arm =
            HandTarget::with_offset(session.trajectory.clone(), user.arm_rcs_m2, user.arm_offset);
        let targets: Vec<&dyn MovingTarget> = vec![&hand, &arm];
        let start = t - 0.8;
        let run = bench.reader.run(
            &bench.deployment.scene,
            &targets,
            start,
            session.end_time() - start + 1.0,
            &mut rng,
        );
        all_observations.extend(run.events.iter().copied());
        truth.push(gesture);
        t = session.end_time() + 2.5;
    }

    // Stream the reads through the online engine and print UI commands as
    // the kiosk would execute them.
    let mut graph = StageGraph::builder()
        .recognizer(bench.recognizer.clone())
        .letter_gap_s(1.8)
        .build()?;
    let mut executed = Vec::new();
    for obs in &all_observations {
        for event in graph.push(*obs) {
            if let PipelineEvent::StrokeDetected {
                stroke,
                response_time_s,
                ..
            } = event
            {
                let cmd = command_for(stroke.stroke);
                println!(
                    "t={:6.2}s  gesture {:8}  ->  {:14} (reported in {:.1} ms)",
                    stroke.span.end,
                    stroke.stroke.to_string(),
                    cmd,
                    response_time_s * 1000.0
                );
                executed.push(stroke.stroke);
            }
        }
    }
    for event in graph.finish() {
        if let PipelineEvent::StrokeDetected { stroke, .. } = event {
            println!(
                "t=  end   gesture {:8}  ->  {}",
                stroke.stroke.to_string(),
                command_for(stroke.stroke)
            );
            executed.push(stroke.stroke);
        }
    }

    println!(
        "\n{} gestures performed, {} commands executed, {} matched exactly",
        truth.len(),
        executed.len(),
        truth.iter().zip(&executed).filter(|(a, b)| a == b).count()
    );
    assert!(
        executed.len() == truth.len(),
        "every gesture should produce exactly one command"
    );
    Ok(())
}
