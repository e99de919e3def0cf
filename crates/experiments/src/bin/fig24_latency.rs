//! Fig. 24 — response time per motion category, measured on the online
//! stage graph.
//!
//! The paper streams 50 records per motion through its C# software on a
//! 2013 laptop and sees responses below 0.1 s. We push the report stream of
//! each trial through an [`rfipad::StageGraph`] and record the compute
//! time of each stroke report.

use experiments::report::print_table;
use experiments::serveload::session_pipeline;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::Stroke;
use hand_kinematics::user::UserProfile;
use rfipad::{PipelineEvent, RfipadConfig};
use sigproc::stats;

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let mut rows = Vec::new();
    for stroke in Stroke::all_thirteen().into_iter().filter(|s| !s.reversed) {
        let mut responses = Vec::new();
        for rep in 0..reps {
            let trial = bench.run_stroke_trial(
                stroke,
                &user,
                2400 + rep as u64 * 37 + stroke.shape.motion_number() as u64,
            );
            let mut graph = session_pipeline(&bench.recognizer);
            for obs in &trial.reports {
                for event in graph.push(*obs) {
                    if let PipelineEvent::StrokeDetected {
                        response_time_s, ..
                    } = event
                    {
                        responses.push(response_time_s);
                    }
                }
            }
            for event in graph.finish() {
                if let PipelineEvent::StrokeDetected {
                    response_time_s, ..
                } = event
                {
                    responses.push(response_time_s);
                }
            }
        }
        if responses.is_empty() {
            continue;
        }
        rows.push(vec![
            format!("#{} ({})", stroke.shape.motion_number(), stroke.shape),
            format!("{:.1}", stats::mean(&responses) * 1000.0),
            format!("{:.1}", stats::percentile(&responses, 50.0) * 1000.0),
            format!("{:.1}", stats::max(&responses) * 1000.0),
            responses.len().to_string(),
        ]);
    }
    print_table(
        &format!("Fig. 24 — online response time per motion ({reps} records each)"),
        &["motion", "mean (ms)", "median (ms)", "max (ms)", "reports"],
        &rows,
    );
    println!(
        "\nPaper: all responses < 0.1 s with per-motion spread < 0.035 s — fast\n\
         enough for online interaction. Shape check: mean responses in the\n\
         millisecond range."
    );
}
