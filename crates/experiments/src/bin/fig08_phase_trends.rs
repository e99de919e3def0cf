//! Fig. 8 — symmetry classes of per-tag phase trends during one pass.
//!
//! The paper shows that, unlike RSS, the phase profile a tag sees while the
//! hand passes can be monotone, axially symmetric, or circularly symmetric
//! depending on geometry — which is why the direction estimator uses RSS
//! troughs instead. We sweep the hand across the plate and report a simple
//! symmetry classification of several tags' suppressed phase trends.

use experiments::report::print_table;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::{PlacedStroke, Stroke, StrokeShape};
use hand_kinematics::user::UserProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfipad::RfipadConfig;

fn main() {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        8,
    );
    let user = UserProfile::average();
    let writer = hand_kinematics::writer::Writer::new(bench.deployment.pad, user.clone());
    let mut rng = StdRng::seed_from_u64(8);
    // Slow horizontal sweep across the middle row.
    let placement = PlacedStroke::new(Stroke::new(StrokeShape::HLine), (0.5, 0.02), (0.5, 0.98));
    let session = writer.write_stroke(placement, 1.0, &mut rng);
    let observations = bench.record_session(&session, &user, &mut rng);
    let streams = bench.recognizer.streams(&observations);
    let (t0, t1) = (session.strokes[0].start, session.strokes[0].end);

    // Tags at different relative positions to the sweep line.
    let layout = bench.recognizer.layout();
    let samples = [
        ((2, 0), "row 2, col 0 (on the path, start)"),
        ((2, 2), "row 2, col 2 (on the path, centre)"),
        ((0, 2), "row 0, col 2 (one row above path)"),
        ((4, 2), "row 4, col 2 (two rows below path)"),
    ];
    let mut rows = Vec::new();
    for ((r, c), where_) in samples {
        let id = layout.at(r, c);
        let series = &streams.phases()[r * layout.cols() + c];
        let (_, values) = series.window(t0, t1);
        if values.len() < 8 {
            continue;
        }
        rows.push(vec![
            id.to_string(),
            where_.to_string(),
            classify_symmetry(values).to_string(),
            format!(
                "{:.2}",
                values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                    - values.iter().cloned().fold(f64::INFINITY, f64::min)
            ),
        ]);
    }
    print_table(
        "Fig. 8 — phase-trend symmetry while the hand sweeps the middle row",
        &["tag", "position vs. path", "trend class", "swing (rad)"],
        &rows,
    );
    println!(
        "\nInconsistent per-tag phase patterns (monotone / symmetric / oscillating)\n\
         make phase unusable for tag ordering — the paper's argument for RSS-based\n\
         direction estimation."
    );
}

/// Rough symmetry classification of a trend.
fn classify_symmetry(values: &[f64]) -> &'static str {
    let n = values.len();
    let first = values[..n / 3].iter().sum::<f64>() / (n / 3) as f64;
    let mid = values[n / 3..2 * n / 3].iter().sum::<f64>() / (n / 3).max(1) as f64;
    let last = values[2 * n / 3..].iter().sum::<f64>() / (n - 2 * n / 3) as f64;
    let swing = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - values.iter().cloned().fold(f64::INFINITY, f64::min);
    // Count direction changes for oscillation.
    let mut changes = 0;
    let mut last_sign = 0.0f64;
    for w in values.windows(2) {
        let d: f64 = w[1] - w[0];
        if d.abs() > 0.05 * swing.max(1e-9) {
            if last_sign != 0.0 && d.signum() != last_sign {
                changes += 1;
            }
            last_sign = d.signum();
        }
    }
    if changes >= 4 {
        "circular-symmetric (oscillating)"
    } else if (first - last).abs() < 0.35 * swing && (mid - first).abs() > 0.25 * swing {
        "axially symmetric"
    } else {
        "monotone-ish"
    }
}
