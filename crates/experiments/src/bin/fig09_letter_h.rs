//! Fig. 9 — phase, frame RMS, and Std(RMS) while a volunteer writes 'H'.
//!
//! The three strokes stand out as high-variance bursts and the adjustment
//! intervals between them stay near zero — the basis of segmentation.

use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::user::UserProfile;
use rfipad::RfipadConfig;

fn main() {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        9,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('H', &user, 909);
    let segmentation = bench
        .recognizer
        .segment(&bench.recognizer.streams(&trial.reports));

    println!("== Fig. 9 — writing 'H': frame diagnostics ==");
    println!(
        "{:>6}  {:>8}  {:>9}  {:>7}",
        "t (s)", "rms", "std(rms)", "active"
    );
    for f in &segmentation.frames {
        // Print a bar chart alongside the numbers.
        let bar_len = (f.rms * 2.0).min(40.0) as usize;
        println!(
            "{:>6.1}  {:>8.2}  {:>9.3}  {:>7}  {}",
            f.time,
            f.rms,
            f.window_std,
            if f.active { "STROKE" } else { "" },
            "#".repeat(bar_len)
        );
    }
    println!("\nground-truth strokes:");
    for (i, s) in trial.session.strokes.iter().enumerate() {
        println!(
            "  stroke {} ({}): {:.2}..{:.2} s",
            i + 1,
            s.stroke,
            s.start,
            s.end
        );
    }
    println!("detected spans:");
    for s in &segmentation.spans {
        println!("  {:.2}..{:.2} s", s.start, s.end);
    }
    println!("threshold: {:.3}", segmentation.threshold);
    println!("recognized letter: {:?}", trial.result.letter);
}
