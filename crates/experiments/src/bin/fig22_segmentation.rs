//! Fig. 22 — stroke segmentation quality over five representative letters.
//!
//! L and T (2 strokes), Z and H (3), E (4): the paper reports underfill
//! always below 0.07, insertion rate growing with stroke count, and the
//! per-letter stroke/letter recognition accuracy.

use experiments::report::{print_table, rate};
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::user::UserProfile;
use rfipad::RfipadConfig;

fn main() {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let mut rows = Vec::new();
    for letter in ['L', 'T', 'Z', 'H', 'E'] {
        let mut insertions = 0usize;
        let mut underfills = 0usize;
        let mut truth_strokes = 0usize;
        let mut sessions_with_insertion = 0usize;
        let mut stroke_acc_sum = 0.0;
        let mut letters_ok = 0usize;
        for rep in 0..reps {
            let trial =
                bench.run_letter_trial(letter, &user, 2200 + rep as u64 * 131 + letter as u64);
            let seg = trial.segmentation_outcome();
            insertions += seg.insertions;
            underfills += seg.underfills;
            truth_strokes += seg.truth_count;
            if seg.insertions > 0 {
                sessions_with_insertion += 1;
            }
            stroke_acc_sum += trial.stroke_accuracy();
            if trial.correct() {
                letters_ok += 1;
            }
        }
        rows.push(vec![
            letter.to_string(),
            hand_kinematics::letters::stroke_count(letter)
                .unwrap()
                .to_string(),
            rate(sessions_with_insertion as f64 / reps as f64),
            rate(underfills as f64 / truth_strokes.max(1) as f64),
            rate(stroke_acc_sum / reps as f64),
            rate(letters_ok as f64 / reps as f64),
            insertions.to_string(),
        ]);
    }
    print_table(
        &format!("Fig. 22 — segmentation & recognition over L/T/Z/H/E ({reps} sessions each)"),
        &[
            "letter",
            "strokes",
            "insertion rate",
            "underfill rate",
            "stroke acc",
            "letter acc",
            "raw insertions",
        ],
        &rows,
    );
    println!(
        "\nPaper: underfill < 0.07 everywhere; insertion rate grows with the number\n\
         of strokes (more repositioning periods to mis-detect in)."
    );
}
