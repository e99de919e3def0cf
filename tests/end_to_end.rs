//! End-to-end integration: physics → Gen2 MAC → calibration → recognition,
//! exactly the path a deployed RFIPad would exercise.

use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::{Stroke, StrokeShape};
use hand_kinematics::user::UserProfile;
use rfipad::RfipadConfig;

fn bench() -> Bench {
    Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    )
}

#[test]
fn thirteen_strokes_recognized_at_paper_accuracy() {
    let bench = bench();
    let user = UserProfile::average();
    let batch = bench.run_motion_batch(&user, 5, 42);
    assert!(
        batch.accuracy() >= 0.85,
        "stroke accuracy {:.3} below the paper's ballpark",
        batch.accuracy()
    );
    assert!(batch.counts.fnr() < 0.1, "FNR {:.3}", batch.counts.fnr());
}

#[test]
fn representative_letters_recognized() {
    let bench = bench();
    let user = UserProfile::average();
    let mut ok = 0;
    let letters = ['I', 'C', 'T', 'L', 'H', 'O', 'D', 'E', 'N', 'Z'];
    for (i, &letter) in letters.iter().enumerate() {
        let trial = bench.run_letter_trial(letter, &user, 500 + i as u64);
        if trial.correct() {
            ok += 1;
        }
    }
    assert!(ok >= 8, "only {ok}/10 letters recognized");
}

#[test]
fn letter_session_segments_every_stroke() {
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('E', &user, 77);
    let outcome = trial.segmentation_outcome(&bench.recognizer);
    assert_eq!(outcome.truth_count, 4);
    assert!(outcome.matched >= 3, "{outcome:?}");
    assert_eq!(outcome.missed + outcome.matched, 4);
}

#[test]
fn segmentation_covers_a_letter_that_closes_before_its_recording_ends() {
    // This trial's idle tail outlasts the letter gap, so the letter closes
    // mid-recording and its history is trimmed; segmentation is scored
    // over the whole recording regardless.
    let bench = bench();
    let trial = bench.run_letter_trial('E', &UserProfile::average(), 2531);
    assert!(trial.correct(), "{:?}", trial.result.letter);
    assert_eq!(trial.result.strokes.len(), 4);
    let outcome = trial.segmentation_outcome(&bench.recognizer);
    assert_eq!((outcome.matched, outcome.missed), (4, 0), "{outcome:?}");
}

#[test]
fn suppression_ablation_never_beats_suppression_in_rich_multipath() {
    let spec = DeploymentSpec {
        location: 4,
        ..DeploymentSpec::default()
    };
    let user = UserProfile::average();
    let with = Bench::calibrate(
        Deployment::build(spec.clone(), 42),
        RfipadConfig::default(),
        1,
    )
    .run_motion_batch(&user, 8, 99);
    let without = Bench::calibrate(
        Deployment::build(spec, 42),
        RfipadConfig::default().without_suppression(),
        1,
    )
    .run_motion_batch(&user, 8, 99);
    assert!(
        with.accuracy() >= without.accuracy(),
        "suppression {:.3} vs baseline {:.3}",
        with.accuracy(),
        without.accuracy()
    );
}

#[test]
fn fast_writers_lose_accuracy() {
    // The paper's Fig. 20/21 finding: volunteers 6 and 9 (fast movers) dip.
    let bench = bench();
    let slow = bench.run_motion_batch(&UserProfile::volunteer(3), 4, 123);
    let fast = bench.run_motion_batch(&UserProfile::volunteer(3).with_speed(3.0), 4, 123);
    assert!(
        fast.accuracy() <= slow.accuracy(),
        "fast {:.3} should not beat slow {:.3}",
        fast.accuracy(),
        slow.accuracy()
    );
}

#[test]
fn direction_pairs_distinguished() {
    // Both directions of the same shape must be reported distinctly.
    let bench = bench();
    let user = UserProfile::average();
    let mut ok = 0;
    let mut n = 0;
    for shape in [StrokeShape::HLine, StrokeShape::VLine] {
        for reversed in [false, true] {
            let stroke = if reversed {
                Stroke::reversed(shape)
            } else {
                Stroke::new(shape)
            };
            for rep in 0..4 {
                let trial = bench.run_stroke_trial(stroke, &user, 9000 + rep);
                n += 1;
                if trial.correct() {
                    ok += 1;
                }
            }
        }
    }
    assert!(ok as f64 / n as f64 >= 0.75, "direction accuracy {ok}/{n}");
}
