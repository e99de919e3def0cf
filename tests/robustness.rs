//! Failure injection: the recognizer facing degraded deployments —
//! unreadable tags, foreign tag traffic, low power, partial streams.

use experiments::golden::{golden_bench, golden_trial, GOLDEN_LETTER};
use experiments::serveload::{serial_replay, session_pipeline};
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::{Stroke, StrokeShape};
use hand_kinematics::user::UserProfile;
use rfid_gen2::report::{TagId, TagReport};
use rfipad::engine::normalize_events;
use rfipad::{PipelineEvent, Recognizer, RfipadConfig};

fn bench() -> Bench {
    Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    )
}

#[test]
fn foreign_tag_traffic_is_ignored() {
    // A public-area reader hears tags that are not part of the pad; their
    // reports must not disturb recognition.
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::Slash), &user, 11);

    let mut polluted = trial.reports.clone();
    // Interleave reports from an unrelated tag population.
    let extra: Vec<TagReport> = trial
        .reports
        .iter()
        .step_by(3)
        .map(|o| {
            TagReport::synthetic(
                TagId(900 + (o.time * 1000.0) as u64 % 7),
                o.time + 1e-4,
                (o.phase * 1.7).rem_euclid(std::f64::consts::TAU),
                -55.0,
            )
        })
        .collect();
    polluted.extend(extra);
    polluted.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));

    let clean = bench.recognizer.recognize_session(&trial.reports);
    let noisy = bench.recognizer.recognize_session(&polluted);
    assert_eq!(clean.strokes.len(), noisy.strokes.len());
    assert_eq!(
        clean.strokes[0].stroke, noisy.strokes[0].stroke,
        "foreign tags changed the verdict"
    );
}

#[test]
fn dead_tag_degrades_gracefully() {
    // Remove one tag's reports entirely (a dead or shadowed tag): the
    // stroke should still be detected, usually with the right shape.
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::HLine), &user, 12);
    let without_tag: Vec<TagReport> = trial
        .reports
        .iter()
        .filter(|o| o.tag != TagId(12))
        .copied()
        .collect();
    let result = bench.recognizer.recognize_session(&without_tag);
    assert_eq!(result.strokes.len(), 1, "stroke still detected");
}

#[test]
fn truncated_stream_detects_nothing_or_partial() {
    // Cut the stream before the stroke begins: nothing must be detected
    // (no hallucinated motion).
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::VLine), &user, 13);
    let start = trial.session.strokes[0].start;
    let before: Vec<TagReport> = trial
        .reports
        .iter()
        .filter(|o| o.time < start - 0.2)
        .copied()
        .collect();
    let result = bench.recognizer.recognize_session(&before);
    assert!(
        result.strokes.is_empty(),
        "hallucinated {:?}",
        result.strokes
    );
}

#[test]
fn low_power_deployment_still_calibrates() {
    // 15 dBm: the paper's lowest setting. Calibration must succeed and at
    // least some strokes recognize, even if accuracy drops.
    let bench = Bench::calibrate(
        Deployment::build(
            DeploymentSpec {
                tx_power_dbm: 15.0,
                ..DeploymentSpec::default()
            },
            42,
        ),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let batch = bench.run_motion_batch(&user, 2, 44);
    assert!(batch.trials == 26);
    assert!(
        batch.accuracy() > 0.3,
        "even at 15 dBm some motions recognize: {:.2}",
        batch.accuracy()
    );
}

#[test]
fn empty_observation_stream_is_handled() {
    let bench = bench();
    let result = bench.recognizer.recognize_session(&[]);
    assert!(result.strokes.is_empty());
    assert_eq!(result.letter, None);
}

#[test]
fn duplicate_timestamps_do_not_panic() {
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::Backslash), &user, 15);
    let mut duplicated = trial.reports.clone();
    duplicated.extend(trial.reports.iter().copied());
    duplicated.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));
    let result = bench.recognizer.recognize_session(&duplicated);
    assert!(!result.strokes.is_empty());
}

#[test]
fn half_the_reads_still_detect_strokes() {
    // Simulated undersampling: drop every other read (a faster hand or a
    // busier MAC). Detection should survive even if classification softens.
    let bench = bench();
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::VLine), &user, 16);
    let halved: Vec<TagReport> = trial
        .reports
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, o)| *o)
        .collect();
    let result = bench.recognizer.recognize_session(&halved);
    assert_eq!(
        result.strokes.len(),
        1,
        "stroke lost under 2× undersampling"
    );
}

#[test]
fn non_finite_phase_or_rss_counts_as_a_missing_report() {
    // RFIW frames and binary traces carry raw f64 bits, so a client can
    // send any value. One poisoned report mid-stroke must change nothing:
    // recognition sees the session as if that report never arrived.
    let bench = golden_bench();
    let reports = golden_trial(&bench).reports;
    let victim = reports.len() / 2;
    let mut deleted = reports.clone();
    deleted.remove(victim);
    let expected = bench.recognizer.recognize_session(&deleted);
    assert_eq!(expected.letter, Some(GOLDEN_LETTER));
    let good = reports[victim];
    let with_phase = |phase| TagReport { phase, ..good };
    let with_rss = |rss_dbm| TagReport { rss_dbm, ..good };
    let poisoned = [
        ("+inf phase", with_phase(f64::INFINITY)),
        ("NaN phase", with_phase(f64::NAN)),
        ("NaN RSS", with_rss(f64::NAN)),
        ("-inf RSS", with_rss(f64::NEG_INFINITY)),
    ];
    for (name, bad) in poisoned {
        let mut hostile = reports.clone();
        hostile[victim] = bad;
        let result = bench.recognizer.recognize_session(&hostile);
        assert_eq!(result, expected, "{name}");
    }
}

/// Prefixes of the golden session: its first 0.5 s (quiet), and its
/// reports up to the one that triggers the first stroke event (a letter
/// pending).
fn golden_prefixes(recognizer: &Recognizer, reports: &[TagReport]) -> [usize; 2] {
    let quiet = reports
        .iter()
        .take_while(|r| r.time < reports[0].time + 0.5)
        .count();
    let mut graph = session_pipeline(recognizer);
    let mut events = Vec::new();
    let pending = 1 + reports
        .iter()
        .position(|r| {
            graph.push_into(*r, &mut events);
            !events.is_empty()
        })
        .expect("the golden session reports a stroke");
    assert!(matches!(events[..], [PipelineEvent::StrokeDetected { .. }]));
    [quiet, pending]
}

#[test]
fn a_report_far_in_the_future_restarts_the_stream() {
    // Framing a report 1e12 s past the history used to size the frame
    // accumulators by the gap and abort the process on the allocation.
    let bench = golden_bench();
    let reports = golden_trial(&bench).reports;
    let [quiet, pending] = golden_prefixes(&bench.recognizer, &reports);
    for prefix in [quiet, pending] {
        let mut graph = session_pipeline(&bench.recognizer);
        let mut ignored = Vec::new();
        graph.push_batch(&reports[..prefix], &mut ignored);
        let mut twin = session_pipeline(&bench.recognizer);
        twin.restore_checkpoint(&graph.checkpoint())
            .expect("a live checkpoint restores");
        let far = TagReport {
            time: 1e12,
            ..reports[prefix - 1]
        };
        let mut events = Vec::new();
        graph.push_into(far, &mut events);
        // The old stream ends exactly as `finish` would end it…
        let mut flushed = Vec::new();
        twin.finish_into(&mut flushed);
        normalize_events(&mut events);
        normalize_events(&mut flushed);
        assert_eq!(events, flushed, "prefix of {prefix} reports");
        assert_eq!(events.is_empty(), prefix == quiet, "prefix of {prefix}");
        // …and the graph holds what a fresh one fed only `far` holds.
        let mut fresh = session_pipeline(&bench.recognizer);
        assert!(fresh.push(far).is_empty());
        assert_eq!(graph.checkpoint(), fresh.checkpoint(), "prefix of {prefix}");
    }
}

#[test]
fn a_recording_after_a_time_jump_is_recognized_on_its_own() {
    let bench = golden_bench();
    let reports = golden_trial(&bench).reports;
    let [quiet, _] = golden_prefixes(&bench.recognizer, &reports);
    for shift in [1e12, 1e6, 1e4] {
        let mut stream = reports[..quiet].to_vec();
        stream.extend(reports.iter().map(|r| TagReport {
            time: r.time + shift,
            ..*r
        }));
        let letters: Vec<Option<char>> = serial_replay(&bench.recognizer, &stream)
            .into_iter()
            .filter_map(|e| match e {
                PipelineEvent::LetterRecognized { letter, .. } => Some(letter),
                PipelineEvent::StrokeDetected { .. } => None,
            })
            .collect();
        assert_eq!(letters, [Some(GOLDEN_LETTER)], "shifted by {shift} s");
    }
}
