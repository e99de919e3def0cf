//! The golden session: one fixed, fully deterministic recorded writing
//! session shared by the trace tool, the replay integration test, and the
//! pipeline benchmark.
//!
//! Everything here is seeded, so rebuilding the bench and re-running the
//! session reproduces the exact same report stream bit for bit — which is
//! what lets a trace recorded once be checked against a live re-run.

use crate::setup::{Deployment, DeploymentSpec};
use crate::trial::{Bench, LetterTrial};
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::{Writer, WritingSession};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfipad::RfipadConfig;

/// Deployment seed for the golden bench.
pub const GOLDEN_DEPLOYMENT_SEED: u64 = 42;
/// Calibration RNG seed for the golden bench.
pub const GOLDEN_CALIBRATION_SEED: u64 = 1;
/// The letter written in the golden session.
pub const GOLDEN_LETTER: char = 'L';
/// Trial seed for the golden session.
pub const GOLDEN_TRIAL_SEED: u64 = 7;

/// Builds the golden bench: the default deployment, calibrated.
pub fn golden_bench() -> Bench {
    Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), GOLDEN_DEPLOYMENT_SEED),
        RfipadConfig::default(),
        GOLDEN_CALIBRATION_SEED,
    )
}

/// Runs the golden session live on a bench built by [`golden_bench`]:
/// an average user writes [`GOLDEN_LETTER`]. The trial carries both the
/// report stream (what a trace records) and the live recognition result
/// (what a replay must reproduce).
pub fn golden_trial(bench: &Bench) -> LetterTrial {
    bench.run_letter_trial(GOLDEN_LETTER, &UserProfile::average(), GOLDEN_TRIAL_SEED)
}

/// The golden session written but not yet recorded: the average user's
/// [`GOLDEN_LETTER`] and the trial rng, positioned where
/// [`Bench::record_session`] takes it over. Recording it on a
/// [`golden_bench`] yields [`golden_trial`]'s reports, so benchmarks can
/// time or count the reader alone.
pub fn golden_session(bench: &Bench) -> (WritingSession, StdRng) {
    let writer = Writer::new(bench.deployment.pad, UserProfile::average());
    let mut rng = StdRng::seed_from_u64(GOLDEN_TRIAL_SEED);
    let session = writer.write_letter(GOLDEN_LETTER, 1.0, &mut rng);
    (session, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_the_golden_session_reproduces_the_trial() {
        let bench = golden_bench();
        let (session, mut rng) = golden_session(&bench);
        let reports = bench.record_session(&session, &UserProfile::average(), &mut rng);
        assert_eq!(reports, golden_trial(&bench).reports);
    }

    #[test]
    fn golden_session_is_deterministic() {
        let bench = golden_bench();
        let a = golden_trial(&bench);
        let b = golden_trial(&bench);
        assert_eq!(a.reports.len(), b.reports.len());
        for (x, y) in a.reports.iter().zip(&b.reports) {
            assert_eq!(x, y);
        }
        assert_eq!(a.result.letter, b.result.letter);
    }
}
