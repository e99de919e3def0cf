//! The benchmark's inputs, generated from one seed: a calibrated pad per
//! lab location, one recorded session per (location, user, letter), and
//! per (location, user) a kiosk stream that plays that user's letters back
//! to back with an idle stretch in the middle.
//!
//! Nothing is read from disk: the same seed always records the same
//! reports, bit for bit, because every recording reseeds its own rng from
//! a seed derived from the run seed and the session's coordinates.

use experiments::golden::{GOLDEN_CALIBRATION_SEED, GOLDEN_DEPLOYMENT_SEED};
use experiments::serveload::serial_replay;
use experiments::trial::LETTER_GAP_SECS;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::user::UserProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_gen2::report::TagReport;
use rfid_gen2::trace::{write_trace, TraceFormat};
use rfipad::{PipelineEvent, RfipadConfig};

/// Idle time that closes a letter, in simulated seconds: the value the
/// trial replays and the served pipelines use.
pub const LETTER_GAP_S: f64 = LETTER_GAP_SECS;

/// Length of the hand-free stretch inserted into every kiosk stream. It is
/// longer than the framing stage's 30 s retention window, so retention
/// trims fire while the pad sits idle.
pub const IDLE_S: f64 = 40.0;

/// Time between the last report of one recording and the first report of
/// the next inside a kiosk stream: about one reader read interval.
const SPLICE_GAP_S: f64 = 0.005;

/// Which sessions a corpus holds.
#[derive(Debug, Clone)]
pub struct CorpusSpec {
    /// Lab locations `1..=4`, one calibrated pad each.
    pub locations: Vec<usize>,
    /// Writers; each writes every letter at every location.
    pub users: Vec<UserProfile>,
    /// Letters each user writes, in kiosk-stream order.
    pub letters: Vec<char>,
}

impl CorpusSpec {
    /// The benchmark corpus: 4 locations × 4 users × 26 letters. The users
    /// are the average writer, a slow volunteer (3) and two fast movers
    /// (6 and 9), so stroke durations and read counts per stroke vary.
    pub fn full() -> Self {
        Self {
            locations: vec![1, 2, 3, 4],
            users: vec![
                UserProfile::average(),
                UserProfile::volunteer(3),
                UserProfile::volunteer(6),
                UserProfile::volunteer(9),
            ],
            letters: ('A'..='Z').collect(),
        }
    }

    /// A 2-letter corpus for one user at one location, for tests.
    pub fn tiny() -> Self {
        Self {
            locations: vec![1],
            users: vec![UserProfile::average()],
            letters: vec!['L', 'T'],
        }
    }
}

/// One recorded letter session.
#[derive(Debug, Clone)]
pub struct Session {
    /// Index into [`Corpus::benches`].
    pub bench: usize,
    /// Index into [`CorpusSpec::users`].
    pub user: usize,
    /// The letter written.
    pub truth: char,
    /// Seed of the trial that recorded it.
    pub seed: u64,
    /// The reader's report stream.
    pub reports: Vec<TagReport>,
}

/// Where one written letter sits inside a kiosk stream.
#[derive(Debug, Clone, Copy)]
pub struct LetterWindow {
    /// The letter written.
    pub truth: char,
    /// Stream time of the recording's first report.
    pub start: f64,
    /// Stream time of the recording's last report.
    pub end: f64,
}

/// One long-lived pad session: a user's recordings spliced back to back.
#[derive(Debug, Clone)]
pub struct KioskStream {
    /// Index into [`Corpus::benches`].
    pub bench: usize,
    /// The reports, in non-decreasing time order.
    pub reports: Vec<TagReport>,
    /// The same reports encoded as a binary trace.
    pub trace: Vec<u8>,
    /// The letters written, in stream order.
    pub letters: Vec<LetterWindow>,
}

/// Everything a workload replays.
#[derive(Debug)]
pub struct Corpus {
    /// The spec the corpus was generated from.
    pub spec: CorpusSpec,
    /// One calibrated pad per location, in spec order.
    pub benches: Vec<Bench>,
    /// Sessions ordered by location, then user, then letter.
    pub sessions: Vec<Session>,
    /// One stream per (location, user), in the same order.
    pub streams: Vec<KioskStream>,
}

/// Wall time of the two corpus set-up steps, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorpusTimes {
    /// Building and calibrating the pads.
    pub calibrate_s: f64,
    /// Recording the sessions and idle stretches, splicing the streams.
    pub record_s: f64,
}

/// Mixes `parts` into `seed` (splitmix64 finaliser per part), so nearby
/// coordinates give unrelated seeds.
pub fn derive_seed(seed: u64, parts: &[u64]) -> u64 {
    let mut x = seed;
    for &p in parts {
        x = x.wrapping_add(p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
    }
    x
}

/// Calibrates one pad the way the golden bench is calibrated, at the
/// given lab location.
fn calibrated_bench(location: usize) -> Bench {
    Bench::calibrate(
        Deployment::build(
            DeploymentSpec {
                location,
                ..DeploymentSpec::default()
            },
            GOLDEN_DEPLOYMENT_SEED,
        ),
        RfipadConfig::default(),
        GOLDEN_CALIBRATION_SEED,
    )
}

/// Appends `reports` to `stream`, shifted in time to start one splice gap
/// after the stream's last report. Returns the stream times of the first
/// and last appended report.
fn splice(stream: &mut Vec<TagReport>, reports: &[TagReport]) -> (f64, f64) {
    let base = stream.last().map_or(0.0, |r| r.time + SPLICE_GAP_S);
    let shift = base - reports.first().map_or(0.0, |r| r.time);
    stream.extend(reports.iter().map(|r| TagReport {
        time: r.time + shift,
        ..*r
    }));
    (base, stream.last().map_or(base, |r| r.time))
}

impl Corpus {
    /// Generates the corpus for `spec` from `seed`, on the calling thread.
    ///
    /// # Panics
    ///
    /// Panics if the spec is empty or a pad fails to calibrate.
    pub fn generate(spec: &CorpusSpec, seed: u64) -> (Corpus, CorpusTimes) {
        assert!(
            !spec.locations.is_empty() && !spec.users.is_empty() && !spec.letters.is_empty(),
            "corpus spec must name at least one location, user and letter"
        );
        let t0 = std::time::Instant::now();
        let benches: Vec<Bench> = spec
            .locations
            .iter()
            .map(|&l| calibrated_bench(l))
            .collect();
        let calibrate_s = t0.elapsed().as_secs_f64();

        let t1 = std::time::Instant::now();
        let mut sessions = Vec::new();
        let mut streams = Vec::new();
        let idle_after = spec.letters.len().div_ceil(2);
        for (b, (&location, bench)) in spec.locations.iter().zip(&benches).enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, &[location as u64, 0x1D1E]));
            let idle = bench
                .reader
                .run(&bench.deployment.scene, &[], 0.0, IDLE_S, &mut rng)
                .events;
            for (u, user) in spec.users.iter().enumerate() {
                let mut stream = Vec::new();
                let mut letters = Vec::new();
                for (i, &letter) in spec.letters.iter().enumerate() {
                    let trial_seed =
                        derive_seed(seed, &[location as u64, u as u64, u64::from(letter)]);
                    let trial = bench.run_letter_trial(letter, user, trial_seed);
                    let (start, end) = splice(&mut stream, &trial.reports);
                    letters.push(LetterWindow {
                        truth: letter,
                        start,
                        end,
                    });
                    if i + 1 == idle_after {
                        splice(&mut stream, &idle);
                    }
                    sessions.push(Session {
                        bench: b,
                        user: u,
                        truth: letter,
                        seed: trial_seed,
                        reports: trial.reports,
                    });
                }
                let mut trace = Vec::new();
                write_trace(&mut trace, TraceFormat::Binary, &stream)
                    .expect("encoding into memory cannot fail");
                streams.push(KioskStream {
                    bench: b,
                    reports: stream,
                    trace,
                    letters,
                });
            }
        }
        let corpus = Corpus {
            spec: spec.clone(),
            benches,
            sessions,
            streams,
        };
        let times = CorpusTimes {
            calibrate_s,
            record_s: t1.elapsed().as_secs_f64(),
        };
        (corpus, times)
    }

    /// Reports over all kiosk streams (one pass of `kiosk` or `served`).
    pub fn stream_reports(&self) -> u64 {
        self.streams.iter().map(|s| s.reports.len() as u64).sum()
    }

    /// A hash of every report's bits, sessions then streams: two corpora
    /// with equal fingerprints recorded the same reports.
    pub fn fingerprint(&self) -> u64 {
        let sessions = self.sessions.iter().map(|s| &s.reports);
        let streams = self.streams.iter().map(|s| &s.reports);
        sessions.chain(streams).flatten().fold(0, |h, r| {
            derive_seed(
                h,
                &[
                    r.tag.0,
                    r.time.to_bits(),
                    r.phase.to_bits(),
                    r.rss_dbm.to_bits(),
                    r.doppler_hz.to_bits(),
                    u64::from(r.antenna_port) << 16 | u64::from(r.channel_index),
                ],
            )
        })
    }
}

/// Normalized events of the single-stream reference replay, per session
/// and per kiosk stream: what every workload's output must equal.
#[derive(Debug, Clone, PartialEq)]
pub struct References {
    /// One event list per [`Corpus::sessions`] entry.
    pub sessions: Vec<Vec<PipelineEvent>>,
    /// One event list per [`Corpus::streams`] entry.
    pub streams: Vec<Vec<PipelineEvent>>,
}

impl References {
    /// Replays every session and stream through the repository's
    /// reference path (`OnlinePipeline`, one report at a time).
    pub fn compute(corpus: &Corpus) -> Self {
        let recognizer = |b: usize| &corpus.benches[b].recognizer;
        Self {
            sessions: corpus
                .sessions
                .iter()
                .map(|s| serial_replay(recognizer(s.bench), &s.reports))
                .collect(),
            streams: corpus
                .streams
                .iter()
                .map(|s| serial_replay(recognizer(s.bench), &s.reports))
                .collect(),
        }
    }
}

/// The letter of the last `LetterRecognized` event, the way a trial
/// scores its session.
pub fn last_letter<'a>(events: impl IntoIterator<Item = &'a PipelineEvent>) -> Option<char> {
    events
        .into_iter()
        .filter_map(|e| match e {
            PipelineEvent::LetterRecognized { letter, .. } => Some(*letter),
            PipelineEvent::StrokeDetected { .. } => None,
        })
        .last()
        .flatten()
}

/// How many of a kiosk stream's letters were recognized: a letter counts
/// when the last letter event whose first stroke starts inside its
/// recording names it.
pub fn stream_letters_correct(events: &[PipelineEvent], windows: &[LetterWindow]) -> u64 {
    windows
        .iter()
        .filter(|w| {
            let inside = events.iter().filter(|e| match e {
                PipelineEvent::LetterRecognized { strokes, .. } => strokes
                    .first()
                    .is_some_and(|s| s.span.start >= w.start && s.span.start <= w.end),
                PipelineEvent::StrokeDetected { .. } => false,
            });
            last_letter(inside) == Some(w.truth)
        })
        .count() as u64
}
