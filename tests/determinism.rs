//! Determinism guards for the parallel trial fan-out.
//!
//! The experiments harness runs independent trials across worker threads
//! (`rayon`), which is only sound if parallel execution cannot change any
//! reported number. These tests pin that contract: a batch or trial list
//! computed on one thread must be **bit-identical** to the same batch
//! computed across many, and repeated runs with equal seeds must agree
//! exactly. The cached RF scene feeds every trial, so these tests also
//! exercise the static-channel cache under concurrent `observe` calls.
//!
//! Beyond the golden trace, a handful of reader recordings are pinned to
//! constants, so a change to the simulator that should be bit-identical
//! is checked in scenes the golden session never visits.

use experiments::setup::AntennaPlacement;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::Stroke;
use hand_kinematics::user::UserProfile;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rf_sim::geometry::Vec3;
use rf_sim::scene::{HoppingPlan, Scene, SceneConfig};
use rf_sim::tags::{Facing, Tag, TagId, TagModel};
use rfid_gen2::inventory::InventoryStats;
use rfid_gen2::reader::{Gen2Reader, ReaderRun};
use rfid_gen2::report::TagReport;
use rfipad::RfipadConfig;

fn bench() -> Bench {
    // Force a real multi-threaded fan-out even on single-core CI boxes,
    // where the engine would otherwise take its serial fallback and the
    // tests would vacuously pass. Every test pins the same value, so
    // concurrent test threads setting it is benign.
    std::env::set_var("RAYON_NUM_THREADS", "4");
    Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    )
}

/// Runs the same jobs through the parallel helper (4 workers) and through
/// a plain serial map of the single-trial path, and demands bit-identical
/// observation streams — the contract `run_stroke_trials` promises.
#[test]
fn parallel_stroke_trials_match_serial_reference_exactly() {
    let bench = bench();
    let user = UserProfile::average();
    let jobs: Vec<(Stroke, u64)> = Stroke::all_thirteen()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, 9000 + i as u64))
        .collect();

    let parallel = bench.run_stroke_trials(&jobs, &user);
    let serial: Vec<_> = jobs
        .iter()
        .map(|&(stroke, seed)| bench.run_stroke_trial(stroke, &user, seed))
        .collect();

    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.truth, s.truth);
        // The raw reader stream is the full observable state of a trial;
        // exact equality here means every downstream number agrees too.
        assert_eq!(p.reports.len(), s.reports.len());
        for (po, so) in p.reports.iter().zip(&s.reports) {
            assert_eq!(po, so);
        }
        assert_eq!(p.result.strokes.len(), s.result.strokes.len());
        assert_eq!(p.correct(), s.correct());
        assert_eq!(p.shape_correct(), s.shape_correct());
    }
}

/// A motion batch must not depend on scheduling: run it several times and
/// demand bit-identical tallies each time.
#[test]
fn motion_batch_is_bit_stable_across_runs() {
    let bench = bench();
    let user = UserProfile::average();
    let first = bench.run_motion_batch(&user, 2, 1234);
    for _ in 0..3 {
        let again = bench.run_motion_batch(&user, 2, 1234);
        assert_eq!(first.trials, again.trials);
        assert_eq!(first.exact, again.exact);
        assert_eq!(first.shape, again.shape);
        assert_eq!(first.counts.true_positives, again.counts.true_positives);
        assert_eq!(first.counts.false_positives, again.counts.false_positives);
        assert_eq!(first.counts.true_negatives, again.counts.true_negatives);
        assert_eq!(first.counts.false_negatives, again.counts.false_negatives);
    }
}

/// Letter trials go through the same fan-out; pin them too.
#[test]
fn parallel_letter_trials_match_serial_reference_exactly() {
    let bench = bench();
    let user = UserProfile::average();
    let jobs: Vec<(char, u64)> = ['C', 'I', 'L', 'V', 'T']
        .into_iter()
        .enumerate()
        .map(|(i, c)| (c, 5000 + i as u64 * 7))
        .collect();

    let parallel = bench.run_letter_trials(&jobs, &user);
    let serial: Vec<_> = jobs
        .iter()
        .map(|&(letter, seed)| bench.run_letter_trial(letter, &user, seed))
        .collect();

    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.truth, s.truth);
        assert_eq!(p.result.letter, s.result.letter);
        for (po, so) in p.reports.iter().zip(&s.reports) {
            assert_eq!(po, so);
        }
    }
}

/// FNV-1a over every bit a report carries that the simulator decides:
/// tag, time, phase, RSS, Doppler and hop-channel index.
fn fingerprint(reports: &[TagReport]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in reports {
        mix(r.tag.0);
        mix(r.time.to_bits());
        mix(r.phase.to_bits());
        mix(r.rss_dbm.to_bits());
        mix(r.doppler_hz.to_bits());
        mix(u64::from(r.channel_index));
    }
    hash
}

/// Records `letter` written by an average user over `deployment`, hand
/// and forearm both present, through the default reader.
fn record_letter(deployment: &Deployment, letter: char, seed: u64) -> ReaderRun {
    let user = UserProfile::average();
    let mut rng = StdRng::seed_from_u64(seed);
    let session = Writer::new(deployment.pad, user.clone()).write_letter(letter, 1.0, &mut rng);
    let (hand, arm) = Bench::targets(&session, &user);
    Gen2Reader::default().run(
        &deployment.scene,
        &[&hand, &arm],
        0.0,
        session.end_time() + 1.0,
        &mut rng,
    )
}

/// `deployment` with its scene rebuilt from `tags` under `config`,
/// keeping the antenna and the environment.
fn with_scene(mut deployment: Deployment, tags: Vec<Tag>, config: SceneConfig) -> Deployment {
    let scene = &deployment.scene;
    deployment.scene = Scene::new(*scene.antenna(), tags, scene.environment().clone(), config);
    deployment
}

/// The pad plus 50 asset tags spread through the antenna's coverage cone,
/// built the way the `coexistence` experiment builds its room.
fn pad_with_assets() -> Deployment {
    let base = Deployment::build(DeploymentSpec::default(), 42);
    let mut tags = base.scene.tags().to_vec();
    let mut rng = StdRng::seed_from_u64(99);
    for i in 0..50 {
        let z = rng.random_range(0.1..1.2);
        let lateral = 0.7 * z;
        let position = Vec3::new(
            0.12 + rng.random_range(-lateral..lateral),
            -0.12 + rng.random_range(-lateral..lateral),
            z,
        );
        tags.push(Tag::new(
            TagId(1000 + i),
            position,
            Facing::Front,
            TagModel::TypeA,
            rng.random_range(0.0..std::f64::consts::TAU),
        ));
    }
    let config = SceneConfig {
        system_loss_db: 2.0,
        ..SceneConfig::default()
    };
    with_scene(base, tags, config)
}

/// One pinned recording: scene name, report count, report fingerprint and
/// the MAC counters.
type Pin = (&'static str, usize, u64, InventoryStats);

/// `InventoryStats` from its five counters, in field order.
fn stats(rounds: u64, slots: u64, empties: u64, collisions: u64, successes: u64) -> InventoryStats {
    InventoryStats {
        rounds,
        slots,
        empties,
        collisions,
        successes,
    }
}

/// Pins the simulator where the golden trace (one NLOS session at
/// location 1, fixed carrier) does not reach: richer multipath, LOS
/// obstruction, frequency hopping and a 75-tag room. The constants were
/// recorded once; any change to the channel model, the noise draws, the
/// powered-set sweep or the MAC moves a fingerprint or a counter.
#[test]
fn recordings_outside_the_golden_trace_are_pinned() {
    let spec = |location, placement| DeploymentSpec {
        location,
        placement,
        ..DeploymentSpec::default()
    };
    let nlos = AntennaPlacement::Nlos;
    let hopping = {
        let base = Deployment::build(DeploymentSpec::default(), 42);
        let tags = base.scene.tags().to_vec();
        let config = SceneConfig {
            hopping: Some(HoppingPlan::fcc()),
            ..base.scene.config().clone()
        };
        with_scene(base, tags, config)
    };
    let scenes: Vec<(&'static str, Deployment, char, u64)> = vec![
        ("location 2", Deployment::build(spec(2, nlos), 42), 'C', 21),
        ("location 3", Deployment::build(spec(3, nlos), 42), 'V', 31),
        ("location 4", Deployment::build(spec(4, nlos), 42), 'L', 41),
        (
            "LOS ceiling",
            Deployment::build(spec(1, AntennaPlacement::Los), 42),
            'T',
            51,
        ),
        ("FCC hopping", hopping, 'I', 61),
        ("pad + 50 assets", pad_with_assets(), 'T', 71),
    ];
    let actual: Vec<Pin> = scenes
        .iter()
        .map(|(name, deployment, letter, seed)| {
            let run = record_letter(deployment, *letter, *seed);
            (*name, run.events.len(), fingerprint(&run.events), run.stats)
        })
        .collect();
    let expected: Vec<Pin> = vec![
        (
            "location 2",
            752,
            0x7a21_a13e_9e54_91ab,
            stats(721, 2226, 904, 570, 752),
        ),
        (
            "location 3",
            1213,
            0x8052_84a0_4582_359b,
            stats(1107, 3492, 1406, 873, 1213),
        ),
        (
            "location 4",
            1136,
            0xc55b_563a_eeff_b093,
            stats(1037, 3323, 1344, 843, 1136),
        ),
        (
            "LOS ceiling",
            1136,
            0x20b7_ee02_c972_da01,
            stats(1093, 3330, 1352, 841, 1137),
        ),
        (
            "FCC hopping",
            735,
            0x7546_6031_e599_77b4,
            stats(684, 2187, 880, 572, 735),
        ),
        (
            "pad + 50 assets",
            1125,
            0xa127_245e_1b73_1fe6,
            stats(1041, 3251, 1145, 981, 1125),
        ),
    ];
    assert_eq!(actual, expected);
}

/// Pins the golden bench's calibration, every field in layout order, so a
/// change to how per-tag statistics are stored or summed that moves a
/// single bit fails here. `mean_bias` in particular is summed in a fixed
/// order that layout order does not reproduce.
#[test]
fn golden_calibration_is_pinned() {
    let bench = experiments::golden::golden_bench();
    let cal = bench.recognizer.calibration();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    assert_eq!(cal.tag_ids(), bench.deployment.layout.tags());
    for tag in cal.per_tag() {
        mix(tag.mean_phase.to_bits());
        mix(tag.deviation_bias.to_bits());
        mix(tag.mean_rss.to_bits());
        mix(tag.samples as u64);
    }
    mix(cal.mean_bias().to_bits());
    mix(cal.static_window_std().to_bits());
    mix(cal.static_frame_rms().to_bits());
    for floor in bench.recognizer.noise_floors() {
        mix(floor.to_bits());
    }
    assert_eq!(
        (hash, cal.mean_bias().to_bits()),
        (0x665a_9f78_7d7b_355c, 0x3f96_ad02_0bd7_d817),
        "{hash:#x} {:#x}",
        cal.mean_bias().to_bits()
    );
}
