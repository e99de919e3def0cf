//! Property-based tests of the physics substrate's invariants.

use proptest::prelude::*;
use rf_sim::antenna::ReaderAntenna;
use rf_sim::channel;
use rf_sim::coupling;
use rf_sim::environment::Environment;
use rf_sim::geometry::{Complex, Vec3};
use rf_sim::noise::{quantize_phase, quantize_rss, PHASE_STEP, RSS_STEP_DB};
use rf_sim::scene::{Scene, SceneConfig};
use rf_sim::tags::{Facing, Tag, TagArray, TagId, TagModel};
use rf_sim::targets::{MovingTarget, StaticTarget, TargetSample};
use rf_sim::units::{Db, Dbi, Dbm, Meters};

/// The 5×5 plate at `location`, with the antenna behind it (NLOS) or on
/// the ceiling on the hand's side (LOS), transmitting `tx_dbm`.
fn plate_scene(location: usize, los: bool, tx_dbm: f64) -> Scene {
    let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
        (id.0 as f64 * 2.399) % std::f64::consts::TAU
    });
    let center = array.center();
    let (position, boresight) = if los {
        let position = Vec3::new(center.x, center.y - 0.3, 0.4);
        (position, (center - position).normalized())
    } else {
        (
            Vec3::new(center.x, center.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
        )
    };
    Scene::new(
        ReaderAntenna::new(position, boresight, Dbi(8.0)),
        array.tags().to_vec(),
        Environment::office_location(location),
        SceneConfig {
            tx_power: Dbm(tx_dbm),
            ..SceneConfig::default()
        },
    )
}

proptest! {
    /// dBm ↔ watts round-trips.
    #[test]
    fn dbm_watts_round_trip(dbm in -100.0f64..50.0) {
        let w = Dbm(dbm).to_watts();
        prop_assert!(w > 0.0);
        prop_assert!((Dbm::from_watts(w).value() - dbm).abs() < 1e-9);
    }

    /// Gain ↔ linear round-trips.
    #[test]
    fn dbi_linear_round_trip(g in -30.0f64..30.0) {
        prop_assert!((Dbi::from_linear(Dbi(g).linear()).value() - g).abs() < 1e-9);
    }

    /// Vector norms satisfy the triangle inequality.
    #[test]
    fn triangle_inequality(
        ax in -10.0f64..10.0, ay in -10.0f64..10.0, az in -10.0f64..10.0,
        bx in -10.0f64..10.0, by in -10.0f64..10.0, bz in -10.0f64..10.0,
    ) {
        let a = Vec3::new(ax, ay, az);
        let b = Vec3::new(bx, by, bz);
        prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
    }

    /// Complex polar construction round-trips amplitude and phase.
    #[test]
    fn complex_polar_round_trip(amp in 0.001f64..1e3, phase in -3.0f64..3.0) {
        let z = Complex::from_polar(amp, phase);
        prop_assert!((z.abs() - amp).abs() / amp < 1e-9);
        prop_assert!((z.arg() - phase).abs() < 1e-9);
    }

    /// Phase quantization stays within half a step and lands in [0, 2π).
    #[test]
    fn phase_quantization_error_bounded(p in -100.0f64..100.0) {
        let q = quantize_phase(p);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&q));
        // Error on the circle:
        let mut err = (q - p).rem_euclid(std::f64::consts::TAU);
        if err > std::f64::consts::PI {
            err -= std::f64::consts::TAU;
        }
        prop_assert!(err.abs() <= PHASE_STEP / 2.0 + 1e-12);
    }

    /// RSS quantization error is at most half a step.
    #[test]
    fn rss_quantization_error_bounded(r in -120.0f64..0.0) {
        prop_assert!((quantize_rss(r) - r).abs() <= RSS_STEP_DB / 2.0 + 1e-12);
    }

    /// Free-space path loss is monotone in distance.
    #[test]
    fn path_loss_monotone(d1 in 0.05f64..5.0, extra in 0.01f64..5.0) {
        let lambda = Meters(0.325);
        let l1 = channel::free_space_path_loss(Meters(d1), lambda).value();
        let l2 = channel::free_space_path_loss(Meters(d1 + extra), lambda).value();
        prop_assert!(l2 > l1);
    }

    /// Backscatter power decreases with distance and increases with RCS.
    #[test]
    fn backscatter_monotonicities(
        d in 0.1f64..3.0,
        rcs in 0.0005f64..0.02,
    ) {
        let lambda = Meters(0.325);
        let p = channel::backscatter_power(Dbm(30.0), Dbi(8.0), rcs, Meters(d), lambda, Db(0.0));
        let farther = channel::backscatter_power(Dbm(30.0), Dbi(8.0), rcs, Meters(d * 1.5), lambda, Db(0.0));
        let bigger = channel::backscatter_power(Dbm(30.0), Dbi(8.0), rcs * 2.0, Meters(d), lambda, Db(0.0));
        prop_assert!(farther.value() < p.value());
        prop_assert!(bigger.value() > p.value());
    }

    /// Pair shadowing never goes negative and decays with distance.
    #[test]
    fn pair_shadow_positive_and_decaying(d_cm in 2.0f64..30.0) {
        let lambda = Meters(0.325);
        let victim = Tag::new(TagId(0), Vec3::ZERO, Facing::Front, TagModel::TypeA, 0.0);
        let near = Tag::new(TagId(1), Vec3::new(d_cm / 100.0, 0.0, 0.0), Facing::Front, TagModel::TypeA, 0.0);
        let far = Tag::new(TagId(1), Vec3::new(d_cm / 100.0 + 0.05, 0.0, 0.0), Facing::Front, TagModel::TypeA, 0.0);
        let s_near = coupling::pair_shadow_db(&near, &victim, lambda).value();
        let s_far = coupling::pair_shadow_db(&far, &victim, lambda).value();
        prop_assert!(s_near >= 0.0 && s_far >= 0.0);
        prop_assert!(s_far <= s_near + 1e-12);
    }

    /// Reflection amplitude is capped and non-negative.
    #[test]
    fn reflection_amplitude_bounded(
        d_rt in 0.05f64..3.0,
        d_rh in 0.05f64..3.0,
        d_ht in 0.001f64..3.0,
        rcs in 0.001f64..0.1,
    ) {
        let rho = channel::reflection_amplitude(d_rt, d_rh, d_ht, rcs, 2.0);
        prop_assert!((0.0..=2.0).contains(&rho));
    }

    /// Obstruction attenuation is bounded by its maximum and zero for
    /// obstacles far off the path.
    #[test]
    fn obstruction_bounded(
        ox in -1.0f64..1.0, oy in -1.0f64..1.0, oz in -1.0f64..1.0,
        max_db in 0.1f64..30.0,
    ) {
        let from = Vec3::new(0.0, 0.0, 1.0);
        let to = Vec3::ZERO;
        let a = coupling::obstruction_db(Vec3::new(ox, oy, oz), 0.05, from, to, max_db).value();
        prop_assert!((0.0..=max_db + 1e-12).contains(&a));
        let far = coupling::obstruction_db(Vec3::new(ox + 10.0, oy, oz), 0.05, from, to, max_db).value();
        prop_assert!(far < 1e-6);
    }

    /// The readability sweep returns exactly the tags whose forward power
    /// clears their sensitivity, in scene order. Up to six targets: more
    /// than the sweep keeps inline, so its spill path runs too.
    #[test]
    fn readability_sweep_matches_per_tag_gate(
        location in 1usize..5,
        los in any::<bool>(),
        tx_dbm in 12.0f64..32.0,
        spots in prop::collection::vec(
            (-0.1f64..0.34, -0.34f64..0.1, 0.005f64..0.3, 0.005f64..0.08),
            0..7,
        ),
    ) {
        let scene = plate_scene(location, los, tx_dbm);
        let targets: Vec<StaticTarget> = spots
            .iter()
            .map(|&(x, y, z, rcs)| StaticTarget::new(Vec3::new(x, y, z), rcs))
            .collect();
        let dyn_targets: Vec<&dyn MovingTarget> =
            targets.iter().map(|t| t as &dyn MovingTarget).collect();
        let samples: Vec<TargetSample> = targets.iter().map(|t| t.sample).collect();
        let expected: Vec<TagId> = scene
            .tags()
            .iter()
            .filter(|tag| {
                scene.forward_power_at(tag, &samples).value() >= tag.model.sensitivity().value()
            })
            .map(|tag| tag.id)
            .collect();
        // A stale entry the sweep must clear first.
        let mut swept = vec![TagId(999)];
        scene.readable_tags_into(0.0, &dyn_targets, &mut swept);
        prop_assert_eq!(swept, expected);
    }
}
