//! Fig. 5 — standard deviation of static phase per tag (deviation bias).
//!
//! The paper measures each tag's phase jitter in the static scene and finds
//! it varies strongly across the array (location diversity), motivating the
//! Eq. 9 weighting.

use experiments::report::print_series;
use experiments::{Deployment, DeploymentSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rfid_gen2::reader::Gen2Reader;
use rfipad::{ArrayLayout, Calibration, RfipadConfig};

fn main() {
    // Location 4 (wall corner) has the richest multipath — the clearest
    // deviation-bias spread.
    let deployment = Deployment::build(
        DeploymentSpec {
            location: 4,
            ..DeploymentSpec::default()
        },
        42,
    );
    let reader = Gen2Reader::default();
    let mut rng = StdRng::seed_from_u64(5);
    let run = reader.run(&deployment.scene, &[], 0.0, 13.0, &mut rng);
    let observations = &run.events;
    let layout = ArrayLayout::new(
        deployment.array.rows(),
        deployment.array.cols(),
        deployment.array.tags().iter().map(|t| t.id).collect(),
    );
    let cal = Calibration::from_observations(&layout, observations, &RfipadConfig::default())
        .expect("calibration");

    let mut points = Vec::new();
    let mut biases = Vec::new();
    for (i, tag) in cal.per_tag().iter().enumerate() {
        let b = tag.deviation_bias;
        biases.push(b);
        points.push((i + 1, format!("{b:.4} rad")));
    }
    print_series(
        "Fig. 5 — deviation bias (static phase std) per tag, location 4",
        "tag #",
        "std dev",
        &points,
    );
    let lo = biases.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = biases.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    println!(
        "\nBias range {lo:.4}..{hi:.4} rad (ratio {:.1}×): tags vibrate at different\n\
         levels depending on their location — the paper's deviation bias.",
        hi / lo.max(1e-12)
    );
}
