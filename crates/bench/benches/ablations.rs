//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! diversity suppression on/off and segmentation window size (the
//! `ablation_direction` experiment covers phase- vs RSS-based direction).
//! Each ablation reports *accuracy* through a fixed trial set (Criterion
//! measures the runtime; the accuracy deltas print once at setup).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::user::UserProfile;
use rfipad::RfipadConfig;
use std::hint::black_box;
use std::sync::Once;

static PRINT_ONCE: Once = Once::new();

fn accuracy_of(config: RfipadConfig, location: usize) -> f64 {
    let bench = Bench::calibrate(
        Deployment::build(
            DeploymentSpec {
                location,
                ..DeploymentSpec::default()
            },
            42,
        ),
        config,
        1,
    );
    bench
        .run_motion_batch(&UserProfile::average(), 3, 555)
        .accuracy()
}

fn report_accuracy_deltas() {
    PRINT_ONCE.call_once(|| {
        let base = RfipadConfig::default();
        println!("\n== ablation accuracies (13 strokes × 3, location 3) ==");
        println!(
            "  full pipeline:        {:.3}",
            accuracy_of(base.clone(), 3)
        );
        println!(
            "  w/o diversity suppr.: {:.3}",
            accuracy_of(base.without_suppression(), 3)
        );
        let mut window3 = RfipadConfig::default();
        window3.window_frames = 3;
        println!("  window = 3 frames:    {:.3}", accuracy_of(window3, 3));
        let mut window8 = RfipadConfig::default();
        window8.window_frames = 8;
        println!("  window = 8 frames:    {:.3}", accuracy_of(window8, 3));
    });
}

fn bench_suppression_cost(c: &mut Criterion) {
    report_accuracy_deltas();
    // Runtime cost of the suppression path itself on a fixed recording.
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('H', &user, 66);
    let with = bench.recognizer.clone();
    let without = rfipad::Recognizer::builder()
        .layout(bench.deployment.layout.clone())
        .calibration(bench.recognizer.calibration().clone())
        .config(RfipadConfig::default().without_suppression())
        .build()
        .expect("valid");
    let mut group = c.benchmark_group("suppression_runtime");
    group.bench_function("with", |b| {
        b.iter(|| with.recognize_session(black_box(&trial.reports)))
    });
    group.bench_function("without", |b| {
        b.iter(|| without.recognize_session(black_box(&trial.reports)))
    });
    group.finish();
}

fn bench_window_sizes(c: &mut Criterion) {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('Z', &user, 67);
    let mut group = c.benchmark_group("segmentation_window");
    for frames in [3usize, 5, 8] {
        let mut config = RfipadConfig::default();
        config.window_frames = frames;
        let rec = rfipad::Recognizer::builder()
            .layout(bench.deployment.layout.clone())
            .calibration(bench.recognizer.calibration().clone())
            .config(config)
            .build()
            .expect("valid");
        group.bench_function(BenchmarkId::from_parameter(frames), |b| {
            b.iter(|| rec.recognize_session(black_box(&trial.reports)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_suppression_cost, bench_window_sizes);
criterion_main!(benches);
