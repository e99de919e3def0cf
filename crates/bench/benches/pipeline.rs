//! Macro-benchmarks of the recognition pipeline: calibration, per-stroke
//! recognition, full-letter sessions, and the online engine — the compute
//! side of the paper's response-time claims (Fig. 24).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::{Stroke, StrokeShape};
use hand_kinematics::user::UserProfile;
use rfipad::{Calibration, RfipadConfig, StageGraph};
use std::hint::black_box;

fn bench_calibration(c: &mut Criterion) {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let run = bench
        .reader
        .run(&bench.deployment.scene, &[], 0.0, 6.0, &mut rng);
    let obs = run.events.clone();
    let layout = bench.deployment.layout.clone();
    let config = RfipadConfig::default();
    c.bench_function("calibration/6s_static", |b| {
        b.iter(|| Calibration::from_observations(black_box(&layout), black_box(&obs), &config))
    });
}

fn bench_stroke_recognition(c: &mut Criterion) {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_stroke_trial(Stroke::new(StrokeShape::VLine), &user, 7);
    c.bench_function("recognize_session/one_stroke", |b| {
        b.iter(|| {
            bench
                .recognizer
                .recognize_session(black_box(&trial.reports))
        })
    });
}

fn bench_letter_recognition(c: &mut Criterion) {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('E', &user, 8);
    c.bench_function("recognize_session/letter_E", |b| {
        b.iter(|| {
            bench
                .recognizer
                .recognize_session(black_box(&trial.reports))
        })
    });
}

fn bench_online_pipeline(c: &mut Criterion) {
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();
    let trial = bench.run_letter_trial('T', &user, 9);
    c.bench_function("online_pipeline/letter_T_stream", |b| {
        b.iter_batched(
            || {
                StageGraph::builder()
                    .recognizer(bench.recognizer.clone())
                    .letter_gap_s(1.5)
                    .build()
                    .expect("valid")
            },
            |mut graph| {
                let mut events = 0usize;
                for obs in &trial.reports {
                    events += graph.push(*obs).len();
                }
                events += graph.finish().len();
                events
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_calibration,
    bench_stroke_recognition,
    bench_letter_recognition,
    bench_online_pipeline
);
criterion_main!(benches);
