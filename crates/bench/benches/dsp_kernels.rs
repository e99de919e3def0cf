//! Micro-benchmarks of the DSP kernels on the recognition hot path.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sigproc::filter::{find_troughs, moving_average_into};
use sigproc::frames::FrameSeq;
use sigproc::otsu::otsu_threshold;
use sigproc::series::TimeSeries;
use sigproc::unwrap::unwrap_phase;
use std::hint::black_box;

fn wrapped_phases(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (0.21 * i as f64 + (i as f64 * 0.05).sin()).rem_euclid(std::f64::consts::TAU))
        .collect()
}

fn rss_signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = (i as f64 - n as f64 / 2.0) / (n as f64 / 10.0);
            -45.0 - 8.0 * (-x * x).exp() + 0.4 * (i as f64 * 1.7).sin()
        })
        .collect()
}

fn bench_unwrap(c: &mut Criterion) {
    let data = wrapped_phases(1000);
    c.bench_function("unwrap_phase/1000", |b| {
        b.iter(|| unwrap_phase(black_box(&data)))
    });
}

fn bench_otsu(c: &mut Criterion) {
    // 25-cell gray image, the RFIPad case.
    let image: Vec<f64> = (0..25)
        .map(|i| {
            if i % 5 == 2 {
                8.0 + i as f64 * 0.1
            } else {
                0.3
            }
        })
        .collect();
    c.bench_function("otsu_threshold/25", |b| {
        b.iter(|| otsu_threshold(black_box(&image)))
    });
}

fn bench_framing(c: &mut Criterion) {
    // 25 streams × 10 s at ~10 Hz per stream — a full letter recording.
    let streams: Vec<TimeSeries> = (0..25)
        .map(|t| {
            (0..100)
                .map(|j| (j as f64 * 0.1 + t as f64 * 0.001, (j as f64 * 0.3).sin()))
                .collect()
        })
        .collect();
    c.bench_function("frame_rms/25x100", |b| {
        b.iter(|| FrameSeq::build(black_box(&streams), 0.0, 10.0, 0.1))
    });
}

fn bench_troughs(c: &mut Criterion) {
    let signal = rss_signal(200);
    c.bench_function("find_troughs/200", |b| {
        b.iter_batched(
            || {
                let mut smoothed = Vec::new();
                moving_average_into(&signal, 2, &mut smoothed);
                smoothed
            },
            |s| find_troughs(black_box(&s), 1.5, 3),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_unwrap,
    bench_otsu,
    bench_framing,
    bench_troughs
);
criterion_main!(benches);
