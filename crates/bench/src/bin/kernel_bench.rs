//! Kernel microbenchmark + hot-path allocation gates.
//!
//! Three probes, merged into `BENCH_pipeline.json` for `bench-check.sh`:
//!
//! * `kernel_bench` — per-kernel ns/element of the `sigproc::kernel`
//!   slice kernels against their naive allocating references
//!   (`sigproc::kernel::reference`). The reference timings include their
//!   allocation cost on purpose: that *is* the price the kernels remove.
//! * `hot_path_allocs` — feeds a quiet synthetic session through
//!   a `StageGraph` long enough to pass two retention-trim cycles (so
//!   every recycled buffer reached its high-water capacity), then counts
//!   heap allocations over a trim-free measurement window. Steady-state
//!   per-tick processing must allocate exactly zero times.
//! * `stroke_allocs` — counts heap allocations across
//!   `Recognizer::recognize_span` over every span of the golden session
//!   (`tests/data/golden_session.rftrace`), the stroke-bearing work the
//!   quiet stream never reaches. The count may not grow past its
//!   committed value.
//!
//! Requires the `count-allocs` feature (a counting global allocator):
//! `cargo run --release -p bench --features count-allocs --bin kernel_bench`

use rfid_gen2::report::{TagId, TagReport};
use rfipad::{ArrayLayout, Calibration, PipelineEvent, Recognizer, RfipadConfig, StageGraph};
use sigproc::kernel::{self, reference, Scratch};
use std::fmt::Write as _;
use std::time::Instant;

/// Elements per kernel input — a few times larger than the pipeline's
/// per-tick frame counts so per-call overhead amortizes away.
const ELEMS: usize = 4096;

/// Smoothing half-window used for the windowed kernels (the pipeline's
/// `window_frames / 2` is 2–4 for the default configs).
const HALF: usize = 4;

/// Median-of-ns-per-call over `rounds` timing rounds of `iters` calls.
fn time_ns_per_call(rounds: usize, iters: u32, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Deterministic smooth-plus-wiggle test signal (no `rand` in bin deps).
fn signal(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37).sin() * 3.0 + (i as f64 * 0.011).cos())
        .collect()
}

/// Times one kernel/reference pair and appends its JSON fragment.
fn bench_pair(
    json: &mut String,
    name: &str,
    mut kernel_call: impl FnMut(),
    mut reference_call: impl FnMut(),
) {
    const ROUNDS: usize = 7;
    const ITERS: u32 = 400;
    // Warm both paths (page in code, size scratch buffers).
    kernel_call();
    reference_call();
    let kernel_ns = time_ns_per_call(ROUNDS, ITERS, &mut kernel_call) / ELEMS as f64;
    let reference_ns = time_ns_per_call(ROUNDS, ITERS, &mut reference_call) / ELEMS as f64;
    let speedup = reference_ns / kernel_ns;
    if !json.is_empty() {
        json.push_str(", ");
    }
    write!(
        json,
        "\"{name}\": {{ \"kernel_ns_per_elem\": {kernel_ns:.3}, \
         \"reference_ns_per_elem\": {reference_ns:.3}, \"speedup\": {speedup:.2} }}"
    )
    .expect("write to string");
    println!("{name:>16}: {kernel_ns:7.3} ns/elem vs {reference_ns:7.3} ref ({speedup:.2}x)");
}

fn run_kernel_bench() -> String {
    let data = signal(ELEMS);
    let times: Vec<f64> = (0..ELEMS).map(|i| i as f64 * 0.01).collect();
    let (lo, hi) = kernel::minmax(&data);
    let width = (hi - lo) / 256.0;

    let mut scratch = Scratch::new();
    let mut out = Vec::new();
    let mut bools = Vec::new();
    let mut hist = [0usize; 256];
    let mut out_times = Vec::new();
    let mut out_values = Vec::new();
    let mut kernels = String::new();

    bench_pair(
        &mut kernels,
        "sum_sumsq",
        || {
            std::hint::black_box(kernel::sum_sumsq(std::hint::black_box(&data)));
        },
        || {
            std::hint::black_box(reference::sum_sumsq(std::hint::black_box(&data)));
        },
    );
    bench_pair(
        &mut kernels,
        "minmax",
        || {
            std::hint::black_box(kernel::minmax(std::hint::black_box(&data)));
        },
        || {
            std::hint::black_box(reference::minmax(std::hint::black_box(&data)));
        },
    );
    bench_pair(
        &mut kernels,
        "moving_average",
        || {
            kernel::moving_average_into(std::hint::black_box(&data), HALF, &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::moving_average(std::hint::black_box(&data), HALF));
        },
    );
    bench_pair(
        &mut kernels,
        "windowed_std",
        || {
            kernel::windowed_std_into(std::hint::black_box(&data), HALF, &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::windowed_std(std::hint::black_box(&data), HALF));
        },
    );
    bench_pair(
        &mut kernels,
        "windowed_rms",
        || {
            kernel::windowed_rms_into(std::hint::black_box(&data), HALF, &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::windowed_rms(std::hint::black_box(&data), HALF));
        },
    );
    bench_pair(
        &mut kernels,
        "windowed_min",
        || {
            kernel::windowed_min_into(std::hint::black_box(&data), HALF, &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::windowed_min(std::hint::black_box(&data), HALF));
        },
    );
    bench_pair(
        &mut kernels,
        "median_filter",
        || {
            kernel::median_filter_into(std::hint::black_box(&data), 3, &mut scratch.sort, &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::median_filter(std::hint::black_box(&data), 3));
        },
    );
    bench_pair(
        &mut kernels,
        "resample_linear",
        || {
            kernel::resample_linear_into(
                std::hint::black_box(&times),
                std::hint::black_box(&data),
                0.004,
                &mut out_times,
                &mut out_values,
            );
            std::hint::black_box(out_values.len());
        },
        || {
            std::hint::black_box(reference::resample_linear(
                std::hint::black_box(&times),
                std::hint::black_box(&data),
                0.004,
            ));
        },
    );
    bench_pair(
        &mut kernels,
        "histogram",
        || {
            kernel::histogram_into(std::hint::black_box(&data), lo, width, &mut hist);
            std::hint::black_box(hist[0]);
        },
        || {
            std::hint::black_box(reference::histogram(
                std::hint::black_box(&data),
                lo,
                width,
                256,
            ));
        },
    );
    bench_pair(
        &mut kernels,
        "normalize_unit",
        || {
            kernel::normalize_unit_into(std::hint::black_box(&data), &mut out);
            std::hint::black_box(out.len());
        },
        || {
            std::hint::black_box(reference::normalize_unit(std::hint::black_box(&data)));
        },
    );
    bench_pair(
        &mut kernels,
        "binarize",
        || {
            kernel::binarize_into(std::hint::black_box(&data), 0.5, &mut bools);
            std::hint::black_box(bools.len());
        },
        || {
            std::hint::black_box(reference::binarize(std::hint::black_box(&data), 0.5));
        },
    );

    format!("{{ \"elems\": {ELEMS}, \"kernels\": {{ {kernels} }} }}")
}

/// A stage graph over a 1×3 pad with a synthetic static calibration — the
/// quiet stream never produces events, so the measurement window
/// exercises exactly the per-tick framing/segmentation hot path.
fn quiet_graph() -> StageGraph {
    let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
    let static_obs: Vec<TagReport> = (0..40)
        .flat_map(|j| {
            (0..3).map(move |i| {
                TagReport::synthetic(
                    TagId(i),
                    j as f64 * 0.05 + i as f64 * 0.01,
                    1.0 + i as f64,
                    -45.0,
                )
            })
        })
        .collect();
    let config = RfipadConfig::default();
    let cal = Calibration::from_observations(&layout, &static_obs, &config).expect("calibration");
    let recognizer = Recognizer::builder()
        .layout(layout)
        .calibration(cal)
        .config(config)
        .build()
        .expect("recognizer");
    StageGraph::builder()
        .recognizer(recognizer)
        .build()
        .expect("stage graph")
}

/// Quiet reports arrive at 60/s (three tags, 50 ms steps). The retention
/// window is 30 s and a trim fires when the buffer spans 35 s, so trims
/// land near t = 35, 40, 45, … The warmup runs past two of them (every
/// recycled buffer reaches its high-water capacity); the measurement
/// window then sits strictly between trims.
const WARMUP_STEPS: u64 = 820; // 41.0 s simulated
const MEASURED_STEPS: u64 = 64; // 3.2 s more, ends before the ~45 s trim

fn push_step(graph: &mut StageGraph, events: &mut Vec<PipelineEvent>, j: u64) {
    for i in 0..3u64 {
        let t = j as f64 * 0.05 + i as f64 * 0.01;
        graph.push_into(
            TagReport::synthetic(TagId(i), t, 1.0 + i as f64, -45.0),
            events,
        );
    }
}

fn run_alloc_gate() -> String {
    let mut graph = quiet_graph();
    let mut events = Vec::new();
    for j in 0..WARMUP_STEPS {
        push_step(&mut graph, &mut events, j);
    }
    assert!(events.is_empty(), "quiet stream must stay quiet");
    let before = bench::count_allocs::alloc_count();
    for j in WARMUP_STEPS..WARMUP_STEPS + MEASURED_STEPS {
        push_step(&mut graph, &mut events, j);
    }
    let allocs = bench::count_allocs::alloc_count() - before;
    assert!(events.is_empty(), "quiet stream must stay quiet");
    let pushes = MEASURED_STEPS * 3;
    let per_push = allocs as f64 / pushes as f64;
    println!(
        "hot path: {allocs} allocations over {pushes} pushes ({per_push:.4}/push) \
         after {} warmup pushes",
        WARMUP_STEPS * 3
    );
    format!(
        "{{ \"allocs\": {allocs}, \"pushes\": {pushes}, \"allocs_per_push\": {per_push:.4}, \
         \"warmup_pushes\": {} }}",
        WARMUP_STEPS * 3
    )
}

/// Counts allocations across `recognize_span` over every span of the
/// golden session. One unmeasured pass runs first: it fills the
/// recognizer's template table, a once-per-recognizer cost rather than a
/// per-stroke one.
fn run_stroke_alloc_gate() -> String {
    let bench = experiments::golden::golden_bench();
    let reports = experiments::serveload::golden_reports(&bench);
    let recognizer = &bench.recognizer;
    let streams = recognizer.streams(&reports);
    let spans = recognizer.segment(&streams).spans;
    assert!(!spans.is_empty(), "the golden session holds strokes");
    let recognize_all = || {
        for &span in &spans {
            std::hint::black_box(recognizer.recognize_span(&streams, span));
        }
    };
    recognize_all();
    let before = bench::count_allocs::alloc_count();
    recognize_all();
    let allocs = bench::count_allocs::alloc_count() - before;
    let n = spans.len();
    let per_span = allocs as f64 / n as f64;
    println!("stroke path: {allocs} allocations over {n} spans ({per_span:.4}/span)");
    format!("{{ \"spans\": {n}, \"allocs\": {allocs}, \"allocs_per_span\": {per_span:.4} }}")
}

fn main() {
    println!("kernel microbenchmarks ({ELEMS} elems, half-window {HALF}):");
    let kernel_entry = run_kernel_bench();
    println!("steady-state allocation gate:");
    let alloc_entry = run_alloc_gate();
    println!("stroke allocation gate:");
    let stroke_entry = run_stroke_alloc_gate();
    experiments::benchjson::merge_entry("kernel_bench", &kernel_entry)
        .expect("merge kernel_bench into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("hot_path_allocs", &alloc_entry)
        .expect("merge hot_path_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("stroke_allocs", &stroke_entry)
        .expect("merge stroke_allocs into BENCH_pipeline.json");
    println!("merged kernel_bench + hot_path_allocs + stroke_allocs into BENCH_pipeline.json");
}
