//! Perf-trajectory probe: times the static-channel cache and the parallel
//! trial fan-out, then writes machine-readable results to
//! `BENCH_pipeline.json` so future PRs can compare against this one.
//!
//! Measures four levels:
//!   1. `Scene::observe` cached vs. from-scratch (`observe_uncached`) — the
//!      Layer-1 win; the uncached path is the seed's per-read cost.
//!   2. A 13-stroke trial batch serial vs. parallel — the Layer-2 win
//!      (thread count pinned via `RAYON_NUM_THREADS`).
//!   3. Trace replay: decode the golden session from both framings and
//!      recognize it — the cost of running from a recorded trace instead
//!      of a live reader.
//!   4. Optionally (`--run-all`), the full `run_all quick` roster with
//!      `--jobs 1` vs. `--jobs 0` (all cores).
//!
//! Usage: `cargo run --release -p experiments --bin bench_pipeline [-- --run-all]`

use experiments::golden::golden_trial;
use experiments::serveload::session_pipeline;
use experiments::{Bench, Deployment, DeploymentSpec};
use hand_kinematics::stroke::Stroke;
use hand_kinematics::user::UserProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rf_sim::targets::StaticTarget;
use rf_sim::Vec3;
use rfipad::RfipadConfig;
use std::time::Instant;

fn time_observe(bench: &Bench, cached: bool, iters: u32) -> f64 {
    let scene = &bench.deployment.scene;
    let id = bench.deployment.layout.tags()[6];
    let hand = StaticTarget::new(Vec3::new(-0.08, -0.11, 0.04), 0.02);
    let mut rng = StdRng::seed_from_u64(3);
    let start = Instant::now();
    let mut acc = 0.0;
    for i in 0..iters {
        let t = i as f64 * 1e-4;
        let obs = if cached {
            scene.observe(id, t, &[&hand], &mut rng)
        } else {
            scene.observe_uncached(id, t, &[&hand], &mut rng)
        };
        if let Some(o) = obs {
            acc += o.phase;
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() / iters as f64 * 1e9
}

fn time_batch(bench: &Bench, user: &UserProfile, threads: Option<usize>) -> f64 {
    match threads {
        Some(n) => std::env::set_var("RAYON_NUM_THREADS", n.to_string()),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    let jobs: Vec<(Stroke, u64)> = Stroke::all_thirteen()
        .into_iter()
        .enumerate()
        .map(|(i, s)| (s, 400 + i as u64))
        .collect();
    let start = Instant::now();
    let trials = bench.run_stroke_trials(&jobs, user);
    let elapsed = start.elapsed().as_secs_f64();
    std::hint::black_box(trials.len());
    std::env::remove_var("RAYON_NUM_THREADS");
    elapsed
}

/// Times decode-from-buffer + whole-recording recognition of the golden
/// session in one trace framing; returns (ms per replay, encoded bytes).
fn time_trace_replay(bench: &Bench, encoded: &[u8], iters: u32) -> (f64, usize) {
    use rfid_gen2::source::{ReportSource, TraceSource};
    let start = Instant::now();
    for _ in 0..iters {
        let mut source =
            TraceSource::from_reader(std::io::BufReader::new(encoded)).expect("readable trace");
        let reports = source.try_collect_reports().expect("golden trace decodes");
        let result = bench.recognizer.recognize_session(&reports);
        std::hint::black_box(result.letter);
    }
    (
        start.elapsed().as_secs_f64() / iters as f64 * 1e3,
        encoded.len(),
    )
}

/// Times the serial streaming replay over the golden session: every
/// report pushed through `StageGraph::push_into` (the incremental framing
/// / cached-streams hot path) plus the final flush. Returns (reports per
/// second, reports per replay); asserts the letter so a regression in the
/// incremental path cannot silently score as a speedup.
fn time_incremental_framing(
    bench: &Bench,
    reports: &[rfid_gen2::report::TagReport],
) -> (f64, usize) {
    use rfipad::PipelineEvent;
    let rounds = 20;
    let mut events = Vec::new();
    let start = Instant::now();
    for _ in 0..rounds {
        let mut graph = session_pipeline(&bench.recognizer);
        let mut letter = None;
        for r in reports {
            graph.push_into(*r, &mut events);
        }
        graph.finish_into(&mut events);
        for e in events.drain(..) {
            if let PipelineEvent::LetterRecognized { letter: l, .. } = e {
                letter = l;
            }
        }
        assert_eq!(
            letter,
            Some(experiments::golden::GOLDEN_LETTER),
            "incremental replay must still recognize the golden letter"
        );
    }
    let elapsed = start.elapsed().as_secs_f64();
    ((rounds * reports.len()) as f64 / elapsed, reports.len())
}

fn time_run_all(jobs_flag: &str) -> Option<f64> {
    let exe_dir = std::env::current_exe().ok()?.parent()?.to_path_buf();
    let start = Instant::now();
    let status = std::process::Command::new(exe_dir.join("run_all"))
        .args(["quick", "--jobs", jobs_flag])
        .stdout(std::process::Stdio::null())
        .status()
        .ok()?;
    if !status.success() {
        return None;
    }
    Some(start.elapsed().as_secs_f64())
}

fn main() {
    let with_run_all = std::env::args().any(|a| a == "--run-all");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    obs::info!("calibrating bench");
    let bench = Bench::calibrate(
        Deployment::build(DeploymentSpec::default(), 42),
        RfipadConfig::default(),
        1,
    );
    let user = UserProfile::average();

    obs::info!("timing Scene::observe (cached vs uncached)");
    // Warm up, then measure.
    time_observe(&bench, true, 2_000);
    let cached_ns = time_observe(&bench, true, 20_000);
    let uncached_ns = time_observe(&bench, false, 20_000);

    obs::info!("timing 13-stroke batch"; serial_vs_threads = cores);
    let serial_s = time_batch(&bench, &user, Some(1));
    let parallel_s = time_batch(&bench, &user, None);

    obs::info!("timing golden-trace replay (JSON lines vs binary)");
    use rfid_gen2::trace::{write_trace, TraceFormat};
    let golden = golden_trial(&bench);
    let mut json_buf = Vec::new();
    write_trace(&mut json_buf, TraceFormat::JsonLines, &golden.reports).expect("encode json");
    let mut bin_buf = Vec::new();
    write_trace(&mut bin_buf, TraceFormat::Binary, &golden.reports).expect("encode binary");
    let (json_ms, json_bytes) = time_trace_replay(&bench, &json_buf, 20);
    let (bin_ms, bin_bytes) = time_trace_replay(&bench, &bin_buf, 20);

    obs::info!("timing serial streaming replay (incremental framing)");
    let (framing_rps, framing_reports) = time_incremental_framing(&bench, &golden.reports);

    let run_all = if with_run_all {
        obs::info!("timing run_all quick --jobs 1 (serial)");
        let one = time_run_all("1");
        obs::info!("timing run_all quick --jobs 0 (all cores)");
        let all = time_run_all("0");
        one.zip(all)
    } else {
        None
    };

    let observe_speedup = uncached_ns / cached_ns;
    let batch_speedup = serial_s / parallel_s;
    // The seed ran uncached AND serial, so its estimated cost multiplies
    // both ratios; the measured components are recorded separately.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"cores\": {cores},\n"));
    json.push_str(&format!(
        "  \"scene_observe\": {{ \"cached_ns\": {cached_ns:.1}, \"uncached_ns\": {uncached_ns:.1}, \"speedup\": {observe_speedup:.2} }},\n"
    ));
    json.push_str(&format!(
        "  \"stroke_batch_13\": {{ \"serial_s\": {serial_s:.3}, \"parallel_s\": {parallel_s:.3}, \"speedup\": {batch_speedup:.2}, \"cores\": {cores} }},\n"
    ));
    json.push_str(&format!(
        "  \"trace_replay\": {{ \"reports\": {}, \"json_ms\": {json_ms:.2}, \"json_bytes\": {json_bytes}, \"binary_ms\": {bin_ms:.2}, \"binary_bytes\": {bin_bytes} }},\n",
        golden.reports.len()
    ));
    json.push_str(&format!(
        "  \"incremental_framing\": {{ \"reports\": {framing_reports}, \"reports_per_s\": {framing_rps:.0} }},\n"
    ));
    if let Some((one, all)) = run_all {
        json.push_str(&format!(
            "  \"run_all_quick\": {{ \"jobs1_s\": {one:.1}, \"jobs_all_s\": {all:.1}, \"speedup\": {:.2}, \"cores\": {cores} }},\n",
            one / all
        ));
    }
    json.push_str(&format!(
        "  \"estimated_speedup_vs_uncached_serial\": {:.1},\n",
        observe_speedup * batch_speedup
    ));
    json.push_str(
        "  \"note\": \"uncached_ns x serial_s approximate the pre-cache single-core seed; all trials are seeded and bit-identical across thread counts\"\n}\n",
    );

    std::fs::write("BENCH_pipeline.json", &json).expect("write BENCH_pipeline.json");
    print!("{json}");
    obs::info!("wrote BENCH_pipeline.json");
}
