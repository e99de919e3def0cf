//! Hot-path gates: allocation counts, frame counts and one cost ratio.
//!
//! Eight probes, merged into `BENCH_pipeline.json` for `bench-check.sh`:
//!
//! * `hot_path_allocs` — feeds a quiet synthetic session through
//!   a `StageGraph` long enough to pass two retention-trim cycles (so
//!   every buffer a stage keeps, the shared frame sequence among them,
//!   reached its high-water capacity), then counts heap allocations over
//!   a trim-free measurement window. Steady-state per-tick processing
//!   must allocate exactly zero times. A second window spans the next two
//!   retention trims, which drop a prefix of every buffer in place: it
//!   must allocate zero times too.
//! * `stroke_allocs` — counts heap allocations across
//!   `Recognizer::recognize_span` over every span of the golden session
//!   (`tests/data/golden_session.rftrace`), the stroke-bearing work the
//!   quiet stream never reaches. The count may not grow past its
//!   committed value.
//! * `stroke_tick_allocs` — counts heap allocations inside every
//!   `StageGraph::push_into` / `finish_into` call that emits a
//!   `StrokeDetected` while a fresh graph replays the golden session: the
//!   whole stroke-bearing tick, from the span hand-off through motion,
//!   letter assembly and the grammar. Allocations per such call may not
//!   grow past the committed value.
//! * `reader_allocs` — counts heap allocations across
//!   `Bench::record_session` of the golden session, hand and forearm
//!   present: the simulated reader's power checks, inventory rounds and
//!   observations. Allocations per read may not grow past the committed
//!   value.
//! * `codec_allocs` — counts heap allocations of the report record codec
//!   on the golden session's reports: one `encode_frame_v` of a
//!   64-report BATCH, one `decode_payload_v` of that frame, and every
//!   `TraceSource::next_batch(64)` refill of the binary trace, read
//!   through an 8 KiB `BufReader` into a reused batch. Each count may not
//!   grow past its committed value.
//! * `tick_history` — how a push's cost grows with the buffered history:
//!   ns per pushed report of the quiet stream over 25–27 s of history
//!   against 3–5 s, fastest of several interleaved repetitions each. The
//!   ratio cancels the host's speed; `bench-check.sh` caps it.
//! * `tick_frames` — the frames a framing tick hands segmentation that
//!   the previous tick did not already hold unchanged
//!   (`frames.len() − unchanged`), averaged over the ticks of the same two
//!   history windows, with the quiet stream driven through the public
//!   `Framing` stage. An exact count: `bench-check.sh` holds the 25–27 s
//!   value to its committed one.
//! * `trim_frames` — frames built per retention trim of the quiet stream
//!   driven through the public `Framing` stage between 30 and 56 s (trims
//!   near 35, 40, 45, 50 and 55 s): the `sigproc_frames_built_total`
//!   frames from the trimming push through the first tick at or after it,
//!   that tick's own settled frame included. An exact count with no clock;
//!   a trim that replays the buffer rebuilds some 300 frames.
//!
//! Requires the `count-allocs` feature (a counting global allocator):
//! `cargo run --release -p bench --features count-allocs --bin kernel_bench`

use hand_kinematics::user::UserProfile;
use rfid_gen2::report::{ReportBatch, TagId, TagReport};
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::trace::{write_trace, TraceFormat};
use rfid_gen2::wire::{decode_payload_v, encode_frame_v, Frame, WIRE_VERSION};
use rfipad::stage::Framing;
use rfipad::{
    ArrayLayout, Calibration, PipelineEvent, Recognizer, RfipadConfig, Stage, StageGraph,
};
use std::sync::Arc;
use std::time::Instant;

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
const TRIM_STEPS: u64 = 160; // 8 s more, spans the ~45 s and ~50 s trims

/// The quiet stream's report of tag `i` at step `j`.
fn quiet_report(i: u64, j: u64) -> TagReport {
    let t = j as f64 * 0.05 + i as f64 * 0.01;
    TagReport::synthetic(TagId(i), t, 1.0 + i as f64, -45.0)
}

fn push_step(graph: &mut StageGraph, events: &mut Vec<PipelineEvent>, j: u64) {
    for i in 0..3u64 {
        graph.push_into(quiet_report(i, j), events);
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
    let before = bench::count_allocs::alloc_count();
    let trimmed = WARMUP_STEPS + MEASURED_STEPS;
    for j in trimmed..trimmed + TRIM_STEPS {
        push_step(&mut graph, &mut events, j);
    }
    let trim_allocs = bench::count_allocs::alloc_count() - before;
    assert!(events.is_empty(), "quiet stream must stay quiet");
    let pushes = MEASURED_STEPS * 3;
    let trim_pushes = TRIM_STEPS * 3;
    let per_push = allocs as f64 / pushes as f64;
    println!(
        "hot path: {allocs} allocations over {pushes} pushes ({per_push:.4}/push) \
         after {} warmup pushes; {trim_allocs} over the next {trim_pushes}, two \
         retention trims among them",
        WARMUP_STEPS * 3
    );
    format!(
        "{{ \"allocs\": {allocs}, \"pushes\": {pushes}, \"allocs_per_push\": {per_push:.4}, \
         \"warmup_pushes\": {}, \"trim_allocs\": {trim_allocs}, \"trim_pushes\": {trim_pushes} }}",
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

/// Counts allocations inside every `push_into` / `finish_into` call of a
/// fresh `StageGraph` over the golden session that emits a
/// `StrokeDetected`. One unmeasured replay runs first: it fills the
/// template table every clone of the bench's recognizer shares, and sizes
/// the reused event buffer.
fn run_stroke_tick_alloc_gate() -> String {
    let bench = experiments::golden::golden_bench();
    let reports = experiments::serveload::golden_reports(&bench);
    let graph = || {
        StageGraph::builder()
            .recognizer(bench.recognizer.clone())
            .build()
            .expect("stage graph")
    };
    let mut events = Vec::new();
    let mut warm = graph();
    warm.push_batch(&reports, &mut events);
    warm.finish_into(&mut events);
    let mut graph = graph();
    let (mut calls, mut allocs) = (0u64, 0u64);
    let mut count = |events: &mut Vec<PipelineEvent>, n: u64| {
        if events
            .iter()
            .any(|e| matches!(e, PipelineEvent::StrokeDetected { .. }))
        {
            calls += 1;
            allocs += n;
        }
        events.clear();
    };
    events.clear();
    for &obs in &reports {
        let before = bench::count_allocs::alloc_count();
        graph.push_into(obs, &mut events);
        count(&mut events, bench::count_allocs::alloc_count() - before);
    }
    let before = bench::count_allocs::alloc_count();
    graph.finish_into(&mut events);
    count(&mut events, bench::count_allocs::alloc_count() - before);
    assert!(calls > 0, "the golden session holds strokes");
    let per_call = allocs as f64 / calls as f64;
    println!("stroke ticks: {allocs} allocations over {calls} calls ({per_call:.4}/call)");
    format!("{{ \"calls\": {calls}, \"allocs\": {allocs}, \"allocs_per_call\": {per_call:.4} }}")
}

/// Repetitions of each `tick_history` measurement; the fastest counts.
const HISTORY_REPS: usize = 1001;

/// The history windows of `tick_history` and `tick_frames`, seconds.
const SHORT_HISTORY: (f64, f64) = (3.0, 5.0);
const LONG_HISTORY: (f64, f64) = (25.0, 27.0);

/// ns per pushed report while the quiet stream's history grows from
/// `from_s` to `to_s` seconds, on a fresh graph first fed up to `from_s`.
fn time_history_window(from_s: f64, to_s: f64) -> f64 {
    let mut graph = quiet_graph();
    let mut events = Vec::new();
    // Steps are 50 ms apart.
    let (first, last) = ((from_s * 20.0) as u64, (to_s * 20.0) as u64);
    for j in 0..first {
        push_step(&mut graph, &mut events, j);
    }
    let start = Instant::now();
    for j in first..last {
        push_step(&mut graph, &mut events, j);
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / ((last - first) * 3) as f64;
    assert!(events.is_empty(), "quiet stream must stay quiet");
    ns
}

/// Times pushes over a short and a long quiet history, interleaved so a
/// host slowdown hits both, and reports the long/short ratio of the
/// fastest repetitions. The long window ends before the first retention
/// trim (about 35 s), so the history only grows inside it.
fn run_tick_history() -> String {
    let (mut short, mut long) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..HISTORY_REPS {
        short = short.min(time_history_window(SHORT_HISTORY.0, SHORT_HISTORY.1));
        long = long.min(time_history_window(LONG_HISTORY.0, LONG_HISTORY.1));
    }
    let ratio = long / short;
    println!(
        "tick history: {short:.1} ns/report at {}-{} s, {long:.1} at {}-{} s \
         (ratio {ratio:.3}, fastest of {HISTORY_REPS})",
        SHORT_HISTORY.0, SHORT_HISTORY.1, LONG_HISTORY.0, LONG_HISTORY.1
    );
    format!(
        "{{ \"reps\": {HISTORY_REPS}, \"short_history_s\": [{}, {}], \
         \"long_history_s\": [{}, {}], \"short_ns_per_report\": {short:.1}, \
         \"long_ns_per_report\": {long:.1}, \"ratio\": {ratio:.3} }}",
        SHORT_HISTORY.0, SHORT_HISTORY.1, LONG_HISTORY.0, LONG_HISTORY.1
    )
}

/// Mean `frames.len() − unchanged` over the framing ticks while the quiet
/// stream's history grows from `from_s` to `to_s` seconds. The stream
/// drives a `Framing` stage as the benchmark's chain does (the windows
/// end before a retention trim), and each tick is dropped before the next
/// push, as segmentation drops it.
fn frames_per_tick(from_s: f64, to_s: f64) -> f64 {
    let recognizer = quiet_graph().recognizer().clone();
    let config = recognizer.config();
    let end_guard_s = config.frame_len_s * config.window_frames as f64;
    let mut framing = Framing::new(Arc::new(recognizer), 1.5, end_guard_s);
    let mut ticks = Vec::new();
    let (first, last) = ((from_s * 20.0) as u64, (to_s * 20.0) as u64);
    let (mut count, mut frames) = (0, 0);
    for j in 0..last {
        for i in 0..3 {
            framing.push(quiet_report(i, j), &mut ticks);
            for tick in ticks.drain(..).filter(|_| j >= first) {
                count += 1;
                frames += tick.frames.len() - tick.unchanged;
            }
        }
    }
    frames as f64 / count as f64
}

/// The window of `trim_frames`, seconds of the quiet stream.
const TRIM_WINDOW: (f64, f64) = (30.0, 56.0);

/// Frames built per retention trim of the quiet stream inside
/// [`TRIM_WINDOW`]: from the push that trimmed through the first tick at
/// or after it, read from `sigproc_frames_built_total`. The stream drives
/// a `Framing` stage alone, so nothing else builds frames meanwhile.
fn run_trim_frames() -> String {
    let built = obs::registry().counter("sigproc_frames_built_total", "", &[]);
    let recognizer = quiet_graph().recognizer().clone();
    let config = recognizer.config();
    let end_guard_s = config.frame_len_s * config.window_frames as f64;
    let mut framing = Framing::new(Arc::new(recognizer), 1.5, end_guard_s);
    let mut ticks = Vec::new();
    let (first, last) = ((TRIM_WINDOW.0 * 20.0) as u64, (TRIM_WINDOW.1 * 20.0) as u64);
    let (mut trims, mut frames) = (0u64, 0u64);
    // Counter reading at the start of an open trim's push, if one is open.
    let mut open: Option<u64> = None;
    for j in 0..last {
        for i in 0..3 {
            let before = built.get();
            framing.push(quiet_report(i, j), &mut ticks);
            if framing.take_trim().is_some() && j >= first {
                trims += 1;
                open = open.or(Some(before));
            }
            if !ticks.is_empty() {
                if let Some(from) = open.take() {
                    frames += built.get() - from;
                }
            }
            ticks.clear();
        }
    }
    assert!(trims > 0, "the window holds retention trims");
    let per_trim = frames as f64 / trims as f64;
    println!(
        "trim frames: {per_trim:.3} per retention trim over {trims} trims at {}-{} s",
        TRIM_WINDOW.0, TRIM_WINDOW.1
    );
    format!(
        "{{ \"window_s\": [{}, {}], \"trims\": {trims}, \"frames_per_trim\": {per_trim:.3} }}",
        TRIM_WINDOW.0, TRIM_WINDOW.1
    )
}

fn run_tick_frames() -> String {
    let short = frames_per_tick(SHORT_HISTORY.0, SHORT_HISTORY.1);
    let long = frames_per_tick(LONG_HISTORY.0, LONG_HISTORY.1);
    println!(
        "tick frames: {short:.3} per tick at {}-{} s, {long:.3} at {}-{} s",
        SHORT_HISTORY.0, SHORT_HISTORY.1, LONG_HISTORY.0, LONG_HISTORY.1
    );
    format!(
        "{{ \"short_history_s\": [{}, {}], \"long_history_s\": [{}, {}], \
         \"short_frames_per_tick\": {short:.3}, \"long_frames_per_tick\": {long:.3} }}",
        SHORT_HISTORY.0, SHORT_HISTORY.1, LONG_HISTORY.0, LONG_HISTORY.1
    )
}

/// Counts allocations across `Bench::record_session` of the golden
/// session. The bench is calibrated first, so the reader's metrics are
/// already registered and the count covers only the recording.
fn run_reader_alloc_gate() -> String {
    let bench = experiments::golden::golden_bench();
    let (session, mut rng) = experiments::golden::golden_session(&bench);
    let user = UserProfile::average();
    let before = bench::count_allocs::alloc_count();
    let reports = bench.record_session(&session, &user, &mut rng);
    let allocs = bench::count_allocs::alloc_count() - before;
    let reads = reports.len();
    assert!(reads > 0, "the golden session is read");
    let per_read = allocs as f64 / reads as f64;
    println!("reader: {allocs} allocations over {reads} reads ({per_read:.4}/read)");
    format!("{{ \"reads\": {reads}, \"allocs\": {allocs}, \"allocs_per_read\": {per_read:.4} }}")
}

/// Counts allocations of the record codec: encoding and decoding one
/// 64-report BATCH frame, and refilling a reused batch from the binary
/// golden trace until it ends. The decoded frame owns its session id and
/// its reports, so decoding needs two allocations; encoding needs the
/// frame's one buffer; a refill needs none.
fn run_codec_alloc_gate() -> String {
    const BATCH: usize = 64;
    let bench = experiments::golden::golden_bench();
    let reports = experiments::serveload::golden_reports(&bench);
    let frame = Frame::Batch {
        session: "pad-0".into(),
        seq: 1,
        reports: reports[..BATCH].to_vec(),
        trace: None,
    };
    let before = bench::count_allocs::alloc_count();
    let bytes = encode_frame_v(&frame, WIRE_VERSION);
    let encode_allocs = bench::count_allocs::alloc_count() - before;
    let before = bench::count_allocs::alloc_count();
    let decoded = decode_payload_v(&bytes[4..], WIRE_VERSION).expect("the frame decodes");
    let decode_allocs = bench::count_allocs::alloc_count() - before;
    assert_eq!(decoded, frame);

    let mut trace = Vec::new();
    write_trace(&mut trace, TraceFormat::Binary, &reports).expect("in-memory write");
    let mut source =
        TraceSource::from_reader(std::io::BufReader::new(trace.as_slice())).expect("magic");
    let mut batch = ReportBatch::with_capacity(BATCH);
    let (mut refills, mut read) = (0, 0);
    let before = bench::count_allocs::alloc_count();
    loop {
        batch.clear();
        let n = source.next_batch(BATCH, &mut batch);
        if n == 0 {
            break;
        }
        refills += 1;
        read += n;
    }
    let refill_allocs = bench::count_allocs::alloc_count() - before;
    assert!(source.error().is_none(), "the golden trace decodes");
    assert_eq!(read, reports.len());
    println!(
        "codec: {encode_allocs} allocations per {BATCH}-report BATCH encode, \
         {decode_allocs} per decode, {refill_allocs} across {refills} trace refills"
    );
    format!(
        "{{ \"batch_reports\": {BATCH}, \"encode_allocs\": {encode_allocs}, \
         \"decode_allocs\": {decode_allocs}, \"refills\": {refills}, \
         \"refill_allocs\": {refill_allocs} }}"
    )
}

fn main() {
    println!("steady-state allocation gate:");
    let alloc_entry = run_alloc_gate();
    println!("stroke allocation gate:");
    let stroke_entry = run_stroke_alloc_gate();
    println!("stroke-tick allocation gate:");
    let stroke_tick_entry = run_stroke_tick_alloc_gate();
    println!("reader allocation gate:");
    let reader_entry = run_reader_alloc_gate();
    println!("codec allocation gate:");
    let codec_entry = run_codec_alloc_gate();
    println!("tick cost against history:");
    let history_entry = run_tick_history();
    println!("frames per tick against history:");
    let frames_entry = run_tick_frames();
    println!("frames per retention trim:");
    let trim_entry = run_trim_frames();
    experiments::benchjson::merge_entry("hot_path_allocs", &alloc_entry)
        .expect("merge hot_path_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("stroke_allocs", &stroke_entry)
        .expect("merge stroke_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("stroke_tick_allocs", &stroke_tick_entry)
        .expect("merge stroke_tick_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("reader_allocs", &reader_entry)
        .expect("merge reader_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("codec_allocs", &codec_entry)
        .expect("merge codec_allocs into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("tick_history", &history_entry)
        .expect("merge tick_history into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("tick_frames", &frames_entry)
        .expect("merge tick_frames into BENCH_pipeline.json");
    experiments::benchjson::merge_entry("trim_frames", &trim_entry)
        .expect("merge trim_frames into BENCH_pipeline.json");
    println!(
        "merged hot_path_allocs + stroke_allocs + stroke_tick_allocs + reader_allocs \
         + codec_allocs + tick_history + tick_frames + trim_frames into BENCH_pipeline.json"
    );
}
