//! One benchmark run: set-up, the measured phase, and the metrics it
//! reports. An untraced run reports the end-to-end metrics; a traced run
//! reports the per-layer ledger.

use crate::corpus::CorpusSpec;
use crate::spans::{ratio, to_jsonl, Ledger, Span};
use crate::workloads::{PassStats, Setup, Traced, Workload, CLIENTS};
use sigproc::stats::{median, percentile};
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Passes the traced phase runs.
pub const TRACED_PASSES: usize = 3;
/// Least share of the traced wall time the layers must account for.
pub const MIN_LEDGER_COVERAGE: f64 = 0.9;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// How many samples a percentile was taken over.
    pub samples: Option<usize>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// What a run measured and whether every output was right.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or diverged from their reference.
    pub failed: u64,
    /// Run-level checks that failed (repeated work, ledger coverage).
    pub check_failed: Vec<String>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Where the traced run wrote its spans.
    pub spans_path: Option<String>,
}

impl Report {
    /// Whether every operation and run-level check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failed.is_empty() && self.attempted > 0
    }

    fn count(&mut self, p: &PassStats) {
        self.attempted += p.attempted;
        self.failed += p.failed;
    }

    fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failed.push(what.into());
        }
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON; a non-finite measurement is reported as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// One value per unit of work (a session, a trial, a pass or a call),
/// collected across passes. Every pass repeats the same units in the same
/// order, because the corpus and the program are deterministic.
#[derive(Debug, Default)]
struct Repeats(Vec<Vec<f64>>);

impl Repeats {
    /// Adds one pass's values; `false` if the pass had another number of
    /// units than the first.
    fn add(&mut self, pass: &[f64]) -> bool {
        if self.0.is_empty() {
            self.0 = pass.iter().map(|&v| vec![v]).collect();
            return true;
        }
        if self.0.len() != pass.len() {
            return false;
        }
        for (unit, &v) in self.0.iter_mut().zip(pass) {
            unit.push(v);
        }
        true
    }

    /// What each unit took in its fastest tenth of passes. Other tenants of
    /// a shared host slow some repetitions down and never speed one up, so
    /// this is what the unit costs the program itself.
    fn fastest(&self) -> Vec<f64> {
        self.0.iter().map(|unit| percentile(unit, 10.0)).collect()
    }
}

/// Runs untraced passes back to back until `seconds` have elapsed (at
/// least two), calling `each` with every pass's outcome and whether it
/// clocked its calls. Latency passes, which clock every call, alternate
/// with rate passes, starting with a latency pass.
fn phase(setup: &mut Setup, seconds: f64, mut each: impl FnMut(&PassStats, bool)) {
    let deadline = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = 0;
    while passes < 2 || started.elapsed() < deadline {
        let clock_calls = passes % 2 == 0;
        each(&setup.pass(clock_calls), clock_calls);
        passes += 1;
    }
}

/// The untraced run: [`SETUPS`] set-ups (the last one is kept), then the
/// measured phase. Reports every end-to-end metric.
pub fn untraced(w: Workload, spec: &CorpusSpec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            old.shutdown();
        }
        let t = Instant::now();
        kept = Some(Setup::new(w, spec, seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = kept.expect("at least one set-up");
    report.count(&setup.warmup);

    let (mut units, mut calls) = (Repeats::default(), Repeats::default());
    let (mut pass_reports, mut pass_letters) = (0u64, 0u64);
    let (mut letters, mut correct) = (0u64, 0u64);
    phase(&mut setup, seconds, |p, clocked| {
        report.count(p);
        letters += p.letters;
        correct += p.letters_correct;
        let repeated = if clocked {
            calls.add(&p.latencies_us)
        } else {
            (pass_reports, pass_letters) = (p.reports, p.letters);
            units.add(&p.unit_s)
        };
        report.check(repeated, "a pass did other work than the first");
    });
    setup.shutdown();

    let pass_s: f64 = units.fastest().iter().sum();
    let calls = calls.fastest();
    let samples = Some(calls.len());
    report.metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric(
            "reports_per_s",
            ratio(pass_reports as f64, pass_s),
            "reports/s",
        ),
        metric(
            "trials_per_s",
            ratio(pass_letters as f64, pass_s),
            "trials/s",
        ),
        Metric {
            samples,
            ..metric("latency_p50_us", percentile(&calls, 50.0), "us")
        },
        Metric {
            samples,
            ..metric("latency_p90_us", percentile(&calls, 90.0), "us")
        },
        metric(
            "letter_accuracy",
            ratio(correct as f64, letters as f64),
            "fraction",
        ),
    ];
    report
}

/// Sums the counters of several passes (latencies are not kept).
fn fold(passes: &[PassStats]) -> PassStats {
    let mut all = PassStats::default();
    for p in passes {
        all.wall_s += p.wall_s;
        all.reports += p.reports;
        all.letters += p.letters;
        all.letters_correct += p.letters_correct;
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.chain.absorb(&p.chain);
        all.decoded += p.decoded;
        all.batches += p.batches;
        all.wire_bytes += p.wire_bytes;
        all.push_p99_ns.extend_from_slice(&p.push_p99_ns);
        all.trials += p.trials;
        all.reads += p.reads;
        all.slots += p.slots;
        all.slot_successes += p.slot_successes;
    }
    all
}

/// One traced phase: the summed counts of its passes, their spans, and
/// the ledger built from them.
struct Phase {
    name: &'static str,
    stats: PassStats,
    spans: Vec<Span>,
    ledger: Ledger,
    passes: f64,
}

impl Phase {
    fn new(name: &'static str, passes: &[PassStats], spans: Vec<Span>) -> Self {
        Self {
            name,
            stats: fold(passes),
            ledger: Ledger::of(&spans),
            spans,
            passes: passes.len() as f64,
        }
    }
}

/// Runs one traced pass of `what` as a phase of its own.
fn probe(setup: &mut Setup, what: Traced, epoch: Instant, thread: u64) -> Phase {
    let (stats, spans) = setup.traced_pass(what, epoch, thread);
    Phase::new(what.name(), &[stats], spans)
}

/// The traced run: one set-up; an untraced phase of half the run time as
/// the overhead baseline; [`TRACED_PASSES`] traced passes of the workload;
/// then one traced pass of a probe for each layer the workload never
/// calls, so every traced run reports every layer:
///
/// - the stages: `letters` and `sim_trials` drive them through the chain
///   themselves; `kiosk` and `served` run the cascade probe;
/// - the engine and trace decode: a `kiosk` pass;
/// - the client round trip: a `served` pass;
/// - the reader and kinematics: a `sim_trials` pass;
/// - the wire codec: always the wire probe.
///
/// Writes the spans to `<spans_dir>/<workload>-<seed>.spans.jsonl` and
/// reports every per-layer metric.
pub fn traced(
    w: Workload,
    spec: &CorpusSpec,
    seed: u64,
    seconds: f64,
    spans_dir: &std::path::Path,
) -> Report {
    let mut report = Report::default();
    let mut setup = Setup::new(w, spec, seed);
    report.count(&setup.warmup);
    let times = setup.times;

    let mut untraced_rate = Vec::new();
    phase(&mut setup, seconds / 2.0, |p, clocked| {
        report.count(p);
        if !clocked {
            untraced_rate.push(p.reports as f64 / p.wall_s);
        }
    });

    let epoch = Instant::now();
    let mut passes = Vec::new();
    let mut spans = Vec::new();
    for k in 0..TRACED_PASSES as u64 {
        let (p, s) = setup.traced_pass(Traced::Pass(w), epoch, k * CLIENTS as u64 + 1);
        passes.push(p);
        spans.extend(s);
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.reports as f64 / p.wall_s).collect();
    let work = Phase::new("workload", &passes, spans);

    let mut thread = 100;
    let mut probe_unless = |own: bool, what: Traced| {
        thread += CLIENTS as u64;
        (!own).then(|| probe(&mut setup, what, epoch, thread))
    };
    let chain_driven = matches!(w, Workload::Letters | Workload::SimTrials);
    let cascade = probe_unless(chain_driven, Traced::Cascade);
    let kiosk = probe_unless(w == Workload::Kiosk, Traced::Pass(Workload::Kiosk));
    let served = probe_unless(w == Workload::Served, Traced::Pass(Workload::Served));
    let sim = probe_unless(w == Workload::SimTrials, Traced::Pass(Workload::SimTrials));
    let wire = probe_unless(false, Traced::Wire).expect("the wire probe always runs");
    let trace_bytes: usize = setup.corpus.streams.iter().map(|s| s.trace.len()).sum();
    let trace_bytes_per_report = ratio(trace_bytes as f64, setup.corpus.stream_reports() as f64);
    setup.shutdown();

    let phases: Vec<&Phase> = [Some(&work), cascade.as_ref(), kiosk.as_ref()]
        .into_iter()
        .chain([served.as_ref(), sim.as_ref(), Some(&wire)])
        .flatten()
        .collect();
    let mut text = String::new();
    for p in &phases {
        report.count(&p.stats);
        // The wire probe builds its frames inside its pass, so only the
        // codec calls are a layer there.
        report.check(
            p.name == "wire" || p.ledger.coverage() >= MIN_LEDGER_COVERAGE,
            format!(
                "layers cover {:.3} of the traced {} wall time",
                p.ledger.coverage(),
                p.name
            ),
        );
        to_jsonl(p.name, &p.spans, &mut text);
    }
    let path = spans_dir.join(format!("{}-{seed}.spans.jsonl", w.name()));
    let written = std::fs::create_dir_all(spans_dir).and_then(|()| std::fs::write(&path, text));
    report.check(written.is_ok(), format!("writing {}", path.display()));
    report.spans_path = Some(path.display().to_string());

    // Each layer is read from the phase that exercised it.
    let stages = cascade.as_ref().unwrap_or(&work);
    let engine = kiosk.as_ref().unwrap_or(&work);
    let serve = served.as_ref().unwrap_or(&work);
    let sim = sim.as_ref().unwrap_or(&work);

    let per = |num: f64, den: u64| ratio(num, den as f64);
    let (sl, c) = (&stages.ledger, stages.stats.chain);
    let cascade_ns: f64 = ["framing", "segmentation", "motion", "letter", "grammar"]
        .iter()
        .map(|l| sl.self_ns(l) as f64)
        .sum();
    let wire_enc = per(wire.ledger.ns("encode") as f64, wire.stats.reports);
    let wire_dec = per(wire.ledger.ns("wire_decode") as f64, wire.stats.reports);
    let round_trip_ns = serve.ledger.ns("round_trip") as f64;
    let explained =
        (wire_enc + wire_dec + per(cascade_ns, c.reports)) * serve.stats.decoded as f64;
    let el = &engine.ledger;

    report.metrics = vec![
        metric(
            "framing.ns_per_report",
            per(sl.self_ns("framing") as f64, c.reports),
            "ns",
        ),
        metric(
            "framing.ticks_per_report",
            per(c.ticks as f64, c.reports),
            "ratio",
        ),
        metric(
            "framing.rebuilds",
            c.rebuilds as f64 / stages.passes,
            "count",
        ),
        metric(
            "framing.allocs_per_tick",
            per(c.framing_allocs as f64, c.ticks),
            "count",
        ),
        metric("framing.share", sl.share("framing"), "fraction"),
        metric(
            "segmentation.ns_per_tick",
            per(sl.self_ns("segmentation") as f64, c.ticks),
            "ns",
        ),
        metric(
            "segmentation.span_yield",
            per(c.spans as f64, c.ticks),
            "ratio",
        ),
        metric(
            "segmentation.allocs_per_tick",
            per(c.segmentation_allocs as f64, c.ticks),
            "count",
        ),
        metric("segmentation.share", sl.share("segmentation"), "fraction"),
        metric(
            "motion.ns_per_span",
            per(sl.self_ns("motion") as f64, c.spans),
            "ns",
        ),
        metric(
            "motion.stroke_yield",
            per(c.strokes as f64, c.spans),
            "ratio",
        ),
        metric(
            "motion.allocs_per_span",
            per(c.motion_allocs as f64, c.spans),
            "count",
        ),
        metric("motion.share", sl.share("motion"), "fraction"),
        metric(
            "letter.ns_per_batch",
            per(sl.self_ns("letter") as f64, c.letter_batches),
            "ns",
        ),
        metric("letter.share", sl.share("letter"), "fraction"),
        metric(
            "grammar.ns_per_close",
            per(sl.self_ns("grammar") as f64, c.closes),
            "ns",
        ),
        metric(
            "grammar.decode_yield",
            per(c.decoded as f64, c.closes),
            "ratio",
        ),
        metric(
            "grammar.allocs_per_close",
            per(c.grammar_close_allocs as f64, c.closes),
            "count",
        ),
        metric("grammar.share", sl.share("grammar"), "fraction"),
        metric(
            "engine.ingest_ns_per_batch",
            per(el.ns("ingest") as f64, el.count("ingest")),
            "ns",
        ),
        metric("engine.blocked_share", el.share("engine"), "fraction"),
        metric(
            "engine.close_ns_per_session",
            per(el.ns("close") as f64, el.count("close")),
            "ns",
        ),
        metric(
            "engine.push_p99_ns",
            median(&engine.stats.push_p99_ns),
            "ns",
        ),
        metric(
            "trace.decode_ns_per_report",
            per(el.ns("decode") as f64, engine.stats.decoded),
            "ns",
        ),
        metric("trace.bytes_per_report", trace_bytes_per_report, "bytes"),
        metric("wire.encode_ns_per_report", wire_enc, "ns"),
        metric("wire.decode_ns_per_report", wire_dec, "ns"),
        metric(
            "wire.bytes_per_report",
            per(wire.stats.wire_bytes as f64, wire.stats.reports),
            "bytes",
        ),
        metric("wire.frames", wire.stats.batches as f64, "count"),
        metric(
            "serve.ns_per_frame",
            per(round_trip_ns, serve.ledger.count("round_trip")),
            "ns",
        ),
        metric(
            "serve.unattributed_share",
            ratio(round_trip_ns - explained, round_trip_ns),
            "fraction",
        ),
        metric(
            "reader.ns_per_read",
            per(sim.ledger.self_ns("reader") as f64, sim.stats.reads),
            "ns",
        ),
        metric(
            "reader.slot_efficiency",
            per(sim.stats.slot_successes as f64, sim.stats.slots),
            "ratio",
        ),
        metric(
            "reader.reads_per_trial",
            per(sim.stats.reads as f64, sim.stats.trials),
            "count",
        ),
        metric("reader.share", sim.ledger.share("reader"), "fraction"),
        metric(
            "kinematics.ns_per_letter",
            per(sim.ledger.self_ns("kinematics") as f64, sim.stats.trials),
            "ns",
        ),
        metric(
            "kinematics.share",
            sim.ledger.share("kinematics"),
            "fraction",
        ),
        metric("setup.calibrate_s", times.calibrate_s, "s"),
        metric("setup.corpus_s", times.corpus_s, "s"),
        metric("setup.reference_s", times.reference_s, "s"),
        metric("setup.warmup_s", times.warmup_s, "s"),
        metric("ledger.coverage", work.ledger.coverage(), "fraction"),
        metric(
            "tracing_overhead_pct",
            // The fastest tenth of passes, untraced against traced.
            (ratio(percentile(&untraced_rate, 90.0), percentile(&rates, 90.0)) - 1.0) * 100.0,
            "%",
        ),
    ];
    report
}
