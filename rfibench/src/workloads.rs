//! The four workloads: set-up, one pass over the corpus each, and the
//! probes the traced run adds to split black-box layers apart.
//!
//! Every pass is a closed loop: a caller sends its next report, batch,
//! frame or trial only after the previous one returned. Each pass checks
//! its outputs against the set-up's reference replay.

use crate::chain::{Chain, ChainCounts};
use crate::corpus::{last_letter, stream_letters_correct, Corpus, CorpusSpec, References};
use crate::corpus::{Session, LETTER_GAP_S};
use crate::spans::{Span, Tracer};
use experiments::serveload::session_pipeline;
use experiments::trial::SESSION_MARGIN_SECS;
use experiments::Bench;
use hand_kinematics::writer::Writer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rf_sim::targets::MovingTarget;
use rfid_gen2::reader::ReaderRun;
use rfid_gen2::report::{ReportBatch, TagReport};
use rfid_gen2::source::{ReportSource, TraceSource};
use rfid_gen2::wire::{decode_payload_v, encode_frame_v, Frame, IngestClient, WIRE_VERSION};
use rfipad::engine::{normalize_events, Backpressure, Engine};
use rfipad::serve::{CollectingSink, EventSink, IngestServer};
use rfipad::{PipelineEvent, Recognizer, RfipadError, StageGraph};
use std::sync::Arc;
use std::time::Instant;

/// Reports per kiosk ingest batch: the engine's default batch.
pub const KIOSK_BATCH: usize = rfipad::engine::DEFAULT_INGEST_BATCH;
/// Reports per served BATCH frame: about one reader batch.
pub const SERVED_BATCH: usize = 16;
/// Client connections in `served`, each multiplexing half the streams.
pub const CLIENTS: usize = 2;
/// Engine queue capacity, in batches.
pub const QUEUE_CAPACITY: usize = 16;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// A fresh stage graph per recorded session, one thread.
    Letters,
    /// Long-lived engine sessions fed from binary traces.
    Kiosk,
    /// The kiosk streams over the TCP ingest server.
    Served,
    /// The trial simulator: writer, RF scene, reader and recognition.
    SimTrials,
}

impl Workload {
    /// Every workload. `BENCHMARK.json` lists `letters` and `kiosk`; the
    /// README says why the other two are left out of it.
    pub const ALL: [Workload; 4] = [
        Workload::Letters,
        Workload::Kiosk,
        Workload::Served,
        Workload::SimTrials,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Letters => "letters",
            Workload::Kiosk => "kiosk",
            Workload::Served => "served",
            Workload::SimTrials => "sim_trials",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a traced pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traced {
    /// A workload's pass. In another workload's traced run it is a probe
    /// for the layers that workload never calls; the engine and server it
    /// needs are started first.
    Pass(Workload),
    /// The kiosk streams through [`Chain`] on the calling thread: the
    /// stage ledger of `kiosk` and `served`, whose cascade runs out of
    /// sight in the engine worker.
    Cascade,
    /// Every BATCH frame a `served` pass sends, encoded and decoded: the
    /// wire codec on its own.
    Wire,
}

impl Traced {
    /// The phase name in span files.
    pub fn name(self) -> &'static str {
        match self {
            Traced::Pass(w) => w.name(),
            Traced::Cascade => "cascade",
            Traced::Wire => "wire",
        }
    }
}

/// Starts the engine `kiosk` and `served` feed.
fn start_engine() -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .workers(1)
            .queue_capacity(QUEUE_CAPACITY)
            .backpressure(Backpressure::Block)
            .build()
            .expect("engine configuration is valid"),
    )
}

/// Starts the loopback ingest server `served` talks to.
fn start_server(corpus: &Corpus, engine: Arc<Engine>) -> ServedRig {
    let sink = Arc::new(CollectingSink::new());
    // Streams are ordered by pad, so the session id's stream index picks
    // the recognizer.
    let recognizers: Vec<Recognizer> = corpus
        .streams
        .iter()
        .map(|s| corpus.benches[s.bench].recognizer.clone())
        .collect();
    let server = IngestServer::builder()
        .engine(engine)
        .pipeline_factory(move |id| {
            let recognizer = stream_index_of(id, None)
                .and_then(|i| recognizers.get(i))
                .ok_or_else(|| RfipadError::InvalidConfig(format!("unknown stream {id:?}")))?;
            Ok(session_pipeline(recognizer))
        })
        .event_sink(Arc::clone(&sink) as Arc<dyn EventSink>)
        .build()
        .expect("loopback server binds");
    ServedRig { server, sink }
}

/// Wall time of each set-up step, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Building and calibrating the pads.
    pub calibrate_s: f64,
    /// Recording sessions and idle stretches, splicing kiosk streams.
    pub corpus_s: f64,
    /// The reference replays.
    pub reference_s: f64,
    /// The untimed warm-up pass.
    pub warmup_s: f64,
}

/// The served workload's in-process server.
struct ServedRig {
    server: IngestServer,
    sink: Arc<CollectingSink>,
}

/// A workload ready to run: corpus, references and running services.
pub struct Setup {
    workload: Workload,
    /// The generated inputs.
    pub corpus: Corpus,
    /// What every pass must reproduce.
    pub refs: References,
    /// How long each set-up step took.
    pub times: SetupTimes,
    /// The warm-up pass's outcome (its checks count like any pass).
    pub warmup: PassStats,
    engine: Option<Arc<Engine>>,
    served: Option<ServedRig>,
    passes: u64,
}

impl Setup {
    /// Generates the corpus from `seed`, computes the references, starts
    /// the engine (and server) the workload needs, and runs one untimed
    /// warm-up pass. `sim_trials` skips the warm-up: recording the corpus
    /// already ran every one of its trials.
    pub fn new(workload: Workload, spec: &CorpusSpec, seed: u64) -> Setup {
        let (corpus, ct) = Corpus::generate(spec, seed);
        let t = Instant::now();
        let refs = References::compute(&corpus);
        let reference_s = t.elapsed().as_secs_f64();

        let mut setup = Setup {
            workload,
            corpus,
            refs,
            times: SetupTimes {
                calibrate_s: ct.calibrate_s,
                corpus_s: ct.record_s,
                reference_s,
                warmup_s: 0.0,
            },
            warmup: PassStats::default(),
            engine: None,
            served: None,
            passes: 0,
        };
        setup.start_services(workload);
        if workload != Workload::SimTrials {
            let t = Instant::now();
            setup.warmup = setup.pass(true);
            setup.times.warmup_s = t.elapsed().as_secs_f64();
        }
        setup
    }

    /// Starts the engine and server a pass of `workload` needs, unless
    /// they already run.
    fn start_services(&mut self, workload: Workload) {
        if matches!(workload, Workload::Kiosk | Workload::Served) {
            self.engine.get_or_insert_with(start_engine);
        }
        if workload == Workload::Served && self.served.is_none() {
            let engine = Arc::clone(self.engine.as_ref().expect("started above"));
            self.served = Some(start_server(&self.corpus, engine));
        }
    }

    /// Runs one untraced pass of the workload over the corpus. With
    /// `clock_calls`, the pass also clocks every call the caller waits on
    /// into [`PassStats::latencies_us`]; that costs `letters` a clock read
    /// per report, so rates are taken from passes without it.
    pub fn pass(&mut self, clock_calls: bool) -> PassStats {
        let t = &mut Tracer::off();
        let mut out = self.timed(|s, out| match s.workload {
            Workload::Letters => s.letters_pass(t, clock_calls, out),
            Workload::Kiosk => s.kiosk_pass(t, clock_calls, out),
            Workload::Served => {
                let mut tracers: Vec<Tracer> = (0..CLIENTS).map(|_| Tracer::off()).collect();
                s.served_pass(&mut tracers, clock_calls, out);
            }
            Workload::SimTrials => s.sim_trials_pass(t, clock_calls, out),
        });
        if out.unit_s.is_empty() {
            // `kiosk` and `served` interleave their streams: the whole
            // pass is their one unit of work.
            out.unit_s.push(out.wall_s);
        }
        out
    }

    /// Runs one pass with a span around every call into a layer, one
    /// tracer per calling thread, numbered from `thread`. `letters` and
    /// `sim_trials` then drive the stages through [`Chain`]. Returns the
    /// pass's outcome and its spans.
    pub fn traced_pass(
        &mut self,
        what: Traced,
        epoch: Instant,
        thread: u64,
    ) -> (PassStats, Vec<Span>) {
        let threads = if what == Traced::Pass(Workload::Served) {
            CLIENTS
        } else {
            1
        };
        let mut ts: Vec<Tracer> = (0..threads as u64)
            .map(|k| Tracer::new(epoch, thread + k))
            .collect();
        if let Traced::Pass(w) = what {
            self.start_services(w);
        }
        let out = self.timed(|s, out| match what {
            Traced::Pass(Workload::Letters) => s.letters_pass(&mut ts[0], false, out),
            Traced::Pass(Workload::Kiosk) => s.kiosk_pass(&mut ts[0], false, out),
            Traced::Pass(Workload::Served) => s.served_pass(&mut ts, false, out),
            Traced::Pass(Workload::SimTrials) => s.sim_trials_pass(&mut ts[0], false, out),
            Traced::Cascade => s.cascade_replay(&mut ts[0], out),
            Traced::Wire => s.wire_codec(&mut ts[0], out),
        });
        (out, ts.into_iter().flat_map(Tracer::into_spans).collect())
    }

    /// Runs `body` as one numbered pass and records its wall time.
    fn timed(&mut self, body: impl FnOnce(&Self, &mut PassStats)) -> PassStats {
        self.passes += 1;
        let started = Instant::now();
        let mut out = PassStats::default();
        body(self, &mut out);
        out.wall_s = started.elapsed().as_secs_f64();
        out
    }

    fn letters_pass(&self, t: &mut Tracer, clock: bool, out: &mut PassStats) {
        let mut events = Vec::new();
        t.enter("pass", self.passes);
        for (i, s) in self.corpus.sessions.iter().enumerate() {
            let recognizer = &self.corpus.benches[s.bench].recognizer;
            events.clear();
            if t.is_on() {
                let counts = chain_replay(recognizer, &s.reports, i as u64, &mut events, t);
                out.chain.absorb(&counts);
            } else {
                let decisions = clock.then_some(&mut out.latencies_us);
                let started = Instant::now();
                graph_replay(recognizer, &s.reports, &mut events, decisions);
                out.unit_s.push(started.elapsed().as_secs_f64());
            }
            self.check_session(i, &mut events, out);
        }
        t.exit();
    }

    fn kiosk_pass(&self, t: &mut Tracer, clock: bool, out: &mut PassStats) {
        let engine = self.engine.as_ref().expect("the engine was started");
        let streams = &self.corpus.streams;
        let mut sources: Vec<_> = streams
            .iter()
            .map(|s| TraceSource::from_reader(&s.trace[..]).expect("in-memory binary trace"))
            .collect();
        t.enter("pass", self.passes);
        let mut handles = Vec::with_capacity(streams.len());
        for (i, s) in streams.iter().enumerate() {
            let pipeline = session_pipeline(&self.corpus.benches[s.bench].recognizer);
            let id = format!("p{}-s{i}", self.passes);
            handles.push(t.span("open", i as u64, || engine.open_session(id, pipeline)));
        }
        // One batch per stream in turn, so the worker interleaves all
        // sixteen working sets the way a multi-pad kiosk would.
        round_robin(streams.len(), |i| {
            let fed = clock.then(Instant::now);
            let (batch, n) = t.span("decode", i as u64, || {
                decode_batch(&mut sources[i], KIOSK_BATCH)
            });
            if n == 0 {
                return false;
            }
            out.decoded += n as u64;
            out.attempted += 1;
            out.batches += 1;
            let receipt = handles[i]
                .as_ref()
                .map(|h| t.span("ingest", i as u64, || h.ingest_batch(batch)));
            out.latencies_us.extend(fed.map(micros_since));
            let accepted = matches!(receipt, Ok(Ok(r)) if r.accepted == n as u64 && r.dropped == 0);
            out.failed += u64::from(!accepted);
            true
        });
        for (i, h) in handles.into_iter().enumerate() {
            let closed = h.map(|h| t.span("close", i as u64, || h.close_with_stats()));
            match closed {
                Ok(Ok((mut events, stats))) => {
                    out.push_p99_ns.push(stats.push_latency.p99_ns as f64);
                    out.failed += u64::from(sources[i].error().is_some());
                    self.check_stream(i, &mut events, out);
                }
                _ => {
                    out.attempted += 1;
                    out.failed += 1;
                }
            }
        }
        t.exit();
    }

    fn served_pass(&self, tracers: &mut [Tracer], clock: bool, out: &mut PassStats) {
        let rig = self.served.as_ref().expect("served starts a server");
        let addr = rig.server.local_addr();
        let pass = self.passes;
        let streams = &self.corpus.streams;
        let clients: Vec<ClientStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, t)| {
                    scope.spawn(move || {
                        let mine: Vec<usize> = (c..streams.len()).step_by(CLIENTS).collect();
                        run_client(addr, pass, streams, &mine, clock, t)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        for c in clients {
            out.attempted += c.attempted;
            out.failed += c.failed;
            out.decoded += c.decoded;
            out.batches += c.frames;
            out.latencies_us.extend_from_slice(&c.acks_us);
        }
        let mut seen = vec![false; streams.len()];
        for (id, mut events) in rig.sink.take() {
            let Some(i) = stream_index_of(&id, Some(pass)) else {
                continue;
            };
            seen[i] = true;
            self.check_stream(i, &mut events, out);
        }
        let missing = seen.iter().filter(|&&s| !s).count() as u64;
        out.attempted += missing;
        out.failed += missing;
    }

    fn sim_trials_pass(&self, t: &mut Tracer, clock: bool, out: &mut PassStats) {
        let mut events = Vec::new();
        t.enter("pass", self.passes);
        for (i, s) in self.corpus.sessions.iter().enumerate() {
            let bench = &self.corpus.benches[s.bench];
            let user = &self.corpus.spec.users[s.user];
            events.clear();
            let reports = if t.is_on() {
                let (run, counts) = traced_trial(bench, s, user, i as u64, &mut events, t);
                out.chain.absorb(&counts);
                out.reads += run.events.len() as u64;
                out.slots += run.stats.slots;
                out.slot_successes += run.stats.successes;
                run.events
            } else {
                // `Bench::run_letter_trial`, with the replay's events kept
                // and its calls clocked.
                let started = Instant::now();
                let writer = Writer::new(bench.deployment.pad, user.clone());
                let mut rng = StdRng::seed_from_u64(s.seed);
                let session = writer.write_letter(s.truth, 1.0, &mut rng);
                let reports = bench.record_session(&session, user, &mut rng);
                let decisions = clock.then_some(&mut out.latencies_us);
                graph_replay(&bench.recognizer, &reports, &mut events, decisions);
                out.unit_s.push(started.elapsed().as_secs_f64());
                reports
            };
            out.failed += u64::from(reports != s.reports);
            out.trials += 1;
            self.check_session(i, &mut events, out);
        }
        t.exit();
    }

    /// Scores session `i`'s events and checks them against the reference.
    fn check_session(&self, i: usize, events: &mut [PipelineEvent], out: &mut PassStats) {
        let s = &self.corpus.sessions[i];
        normalize_events(events);
        out.attempted += 1;
        out.failed += u64::from(*events != self.refs.sessions[i][..]);
        out.letters += 1;
        out.letters_correct += u64::from(last_letter(events.iter()) == Some(s.truth));
        out.reports += s.reports.len() as u64;
    }

    /// [`Setup::check_session`] for kiosk stream `i`.
    fn check_stream(&self, i: usize, events: &mut [PipelineEvent], out: &mut PassStats) {
        let stream = &self.corpus.streams[i];
        normalize_events(events);
        out.attempted += 1;
        out.failed += u64::from(*events != self.refs.streams[i][..]);
        out.letters += stream.letters.len() as u64;
        out.letters_correct += stream_letters_correct(events, &stream.letters);
        out.reports += stream.reports.len() as u64;
    }

    /// [`Probe::Cascade`]: replays every kiosk stream through [`Chain`] on
    /// this thread.
    fn cascade_replay(&self, t: &mut Tracer, out: &mut PassStats) {
        let mut events = Vec::new();
        t.enter("pass", self.passes);
        for (i, s) in self.corpus.streams.iter().enumerate() {
            events.clear();
            let recognizer = &self.corpus.benches[s.bench].recognizer;
            let counts = chain_replay(recognizer, &s.reports, i as u64, &mut events, t);
            out.chain.absorb(&counts);
            self.check_stream(i, &mut events, out);
        }
        t.exit();
    }

    /// [`Probe::Wire`]: encodes and decodes every BATCH frame a served pass
    /// sends; a frame that does not decode to itself fails.
    fn wire_codec(&self, t: &mut Tracer, out: &mut PassStats) {
        t.enter("pass", self.passes);
        for (i, s) in self.corpus.streams.iter().enumerate() {
            for (seq, chunk) in s.reports.chunks(SERVED_BATCH).enumerate() {
                let frame = Frame::Batch {
                    session: format!("p0-s{i}"),
                    seq: seq as u32 + 1,
                    reports: chunk.iter().copied().collect(),
                    trace: None,
                };
                let bytes = t.span("encode", i as u64, || encode_frame_v(&frame, WIRE_VERSION));
                let decoded = t.span("wire_decode", i as u64, || {
                    decode_payload_v(&bytes[4..], WIRE_VERSION)
                });
                out.attempted += 1;
                out.failed += u64::from(decoded.ok().as_ref() != Some(&frame));
                out.wire_bytes += bytes.len() as u64;
                out.batches += 1;
                out.reports += chunk.len() as u64;
            }
        }
        t.exit();
    }

    /// Stops the server and engine and waits for their threads.
    pub fn shutdown(self) {
        if let Some(rig) = self.served {
            rig.server.shutdown();
        }
        if let Some(engine) = self.engine {
            if let Ok(engine) = Arc::try_unwrap(engine) {
                engine.shutdown();
            }
        }
    }
}

/// What one pass did and measured.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    /// Wall time of the pass, seconds.
    pub wall_s: f64,
    /// Reports that went through recognition.
    pub reports: u64,
    /// Letters written.
    pub letters: u64,
    /// Letters recognized correctly.
    pub letters_correct: u64,
    /// Operations attempted: sessions, batches, frames or trials.
    pub attempted: u64,
    /// Operations that failed or produced output differing from the
    /// reference.
    pub failed: u64,
    /// Wall time of each unit of work, seconds, in corpus order: a
    /// session replay (`letters`), a trial (`sim_trials`), or the whole
    /// pass (`kiosk`, `served`).
    pub unit_s: Vec<f64>,
    /// How long the caller waited, microseconds, per call in corpus order:
    /// a `push_into`/`finish_into` that returned a stroke (`letters`,
    /// `sim_trials`), a batch decode plus its `ingest_batch` (`kiosk`) or
    /// a BATCH→ACK round trip (`served`).
    pub latencies_us: Vec<f64>,
    /// Stage calls made through [`Chain`].
    pub chain: ChainCounts,
    /// Reports decoded from binary traces.
    pub decoded: u64,
    /// Engine ingest batches, or wire frames.
    pub batches: u64,
    /// Encoded frame bytes (wire probe).
    pub wire_bytes: u64,
    /// Per-session push p99 from `close_with_stats`, ns.
    pub push_p99_ns: Vec<f64>,
    /// Trials run.
    pub trials: u64,
    /// Reads the simulated reader produced (traced `sim_trials`).
    pub reads: u64,
    /// Inventory slots the reader ran.
    pub slots: u64,
    /// Inventory slots that singulated a tag.
    pub slot_successes: u64,
}

/// Calls `step(i)` for `0..n` in turn, over and over, dropping each `i`
/// the first time its step returns `false`, until none is left.
fn round_robin(n: usize, mut step: impl FnMut(usize) -> bool) {
    let mut live: Vec<usize> = (0..n).collect();
    while !live.is_empty() {
        live.retain(|&i| step(i));
    }
}

/// Decodes the next batch of up to `max` reports into a fresh batch (the
/// engine and the client take ownership of it); also returns its length.
fn decode_batch(source: &mut impl ReportSource, max: usize) -> (ReportBatch, usize) {
    let mut batch = ReportBatch::with_capacity(max);
    let n = source.next_batch(max, &mut batch);
    (batch, n)
}

/// Microseconds elapsed since `t`.
fn micros_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Whether `events` hold a recognized stroke.
fn has_stroke(events: &[PipelineEvent]) -> bool {
    events
        .iter()
        .any(|e| matches!(e, PipelineEvent::StrokeDetected { .. }))
}

/// Replays one stream through a fresh `StageGraph`, as a new pad would.
/// With `decisions_us`, also appends the decision latency of every call
/// that returned a stroke, the paper's per-stroke response time seen from
/// the caller: the wall time of that `push_into` or `finish_into`, in
/// microseconds. The clock is then read once per call; the end of one
/// call starts the next.
pub fn graph_replay(
    recognizer: &Recognizer,
    reports: &[TagReport],
    events: &mut Vec<PipelineEvent>,
    decisions_us: Option<&mut Vec<f64>>,
) {
    let mut graph = StageGraph::builder()
        .recognizer(recognizer.clone())
        .letter_gap_s(LETTER_GAP_S)
        .build()
        .expect("recognizer already validated");
    let Some(decisions_us) = decisions_us else {
        for &r in reports {
            graph.push_into(r, events);
        }
        graph.finish_into(events);
        return;
    };
    let mut called = Instant::now();
    for &r in reports {
        let before = events.len();
        graph.push_into(r, events);
        let returned = Instant::now();
        if has_stroke(&events[before..]) {
            decisions_us.push((returned - called).as_secs_f64() * 1e6);
        }
        called = returned;
    }
    let before = events.len();
    graph.finish_into(events);
    if has_stroke(&events[before..]) {
        decisions_us.push(micros_since(called));
    }
}

/// Replays one stream through a fresh [`Chain`] inside a `session` span.
pub fn chain_replay(
    recognizer: &Recognizer,
    reports: &[TagReport],
    unit: u64,
    events: &mut Vec<PipelineEvent>,
    t: &mut Tracer,
) -> ChainCounts {
    t.enter("session", unit);
    let mut chain = Chain::new(recognizer, LETTER_GAP_S, unit);
    for &r in reports {
        chain.push(r, events, t);
    }
    chain.finish(events, t);
    t.exit();
    chain.counts
}

/// `Bench::run_letter_trial` taken apart so each layer gets its own span:
/// the writer (kinematics), the reader over the RF scene, and the stages.
/// Seeds and call order match the trial, so the reports are identical.
fn traced_trial(
    bench: &Bench,
    s: &Session,
    user: &hand_kinematics::user::UserProfile,
    unit: u64,
    events: &mut Vec<PipelineEvent>,
    t: &mut Tracer,
) -> (ReaderRun, ChainCounts) {
    t.enter("trial", unit);
    let writer = Writer::new(bench.deployment.pad, user.clone());
    let mut rng = StdRng::seed_from_u64(s.seed);
    let session = t.span("kinematics", unit, || {
        writer.write_letter(s.truth, 1.0, &mut rng)
    });
    let (hand, arm) = Bench::targets(&session, user);
    let targets: Vec<&dyn MovingTarget> = vec![&hand, &arm];
    let start = session
        .trajectory
        .start_time()
        .unwrap_or(0.0)
        .min(session.strokes.first().map_or(0.0, |w| w.start))
        - SESSION_MARGIN_SECS;
    let duration = session.end_time() - start + SESSION_MARGIN_SECS;
    let run = t.span("reader", unit, || {
        bench
            .reader
            .run(&bench.deployment.scene, &targets, start, duration, &mut rng)
    });
    let counts = chain_replay(&bench.recognizer, &run.events, unit, events, t);
    t.exit();
    (run, counts)
}

/// What one served client thread did.
#[derive(Debug, Default)]
struct ClientStats {
    attempted: u64,
    failed: u64,
    decoded: u64,
    frames: u64,
    /// BATCH→ACK round trips, microseconds.
    acks_us: Vec<f64>,
}

/// One client connection: opens its streams' sessions, sends their
/// batches round-robin in lock step, and closes them. With `clock`, every
/// BATCH→ACK round trip is clocked.
fn run_client(
    addr: std::net::SocketAddr,
    pass: u64,
    streams: &[crate::corpus::KioskStream],
    mine: &[usize],
    clock: bool,
    t: &mut Tracer,
) -> ClientStats {
    let mut out = ClientStats::default();
    t.enter("client", pass);
    let client = t.span("round_trip", pass, || IngestClient::connect(addr));
    let Ok(mut client) = client else {
        out.attempted += 1;
        out.failed += 1;
        t.exit();
        return out;
    };
    let ids: Vec<String> = mine.iter().map(|i| format!("p{pass}-s{i}")).collect();
    let mut sources: Vec<_> = mine
        .iter()
        .map(|&i| TraceSource::from_reader(&streams[i].trace[..]).expect("in-memory binary trace"))
        .collect();
    for (k, id) in ids.iter().enumerate() {
        out.attempted += 1;
        let opened = t.span("round_trip", mine[k] as u64, || client.open(id));
        out.failed += u64::from(opened.is_err());
    }
    let mut seq = 0u32;
    round_robin(mine.len(), |k| {
        let unit = mine[k] as u64;
        let (batch, n) = t.span("decode", unit, || {
            decode_batch(&mut sources[k], SERVED_BATCH)
        });
        if n == 0 {
            return false;
        }
        seq += 1;
        out.decoded += n as u64;
        out.attempted += 1;
        out.frames += 1;
        let sent = clock.then(Instant::now);
        let delivery = t.span("round_trip", unit, || {
            client.send_batch(&ids[k], seq, batch)
        });
        out.acks_us.extend(sent.map(micros_since));
        out.failed +=
            u64::from(!matches!(delivery, Ok(d) if d.accepted == n as u64 && d.dropped == 0));
        true
    });
    for (k, id) in ids.iter().enumerate() {
        out.attempted += 1;
        let closed = t.span("round_trip", mine[k] as u64, || client.close(id));
        out.failed += u64::from(closed.is_err() || sources[k].error().is_some());
    }
    t.exit();
    out
}

/// The client session id `p<pass>-s<stream>` names the stream; the server
/// prefixes it with `c<connection>#`. With `pass`, ids of other passes
/// give `None`.
fn stream_index_of(session_id: &str, pass: Option<u64>) -> Option<usize> {
    let client_id = session_id.split_once('#').map_or(session_id, |(_, id)| id);
    let (p, s) = client_id.strip_prefix('p')?.split_once("-s")?;
    let p: u64 = p.parse().ok()?;
    if pass.is_some_and(|want| want != p) {
        return None;
    }
    s.parse().ok()
}
