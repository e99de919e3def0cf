//! Concurrent multi-session ingest engine.
//!
//! A deployment serves many pads at once: several kiosks replay live
//! antenna streams, an operator replays recorded traces, and all of them
//! multiplex onto one process. This module turns the single-stream
//! [`StageGraph`] into a serving engine: each *session* owns one graph,
//! reports flow in over a bounded queue with an explicit [`Backpressure`]
//! policy, and a small worker pool drains the queues.
//!
//! Sessions are also *migratable*: [`SessionHandle::checkpoint`] freezes
//! a session's mid-stream recognition state into a serializable
//! [`PipelineCheckpoint`], and [`Engine::restore_session`] resumes it —
//! on this engine or another — so the remainder of the stream produces
//! exactly the events the uninterrupted session would have.
//!
//! Determinism is preserved per session: a session is only ever drained by
//! the one worker it was assigned to, and never by two threads at once, so
//! its graph consumes reports in exactly the order they were fed. With
//! [`Backpressure::Block`] (no drops), a session's recognitions are
//! bit-identical to running the same reports through the [`StageGraph`]
//! directly — modulo wall-clock response times, which
//! [`normalize_events`] strips for comparison.
//!
//! # Example
//!
//! ```no_run
//! # fn demo(recognizer: rfipad::Recognizer,
//! #         reports: Vec<rfid_gen2::report::TagReport>)
//! #         -> Result<(), rfipad::RfipadError> {
//! let engine = rfipad::engine::Engine::builder().workers(4).build()?;
//! let graph = rfipad::StageGraph::builder().recognizer(recognizer).build()?;
//! let session = engine.open_session("kiosk-a", graph)?;
//! for batch in reports.chunks(rfipad::engine::DEFAULT_INGEST_BATCH) {
//!     session.ingest_batch(batch.to_vec())?;
//! }
//! let events = session.close()?;
//! # let _ = events; Ok(())
//! # }
//! ```

use crate::error::RfipadError;
use crate::stage::{PipelineCheckpoint, PipelineEvent, StageGraph};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use rfid_gen2::report::ReportBatch;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Reports per [`SessionHandle::ingest_batch`] call for a feeder that
/// chunks a report stream: large enough to amortize the per-batch queue
/// and telemetry costs, small enough that a batch stays cache-resident
/// and recognition latency stays sub-batch.
pub const DEFAULT_INGEST_BATCH: usize = 64;

/// What one [`SessionHandle::ingest_batch`] call did, as seen by the
/// caller: how many reports it put on the session queue and how many
/// *previously queued* reports it had to evict to make room (only ever
/// non-zero under [`Backpressure::DropOldest`]). Receipts add, so a
/// serving loop can accumulate one per session or per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestReceipt {
    /// Reports this call enqueued for recognition.
    pub accepted: u64,
    /// Reports this call evicted from the queue to make room. They may
    /// belong to earlier batches; each is also counted in
    /// [`SessionStats::reports_dropped`].
    pub dropped: u64,
}

impl IngestReceipt {
    /// Folds another receipt into this one (both tallies add).
    pub fn absorb(&mut self, other: IngestReceipt) {
        self.accepted += other.accepted;
        self.dropped += other.dropped;
    }
}

impl std::ops::Add for IngestReceipt {
    type Output = IngestReceipt;
    fn add(mut self, other: IngestReceipt) -> IngestReceipt {
        self.absorb(other);
        self
    }
}

impl std::ops::AddAssign for IngestReceipt {
    fn add_assign(&mut self, other: IngestReceipt) {
        self.absorb(other);
    }
}

/// What [`SessionHandle::ingest_batch`] does when a session's bounded
/// queue is full — the engine's explicit backpressure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Backpressure {
    /// Block the feeder until the worker frees space (lossless; the
    /// default). Replays and determinism checks want this.
    #[default]
    Block,
    /// Drop the oldest queued batch to make room (lossy, every report in
    /// it counted in [`SessionStats::reports_dropped`]). Live feeds that
    /// must never stall the reader loop want this.
    DropOldest,
}

/// Engine tuning knobs. Start from [`EngineConfig::default`] and override
/// fields by assignment, or use [`Engine::builder`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Worker threads draining session queues. `0` means one per available
    /// core.
    pub workers: usize,
    /// Per-session queue capacity, in queued batches: each
    /// [`SessionHandle::ingest_batch`] call occupies one slot, whatever
    /// its length.
    pub queue_capacity: usize,
    /// What a full queue does to the feeder.
    pub backpressure: Backpressure,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 1024,
            backpressure: Backpressure::Block,
        }
    }
}

/// Validating builder for [`Engine`].
#[derive(Debug, Clone, Default)]
#[must_use = "call .build() to start the engine"]
pub struct EngineBuilder {
    config: EngineConfig,
    metrics_addr: Option<String>,
}

impl EngineBuilder {
    /// Worker threads draining session queues (default: one per available
    /// core).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Per-session queue capacity in batches (default 1024).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Backpressure policy for full session queues (default
    /// [`Backpressure::Block`]).
    pub fn backpressure(mut self, policy: Backpressure) -> Self {
        self.config.backpressure = policy;
        self
    }

    /// Serve the process-global metrics registry over HTTP on `addr`
    /// (e.g. `"127.0.0.1:9184"`; port 0 picks an ephemeral port). Off by
    /// default. `GET /metrics` returns Prometheus text exposition,
    /// `GET /stats.json` the engine's JSON snapshot, `GET /healthz` /
    /// `GET /readyz` answer liveness and readiness probes (`/readyz` is
    /// 503 while shutting down or while a session queue is saturated),
    /// `GET /debug/journal` dumps the recent log journal, and
    /// `GET /debug/trace/<session>` dumps a session's flight recorder.
    /// The endpoint is unauthenticated — bind it to loopback unless the
    /// network is trusted (see DESIGN.md §Observability).
    pub fn metrics_addr(mut self, addr: impl Into<String>) -> Self {
        self.metrics_addr = Some(addr.into());
        self
    }

    /// Validates the configuration, spawns the worker pool, and returns
    /// the running engine.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if `queue_capacity` is zero
    /// or the metrics endpoint fails to bind.
    pub fn build(self) -> Result<Engine, RfipadError> {
        let mut config = self.config;
        if config.queue_capacity == 0 {
            return Err(RfipadError::invalid_field(
                "EngineBuilder",
                "queue_capacity",
                "must be at least 1",
            ));
        }
        if config.workers == 0 {
            config.workers = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
        }
        let mut engine = Engine::start(config);
        if let Some(addr) = self.metrics_addr {
            let shared = Arc::clone(&engine.shared);
            let render: obs::serve::RenderFn =
                Arc::new(move |format| render_metrics(&shared, format));
            let routes_shared = Arc::clone(&engine.shared);
            let routes: obs::serve::RouteFn =
                Arc::new(move |path| probe_routes(&routes_shared, path));
            let server = obs::serve::serve_routes(&addr, render, routes).map_err(|e| {
                RfipadError::invalid_field(
                    "EngineBuilder",
                    "metrics_addr",
                    format!("bind failed on {addr}: {e}"),
                )
            })?;
            obs::info!("metrics endpoint listening"; addr = server.addr());
            engine.metrics = Some(server);
        }
        Ok(engine)
    }
}

/// Counters shared by one session (and, through a second copy, by the
/// whole engine). Relaxed ordering: they are monotone tallies, never used
/// for synchronization.
#[derive(Default)]
struct Counters {
    reports_in: AtomicU64,
    reports_dropped: AtomicU64,
    events_out: AtomicU64,
}

/// Percentiles over the most recent push latencies of a session
/// (nanoseconds, over a sliding window of the last 4096 pushes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Pushes measured over the session's lifetime.
    pub count: u64,
    /// Median push latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile push latency, ns.
    pub p99_ns: u64,
    /// Worst push latency seen over the lifetime, ns.
    pub max_ns: u64,
}

impl LatencySnapshot {
    fn of(hist: &obs::Histogram) -> Self {
        let snap = hist.snapshot();
        Self {
            count: snap.count,
            p50_ns: snap.p50,
            p99_ns: snap.p99,
            max_ns: snap.max,
        }
    }
}

/// Mutable per-session state, only ever touched under its mutex.
struct SessionState {
    graph: StageGraph,
    events: Vec<PipelineEvent>,
    /// Push latencies in nanoseconds: an *unregistered* histogram keeps
    /// this session's exact percentile window, while the process-global
    /// `rfipad_engine_push_latency_ns` family aggregates across sessions.
    latency: obs::Histogram,
    /// Event scratch reused across drains, so the worker hands events to
    /// the graph's `push_batch` without allocating per batch.
    scratch: Vec<PipelineEvent>,
    /// Reports the worker has pushed through the graph, incremented under
    /// this lock. [`SessionHandle::checkpoint`] compares it against the
    /// feed counters to know when the session has quiesced: the queue
    /// being empty is not enough, because the worker pops a batch *before*
    /// taking this lock.
    processed: u64,
}

/// One slot in a session's queue: one ingested batch. Queue capacity and
/// depth count batches, so batching widens the queue's effective report
/// capacity by the batch size — that is the amortization: one channel
/// round-trip, one lock acquisition, and one latency record cover the
/// whole batch.
struct QueueItem {
    batch: ReportBatch,
    /// Enqueue stamp for the `rfipad_hop_seconds{hop=queue}` wait
    /// measurement; `None` with telemetry off, so a dark replay never
    /// reads the clock on the feed path.
    enqueued: Option<Instant>,
}

/// One open session. Shared between its handle, the engine's session map,
/// and the worker currently draining it.
struct SessionInner {
    id: String,
    /// Index of the one worker allowed to drain this session — the
    /// single-consumer guarantee behind per-session determinism.
    worker: usize,
    queue_tx: Sender<QueueItem>,
    queue_rx: Receiver<QueueItem>,
    /// Wakeup token: set by whoever enqueues the session into its worker's
    /// mailbox, cleared by the worker when it believes the queue is empty.
    /// The set-check-reset dance guarantees the session is in at most one
    /// mailbox at a time and that no report is left behind.
    scheduled: AtomicBool,
    /// No further feeds accepted (close or shutdown started).
    closed: AtomicBool,
    /// The worker should flush the pipeline once the queue is empty.
    finishing: AtomicBool,
    /// The pipeline has been flushed; set under the state lock.
    finished: AtomicBool,
    counters: Counters,
    state: Mutex<SessionState>,
    /// Signalled (under the state lock) when `finished` flips true.
    done: Condvar,
}

/// Engine state shared by handles and workers.
struct Shared {
    config: EngineConfig,
    down: AtomicBool,
    sessions: Mutex<HashMap<String, Arc<SessionInner>>>,
    /// One mailbox per worker; cleared on shutdown so workers exit.
    mailboxes: Mutex<Vec<Sender<Arc<SessionInner>>>>,
    next_worker: AtomicUsize,
    totals: Counters,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
}

/// Enqueues the session into its worker's mailbox unless it is already
/// scheduled.
fn schedule(shared: &Shared, sess: &Arc<SessionInner>) -> Result<(), RfipadError> {
    if sess
        .scheduled
        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
        .is_err()
    {
        return Ok(()); // already queued or being drained; the worker re-checks
    }
    let mailboxes = shared.mailboxes.lock().expect("engine mailboxes poisoned");
    match mailboxes.get(sess.worker) {
        Some(tx) if tx.send(Arc::clone(sess)).is_ok() => Ok(()),
        _ => {
            sess.scheduled.store(false, Ordering::SeqCst);
            Err(RfipadError::EngineDown)
        }
    }
}

/// Processes everything currently queued for a session, then flushes the
/// pipeline if a close or shutdown asked for it.
fn drain_session(shared: &Shared, sess: &SessionInner) {
    let em = crate::telemetry::engine_metrics();
    while let Ok(item) = sess.queue_rx.try_recv() {
        let queue_wait = item.enqueued.map(|at| at.elapsed());
        let t0 = Instant::now();
        let n_in = item.batch.len() as u64;
        let mut state = sess.state.lock().expect("session state poisoned");
        if let Some(wait) = queue_wait {
            record_queue_hop(&state, wait);
        }
        let SessionState { graph, scratch, .. } = &mut *state;
        graph.push_batch(&item.batch, scratch);
        state.processed += n_in;
        let elapsed = t0.elapsed();
        state.latency.record_duration_ns(elapsed);
        em.push_latency.record_duration_ns(elapsed);
        let n = state.scratch.len() as u64;
        sess.counters.events_out.fetch_add(n, Ordering::Relaxed);
        shared.totals.events_out.fetch_add(n, Ordering::Relaxed);
        em.events_out.add(n);
        let SessionState {
            events, scratch, ..
        } = &mut *state;
        events.append(scratch);
    }
    if sess.finishing.load(Ordering::SeqCst)
        && sess.queue_rx.is_empty()
        && !sess.finished.load(Ordering::SeqCst)
    {
        let mut state = sess.state.lock().expect("session state poisoned");
        let events = state.graph.finish();
        let n = events.len() as u64;
        sess.counters.events_out.fetch_add(n, Ordering::Relaxed);
        shared.totals.events_out.fetch_add(n, Ordering::Relaxed);
        em.events_out.add(n);
        state.events.extend(events);
        sess.finished.store(true, Ordering::SeqCst);
        drop(state);
        sess.done.notify_all();
    }
}

/// Records one item's queue wait: the `rfipad_hop_seconds{hop=queue}`
/// histogram always, and — for trace-bound sessions, on sampled items — a
/// `queue` span in the session's flight recorder.
fn record_queue_hop(state: &SessionState, wait: Duration) {
    crate::telemetry::hop_metrics()
        .queue
        .record_duration_ns(wait);
    let Some(tr) = state.graph.trace_binding() else {
        return;
    };
    if !obs::trace::sampler().sample() {
        return;
    }
    let end_us = tr.recorder.now_us();
    let start_us = end_us.saturating_sub(wait.as_micros().min(u128::from(u64::MAX)) as u64);
    obs::trace::finish_span(
        &tr.recorder,
        obs::trace::SpanEvent {
            trace: tr.trace,
            span: obs::trace::next_span_id(),
            parent: Some(tr.parent),
            name: "queue".into(),
            start_us,
            end_us,
        },
    );
}

fn worker_loop(shared: Arc<Shared>, mailbox: Receiver<Arc<SessionInner>>) {
    while let Ok(sess) = mailbox.recv() {
        loop {
            drain_session(&shared, &sess);
            sess.scheduled.store(false, Ordering::SeqCst);
            // Anything slipped in between the last try_recv and the reset?
            // Reclaim the token and go again; if someone else just
            // reclaimed it, the session is back in our mailbox anyway.
            let more = !sess.queue_rx.is_empty()
                || (sess.finishing.load(Ordering::SeqCst) && !sess.finished.load(Ordering::SeqCst));
            if more
                && sess
                    .scheduled
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                continue;
            }
            break;
        }
    }
}

/// Waits until the session's pipeline has been flushed by its worker.
fn wait_finished(sess: &SessionInner) {
    let mut state = sess.state.lock().expect("session state poisoned");
    while !sess.finished.load(Ordering::SeqCst) {
        state = sess.done.wait(state).expect("session state poisoned");
    }
    drop(state);
}

/// Marks a session finished-pending and wakes its worker. Shared by
/// close and shutdown.
fn begin_finish(shared: &Shared, sess: &Arc<SessionInner>) -> Result<(), RfipadError> {
    sess.closed.store(true, Ordering::SeqCst);
    sess.finishing.store(true, Ordering::SeqCst);
    schedule(shared, sess)
}

/// The multi-session ingest engine: a worker pool draining per-session
/// bounded queues into [`StageGraph`]s. See the [module
/// docs](crate::engine) for the concurrency model.
///
/// Dropping the engine shuts it down: open sessions are flushed, workers
/// joined. Outstanding [`SessionHandle`]s stay valid for
/// [`SessionHandle::drain_events`] and [`SessionHandle::close`] (which
/// then just collects), but further feeds fail with
/// [`RfipadError::EngineDown`].
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The opt-in HTTP exposition endpoint; stops when the engine drops.
    metrics: Option<obs::serve::MetricsServer>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.shared.config)
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Starts a validating builder ([`EngineBuilder`]).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    fn start(config: EngineConfig) -> Self {
        let mut mailboxes = Vec::with_capacity(config.workers);
        let mut receivers = Vec::with_capacity(config.workers);
        for _ in 0..config.workers {
            let (tx, rx) = channel::unbounded();
            mailboxes.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            config,
            down: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            mailboxes: Mutex::new(mailboxes),
            next_worker: AtomicUsize::new(0),
            totals: Counters::default(),
            sessions_opened: AtomicU64::new(0),
            sessions_closed: AtomicU64::new(0),
        });
        let workers = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rfipad-engine-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn engine worker")
            })
            .collect();
        Self {
            shared,
            workers,
            metrics: None,
        }
    }

    /// The engine's configuration (with `workers` resolved).
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// Opens a session: the graph will consume every report fed through
    /// the returned handle, in feed order.
    ///
    /// Sessions are assigned to workers round-robin at open time and stay
    /// there for life.
    ///
    /// # Errors
    ///
    /// [`RfipadError::SessionExists`] if the id is already open;
    /// [`RfipadError::EngineDown`] after shutdown.
    pub fn open_session(
        &self,
        id: impl Into<String>,
        graph: StageGraph,
    ) -> Result<SessionHandle, RfipadError> {
        let id = id.into();
        if self.shared.down.load(Ordering::SeqCst) {
            return Err(RfipadError::EngineDown);
        }
        let (queue_tx, queue_rx) = channel::bounded(self.shared.config.queue_capacity);
        let worker =
            self.shared.next_worker.fetch_add(1, Ordering::Relaxed) % self.shared.config.workers;
        let sess = Arc::new(SessionInner {
            id: id.clone(),
            worker,
            queue_tx,
            queue_rx,
            scheduled: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            finishing: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            counters: Counters::default(),
            state: Mutex::new(SessionState {
                graph,
                events: Vec::new(),
                latency: obs::Histogram::new(obs::metrics::DEFAULT_DURATION_BOUNDS_NS),
                scratch: Vec::new(),
                processed: 0,
            }),
            done: Condvar::new(),
        });
        {
            let mut sessions = self.shared.sessions.lock().expect("session map poisoned");
            if sessions.contains_key(&id) {
                return Err(RfipadError::SessionExists(id));
            }
            sessions.insert(id, Arc::clone(&sess));
        }
        self.shared.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let em = crate::telemetry::engine_metrics();
        em.sessions_opened.inc();
        em.sessions_open.add(1);
        obs::debug!("session opened"; session = sess.id, worker = sess.worker);
        Ok(SessionHandle {
            shared: Arc::clone(&self.shared),
            inner: sess,
        })
    }

    /// Opens a session resuming from `checkpoint`: the `graph` supplies
    /// the recognizer and configuration (it must match the one the
    /// checkpoint was taken under), the checkpoint supplies the mid-stream
    /// state. The restored session then consumes the remainder of the
    /// report stream exactly as the original would have — the migration
    /// path for a session moved across engines or processes.
    ///
    /// # Errors
    ///
    /// [`RfipadError::Checkpoint`] if the checkpoint does not match the
    /// graph's configuration or fails its integrity checks; otherwise
    /// as for [`Engine::open_session`].
    pub fn restore_session(
        &self,
        id: impl Into<String>,
        mut graph: StageGraph,
        checkpoint: &PipelineCheckpoint,
    ) -> Result<SessionHandle, RfipadError> {
        graph.restore_checkpoint(checkpoint)?;
        self.open_session(id, graph)
    }

    /// A consistent snapshot of engine-wide and per-session counters.
    pub fn stats(&self) -> EngineStats {
        engine_stats(&self.shared)
    }

    /// The bound address of the metrics endpoint, if one was requested
    /// via [`EngineBuilder::metrics_addr`].
    pub fn metrics_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().map(|s| s.addr())
    }

    /// Prometheus text exposition of the process-global metrics registry,
    /// with this engine's per-session gauges refreshed first. The same
    /// body `GET /metrics` serves when the endpoint is enabled.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.shared, obs::serve::SinkFormat::Prometheus)
    }

    /// JSON snapshot: an [`EngineStats`] superset — engine-wide and
    /// per-session statistics under `"engine"`, the full registry under
    /// `"metrics"`. The same body `GET /stats.json` serves when the
    /// endpoint is enabled.
    pub fn metrics_json(&self) -> String {
        render_metrics(&self.shared, obs::serve::SinkFormat::Json)
    }

    /// Flushes every open session, stops the workers, and joins them.
    /// Equivalent to dropping the engine, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.down.swap(true, Ordering::SeqCst) {
            return;
        }
        // The endpoint stays up through the flush so `/readyz` reports
        // "shutting down" (503) while sessions drain; it stops below.
        let drained: Vec<Arc<SessionInner>> = {
            let mut sessions = self.shared.sessions.lock().expect("session map poisoned");
            sessions.drain().map(|(_, s)| s).collect()
        };
        for sess in &drained {
            let _ = begin_finish(&self.shared, sess);
        }
        for sess in &drained {
            wait_finished(sess);
        }
        self.shared
            .sessions_closed
            .fetch_add(drained.len() as u64, Ordering::Relaxed);
        if !drained.is_empty() {
            let em = crate::telemetry::engine_metrics();
            em.sessions_closed.add(drained.len() as u64);
            em.sessions_open.add(-(drained.len() as i64));
            for sess in &drained {
                remove_session_series(&sess.id);
            }
        }
        self.metrics = None; // flush done: stop serving
        obs::info!("engine shut down"; sessions_flushed = drained.len());
        // Closing the mailboxes ends the worker loops.
        self.shared
            .mailboxes
            .lock()
            .expect("engine mailboxes poisoned")
            .clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

fn engine_stats(shared: &Shared) -> EngineStats {
    let mut sessions: Vec<SessionStats> = {
        let map = shared.sessions.lock().expect("session map poisoned");
        map.values().map(|s| session_stats(s)).collect()
    };
    sessions.sort_by(|a, b| a.id.cmp(&b.id));
    EngineStats {
        workers: shared.config.workers,
        sessions_open: sessions.len(),
        sessions_opened: shared.sessions_opened.load(Ordering::Relaxed),
        sessions_closed: shared.sessions_closed.load(Ordering::Relaxed),
        reports_in: shared.totals.reports_in.load(Ordering::Relaxed),
        reports_dropped: shared.totals.reports_dropped.load(Ordering::Relaxed),
        events_out: shared.totals.events_out.load(Ordering::Relaxed),
        sessions,
    }
}

/// Session-labelled gauge families published at scrape time.
const SESSION_GAUGES: [(&str, &str); 3] = [
    (
        "rfipad_session_queue_depth",
        "Batches currently queued for the session.",
    ),
    (
        "rfipad_session_pending_events",
        "Events produced but not yet drained by the session handle.",
    ),
    (
        "rfipad_session_reports_dropped",
        "Reports dropped from the session queue by backpressure.",
    ),
];

/// Publishes per-session queue/drop gauges onto the global registry.
/// Runs at scrape time rather than on the hot path: gauge registration
/// takes the registry lock, which feed/drain must never wait on.
fn refresh_session_gauges(shared: &Shared) {
    let r = obs::registry();
    let map = shared.sessions.lock().expect("session map poisoned");
    for sess in map.values() {
        let labels = [("session", sess.id.as_str())];
        let set = |(name, help): (&str, &str), value: i64| {
            r.gauge(name, help, &labels).set(value);
        };
        set(SESSION_GAUGES[0], sess.queue_rx.len() as i64);
        let pending = sess
            .state
            .lock()
            .expect("session state poisoned")
            .events
            .len();
        set(SESSION_GAUGES[1], pending as i64);
        set(
            SESSION_GAUGES[2],
            sess.counters.reports_dropped.load(Ordering::Relaxed) as i64,
        );
    }
}

/// Drops a dead session's labelled series from the registry so closed
/// sessions do not linger in the exposition.
fn remove_session_series(id: &str) {
    let r = obs::registry();
    for (name, _) in SESSION_GAUGES {
        r.remove_matching(name, "session", id);
    }
}

/// Queue saturation watermark for readiness, percent of the configured
/// per-session queue capacity: a session queued beyond this flips
/// `/readyz` to 503 so a load balancer can stop routing new work here.
const READY_QUEUE_WATERMARK_PCT: usize = 90;

/// Answers the health and debug routes of the metrics endpoint:
/// `/healthz` (process liveness), `/readyz` (engine accepting and queues
/// below the watermark), `/debug/journal` (recent log events as JSON),
/// and `/debug/trace/<session>` (a session's flight-recorder dump).
fn probe_routes(shared: &Shared, path: &str) -> Option<obs::serve::RouteResponse> {
    use obs::serve::RouteResponse;
    match path {
        "/healthz" => Some(RouteResponse::ok_text("ok\n")),
        "/readyz" => Some(readyz(shared)),
        "/debug/journal" => Some(RouteResponse::ok_json(obs::logging::journal_json())),
        _ => path.strip_prefix("/debug/trace/").map(|raw| {
            let session = percent_decode(raw);
            match obs::trace::lookup(&session) {
                Some(rec) => RouteResponse::ok_json(rec.to_json()),
                None => RouteResponse::not_found(format!(
                    "no flight recorder for session {session:?}\n"
                )),
            }
        }),
    }
}

/// Decodes `%XX` escapes in a debug-route path segment: every served
/// session's engine id is `c<conn>#<session>`, and `#` must be quoted as
/// `%23` to survive a URL path.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let decoded = (bytes[i] == b'%' && i + 2 < bytes.len())
            .then(|| {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok()?;
                u8::from_str_radix(hex, 16).ok()
            })
            .flatten();
        match decoded {
            Some(b) => {
                out.push(b);
                i += 3;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The readiness probe: 503 once shutdown began, or while any session's
/// queue is past the saturation watermark; 200 otherwise.
fn readyz(shared: &Shared) -> obs::serve::RouteResponse {
    use obs::serve::RouteResponse;
    if shared.down.load(Ordering::SeqCst) {
        return RouteResponse::unavailable("engine shutting down\n");
    }
    let capacity = shared.config.queue_capacity;
    let watermark = capacity * READY_QUEUE_WATERMARK_PCT / 100;
    let sessions = shared.sessions.lock().expect("session map poisoned");
    for sess in sessions.values() {
        let depth = sess.queue_rx.len();
        if depth > watermark {
            return RouteResponse::unavailable(format!(
                "session {:?} queue saturated: {depth} of {capacity} slots\n",
                sess.id
            ));
        }
    }
    RouteResponse::ok_text("ready\n")
}

/// Renders one of the two sinks with this engine's session gauges fresh.
fn render_metrics(shared: &Shared, format: obs::serve::SinkFormat) -> String {
    refresh_session_gauges(shared);
    match format {
        obs::serve::SinkFormat::Prometheus => obs::registry().render_prometheus(),
        obs::serve::SinkFormat::Json => stats_json(shared),
    }
}

/// The engine's JSON sink: an [`EngineStats`] superset with the full
/// registry snapshot attached.
fn stats_json(shared: &Shared) -> String {
    use std::fmt::Write as _;
    let stats = engine_stats(shared);
    let mut out = String::from("{\"engine\":{");
    let _ = write!(
        out,
        "\"workers\":{},\"sessions_open\":{},\"sessions_opened\":{},\
         \"sessions_closed\":{},\"reports_in\":{},\"reports_dropped\":{},\
         \"events_out\":{},\"sessions\":[",
        stats.workers,
        stats.sessions_open,
        stats.sessions_opened,
        stats.sessions_closed,
        stats.reports_in,
        stats.reports_dropped,
        stats.events_out,
    );
    for (i, s) in stats.sessions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"id\":\"{}\",\"worker\":{},\"reports_in\":{},\"reports_dropped\":{},\
             \"events_out\":{},\"out_of_order\":{},\"pending_events\":{},\
             \"queue_depth\":{},\"closed\":{},\"push_latency\":{{\"count\":{},\
             \"p50_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}}}",
            obs::json::escape(&s.id),
            s.worker,
            s.reports_in,
            s.reports_dropped,
            s.events_out,
            s.out_of_order,
            s.pending_events,
            s.queue_depth,
            s.closed,
            s.push_latency.count,
            s.push_latency.p50_ns,
            s.push_latency.p99_ns,
            s.push_latency.max_ns,
        );
    }
    out.push_str("]},\"metrics\":");
    out.push_str(&obs::registry().render_json());
    out.push('}');
    out
}

fn session_stats(sess: &SessionInner) -> SessionStats {
    let state = sess.state.lock().expect("session state poisoned");
    SessionStats {
        id: sess.id.clone(),
        worker: sess.worker,
        reports_in: sess.counters.reports_in.load(Ordering::Relaxed),
        reports_dropped: sess.counters.reports_dropped.load(Ordering::Relaxed),
        events_out: sess.counters.events_out.load(Ordering::Relaxed),
        out_of_order: state.graph.out_of_order_count(),
        pending_events: state.events.len(),
        queue_depth: sess.queue_rx.len(),
        push_latency: LatencySnapshot::of(&state.latency),
        closed: sess.closed.load(Ordering::SeqCst),
    }
}

/// Counters for one open session.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SessionStats {
    /// The session id.
    pub id: String,
    /// Which worker drains this session.
    pub worker: usize,
    /// Reports accepted into the queue.
    pub reports_in: u64,
    /// Reports evicted from a full queue under
    /// [`Backpressure::DropOldest`].
    pub reports_dropped: u64,
    /// Pipeline events produced.
    pub events_out: u64,
    /// Reports clamped for a stale timestamp or dropped as non-finite
    /// (see [`StageGraph::out_of_order_count`]).
    pub out_of_order: u64,
    /// Events produced but not yet drained by the handle.
    pub pending_events: usize,
    /// Batches currently queued.
    pub queue_depth: usize,
    /// Push-latency percentiles.
    pub push_latency: LatencySnapshot,
    /// Whether the session stopped accepting feeds (closing).
    pub closed: bool,
}

/// Engine-wide counters plus a per-session breakdown.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct EngineStats {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Sessions currently open.
    pub sessions_open: usize,
    /// Sessions opened over the engine's lifetime.
    pub sessions_opened: u64,
    /// Sessions closed cleanly (including at shutdown).
    pub sessions_closed: u64,
    /// Reports accepted across all sessions, living and dead.
    pub reports_in: u64,
    /// Reports dropped by backpressure across all sessions.
    pub reports_dropped: u64,
    /// Events produced across all sessions.
    pub events_out: u64,
    /// Open sessions, sorted by id.
    pub sessions: Vec<SessionStats>,
}

/// A feeder's handle to one open session.
///
/// The handle is the session's producer side:
/// [`SessionHandle::ingest_batch`] enqueues report batches (applying the
/// engine's backpressure policy), [`SessionHandle::drain_events`] collects
/// recognitions produced so far, and [`SessionHandle::close`] flushes and
/// tears down. Dropping the handle without closing leaves the session
/// open until engine shutdown reaps it.
pub struct SessionHandle {
    shared: Arc<Shared>,
    inner: Arc<SessionInner>,
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("id", &self.inner.id)
            .field("worker", &self.inner.worker)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// The session id.
    pub fn id(&self) -> &str {
        &self.inner.id
    }

    /// Ingests a batch as one queue item: one channel round-trip, one
    /// worker wakeup, and one latency record for the entire batch. Blocks
    /// or drops per the engine's [`Backpressure`] policy when the session
    /// queue is full. Under [`Backpressure::Block`] the session's
    /// recognitions are bit-identical to pushing the same reports through
    /// the [`StageGraph`] directly, whatever the batch sizes. The receipt's
    /// `accepted` is the batch length; an empty batch is a no-op (but
    /// still fails on a downed engine).
    ///
    /// Under [`Backpressure::DropOldest`] a full queue evicts whole queued
    /// batches — every dropped report is counted in the receipt and in
    /// [`SessionStats::reports_dropped`].
    ///
    /// # Errors
    ///
    /// [`RfipadError::EngineDown`] after engine shutdown.
    pub fn ingest_batch(&self, batch: ReportBatch) -> Result<IngestReceipt, RfipadError> {
        let sess = &self.inner;
        let em = crate::telemetry::engine_metrics();
        if self.shared.down.load(Ordering::SeqCst) {
            return Err(RfipadError::EngineDown);
        }
        let n = batch.len() as u64;
        if n == 0 {
            return Ok(IngestReceipt::default());
        }
        let item = QueueItem {
            batch,
            enqueued: obs::telemetry_on().then(Instant::now),
        };
        let mut evicted_here = 0u64;
        match self.shared.config.backpressure {
            Backpressure::Block => {
                if sess.queue_tx.send(item).is_err() {
                    return Err(RfipadError::EngineDown);
                }
            }
            Backpressure::DropOldest => {
                let mut item = item;
                loop {
                    match sess.queue_tx.try_send(item) {
                        Ok(()) => break,
                        Err(TrySendError::Full(i)) => {
                            item = i;
                            // Evict the oldest queued batch (the worker may
                            // beat us to it, which is just as good).
                            if let Ok(evicted) = sess.queue_rx.try_recv() {
                                let dropped = evicted.batch.len() as u64;
                                evicted_here += dropped;
                                sess.counters
                                    .reports_dropped
                                    .fetch_add(dropped, Ordering::Relaxed);
                                self.shared
                                    .totals
                                    .reports_dropped
                                    .fetch_add(dropped, Ordering::Relaxed);
                                em.reports_dropped.add(dropped);
                            }
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            return Err(RfipadError::EngineDown);
                        }
                    }
                }
            }
        }
        sess.counters.reports_in.fetch_add(n, Ordering::Relaxed);
        self.shared
            .totals
            .reports_in
            .fetch_add(n, Ordering::Relaxed);
        em.reports_in.add(n);
        schedule(&self.shared, sess).map(|_| IngestReceipt {
            accepted: n,
            dropped: evicted_here,
        })
    }

    /// Binds the session's stage graph to a trace: sampled stage pushes
    /// and queue waits then emit child spans into `recorder`, parented
    /// under `parent`. Installed by the serving layer at OPEN time.
    pub(crate) fn bind_trace(
        &self,
        recorder: Arc<obs::trace::FlightRecorder>,
        trace: obs::trace::TraceId,
        parent: obs::trace::SpanId,
    ) {
        let mut state = self.inner.state.lock().expect("session state poisoned");
        state.graph.bind_trace(Some(crate::stage::StageTrace {
            recorder,
            trace,
            parent,
        }));
    }

    /// Collects the events produced so far (recognitions already drained
    /// are not repeated).
    pub fn drain_events(&self) -> Vec<PipelineEvent> {
        let mut state = self.inner.state.lock().expect("session state poisoned");
        std::mem::take(&mut state.events)
    }

    /// This session's counters.
    pub fn stats(&self) -> SessionStats {
        session_stats(&self.inner)
    }

    /// Snapshots the session's recognition state for migration: waits
    /// until the worker has drained every report accepted so far, then
    /// freezes the graph into a [`PipelineCheckpoint`].
    ///
    /// The checkpoint holds the graph's mid-stream state — buffer,
    /// reported spans, pending strokes, clocks — but *not* the recognizer
    /// (layout, calibration, grammar), which the restoring side supplies
    /// via a freshly built [`StageGraph`]. Undrained events and counters
    /// stay with this session; drain them before migrating.
    ///
    /// The session stays open and keeps accepting feeds afterwards; the
    /// checkpoint is a copy, not a detach. The caller must not feed the
    /// session concurrently with this call — quiescence is defined
    /// against the reports already accepted, so a racing feeder makes
    /// "drained" a moving target (the snapshot would still be taken at
    /// *some* consistent prefix of the stream, just not a predictable
    /// one).
    ///
    /// # Errors
    ///
    /// [`RfipadError::EngineDown`] after engine shutdown.
    pub fn checkpoint(&self) -> Result<PipelineCheckpoint, RfipadError> {
        let sess = &self.inner;
        loop {
            if self.shared.down.load(Ordering::SeqCst) {
                return Err(RfipadError::EngineDown);
            }
            {
                let state = sess.state.lock().expect("session state poisoned");
                let accounted =
                    state.processed + sess.counters.reports_dropped.load(Ordering::Relaxed);
                if accounted == sess.counters.reports_in.load(Ordering::Relaxed) {
                    return Ok(state.graph.checkpoint());
                }
            }
            std::thread::yield_now();
        }
    }

    /// Closes the session: waits for every queued report to be processed
    /// and the pipeline to flush, then returns all undrained events.
    ///
    /// # Errors
    ///
    /// [`RfipadError::EngineDown`] if the workers are gone before the
    /// session could be flushed (a session already flushed by shutdown
    /// still closes cleanly and returns its events).
    pub fn close(self) -> Result<Vec<PipelineEvent>, RfipadError> {
        self.close_with_stats().map(|(events, _)| events)
    }

    /// Like [`close`](Self::close), but also returns the session's final
    /// counters, captured after the queue fully drained and the pipeline
    /// flushed. This is the only way to observe the complete push-latency
    /// distribution of a batched feed: [`stats`](Self::stats) taken while
    /// the worker is still draining misses the tail (and, for a small
    /// replay, possibly every sample).
    ///
    /// # Errors
    ///
    /// [`RfipadError::EngineDown`] under the same conditions as
    /// [`close`](Self::close).
    pub fn close_with_stats(self) -> Result<(Vec<PipelineEvent>, SessionStats), RfipadError> {
        let sess = &self.inner;
        let kicked = begin_finish(&self.shared, sess);
        if kicked.is_err() && !sess.finished.load(Ordering::SeqCst) {
            return kicked.map(|_| (Vec::new(), session_stats(sess)));
        }
        wait_finished(sess);
        let stats = session_stats(sess);
        let events = {
            let mut state = sess.state.lock().expect("session state poisoned");
            std::mem::take(&mut state.events)
        };
        let mut sessions = self.shared.sessions.lock().expect("session map poisoned");
        if sessions.remove(&sess.id).is_some() {
            self.shared.sessions_closed.fetch_add(1, Ordering::Relaxed);
            let em = crate::telemetry::engine_metrics();
            em.sessions_closed.inc();
            em.sessions_open.add(-1);
            remove_session_series(&sess.id);
            obs::debug!("session closed"; session = sess.id, events = events.len());
        }
        drop(sessions);
        Ok((events, stats))
    }
}

/// Zeroes the wall-clock `response_time_s` of every event in place.
///
/// Everything else a [`PipelineEvent`] carries is a pure function of the
/// report stream, so after normalization two replays of the same reports
/// — single-stream or through the engine under [`Backpressure::Block`] —
/// compare bit-identical with `==`.
pub fn normalize_events(events: &mut [PipelineEvent]) {
    for event in events {
        match event {
            PipelineEvent::StrokeDetected {
                response_time_s, ..
            }
            | PipelineEvent::LetterRecognized {
                response_time_s, ..
            } => *response_time_s = 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;
    use rfid_gen2::report::{TagId, TagReport};
    use std::f64::consts::TAU;

    fn obs(tag: TagId, time: f64, phase: f64, rss: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(TAU), rss)
    }

    fn layout() -> ArrayLayout {
        ArrayLayout::new(5, 5, (0..25).map(TagId).collect())
    }

    /// Recording with a column-2 downward sweep during [2, 4) and silence
    /// until 7 s — same shape as the pipeline module's fixture, so the
    /// serial run produces one stroke and one letter.
    fn recording() -> Vec<TagReport> {
        let l = layout();
        let mut out = Vec::new();
        for step in 0..350 {
            let t = step as f64 * 0.02;
            for r in 0..5usize {
                for c in 0..5usize {
                    let id = l.at(r, c);
                    let base = (r * 5 + c) as f64 * 0.37 + 0.4;
                    let cross = 2.2 + 0.36 * r as f64;
                    let near = (t - cross).abs() < 0.5 && (2.0..4.0).contains(&t);
                    let col_factor = 1.0 / (1.0 + (c as f64 - 2.0).powi(2));
                    let (wiggle, dip) = if near {
                        (
                            0.9 * col_factor * ((t - cross) * 18.0).sin(),
                            -7.0 * col_factor * (-(t - cross) * (t - cross) / 0.01).exp(),
                        )
                    } else {
                        (0.0, 0.0)
                    };
                    out.push(obs(
                        id,
                        t + (r * 5 + c) as f64 * 1e-4,
                        base + wiggle,
                        -45.0 + dip,
                    ));
                }
            }
        }
        out
    }

    fn pipeline() -> StageGraph {
        let l = layout();
        let static_part: Vec<TagReport> =
            recording().into_iter().filter(|o| o.time < 2.0).collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&l, &static_part, &config).expect("cal");
        let recognizer = Recognizer::builder()
            .layout(l)
            .calibration(cal)
            .config(config)
            .build()
            .expect("recognizer");
        StageGraph::builder()
            .recognizer(recognizer)
            .letter_gap_s(1.5)
            .build()
            .expect("pipeline")
    }

    use crate::recognizer::Recognizer;

    /// A tiny 1×3 quiet pipeline — cheap pushes for concurrency tests that
    /// do not care about recognitions.
    fn quiet_pipeline() -> StageGraph {
        let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
        let static_obs: Vec<TagReport> = (0..40)
            .flat_map(|j| {
                (0..3).map(move |i| {
                    obs(
                        TagId(i),
                        j as f64 * 0.05 + i as f64 * 0.01,
                        1.0 + i as f64,
                        -45.0,
                    )
                })
            })
            .collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout, &static_obs, &config).expect("cal");
        let recognizer = Recognizer::builder()
            .layout(layout)
            .calibration(cal)
            .config(config)
            .build()
            .expect("recognizer");
        StageGraph::builder()
            .recognizer(recognizer)
            .build()
            .expect("pipeline")
    }

    fn quiet_reports(n: usize) -> Vec<TagReport> {
        (0..n)
            .map(|i| {
                obs(
                    TagId((i % 3) as u64),
                    i as f64 * 0.01,
                    1.0 + (i % 3) as f64,
                    -45.0,
                )
            })
            .collect()
    }

    fn serial_events() -> Vec<PipelineEvent> {
        let mut p = pipeline();
        let mut events = Vec::new();
        for o in recording() {
            events.extend(p.push(o));
        }
        events.extend(p.finish());
        normalize_events(&mut events);
        events
    }

    #[test]
    fn builder_validates() {
        assert!(matches!(
            Engine::builder().queue_capacity(0).build(),
            Err(RfipadError::InvalidConfig(_))
        ));
        let engine = Engine::builder().build().expect("default engine");
        assert!(engine.config().workers >= 1);
    }

    #[test]
    fn single_session_matches_serial_replay() {
        let expected = serial_events();
        assert!(
            expected
                .iter()
                .any(|e| matches!(e, PipelineEvent::LetterRecognized { .. })),
            "fixture must produce a letter for the comparison to mean anything"
        );
        let engine = Engine::builder().workers(2).build().expect("engine");
        let session = engine.open_session("solo", pipeline()).expect("open");
        for o in recording() {
            session.ingest_batch(vec![o]).expect("feed");
        }
        let mut events = session.close().expect("close");
        normalize_events(&mut events);
        assert_eq!(events, expected);
    }

    #[test]
    fn concurrent_sessions_each_match_serial_replay() {
        let expected = serial_events();
        let engine = Arc::new(Engine::builder().workers(2).build().expect("engine"));
        let feeders: Vec<_> = (0..3)
            .map(|i| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    let session = engine
                        .open_session(format!("s{i}"), pipeline())
                        .expect("open");
                    for o in recording() {
                        session.ingest_batch(vec![o]).expect("feed");
                    }
                    let mut events = session.close().expect("close");
                    normalize_events(&mut events);
                    events
                })
            })
            .collect();
        for f in feeders {
            assert_eq!(f.join().expect("feeder"), expected);
        }
        let stats = engine.stats();
        assert_eq!(stats.sessions_open, 0);
        assert_eq!(stats.sessions_opened, 3);
        assert_eq!(stats.sessions_closed, 3);
        assert_eq!(stats.reports_dropped, 0);
    }

    #[test]
    fn ingest_batch_matches_serial_replay() {
        let expected = serial_events();
        let engine = Engine::builder().workers(2).build().expect("engine");
        let session = engine.open_session("batched", pipeline()).expect("open");
        let reports = recording();
        for chunk in reports.chunks(64) {
            let receipt = session.ingest_batch(chunk.to_vec()).expect("ingest_batch");
            assert_eq!(receipt.accepted, chunk.len() as u64);
            assert_eq!(receipt.dropped, 0, "lossless backpressure never drops");
        }
        let stats = session.stats();
        assert_eq!(stats.reports_in, reports.len() as u64);
        let mut events = session.close().expect("close");
        normalize_events(&mut events);
        assert_eq!(events, expected);
    }

    #[test]
    fn batched_ingest_close_reports_nonzero_push_latency() {
        // Regression: stats taken mid-drain can miss every latency sample
        // for a short batched replay (the worker hasn't touched the queue
        // yet), reporting p50 = p99 = 0. close_with_stats captures the
        // counters after the drain, when every batch's latency is in.
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine.open_session("latency", pipeline()).expect("open");
        let reports = recording();
        for chunk in reports.chunks(64) {
            session.ingest_batch(chunk.to_vec()).expect("ingest_batch");
        }
        let (mut events, stats) = session.close_with_stats().expect("close");
        normalize_events(&mut events);
        assert_eq!(events, serial_events());
        assert_eq!(stats.reports_in, reports.len() as u64);
        assert_eq!(stats.queue_depth, 0, "closed session has drained");
        assert_eq!(
            stats.push_latency.count,
            reports.len().div_ceil(64) as u64,
            "one latency sample per ingested batch"
        );
        assert!(
            stats.push_latency.p50_ns > 0,
            "p50 {:?}",
            stats.push_latency
        );
        assert!(stats.push_latency.p99_ns >= stats.push_latency.p50_ns);
        assert!(stats.push_latency.max_ns >= stats.push_latency.p99_ns);
    }

    /// 17-report batches and runs of one-report batches interleave in
    /// feed order.
    #[test]
    fn ingest_batch_and_ingest_interleave_in_order() {
        let expected = serial_events();
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine.open_session("mixed", pipeline()).expect("open");
        for (i, chunk) in recording().chunks(17).enumerate() {
            if i % 2 == 0 {
                session.ingest_batch(chunk.to_vec()).expect("feed_batch");
            } else {
                for &o in chunk {
                    session.ingest_batch(vec![o]).expect("feed");
                }
            }
        }
        let mut events = session.close().expect("close");
        normalize_events(&mut events);
        assert_eq!(events, expected);
    }

    #[test]
    fn ingest_batch_empty_is_noop() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine
            .open_session("empty", quiet_pipeline())
            .expect("open");
        assert_eq!(
            session.ingest_batch(Vec::new()).expect("ingest"),
            IngestReceipt::default()
        );
        assert_eq!(session.stats().reports_in, 0);
        session.close().expect("close");
    }

    #[test]
    fn drop_oldest_counts_every_report_in_an_evicted_batch() {
        let engine = Engine::builder()
            .workers(1)
            .queue_capacity(2)
            .backpressure(Backpressure::DropOldest)
            .build()
            .expect("engine");
        let session = engine
            .open_session("lossy-batch", quiet_pipeline())
            .expect("open");
        let (dropped, receipt) = {
            // Stall the worker so the 2-item queue genuinely fills. The
            // worker may pull one batch off the queue before stalling, so
            // either one or two of the four 3-report batches get evicted —
            // always whole batches, so the drop count is a multiple of 3.
            let _stall = session.inner.state.lock().expect("state");
            let mut receipt = IngestReceipt::default();
            for chunk in quiet_reports(12).chunks(3) {
                receipt += session.ingest_batch(chunk.to_vec()).expect("ingest_batch");
            }
            (
                session
                    .inner
                    .counters
                    .reports_dropped
                    .load(Ordering::Relaxed),
                receipt,
            )
        };
        assert!(
            dropped == 3 || dropped == 6,
            "dropped {dropped} of 12, expected one or two whole batches"
        );
        // The receipts account for every report: all 12 were accepted onto
        // the queue, and the evictions the callers performed sum to the
        // session's drop counter.
        assert_eq!(receipt.accepted, 12);
        assert_eq!(receipt.dropped, dropped);
        session.close().expect("close");
        let stats = engine.stats();
        assert_eq!(stats.reports_in, 12);
        assert_eq!(stats.reports_dropped, dropped);
    }

    #[test]
    fn duplicate_session_id_rejected() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let _a = engine.open_session("pad", quiet_pipeline()).expect("open");
        assert!(matches!(
            engine.open_session("pad", quiet_pipeline()),
            Err(RfipadError::SessionExists(id)) if id == "pad"
        ));
    }

    #[test]
    fn drop_oldest_evicts_and_counts() {
        let engine = Engine::builder()
            .workers(1)
            .queue_capacity(4)
            .backpressure(Backpressure::DropOldest)
            .build()
            .expect("engine");
        let session = engine
            .open_session("lossy", quiet_pipeline())
            .expect("open");
        let dropped = {
            // Stall the worker by holding the state lock, so the queue
            // genuinely fills and eviction is forced. The worker may have
            // pulled the first report before stalling, so 5 or 6 of the 10
            // feeds evict an older one — never fewer.
            let _stall = session.inner.state.lock().expect("state");
            for o in quiet_reports(10) {
                session.ingest_batch(vec![o]).expect("feed");
            }
            session
                .inner
                .counters
                .reports_dropped
                .load(Ordering::Relaxed)
        };
        assert!((5..=6).contains(&dropped), "dropped {dropped} of 10");
        let events = session.close().expect("close");
        assert!(events.is_empty()); // quiet stream: no recognitions
        let stats = engine.stats();
        assert_eq!(stats.reports_in, 10);
        assert_eq!(stats.reports_dropped, dropped);
    }

    #[test]
    fn block_backpressure_bounds_queue_without_losing_reports() {
        let engine = Arc::new(
            Engine::builder()
                .workers(1)
                .queue_capacity(4)
                .build()
                .expect("engine"),
        );
        let session = Arc::new(
            engine
                .open_session("tight", quiet_pipeline())
                .expect("open"),
        );
        let feeder = {
            let session = Arc::clone(&session);
            let stall = session.inner.state.lock().expect("state");
            let handle = std::thread::spawn({
                let session = Arc::clone(&session);
                move || {
                    for o in quiet_reports(32) {
                        session.ingest_batch(vec![o]).expect("feed");
                    }
                }
            });
            // Give the feeder time to hit the full queue, then check the
            // bound held while the worker was stalled.
            while session.inner.queue_rx.len() < 4 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(session.inner.queue_rx.len(), 4);
            assert!(!handle.is_finished(), "feeder must block on a full queue");
            drop(stall);
            handle
        };
        feeder.join().expect("feeder");
        let session = Arc::try_unwrap(session).expect("sole handle");
        session.close().expect("close");
        let stats = engine.stats();
        assert_eq!(stats.reports_in, 32);
        assert_eq!(stats.reports_dropped, 0);
    }

    #[test]
    fn shutdown_flushes_and_stops() {
        let engine = Engine::builder().workers(2).build().expect("engine");
        let session = engine.open_session("late", quiet_pipeline()).expect("open");
        for o in quiet_reports(20) {
            session.ingest_batch(vec![o]).expect("feed");
        }
        engine.shutdown();
        assert!(matches!(
            session.ingest_batch(quiet_reports(1)),
            Err(RfipadError::EngineDown)
        ));
        // Shutdown flushed the pipeline; close just collects.
        session.close().expect("close after shutdown");
    }

    #[test]
    fn open_after_shutdown_fails() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let shared = Arc::clone(&engine.shared);
        engine.shutdown();
        let revived = Engine {
            shared,
            workers: Vec::new(),
            metrics: None,
        };
        assert!(matches!(
            revived.open_session("ghost", quiet_pipeline()),
            Err(RfipadError::EngineDown)
        ));
        std::mem::forget(revived); // avoid double shutdown bookkeeping in drop
    }

    #[test]
    fn stats_track_latency_and_queue() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine
            .open_session("meter", quiet_pipeline())
            .expect("open");
        for o in quiet_reports(50) {
            session.ingest_batch(vec![o]).expect("feed");
        }
        // Drain fully so the latency window is populated.
        let _ = session.drain_events();
        loop {
            let stats = session.stats();
            if stats.queue_depth == 0 && stats.push_latency.count == 50 {
                assert!(stats.push_latency.p50_ns <= stats.push_latency.p99_ns);
                assert!(stats.push_latency.p99_ns <= stats.push_latency.max_ns);
                assert_eq!(stats.reports_in, 50);
                break;
            }
            std::thread::yield_now();
        }
        session.close().expect("close");
    }

    #[test]
    fn latency_recorder_percentiles_are_ordered() {
        let rec = obs::Histogram::new(obs::metrics::DEFAULT_DURATION_BOUNDS_NS);
        assert_eq!(LatencySnapshot::of(&rec).count, 0);
        for us in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 100] {
            rec.record_duration_ns(Duration::from_micros(us));
        }
        let snap = LatencySnapshot::of(&rec);
        assert_eq!(snap.count, 10);
        assert_eq!(snap.max_ns, 100_000);
        assert!(snap.p50_ns <= snap.p99_ns);
        assert!(snap.p99_ns <= snap.max_ns);
    }

    #[test]
    fn probes_transition_with_engine_state() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let shared = Arc::clone(&engine.shared);
        let probe = |path: &str| probe_routes(&shared, path).expect("routed");
        assert_eq!(probe("/healthz").status, 200);
        assert_eq!(probe("/healthz").body, "ok\n");
        assert_eq!(probe("/readyz").status, 200);
        assert_eq!(probe("/readyz").body, "ready\n");
        let journal = probe("/debug/journal");
        assert_eq!(journal.status, 200);
        assert!(
            journal.body.starts_with("{\"entries\":["),
            "{}",
            journal.body
        );
        // The session id is %-decoded: `%23` names `c<conn>#<session>`.
        let missing = probe("/debug/trace/c9%23nope");
        assert_eq!(missing.status, 404);
        assert!(missing.body.contains("c9#nope"), "{}", missing.body);
        assert!(probe_routes(&shared, "/metrics").is_none());

        engine.shutdown();
        // Liveness stays green after shutdown; readiness does not.
        assert_eq!(probe("/healthz").status, 200);
        let down = probe("/readyz");
        assert_eq!(down.status, 503);
        assert!(down.body.contains("shutting down"), "{}", down.body);
    }

    #[test]
    fn readyz_reports_saturated_queues() {
        let engine = Engine::builder()
            .workers(1)
            .queue_capacity(4)
            .backpressure(Backpressure::DropOldest)
            .build()
            .expect("engine");
        let session = engine.open_session("busy", quiet_pipeline()).expect("open");
        let inner = engine
            .shared
            .sessions
            .lock()
            .expect("session map")
            .get("busy")
            .cloned()
            .expect("inner");
        {
            // Stall the one worker by holding the session's state lock,
            // then flood: the queue saturates past the 90% watermark.
            let _stall = inner.state.lock().expect("state");
            for r in quiet_reports(16) {
                session.ingest_batch(vec![r]).expect("ingest");
            }
            let busy = readyz(&engine.shared);
            assert_eq!(busy.status, 503);
            assert!(busy.body.contains("saturated"), "{}", busy.body);
        }
        // Released: the worker drains and readiness recovers.
        while session.stats().queue_depth > 0 {
            std::thread::yield_now();
        }
        assert_eq!(readyz(&engine.shared).status, 200);
        session.close().expect("close");
        engine.shutdown();
    }

    #[test]
    fn metrics_sinks_cover_engine_and_sessions() {
        let engine = Engine::builder()
            .workers(1)
            .metrics_addr("127.0.0.1:0")
            .build()
            .expect("engine");
        let session = engine
            .open_session("meter-ep", quiet_pipeline())
            .expect("open");
        for o in quiet_reports(10) {
            session.ingest_batch(vec![o]).expect("feed");
        }
        // In-process sinks.
        let text = engine.metrics_text();
        obs::expo::validate(&text).expect("valid exposition");
        assert!(text.contains("rfipad_engine_reports_in_total"));
        assert!(text.contains("rfipad_session_queue_depth{session=\"meter-ep\"}"));
        let json = engine.metrics_json();
        assert!(json.contains("\"engine\":{"));
        assert!(json.contains("\"id\":\"meter-ep\""));
        assert!(json.contains("\"metrics\":{"));
        // Over HTTP.
        let addr = engine.metrics_local_addr().expect("endpoint address");
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        use std::io::{Read as _, Write as _};
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("rfipad_engine_sessions_opened_total"));
        session.close().expect("close");
        // Closed sessions drop their labelled series at the next render.
        let text = engine.metrics_text();
        assert!(!text.contains("session=\"meter-ep\""));
    }

    #[test]
    fn non_finite_report_times_spare_the_worker() {
        let expected = serial_events();
        let engine = Engine::builder().workers(1).build().expect("engine");
        let victim = engine.open_session("victim", pipeline()).expect("open");
        let bystander = engine.open_session("bystander", pipeline()).expect("open");
        let reports = recording();
        let split = reports.len() / 2;
        for (i, &o) in reports.iter().enumerate() {
            if i == split {
                for time in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    victim
                        .ingest_batch(vec![TagReport { time, ..o }])
                        .expect("feed");
                }
            }
            victim.ingest_batch(vec![o]).expect("feed");
            bystander.ingest_batch(vec![o]).expect("feed");
        }
        for session in [victim, bystander] {
            let mut events = session.close().expect("worker survived");
            normalize_events(&mut events);
            assert_eq!(events, expected);
        }
    }

    #[test]
    fn checkpoint_restore_resumes_mid_stream() {
        let expected = serial_events();
        let reports = recording();
        let split = reports.len() / 2; // mid-stroke: t ≈ 3.5 s of the [2, 4) sweep
        let engine = Engine::builder().workers(2).build().expect("engine");
        let session = engine
            .open_session("migrate-src", pipeline())
            .expect("open");
        for o in &reports[..split] {
            session.ingest_batch(vec![*o]).expect("feed");
        }
        let checkpoint = session.checkpoint().expect("checkpoint");
        // The checkpoint survives a serialization round-trip bit-exactly.
        let wire = checkpoint.to_json();
        let parsed = PipelineCheckpoint::from_json(&wire).expect("parse");
        assert_eq!(parsed, checkpoint);
        assert_eq!(parsed.to_json(), wire);
        // Events produced before the migration stay with the source.
        let mut events = session.drain_events();
        // Resume on a fresh session (fresh recognizer, restored state) and
        // feed the rest of the stream there.
        let restored = engine
            .restore_session("migrate-dst", pipeline(), &parsed)
            .expect("restore");
        for o in &reports[split..] {
            restored.ingest_batch(vec![*o]).expect("feed");
        }
        events.extend(restored.close().expect("close restored"));
        normalize_events(&mut events);
        assert_eq!(events, expected);
        session.close().expect("close source");
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine.open_session("src", pipeline()).expect("open");
        let checkpoint = session.checkpoint().expect("checkpoint");
        // Same recognizer, different letter gap: a different pipeline
        // configuration must refuse the snapshot.
        let other = StageGraph::builder()
            .recognizer(pipeline().recognizer().clone())
            .letter_gap_s(2.0)
            .build()
            .expect("pipeline");
        assert!(matches!(
            engine.restore_session("dst", other, &checkpoint),
            Err(RfipadError::Checkpoint(_))
        ));
        session.close().expect("close");
    }

    #[test]
    fn checkpoint_fails_after_shutdown() {
        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine.open_session("down", quiet_pipeline()).expect("open");
        engine.shutdown();
        assert!(matches!(session.checkpoint(), Err(RfipadError::EngineDown)));
    }

    /// Batch size is invisible to recognition: one-report, odd-sized and
    /// default-sized batches replay the recording to identical events.
    #[test]
    fn ingest_entry_points_match_serial_replay() {
        let expected = serial_events();
        let engine = Engine::builder().workers(1).build().expect("engine");
        let reports = recording();
        for size in [1, 17, DEFAULT_INGEST_BATCH] {
            let session = engine
                .open_session(format!("batch-{size}"), pipeline())
                .expect("open");
            let mut receipt = IngestReceipt::default();
            for chunk in reports.chunks(size) {
                receipt += session.ingest_batch(chunk.to_vec()).expect("ingest_batch");
            }
            assert_eq!(receipt.accepted, reports.len() as u64);
            let mut events = session.close().expect("close");
            normalize_events(&mut events);
            assert_eq!(events, expected, "batch size {size}");
        }
    }

    /// Lifecycle race: lossy ingestors hammering short-lived sessions on
    /// a shared worker pool while their owners open and close them.
    /// Nothing may panic, and the engine's drop accounting must exactly
    /// match the receipts the ingestors were handed (a dropped report is
    /// counted once, an accepted one never lost).
    #[test]
    fn concurrent_ingest_close_and_sweep_conserve_receipts() {
        let em = crate::telemetry::engine_metrics();
        let reg_in_before = em.reports_in.get();
        let reg_dropped_before = em.reports_dropped.get();

        let engine = std::sync::Arc::new(
            Engine::builder()
                .workers(2)
                .queue_capacity(8)
                .backpressure(Backpressure::DropOldest)
                .build()
                .expect("engine"),
        );

        let ingestors: Vec<_> = (0..4)
            .map(|t| {
                let engine = std::sync::Arc::clone(&engine);
                std::thread::spawn(move || {
                    let mut receipt = IngestReceipt::default();
                    for round in 0..20 {
                        let session = engine
                            .open_session(format!("race-{t}-{round}"), quiet_pipeline())
                            .expect("open");
                        for chunk in quiet_reports(48).chunks(12) {
                            receipt.absorb(session.ingest_batch(chunk.to_vec()).expect("ingest"));
                        }
                        session.close().expect("close");
                    }
                    receipt
                })
            })
            .collect();

        let mut total = IngestReceipt::default();
        for handle in ingestors {
            total.absorb(handle.join().expect("ingestor panicked"));
        }

        // Receipts mirror the engine's own accounting exactly…
        let stats = engine.stats();
        assert_eq!(stats.reports_in, total.accepted, "accepted conserved");
        assert_eq!(stats.reports_dropped, total.dropped, "dropped conserved");
        // …and the registry mirror kept every increment (>= because the
        // counters are process-global and other tests run concurrently).
        assert!(em.reports_in.get() - reg_in_before >= total.accepted);
        assert!(em.reports_dropped.get() - reg_dropped_before >= total.dropped);
        match std::sync::Arc::try_unwrap(engine) {
            Ok(engine) => engine.shutdown(),
            Err(_) => panic!("engine still referenced after joins"),
        }
    }

    /// Out-of-order clamp counts outlive the session that produced them:
    /// the registry is the durable sink once close destroys the
    /// per-session statistics.
    #[test]
    fn clamp_counts_survive_session_eviction() {
        let clamped = || {
            obs::registry()
                .counter(
                    "rfipad_pipeline_out_of_order_total",
                    "Reports that arrived with a stale timestamp, by applied policy.",
                    &[("policy", "clamp")],
                )
                .get()
        };
        let before = clamped();

        let engine = Engine::builder().workers(1).build().expect("engine");
        let session = engine
            .open_session("clamp-close", quiet_pipeline())
            .expect("open");
        // Feed forward, then stale: timestamps run backwards at the seam.
        let mut reports = quiet_reports(30);
        let stale: Vec<TagReport> = reports
            .iter()
            .map(|r| TagReport {
                time: r.time - 5.0,
                ..*r
            })
            .collect();
        reports.extend(stale);
        let receipt = session.ingest_batch(reports.clone()).expect("ingest");
        assert_eq!(receipt.accepted, reports.len() as u64);

        let (_, stats) = session.close_with_stats().expect("close");
        assert_eq!(stats.out_of_order, 30, "every stale report clamped");
        assert!(engine.stats().sessions.is_empty(), "session is gone");
        // The per-session count died with the session; the registry
        // mirror kept every clamp (>= because the counter is
        // process-global and other tests run concurrently).
        assert!(clamped() - before >= stats.out_of_order);
        engine.shutdown();
    }

    #[test]
    fn normalize_strips_wall_clock_only() {
        let mut events = vec![PipelineEvent::LetterRecognized {
            letter: Some('L'),
            strokes: Vec::new(),
            response_time_s: 0.25,
        }];
        normalize_events(&mut events);
        assert_eq!(
            events[0],
            PipelineEvent::LetterRecognized {
                letter: Some('L'),
                strokes: Vec::new(),
                response_time_s: 0.0,
            }
        );
    }
}
