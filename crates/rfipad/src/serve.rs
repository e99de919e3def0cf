//! The TCP ingest server: remote readers stream report batches into
//! [`Engine`] sessions over the [`rfid_gen2::wire`] protocol.
//!
//! One listener thread accepts connections; each connection gets its own
//! thread speaking the lock-step frame protocol (handshake, then
//! OPEN/BATCH/CLOSE requests answered by ACK/SHED/CLOSED/ERROR). A single
//! connection multiplexes any number of sessions: every frame names the
//! session it targets, and the server maps connection-scoped session ids
//! onto engine sessions named `c<connection>#<session>` so ids never
//! collide across connections.
//!
//! Backpressure is the engine's, propagated to the wire: under
//! [`crate::engine::Backpressure::Block`] a full queue simply delays the
//! ACK (the client's lock-step send stalls — flow control for free), and
//! under [`crate::engine::Backpressure::DropOldest`] the response is a
//! SHED carrying exactly how many older reports were evicted, straight
//! from the engine's [`crate::engine::IngestReceipt`].
//!
//! Connections are read with a short poll timeout so every connection
//! thread notices server shutdown promptly, and a peer that goes silent
//! (or stalls mid-frame) longer than the idle deadline is disconnected.
//! Graceful [`IngestServer::shutdown`] stops the accept loop, signals
//! every connection, joins them, and closes each connection's remaining
//! sessions — their flushed events go to the configured [`EventSink`],
//! exactly as they would had the client sent CLOSE. The engine itself is
//! shared and stays up.
//!
//! ```no_run
//! # fn demo(engine: std::sync::Arc<rfipad::Engine>,
//! #         recognizer: rfipad::Recognizer) -> Result<(), rfipad::RfipadError> {
//! let server = rfipad::serve::IngestServer::builder()
//!     .addr("127.0.0.1:7011")
//!     .engine(engine)
//!     .pipeline_factory(move |_session| {
//!         rfipad::StageGraph::builder()
//!             .recognizer(recognizer.clone())
//!             .build()
//!     })
//!     .build()?;
//! println!("serving on {}", server.local_addr());
//! # Ok(())
//! # }
//! ```

use crate::engine::Engine;
use crate::error::RfipadError;
use crate::stage::{PipelineEvent, StageGraph};
use crate::telemetry::serve_metrics;
use rfid_gen2::wire::{
    check_handshake, decode_payload_v, encode_frame_v, handshake_bytes_for, Frame, TraceContext,
    WireError, DEFAULT_MAX_FRAME_LEN, ERR_ENGINE, ERR_MALFORMED, ERR_SESSION_EXISTS, ERR_TOO_LARGE,
    ERR_UNKNOWN_SESSION, ERR_UNSUPPORTED_VERSION, HANDSHAKE_LEN, WIRE_VERSION,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the [`StageGraph`] backing each session a client opens; the
/// argument is the client's session id.
pub type PipelineFactory = Arc<dyn Fn(&str) -> Result<StageGraph, RfipadError> + Send + Sync>;

/// Where a served session's recognition events go when the session closes
/// (client CLOSE or shutdown drain). The wire protocol reports only event
/// *counts* to the client; the events themselves are a server-side
/// product.
pub trait EventSink: Send + Sync {
    /// Called once per closed session with everything its pipeline
    /// produced. `session` is the engine-side id
    /// (`c<connection>#<client id>`).
    fn on_events(&self, session: &str, events: Vec<PipelineEvent>);
}

/// Discards events; the default sink.
#[derive(Debug, Default)]
pub struct DiscardSink;

impl EventSink for DiscardSink {
    fn on_events(&self, _session: &str, _events: Vec<PipelineEvent>) {}
}

/// Collects events per session behind a mutex — the sink integration
/// tests and in-process consumers use.
#[derive(Debug, Default)]
pub struct CollectingSink {
    events: Mutex<HashMap<String, Vec<PipelineEvent>>>,
}

impl CollectingSink {
    /// A fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes and returns the events of every session collected so far.
    pub fn take(&self) -> HashMap<String, Vec<PipelineEvent>> {
        std::mem::take(&mut *self.events.lock().expect("sink poisoned"))
    }
}

impl EventSink for CollectingSink {
    fn on_events(&self, session: &str, events: Vec<PipelineEvent>) {
        self.events
            .lock()
            .expect("sink poisoned")
            .entry(session.to_string())
            .or_default()
            .extend(events);
    }
}

/// Validating builder for [`IngestServer`], the supported way to start
/// one.
#[must_use = "call .build() to start the server"]
pub struct IngestServerBuilder {
    addr: String,
    engine: Option<Arc<Engine>>,
    pipeline_factory: Option<PipelineFactory>,
    event_sink: Arc<dyn EventSink>,
    read_timeout: Duration,
    idle_disconnect: Duration,
    max_frame_len: usize,
}

impl std::fmt::Debug for IngestServerBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServerBuilder")
            .field("addr", &self.addr)
            .field("read_timeout", &self.read_timeout)
            .field("idle_disconnect", &self.idle_disconnect)
            .field("max_frame_len", &self.max_frame_len)
            .finish_non_exhaustive()
    }
}

impl Default for IngestServerBuilder {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            engine: None,
            pipeline_factory: None,
            event_sink: Arc::new(DiscardSink),
            read_timeout: Duration::from_millis(50),
            idle_disconnect: Duration::from_secs(30),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
        }
    }
}

impl IngestServerBuilder {
    /// Listen address (default `127.0.0.1:0`; like the metrics endpoint,
    /// there is no TLS or authentication — bind to loopback or a
    /// firewalled interface).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// The engine sessions are opened on (required). Shared: the server
    /// never shuts it down.
    pub fn engine(mut self, engine: Arc<Engine>) -> Self {
        self.engine = Some(engine);
        self
    }

    /// How to build the stage graph behind each opened session (required).
    pub fn pipeline_factory(
        mut self,
        factory: impl Fn(&str) -> Result<StageGraph, RfipadError> + Send + Sync + 'static,
    ) -> Self {
        self.pipeline_factory = Some(Arc::new(factory));
        self
    }

    /// Where closed sessions' events go (default: discarded).
    pub fn event_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.event_sink = sink;
        self
    }

    /// Per-connection socket read poll interval: bounds how fast a
    /// connection thread notices shutdown (default 50 ms).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Disconnect a connection after this long without receiving a byte —
    /// between frames or stalled inside one (default 30 s).
    pub fn idle_disconnect(mut self, deadline: Duration) -> Self {
        self.idle_disconnect = deadline;
        self
    }

    /// Largest accepted frame payload, bytes (default 1 MiB).
    pub fn max_frame_len(mut self, max: usize) -> Self {
        self.max_frame_len = max;
        self
    }

    /// Validates the configuration, binds the listener, and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// [`RfipadError::InvalidConfig`] naming the offending field when a
    /// required field is missing, a timeout is zero or inconsistent, or
    /// the address fails to bind.
    pub fn build(self) -> Result<IngestServer, RfipadError> {
        let engine = self.engine.ok_or_else(|| {
            RfipadError::invalid_field("IngestServerBuilder", "engine", "required but not set")
        })?;
        let factory = self.pipeline_factory.ok_or_else(|| {
            RfipadError::invalid_field(
                "IngestServerBuilder",
                "pipeline_factory",
                "required but not set",
            )
        })?;
        if self.read_timeout.is_zero() {
            return Err(RfipadError::invalid_field(
                "IngestServerBuilder",
                "read_timeout",
                "must be positive",
            ));
        }
        if self.idle_disconnect < self.read_timeout {
            return Err(RfipadError::invalid_field(
                "IngestServerBuilder",
                "idle_disconnect",
                format!(
                    "must be at least the read_timeout ({:?})",
                    self.read_timeout
                ),
            ));
        }
        if self.max_frame_len < 64 {
            return Err(RfipadError::invalid_field(
                "IngestServerBuilder",
                "max_frame_len",
                "must be at least 64 bytes (one small frame)",
            ));
        }
        let listener = TcpListener::bind(&self.addr).map_err(|e| {
            RfipadError::invalid_field(
                "IngestServerBuilder",
                "addr",
                format!("bind failed on {}: {e}", self.addr),
            )
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| RfipadError::Source(format!("listener nonblocking: {e}")))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| RfipadError::Source(format!("listener addr: {e}")))?;
        let shared = Arc::new(ServerShared {
            engine,
            factory,
            sink: self.event_sink,
            stop: AtomicBool::new(false),
            next_conn: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
            read_timeout: self.read_timeout,
            idle_disconnect: self.idle_disconnect,
            max_frame_len: self.max_frame_len,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rfipad-serve".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn ingest accept thread");
        obs::info!("ingest server listening"; addr = local_addr);
        Ok(IngestServer {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// State shared by the accept loop and every connection thread.
struct ServerShared {
    engine: Arc<Engine>,
    factory: PipelineFactory,
    sink: Arc<dyn EventSink>,
    stop: AtomicBool,
    next_conn: AtomicU64,
    conns: Mutex<Vec<JoinHandle<()>>>,
    read_timeout: Duration,
    idle_disconnect: Duration,
    max_frame_len: usize,
}

/// A running TCP ingest server; [`IngestServer::shutdown`] (or drop)
/// drains it gracefully.
pub struct IngestServer {
    local_addr: std::net::SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for IngestServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IngestServer")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl IngestServer {
    /// Starts a validating builder ([`IngestServerBuilder`]).
    pub fn builder() -> IngestServerBuilder {
        IngestServerBuilder::default()
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Graceful shutdown: stop accepting, signal every connection, join
    /// them, and close their remaining sessions (flushed events go to the
    /// event sink). The engine is shared and is left running.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Connection threads observe the stop flag within one read
        // timeout, close their sessions, and exit.
        let conns: Vec<_> = {
            let mut guard = self.shared.conns.lock().expect("conn list poisoned");
            guard.drain(..).collect()
        };
        for conn in conns {
            let _ = conn.join();
        }
        obs::info!("ingest server drained"; addr = self.local_addr);
    }
}

impl Drop for IngestServer {
    fn drop(&mut self) {
        if self.accept.is_some() || !self.shared.stop.load(Ordering::SeqCst) {
            self.shutdown_inner();
        }
    }
}

/// Poll cadence of the nonblocking accept loop.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("rfipad-serve-c{conn_id}"))
                    .spawn(move || {
                        serve_metrics().connections_accepted.inc();
                        serve_metrics().connections_open.add(1);
                        let mut conn = Connection::new(conn_id, stream, conn_shared);
                        obs::debug!("ingest connection opened"; conn = conn_id, peer = peer);
                        conn.run();
                        conn.finish();
                        serve_metrics().connections_open.add(-1);
                        serve_metrics().connections_closed.inc();
                    })
                    .expect("spawn ingest connection thread");
                shared
                    .conns
                    .lock()
                    .expect("conn list poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) => {
                obs::warn!("ingest accept error: {e}");
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Why a connection's read loop ended.
enum ConnEnd {
    /// The idle deadline passed with no bytes.
    Idle,
    /// The server is shutting down.
    Shutdown,
}

/// Outcome of one deadline-aware read of an exact byte span.
enum ReadOutcome {
    /// The span was filled.
    Full,
    /// Clean EOF before the first byte (only where a frame boundary is).
    CleanEof,
    /// Mid-span EOF: the peer died inside a frame.
    TruncatedAt(usize),
    /// The read loop ended without data (idle deadline or shutdown).
    End(ConnEnd),
    /// Transport fault.
    Fault(std::io::Error),
}

/// One client connection: its stream, its session map, and its labelled
/// gauges.
struct Connection {
    id: u64,
    stream: TcpStream,
    shared: Arc<ServerShared>,
    sessions: HashMap<String, crate::engine::SessionHandle>,
    // Per-connection series, registered once at accept time so the frame
    // loop never takes the registry lock.
    frames_gauge: Arc<obs::Gauge>,
    sessions_gauge: Arc<obs::Gauge>,
    frames_seen: u64,
    /// Wire version negotiated at handshake time: the minimum of the
    /// peer's advertised version and ours. Frames are decoded and
    /// encoded under this version for the connection's whole life.
    version: u16,
    /// Root-span bookkeeping per open session (only populated while
    /// telemetry is enabled).
    traces: HashMap<String, SessionTrace>,
    /// Wire-decode time of the most recent frame, consumed by the next
    /// dispatch that wants a `decode` hop span.
    last_decode: Option<Duration>,
}

/// Trace state for one served session: the root span opened at OPEN and
/// closed when the session's events reach the sink.
struct SessionTrace {
    recorder: Arc<obs::trace::FlightRecorder>,
    trace: obs::trace::TraceId,
    root: obs::trace::SpanId,
    /// Parent carried in from the client's wire trace context, if any.
    root_parent: Option<obs::trace::SpanId>,
    opened_us: u64,
}

/// Per-connection gauge families (`conn`-labelled).
const CONN_GAUGES: [(&str, &str); 2] = [
    (
        "rfipad_serve_connection_frames",
        "Frames decoded on the connection so far.",
    ),
    (
        "rfipad_serve_connection_sessions",
        "Sessions currently open on the connection.",
    ),
];

impl Connection {
    fn new(id: u64, stream: TcpStream, shared: Arc<ServerShared>) -> Self {
        let label = format!("c{id}");
        let r = obs::registry();
        let frames_gauge = r.gauge(CONN_GAUGES[0].0, CONN_GAUGES[0].1, &[("conn", &label)]);
        let sessions_gauge = r.gauge(CONN_GAUGES[1].0, CONN_GAUGES[1].1, &[("conn", &label)]);
        Self {
            id,
            stream,
            shared,
            sessions: HashMap::new(),
            frames_gauge,
            sessions_gauge,
            frames_seen: 0,
            version: WIRE_VERSION,
            traces: HashMap::new(),
            last_decode: None,
        }
    }

    /// Engine-side session id: connection-scoped so two connections can
    /// both open `"pad-1"`.
    fn engine_id(&self, session: &str) -> String {
        format!("c{}#{session}", self.id)
    }

    fn run(&mut self) {
        if self.stream.set_nodelay(true).is_err()
            || self
                .stream
                .set_read_timeout(Some(self.shared.read_timeout))
                .is_err()
            || self
                .stream
                .set_write_timeout(Some(Duration::from_secs(5)))
                .is_err()
        {
            return;
        }
        if !self.handshake() {
            return;
        }
        loop {
            match self.read_request() {
                Some(frame) => {
                    self.frames_seen += 1;
                    self.frames_gauge.set(self.frames_seen as i64);
                    serve_metrics().frames_in.inc();
                    if !self.dispatch(frame) {
                        return;
                    }
                }
                None => return,
            }
        }
    }

    /// Exchanges handshakes. `false` ends the connection.
    fn handshake(&mut self) -> bool {
        let mut hs = [0u8; HANDSHAKE_LEN];
        match self.read_full(&mut hs, true) {
            ReadOutcome::Full => {}
            ReadOutcome::End(ConnEnd::Idle) => {
                serve_metrics().idle_disconnects.inc();
                return false;
            }
            _ => return false,
        }
        match check_handshake(&hs) {
            Ok(peer) => {
                // Speak the highest version both sides understand; v1
                // peers keep a bit-identical wire exchange.
                self.version = peer.min(WIRE_VERSION);
            }
            Err(WireError::UnsupportedVersion(v)) => {
                obs::warn!("ingest handshake version rejected"; conn = self.id, version = v);
                self.respond(&Frame::Error {
                    code: ERR_UNSUPPORTED_VERSION,
                    message: format!("server speaks version {}", rfid_gen2::wire::WIRE_VERSION),
                });
                return false;
            }
            Err(e) => {
                // Wrong magic: not our protocol, answer nothing.
                obs::warn!("ingest handshake rejected: {e}"; conn = self.id);
                return false;
            }
        }
        self.stream
            .write_all(&handshake_bytes_for(self.version))
            .is_ok()
    }

    /// Reads one frame, answering protocol faults in-line. `None` ends
    /// the connection.
    fn read_request(&mut self) -> Option<Frame> {
        let mut prefix = [0u8; 4];
        match self.read_full(&mut prefix, true) {
            ReadOutcome::Full => {}
            ReadOutcome::CleanEof | ReadOutcome::End(ConnEnd::Shutdown) => return None,
            ReadOutcome::End(ConnEnd::Idle) => {
                serve_metrics().idle_disconnects.inc();
                obs::debug!("ingest connection idle-disconnected"; conn = self.id);
                return None;
            }
            ReadOutcome::TruncatedAt(n) => {
                self.respond(&Frame::Error {
                    code: ERR_MALFORMED,
                    message: format!("truncated frame length prefix ({n} of 4 bytes)"),
                });
                return None;
            }
            ReadOutcome::Fault(e) => {
                obs::debug!("ingest read failed: {e}"; conn = self.id);
                return None;
            }
        }
        let len = u32::from_be_bytes(prefix) as usize;
        if len > self.shared.max_frame_len {
            // The payload was never read, so the stream cannot be
            // resynchronized — refuse and disconnect.
            self.respond(&Frame::Error {
                code: ERR_TOO_LARGE,
                message: format!(
                    "frame payload of {len} bytes exceeds the {}-byte cap",
                    self.shared.max_frame_len
                ),
            });
            return None;
        }
        let mut payload = vec![0u8; len];
        match self.read_full(&mut payload, false) {
            ReadOutcome::Full => {}
            ReadOutcome::TruncatedAt(_) | ReadOutcome::End(_) | ReadOutcome::CleanEof => {
                // Mid-frame end of any kind (peer death, idle stall,
                // shutdown): the frame is unusable.
                self.respond(&Frame::Error {
                    code: ERR_MALFORMED,
                    message: format!("truncated frame payload (wanted {len} bytes)"),
                });
                return None;
            }
            ReadOutcome::Fault(e) => {
                obs::debug!("ingest read failed: {e}"; conn = self.id);
                return None;
            }
        }
        let decode_t0 = obs::telemetry_on().then(Instant::now);
        match decode_payload_v(&payload, self.version) {
            Ok(frame) => {
                self.last_decode = decode_t0.map(|t| t.elapsed());
                if let Some(d) = self.last_decode {
                    crate::telemetry::hop_metrics().decode.record_duration_ns(d);
                }
                Some(frame)
            }
            Err(e) => {
                self.respond(&Frame::Error {
                    code: ERR_MALFORMED,
                    message: e.to_string(),
                });
                None
            }
        }
    }

    /// Handles one decoded frame. `false` ends the connection.
    fn dispatch(&mut self, frame: Frame) -> bool {
        match frame {
            Frame::Open { session, trace } => self.handle_open(session, trace),
            Frame::Batch {
                session,
                seq,
                reports,
                trace,
            } => self.handle_batch(session, seq, reports, trace),
            Frame::Close { session } => self.handle_close(session),
            other => {
                // Server-to-client frame types are not requests.
                self.respond(&Frame::Error {
                    code: ERR_MALFORMED,
                    message: format!(
                        "frame type 0x{:02x} is not a client request",
                        other.type_byte()
                    ),
                });
                false
            }
        }
    }

    /// Starts the session's root trace span and binds a flight recorder
    /// into its stage graph. A no-op while telemetry is disabled, so the
    /// frozen-clock replay configuration is untouched.
    fn begin_trace(&mut self, session: &str, ctx: Option<TraceContext>) {
        if !obs::telemetry_on() {
            return;
        }
        let engine_id = self.engine_id(session);
        let recorder = obs::trace::recorder(&engine_id);
        let trace = ctx
            .as_ref()
            .filter(|c| c.trace != 0)
            .map(|c| obs::trace::TraceId(c.trace))
            .unwrap_or_else(obs::trace::next_trace_id);
        let root_parent = ctx
            .as_ref()
            .filter(|c| c.parent_span != 0)
            .map(|c| obs::trace::SpanId(c.parent_span));
        let root = obs::trace::next_span_id();
        if let Some(handle) = self.sessions.get(session) {
            handle.bind_trace(Arc::clone(&recorder), trace, root);
        }
        let opened_us = recorder.now_us();
        self.traces.insert(
            session.to_owned(),
            SessionTrace {
                recorder,
                trace,
                root,
                root_parent,
                opened_us,
            },
        );
    }

    /// Records the `decode` hop as a child span of the session's root,
    /// consuming the decode time stamped by `read_request`.
    fn record_decode_span(&mut self, session: &str, ctx: Option<TraceContext>) {
        let Some(d) = self.last_decode.take() else {
            return;
        };
        let Some(tr) = self.traces.get(session) else {
            return;
        };
        if !obs::trace::sampler().sample() {
            return;
        }
        // The batch may carry its own parent span from the client; fall
        // back to the session root when it does not.
        let parent = ctx
            .as_ref()
            .filter(|c| c.parent_span != 0)
            .map(|c| obs::trace::SpanId(c.parent_span))
            .unwrap_or(tr.root);
        let end_us = tr.recorder.now_us();
        obs::trace::finish_span(
            &tr.recorder,
            obs::trace::SpanEvent {
                trace: tr.trace,
                span: obs::trace::next_span_id(),
                parent: Some(parent),
                name: "decode".to_owned(),
                start_us: end_us.saturating_sub(d.as_micros() as u64),
                end_us,
            },
        );
    }

    /// Delivers a closed session's events to the sink, timing the emit
    /// hop and closing the session's root span.
    fn deliver(&mut self, session: &str, engine_id: &str, events: Vec<PipelineEvent>) {
        let t0 = obs::telemetry_on().then(Instant::now);
        self.shared.sink.on_events(engine_id, events);
        let tr = self.traces.remove(session);
        let Some(d) = t0.map(|t| t.elapsed()) else {
            return;
        };
        crate::telemetry::hop_metrics().emit.record_duration_ns(d);
        let Some(tr) = tr else { return };
        let end_us = tr.recorder.now_us();
        obs::trace::finish_span(
            &tr.recorder,
            obs::trace::SpanEvent {
                trace: tr.trace,
                span: obs::trace::next_span_id(),
                parent: Some(tr.root),
                name: "emit".to_owned(),
                start_us: end_us.saturating_sub(d.as_micros() as u64),
                end_us,
            },
        );
        // The root span covers the session's whole served lifetime.
        obs::trace::finish_span(
            &tr.recorder,
            obs::trace::SpanEvent {
                trace: tr.trace,
                span: tr.root,
                parent: tr.root_parent,
                name: "session".to_owned(),
                start_us: tr.opened_us,
                end_us,
            },
        );
    }

    fn handle_open(&mut self, session: String, trace: Option<TraceContext>) -> bool {
        if self.sessions.contains_key(&session) {
            return self.respond(&Frame::Error {
                code: ERR_SESSION_EXISTS,
                message: format!("session {session:?} is already open on this connection"),
            });
        }
        let pipeline = match (self.shared.factory)(&session) {
            Ok(p) => p,
            Err(e) => {
                return self.respond(&Frame::Error {
                    code: ERR_ENGINE,
                    message: format!("pipeline factory failed: {e}"),
                })
            }
        };
        match self
            .shared
            .engine
            .open_session(self.engine_id(&session), pipeline)
        {
            Ok(handle) => {
                self.sessions.insert(session.clone(), handle);
                self.sessions_gauge.set(self.sessions.len() as i64);
                self.begin_trace(&session, trace);
                self.respond(&Frame::Ack {
                    session,
                    seq: 0,
                    accepted: 0,
                })
            }
            Err(e @ RfipadError::SessionExists(_)) => self.respond(&Frame::Error {
                code: ERR_SESSION_EXISTS,
                message: e.to_string(),
            }),
            Err(e) => self.respond(&Frame::Error {
                code: ERR_ENGINE,
                message: e.to_string(),
            }),
        }
    }

    fn handle_batch(
        &mut self,
        session: String,
        seq: u32,
        reports: rfid_gen2::report::ReportBatch,
        trace: Option<TraceContext>,
    ) -> bool {
        let Some(handle) = self.sessions.get(&session) else {
            return self.respond(&Frame::Error {
                code: ERR_UNKNOWN_SESSION,
                message: format!("session {session:?} is not open on this connection"),
            });
        };
        match handle.ingest_batch(reports) {
            Ok(receipt) => {
                self.record_decode_span(&session, trace);
                let m = serve_metrics();
                m.reports_in.add(receipt.accepted);
                if receipt.dropped == 0 {
                    self.respond(&Frame::Ack {
                        session,
                        seq,
                        accepted: receipt.accepted,
                    })
                } else {
                    m.reports_shed.add(receipt.dropped);
                    self.respond(&Frame::Shed {
                        session,
                        seq,
                        accepted: receipt.accepted,
                        dropped: receipt.dropped,
                    })
                }
            }
            Err(e @ RfipadError::EngineDown) => {
                self.respond(&Frame::Error {
                    code: ERR_ENGINE,
                    message: e.to_string(),
                });
                false
            }
            Err(e) => self.respond(&Frame::Error {
                code: ERR_ENGINE,
                message: e.to_string(),
            }),
        }
    }

    fn handle_close(&mut self, session: String) -> bool {
        let Some(handle) = self.sessions.remove(&session) else {
            return self.respond(&Frame::Error {
                code: ERR_UNKNOWN_SESSION,
                message: format!("session {session:?} is not open on this connection"),
            });
        };
        self.sessions_gauge.set(self.sessions.len() as i64);
        let engine_id = self.engine_id(&session);
        match handle.close() {
            Ok(events) => {
                let count = events.len() as u64;
                self.deliver(&session, &engine_id, events);
                self.respond(&Frame::Closed {
                    session,
                    events: count,
                })
            }
            Err(e) => {
                self.traces.remove(&session);
                self.respond(&Frame::Error {
                    code: ERR_ENGINE,
                    message: e.to_string(),
                })
            }
        }
    }

    /// Sends one response frame. `false` means the peer is unreachable
    /// and the connection should end.
    fn respond(&mut self, frame: &Frame) -> bool {
        let m = serve_metrics();
        match frame {
            Frame::Ack { .. } => m.acks_out.inc(),
            Frame::Shed { .. } => m.sheds_out.inc(),
            Frame::Error { .. } => m.errors_out.inc(),
            _ => {}
        }
        self.stream
            .write_all(&encode_frame_v(frame, self.version))
            .is_ok()
    }

    /// Fills `buf` from the stream under the connection's poll timeout,
    /// idle deadline, and the server's stop flag. `allow_clean_eof`
    /// distinguishes a frame boundary (where EOF and shutdown are clean)
    /// from mid-frame (where they are not).
    fn read_full(&mut self, buf: &mut [u8], allow_clean_eof: bool) -> ReadOutcome {
        let mut filled = 0usize;
        let deadline = Instant::now() + self.shared.idle_disconnect;
        while filled < buf.len() {
            if self.shared.stop.load(Ordering::SeqCst) && (allow_clean_eof || filled == 0) {
                return ReadOutcome::End(ConnEnd::Shutdown);
            }
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 && allow_clean_eof => return ReadOutcome::CleanEof,
                Ok(0) => return ReadOutcome::TruncatedAt(filled),
                Ok(n) => filled += n,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if self.shared.stop.load(Ordering::SeqCst) {
                        return ReadOutcome::End(ConnEnd::Shutdown);
                    }
                    if Instant::now() >= deadline {
                        return ReadOutcome::End(ConnEnd::Idle);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return ReadOutcome::Fault(e),
            }
        }
        ReadOutcome::Full
    }

    /// Ends the connection: closes every session it still owns, flushing
    /// their events to the sink, and retires its labelled series.
    fn finish(&mut self) {
        let sessions = std::mem::take(&mut self.sessions);
        for (client_id, handle) in sessions {
            let engine_id = self.engine_id(&client_id);
            match handle.close() {
                Ok(events) => self.deliver(&client_id, &engine_id, events),
                Err(e) => obs::debug!("drain close failed: {e}"; session = engine_id),
            }
        }
        self.traces.clear();
        let label = format!("c{}", self.id);
        let r = obs::registry();
        for (name, _) in CONN_GAUGES {
            r.remove_matching(name, "conn", &label);
        }
        obs::debug!("ingest connection closed"; conn = self.id, frames = self.frames_seen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;
    use crate::recognizer::Recognizer;
    use rfid_gen2::report::{TagId, TagReport};
    use rfid_gen2::wire::{read_frame, IngestClient, WIRE_MAGIC};

    fn obs_report(tag: TagId, time: f64, phase: f64, rss: f64) -> TagReport {
        TagReport::synthetic(tag, time, phase.rem_euclid(std::f64::consts::TAU), rss)
    }

    /// Tiny 1×3 quiet pipeline, same shape as the engine tests use.
    fn quiet_pipeline() -> Result<StageGraph, RfipadError> {
        let layout = ArrayLayout::new(1, 3, (0..3).map(TagId).collect());
        let static_obs: Vec<TagReport> = (0..40)
            .flat_map(|j| {
                (0..3).map(move |i| {
                    obs_report(
                        TagId(i),
                        j as f64 * 0.05 + i as f64 * 0.01,
                        1.0 + i as f64,
                        -45.0,
                    )
                })
            })
            .collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout, &static_obs, &config)?;
        let recognizer = Recognizer::builder()
            .layout(layout)
            .calibration(cal)
            .config(config)
            .build()?;
        StageGraph::builder().recognizer(recognizer).build()
    }

    fn quiet_reports(n: usize) -> Vec<TagReport> {
        (0..n)
            .map(|i| {
                obs_report(
                    TagId((i % 3) as u64),
                    i as f64 * 0.01,
                    1.0 + (i % 3) as f64,
                    -45.0,
                )
            })
            .collect()
    }

    fn server_with(sink: Arc<dyn EventSink>) -> (IngestServer, Arc<Engine>) {
        let engine = Arc::new(Engine::builder().workers(2).build().expect("engine"));
        let server = IngestServer::builder()
            .engine(Arc::clone(&engine))
            .pipeline_factory(|_| quiet_pipeline())
            .event_sink(sink)
            .read_timeout(Duration::from_millis(5))
            .idle_disconnect(Duration::from_secs(5))
            .build()
            .expect("server");
        (server, engine)
    }

    #[test]
    fn builder_validates_every_field() {
        let engine = Arc::new(Engine::builder().build().expect("engine"));
        let err = IngestServer::builder().build().unwrap_err();
        assert!(
            err.to_string().contains("IngestServerBuilder.engine"),
            "{err}"
        );
        let err = IngestServer::builder()
            .engine(Arc::clone(&engine))
            .build()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("IngestServerBuilder.pipeline_factory"),
            "{err}"
        );
        let err = IngestServer::builder()
            .engine(Arc::clone(&engine))
            .pipeline_factory(|_| quiet_pipeline())
            .read_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("IngestServerBuilder.read_timeout"),
            "{err}"
        );
        let err = IngestServer::builder()
            .engine(Arc::clone(&engine))
            .pipeline_factory(|_| quiet_pipeline())
            .read_timeout(Duration::from_secs(1))
            .idle_disconnect(Duration::from_millis(10))
            .build()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("IngestServerBuilder.idle_disconnect"),
            "{err}"
        );
        let err = IngestServer::builder()
            .engine(Arc::clone(&engine))
            .pipeline_factory(|_| quiet_pipeline())
            .max_frame_len(8)
            .build()
            .unwrap_err();
        assert!(
            err.to_string()
                .contains("IngestServerBuilder.max_frame_len"),
            "{err}"
        );
        let err = IngestServer::builder()
            .engine(engine)
            .pipeline_factory(|_| quiet_pipeline())
            .addr("256.0.0.1:1")
            .build()
            .unwrap_err();
        assert!(
            err.to_string().contains("IngestServerBuilder.addr"),
            "{err}"
        );
    }

    #[test]
    fn open_batch_close_round_trip_reaches_the_sink() {
        let sink = Arc::new(CollectingSink::new());
        let (server, _engine) = server_with(Arc::clone(&sink) as Arc<dyn EventSink>);
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        client.open("pad").expect("open");
        let reports = quiet_reports(64);
        let delivery = client.send_reports("pad", &reports, 32).expect("send");
        assert_eq!(delivery.accepted, 64);
        assert_eq!(delivery.dropped, 0);
        let events = client.close("pad").expect("close");
        drop(client);
        server.shutdown();
        let collected = sink.take();
        let key = collected
            .keys()
            .find(|k| k.ends_with("#pad"))
            .expect("session drained to sink")
            .clone();
        assert_eq!(collected[&key].len() as u64, events);
    }

    #[test]
    fn duplicate_open_and_unknown_session_keep_the_connection_usable() {
        let (server, _engine) = server_with(Arc::new(DiscardSink));
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        client.open("pad").expect("open");
        let err = client.open("pad").unwrap_err();
        assert!(
            matches!(err, WireError::Remote { code, .. } if code == ERR_SESSION_EXISTS),
            "{err}"
        );
        let err = client
            .send_batch("ghost", 1, quiet_reports(3).into_iter().collect())
            .unwrap_err();
        assert!(
            matches!(err, WireError::Remote { code, .. } if code == ERR_UNKNOWN_SESSION),
            "{err}"
        );
        // The connection survived both errors: the open session still works.
        let delivery = client
            .send_batch("pad", 2, quiet_reports(3).into_iter().collect())
            .expect("send");
        assert_eq!(delivery.accepted, 3);
        client.close("pad").expect("close");
        server.shutdown();
    }

    #[test]
    fn version_mismatch_answers_a_typed_error_and_disconnects() {
        let (server, _engine) = server_with(Arc::new(DiscardSink));
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut bad = [0u8; HANDSHAKE_LEN];
        bad[..4].copy_from_slice(&WIRE_MAGIC);
        bad[4..].copy_from_slice(&99u16.to_be_bytes());
        stream.write_all(&bad).expect("write handshake");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("read")
            .expect("frame");
        assert!(
            matches!(frame, Frame::Error { code, .. } if code == ERR_UNSUPPORTED_VERSION),
            "{frame:?}"
        );
        // The server hangs up after the rejection.
        let mut byte = [0u8; 1];
        assert_eq!(stream.read(&mut byte).unwrap_or(0), 0);
        server.shutdown();
    }

    #[test]
    fn oversized_and_malformed_frames_answer_typed_errors() {
        let (server, _engine) = server_with(Arc::new(DiscardSink));
        // Oversized frame: refused before the payload is read.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(&handshake_bytes_for(WIRE_VERSION))
            .expect("handshake out");
        let mut echo = [0u8; HANDSHAKE_LEN];
        stream.read_exact(&mut echo).expect("handshake back");
        stream
            .write_all(&u32::MAX.to_be_bytes())
            .expect("write prefix");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("read")
            .expect("frame");
        assert!(
            matches!(frame, Frame::Error { code, .. } if code == ERR_TOO_LARGE),
            "{frame:?}"
        );
        // Undecodable payload: a typed malformed error.
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(&handshake_bytes_for(WIRE_VERSION))
            .expect("handshake out");
        stream.read_exact(&mut echo).expect("handshake back");
        stream
            .write_all(&[0, 0, 0, 2, 0xEE, 0xEE])
            .expect("write garbage");
        let frame = read_frame(&mut stream, DEFAULT_MAX_FRAME_LEN)
            .expect("read")
            .expect("frame");
        assert!(
            matches!(frame, Frame::Error { code, .. } if code == ERR_MALFORMED),
            "{frame:?}"
        );
        server.shutdown();
    }

    #[test]
    fn idle_connections_are_disconnected() {
        let engine = Arc::new(Engine::builder().workers(1).build().expect("engine"));
        let server = IngestServer::builder()
            .engine(engine)
            .pipeline_factory(|_| quiet_pipeline())
            .read_timeout(Duration::from_millis(5))
            .idle_disconnect(Duration::from_millis(60))
            .build()
            .expect("server");
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        client.open("pad").expect("open");
        // Go silent past the idle deadline; the server hangs up.
        std::thread::sleep(Duration::from_millis(250));
        let mut byte = [0u8; 1];
        assert_eq!(client.stream().read(&mut byte).unwrap_or(0), 0);
        server.shutdown();
    }

    #[test]
    fn shutdown_drains_sessions_the_client_never_closed() {
        let sink = Arc::new(CollectingSink::new());
        let (server, engine) = server_with(Arc::clone(&sink) as Arc<dyn EventSink>);
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        client.open("left").expect("open left");
        client.open("right").expect("open right");
        client
            .send_reports("left", &quiet_reports(16), 8)
            .expect("send");
        let open_before = engine.stats().sessions_open;
        assert_eq!(open_before, 2);
        server.shutdown();
        let collected = sink.take();
        assert!(
            collected.keys().any(|k| k.ends_with("#left")),
            "{collected:?}"
        );
        assert!(
            collected.keys().any(|k| k.ends_with("#right")),
            "{collected:?}"
        );
        // The drain closed the engine sessions; the engine itself is alive.
        assert_eq!(engine.stats().sessions_open, 0);
        let mut byte = [0u8; 1];
        assert_eq!(client.stream().read(&mut byte).unwrap_or(0), 0);
    }

    #[test]
    fn sessions_multiplex_per_connection_without_id_collisions() {
        let sink = Arc::new(CollectingSink::new());
        let (server, _engine) = server_with(Arc::clone(&sink) as Arc<dyn EventSink>);
        let mut a = IngestClient::connect(server.local_addr()).expect("connect a");
        let mut b = IngestClient::connect(server.local_addr()).expect("connect b");
        // Both connections use the same client-side id; the server scopes
        // them to their connections.
        a.open("pad").expect("open a");
        b.open("pad").expect("open b");
        a.send_reports("pad", &quiet_reports(8), 8).expect("send a");
        b.send_reports("pad", &quiet_reports(8), 8).expect("send b");
        a.close("pad").expect("close a");
        b.close("pad").expect("close b");
        server.shutdown();
        let collected = sink.take();
        let pads: Vec<_> = collected.keys().filter(|k| k.ends_with("#pad")).collect();
        assert_eq!(pads.len(), 2, "{collected:?}");
    }

    #[test]
    fn v1_clients_negotiate_down_and_round_trip() {
        let sink = Arc::new(CollectingSink::new());
        let (server, _engine) = server_with(Arc::clone(&sink) as Arc<dyn EventSink>);
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut client =
            IngestClient::from_stream_versioned(stream, 1).expect("v1 handshake accepted");
        assert_eq!(client.negotiated_version(), 1);
        client.open("pad").expect("open");
        let delivery = client
            .send_reports("pad", &quiet_reports(64), 32)
            .expect("send");
        assert_eq!(delivery.accepted, 64);
        assert_eq!(delivery.dropped, 0);
        let events = client.close("pad").expect("close");
        drop(client);
        server.shutdown();
        let collected = sink.take();
        let key = collected
            .keys()
            .find(|k| k.ends_with("#pad"))
            .expect("v1 session drained to sink")
            .clone();
        assert_eq!(collected[&key].len() as u64, events);
    }

    #[test]
    fn traced_sessions_leave_flight_recorder_dumps() {
        let (server, _engine) = server_with(Arc::new(DiscardSink));
        let mut client = IngestClient::connect(server.local_addr()).expect("connect");
        assert_eq!(client.negotiated_version(), WIRE_VERSION);
        // A client-supplied trace context wins over a server-minted id.
        client
            .open_traced(
                "traced-pad",
                Some(TraceContext {
                    trace: 0xfeed_f00d,
                    parent_span: 0x77,
                }),
            )
            .expect("open");
        client
            .send_reports("traced-pad", &quiet_reports(32), 16)
            .expect("send");
        client.close("traced-pad").expect("close");
        server.shutdown();
        // The recorder outlives the session for post-mortem debugging.
        let key = obs::trace::sessions()
            .into_iter()
            .find(|s| s.ends_with("#traced-pad"))
            .expect("recorder registered");
        let rec = obs::trace::lookup(&key).expect("recorder kept after close");
        let spans = rec.snapshot();
        let root = spans
            .iter()
            .find(|s| s.name == "session")
            .expect("root span closed at delivery");
        assert_eq!(root.trace.0, 0xfeed_f00d);
        assert_eq!(root.parent.map(|p| p.0), Some(0x77));
        assert!(
            spans
                .iter()
                .any(|s| s.name == "emit" && s.parent == Some(root.span)),
            "{spans:?}"
        );
        // The dump parses back into the same span events.
        let (dropped, parsed) = obs::trace::parse_dump(&rec.to_json()).expect("dump parses");
        assert_eq!(dropped, rec.dropped());
        assert_eq!(parsed, spans);
    }
}
