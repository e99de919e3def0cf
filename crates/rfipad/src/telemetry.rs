//! Pipeline- and engine-layer metrics on the process-global registry.
//!
//! All handles are registered once (on first use) and cached in statics,
//! so the recognition hot path only ever performs relaxed atomic ops.
//! Hop histograms are process-wide aggregates across every live
//! pipeline — the "which stage is slow" view — while per-session state
//! stays in [`crate::engine`]'s own statistics.
//!
//! Naming follows DESIGN.md §Observability: `rfipad_pipeline_*`,
//! `rfipad_engine_*`, `rfipad_session_*`, `rfipad_serve_*`,
//! `rfipad_hop_*`.

use obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Cached counters of the stage graph's work; its stage timings are the
/// `stage:*` series of [`HOP_METRIC`].
pub(crate) struct StageMetrics {
    /// Reports consumed by pipelines.
    pub reports: Arc<Counter>,
    /// Stale reports clamped forward to the newest time seen.
    pub out_of_order_clamped: Arc<Counter>,
    /// Reports discarded for a non-finite time, phase or RSS.
    pub out_of_order_dropped: Arc<Counter>,
    /// Confirmed spans the motion classifier rejected as unclassifiable.
    pub rejected_spans: Arc<Counter>,
    /// Strokes reported.
    pub strokes: Arc<Counter>,
    /// Letters closed (recognized or not).
    pub letters: Arc<Counter>,
}

/// The lazily registered pipeline stage metrics.
pub(crate) fn stage_metrics() -> &'static StageMetrics {
    static METRICS: OnceLock<StageMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        let ooo = |policy: &'static str| {
            r.counter(
                "rfipad_pipeline_out_of_order_total",
                "Reports that arrived with a stale timestamp, by applied policy.",
                &[("policy", policy)],
            )
        };
        StageMetrics {
            reports: r.counter(
                "rfipad_pipeline_reports_total",
                "Tag reports consumed by online pipelines.",
                &[],
            ),
            out_of_order_clamped: ooo("clamp"),
            out_of_order_dropped: ooo("drop"),
            rejected_spans: r.counter(
                "rfipad_pipeline_rejected_spans_total",
                "Confirmed spans the motion classifier could not classify.",
                &[],
            ),
            strokes: r.counter(
                "rfipad_pipeline_strokes_total",
                "Strokes reported by online pipelines.",
                &[],
            ),
            letters: r.counter(
                "rfipad_pipeline_letters_total",
                "Letters closed by online pipelines (recognized or not).",
                &[],
            ),
        }
    })
}

/// Name of the per-hop ingest-latency histogram family: one series per
/// hop of the end-to-end ingest path, labelled `hop=decode | queue |
/// stage:framing | stage:segmentation | stage:motion | stage:letter |
/// stage:grammar | emit`. Values are recorded in nanoseconds against
/// [`obs::metrics::DEFAULT_DURATION_BOUNDS_NS`].
pub const HOP_METRIC: &str = "rfipad_hop_seconds";

/// Cached handles for the per-hop latency breakdown of the ingest path
/// (DESIGN.md §11): wire decode, engine queue wait, the five stages, and
/// event emission. The batch-granular hops (decode, queue, emit) are
/// recorded unsampled; the stage hops ride the head sampler
/// (`obs::trace::sampler`), one decision per frame tick, so the hot path
/// stays inside the overhead budget.
pub(crate) struct HopMetrics {
    /// Wire-frame decode time on the ingest server.
    pub decode: Arc<Histogram>,
    /// Time a queue item waited between enqueue and worker drain.
    pub queue: Arc<Histogram>,
    /// Per-stage time, indexed like the stage graph (sampled): framing
    /// per tick, the other stages per push.
    pub stages: [Arc<Histogram>; 5],
    /// Sink delivery time when a session's events are emitted.
    pub emit: Arc<Histogram>,
}

/// Stage names in graph order, shared by the hop series and the trace
/// span names (`stage:<name>`).
pub(crate) const STAGE_NAMES: [&str; 5] =
    ["framing", "segmentation", "motion", "letter", "grammar"];

/// The lazily registered per-hop latency histograms.
pub(crate) fn hop_metrics() -> &'static HopMetrics {
    static METRICS: OnceLock<HopMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        let hop = |name: &str| {
            r.histogram(
                HOP_METRIC,
                "Per-hop ingest latency, recorded in nanoseconds.",
                &[("hop", name)],
                obs::metrics::DEFAULT_DURATION_BOUNDS_NS,
            )
        };
        HopMetrics {
            decode: hop("decode"),
            queue: hop("queue"),
            stages: STAGE_NAMES.map(|stage| hop(&format!("stage:{stage}"))),
            emit: hop("emit"),
        }
    })
}

/// Cached handles for segmentation-quality counters fed by
/// [`crate::metrics::score_segmentation`].
pub(crate) struct SegmentationMetrics {
    /// Detected spans matching no ground-truth stroke (paper Fig. 21).
    pub insertions: Arc<Counter>,
    /// Ground-truth strokes with no matching detection.
    pub underfills: Arc<Counter>,
}

/// The lazily registered segmentation-quality counters.
pub(crate) fn segmentation_metrics() -> &'static SegmentationMetrics {
    static METRICS: OnceLock<SegmentationMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        SegmentationMetrics {
            insertions: r.counter(
                "rfipad_segmentation_insertions_total",
                "Detected spans that match no ground-truth stroke.",
                &[],
            ),
            underfills: r.counter(
                "rfipad_segmentation_underfills_total",
                "Ground-truth strokes with no matching detected span.",
                &[],
            ),
        }
    })
}

/// Cached handles for engine-wide aggregates. Counters are process-wide:
/// they survive session close and engine shutdown, unlike the per-session
/// statistics that are lost when a session closes (the registry is the
/// durable sink for drop/clamp totals).
pub(crate) struct EngineMetrics {
    /// Reports accepted into session queues.
    pub reports_in: Arc<Counter>,
    /// Reports dropped by DropOldest backpressure.
    pub reports_dropped: Arc<Counter>,
    /// Events emitted to session handles.
    pub events_out: Arc<Counter>,
    /// Sessions opened.
    pub sessions_opened: Arc<Counter>,
    /// Sessions closed (explicitly or by engine shutdown).
    pub sessions_closed: Arc<Counter>,
    /// Push latency across all sessions, nanoseconds.
    pub push_latency: Arc<Histogram>,
    /// Currently open sessions.
    pub sessions_open: Arc<obs::Gauge>,
}

/// Cached handles for the TCP ingest server ([`crate::serve`]). Counters
/// are lifetime totals across every server in the process; the gauge
/// tracks live connections. Per-connection gauges
/// (`rfipad_serve_connection_*`) are registered at accept time and
/// removed when the connection ends, mirroring how engine sessions manage
/// their labelled series.
pub(crate) struct ServeMetrics {
    /// Connections accepted.
    pub connections_accepted: Arc<Counter>,
    /// Connections that ended for any reason (client close, error, idle
    /// disconnect, shutdown drain).
    pub connections_closed: Arc<Counter>,
    /// Connections dropped by the idle-disconnect deadline.
    pub idle_disconnects: Arc<Counter>,
    /// Frames decoded from clients, all types.
    pub frames_in: Arc<Counter>,
    /// ACK responses sent (frame fully accepted, nothing shed).
    pub acks_out: Arc<Counter>,
    /// SHED responses sent (batch accepted, older reports evicted).
    pub sheds_out: Arc<Counter>,
    /// ERROR responses sent.
    pub errors_out: Arc<Counter>,
    /// Reports accepted off the wire into engine sessions.
    pub reports_in: Arc<Counter>,
    /// Reports shed by backpressure while serving.
    pub reports_shed: Arc<Counter>,
    /// Currently open connections.
    pub connections_open: Arc<Gauge>,
}

/// The lazily registered ingest-server metrics.
pub(crate) fn serve_metrics() -> &'static ServeMetrics {
    static METRICS: OnceLock<ServeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        ServeMetrics {
            connections_accepted: r.counter(
                "rfipad_serve_connections_accepted_total",
                "TCP ingest connections accepted.",
                &[],
            ),
            connections_closed: r.counter(
                "rfipad_serve_connections_closed_total",
                "TCP ingest connections ended, for any reason.",
                &[],
            ),
            idle_disconnects: r.counter(
                "rfipad_serve_idle_disconnects_total",
                "Connections dropped for exceeding the idle deadline.",
                &[],
            ),
            frames_in: r.counter(
                "rfipad_serve_frames_in_total",
                "Wire frames decoded from ingest clients.",
                &[],
            ),
            acks_out: r.counter(
                "rfipad_serve_acks_total",
                "ACK responses sent to ingest clients.",
                &[],
            ),
            sheds_out: r.counter(
                "rfipad_serve_sheds_total",
                "SHED responses sent to ingest clients.",
                &[],
            ),
            errors_out: r.counter(
                "rfipad_serve_errors_total",
                "Error responses sent to ingest clients.",
                &[],
            ),
            reports_in: r.counter(
                "rfipad_serve_reports_in_total",
                "Reports accepted off the wire into engine sessions.",
                &[],
            ),
            reports_shed: r.counter(
                "rfipad_serve_reports_shed_total",
                "Reports evicted by backpressure while serving.",
                &[],
            ),
            connections_open: r.gauge(
                "rfipad_serve_connections_open",
                "Currently open ingest connections.",
                &[],
            ),
        }
    })
}

/// The lazily registered engine metrics.
pub(crate) fn engine_metrics() -> &'static EngineMetrics {
    static METRICS: OnceLock<EngineMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = obs::registry();
        EngineMetrics {
            reports_in: r.counter(
                "rfipad_engine_reports_in_total",
                "Reports accepted into session queues.",
                &[],
            ),
            reports_dropped: r.counter(
                "rfipad_engine_reports_dropped_total",
                "Reports dropped by DropOldest backpressure.",
                &[],
            ),
            events_out: r.counter(
                "rfipad_engine_events_out_total",
                "Pipeline events emitted to session handles.",
                &[],
            ),
            sessions_opened: r.counter(
                "rfipad_engine_sessions_opened_total",
                "Sessions opened.",
                &[],
            ),
            sessions_closed: r.counter(
                "rfipad_engine_sessions_closed_total",
                "Sessions closed explicitly or at engine shutdown.",
                &[],
            ),
            push_latency: r.histogram(
                "rfipad_engine_push_latency_ns",
                "Per-item push-processing latency across all sessions, nanoseconds.",
                &[],
                obs::metrics::DEFAULT_DURATION_BOUNDS_NS,
            ),
            sessions_open: r.gauge(
                "rfipad_engine_sessions_open",
                "Currently open sessions across all engines.",
                &[],
            ),
        }
    })
}
