//! Hand-rolled, std-only observability for the RFIPad workspace.
//!
//! The workspace's vendored-dependency policy rules out `tracing`,
//! `prometheus`, and friends, so this crate provides the minimal substrate
//! a long-running recognition service needs, with zero dependencies:
//!
//! - **Metrics** ([`metrics`]): lock-free [`Counter`]/[`Gauge`] atomics and
//!   fixed-bucket [`Histogram`]s that keep a bounded ring of raw samples,
//!   so snapshots report *exact* p50/p90/p99/max over the recent window
//!   (not bucket-interpolated estimates).
//! - **Registry** ([`registry()`]): a process-global, name + label keyed
//!   [`Registry`]. Registration takes a mutex; the returned
//!   [`Arc`](std::sync::Arc)s are cached by callers so the hot path is a
//!   single relaxed atomic op.
//! - **Logging** ([`logging`]): leveled [`error!`]/[`warn!`]/[`info!`]/
//!   [`debug!`]/[`trace!`] macros with `key = value` structured fields,
//!   filtered by the `RFIPAD_LOG` environment variable. A disabled level
//!   costs one relaxed atomic load and a branch — no formatting.
//! - **Spans** ([`Histogram::start_span`] / [`span!`]): scoped timers that
//!   record elapsed microseconds into a stage histogram on drop.
//! - **Journal** ([`logging::journal_snapshot`]): a bounded ring buffer of
//!   recent log events for post-mortem dumps.
//! - **Exposition** ([`expo`]): Prometheus-style text and JSON renderings
//!   of a registry, plus a validator for the text format.
//! - **JSON** ([`json`]): the string escaper every JSON writer shares and
//!   the one strict reader every JSON parser in the workspace uses.
//! - **Tracing** ([`mod@trace`]): seedable [`trace::TraceId`]/[`trace::SpanId`]
//!   streams, parent-linked span events, bounded per-session flight
//!   recorders, and deterministic head sampling for hot-path hops.
//! - **Serving** ([`serve`]): a minimal `std::net::TcpListener` HTTP
//!   endpoint exposing `/metrics` (text) and `/stats.json` (JSON), plus
//!   caller-defined routes ([`serve::serve_routes`]) for health and debug
//!   endpoints.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! let reads = obs::registry().counter(
//!     "demo_reads_total",
//!     "Reports accepted by the demo reader.",
//!     &[("source", "doc")],
//! );
//! reads.add(3);
//!
//! let stage = obs::registry().histogram(
//!     "demo_stage_duration_us",
//!     "Stage wall time in microseconds.",
//!     &[("stage", "framing")],
//!     obs::metrics::DEFAULT_DURATION_BOUNDS_US,
//! );
//! {
//!     let _span = obs::span!(stage); // records on scope exit
//! }
//! obs::info!("demo finished"; reads = reads.get());
//! let text = obs::registry().render_prometheus();
//! assert!(text.contains("demo_reads_total"));
//! obs::expo::validate(&text).expect("well-formed exposition");
//! ```
//!
//! Everything here is deliberately off the data path: recording a metric
//! never blocks, logging below the active level never formats, and with
//! `RFIPAD_LOG=off` span timers do not even read the clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expo;
pub mod json;
pub mod logging;
pub mod metrics;
pub mod registry;
pub mod serve;
pub mod trace;

pub use logging::{emit, enabled, max_level, set_level, telemetry_on, Level};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, SpanGuard};
pub use registry::{registry, MetricKind, Registry};

/// Logs at an explicit [`Level`] with optional structured fields.
///
/// The general form is `obs::log!(level, "fmt", args...; key = value, ...)`.
/// Fields are appended to the message as `key=value` using their `Display`
/// impls. Nothing is formatted (and field expressions are not evaluated)
/// unless the level is enabled.
#[macro_export]
macro_rules! log {
    ($lvl:expr, $fmt:expr $(, $arg:expr)* $(; $($key:ident = $val:expr),+ $(,)?)?) => {{
        let __lvl = $lvl;
        if $crate::enabled(__lvl) {
            let mut __msg = ::std::format!($fmt $(, $arg)*);
            $($(
                {
                    use ::std::fmt::Write as _;
                    let _ = ::std::write!(__msg, " {}={}", ::std::stringify!($key), $val);
                }
            )+)?
            $crate::emit(__lvl, ::std::module_path!(), &__msg);
        }
    }};
}

/// Logs an error (always emitted unless `RFIPAD_LOG=off`).
#[macro_export]
macro_rules! error { ($($t:tt)*) => { $crate::log!($crate::Level::Error, $($t)*) }; }

/// Logs a warning.
#[macro_export]
macro_rules! warn { ($($t:tt)*) => { $crate::log!($crate::Level::Warn, $($t)*) }; }

/// Logs an informational message (the default visible level).
#[macro_export]
macro_rules! info { ($($t:tt)*) => { $crate::log!($crate::Level::Info, $($t)*) }; }

/// Logs a debug message (hidden unless `RFIPAD_LOG=debug` or `trace`).
#[macro_export]
macro_rules! debug { ($($t:tt)*) => { $crate::log!($crate::Level::Debug, $($t)*) }; }

/// Logs a trace message (hidden unless `RFIPAD_LOG=trace`).
#[macro_export]
macro_rules! trace { ($($t:tt)*) => { $crate::log!($crate::Level::Trace, $($t)*) }; }

/// Starts a scoped timer recording into the given [`Histogram`] when the
/// returned guard drops. Bind it: `let _span = obs::span!(hist);`.
///
/// Accepts anything that derefs to a [`Histogram`] (`Arc<Histogram>`, a
/// reference, a field). With telemetry off (`RFIPAD_LOG=off`) the guard is
/// inert and the clock is never read.
#[macro_export]
macro_rules! span {
    ($hist:expr) => {
        $crate::Histogram::start_span(&$hist)
    };
}
