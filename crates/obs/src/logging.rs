//! Leveled logging with `RFIPAD_LOG` filtering and a bounded event journal.
//!
//! The level is parsed from the `RFIPAD_LOG` environment variable once, on
//! first use, and cached in an atomic; [`set_level`] overrides it at run
//! time (tests and benchmarks use this instead of mutating the process
//! environment, which is not thread-safe). A disabled level costs one
//! relaxed atomic load and a branch.
//!
//! Every emitted event also lands in a bounded ring buffer — the
//! *journal* — so a crash handler or stats endpoint can dump the recent
//! history without having captured stderr.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Log verbosity, ordered from silent to chattiest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum Level {
    /// Telemetry disabled: no log output, spans do not read the clock.
    Off = 0,
    /// Unrecoverable or surprising failures.
    Error = 1,
    /// Degraded but proceeding (drops, clamps, evictions).
    Warn = 2,
    /// Progress and lifecycle notes (the default).
    Info = 3,
    /// Per-operation detail for debugging.
    Debug = 4,
    /// Very chatty, per-report detail.
    Trace = 5,
}

impl Level {
    /// Short uppercase tag used in the output line.
    pub fn tag(self) -> &'static str {
        match self {
            Level::Off => "OFF",
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parses a level name as accepted in `RFIPAD_LOG` (case-insensitive).
    /// Returns `None` for unrecognized text.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(Level::Off),
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    fn from_usize(v: usize) -> Level {
        match v {
            0 => Level::Off,
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            _ => Level::Trace,
        }
    }
}

/// Sentinel meaning "not yet initialized from the environment".
const UNINIT: usize = usize::MAX;

static MAX_LEVEL: AtomicUsize = AtomicUsize::new(UNINIT);

/// The default level when `RFIPAD_LOG` is unset or unparseable.
pub const DEFAULT_LEVEL: Level = Level::Info;

/// The active maximum level. First call reads `RFIPAD_LOG`; later calls
/// are one relaxed atomic load.
pub fn max_level() -> Level {
    let raw = MAX_LEVEL.load(Ordering::Relaxed);
    if raw != UNINIT {
        return Level::from_usize(raw);
    }
    let level = std::env::var("RFIPAD_LOG")
        .ok()
        .and_then(|v| Level::parse(&v))
        .unwrap_or(DEFAULT_LEVEL);
    // A racing first call may store the same value; that is fine.
    MAX_LEVEL.store(level as usize, Ordering::Relaxed);
    level
}

/// Overrides the active level, taking precedence over `RFIPAD_LOG`.
/// Thread-safe, unlike mutating the environment.
pub fn set_level(level: Level) {
    MAX_LEVEL.store(level as usize, Ordering::Relaxed);
}

/// Whether events at `level` are currently emitted.
pub fn enabled(level: Level) -> bool {
    level != Level::Off && level <= max_level()
}

/// Whether telemetry is on at all. With `RFIPAD_LOG=off` span timers and
/// the journal are disabled; plain counters stay live (they are part of
/// the engine's public statistics).
pub fn telemetry_on() -> bool {
    max_level() != Level::Off
}

/// One journaled log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Monotonic sequence number (process-wide, starts at 1).
    pub seq: u64,
    /// Event level.
    pub level: Level,
    /// Module path that emitted the event.
    pub target: String,
    /// Rendered message, structured fields already appended.
    pub message: String,
}

/// Journal capacity: old events are dropped once this many are retained.
pub const JOURNAL_CAPACITY: usize = 512;

static JOURNAL_SEQ: AtomicU64 = AtomicU64::new(0);
static JOURNAL: Mutex<VecDeque<JournalEntry>> = Mutex::new(VecDeque::new());

/// Emits one event: writes `[LEVEL target] message` to stderr and appends
/// it to the journal. Usually called through the [`crate::log!`] family,
/// which performs the level check first.
pub fn emit(level: Level, target: &str, message: &str) {
    eprintln!("[{} {target}] {message}", level.tag());
    let target = target.to_string();
    let message = message.to_string();
    let mut journal = JOURNAL.lock().expect("journal poisoned");
    // Numbered under the lock, so concurrent emitters append in sequence
    // order and the journal's seq column is strictly increasing.
    let entry = JournalEntry {
        seq: JOURNAL_SEQ.fetch_add(1, Ordering::Relaxed) + 1,
        level,
        target,
        message,
    };
    if journal.len() >= JOURNAL_CAPACITY {
        journal.pop_front();
    }
    journal.push_back(entry);
}

/// Copies the journal, oldest first.
pub fn journal_snapshot() -> Vec<JournalEntry> {
    JOURNAL
        .lock()
        .expect("journal poisoned")
        .iter()
        .cloned()
        .collect()
}

/// Clears the journal (tests and post-dump housekeeping).
pub fn journal_clear() {
    JOURNAL.lock().expect("journal poisoned").clear();
}

/// Renders the journal as JSON, oldest first:
/// `{"entries":[{"seq":N,"level":"INFO","target":"...","message":"..."}]}`.
/// Backs the `/debug/journal` endpoint.
pub fn journal_json() -> String {
    use crate::json::escape;
    use std::fmt::Write as _;
    let entries = journal_snapshot();
    let mut out = String::with_capacity(64 + entries.len() * 96);
    out.push_str("{\"entries\":[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seq\":{},\"level\":\"{}\",\"target\":\"{}\",\"message\":\"{}\"}}",
            e.seq,
            e.level.tag(),
            escape(&e.target),
            escape(&e.message)
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_all_names_case_insensitively() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("OFF"), Some(Level::Off));
        assert_eq!(Level::parse("Error"), Some(Level::Error));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" info "), Some(Level::Info));
        assert_eq!(Level::parse("DEBUG"), Some(Level::Debug));
        assert_eq!(Level::parse("trace"), Some(Level::Trace));
        assert_eq!(Level::parse("verbose"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Off < Level::Error);
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
    }

    // The level filter is process-global state shared by every test in
    // this binary, so the filtering checks run as ONE test to avoid
    // parallel interleaving.
    #[test]
    fn set_level_filters_and_journal_records() {
        let restore = max_level();

        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        assert!(telemetry_on());

        set_level(Level::Off);
        assert!(!enabled(Level::Error));
        assert!(!telemetry_on());

        set_level(Level::Debug);
        let mark = "journal-filter-probe";
        crate::debug!("{mark}"; answer = 42);
        crate::trace!("must-not-appear {mark}");
        let journal = journal_snapshot();
        let hit = journal
            .iter()
            .rfind(|e| e.message.contains(mark))
            .expect("debug event journaled");
        assert_eq!(hit.level, Level::Debug);
        assert!(
            hit.message.contains("answer=42"),
            "fields appended: {hit:?}"
        );
        assert!(hit.target.contains("logging"), "target is module path");
        assert!(
            !journal
                .iter()
                .any(|e| e.message.contains("must-not-appear")),
            "trace event must be filtered at debug level"
        );

        set_level(restore);
    }

    #[test]
    fn journal_is_bounded() {
        let restore = max_level();
        set_level(Level::Info);
        for i in 0..(JOURNAL_CAPACITY + 40) {
            emit(Level::Info, "obs::test", &format!("bounded {i}"));
        }
        let journal = journal_snapshot();
        assert!(journal.len() <= JOURNAL_CAPACITY);
        // Sequence numbers stay strictly increasing across the wrap.
        assert!(journal.windows(2).all(|w| w[0].seq < w[1].seq));
        set_level(restore);
    }
}
