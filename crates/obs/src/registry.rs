//! The process-global metric registry.
//!
//! Metrics are identified by a *family* name plus a sorted label set.
//! Registration (or lookup) takes the registry mutex once and hands back an
//! [`Arc`] to the live metric; callers cache the `Arc` so steady-state
//! recording never touches the lock. Registering the same name + labels
//! twice returns the same underlying metric — idempotent by design, so
//! library code can "register" from a `OnceLock` initializer without
//! coordination.
//!
//! Naming scheme (see DESIGN.md §Observability): `snake_case`, prefixed by
//! the owning layer (`rfid_reader_`, `rfipad_stage_`, `rfipad_engine_`,
//! `rfipad_session_`), counters suffixed `_total`, durations suffixed with
//! their unit (`_us`).

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// What kind of metric a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter.
    Counter,
    /// Up/down gauge.
    Gauge,
    /// Fixed-bucket histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One named family: a help string, a kind, and one metric per label set.
#[derive(Debug)]
pub(crate) struct Family {
    pub(crate) help: String,
    pub(crate) kind: MetricKind,
    pub(crate) series: BTreeMap<Vec<(String, String)>, Metric>,
}

/// A set of metric families keyed by name. Usually accessed through the
/// process-global [`registry()`]; tests can build private instances.
#[derive(Debug, Default)]
pub struct Registry {
    pub(crate) families: Mutex<BTreeMap<String, Family>>,
}

/// Valid metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub(crate) fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Valid label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
pub(crate) fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn label_key(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut key: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| {
            assert!(valid_label_name(k), "invalid label name {k:?}");
            ((*k).to_string(), (*v).to_string())
        })
        .collect();
    key.sort();
    key
}

impl Registry {
    /// An empty registry.
    pub const fn new() -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    fn get_or_insert(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let key = label_key(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric {name:?} already registered as a {}",
            family.kind.as_str()
        );
        family.series.entry(key).or_insert_with(make).clone()
    }

    /// Registers (or fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if the name or a label name is malformed, or if `name` is
    /// already registered as a different kind.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self.get_or_insert(name, help, labels, MetricKind::Counter, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a gauge. Panics as [`Registry::counter`] does.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.get_or_insert(name, help, labels, MetricKind::Gauge, || {
            Metric::Gauge(Arc::new(Gauge::new()))
        }) {
            Metric::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or fetches) a histogram with the given bucket bounds
    /// (bounds are fixed by the first registration). Panics as
    /// [`Registry::counter`] does, or if `bounds` is invalid.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        match self.get_or_insert(name, help, labels, MetricKind::Histogram, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Removes one series (e.g. a closed session's gauges). Returns whether
    /// it existed. An emptied family keeps its name and kind.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let key = label_key(labels);
        let mut families = self.families.lock().expect("registry poisoned");
        families
            .get_mut(name)
            .map(|f| f.series.remove(&key).is_some())
            .unwrap_or(false)
    }

    /// Removes every series of `name` whose labels include `label == value`
    /// (e.g. all gauges of a closed session). Returns how many were
    /// removed.
    pub fn remove_matching(&self, name: &str, label: &str, value: &str) -> usize {
        let mut families = self.families.lock().expect("registry poisoned");
        let Some(family) = families.get_mut(name) else {
            return 0;
        };
        let before = family.series.len();
        family
            .series
            .retain(|key, _| !key.iter().any(|(k, v)| k == label && v == value));
        before - family.series.len()
    }

    /// Drops every family. Intended for tests with private registries.
    pub fn clear(&self) {
        self.families.lock().expect("registry poisoned").clear();
    }

    /// Names of all registered families, sorted.
    pub fn family_names(&self) -> Vec<String> {
        self.families
            .lock()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect()
    }
}

/// The process-global registry. All workspace instrumentation records
/// here; exposition sinks render it.
pub fn registry() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_the_metric() {
        let r = Registry::new();
        let a = r.counter("t_total", "help", &[("k", "v")]);
        let b = r.counter("t_total", "other help ignored", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        // A different label set is a different series.
        let c = r.counter("t_total", "help", &[("k", "w")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        let a = r.gauge("g", "help", &[("a", "1"), ("b", "2")]);
        let b = r.gauge("g", "help", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("clash", "help", &[]);
        let _ = r.gauge("clash", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let r = Registry::new();
        let _ = r.counter("9starts_with_digit", "help", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid label name")]
    fn bad_label_panics() {
        let r = Registry::new();
        let _ = r.counter("fine", "help", &[("bad-label", "v")]);
    }

    #[test]
    fn remove_and_remove_matching() {
        let r = Registry::new();
        let _ = r.gauge("q_depth", "help", &[("session", "a")]);
        let _ = r.gauge("q_depth", "help", &[("session", "b")]);
        assert!(r.remove("q_depth", &[("session", "a")]));
        assert!(!r.remove("q_depth", &[("session", "a")]));
        assert_eq!(r.remove_matching("q_depth", "session", "b"), 1);
        assert_eq!(r.remove_matching("q_depth", "session", "b"), 0);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("rfipad_engine_reports_total"));
        assert!(valid_metric_name("ns:sub"));
        assert!(valid_metric_name("_x"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("1x"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name("has-dash"));
        assert!(valid_label_name("stage"));
        assert!(!valid_label_name("le:")); // colon not allowed in labels
    }
}
