//! In-memory spans recorded by the benchmark around its own calls into
//! each layer, and the per-layer ledger derived from them.
//!
//! A span's self time is its duration minus the time its children cover.
//! Spans on one thread nest strictly (a child opens and closes inside its
//! parent), so summing the self times of a thread's spans gives exactly the
//! duration of its top-level spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (see [`layer_of`]).
    pub name: &'static str,
    /// Unique within a [`Tracer`]'s phase: thread in the high bits.
    pub id: u64,
    /// The enclosing span on the same thread.
    pub parent: Option<u64>,
    /// Session, stream or trial index the call worked for.
    pub unit: u64,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans for one thread. A disabled tracer records nothing
/// and never reads the clock, so untraced runs share the traced code path.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer for thread `thread`; times count from `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            on: true,
            epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::new(Instant::now(), 0)
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, unit: u64) {
        if !self.on {
            return;
        }
        let id = (self.thread << 40) | self.spans.len() as u64;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            unit,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, unit);
        let out = f();
        self.exit();
        out
    }

    /// The closed spans, in open order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// The layer (module of the repository) a span's time is charged to.
/// Spans named after the benchmark's own loops (`pass`, `client`, `trial`,
/// `stream`) are charged to `bench`: time spent in no layer.
pub fn layer_of(name: &str) -> &'static str {
    match name {
        "session" | "trim" => "framing",
        "segmentation" => "segmentation",
        "motion" => "motion",
        "letter" => "letter",
        "grammar" => "grammar",
        "decode" => "trace",
        "open" | "ingest" | "close" => "engine",
        "round_trip" => "serve",
        "encode" | "wire_decode" => "wire",
        "reader" => "reader",
        "kinematics" => "kinematics",
        _ => "bench",
    }
}

/// Time per span name and per layer over one phase's spans.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Self time per layer, ns.
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    /// Total duration per span name, ns.
    pub name_ns: BTreeMap<&'static str, u64>,
    /// Span count per name.
    pub name_count: BTreeMap<&'static str, u64>,
    /// Summed duration of top-level spans: the traced wall time of every
    /// thread that recorded, ns.
    pub wall_ns: u64,
}

impl Ledger {
    /// Builds the ledger of one phase.
    pub fn of(spans: &[Span]) -> Self {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.duration_ns();
            }
        }
        let mut ledger = Ledger::default();
        for s in spans {
            let d = s.duration_ns();
            let own = d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            *ledger.layer_self_ns.entry(layer_of(s.name)).or_default() += own;
            *ledger.name_ns.entry(s.name).or_default() += d;
            *ledger.name_count.entry(s.name).or_default() += 1;
            if s.parent.is_none() {
                ledger.wall_ns += d;
            }
        }
        ledger
    }

    /// Self time of `layer`, ns.
    pub fn self_ns(&self, layer: &str) -> u64 {
        self.layer_self_ns.get(layer).copied().unwrap_or(0)
    }

    /// Total duration of spans named `name`, ns.
    pub fn ns(&self, name: &str) -> u64 {
        self.name_ns.get(name).copied().unwrap_or(0)
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.name_count.get(name).copied().unwrap_or(0)
    }

    /// Share of the traced wall time spent in `layer`'s own code.
    pub fn share(&self, layer: &str) -> f64 {
        ratio(self.self_ns(layer) as f64, self.wall_ns as f64)
    }

    /// Share of the traced wall time the layers (everything but `bench`)
    /// account for.
    pub fn coverage(&self) -> f64 {
        1.0 - self.share("bench")
    }
}

/// `num / den`, or `0.0` when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders spans as JSON lines, one object per span, tagged with `phase`.
pub fn to_jsonl(phase: &str, spans: &[Span], out: &mut String) {
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"phase\":\"{phase}\",\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.unit, s.start_ns, s.end_ns
        );
    }
}
