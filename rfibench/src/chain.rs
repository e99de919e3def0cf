//! The five public stages driven by the benchmark itself, in
//! `StageGraph::cascade` order, so the traced run can time each stage call
//! from outside the repository's code.
//!
//! The chain reproduces `StageGraph`'s wiring: the letter stage's oldest
//! pending stroke anchors framing retention, a retention trim drops stale
//! span-dedup entries, and a letter close trims the history and forgets the
//! dedup entries. It cannot call the crate-private frame recycling, so each
//! tick allocates a fresh frame sequence; that cost lands in the framing
//! allocation count and the tracing overhead, never in the events.
//!
//! Per-report framing pushes are not clocked: framing's time is the
//! enclosing `session` span minus the stage spans inside it.

use crate::alloc;
use crate::spans::Tracer;
use rfid_gen2::report::TagReport;
use rfipad::stage::{
    FrameTick, Framing, Grammar, LetterOut, LetterRecognition, Motion, Segmentation, SpanBatch,
    StrokeBatch,
};
use rfipad::{PipelineEvent, Recognizer, Stage};
use std::sync::Arc;

/// Work and allocation counts of the stage calls a chain made.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainCounts {
    /// Reports pushed into framing.
    pub reports: u64,
    /// Frame ticks framing emitted (segmentation pushes).
    pub ticks: u64,
    /// Confirmed spans segmentation handed to motion.
    pub spans: u64,
    /// Strokes motion recognized.
    pub strokes: u64,
    /// Stroke batches pushed into the letter stage.
    pub letter_batches: u64,
    /// Letters closed (grammar deductions).
    pub closes: u64,
    /// Closes the grammar decoded into a letter.
    pub decoded: u64,
    /// Framing history trims: retention trims plus letter-close trims.
    pub rebuilds: u64,
    /// Allocations inside framing pushes and flushes.
    pub framing_allocs: u64,
    /// Allocations inside segmentation pushes.
    pub segmentation_allocs: u64,
    /// Allocations inside motion pushes.
    pub motion_allocs: u64,
    /// Allocations inside grammar pushes of letter closes.
    pub grammar_close_allocs: u64,
}

impl ChainCounts {
    /// Adds another chain's counts.
    pub fn absorb(&mut self, o: &ChainCounts) {
        self.reports += o.reports;
        self.ticks += o.ticks;
        self.spans += o.spans;
        self.strokes += o.strokes;
        self.letter_batches += o.letter_batches;
        self.closes += o.closes;
        self.decoded += o.decoded;
        self.rebuilds += o.rebuilds;
        self.framing_allocs += o.framing_allocs;
        self.segmentation_allocs += o.segmentation_allocs;
        self.motion_allocs += o.motion_allocs;
        self.grammar_close_allocs += o.grammar_close_allocs;
    }
}

/// One pad's stage cascade, driven stage by stage.
#[derive(Debug)]
pub struct Chain {
    framing: Framing,
    segmentation: Segmentation,
    motion: Motion,
    letter: LetterRecognition,
    grammar: Grammar,
    last_time: f64,
    unit: u64,
    ticks: Vec<FrameTick>,
    spans: Vec<SpanBatch>,
    strokes: Vec<StrokeBatch>,
    letters: Vec<LetterOut>,
    /// What the chain's stage calls did so far.
    pub counts: ChainCounts,
}

impl Chain {
    /// Builds the stages the way `StageGraphBuilder::build` does; `unit`
    /// tags every span the chain records.
    pub fn new(recognizer: &Recognizer, letter_gap_s: f64, unit: u64) -> Self {
        let config = recognizer.config();
        let end_guard_s = config.frame_len_s * config.window_frames as f64;
        let recognizer = Arc::new(recognizer.clone());
        Self {
            framing: Framing::new(Arc::clone(&recognizer), letter_gap_s, end_guard_s),
            segmentation: Segmentation::new(Arc::clone(&recognizer), end_guard_s),
            motion: Motion::new(Arc::clone(&recognizer)),
            letter: LetterRecognition::new(letter_gap_s),
            grammar: Grammar::new(recognizer, end_guard_s),
            last_time: f64::NEG_INFINITY,
            unit,
            ticks: Vec::new(),
            spans: Vec::new(),
            strokes: Vec::new(),
            letters: Vec::new(),
            counts: ChainCounts::default(),
        }
    }

    /// Feeds one report (stale timestamps are clamped, as `StageGraph`
    /// does by default), appending any events it triggers.
    pub fn push(&mut self, mut obs: TagReport, events: &mut Vec<PipelineEvent>, t: &mut Tracer) {
        if obs.time < self.last_time {
            obs.time = self.last_time;
        }
        self.last_time = obs.time;
        self.counts.reports += 1;
        let a0 = alloc::count();
        self.framing.set_hold_anchor(self.letter.hold_anchor());
        self.framing.push(obs, &mut self.ticks);
        if let Some(keep_from) = self.framing.take_trim() {
            self.segmentation.trim_reported(keep_from);
            self.counts.rebuilds += 1;
        }
        self.counts.framing_allocs += alloc::count() - a0;
        if !self.ticks.is_empty() {
            self.cascade(events, t);
        }
    }

    /// Flushes the chain at end of input.
    pub fn finish(&mut self, events: &mut Vec<PipelineEvent>, t: &mut Tracer) {
        let a0 = alloc::count();
        self.framing.flush(&mut self.ticks);
        self.counts.framing_allocs += alloc::count() - a0;
        self.cascade(events, t);
    }

    fn cascade(&mut self, events: &mut Vec<PipelineEvent>, t: &mut Tracer) {
        let unit = self.unit;
        let c = &mut self.counts;
        for tick in self.ticks.drain(..) {
            c.ticks += 1;
            t.enter("segmentation", unit);
            let a0 = alloc::count();
            self.segmentation.push(tick, &mut self.spans);
            c.segmentation_allocs += alloc::count() - a0;
            t.exit();
        }
        for batch in self.spans.drain(..) {
            c.spans += batch.spans.len() as u64;
            t.enter("motion", unit);
            let a0 = alloc::count();
            self.motion.push(batch, &mut self.strokes);
            c.motion_allocs += alloc::count() - a0;
            t.exit();
        }
        for batch in self.strokes.drain(..) {
            c.strokes += batch.strokes.len() as u64;
            c.letter_batches += 1;
            t.enter("letter", unit);
            self.letter.push(batch, &mut self.letters);
            t.exit();
        }
        let mut closed_at = None;
        for out in self.letters.drain(..) {
            let close = match &out {
                LetterOut::Close { letter_end, .. } => {
                    closed_at = Some(*letter_end);
                    true
                }
                LetterOut::Stroke { .. } => false,
            };
            t.enter("grammar", unit);
            let a0 = alloc::count();
            self.grammar.push(out, events);
            let allocs = alloc::count() - a0;
            t.exit();
            if close {
                c.closes += 1;
                c.grammar_close_allocs += allocs;
                if let Some(PipelineEvent::LetterRecognized {
                    letter: Some(_), ..
                }) = events.last()
                {
                    c.decoded += 1;
                }
            }
        }
        if let Some(letter_end) = closed_at {
            t.enter("trim", unit);
            self.framing.trim_after_letter(letter_end);
            self.segmentation.clear_reported();
            t.exit();
            c.rebuilds += 1;
        }
    }
}
