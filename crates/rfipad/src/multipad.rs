//! Multiple pads on one reader — the paper's cost-efficiency claim.
//!
//! "An existing reader can monitor multiple RFIPads while performing its
//! regular applications such as identification and tracking" (§I). A
//! Speedway-class reader drives several antennas over coax; each antenna
//! watches one pad, and the same inventory stream also reports whatever
//! ordinary asset tags are in range. This module provides the dispatcher
//! that routes a mixed, multi-antenna report stream to per-pad recognizers
//! while passing unrelated tags through to the host application.

use crate::error::RfipadError;
use crate::recognizer::Recognizer;
use crate::stage::{PipelineEvent, StageGraph};
use rfid_gen2::report::{TagId, TagReport};
use std::collections::HashMap;

/// An event from the multi-pad dispatcher.
#[derive(Debug, Clone, PartialEq)]
pub enum PadEvent {
    /// A recognition event from one of the pads.
    Recognition {
        /// Which pad produced it.
        pad: PadHandle,
        /// The underlying pipeline event.
        event: PipelineEvent,
    },
    /// A read from a tag belonging to no pad — the reader's "regular
    /// application" traffic (asset identification, tracking…).
    Unassigned(TagReport),
}

/// Identifies one registered pad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PadHandle(pub usize);

/// Routes a mixed tag-report stream to per-pad stage graphs.
///
/// Routing is by tag id: each pad owns the tags of its layout. Reads from
/// tags owned by no pad surface as [`PadEvent::Unassigned`] so the host
/// application keeps its ordinary RFID functionality — the whole point of
/// the paper's "cost-efficient extension" framing. Each pad drives a
/// [`StageGraph`], so recognitions are identical to running that pad's
/// share of the stream through a graph of its own.
#[derive(Debug)]
pub struct PadDispatcher {
    pads: Vec<StageGraph>,
    routing: HashMap<TagId, PadHandle>,
}

impl PadDispatcher {
    /// Creates an empty dispatcher.
    pub fn new() -> Self {
        Self {
            pads: Vec::new(),
            routing: HashMap::new(),
        }
    }

    /// Registers a pad: its recognizer plus the letter-gap the pipeline
    /// uses. Returns the pad's handle.
    ///
    /// # Errors
    ///
    /// Returns [`RfipadError::InvalidConfig`] if the gap is invalid, or if
    /// any of the pad's tags is already owned by another pad.
    pub fn register(
        &mut self,
        recognizer: Recognizer,
        letter_gap_s: f64,
    ) -> Result<PadHandle, RfipadError> {
        let handle = PadHandle(self.pads.len());
        for &id in recognizer.layout().tags() {
            if self.routing.contains_key(&id) {
                return Err(RfipadError::InvalidConfig(format!(
                    "tag {id} already belongs to another pad"
                )));
            }
        }
        for &id in recognizer.layout().tags() {
            self.routing.insert(id, handle);
        }
        self.pads.push(
            StageGraph::builder()
                .recognizer(recognizer)
                .letter_gap_s(letter_gap_s)
                .build()?,
        );
        Ok(handle)
    }

    /// Number of registered pads.
    pub fn pad_count(&self) -> usize {
        self.pads.len()
    }

    /// Feeds one observation from the shared reader stream.
    pub fn push(&mut self, obs: TagReport) -> Vec<PadEvent> {
        match self.routing.get(&obs.tag) {
            Some(&handle) => self.pads[handle.0]
                .push(obs)
                .into_iter()
                .map(|event| PadEvent::Recognition { pad: handle, event })
                .collect(),
            None => vec![PadEvent::Unassigned(obs)],
        }
    }

    /// Flushes every pad's pipeline at end of stream.
    pub fn finish(&mut self) -> Vec<PadEvent> {
        self.pads
            .iter_mut()
            .enumerate()
            .flat_map(|(i, p)| {
                p.finish()
                    .into_iter()
                    .map(move |event| PadEvent::Recognition {
                        pad: PadHandle(i),
                        event,
                    })
            })
            .collect()
    }
}

impl Default for PadDispatcher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::Calibration;
    use crate::config::RfipadConfig;
    use crate::layout::ArrayLayout;

    fn obs(tag: u64, time: f64, phase: f64) -> TagReport {
        TagReport::synthetic(
            TagId(tag),
            time,
            phase.rem_euclid(std::f64::consts::TAU),
            -45.0,
        )
    }

    fn recognizer_for(ids: std::ops::Range<u64>) -> Recognizer {
        let layout = ArrayLayout::new(1, 3, ids.clone().map(TagId).collect());
        let static_obs: Vec<TagReport> = (0..40)
            .flat_map(|j| {
                ids.clone()
                    .enumerate()
                    .map(move |(i, id)| obs(id, j as f64 * 0.05 + i as f64 * 0.01, 1.0 + i as f64))
            })
            .collect();
        let config = RfipadConfig::default();
        let cal = Calibration::from_observations(&layout, &static_obs, &config).expect("cal");
        Recognizer::builder()
            .layout(layout)
            .calibration(cal)
            .config(config)
            .build()
            .expect("valid")
    }

    #[test]
    fn routing_by_tag_ownership() {
        let mut d = PadDispatcher::new();
        let a = d.register(recognizer_for(0..3), 1.5).expect("pad A");
        let b = d.register(recognizer_for(10..13), 1.5).expect("pad B");
        assert_ne!(a, b);
        assert_eq!(d.pad_count(), 2);

        // A read from pad A's tag routes there (no events yet — static).
        assert!(d.push(obs(1, 0.0, 1.5)).is_empty());
        // A foreign tag passes through unassigned.
        let events = d.push(obs(99, 0.1, 2.0));
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0], PadEvent::Unassigned(o) if o.tag == TagId(99)));
    }

    #[test]
    fn overlapping_registration_rejected() {
        let mut d = PadDispatcher::new();
        d.register(recognizer_for(0..3), 1.5).expect("first");
        assert!(d.register(recognizer_for(2..5), 1.5).is_err());
        // The failed registration must not have claimed anything.
        assert_eq!(d.pad_count(), 1);
        let events = d.push(obs(4, 0.0, 1.0));
        assert!(matches!(events[0], PadEvent::Unassigned(_)));
    }

    #[test]
    fn invalid_gap_rejected() {
        let mut d = PadDispatcher::new();
        assert!(d.register(recognizer_for(0..3), 0.0).is_err());
    }

    #[test]
    fn finish_flushes_all_pads() {
        let mut d = PadDispatcher::new();
        d.register(recognizer_for(0..3), 1.5).expect("pad");
        // No activity — finish should produce nothing but not panic.
        assert!(d.finish().is_empty());
    }
}
