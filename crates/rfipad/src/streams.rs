//! Per-tag signal streams assembled from the reader's report stream.
//!
//! Tag reads arrive serialized by the Gen2 MAC, one tag at a time. This
//! module regroups them into per-tag phase and RSS time series, applying
//! phase de-periodicity (unwrapping, §III-A3) and — when a calibration is
//! supplied — the Eq. 8 tag-diversity suppression that re-centres every
//! tag's phase around zero.

use crate::calibration::{wrap_to_pi, Calibration};
use crate::layout::ArrayLayout;
use rfid_gen2::report::TagReport;
use serde::{Deserialize, Serialize};
use sigproc::series::TimeSeries;
use sigproc::unwrap::StreamingUnwrapper;
use std::f64::consts::TAU;
use std::sync::Arc;

/// Per-tag phase and RSS time series over one recording, in layout order:
/// series *i* belongs to the tag whose [`ArrayLayout::index`] is *i*, and a
/// tag never read has an empty series.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TagStreams {
    phases: Vec<TimeSeries>,
    rss: Vec<TimeSeries>,
    start: Option<f64>,
    end: Option<f64>,
}

impl TagStreams {
    /// Builds streams from tag reports.
    ///
    /// With `calibration = Some(..)` the phase stream of tag *i* is the
    /// unwrapped `θᵢⱼ − θ̃ᵢ` (Eq. 8): continuous and starting in `(−π, π]`.
    /// With `None` (the paper's no-suppression baseline) it is the raw
    /// unwrapped phase, whose centre value keeps the tag's hardware offset.
    ///
    /// Reports for tags outside `layout` are ignored (a public-area
    /// reader hears unrelated tags too), as are reports whose phase or
    /// RSS is not finite. A calibration must have been taken on `layout`
    /// (its [`Calibration::tag_ids`] equal to [`ArrayLayout::tags`]), as a
    /// [`crate::Recognizer`]'s is.
    pub fn build<'a>(
        layout: &ArrayLayout,
        calibration: Option<&Calibration>,
        observations: impl IntoIterator<Item = &'a TagReport>,
    ) -> Self {
        let mut builder = TagStreamsBuilder::new(layout.len());
        for obs in observations {
            if let Some(index) = layout.index(obs.tag) {
                builder.push(index, calibration, obs);
            }
        }
        builder.into_streams()
    }

    /// The suppressed (or raw) phase series of every tag, in layout order.
    pub fn phases(&self) -> &[TimeSeries] {
        &self.phases
    }

    /// The RSS series of every tag, in layout order.
    pub fn rss_levels(&self) -> &[TimeSeries] {
        &self.rss
    }

    /// Earliest observation time.
    pub fn start(&self) -> Option<f64> {
        self.start
    }

    /// Latest observation time.
    pub fn end(&self) -> Option<f64> {
        self.end
    }
}

/// Incremental counterpart of [`TagStreams::build`]: appends one report at
/// a time while carrying the per-tag unwrap state and Eq. 8 re-centring
/// offsets across pushes, so the accumulated [`TagStreams`] is identical to
/// a one-shot batch build over the same reports in the same order.
///
/// This is what lets the framing stage of a [`crate::StageGraph`] keep its
/// streams cached between frame ticks instead of rebuilding them from the
/// whole retained buffer. Note the offsets are chosen at each tag's *first*
/// sample — rebuilding from a trimmed buffer may legitimately pick
/// different offsets, which is why the stage invalidates (rather than
/// patches) its cache on trims.
/// The accumulated streams live behind an [`Arc`] so downstream consumers
/// (the stage graph's tick payloads) can hold a cheap reference to the
/// snapshot at a tick without cloning the series. Pushes mutate in place
/// via [`Arc::make_mut`] — O(1) while no snapshot is outstanding, a deep
/// copy-on-write only if one is still held across a push.
#[derive(Debug, Clone)]
pub struct TagStreamsBuilder {
    /// Per-tag push state, in layout order like the series it feeds.
    tags: Vec<TagPushState>,
    streams: Arc<TagStreams>,
}

/// Per-tag incremental state carried across pushes: the unwrap window and
/// the Eq. 8 re-centring offset chosen at the tag's first sample.
#[derive(Debug, Clone, Default)]
struct TagPushState {
    unwrapper: StreamingUnwrapper,
    offset: Option<f64>,
}

impl TagStreamsBuilder {
    /// Creates an empty builder for a layout of `tags` tags.
    pub fn new(tags: usize) -> Self {
        Self {
            tags: vec![TagPushState::default(); tags],
            streams: Arc::new(TagStreams {
                phases: vec![TimeSeries::default(); tags],
                rss: vec![TimeSeries::default(); tags],
                start: None,
                end: None,
            }),
        }
    }

    /// Appends one report of the tag at layout index `index`
    /// ([`ArrayLayout::index`]). Returns the calibrated phase it appended,
    /// or `None` if the report was ignored because its phase or RSS is not
    /// finite.
    ///
    /// `calibration` must be the same on every push; it is passed per call
    /// (rather than stored) so the builder can live beside the recognizer
    /// that owns it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not below the builder's tag count, or the
    /// calibration's.
    pub fn push(
        &mut self,
        index: usize,
        calibration: Option<&Calibration>,
        obs: &TagReport,
    ) -> Option<f64> {
        if !(obs.phase.is_finite() && obs.rss_dbm.is_finite()) {
            return None;
        }
        let state = &mut self.tags[index];
        let unwrapped = state.unwrapper.push(obs.phase);
        let value = match calibration {
            Some(cal) => {
                let mean = cal.per_tag()[index].mean_phase;
                // Re-centre: choose the 2π offset once (at the first
                // sample) so the suppressed stream starts in (−π, π]
                // and stays continuous afterwards.
                let offset = *state.offset.get_or_insert_with(|| {
                    let first = unwrapped - mean;
                    first - wrap_to_pi(first)
                });
                unwrapped - mean - offset
            }
            None => unwrapped,
        };
        let out = Arc::make_mut(&mut self.streams);
        out.phases[index].push(obs.time, value);
        out.rss[index].push(obs.time, obs.rss_dbm);
        out.start = Some(out.start.map_or(obs.time, |s: f64| s.min(obs.time)));
        out.end = Some(out.end.map_or(obs.time, |e: f64| e.max(obs.time)));
        Some(value)
    }

    /// Resets the builder to empty while keeping every allocation (per-tag
    /// series buffers) for reuse, so rebuilding over a trimmed buffer
    /// avoids re-growing the same structures.
    pub fn clear(&mut self) {
        self.tags.fill(TagPushState::default());
        let streams = Arc::make_mut(&mut self.streams);
        for series in streams.phases.iter_mut().chain(&mut streams.rss) {
            series.clear();
        }
        streams.start = None;
        streams.end = None;
    }

    /// The streams accumulated so far.
    pub fn streams(&self) -> &TagStreams {
        &self.streams
    }

    /// A shared handle to the streams accumulated so far. Holding it across
    /// a later [`push`](Self::push) is allowed but forces that push to
    /// copy-on-write; drop the handle when done with the snapshot.
    pub fn shared_streams(&self) -> Arc<TagStreams> {
        Arc::clone(&self.streams)
    }

    /// Consumes the builder, returning the accumulated streams.
    pub fn into_streams(self) -> TagStreams {
        Arc::try_unwrap(self.streams).unwrap_or_else(|shared| (*shared).clone())
    }
}

/// Convenience: raw wrapped phase in `[0, 2π)` for tests and experiments.
pub fn wrap_phase(p: f64) -> f64 {
    p.rem_euclid(TAU)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RfipadConfig;
    use rfid_gen2::report::TagId;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(1, 2, vec![TagId(0), TagId(1)])
    }

    fn obs(tag: TagId, time: f64, phase: f64) -> TagReport {
        TagReport::synthetic(tag, time, wrap_phase(phase), -45.0)
    }

    fn calibration_with_means(m0: f64, m1: f64) -> Calibration {
        // Build via static observations with tiny jitter around the means.
        let mut observations = Vec::new();
        for j in 0..30 {
            observations.push(obs(
                TagId(0),
                j as f64 * 0.05,
                m0 + 0.001 * (j as f64).sin(),
            ));
            observations.push(obs(
                TagId(1),
                j as f64 * 0.05 + 0.01,
                m1 + 0.001 * (j as f64).cos(),
            ));
        }
        Calibration::from_observations(&layout(), &observations, &RfipadConfig::default())
            .expect("calibration")
    }

    #[test]
    fn suppression_centres_streams_at_zero() {
        let cal = calibration_with_means(1.0, 5.0);
        let observations: Vec<TagReport> = (0..20)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0 + 0.05 * (j as f64).sin()),
                    obs(
                        TagId(1),
                        j as f64 * 0.1 + 0.05,
                        5.0 + 0.05 * (j as f64).cos(),
                    ),
                ]
            })
            .collect();
        let streams = TagStreams::build(&layout(), Some(&cal), &observations);
        for (i, series) in streams.phases().iter().enumerate() {
            assert_eq!(series.len(), 20);
            for (_, v) in series.iter() {
                assert!(v.abs() < 0.3, "suppressed value {v} for tag {i}");
            }
        }
    }

    #[test]
    fn without_suppression_centres_differ() {
        let observations: Vec<TagReport> = (0..20)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0),
                    obs(TagId(1), j as f64 * 0.1 + 0.05, 5.0),
                ]
            })
            .collect();
        let streams = TagStreams::build(&layout(), None, &observations);
        let m0 = streams.phases()[0].values()[0];
        let m1 = streams.phases()[1].values()[0];
        assert!((m0 - m1).abs() > 1.0, "raw centres {m0} vs {m1}");
    }

    #[test]
    fn wrapped_ramp_is_unwrapped() {
        let cal = calibration_with_means(0.1, 0.1);
        // Tag 0's true phase ramps 0.1 → 9; reported wrapped.
        let observations: Vec<TagReport> = (0..90)
            .map(|j| obs(TagId(0), j as f64 * 0.05, 0.1 + j as f64 * 0.1))
            .chain((0..30).map(|j| obs(TagId(1), 4.5 + j as f64 * 0.01, 0.1)))
            .collect();
        let streams = TagStreams::build(&layout(), Some(&cal), &observations);
        let series = &streams.phases()[0];
        // Continuous: no ±2π jumps between consecutive samples.
        for pair in series.values().windows(2) {
            assert!((pair[1] - pair[0]).abs() < 1.0);
        }
        // Total travel ≈ 8.9 rad.
        let travel = series.values().last().unwrap() - series.values()[0];
        assert!((travel - 8.9).abs() < 0.1, "travel {travel}");
    }

    #[test]
    fn foreign_tags_ignored() {
        let observations = vec![obs(TagId(0), 0.0, 1.0), obs(TagId(77), 0.1, 2.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.phases().len(), 2);
        assert_eq!(streams.phases()[0].times(), &[0.0]);
        assert!(streams.phases()[1].is_empty());
        assert!(streams.rss_levels()[1].is_empty());
    }

    #[test]
    fn span_and_counts() {
        let observations = vec![
            obs(TagId(0), 1.0, 0.5),
            obs(TagId(1), 1.5, 0.5),
            obs(TagId(0), 2.0, 0.5),
        ];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.start(), Some(1.0));
        assert_eq!(streams.end(), Some(2.0));
        let reads: Vec<usize> = streams.phases().iter().map(TimeSeries::len).collect();
        assert_eq!(reads, [2, 1]);
    }

    #[test]
    fn phase_series_in_layout_order_with_gaps() {
        let observations = vec![obs(TagId(1), 0.0, 1.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        let series = streams.phases();
        assert_eq!(series.len(), 2);
        assert!(series[0].is_empty());
        assert_eq!(series[1].len(), 1);
    }

    #[test]
    fn incremental_builder_matches_batch_build() {
        let cal = calibration_with_means(1.0, 5.0);
        let observations: Vec<TagReport> = (0..40)
            .flat_map(|j| {
                vec![
                    obs(TagId(0), j as f64 * 0.1, 1.0 + j as f64 * 0.2),
                    obs(TagId(1), j as f64 * 0.1 + 0.05, 5.0 - j as f64 * 0.15),
                    obs(TagId(99), j as f64 * 0.1 + 0.07, 0.0), // foreign
                ]
            })
            .collect();
        let batch = TagStreams::build(&layout(), Some(&cal), &observations);
        let mut builder = TagStreamsBuilder::new(2);
        for o in &observations {
            let Some(index) = layout().index(o.tag) else {
                assert_eq!(o.tag, TagId(99));
                continue;
            };
            let v = builder.push(index, Some(&cal), o).expect("finite report");
            let series = &builder.streams().phases()[index];
            assert_eq!(series.times().last(), Some(&o.time));
            assert_eq!(series.values().last(), Some(&v));
        }
        assert_eq!(builder.streams(), &batch);
        assert_eq!(builder.into_streams(), batch);
    }

    #[test]
    fn shared_snapshot_survives_later_pushes() {
        // A snapshot held across a push sees the state at snapshot time;
        // the builder copies on write and keeps accumulating.
        let mut builder = TagStreamsBuilder::new(2);
        builder.push(0, None, &obs(TagId(0), 0.0, 1.0));
        let snapshot = builder.shared_streams();
        builder.push(0, None, &obs(TagId(0), 1.0, 2.0));
        assert_eq!(snapshot.phases()[0].len(), 1);
        assert_eq!(builder.streams().phases()[0].len(), 2);
        assert_eq!(builder.shared_streams().phases()[0].len(), 2);
    }

    #[test]
    fn rss_stream_recorded() {
        let observations = vec![obs(TagId(0), 0.0, 1.0)];
        let streams = TagStreams::build(&layout(), None, &observations);
        assert_eq!(streams.rss_levels()[0].values(), &[-45.0]);
    }
}
