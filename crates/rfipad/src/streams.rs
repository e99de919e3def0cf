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
use sigproc::series::TimeSeries;
use sigproc::unwrap::StreamingUnwrapper;
use std::f64::consts::{PI, TAU};
use std::sync::Arc;

/// Per-tag phase and RSS time series over one recording, in layout order:
/// series *i* belongs to the tag whose [`ArrayLayout::index`] is *i*, and a
/// tag never read has an empty series.
#[derive(Debug, Clone, Default, PartialEq)]
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
/// levels across pushes, so the accumulated [`TagStreams`] is identical to
/// a one-shot batch build over the same reports in the same order.
///
/// This is what lets the framing stage of a [`crate::StageGraph`] keep its
/// streams cached between frame ticks instead of rebuilding them from the
/// whole retained buffer. A retention or letter-close trim drops a time
/// prefix of every series in place ([`trim`](Self::trim)), and the builder
/// still equals a batch build over the remaining reports: a suppressed
/// value is `(phase − mean) + m·2π` with an integer `m`, which a build
/// from a later first report reproduces whenever that report's value
/// already lies in (−π, π].
///
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

/// Per-tag incremental state carried across pushes: the unwrap window,
/// the Eq. 8 re-centring level chosen at the tag's first sample, and the
/// largest phase magnitude pushed since.
#[derive(Debug, Clone, Default)]
struct TagPushState {
    unwrapper: StreamingUnwrapper,
    level: Option<f64>,
    max_phase: f64,
}

/// A trim keeps a tag's values when every phase it pushed is at most
/// `EXACT_PHASE` in magnitude and its first kept value lies `LEVEL_MARGIN`
/// inside (−π, π]. Rounding then moves no value by a tenth of the margin,
/// so that value's 2π level is the only one in reach.
const EXACT_PHASE: f64 = 1_048_576.0;
const LEVEL_MARGIN: f64 = 1e-6;

impl TagPushState {
    /// Unwraps one reported phase and returns its value: Eq. 8 suppressed
    /// when `mean` (the tag's calibrated phase) is given, the raw unwrapped
    /// phase otherwise. The suppressed value is `(phase − mean) + m·2π`,
    /// with `m` the unwrapper's whole turns less the tag's level, so it
    /// depends on where the stream started only through that integer.
    fn push(&mut self, phase: f64, mean: Option<f64>) -> f64 {
        let unwrapped = self.unwrapper.push(phase);
        self.max_phase = self.max_phase.max(phase.abs());
        let Some(mean) = mean else {
            return unwrapped;
        };
        let x = phase - mean;
        // Re-centre: choose the level once (at the first sample, where the
        // unwrapper has made no turn) so the suppressed stream starts in
        // (−π, π] and stays continuous afterwards.
        let level = *self.level.get_or_insert_with(|| centring_level(x));
        x + (self.unwrapper.turns() as f64 - level) * TAU
    }
}

/// The Eq. 8 level for a tag whose first sample, less its calibrated mean
/// phase, is `x`: the whole number of turns `k` that brings `x − k·2π`
/// into (−π, π]. An exact integer, so any first sample at the same level
/// re-centres by the same multiple of 2π, bit for bit.
fn centring_level(x: f64) -> f64 {
    // `+ 0.0` keeps level 0 from coming out as −0.0 on a negative residue.
    let mut level = ((x - wrap_to_pi(x)) / TAU).round() + 0.0;
    // Rounding can leave x a few ulps outside the interval at its edges.
    if x - level * TAU > PI {
        level += 1.0;
    } else if x - level * TAU <= -PI {
        level -= 1.0;
    }
    level
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
        let mean = calibration.map(|cal| cal.per_tag()[index].mean_phase);
        let value = self.tags[index].push(obs.phase, mean);
        let out = Arc::make_mut(&mut self.streams);
        out.phases[index].push(obs.time, value);
        out.rss[index].push(obs.time, obs.rss_dbm);
        out.start = Some(out.start.map_or(obs.time, |s: f64| s.min(obs.time)));
        out.end = Some(out.end.map_or(obs.time, |e: f64| e.max(obs.time)));
        Some(value)
    }

    /// Drops every sample whose time `dropped` accepts, in place, from
    /// streams built with `calibration` on `layout`. `dropped` must accept
    /// a prefix of times (all times before a cut), as a trim of the
    /// time-ordered report buffer does, and `kept` must be the reports that
    /// remain, in push order. The builder then equals a batch build over
    /// `kept`.
    ///
    /// A batch build starts each tag's unwrapping at its first kept report
    /// and picks its level there. Its values equal the kept ones, bit for
    /// bit, whenever the first kept value already lies in (−π, π]: the
    /// same level less the turns made before the cut reproduces every
    /// integer `m`. Otherwise — a false 2π unwrap step, or a drift past ±π,
    /// neither of which may persist since Eq. 11 takes the RMS of the
    /// values — the tag is replayed from `kept`.
    ///
    /// `changed[i]` receives how far tag *i*'s series changed: the time of
    /// its newest dropped sample, [`f64::INFINITY`] if the values it kept
    /// were rewritten, or [`f64::NEG_INFINITY`] if the trim left it as it
    /// was — what [`sigproc::frames::FrameBuilder::refill`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `changed` is shorter than the builder's tag count.
    pub fn trim(
        &mut self,
        calibration: &Calibration,
        layout: &ArrayLayout,
        kept: &[TagReport],
        dropped: impl Fn(f64) -> bool,
        changed: &mut [f64],
    ) {
        let out = Arc::make_mut(&mut self.streams);
        let mut start: Option<f64> = None;
        for (index, state) in self.tags.iter_mut().enumerate() {
            let phases = &mut out.phases[index];
            let n = phases.times().partition_point(|&t| dropped(t));
            changed[index] = if n == 0 {
                f64::NEG_INFINITY
            } else {
                phases.times()[n - 1]
            };
            phases.drain_front(n);
            out.rss[index].drain_front(n);
            let Some(&first) = phases.times().first() else {
                *state = TagPushState::default();
                continue;
            };
            start = Some(start.map_or(first, |s: f64| s.min(first)));
            let value = phases.values()[0];
            if n == 0 || (value.abs() <= PI - LEVEL_MARGIN && state.max_phase <= EXACT_PHASE) {
                continue;
            }
            let mean = calibration.per_tag()[index].mean_phase;
            *state = TagPushState::default();
            let reads = kept.iter().filter(|o| {
                layout.index(o.tag) == Some(index) && o.phase.is_finite() && o.rss_dbm.is_finite()
            });
            for (o, value) in reads.zip(phases.values_mut()) {
                *value = state.push(o.phase, Some(mean));
            }
            changed[index] = f64::INFINITY;
        }
        out.start = start;
        if start.is_none() {
            out.end = None;
        }
    }

    /// Resets the builder to empty while keeping every allocation (per-tag
    /// series buffers) for reuse.
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
    fn centring_levels_are_whole_turns() {
        // `x − wrap_to_pi(x)` leaves a residue that depends on x: −3.6e-16
        // at x = −0.1, where level 0 must be exactly 0.
        assert_eq!(centring_level(-0.1).to_bits(), 0.0f64.to_bits());
        for i in -400..=400 {
            let x = i as f64 * 0.0371 + (i as f64).sin() * 1e-3;
            let level = centring_level(x);
            assert_eq!(level, level.round(), "x = {x}");
            let first = x - level * TAU;
            assert!(first > -PI && first <= PI, "x = {x} starts at {first}");
        }
    }

    #[test]
    fn a_trimmed_builder_equals_a_batch_build_of_what_remains() {
        let cal = calibration_with_means(0.05, 5.0);
        // Tag 0 sits on the 0/2π boundary, so its unwrap correction flips;
        // tag 1 drifts through half a turn, so its 2π level moves.
        let observations: Vec<TagReport> = (0..200)
            .flat_map(|j| {
                let t = j as f64 * 0.05;
                vec![
                    obs(TagId(0), t, 0.05 + 0.2 * (j as f64 * 0.7).sin()),
                    obs(TagId(1), t + 0.01, 5.0 + j as f64 * 0.03),
                ]
            })
            .collect();
        for cut in [0.0, 0.52, 1.0, 3.33, 7.5, 9.96, 20.0] {
            let mut builder = TagStreamsBuilder::new(2);
            for o in &observations {
                builder.push(layout().index(o.tag).unwrap(), Some(&cal), o);
            }
            let mut changed = [0.0; 2];
            let kept: Vec<TagReport> = observations
                .iter()
                .filter(|o| o.time >= cut)
                .copied()
                .collect();
            builder.trim(&cal, &layout(), &kept, |t| t < cut, &mut changed);
            assert_eq!(
                builder.streams(),
                &TagStreams::build(&layout(), Some(&cal), &kept),
                "cut at {cut}"
            );
            if cut == 0.0 {
                assert_eq!(changed, [f64::NEG_INFINITY; 2]);
            }
        }
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
