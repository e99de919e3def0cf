//! RSS-based direction estimation (§III-B).
//!
//! Phase trends differ wildly from tag to tag (monotone, axially or
//! circularly symmetric — the paper's Fig. 8), so RFIPad infers the travel
//! direction from RSS instead: each tag shows a distinct *trough* when the
//! hand passes directly over it, and the order of the troughs across the
//! foreground tags gives the tag sequence — hence the direction.
//!
//! The two-stage estimator: (1) per tag, smooth the RSS and pick the most
//! prominent trough inside the stroke span; (2) regress the trough-ordered
//! tag positions against trough time and compare the fitted travel vector
//! with the shape's canonical direction.

use crate::config::RfipadConfig;
use crate::layout::ArrayLayout;
use crate::motion::RecognizedMotion;
use crate::streams::TagStreams;
use hand_kinematics::stroke::{Stroke, StrokeShape};
use serde::{Deserialize, Serialize};
use sigproc::filter::deepest_trough;
use sigproc::kernel::moving_average_into;

/// A per-tag trough observation: when the hand crossed the tag.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagTrough {
    /// Grid cell of the tag.
    pub cell: (usize, usize),
    /// Time of the RSS minimum.
    pub time: f64,
    /// Trough prominence in dB.
    pub prominence_db: f64,
}

/// Direction estimation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectionEstimate {
    /// The completed stroke (shape + direction).
    pub stroke: Stroke,
    /// The troughs the estimate is based on, in time order.
    pub troughs: Vec<TagTrough>,
    /// Fitted travel vector `(d_row/dt, d_col/dt)` in cells per second;
    /// zero when fewer than two troughs were found.
    pub velocity: (f64, f64),
}

/// Estimates stroke direction from RSS troughs.
#[derive(Debug, Clone, Default)]
pub struct DirectionEstimator {
    config: RfipadConfig,
}

impl DirectionEstimator {
    /// Creates an estimator.
    pub fn new(config: RfipadConfig) -> Self {
        Self { config }
    }

    /// Estimates the direction of a recognized motion over `[start, end)`.
    ///
    /// Falls back to the canonical direction (not reversed) when fewer than
    /// two usable troughs exist (e.g. a click, or too few reads).
    pub fn estimate(
        &self,
        motion: &RecognizedMotion,
        layout: &ArrayLayout,
        streams: &TagStreams,
        start: f64,
        end: f64,
    ) -> DirectionEstimate {
        let mut troughs = self.collect_troughs(motion, layout, streams, start, end);
        troughs.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));

        let velocity = fit_velocity(&troughs);
        let reversed = if motion.shape.is_directional() {
            let canonical = canonical_velocity(motion.shape);
            let dot = velocity.0 * canonical.0 + velocity.1 * canonical.1;
            dot < 0.0
        } else {
            false
        };
        let stroke = if reversed {
            Stroke::reversed(motion.shape)
        } else {
            Stroke::new(motion.shape)
        };
        DirectionEstimate {
            stroke,
            troughs,
            velocity,
        }
    }

    /// Stage 1: the most prominent RSS trough of every foreground tag.
    fn collect_troughs(
        &self,
        motion: &RecognizedMotion,
        layout: &ArrayLayout,
        streams: &TagStreams,
        start: f64,
        end: f64,
    ) -> Vec<TagTrough> {
        let mut out = Vec::new();
        let mut smoothed = Vec::new();
        for (r, c) in motion.mask.foreground() {
            let id = layout.at(r, c);
            let Some(series) = streams.rss(id) else {
                continue;
            };
            // Pad the span slightly: the trough of an edge tag can sit right
            // at the segment boundary.
            let pad = 0.2;
            let (times, values) = series.window(start - pad, end + pad);
            if values.len() < 5 {
                continue;
            }
            moving_average_into(values, self.config.trough_smooth_half, &mut smoothed);
            if let Some(trough) = deepest_trough(&smoothed) {
                if trough.prominence >= self.config.trough_min_prominence_db {
                    out.push(TagTrough {
                        cell: (r, c),
                        time: times[trough.index],
                        prominence_db: trough.prominence,
                    });
                }
            }
        }
        out
    }
}

impl DirectionEstimator {
    /// Phase-based direction baseline (the alternative §III-B argues
    /// *against*): each foreground tag's crossing time is estimated as the
    /// |Δphase|-weighted mean time of its phase activity, and the travel
    /// vector is regressed from those times. Phase trends are inconsistent
    /// across tags (Fig. 8), so this is less reliable than the RSS troughs
    /// — the ablation experiment quantifies by how much.
    pub fn estimate_phase_based(
        &self,
        motion: &RecognizedMotion,
        layout: &ArrayLayout,
        streams: &TagStreams,
        start: f64,
        end: f64,
    ) -> DirectionEstimate {
        let mut pseudo_troughs = Vec::new();
        for (r, c) in motion.mask.foreground() {
            let id = layout.at(r, c);
            let Some(series) = streams.phase(id) else {
                continue;
            };
            let (times, values) = series.window(start, end);
            if values.len() < 3 {
                continue;
            }
            let mut weight = 0.0;
            let mut weighted_time = 0.0;
            for j in 1..values.len() {
                let delta = (values[j] - values[j - 1]).abs();
                weight += delta;
                weighted_time += delta * 0.5 * (times[j] + times[j - 1]);
            }
            if weight > 1e-9 {
                pseudo_troughs.push(TagTrough {
                    cell: (r, c),
                    time: weighted_time / weight,
                    prominence_db: weight,
                });
            }
        }
        pseudo_troughs.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite"));
        let velocity = fit_velocity(&pseudo_troughs);
        let reversed = if motion.shape.is_directional() {
            let canonical = canonical_velocity(motion.shape);
            velocity.0 * canonical.0 + velocity.1 * canonical.1 < 0.0
        } else {
            false
        };
        let stroke = if reversed {
            Stroke::reversed(motion.shape)
        } else {
            Stroke::new(motion.shape)
        };
        DirectionEstimate {
            stroke,
            troughs: pseudo_troughs,
            velocity,
        }
    }
}

/// Least-squares slope of (row, col) against trough time, cells/second.
fn fit_velocity(troughs: &[TagTrough]) -> (f64, f64) {
    if troughs.len() < 2 {
        return (0.0, 0.0);
    }
    let n = troughs.len() as f64;
    let mean_t = troughs.iter().map(|t| t.time).sum::<f64>() / n;
    let mean_r = troughs.iter().map(|t| t.cell.0 as f64).sum::<f64>() / n;
    let mean_c = troughs.iter().map(|t| t.cell.1 as f64).sum::<f64>() / n;
    let var_t: f64 = troughs
        .iter()
        .map(|t| (t.time - mean_t) * (t.time - mean_t))
        .sum();
    if var_t < 1e-9 {
        return (0.0, 0.0);
    }
    let cov_r: f64 = troughs
        .iter()
        .map(|t| (t.time - mean_t) * (t.cell.0 as f64 - mean_r))
        .sum();
    let cov_c: f64 = troughs
        .iter()
        .map(|t| (t.time - mean_t) * (t.cell.1 as f64 - mean_c))
        .sum();
    (cov_r / var_t, cov_c / var_t)
}

/// Canonical travel vector `(d_row, d_col)` of each directional shape.
fn canonical_velocity(shape: StrokeShape) -> (f64, f64) {
    match shape {
        StrokeShape::Click => (0.0, 0.0),
        StrokeShape::HLine => (0.0, 1.0),
        StrokeShape::VLine => (1.0, 0.0),
        StrokeShape::Slash => (-1.0, 1.0),
        StrokeShape::Backslash => (1.0, 1.0),
        // Arcs travel top → bottom in canonical form.
        StrokeShape::ArcLeft | StrokeShape::ArcRight => (1.0, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfid_gen2::report::{TagId, TagReport};
    use sigproc::grid::BinaryGrid;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(5, 5, (0..25).map(TagId).collect())
    }

    /// RSS streams where column 2's tags dip in sequence (top to bottom at
    /// one tag per 0.4 s).
    fn sweeping_streams(reverse: bool) -> TagStreams {
        let l = layout();
        let mut observations = Vec::new();
        for step in 0..200 {
            let t = step as f64 * 0.02; // 4 s, 50 Hz per tag
            for r in 0..5 {
                let id = l.at(r, 2);
                // The hand crosses row r at time 0.8 + 0.4·r (or reversed).
                let cross = if reverse {
                    0.8 + 0.4 * (4 - r) as f64
                } else {
                    0.8 + 0.4 * r as f64
                };
                let dip = -8.0 * (-(t - cross) * (t - cross) / 0.02).exp();
                observations.push(TagReport::synthetic(id, t, 1.0, -45.0 + dip));
            }
        }
        TagStreams::build(&l, None, &observations)
    }

    fn column_motion() -> RecognizedMotion {
        let mut mask = BinaryGrid::empty(5, 5);
        for r in 0..5 {
            mask.set(r, 2, true);
        }
        RecognizedMotion {
            shape: StrokeShape::VLine,
            mask,
            centroid: (2.0, 2.0),
            bbox: (0, 2, 4, 2),
        }
    }

    #[test]
    fn downward_sweep_is_canonical() {
        let streams = sweeping_streams(false);
        let est = DirectionEstimator::new(RfipadConfig::default());
        let d = est.estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
        assert_eq!(d.stroke, Stroke::new(StrokeShape::VLine));
        assert!(d.velocity.0 > 0.5, "row velocity {:?}", d.velocity);
        assert_eq!(d.troughs.len(), 5);
    }

    #[test]
    fn upward_sweep_is_reversed() {
        let streams = sweeping_streams(true);
        let est = DirectionEstimator::new(RfipadConfig::default());
        let d = est.estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
        assert_eq!(d.stroke, Stroke::reversed(StrokeShape::VLine));
        assert!(d.velocity.0 < -0.5);
    }

    #[test]
    fn troughs_ordered_by_time() {
        let streams = sweeping_streams(false);
        let est = DirectionEstimator::new(RfipadConfig::default());
        let d = est.estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
        for pair in d.troughs.windows(2) {
            assert!(pair[0].time <= pair[1].time);
        }
        // Trough order follows row order for a downward sweep.
        let rows: Vec<usize> = d.troughs.iter().map(|t| t.cell.0).collect();
        assert_eq!(rows, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn click_never_reversed() {
        let streams = sweeping_streams(false);
        let mut mask = BinaryGrid::empty(5, 5);
        mask.set(2, 2, true);
        let motion = RecognizedMotion {
            shape: StrokeShape::Click,
            mask,
            centroid: (2.0, 2.0),
            bbox: (2, 2, 2, 2),
        };
        let est = DirectionEstimator::new(RfipadConfig::default());
        let d = est.estimate(&motion, &layout(), &streams, 0.5, 3.0);
        assert!(!d.stroke.reversed);
    }

    #[test]
    fn no_troughs_defaults_to_canonical() {
        // Flat RSS: no troughs anywhere.
        let l = layout();
        let observations: Vec<TagReport> = (0..100)
            .flat_map(|step| {
                let t = step as f64 * 0.04;
                (0..25).map(move |i| TagReport::synthetic(TagId(i), t, 1.0, -45.0))
            })
            .collect();
        let streams = TagStreams::build(&l, None, &observations);
        let est = DirectionEstimator::new(RfipadConfig::default());
        let d = est.estimate(&column_motion(), &l, &streams, 0.5, 3.0);
        assert!(d.troughs.is_empty());
        assert_eq!(d.velocity, (0.0, 0.0));
        assert!(!d.stroke.reversed);
    }

    #[test]
    fn fit_velocity_needs_two_points() {
        let one = vec![TagTrough {
            cell: (0, 0),
            time: 1.0,
            prominence_db: 5.0,
        }];
        assert_eq!(fit_velocity(&one), (0.0, 0.0));
    }

    #[test]
    fn canonical_vectors_match_stroke_table() {
        // Spot-check against the travel conventions in hand-kinematics.
        assert_eq!(canonical_velocity(StrokeShape::HLine), (0.0, 1.0));
        assert_eq!(canonical_velocity(StrokeShape::Slash), (-1.0, 1.0));
    }
}
