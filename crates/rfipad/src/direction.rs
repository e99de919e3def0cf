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

use crate::layout::ArrayLayout;
use crate::motion::RecognizedMotion;
use crate::streams::TagStreams;
use hand_kinematics::stroke::{Stroke, StrokeShape};
use sigproc::filter::{deepest_trough, moving_average_into};

/// A per-tag trough observation: when the hand crossed the tag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagTrough {
    /// Grid cell of the tag.
    pub cell: (usize, usize),
    /// Time of the RSS minimum.
    pub time: f64,
    /// Trough prominence in dB.
    pub prominence_db: f64,
}

/// Direction estimation result.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectionEstimate {
    /// The completed stroke (shape + direction).
    pub stroke: Stroke,
    /// The troughs the estimate is based on, in time order.
    pub troughs: Vec<TagTrough>,
    /// Fitted travel vector `(d_row/dt, d_col/dt)` in cells per second;
    /// zero when fewer than two troughs were found.
    pub velocity: (f64, f64),
}

/// Half-window (samples) of the moving-average smoother applied to RSS
/// before trough detection.
pub const TROUGH_SMOOTH_HALF: usize = 2;

/// Minimum RSS trough prominence (dB) for a tag's trough to count.
pub const TROUGH_MIN_PROMINENCE_DB: f64 = 1.5;

/// Estimates the direction of a recognized motion over `[start, end)`
/// from the RSS troughs of its foreground tags.
///
/// Falls back to the canonical direction (not reversed) when fewer than
/// two usable troughs exist (e.g. a click, or too few reads).
pub fn estimate(
    motion: &RecognizedMotion,
    layout: &ArrayLayout,
    streams: &TagStreams,
    start: f64,
    end: f64,
) -> DirectionEstimate {
    // Stage 1: the most prominent RSS trough of every foreground tag.
    let mut troughs = Vec::new();
    let mut smoothed = Vec::new();
    for (r, c) in motion.mask.foreground() {
        let Some(series) = streams.rss_levels().get(r * layout.cols() + c) else {
            continue;
        };
        // Pad the span slightly: the trough of an edge tag can sit right
        // at the segment boundary.
        let pad = 0.2;
        let (times, values) = series.window(start - pad, end + pad);
        if values.len() < 5 {
            continue;
        }
        moving_average_into(values, TROUGH_SMOOTH_HALF, &mut smoothed);
        if let Some(trough) = deepest_trough(&smoothed) {
            if trough.prominence >= TROUGH_MIN_PROMINENCE_DB {
                troughs.push(TagTrough {
                    cell: (r, c),
                    time: times[trough.index],
                    prominence_db: trough.prominence,
                });
            }
        }
    }
    // Stage 2: the travel vector across them.
    from_crossings(motion.shape, troughs)
}

/// Phase-based direction baseline (the alternative §III-B argues
/// *against*): each foreground tag's crossing time is estimated as the
/// |Δphase|-weighted mean time of its phase activity, and the travel
/// vector is regressed from those times. Phase trends are inconsistent
/// across tags (Fig. 8), so this is less reliable than the RSS troughs
/// — the ablation experiment quantifies by how much.
pub fn estimate_phase_based(
    motion: &RecognizedMotion,
    layout: &ArrayLayout,
    streams: &TagStreams,
    start: f64,
    end: f64,
) -> DirectionEstimate {
    let mut pseudo_troughs = Vec::new();
    for (r, c) in motion.mask.foreground() {
        let Some(series) = streams.phases().get(r * layout.cols() + c) else {
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
    from_crossings(motion.shape, pseudo_troughs)
}

/// Orders per-tag crossings by time, fits the travel vector across them
/// and reverses a directional `shape` whose travel runs against its
/// canonical direction.
fn from_crossings(shape: StrokeShape, mut troughs: Vec<TagTrough>) -> DirectionEstimate {
    troughs.sort_by(|a, b| a.time.total_cmp(&b.time));
    let velocity = fit_velocity(&troughs);
    let canonical = canonical_velocity(shape);
    let reversed =
        shape.is_directional() && velocity.0 * canonical.0 + velocity.1 * canonical.1 < 0.0;
    let stroke = if reversed {
        Stroke::reversed(shape)
    } else {
        Stroke::new(shape)
    };
    DirectionEstimate {
        stroke,
        troughs,
        velocity,
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
        let d = estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
        assert_eq!(d.stroke, Stroke::new(StrokeShape::VLine));
        assert!(d.velocity.0 > 0.5, "row velocity {:?}", d.velocity);
        assert_eq!(d.troughs.len(), 5);
    }

    #[test]
    fn upward_sweep_is_reversed() {
        let streams = sweeping_streams(true);
        let d = estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
        assert_eq!(d.stroke, Stroke::reversed(StrokeShape::VLine));
        assert!(d.velocity.0 < -0.5);
    }

    #[test]
    fn troughs_ordered_by_time() {
        let streams = sweeping_streams(false);
        let d = estimate(&column_motion(), &layout(), &streams, 0.5, 3.0);
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
        let d = estimate(&motion, &layout(), &streams, 0.5, 3.0);
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
        let d = estimate(&column_motion(), &l, &streams, 0.5, 3.0);
        assert!(d.troughs.is_empty());
        assert_eq!(d.velocity, (0.0, 0.0));
        assert!(!d.stroke.reversed);
    }

    /// Streams whose every phase and RSS sits at ±`f64::MAX`: the
    /// differences overflow, so activity weights and crossing times turn
    /// NaN.
    fn overflowing_streams() -> TagStreams {
        let observations: Vec<TagReport> = (0..100)
            .flat_map(|step| {
                let t = step as f64 * 0.04;
                let extreme = if step % 2 == 0 { f64::MAX } else { -f64::MAX };
                (0..25).map(move |i| TagReport::synthetic(TagId(i), t, extreme, extreme))
            })
            .collect();
        TagStreams::build(&layout(), None, &observations)
    }

    #[test]
    fn rss_direction_survives_overflowing_streams() {
        let d = estimate(
            &column_motion(),
            &layout(),
            &overflowing_streams(),
            0.5,
            3.0,
        );
        assert!(d.troughs.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn phase_direction_survives_nan_crossing_times() {
        let streams = overflowing_streams();
        let d = estimate_phase_based(&column_motion(), &layout(), &streams, 0.5, 3.0);
        assert!(d.troughs.iter().all(|t| t.time.is_nan()), "{:?}", d.troughs);
        assert_eq!(d.troughs.len(), 5);
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
