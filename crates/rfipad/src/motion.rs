//! Image-assisted motion recognition (§III-A3).
//!
//! The accumulative phase-difference image is binarized (Otsu), reduced to
//! its largest connected component, and classified into one of the seven
//! basic shapes. The primary classifier is *geometric template matching*:
//! each candidate shape is rasterized into the observed extent and the one
//! with the highest normalized correlation against the gray image wins —
//! training-free (templates are pure geometry) and robust to the per-tag
//! fading that leaves parts of a stroke faint. Templates depend only on
//! shape, extent and grid size, so a [`TemplateTable`] draws each once and
//! serves it to every later stroke. An intensity-weighted
//! moments/chord-residual decision tree ([`classify_weighted`]) remains as
//! the fallback for images with degenerate extents.

use hand_kinematics::stroke::{default_placement, PlacedStroke, Stroke, StrokeShape};
use sigproc::grid::{BinaryGrid, GridImage};
use std::collections::HashMap;
use std::f64::consts::{FRAC_PI_8, PI};
use std::fmt;
use std::sync::{PoisonError, RwLock};

/// Minimum mean chord residual (grid cells) of the middle section for a
/// component to classify as an arc.
const ARC_BULGE_THRESHOLD: f64 = 0.38;

/// A recognized motion: the shape plus the image evidence it came from.
#[derive(Debug, Clone, PartialEq)]
pub struct RecognizedMotion {
    /// The classified shape.
    pub shape: StrokeShape,
    /// Foreground mask after Otsu and largest-component filtering.
    pub mask: BinaryGrid,
    /// Foreground centroid `(row, col)` in grid coordinates.
    pub centroid: (f64, f64),
    /// Foreground bounding box `(min_row, min_col, max_row, max_col)`.
    pub bbox: (usize, usize, usize, usize),
}

/// Recognizes the motion in an accumulative phase-difference image:
/// Otsu binarization, the largest connected component, then template
/// classification against `templates` (which draws any template it
/// lacks), falling back to [`classify_weighted`].
///
/// Returns `None` when the image has no classifiable foreground (flat
/// image, or foreground vanished after component filtering).
pub fn recognize(image: &GridImage, templates: &TemplateTable) -> Option<RecognizedMotion> {
    let component = image.otsu_binarize().largest_component();
    if component.area() == 0 {
        return None;
    }
    let shape = classify_by_template(image, &component, templates)
        .map(|(s, _)| s)
        .or_else(|| classify_weighted(image, &component))?;
    let centroid = component.centroid()?;
    let bbox = component.bounding_box()?;
    Some(RecognizedMotion {
        shape,
        mask: component,
        centroid,
        bbox,
    })
}

/// Gaussian splat radius (cells) used when rasterizing shape templates —
/// roughly the spatial blur of the hand's RF influence on the 6 cm grid.
const TEMPLATE_SPLAT_SIGMA: f64 = 0.75;

/// A template's fit region `(min_row, min_col, max_row, max_col)`.
type Region = (usize, usize, usize, usize);

/// Stroke templates memoized per grid size, shape and fit region.
///
/// A template depends on nothing else, so `placement_template` draws
/// each one once, on first use, and every later classification correlates
/// against the same cells — bit-identical to drawing it afresh. A 5×5
/// grid has 15 × 15 fit regions, so a table holds at most 7 × 225
/// templates per grid size. Keys carry the image's rows and columns: a
/// template drawn for one grid is never served for another.
#[derive(Default)]
pub struct TemplateTable {
    // Each write inserts one complete entry, so a poisoned lock still
    // guards a valid map and readers recover it.
    cells: RwLock<HashMap<TemplateKey, Box<[f64]>>>,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct TemplateKey {
    rows: usize,
    cols: usize,
    shape: StrokeShape,
    region: Region,
}

impl TemplateTable {
    /// Number of templates drawn so far.
    pub(crate) fn len(&self) -> usize {
        self.cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Runs `f` on the row-major cells of `shape`'s template fitted into
    /// `region` of a `rows × cols` grid. Draws it on first use.
    fn with_cells<R>(
        &self,
        shape: StrokeShape,
        region: Region,
        (rows, cols): (usize, usize),
        f: impl FnOnce(&[f64]) -> R,
    ) -> R {
        let key = TemplateKey {
            rows,
            cols,
            shape,
            region,
        };
        if let Some(cells) = self
            .cells
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return f(cells);
        }
        let drawn = placement_template(&default_placement(Stroke::new(shape)), region, rows, cols);
        // A racing thread may have drawn the same cells; either copy serves.
        let mut table = self.cells.write().unwrap_or_else(PoisonError::into_inner);
        f(table.entry(key).or_insert_with(|| drawn.data().into()))
    }
}

// Counts the entries: 1,575 templates' cells would flood a recognizer's
// debug output.
impl fmt::Debug for TemplateTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TemplateTable")
            .field("templates", &self.len())
            .finish()
    }
}

/// Classifies by fitting geometric templates of all plausible shapes into
/// the image's hot region and picking the best normalized correlation.
/// Templates come from `templates`, which draws any it lacks.
///
/// Returns the winning shape and its correlation, or `None` when the image
/// has no usable extent.
pub fn classify_by_template(
    image: &GridImage,
    mask: &BinaryGrid,
    templates: &TemplateTable,
) -> Option<(StrokeShape, f64)> {
    // Fit region: everything reasonably hot (a quarter of the peak), not
    // just the Otsu mask — faint stroke ends matter for the shape even when
    // binarization drops them.
    let peak = sigproc::stats::max(image.data());
    if !peak.is_finite() || peak <= 0.0 {
        return None;
    }
    // The fit region is the mask plus hot cells *touching* it — faint
    // stroke ends matter for the shape, but an isolated hot outlier
    // elsewhere must not stretch the region.
    let near_mask = |r: usize, c: usize| -> bool {
        for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                let nr = r as i64 + dr;
                let nc = c as i64 + dc;
                if nr >= 0
                    && nc >= 0
                    && (nr as usize) < mask.rows()
                    && (nc as usize) < mask.cols()
                    && mask.get(nr as usize, nc as usize)
                {
                    return true;
                }
            }
        }
        false
    };
    let mut min_r = usize::MAX;
    let mut max_r = 0usize;
    let mut min_c = usize::MAX;
    let mut max_c = 0usize;
    for r in 0..image.rows() {
        for c in 0..image.cols() {
            let hot_extension = image.get(r, c) >= 0.25 * peak && near_mask(r, c);
            if mask.get(r, c) || hot_extension {
                min_r = min_r.min(r);
                max_r = max_r.max(r);
                min_c = min_c.min(c);
                max_c = max_c.max(c);
            }
        }
    }
    if min_r == usize::MAX {
        return None;
    }
    let h = max_r - min_r + 1;
    let w = max_c - min_c + 1;

    // Candidate gating by extent: a 1×2 blob cannot be an arc, a one-row
    // region cannot be a vertical bar. Click candidacy keys on the Otsu
    // mask's own bounding box (a push lights at most a 2×2 neighbourhood);
    // the halo-expanded region may be one cell larger.
    let mut candidates: Vec<StrokeShape> = Vec::new();
    let mask_compact = mask
        .bounding_box()
        .map(|(r0, c0, r1, c1)| r1 - r0 <= 1 && c1 - c0 <= 1)
        .unwrap_or(false);
    if mask_compact && h <= 3 && w <= 3 {
        candidates.push(StrokeShape::Click);
    }
    if w >= 3 && h <= 2 {
        candidates.push(StrokeShape::HLine);
    }
    if h >= 3 && w <= 2 {
        candidates.push(StrokeShape::VLine);
    }
    if h >= 3 && w >= 3 {
        candidates.extend([
            StrokeShape::HLine,
            StrokeShape::VLine,
            StrokeShape::Slash,
            StrokeShape::Backslash,
            StrokeShape::ArcLeft,
            StrokeShape::ArcRight,
        ]);
    } else if h >= 2 && w >= 2 && candidates.len() <= 1 {
        candidates.extend([StrokeShape::Slash, StrokeShape::Backslash]);
    }
    if candidates.is_empty() {
        return None;
    }

    let region = (min_r, min_c, max_r, max_c);
    let dims = (image.rows(), image.cols());
    candidates.sort_unstable();
    candidates.dedup();
    candidates
        .into_iter()
        .map(|shape| {
            let corr = templates.with_cells(shape, region, dims, |template| {
                pearson_correlation(image.data(), template)
            });
            (shape, corr)
        })
        .filter(|(_, corr)| corr.is_finite())
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// One observed point of the temporal hand path: where the intensity
/// centroid sat at a given fraction of the stroke span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSample {
    /// Fraction of the stroke span (0 = start, 1 = end).
    pub frac: f64,
    /// Centroid `(row, col)` in grid coordinates.
    pub point: (f64, f64),
}

/// Rasterizes a placed stroke's path into the given region as a sum of
/// Gaussian splats. The only template rasterizer: [`TemplateTable`] calls
/// it to fill each entry from the shape's canonical placement (the region
/// mapping adapts it to the observed extent).
fn placement_template(
    placement: &PlacedStroke,
    region: Region,
    rows: usize,
    cols: usize,
) -> GridImage {
    let (min_r, min_c, max_r, max_c) = region;
    let mut img = GridImage::zeros(rows, cols);
    if placement.stroke.shape == StrokeShape::Click {
        splat(
            &mut img,
            0.5 * (min_r + max_r) as f64,
            0.5 * (min_c + max_c) as f64,
        );
        return img;
    }
    let wp = placement.waypoints();
    // Normalize the canonical way-points to their own bounding box…
    let lo_r = wp.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let hi_r = wp.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let lo_c = wp.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let hi_c = wp.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let norm = |v: f64, lo: f64, hi: f64| if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
    // …then map them into the observed region and splat along the path.
    let mapped: Vec<(f64, f64)> = wp
        .iter()
        .map(|&(r, c)| {
            (
                min_r as f64 + norm(r, lo_r, hi_r) * (max_r - min_r) as f64,
                min_c as f64 + norm(c, lo_c, hi_c) * (max_c - min_c) as f64,
            )
        })
        .collect();
    for seg in mapped.windows(2) {
        let steps = 8;
        for i in 0..=steps {
            let t = i as f64 / steps as f64;
            let r = seg[0].0 + t * (seg[1].0 - seg[0].0);
            let c = seg[0].1 + t * (seg[1].1 - seg[0].1);
            splat(&mut img, r, c);
        }
    }
    img
}

fn splat(img: &mut GridImage, row: f64, col: f64) {
    let two_sigma2 = 2.0 * TEMPLATE_SPLAT_SIGMA * TEMPLATE_SPLAT_SIGMA;
    let cols = img.cols();
    for (r, cells) in img.data_mut().chunks_exact_mut(cols).enumerate() {
        let dr = r as f64 - row;
        for (c, cell) in cells.iter_mut().enumerate() {
            let dc = c as f64 - col;
            *cell += (-(dr * dr + dc * dc) / two_sigma2).exp();
        }
    }
}

/// Classifies a coarse hand path — e.g. the intensity centroids of the
/// early / middle / late thirds of a stroke span — into a directed stroke.
///
/// This exploits what the paper calls "combining reported tag IDs and
/// timestamps": the *order* in which tags are disturbed traces the pen
/// path, which separates arcs from lines far more robustly than the static
/// image alone, and yields the travel direction as a by-product.
///
/// Returns `(shape, reversed)`, or `None` for an empty path.
pub fn classify_path(points: &[(f64, f64)]) -> Option<(StrokeShape, bool)> {
    // Fewer than three centroids cannot distinguish click/line/arc — the
    // caller falls back to image-only classification.
    if points.len() < 3 {
        return None;
    }
    let p0 = *points.first().expect("nonempty");
    let p2 = *points.last().expect("nonempty");
    let travel = (p2.0 - p0.0, p2.1 - p0.1);
    let chord = (travel.0 * travel.0 + travel.1 * travel.1).sqrt();

    // A push toward one tag barely moves the centroid. (Sub-window
    // averaging compresses a real stroke's chord to roughly half its
    // geometric travel, so the click ceiling must stay well below that.)
    if chord < 0.55 && path_extent(points) < 0.9 {
        return Some((StrokeShape::Click, false));
    }

    // Largest perpendicular offset of any interior point from the chord,
    // requiring majority sign agreement so jitter on short lines does not
    // fake a bow.
    let perp = (-travel.1 / chord, travel.0 / chord);
    let mid = (0.5 * (p0.0 + p2.0), 0.5 * (p0.1 + p2.1));
    let interior: Vec<f64> = points[1..points.len().saturating_sub(1)]
        .iter()
        .map(|p| (p.0 - mid.0) * perp.0 + (p.1 - mid.1) * perp.1)
        .collect();
    let off = interior
        .iter()
        .fold(0.0f64, |acc, &o| if o.abs() > acc.abs() { o } else { acc });
    let agree = interior
        .iter()
        .filter(|o| o.signum() == off.signum())
        .count() as f64;
    let consistent = !interior.is_empty() && agree >= 0.6 * interior.len() as f64;
    // More interior points = more trustworthy bow estimate = lower bar.
    let arc_threshold = if interior.len() >= 2 { 0.38 } else { 0.42 };

    if consistent && off.abs() >= arc_threshold && chord >= 1.2 {
        // Arc. The shape (⊂ vs ⊃) is a *spatial* property of the bulge:
        // for vertical-ish chords, a bulge toward smaller columns is ⊂;
        // for horizontal-ish chords (the cup of a U) a downward bulge is ⊂
        // (see `hand_kinematics::stroke`). The travel direction relative to
        // the canonical one sets `reversed`.
        let bulge = (off * perp.0, off * perp.1); // spatial bulge vector
        let vertical_chord = travel.0.abs() >= travel.1.abs();
        let (shape, reversed) = if vertical_chord {
            let arc_left = bulge.1 < 0.0;
            (
                if arc_left {
                    StrokeShape::ArcLeft
                } else {
                    StrokeShape::ArcRight
                },
                travel.0 < 0.0,
            )
        } else {
            let arc_left = bulge.0 > 0.0;
            (
                if arc_left {
                    StrokeShape::ArcLeft
                } else {
                    StrokeShape::ArcRight
                },
                travel.1 < 0.0,
            )
        };
        return Some((shape, reversed));
    }

    // Line orientation with asymmetric bands: letters drawn on a pad are
    // much taller than wide, so their diagonals run steep (a V's arm is
    // ≈ 65–70° off horizontal). The vertical band therefore starts at 72°
    // and the horizontal one ends at 20°, with diagonals between.
    let (dr, dc) = travel;
    const TAN_HORIZONTAL: f64 = 0.364; // tan 20°
    const TAN_VERTICAL: f64 = 0.325; // tan(90° − 72°)
    let (shape, reversed) = if dr.abs() <= TAN_HORIZONTAL * dc.abs() {
        (StrokeShape::HLine, dc < 0.0)
    } else if dc.abs() <= TAN_VERTICAL * dr.abs() {
        (StrokeShape::VLine, dr < 0.0)
    } else if dr.signum() == dc.signum() {
        (StrokeShape::Backslash, dr < 0.0)
    } else {
        (StrokeShape::Slash, dr > 0.0)
    };
    Some((shape, reversed))
}

fn path_extent(points: &[(f64, f64)]) -> f64 {
    let mut max_d: f64 = 0.0;
    for a in points {
        for b in points {
            let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
            max_d = max_d.max(d);
        }
    }
    max_d
}

/// Pearson correlation between two equally sized images' cells.
fn pearson_correlation(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let mean_a = a.iter().sum::<f64>() / n;
    let mean_b = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x - mean_a;
        let dy = y - mean_b;
        cov += dx * dy;
        var_a += dx * dx;
        var_b += dy * dy;
    }
    if var_a <= 0.0 || var_b <= 0.0 {
        return f64::NEG_INFINITY;
    }
    cov / (var_a * var_b).sqrt()
}

/// Classifies a foreground mask using the gray image's intensities as cell
/// weights. Intensity-weighted geometry resolves shapes at sub-cell
/// accuracy — on a 5×5 pad a bowl's bulge is often less than one whole
/// cell, invisible to binary masks but clear in the intensity pattern.
pub fn classify_weighted(image: &GridImage, mask: &BinaryGrid) -> Option<StrokeShape> {
    let weights: Vec<((usize, usize), f64)> = mask
        .foreground()
        .into_iter()
        .map(|(r, c)| ((r, c), image.get(r, c).max(0.0)))
        .collect();
    classify_cells(mask, &weights)
}

/// Decision procedure: compact blob → click; strong off-chord bulge → arc
/// (side of the bulge gives ⊂ vs ⊃); otherwise a line by principal-axis
/// orientation. `cells` supplies per-cell weights.
fn classify_cells(mask: &BinaryGrid, cells: &[((usize, usize), f64)]) -> Option<StrokeShape> {
    let (min_r, min_c, max_r, max_c) = mask.bounding_box()?;
    let h = max_r - min_r + 1;
    let w = max_c - min_c + 1;

    if h <= 2 && w <= 2 {
        return Some(StrokeShape::Click);
    }

    // Chord-residual concavity. Fit the minor coordinate as a linear
    // function of the major one; arcs leave a consistent one-sided residual
    // in the middle of the major span.
    let vertical_major = h >= w;
    let triples: Vec<(f64, f64, f64)> = cells
        .iter()
        .map(|&((r, c), wt)| {
            if vertical_major {
                (r as f64, c as f64, wt)
            } else {
                (c as f64, r as f64, wt)
            }
        })
        .collect();
    if let Some(bulge) = middle_residual(&triples) {
        if bulge.abs() >= ARC_BULGE_THRESHOLD {
            // `bulge` is in the minor axis. For a vertical chord the minor
            // axis is the column: negative → bulge left → ⊂.
            // For a horizontal chord the minor axis is the row: a downward
            // bulge (positive) is the cup of a ⊂ drawn over a sideways
            // chord (see `hand_kinematics::stroke`), an upward bulge a ⊃.
            let arc_left = if vertical_major {
                bulge < 0.0
            } else {
                bulge > 0.0
            };
            return Some(if arc_left {
                StrokeShape::ArcLeft
            } else {
                StrokeShape::ArcRight
            });
        }
    }

    let theta = weighted_orientation(cells)?;
    // Letter diagonals on a 5×5 pad are steep (a V's arm is only ≈ 65° off
    // horizontal), so the vertical band starts above the symmetric 67.5°.
    const VERTICAL_BOUNDARY: f64 = 72.0 * PI / 180.0;
    Some(if theta.abs() <= FRAC_PI_8 {
        StrokeShape::HLine
    } else if theta.abs() >= VERTICAL_BOUNDARY {
        StrokeShape::VLine
    } else if theta > 0.0 {
        StrokeShape::Backslash
    } else {
        StrokeShape::Slash
    })
}

/// Principal-axis orientation of weighted cells, measured from the +column
/// axis toward +row, in `(-π/2, π/2]`.
fn weighted_orientation(cells: &[((usize, usize), f64)]) -> Option<f64> {
    let total: f64 = cells.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    let cr = cells.iter().map(|&((r, _), w)| r as f64 * w).sum::<f64>() / total;
    let cc = cells.iter().map(|&((_, c), w)| c as f64 * w).sum::<f64>() / total;
    let mut mu_rr = 0.0;
    let mut mu_cc = 0.0;
    let mut mu_rc = 0.0;
    for &((r, c), w) in cells {
        let dr = r as f64 - cr;
        let dc = c as f64 - cc;
        mu_rr += w * dr * dr;
        mu_cc += w * dc * dc;
        mu_rc += w * dr * dc;
    }
    let num = 2.0 * mu_rc;
    let den = mu_cc - mu_rr;
    if num.abs() < 1e-12 && den.abs() < 1e-12 {
        return Some(0.0);
    }
    Some(0.5 * num.atan2(den))
}

/// Weighted mean signed residual of the middle third of the major-axis span
/// after a weighted least-squares fit `minor = a + b·major`. `None` when
/// the fit is degenerate (all mass at one major coordinate).
fn middle_residual(triples: &[(f64, f64, f64)]) -> Option<f64> {
    if triples.len() < 3 {
        return None;
    }
    let total_w: f64 = triples.iter().map(|t| t.2).sum();
    if total_w <= 0.0 {
        return None;
    }
    let mean_x = triples.iter().map(|t| t.0 * t.2).sum::<f64>() / total_w;
    let mean_y = triples.iter().map(|t| t.1 * t.2).sum::<f64>() / total_w;
    let var_x: f64 = triples
        .iter()
        .map(|t| t.2 * (t.0 - mean_x) * (t.0 - mean_x))
        .sum();
    if var_x < 1e-9 {
        return None;
    }
    let cov: f64 = triples
        .iter()
        .map(|t| t.2 * (t.0 - mean_x) * (t.1 - mean_y))
        .sum();
    let b = cov / var_x;
    let a = mean_y - b * mean_x;

    let lo = triples.iter().map(|t| t.0).fold(f64::INFINITY, f64::min);
    let hi = triples
        .iter()
        .map(|t| t.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let third = (hi - lo) / 3.0;
    let mut sum = 0.0;
    let mut weight = 0.0;
    for &(x, y, wt) in triples {
        if x >= lo + third && x <= hi - third {
            sum += wt * (y - (a + b * x));
            weight += wt;
        }
    }
    (weight > 0.0).then(|| sum / weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from(rows: &[&str]) -> BinaryGrid {
        let r = rows.len();
        let c = rows[0].len();
        let mut mask = Vec::with_capacity(r * c);
        for row in rows {
            for ch in row.chars() {
                mask.push(ch == '#');
            }
        }
        BinaryGrid::from_mask(r, c, mask)
    }

    /// Classifies `mask` over a unit-intensity image: every foreground
    /// cell weighs 1.0.
    fn classify_unit(mask: &BinaryGrid) -> Option<StrokeShape> {
        let cells = mask.rows() * mask.cols();
        let ones = GridImage::from_data(mask.rows(), mask.cols(), vec![1.0; cells]);
        classify_weighted(&ones, mask)
    }

    #[test]
    fn vertical_line_classified() {
        let m = mask_from(&["..#..", "..#..", "..#..", "..#..", "..#.."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::VLine));
    }

    #[test]
    fn horizontal_line_classified() {
        let m = mask_from(&[".....", ".....", "#####", ".....", "....."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::HLine));
    }

    #[test]
    fn backslash_classified() {
        let m = mask_from(&["#....", ".#...", "..#..", "...#.", "....#"]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::Backslash));
    }

    #[test]
    fn slash_classified() {
        let m = mask_from(&["....#", "...#.", "..#..", ".#...", "#...."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::Slash));
    }

    #[test]
    fn click_classified() {
        let m = mask_from(&[".....", ".....", "..#..", ".....", "....."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::Click));
        let blob = mask_from(&[".....", ".##..", ".##..", ".....", "....."]);
        assert_eq!(classify_unit(&blob), Some(StrokeShape::Click));
    }

    #[test]
    fn arc_left_classified() {
        // A "C": openings to the right, bulge to the left.
        let m = mask_from(&["..##.", ".#...", ".#...", ".#...", "..##."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::ArcLeft));
    }

    #[test]
    fn arc_right_classified() {
        let m = mask_from(&[".##..", "...#.", "...#.", "...#.", ".##.."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::ArcRight));
    }

    #[test]
    fn thick_vertical_line_still_a_line() {
        // Two-column-wide bar: elongated, no bulge.
        let m = mask_from(&[".##..", ".##..", ".##..", ".##..", ".##.."]);
        assert_eq!(classify_unit(&m), Some(StrokeShape::VLine));
    }

    #[test]
    fn empty_mask_unclassifiable() {
        let m = BinaryGrid::empty(5, 5);
        assert_eq!(classify_unit(&m), None);
    }

    #[test]
    fn recognizer_runs_otsu_and_component_filter() {
        // Hot column 2 plus one isolated noisy pixel far away and much
        // dimmer; recognition must see the column.
        let mut img = GridImage::zeros(5, 5);
        for r in 0..5 {
            img.set(r, 2, 8.0 + r as f64 * 0.1);
        }
        img.set(0, 4, 4.0); // mid-level outlier
        let motion = recognize(&img, &TemplateTable::default()).expect("foreground");
        assert_eq!(motion.shape, StrokeShape::VLine);
        assert!((motion.centroid.1 - 2.0).abs() < 0.5);
    }

    #[test]
    fn recognizer_handles_flat_image() {
        let img = GridImage::zeros(5, 5);
        assert!(recognize(&img, &TemplateTable::default()).is_none());
    }

    #[test]
    fn template_classification_survives_a_nan_cell() {
        let mut img = GridImage::zeros(5, 5);
        for r in 0..5 {
            img.set(r, 2, 1.0);
        }
        img.set(0, 0, f64::NAN);
        let mask = mask_from(&["..#..", "..#..", "..#..", "..#..", "..#.."]);
        let templates = TemplateTable::default();
        let best = classify_by_template(&img, &mask, &templates);
        assert!(best.is_none_or(|(_, corr)| corr.is_finite()));
    }

    #[test]
    fn memoized_templates_match_a_fresh_rasterization() {
        let table = TemplateTable::default();
        let mut regions = 0;
        for (rows, cols) in [(5, 5), (3, 7)] {
            for shape in StrokeShape::all() {
                for (min_r, max_r) in (0..rows).flat_map(|a| (a..rows).map(move |b| (a, b))) {
                    for (min_c, max_c) in (0..cols).flat_map(|a| (a..cols).map(move |b| (a, b))) {
                        let region = (min_r, min_c, max_r, max_c);
                        let placement = default_placement(Stroke::new(shape));
                        let fresh: Vec<u64> = placement_template(&placement, region, rows, cols)
                            .data()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect();
                        // The first call draws the entry, the second serves it.
                        for _ in 0..2 {
                            let memo: Vec<u64> =
                                table.with_cells(shape, region, (rows, cols), |c| {
                                    c.iter().map(|v| v.to_bits()).collect()
                                });
                            assert_eq!(memo, fresh, "{shape:?} in {region:?} on {rows}x{cols}");
                        }
                        regions += 1;
                    }
                }
            }
        }
        // 7 shapes × (15 × 15 regions on 5×5 + 6 × 28 on 3×7), each drawn
        // once: equal regions on the two grids are separate entries.
        assert_eq!(regions, 7 * (15 * 15 + 6 * 28));
        assert_eq!(table.len(), regions);
    }

    #[test]
    fn u_cup_detected_as_arc_on_horizontal_chord() {
        // Horizontal chord with downward bulge (the cup of a U): ArcLeft by
        // our convention.
        let m = mask_from(&[".....", "#...#", "#...#", ".#.#.", "..#.."]);
        // Height 4, width 5 → horizontal major axis; bulge downward
        // (positive row residual in the middle columns).
        assert_eq!(classify_unit(&m), Some(StrokeShape::ArcLeft));
    }
}

#[cfg(test)]
mod path_tests {
    use super::*;

    #[test]
    fn straight_paths_classify_as_directed_lines() {
        // Rightward sweep.
        let p = [(2.0, 0.5), (2.0, 1.5), (2.0, 2.5), (2.0, 3.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::HLine, false)));
        // Leftward.
        let p: Vec<(f64, f64)> = p.iter().rev().copied().collect();
        assert_eq!(classify_path(&p), Some((StrokeShape::HLine, true)));
        // Downward.
        let p = [(0.5, 2.0), (1.5, 2.0), (2.5, 2.0), (3.5, 2.0)];
        assert_eq!(classify_path(&p), Some((StrokeShape::VLine, false)));
        // Up-right = slash forward.
        let p = [(3.5, 0.5), (2.5, 1.5), (1.5, 2.5), (0.5, 3.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::Slash, false)));
        // Down-right = backslash forward.
        let p = [(0.5, 0.5), (1.5, 1.5), (2.5, 2.5), (3.5, 3.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::Backslash, false)));
    }

    #[test]
    fn bowed_paths_classify_as_arcs_with_spatial_side() {
        // Downward travel bulging left (smaller columns): a ⊂.
        let p = [(0.0, 2.5), (1.0, 1.2), (2.0, 0.9), (3.0, 1.2), (4.0, 2.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::ArcLeft, false)));
        // Same shape drawn bottom-up is still a ⊂, reversed.
        let rev: Vec<(f64, f64)> = p.iter().rev().copied().collect();
        assert_eq!(classify_path(&rev), Some((StrokeShape::ArcLeft, true)));
        // Downward bulging right: a ⊃.
        let p = [(0.0, 1.5), (1.0, 2.8), (2.0, 3.1), (3.0, 2.8), (4.0, 1.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::ArcRight, false)));
    }

    #[test]
    fn horizontal_chord_cup_is_arc_left() {
        // Left-to-right travel bulging downward (larger rows): U's cup = ⊂
        // by the workspace convention.
        let p = [(1.0, 0.5), (2.2, 1.5), (2.5, 2.0), (2.2, 2.5), (1.0, 3.5)];
        assert_eq!(classify_path(&p), Some((StrokeShape::ArcLeft, false)));
    }

    #[test]
    fn stationary_path_is_click() {
        let p = [(2.0, 2.0), (2.1, 2.05), (1.95, 2.0)];
        assert_eq!(classify_path(&p), Some((StrokeShape::Click, false)));
    }

    #[test]
    fn too_few_points_is_none() {
        assert_eq!(classify_path(&[]), None);
        assert_eq!(classify_path(&[(1.0, 1.0)]), None);
        assert_eq!(classify_path(&[(1.0, 1.0), (2.0, 2.0)]), None);
    }

    #[test]
    fn inconsistent_bow_stays_a_line() {
        // Interior points alternating on both sides of the chord: jitter
        // on a line, not an arc (arc verdicts need ≥60% sign agreement).
        let p = [
            (0.0, 2.0),
            (0.8, 2.5),
            (1.6, 1.5),
            (2.4, 2.4),
            (3.2, 1.6),
            (4.0, 2.0),
        ];
        let (shape, _) = classify_path(&p).expect("classifiable");
        assert_eq!(shape, StrokeShape::VLine);
    }
}
