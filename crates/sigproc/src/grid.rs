//! Small 2-D gray and binary images laid over a tag array.
//!
//! RFIPad visualizes the per-tag accumulative phase differences of an `R×C`
//! tag array as an `R×C` gray-scale image, binarizes it with Otsu's method,
//! and recognizes the hand motion from the shape of the `1` pixels. These
//! types provide that image representation plus the shape features the
//! recognizer consumes: connected components, the centroid, and bounding
//! boxes.

use crate::{otsu, stats};

/// A row-major gray-scale image over an `rows × cols` grid.
///
/// # Example
///
/// ```
/// use sigproc::grid::GridImage;
///
/// let mut img = GridImage::zeros(5, 5);
/// img.set(2, 3, 7.5);
/// assert_eq!(img.get(2, 3), 7.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GridImage {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl GridImage {
    /// Creates an all-zero image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "image dimensions must be nonzero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an image from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols` or a dimension is zero.
    pub fn from_data(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert!(rows > 0 && cols > 0, "image dimensions must be nonzero");
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Pixel value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "pixel out of bounds");
        self.data[row * self.cols + col]
    }

    /// Sets the pixel at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "pixel out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Row-major pixel data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major pixel data, for whole-image updates without the
    /// per-pixel bounds checks of [`set`](Self::set). Row `r` occupies
    /// `data_mut()[r * cols .. (r + 1) * cols]`.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Rescales pixel values linearly to `[0, 1]`. A constant image maps to
    /// all zeros.
    pub fn normalized(&self) -> GridImage {
        let (lo, hi) = (stats::min(&self.data), stats::max(&self.data));
        let span = hi - lo;
        let data = if span < 1e-15 {
            vec![0.0; self.data.len()]
        } else {
            self.data.iter().map(|&v| (v - lo) / span).collect()
        };
        GridImage {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Binarizes via Otsu's method: foreground where `value > threshold`.
    /// A constant image yields an all-background mask.
    pub fn otsu_binarize(&self) -> BinaryGrid {
        BinaryGrid {
            rows: self.rows,
            cols: self.cols,
            mask: otsu::otsu_binarize(&self.data),
        }
    }

    /// Renders the image as an ASCII intensity map (for experiment output).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b" .:-=+*#%@";
        let norm = self.normalized();
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in norm.data.chunks_exact(norm.cols) {
            for &v in row {
                let v = v.clamp(0.0, 1.0);
                let idx = (v * (RAMP.len() - 1) as f64).round() as usize;
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

/// A boolean foreground mask over an `rows × cols` grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryGrid {
    rows: usize,
    cols: usize,
    mask: Vec<bool>,
}

impl BinaryGrid {
    /// Creates an all-background mask.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn empty(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        Self {
            rows,
            cols,
            mask: vec![false; rows * cols],
        }
    }

    /// Creates a mask from row-major booleans.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn from_mask(rows: usize, cols: usize, mask: Vec<bool>) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be nonzero");
        assert_eq!(mask.len(), rows * cols, "mask length mismatch");
        Self { rows, cols, mask }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether `(row, col)` is foreground.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> bool {
        assert!(row < self.rows && col < self.cols, "pixel out of bounds");
        self.mask[row * self.cols + col]
    }

    /// Sets `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(row < self.rows && col < self.cols, "pixel out of bounds");
        self.mask[row * self.cols + col] = value;
    }

    /// Total number of foreground pixels.
    pub fn area(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }

    /// Coordinates `(row, col)` of all foreground pixels, row-major order.
    pub fn foreground(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (r, row) in self.mask.chunks_exact(self.cols).enumerate() {
            for (c, &on) in row.iter().enumerate() {
                if on {
                    out.push((r, c));
                }
            }
        }
        out
    }

    /// Bounding box `(min_row, min_col, max_row, max_col)` of the foreground,
    /// or `None` if the mask is empty. Computed in one row-major sweep,
    /// without materializing the foreground coordinate list.
    pub fn bounding_box(&self) -> Option<(usize, usize, usize, usize)> {
        let mut bbox: Option<(usize, usize, usize, usize)> = None;
        for (r, row) in self.mask.chunks_exact(self.cols).enumerate() {
            for (c, &on) in row.iter().enumerate() {
                if on {
                    bbox = Some(match bbox {
                        None => (r, c, r, c),
                        Some((min_r, min_c, max_r, max_c)) => {
                            (min_r.min(r), min_c.min(c), max_r.max(r), max_c.max(c))
                        }
                    });
                }
            }
        }
        bbox
    }

    /// Centroid `(row, col)` of the foreground in pixel coordinates, or
    /// `None` if the mask is empty. One row-major sweep, without
    /// materializing the foreground coordinate list.
    pub fn centroid(&self) -> Option<(f64, f64)> {
        let mut n = 0usize;
        let (mut sum_r, mut sum_c) = (0.0, 0.0);
        for (r, row) in self.mask.chunks_exact(self.cols).enumerate() {
            for (c, &on) in row.iter().enumerate() {
                if on {
                    n += 1;
                    sum_r += r as f64;
                    sum_c += c as f64;
                }
            }
        }
        (n > 0).then(|| (sum_r / n as f64, sum_c / n as f64))
    }

    /// 8-connected components of the foreground, each a list of `(row, col)`
    /// pixels, ordered by decreasing size.
    pub fn connected_components(&self) -> Vec<Vec<(usize, usize)>> {
        // Row-major `r * cols + c` indexing is intentional here: the DFS
        // jumps between arbitrary neighbours, so there is no iterator shape
        // that would lift the bounds checks without obscuring the traversal.
        let mut visited = vec![false; self.mask.len()];
        let mut components = Vec::new();
        for start_r in 0..self.rows {
            for start_c in 0..self.cols {
                let idx = start_r * self.cols + start_c;
                if !self.mask[idx] || visited[idx] {
                    continue;
                }
                let mut comp = Vec::new();
                let mut stack = vec![(start_r, start_c)];
                visited[idx] = true;
                while let Some((r, c)) = stack.pop() {
                    comp.push((r, c));
                    for dr in -1i64..=1 {
                        for dc in -1i64..=1 {
                            if dr == 0 && dc == 0 {
                                continue;
                            }
                            let nr = r as i64 + dr;
                            let nc = c as i64 + dc;
                            if nr < 0 || nc < 0 || nr >= self.rows as i64 || nc >= self.cols as i64
                            {
                                continue;
                            }
                            let (nr, nc) = (nr as usize, nc as usize);
                            let nidx = nr * self.cols + nc;
                            if self.mask[nidx] && !visited[nidx] {
                                visited[nidx] = true;
                                stack.push((nr, nc));
                            }
                        }
                    }
                }
                components.push(comp);
            }
        }
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        components
    }

    /// Returns a mask containing only the largest connected component, or an
    /// empty mask if there is no foreground.
    pub fn largest_component(&self) -> BinaryGrid {
        let mut out = BinaryGrid::empty(self.rows, self.cols);
        if let Some(comp) = self.connected_components().first() {
            for &(r, c) in comp {
                out.set(r, c, true);
            }
        }
        out
    }

    /// Renders as ASCII (`#` foreground, `.` background) for experiment
    /// output, matching the paper's Fig. 7(c) visualization.
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.cols + 1) * self.rows);
        for row in self.mask.chunks_exact(self.cols) {
            for &on in row {
                out.push(if on { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn column_mask() -> BinaryGrid {
        // Foreground = column 2 of a 5x5 grid (the paper's Fig. 7 case).
        let mut g = BinaryGrid::empty(5, 5);
        for r in 0..5 {
            g.set(r, 2, true);
        }
        g
    }

    #[test]
    fn zeros_and_set_get() {
        let mut img = GridImage::zeros(3, 4);
        assert_eq!(img.rows(), 3);
        assert_eq!(img.cols(), 4);
        img.set(1, 2, 5.0);
        assert_eq!(img.get(1, 2), 5.0);
        assert_eq!(img.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "pixel out of bounds")]
    fn get_out_of_bounds_panics() {
        GridImage::zeros(2, 2).get(2, 0);
    }

    #[test]
    fn normalized_maps_to_unit_range() {
        let img = GridImage::from_data(1, 4, vec![-2.0, 0.0, 2.0, 6.0]);
        let n = img.normalized();
        assert_eq!(n.get(0, 0), 0.0);
        assert_eq!(n.get(0, 3), 1.0);
        assert!((n.get(0, 1) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn normalized_constant_is_zero() {
        let img = GridImage::from_data(2, 2, vec![3.0; 4]);
        assert!(img.normalized().data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn otsu_binarize_extracts_hot_column() {
        let mut img = GridImage::zeros(5, 5);
        for r in 0..5 {
            img.set(r, 2, 10.0 + r as f64 * 0.1);
        }
        let bin = img.otsu_binarize();
        assert_eq!(bin.area(), 5);
        for r in 0..5 {
            assert!(bin.get(r, 2));
        }
    }

    #[test]
    fn column_centroid_is_on_the_column() {
        assert_eq!(column_mask().centroid(), Some((2.0, 2.0)));
        let mut g = BinaryGrid::empty(5, 5);
        for c in 1..5 {
            g.set(0, c, true);
        }
        assert_eq!(g.centroid(), Some((0.0, 2.5)));
    }

    #[test]
    fn single_pixel_shape() {
        let mut g = BinaryGrid::empty(5, 5);
        g.set(3, 1, true);
        assert_eq!(g.area(), 1);
        assert_eq!(g.centroid(), Some((3.0, 1.0)));
        assert_eq!(g.bounding_box(), Some((3, 1, 3, 1)));
    }

    #[test]
    fn empty_mask_has_no_moments_or_bbox() {
        let g = BinaryGrid::empty(4, 4);
        assert!(g.centroid().is_none());
        assert!(g.bounding_box().is_none());
        assert_eq!(g.area(), 0);
    }

    #[test]
    fn bounding_box_of_column() {
        assert_eq!(column_mask().bounding_box(), Some((0, 2, 4, 2)));
    }

    #[test]
    fn connected_components_split_and_order() {
        let mut g = BinaryGrid::empty(5, 5);
        // Big component: column 0 (5 px). Small: single pixel far away.
        for r in 0..5 {
            g.set(r, 0, true);
        }
        g.set(0, 4, true);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 5);
        assert_eq!(comps[1].len(), 1);
        let largest = g.largest_component();
        assert_eq!(largest.area(), 5);
        assert!(!largest.get(0, 4));
    }

    #[test]
    fn diagonal_pixels_are_8_connected() {
        let mut g = BinaryGrid::empty(3, 3);
        g.set(0, 0, true);
        g.set(1, 1, true);
        g.set(2, 2, true);
        assert_eq!(g.connected_components().len(), 1);
    }

    #[test]
    fn ascii_rendering() {
        let g = column_mask();
        let s = g.to_ascii();
        assert_eq!(s.lines().count(), 5);
        assert!(s.lines().all(|l| l == "..#.."));
    }
}
