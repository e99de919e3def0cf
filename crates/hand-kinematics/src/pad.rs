//! Mapping between normalized pad coordinates and world space.

use rf_sim::geometry::Vec3;
use rf_sim::tags::TagArray;

/// The writing surface: a rectangle in the `z = 0` plane that normalized
/// `(row, col)` coordinates map onto, plus the height at which the hand
/// writes (the paper's prototype works best within 5 cm of the plate,
/// §VI).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PadFrame {
    /// World position of the pad's top-left corner (row 0, col 0).
    pub top_left: Vec3,
    /// Pad width in metres (along +x, increasing col).
    pub width: f64,
    /// Pad height in metres (along −y, increasing row).
    pub height: f64,
    /// Height above the plate at which strokes are drawn.
    pub write_z: f64,
}

impl PadFrame {
    /// Builds the frame covering a tag array, writing `write_z` metres above
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the array is degenerate (single row or column would give a
    /// zero-sized pad) or `write_z` is not positive.
    pub fn over_array(array: &TagArray, write_z: f64) -> Self {
        assert!(write_z > 0.0, "write height must be positive");
        let width = (array.cols() - 1) as f64 * array.spacing();
        let height = (array.rows() - 1) as f64 * array.spacing();
        assert!(width > 0.0 && height > 0.0, "array too small for a pad");
        Self {
            top_left: array.origin(),
            width,
            height,
            write_z,
        }
    }

    /// Maps normalized `(row, col)` to a world point at height `z` above the
    /// plate.
    pub fn point_at(&self, row: f64, col: f64, z: f64) -> Vec3 {
        self.top_left + Vec3::new(col * self.width, -row * self.height, z)
    }

    /// Maps normalized `(row, col)` to the writing height.
    pub fn write_point(&self, row: f64, col: f64) -> Vec3 {
        self.point_at(row, col, self.write_z)
    }

    /// Inverse of [`point_at`](Self::point_at)'s planar part: world point →
    /// normalized `(row, col)`.
    pub fn normalize(&self, world: Vec3) -> (f64, f64) {
        (
            (self.top_left.y - world.y) / self.height,
            (world.x - self.top_left.x) / self.width,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rf_sim::tags::TagModel;

    fn array() -> TagArray {
        TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |_| 0.0)
    }

    #[test]
    fn frame_covers_array() {
        let f = PadFrame::over_array(&array(), 0.03);
        assert!((f.width - 0.24).abs() < 1e-12);
        assert!((f.height - 0.24).abs() < 1e-12);
    }

    #[test]
    fn corners_map_to_corner_tags() {
        let a = array();
        let f = PadFrame::over_array(&a, 0.03);
        let tl = f.write_point(0.0, 0.0);
        let br = f.write_point(1.0, 1.0);
        assert!(tl.distance(a.at(0, 0).position + Vec3::new(0.0, 0.0, 0.03)) < 1e-9);
        assert!(br.distance(a.at(4, 4).position + Vec3::new(0.0, 0.0, 0.03)) < 1e-9);
    }

    #[test]
    fn normalize_round_trip() {
        let f = PadFrame::over_array(&array(), 0.03);
        let p = f.write_point(0.3, 0.7);
        let (r, c) = f.normalize(p);
        assert!((r - 0.3).abs() < 1e-9);
        assert!((c - 0.7).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "write height must be positive")]
    fn zero_write_height_rejected() {
        PadFrame::over_array(&array(), 0.0);
    }
}
