//! The logical tag-array layout: tag ids ↔ grid positions.

use rfid_gen2::report::{TagId, TagIdMap};

/// The recognizer's view of the tag plate: which tag sits at which grid
/// cell. Purely logical (ids and grid positions only) so the pipeline can
/// run from recorded LLRP streams without a simulator present; deployments
/// that do simulate build one from the physical array's row-major ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayLayout {
    rows: usize,
    cols: usize,
    cells: Vec<TagId>,
    index: TagIdMap<TagId, usize>,
}

impl ArrayLayout {
    /// Builds a layout from row-major tag ids.
    ///
    /// # Panics
    ///
    /// Panics if dimensions are zero, `cells.len() != rows * cols`, or a tag
    /// id repeats.
    pub fn new(rows: usize, cols: usize, cells: Vec<TagId>) -> Self {
        assert!(rows > 0 && cols > 0, "layout dimensions must be nonzero");
        assert_eq!(cells.len(), rows * cols, "cell count mismatch");
        let mut index = TagIdMap::default();
        index.reserve(cells.len());
        for (i, &id) in cells.iter().enumerate() {
            let prev = index.insert(id, i);
            assert!(prev.is_none(), "duplicate tag id {id}");
        }
        Self {
            rows,
            cols,
            cells,
            index,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total tag count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the layout is empty (never true — construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// All tag ids, row-major.
    pub fn tags(&self) -> &[TagId] {
        &self.cells
    }

    /// The tag at a grid cell.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> TagId {
        assert!(row < self.rows && col < self.cols, "cell out of bounds");
        self.cells[row * self.cols + col]
    }

    /// Row-major index of a tag: its place in [`tags`](Self::tags), hence
    /// its cell's index and the index of its per-tag state everywhere
    /// (streams, calibration, frames). `None` for ids outside the layout.
    pub fn index(&self, id: TagId) -> Option<usize> {
        self.index.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> ArrayLayout {
        ArrayLayout::new(2, 3, (0..6).map(TagId).collect())
    }

    #[test]
    fn positions_row_major() {
        let l = layout();
        assert_eq!(l.index(TagId(0)), Some(0));
        assert_eq!(l.index(TagId(4)), Some(4)); // row 1, col 1
        assert_eq!(l.at(1, 2), TagId(5));
    }

    #[test]
    fn index_matches_tags_order() {
        let l = layout();
        for (i, &id) in l.tags().iter().enumerate() {
            assert_eq!(l.index(id), Some(i));
        }
    }

    #[test]
    fn unknown_tag_has_no_index() {
        assert_eq!(layout().index(TagId(99)), None);
    }

    #[test]
    #[should_panic(expected = "duplicate tag id")]
    fn duplicate_ids_rejected() {
        ArrayLayout::new(1, 2, vec![TagId(1), TagId(1)]);
    }

    #[test]
    fn len_and_emptiness() {
        let l = layout();
        assert_eq!(l.len(), 6);
        assert!(!l.is_empty());
    }
}
