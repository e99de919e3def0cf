//! Passive UHF tag models and instances.
//!
//! The paper's deployment study (§IV-B2, Fig. 12) tests four commercial tag
//! designs with different antenna sizes and hence different radar
//! scattering cross-sections (RCS). RCS determines both the backscattered
//! power and how strongly a tag shadows its neighbours; the paper finds the
//! small-antenna Impinj AZ-E53 ("Tag B") interferes least and recommends it
//! for the array.

use crate::geometry::Vec3;
use crate::units::Dbm;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// A stable identifier for a simulated tag. Maps 1:1 to an EPC in the
/// `rfid-gen2` crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TagId(pub u64);

impl fmt::Display for TagId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tag-{:04}", self.0)
    }
}

/// A cheap multiplicative hasher for [`TagId`] keys.
///
/// The reader's session flags and the recognizer's layout index are
/// probed once or more per read, and `std`'s default SipHash dominates
/// each probe for a key that is just one `u64`. This hasher multiplies the
/// id by 2⁶⁴/φ (Fibonacci hashing): one `wrapping_mul` spreads consecutive
/// ids into well-separated buckets. Tag ids come from the deployment's own
/// tags, not from untrusted input, so HashDoS resistance buys nothing.
///
/// A map's iteration order follows from this hasher and its insertion
/// history, and one result depends on it: the recognizer's calibration
/// sums its mean deviation bias over such a map, so a different hasher
/// moves the last bits of every calibration.
#[derive(Debug, Default, Clone, Copy)]
pub struct TagIdHasher(u64);

/// 2⁶⁴ divided by the golden ratio, rounded to odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for TagIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    // Fallback for non-integer writes (unused by `TagId`'s derived Hash,
    // which calls `write_u64`): fold bytes with the same multiplier.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FIB);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(FIB);
    }
}

/// A `HashMap` keyed by [`TagId`] (or any `u64`-hashing key) using
/// [`TagIdHasher`].
pub type TagIdMap<K, V> = HashMap<K, V, BuildHasherDefault<TagIdHasher>>;

/// The four commercial tag designs evaluated in the paper's Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagModel {
    /// Large dipole design (e.g. Alien "Squiggle"-class): big antenna, large
    /// RCS, strong neighbour shadowing.
    TypeA,
    /// Impinj AZ-E53: small antenna, smallest RCS — the paper's recommended
    /// choice for dense arrays.
    TypeB,
    /// Mid-size inlay.
    TypeC,
    /// Largest antenna of the four; worst-case shadowing (−20 dB at three
    /// columns in the paper's measurement).
    TypeD,
}

impl TagModel {
    /// Unmodulated radar scattering cross-section in m², the quantity the
    /// paper (citing Dobkin) identifies as controlling inter-tag
    /// interference. Values are representative of UHF inlays (10⁻³–10⁻² m²),
    /// ordered so TypeD ≫ TypeA > TypeC ≫ TypeB as in Fig. 12.
    pub fn rcs_m2(self) -> f64 {
        match self {
            TagModel::TypeA => 0.0065,
            TagModel::TypeB => 0.0009,
            TagModel::TypeC => 0.0040,
            TagModel::TypeD => 0.0110,
        }
    }

    /// Physical antenna length in metres (the paper quotes 4.4 cm tag size
    /// for its array tags).
    pub fn antenna_len_m(self) -> f64 {
        match self {
            TagModel::TypeA => 0.095,
            TagModel::TypeB => 0.044,
            TagModel::TypeC => 0.070,
            TagModel::TypeD => 0.120,
        }
    }

    /// Tag antenna boresight gain in dBi (short dipoles ≈ 2 dBi).
    pub fn gain_dbi(self) -> f64 {
        2.0
    }

    /// Tag antenna gain toward a direction whose angle from the plate
    /// normal is `theta_inc`: label-type inlays radiate strongest along the
    /// normal and fall off roughly as cos(θ) in field (−20·log10 cos in
    /// power, floored at −14 dB).
    pub fn gain_toward_dbi(self, theta_inc: f64) -> f64 {
        let rolloff = 20.0 * theta_inc.cos().abs().max(0.2).log10();
        self.gain_dbi() + rolloff.max(-14.0)
    }

    /// Minimum incident power for the IC to operate (forward-link limit).
    /// Typical Monza-class sensitivity.
    pub fn sensitivity(self) -> Dbm {
        Dbm(-11.5)
    }

    /// All four models, in Fig. 12's order.
    pub fn all() -> [TagModel; 4] {
        [
            TagModel::TypeA,
            TagModel::TypeB,
            TagModel::TypeC,
            TagModel::TypeD,
        ]
    }
}

impl fmt::Display for TagModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TagModel::TypeA => "Tag A",
            TagModel::TypeB => "Tag B (Impinj AZ-E53)",
            TagModel::TypeC => "Tag C",
            TagModel::TypeD => "Tag D",
        };
        f.write_str(name)
    }
}

/// Which way a tag's antenna faces. The paper's pair study (Fig. 11) shows
/// two close tags facing the *same* way shadow each other strongly, while
/// *opposite* facing nearly removes the interference — hence the deployment
/// guideline to alternate facings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Facing {
    /// Antenna faces +z (toward the hand / reader in LOS).
    Front,
    /// Antenna faces −z.
    Back,
}

impl Facing {
    /// The opposite facing.
    pub fn flipped(self) -> Facing {
        match self {
            Facing::Front => Facing::Back,
            Facing::Back => Facing::Front,
        }
    }
}

/// One physical tag placed in the scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tag {
    /// Stable identifier.
    pub id: TagId,
    /// Position of the tag centre in metres.
    pub position: Vec3,
    /// Antenna facing.
    pub facing: Facing,
    /// Commercial design (sets RCS, size, sensitivity).
    pub model: TagModel,
    /// Per-tag hardware phase offset θ_tag in radians — the *tag diversity*
    /// the paper's Eq. 6–8 suppress. Drawn uniformly from [0, 2π) at
    /// manufacture.
    pub theta_tag: f64,
}

impl Tag {
    /// Creates a tag with the given parameters.
    pub fn new(id: TagId, position: Vec3, facing: Facing, model: TagModel, theta_tag: f64) -> Self {
        Self {
            id,
            position,
            facing,
            model,
            theta_tag,
        }
    }
}

/// A rectangular tag array (the paper's 5×5 "RFIPad" plate).
///
/// Tags are laid out in the `z = 0` plane, row-major: tag `(r, c)` sits at
/// `(c·spacing, -r·spacing, 0)` relative to the top-left tag, so row 0 is the
/// top of the pad and rows grow downward like image coordinates. Facings
/// alternate in a checkerboard, per the paper's deployment guideline.
#[derive(Debug, Clone, PartialEq)]
pub struct TagArray {
    rows: usize,
    cols: usize,
    spacing: f64,
    origin: Vec3,
    tags: Vec<Tag>,
}

impl TagArray {
    /// Builds an array of `rows × cols` tags with `spacing` metres between
    /// adjacent tags (paper default: 5×5 at 6 cm), top-left tag at `origin`.
    /// θ_tag values are produced by `theta_for(id)` so callers control the
    /// diversity realization (e.g. seeded randomness).
    ///
    /// # Panics
    ///
    /// Panics if `rows`, `cols`, or `spacing` is zero/non-positive.
    pub fn grid(
        rows: usize,
        cols: usize,
        spacing: f64,
        origin: Vec3,
        model: TagModel,
        mut theta_for: impl FnMut(TagId) -> f64,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        assert!(spacing > 0.0, "tag spacing must be positive");
        let mut tags = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                let id = TagId((r * cols + c) as u64);
                let position = origin + Vec3::new(c as f64 * spacing, -(r as f64) * spacing, 0.0);
                let facing = if (r + c) % 2 == 0 {
                    Facing::Front
                } else {
                    Facing::Back
                };
                tags.push(Tag::new(id, position, facing, model, theta_for(id)));
            }
        }
        Self {
            rows,
            cols,
            spacing,
            origin,
            tags,
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

    /// Spacing between adjacent tags in metres.
    pub fn spacing(&self) -> f64 {
        self.spacing
    }

    /// Position of the top-left tag.
    pub fn origin(&self) -> Vec3 {
        self.origin
    }

    /// All tags, row-major.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// The tag at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn at(&self, row: usize, col: usize) -> &Tag {
        assert!(
            row < self.rows && col < self.cols,
            "tag index out of bounds"
        );
        &self.tags[row * self.cols + col]
    }

    /// Looks up a tag by id.
    pub fn get(&self, id: TagId) -> Option<&Tag> {
        self.tags.iter().find(|t| t.id == id)
    }

    /// Converts a tag id back to `(row, col)`.
    pub fn grid_index(&self, id: TagId) -> Option<(usize, usize)> {
        let i = id.0 as usize;
        (i < self.tags.len()).then(|| (i / self.cols, i % self.cols))
    }

    /// Geometric centre of the array.
    pub fn center(&self) -> Vec3 {
        self.origin
            + Vec3::new(
                (self.cols - 1) as f64 * self.spacing / 2.0,
                -((self.rows - 1) as f64) * self.spacing / 2.0,
                0.0,
            )
    }

    /// Side length of the populated plate, including one tag size margin
    /// (the paper computes 46 cm for 5 tags at 6 cm spacing with 4.4 cm
    /// tags).
    pub fn plate_len(&self) -> f64 {
        let model_len = self
            .tags
            .first()
            .map(|t| t.model.antenna_len_m())
            .unwrap_or(0.0);
        (self.cols - 1) as f64 * self.spacing + model_len * (self.cols as f64 / 5.0).max(1.0)
    }

    /// World position of the point above grid coordinates `(row, col)`
    /// (fractional allowed) at height `z` over the plane. This is the
    /// natural coordinate system for hand trajectories.
    pub fn point_over(&self, row: f64, col: f64, z: f64) -> Vec3 {
        self.origin + Vec3::new(col * self.spacing, -row * self.spacing, z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn array() -> TagArray {
        TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
            id.0 as f64 * 0.1
        })
    }

    #[test]
    fn grid_has_rows_times_cols_tags() {
        let a = array();
        assert_eq!(a.tags().len(), 25);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.cols(), 5);
    }

    #[test]
    fn positions_follow_row_major_layout() {
        let a = array();
        let t = a.at(2, 3);
        assert!((t.position.x - 0.18).abs() < 1e-12);
        assert!((t.position.y + 0.12).abs() < 1e-12);
        assert_eq!(t.position.z, 0.0);
    }

    #[test]
    fn ids_are_row_major_and_invertible() {
        let a = array();
        for r in 0..5 {
            for c in 0..5 {
                let t = a.at(r, c);
                assert_eq!(a.grid_index(t.id), Some((r, c)));
                assert_eq!(a.get(t.id).map(|x| x.position), Some(t.position));
            }
        }
        assert_eq!(a.grid_index(TagId(99)), None);
    }

    #[test]
    fn facings_alternate_checkerboard() {
        let a = array();
        assert_eq!(a.at(0, 0).facing, Facing::Front);
        assert_eq!(a.at(0, 1).facing, Facing::Back);
        assert_eq!(a.at(1, 0).facing, Facing::Back);
        assert_eq!(a.at(1, 1).facing, Facing::Front);
    }

    #[test]
    fn theta_tag_uses_provided_function() {
        let a = array();
        assert_eq!(a.at(0, 0).theta_tag, 0.0);
        assert!((a.at(0, 1).theta_tag - 0.1).abs() < 1e-12);
    }

    #[test]
    fn center_of_5x5() {
        let c = array().center();
        assert!((c.x - 0.12).abs() < 1e-12);
        assert!((c.y + 0.12).abs() < 1e-12);
    }

    #[test]
    fn plate_len_close_to_paper() {
        // Paper: ≈46 cm for the 5×5, 6 cm pitch, 4.4 cm tags.
        let l = array().plate_len();
        assert!(l > 0.26 && l < 0.50, "plate length {l}");
    }

    #[test]
    fn rcs_ordering_matches_fig12() {
        assert!(TagModel::TypeD.rcs_m2() > TagModel::TypeA.rcs_m2());
        assert!(TagModel::TypeA.rcs_m2() > TagModel::TypeC.rcs_m2());
        assert!(TagModel::TypeC.rcs_m2() > TagModel::TypeB.rcs_m2());
    }

    #[test]
    fn facing_flip_is_involution() {
        assert_eq!(Facing::Front.flipped().flipped(), Facing::Front);
    }

    #[test]
    fn point_over_grid_coordinates() {
        let a = array();
        let p = a.point_over(2.0, 3.0, 0.05);
        let t = a.at(2, 3);
        assert!((p.x - t.position.x).abs() < 1e-12);
        assert!((p.y - t.position.y).abs() < 1e-12);
        assert!((p.z - 0.05).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "tag index out of bounds")]
    fn at_out_of_bounds_panics() {
        array().at(5, 0);
    }

    #[test]
    fn map_roundtrip_and_distinct_hashes() {
        let mut map: TagIdMap<TagId, usize> = TagIdMap::default();
        for i in 0..64 {
            map.insert(TagId(i), i as usize);
        }
        assert_eq!(map.len(), 64);
        for i in 0..64 {
            assert_eq!(map.get(&TagId(i)), Some(&(i as usize)));
        }
        // Consecutive ids must not collapse onto one hash.
        let mut h0 = TagIdHasher::default();
        h0.write_u64(1);
        let mut h1 = TagIdHasher::default();
        h1.write_u64(2);
        assert_ne!(h0.finish(), h1.finish());
    }

    #[test]
    fn byte_fallback_matches_itself_only() {
        let mut a = TagIdHasher::default();
        a.write(b"abc");
        let mut b = TagIdHasher::default();
        b.write(b"abd");
        assert_ne!(a.finish(), b.finish());
    }
}
