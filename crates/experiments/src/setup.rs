//! Standard deployments: the paper's prototype geometry in all its
//! evaluation variants (LOS/NLOS, four lab locations, TX power, antenna
//! angle, reader distance, tag model).

use hand_kinematics::pad::PadFrame;
use rf_sim::antenna::ReaderAntenna;
use rf_sim::environment::Environment;
use rf_sim::geometry::Vec3;
use rf_sim::scene::{Scene, SceneConfig};
use rf_sim::tags::{TagArray, TagModel};
use rf_sim::units::{Dbi, Dbm};
use rfipad::ArrayLayout;

/// Where the reader antenna sits relative to the tag plate (paper Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AntennaPlacement {
    /// On the ceiling, same side as the user's hand: hand and arm cross the
    /// reader–tag line-of-sight paths.
    Los,
    /// Behind the board: only reflections off the hand reach the tags'
    /// channels. The paper's recommended mode.
    Nlos,
}

/// A complete deployment specification. `Default` reproduces the paper's
/// reference setup: NLOS, 32 cm, 0° tilt, 30 dBm, Impinj-style Type B tags,
/// lab location 1.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentSpec {
    /// Antenna placement (LOS/NLOS).
    pub placement: AntennaPlacement,
    /// Lab location `1..=4` (Fig. 15/16 multipath presets).
    pub location: usize,
    /// Reader transmit power in dBm (Fig. 17: 15–32.5).
    pub tx_power_dbm: f64,
    /// Antenna-to-plate distance in metres (Fig. 19: 0.2–0.8).
    pub distance_m: f64,
    /// Tilt between antenna plane and tag panel in degrees (Fig. 18:
    /// −30…45).
    pub angle_deg: f64,
    /// Tag design populating the array (Fig. 12: A–D).
    pub tag_model: TagModel,
    /// Array dimensions (paper: 5×5).
    pub rows: usize,
    /// Array columns.
    pub cols: usize,
    /// Tag pitch in metres (paper: 6 cm).
    pub spacing_m: f64,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        Self {
            placement: AntennaPlacement::Nlos,
            location: 1,
            tx_power_dbm: 30.0,
            distance_m: 0.32,
            angle_deg: 0.0,
            tag_model: TagModel::TypeB,
            rows: 5,
            cols: 5,
            spacing_m: 0.06,
        }
    }
}

/// A built deployment: the physical scene plus the recognizer-facing
/// layout and writing pad.
#[derive(Debug, Clone)]
pub struct Deployment {
    /// The RF scene (antenna + tags + environment).
    pub scene: Scene,
    /// The physical array.
    pub array: TagArray,
    /// The logical layout the recognizer uses.
    pub layout: ArrayLayout,
    /// The writing surface for workload generation.
    pub pad: PadFrame,
    /// The spec this was built from.
    pub spec: DeploymentSpec,
}

impl Deployment {
    /// Builds the deployment. Tag hardware phase offsets θ_tag are drawn
    /// deterministically from `seed` so repeated builds are reproducible.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range spec values (location, rows/cols…).
    pub fn build(spec: DeploymentSpec, seed: u64) -> Deployment {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let array = TagArray::grid(
            spec.rows,
            spec.cols,
            spec.spacing_m,
            Vec3::ZERO,
            spec.tag_model,
            |_| rng.random_range(0.0..std::f64::consts::TAU),
        );
        let center = array.center();
        let d = spec.distance_m;
        let (mut position, mut boresight) = match spec.placement {
            AntennaPlacement::Los => {
                // Ceiling mount viewing the board at an angle (paper
                // Fig. 14): offset toward the user so reader–hand path
                // lengths actually vary as the hand moves.
                let position = Vec3::new(center.x, center.y - 0.3, 0.4);
                let boresight = (center - position).normalized();
                (position, boresight)
            }
            AntennaPlacement::Nlos => (Vec3::new(center.x, center.y, -d), Vec3::new(0.0, 0.0, 1.0)),
        };
        // Antenna tilt (Fig. 18): the antenna pivots on an arc around the
        // plate centre by `angle_deg` about the x (column) axis, keeping
        // its distance and aiming at the centre — the tags now see the
        // reader off their plate normal.
        let theta = spec.angle_deg.to_radians();
        if theta != 0.0 {
            let offset = position - center;
            let rotated = Vec3::new(
                offset.x,
                offset.y * theta.cos() - offset.z * theta.sin(),
                offset.y * theta.sin() + offset.z * theta.cos(),
            );
            position = center + rotated;
            boresight = (center - position).normalized();
        }
        let antenna = ReaderAntenna::new(position, boresight, Dbi(8.0));
        let scene = Scene::new(
            antenna,
            array.tags().to_vec(),
            Environment::office_location(spec.location),
            SceneConfig {
                tx_power: Dbm(spec.tx_power_dbm),
                ..SceneConfig::default()
            },
        );
        let layout = ArrayLayout::new(
            array.rows(),
            array.cols(),
            array.tags().iter().map(|t| t.id).collect(),
        );
        let pad = PadFrame::over_array(&array, 0.03);
        Deployment {
            scene,
            array,
            layout,
            pad,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_build_is_paper_prototype() {
        let d = Deployment::build(DeploymentSpec::default(), 1);
        assert_eq!(d.array.tags().len(), 25);
        assert_eq!(d.layout.rows(), 5);
        // Antenna behind the plate.
        assert!(d.scene.antenna().position().z < 0.0);
        assert!((d.scene.config().tx_power.value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn los_antenna_is_above() {
        let d = Deployment::build(
            DeploymentSpec {
                placement: AntennaPlacement::Los,
                ..DeploymentSpec::default()
            },
            1,
        );
        assert!(d.scene.antenna().position().z > 0.0);
    }

    #[test]
    fn angle_tilts_boresight() {
        let d0 = Deployment::build(DeploymentSpec::default(), 1);
        let d45 = Deployment::build(
            DeploymentSpec {
                angle_deg: 45.0,
                ..DeploymentSpec::default()
            },
            1,
        );
        let b0 = d0.scene.antenna().boresight();
        let b45 = d45.scene.antenna().boresight();
        let angle = b0.angle_to(b45).to_degrees();
        assert!((angle - 45.0).abs() < 1e-6, "tilt {angle}");
    }

    #[test]
    fn same_seed_same_build() {
        let a = Deployment::build(DeploymentSpec::default(), 7);
        let b = Deployment::build(DeploymentSpec::default(), 7);
        assert_eq!(a.array.tags()[5].theta_tag, b.array.tags()[5].theta_tag);
    }
}
