//! The complete simulated RF scene: antenna + tag plate + environment +
//! moving targets, producing per-tag channel observations.
//!
//! [`Scene::observe`] is the simulator's measurement primitive: it evaluates
//! the full baseband channel of one tag at one instant — direct backscatter
//! path, hand/arm reflection paths (virtual-transmitter model), static
//! multipath, hand×scatterer cross terms, inter-tag shadowing, and LOS
//! obstruction — then applies the location-dependent measurement noise and
//! the reader's phase/RSS quantization.
//!
//! The LOS vs. NLOS deployments of the paper's Fig. 14 need no special
//! casing: placing the antenna on the hand's side of the plate (`z > 0`)
//! makes the hand and arm cross reader–tag paths and triggers obstruction;
//! placing it behind the plate (`z < 0`) leaves only the reflection paths.
//!
//! Tags and the antenna never move, so every target-independent channel
//! term — static multipath, neighbour shadowing, antenna/tag gains, the
//! radar-equation and Friis base powers, the geometric phase — is
//! precomputed per tag and per channel frequency at construction (the
//! internal `StaticChannelCache`), along with each tag's static noise
//! terms. `observe` then only evaluates the moving targets' reflection
//! paths and the noise draws, which is what makes large experiment batches
//! affordable. A test-only from-scratch path recomputes everything and is
//! bit-identical by construction; tests hold the two against each other.
//!
//! The reader asks which tags are powered far more often than it observes
//! one: [`Scene::readable_tags_into`] answers for the whole plate from one
//! sampling of the moving targets. Targets are sampled into an inline
//! buffer, so neither the sweep nor an observation touches the heap.

use crate::antenna::ReaderAntenna;
use crate::channel;
use crate::coupling;
use crate::environment::Environment;
use crate::geometry::{Complex, Vec3};
use crate::noise;
use crate::tags::{Tag, TagId};
use crate::targets::{MovingTarget, TargetSample};
use crate::units::{Db, Dbm, Hertz, Meters, CARRIER_FREQUENCY};
use rand::Rng;
use std::f64::consts::{PI, TAU};

/// A frequency-hopping plan: regulatory domains like the FCC's 902–928 MHz
/// band require readers to hop across channels, which makes the reported
/// phase jump by `4πd·Δf/c` at every hop — breaking phase continuity for
/// sensing unless the pipeline tracks channels. The paper's prototype runs
/// on the fixed 922.38 MHz channel of the Chinese band; this plan lets
/// experiments show what hopping would do.
#[derive(Debug, Clone, PartialEq)]
pub struct HoppingPlan {
    /// Channel centre frequencies in Hz.
    pub channels: Vec<f64>,
    /// Dwell time per channel in seconds (FCC: ≤ 0.4 s).
    pub dwell_s: f64,
}

impl HoppingPlan {
    /// The FCC-style 50-channel plan over 902.75–927.25 MHz with 0.2 s
    /// dwells.
    pub fn fcc() -> Self {
        Self {
            channels: (0..50).map(|i| 902.75e6 + i as f64 * 0.5e6).collect(),
            dwell_s: 0.2,
        }
    }

    /// The index (into [`HoppingPlan::channels`]) of the channel in use at
    /// time `t` — what an LLRP reader reports as its `ChannelIndex`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no channels or a non-positive dwell.
    pub fn index_at(&self, t: f64) -> usize {
        assert!(!self.channels.is_empty(), "hopping plan needs channels");
        assert!(self.dwell_s > 0.0, "dwell must be positive");
        // FCC hopping is pseudo-random; a fixed coprime stride gives the
        // same statistics deterministically.
        let slot = (t / self.dwell_s).floor() as i64;
        let n = self.channels.len() as i64;
        (slot.rem_euclid(n) * 17).rem_euclid(n) as usize
    }

    /// The channel frequency in use at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no channels or a non-positive dwell.
    pub fn channel_at(&self, t: f64) -> f64 {
        self.channels[self.index_at(t)]
    }
}

/// Combined reader TX+RX circuit phase rotation θ_T + θ_R (radians).
/// Constant per reader; cancelled by RFIPad's diversity suppression.
pub const READER_CIRCUIT_PHASE: f64 = 0.8;

/// Peak attenuation when a target sits exactly on a reader–tag line of
/// sight (dB).
pub const OBSTRUCTION_MAX_DB: f64 = 6.0;

/// Cap on the relative amplitude of any single reflection path.
pub const REFLECTION_CAP: f64 = 2.0;

/// Coefficient of the margin-dependent IC noise: a passive tag running
/// near its sensitivity threshold modulates with compressed depth and
/// jittery phase. The added σ (rad; eight times that in dB of RSS) is
/// `min(coeff · exp(−(margin − 2 dB)/4), 0.4)`.
pub const POWER_NOISE_COEFF: f64 = 0.08;

/// Gain of *motion-coupled* multipath noise: a hand moving anywhere near
/// the pad scatters energy off nearby walls and furniture into every tag's
/// channel, adding phase jitter proportional to the tag's local multipath
/// energy. This is what degrades rich-multipath rooms during writing (the
/// paper's location 4) even though their static floor is quiet — and what
/// the deviation-bias weighting compensates, since the same tags that
/// jitter most statically sit closest to the reflectors.
pub const MOTION_MULTIPATH_GAIN: f64 = 0.06;

/// Peak one-way detuning/absorption loss (dB) a target inflicts on a tag
/// it hovers directly over. A hand is a lossy dielectric: besides
/// reflecting, it detunes the tag antenna, producing the distinct RSS
/// trough RFIPad's direction estimator relies on (§III-B).
pub const TARGET_DETUNING_DB: f64 = 8.0;

/// Distance scale (m) of the detuning effect.
pub const DETUNING_SCALE_M: f64 = 0.04;

/// The scene parameters a run may vary (defaults follow the paper's
/// prototype). The rest of the channel model is fixed: the carrier is
/// [`CARRIER_FREQUENCY`], neighbouring array tags always shadow each other
/// (the §IV-B effect), and the constants above.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Reader transmit power (paper default 30 dBm; regulations cap
    /// commercial readers at 32.5 dBm).
    pub tx_power: Dbm,
    /// Optional frequency-hopping plan; `None` = fixed carrier (the
    /// paper's deployment).
    pub hopping: Option<HoppingPlan>,
    /// Fixed forward-link system losses (dB): polarization mismatch, tag
    /// impedance/orientation mismatch, and (in NLOS) board attenuation.
    /// Free-space Friis alone leaves passive tags with ≈30 dB of margin at
    /// 32 cm, which would make TX power and distance irrelevant; real
    /// deployments lose 12–18 dB to these effects, which is exactly why
    /// the paper's power and distance sweeps (Fig. 17/19) have teeth.
    pub system_loss_db: f64,
}

impl Default for SceneConfig {
    fn default() -> Self {
        Self {
            tx_power: Dbm(30.0),
            hopping: None,
            system_loss_db: 8.0,
        }
    }
}

/// One reported tag read: what an EPC Gen2 reader exposes per inventory hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagObservation {
    /// Which tag responded.
    pub tag: TagId,
    /// Observation time in seconds.
    pub time: f64,
    /// Reported phase in `[0, 2π)`, quantized to the reader resolution.
    pub phase: f64,
    /// Reported RSS in dBm, quantized to 0.5 dB.
    pub rss_dbm: f64,
    /// Reported Doppler estimate in Hz (noisy, as the paper observes).
    pub doppler_hz: f64,
}

/// Precomputed statics for one (tag, channel-frequency) pair: everything in
/// the channel response that depends on neither the moving targets nor the
/// RNG. Tags and the antenna never move, so these terms are invariant for
/// the lifetime of a [`Scene`] — except across frequency hops, which is why
/// the cache holds one slot per channel.
#[derive(Debug, Clone, Copy)]
struct ChannelStatics {
    /// Channel wavelength (m).
    lambda_m: f64,
    /// `1 +` static multipath phasor: the target-free one-way field factor.
    f_static: Complex,
    /// Radar-equation backscatter power (dBm) at zero extra loss;
    /// per-observation losses subtract `2·extra` from it.
    base_backscatter_dbm: f64,
    /// `4πd/λ + θ_T + θ_R + θ_tag` (rad): the geometric phase of the
    /// direct path.
    phi_static: f64,
}

/// Frequency-independent statics for one tag.
#[derive(Debug, Clone, Copy)]
struct LinkStatics {
    /// Reader–tag distance (m), floored away from zero like the response
    /// path requires.
    d_rt: f64,
    /// System loss plus neighbour-tag shadowing (dB): the target-free part
    /// of the one-way extra loss.
    static_loss_db: f64,
    /// Friis forward power (dBm) at zero extra loss. Evaluated at the fixed
    /// carrier only: the IC harvests power broadband, so the forward link
    /// does not hop.
    base_forward_dbm: f64,
    /// The environment's multipath energy at the tag, which scales the
    /// motion-coupled jitter.
    multipath_energy: f64,
    /// Static phase-noise σ (rad) at the tag: its deviation bias.
    phase_noise_sigma: f64,
    /// Static RSS-noise σ (dB) at the tag.
    rss_noise_sigma: f64,
    /// Range factor that scales both noise σs with the reader distance.
    range_factor: f64,
}

/// Per-tag static-channel cache, built once per scene and rebuilt when the
/// transmit power changes. Holds one [`ChannelStatics`] slot per carrier the
/// scene can use — the fixed carrier plus every hopping-plan channel — keyed
/// by frequency bits, so each hopping dwell selects its own precomputed
/// slot instead of invalidating anything at observation time.
#[derive(Debug, Clone)]
struct StaticChannelCache {
    link: LinkStatics,
    /// `(frequency bits, statics)` per channel; at most 51 entries (50 FCC
    /// channels + the fixed carrier), scanned linearly.
    channels: Vec<(u64, ChannelStatics)>,
}

/// How many target samples [`TargetSamples`] holds before it spills to
/// the heap. The reader passes two targets (hand and forearm).
const INLINE_TARGETS: usize = 4;

/// The moving targets sampled at one instant, in target order, skipping
/// absent ones. Up to [`INLINE_TARGETS`] samples live inline; more spill
/// to a `Vec`.
struct TargetSamples {
    inline: [TargetSample; INLINE_TARGETS],
    len: usize,
    spill: Vec<TargetSample>,
}

impl TargetSamples {
    fn at(targets: &[&dyn MovingTarget], t: f64) -> Self {
        let empty = TargetSample {
            position: Vec3::ZERO,
            rcs_m2: 0.0,
        };
        let mut samples = Self {
            inline: [empty; INLINE_TARGETS],
            len: 0,
            spill: Vec::new(),
        };
        for sample in targets.iter().filter_map(|target| target.sample(t)) {
            if samples.len < INLINE_TARGETS {
                samples.inline[samples.len] = sample;
            } else {
                if samples.len == INLINE_TARGETS {
                    samples.spill.extend_from_slice(&samples.inline);
                }
                samples.spill.push(sample);
            }
            samples.len += 1;
        }
        samples
    }
}

impl std::ops::Deref for TargetSamples {
    type Target = [TargetSample];

    fn deref(&self) -> &[TargetSample] {
        if self.len <= INLINE_TARGETS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// The full simulated deployment.
#[derive(Debug, Clone)]
pub struct Scene {
    antenna: ReaderAntenna,
    tags: Vec<Tag>,
    environment: Environment,
    config: SceneConfig,
    /// Per-tag static neighbour shadowing (dB), precomputed because tags
    /// never move.
    static_shadow_db: Vec<f64>,
    /// Per-tag static-channel cache, parallel to `tags`.
    cache: Vec<StaticChannelCache>,
}

impl Scene {
    /// Assembles a scene.
    ///
    /// # Panics
    ///
    /// Panics if `tags` is empty.
    pub fn new(
        antenna: ReaderAntenna,
        tags: Vec<Tag>,
        environment: Environment,
        config: SceneConfig,
    ) -> Self {
        assert!(!tags.is_empty(), "scene needs at least one tag");
        let lambda = CARRIER_FREQUENCY.wavelength();
        let static_shadow_db = tags
            .iter()
            .map(|tag| {
                tags.iter()
                    .filter(|other| other.id != tag.id)
                    .map(|other| coupling::pair_shadow_db(other, tag, lambda).value())
                    .sum()
            })
            .collect();
        let mut scene = Self {
            antenna,
            tags,
            environment,
            config,
            static_shadow_db,
            cache: Vec::new(),
        };
        scene.rebuild_cache();
        scene
    }

    /// The reader antenna.
    pub fn antenna(&self) -> &ReaderAntenna {
        &self.antenna
    }

    /// All tags in the scene.
    pub fn tags(&self) -> &[Tag] {
        &self.tags
    }

    /// Looks up a tag by id.
    pub fn tag(&self, id: TagId) -> Option<&Tag> {
        self.tags.iter().find(|t| t.id == id)
    }

    /// The static environment.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The scene configuration.
    pub fn config(&self) -> &SceneConfig {
        &self.config
    }

    /// Replaces the transmit power (for the paper's Fig. 17 power sweep)
    /// and rebuilds the static-channel cache, whose base powers bake in the
    /// transmit level.
    pub fn set_tx_power(&mut self, power: Dbm) {
        self.config.tx_power = power;
        self.rebuild_cache();
    }

    fn tag_index(&self, id: TagId) -> Option<usize> {
        self.tags.iter().position(|t| t.id == id)
    }

    /// Recomputes every tag's [`StaticChannelCache`]. Called at construction
    /// and whenever a config change (transmit power) invalidates the cached
    /// base powers.
    fn rebuild_cache(&mut self) {
        self.cache = (0..self.tags.len())
            .map(|index| self.compute_cache_for(index))
            .collect();
    }

    fn compute_cache_for(&self, index: usize) -> StaticChannelCache {
        let tag = &self.tags[index];
        let link = self.link_statics_for(tag, self.static_shadow_db[index]);
        let mut channels = vec![(
            CARRIER_FREQUENCY.value().to_bits(),
            self.channel_statics_for(tag, CARRIER_FREQUENCY),
        )];
        if let Some(plan) = &self.config.hopping {
            for &hz in &plan.channels {
                let bits = hz.to_bits();
                if channels.iter().all(|(existing, _)| *existing != bits) {
                    channels.push((bits, self.channel_statics_for(tag, Hertz(hz))));
                }
            }
        }
        StaticChannelCache { link, channels }
    }

    fn link_statics_for(&self, tag: &Tag, shadow_db: f64) -> LinkStatics {
        let d_rt_m = self.antenna.position().distance(tag.position);
        LinkStatics {
            d_rt: d_rt_m.max(1e-6),
            static_loss_db: self.config.system_loss_db + shadow_db,
            base_forward_dbm: channel::forward_power(
                self.config.tx_power,
                self.antenna.gain_toward(tag.position),
                crate::units::Dbi(tag.model.gain_toward_dbi(self.incidence_angle(tag))),
                Meters(d_rt_m),
                CARRIER_FREQUENCY.wavelength(),
                Db(0.0),
            )
            .value(),
            multipath_energy: self.environment.multipath_energy(tag.position),
            phase_noise_sigma: self.environment.phase_noise_sigma(tag.position),
            rss_noise_sigma: self.environment.rss_noise_sigma(tag.position),
            // Ambient multipath jitter grows with reader range: the direct
            // path weakens as 1/d² while room reflections stay put, so the
            // multipath-to-direct ratio — and the phase jitter it causes —
            // rises with distance (the paper's Fig. 19 observation).
            range_factor: (d_rt_m / 0.32).powf(1.0).clamp(0.3, 5.0),
        }
    }

    fn channel_statics_for(&self, tag: &Tag, frequency: Hertz) -> ChannelStatics {
        let lambda = frequency.wavelength();
        let lambda_m = lambda.value();
        let ant = self.antenna.position();
        let d_rt = ant.distance(tag.position).max(1e-6);
        let f_static = Complex::new(1.0, 0.0)
            + self
                .environment
                .multipath_phasor(ant, tag.position, lambda_m);
        // The tag's incidence pattern applies on both traversals: fold it
        // into the effective RCS.
        let pattern_db =
            tag.model.gain_toward_dbi(self.incidence_angle(tag)) - tag.model.gain_dbi();
        let effective_rcs = tag.model.rcs_m2() * 10f64.powf(2.0 * pattern_db / 10.0);
        let base_backscatter_dbm = channel::backscatter_power(
            self.config.tx_power,
            self.antenna.gain_toward(tag.position),
            effective_rcs.max(1e-9),
            Meters(d_rt),
            lambda,
            Db(0.0),
        )
        .value();
        let phi_static = TAU * 2.0 * d_rt / lambda_m + READER_CIRCUIT_PHASE + tag.theta_tag;
        ChannelStatics {
            lambda_m,
            f_static,
            base_backscatter_dbm,
            phi_static,
        }
    }

    /// Fetches the statics for tag `index` on `frequency` — from the cache
    /// when allowed and populated (every scene frequency is pre-slotted at
    /// construction), recomputed from scratch otherwise. The fresh path
    /// runs the identical arithmetic, so the two are bit-interchangeable.
    fn statics_at(
        &self,
        index: usize,
        frequency: Hertz,
        use_cache: bool,
    ) -> (LinkStatics, ChannelStatics) {
        if use_cache {
            if let Some(cache) = self.cache.get(index) {
                let bits = frequency.value().to_bits();
                if let Some((_, statics)) = cache.channels.iter().find(|(b, _)| *b == bits) {
                    return (cache.link, *statics);
                }
            }
        }
        let tag = &self.tags[index];
        (
            self.link_statics_for(tag, self.static_shadow_db[index]),
            self.channel_statics_for(tag, frequency),
        )
    }

    /// Target-dependent one-way loss in dB: the full one-way loss beyond
    /// free space (static shadowing + obstruction + near-contact
    /// detuning). Computed once per observation and shared by the
    /// forward-link gate, the IC margin, and the response amplitude.
    fn target_losses(&self, tag: &Tag, static_loss_db: f64, targets: &[TargetSample]) -> f64 {
        let mut loss = static_loss_db;
        for target in targets {
            // The effective blocking width is bounded by the first Fresnel
            // zone (≈ 9 cm here): parts of a large target beyond it do not
            // shadow the link even though they scatter.
            loss += coupling::obstruction_db(
                target.position,
                target.radius().clamp(0.03, 0.09),
                self.antenna.position(),
                tag.position,
                OBSTRUCTION_MAX_DB,
            )
            .value();
            // Near-contact detuning: a lossy target hovering over the tag.
            let d = target.position.distance(tag.position);
            loss += TARGET_DETUNING_DB / (1.0 + (d / DETUNING_SCALE_M).powi(4));
        }
        loss
    }

    /// Power incident on the tag's IC, after gains, path loss, shadowing,
    /// and obstruction. Passive RFID is forward-link limited: a tag below
    /// its sensitivity does not respond at all.
    ///
    /// Tags are matched by id against the scene's cache; a tag the scene
    /// does not know is evaluated fresh with zero neighbour shadowing.
    pub fn forward_power_at(&self, tag: &Tag, targets: &[TargetSample]) -> Dbm {
        let link = match self.tag_index(tag.id) {
            Some(index) => self.cache[index].link,
            None => self.link_statics_for(tag, 0.0),
        };
        let extra = self.target_losses(tag, link.static_loss_db, targets);
        Dbm(link.base_forward_dbm - extra)
    }

    /// Angle between the reader→tag direction and the tag's plate normal
    /// (the z axis): label inlays receive/radiate best along the normal.
    fn incidence_angle(&self, tag: &Tag) -> f64 {
        let dir = self.antenna.position() - tag.position;
        let n = dir.norm();
        if n < 1e-9 {
            return 0.0;
        }
        (dir.z.abs() / n).clamp(-1.0, 1.0).acos()
    }

    /// Collects into `out` (cleared first) the id of every tag that can
    /// respond at time `t` with the given targets present, in scene order.
    ///
    /// A tag responds when its forward power clears its sensitivity — the
    /// [`Scene::forward_power_at`] gate [`Scene::observe`] also applies.
    /// The targets are sampled once for the whole sweep and each tag's
    /// gate reads its cached link statics.
    pub fn readable_tags_into(&self, t: f64, targets: &[&dyn MovingTarget], out: &mut Vec<TagId>) {
        out.clear();
        let samples = TargetSamples::at(targets, t);
        for (tag, cache) in self.tags.iter().zip(&self.cache) {
            let link = &cache.link;
            let extra = self.target_losses(tag, link.static_loss_db, &samples);
            if link.base_forward_dbm - extra >= tag.model.sensitivity().value() {
                out.push(tag.id);
            }
        }
    }

    /// Noiseless complex baseband response of `tag` at time `t`.
    ///
    /// `h = A · e^{-jφ_geo} · F²` where `A` comes from the radar equation,
    /// `φ_geo = 4πd/λ + θ_T + θ_R + θ_tag`, and `F` is the one-way field
    /// factor `1 + multipath + Σ reflections + Σ cross-terms` (squared
    /// because forward and return paths both traverse it).
    pub fn response(&self, tag: &Tag, t: f64, targets: &[&dyn MovingTarget]) -> Complex {
        let samples = TargetSamples::at(targets, t);
        self.response_with_samples(tag, &samples, t)
    }

    /// The carrier frequency in use at time `t` (hopping-aware).
    pub fn frequency_at(&self, t: f64) -> Hertz {
        match &self.config.hopping {
            Some(plan) => Hertz(plan.channel_at(t)),
            None => CARRIER_FREQUENCY,
        }
    }

    fn response_with_samples(&self, tag: &Tag, samples: &[TargetSample], t: f64) -> Complex {
        let (link, statics) = match self.tag_index(tag.id) {
            Some(index) => self.statics_at(index, self.frequency_at(t), true),
            None => (
                self.link_statics_for(tag, 0.0),
                self.channel_statics_for(tag, self.frequency_at(t)),
            ),
        };
        let extra = self.target_losses(tag, link.static_loss_db, samples);
        self.response_from_statics(tag, &link, &statics, samples, extra)
    }

    /// The target-dependent tail of the channel response: folds the moving
    /// targets' reflection paths and cross terms into the cached static
    /// field factor, then applies the (precomputed) radar-equation amplitude
    /// and geometric phase. `extra_db` comes from [`Scene::target_losses`]
    /// so one loss evaluation serves the forward gate, the margin, and this
    /// response. A target blocking the direct path attenuates it but does
    /// not shift its phase: the model has no diffraction-phase term.
    fn response_from_statics(
        &self,
        tag: &Tag,
        link: &LinkStatics,
        statics: &ChannelStatics,
        samples: &[TargetSample],
        extra_db: f64,
    ) -> Complex {
        let lambda_m = statics.lambda_m;
        let ant = self.antenna.position();
        let d_rt = link.d_rt;

        // One-way field factor: `1 + multipath` is cached; only the target
        // reflection paths move.
        let mut f = statics.f_static;
        for target in samples {
            let d_r_target = ant.distance(target.position);
            let d_target_t = target.position.distance(tag.position);
            let rho = channel::reflection_amplitude(
                d_rt,
                d_r_target,
                d_target_t,
                target.rcs_m2,
                REFLECTION_CAP,
            );
            let excess = TAU * (d_r_target + d_target_t - d_rt) / lambda_m;
            f = f + Complex::from_polar(rho, -excess);

            // Target × scatterer cross terms: reader→target→scatterer→tag.
            let t_aperture = (target.rcs_m2 / (4.0 * PI)).sqrt();
            for s in self.environment.scatterers() {
                let d_ts = target.position.distance(s.position).max(1e-3);
                let d_st = s.position.distance(tag.position).max(1e-3);
                let s_aperture = (s.rcs_m2 / (4.0 * PI)).sqrt();
                let amp = (d_rt * t_aperture * s_aperture / (d_r_target.max(1e-3) * d_ts * d_st))
                    .min(REFLECTION_CAP);
                let excess = TAU * (d_r_target + d_ts + d_st - d_rt) / lambda_m;
                f = f + Complex::from_polar(amp, -excess);
            }
        }

        let amplitude = 10f64.powf((statics.base_backscatter_dbm - 2.0 * extra_db) / 20.0);
        Complex::from_polar(amplitude, -statics.phi_static) * f * f
    }

    /// Observes one tag at time `t`: the full measurement including noise
    /// and quantization. Returns `None` when the tag's forward link is below
    /// sensitivity (the tag stays silent).
    pub fn observe<R: Rng + ?Sized>(
        &self,
        id: TagId,
        t: f64,
        targets: &[&dyn MovingTarget],
        rng: &mut R,
    ) -> Option<TagObservation> {
        self.observe_impl(id, t, targets, rng, true)
    }

    /// Like [`Scene::observe`] but recomputes every static channel term from
    /// scratch instead of reading the per-channel cache. The two paths run
    /// identical arithmetic, so with equal RNG states they produce
    /// bit-identical observations: the reference `cache_tests` hold the
    /// cache against.
    #[cfg(test)]
    fn observe_uncached<R: Rng + ?Sized>(
        &self,
        id: TagId,
        t: f64,
        targets: &[&dyn MovingTarget],
        rng: &mut R,
    ) -> Option<TagObservation> {
        self.observe_impl(id, t, targets, rng, false)
    }

    fn observe_impl<R: Rng + ?Sized>(
        &self,
        id: TagId,
        t: f64,
        targets: &[&dyn MovingTarget],
        rng: &mut R,
        use_cache: bool,
    ) -> Option<TagObservation> {
        let index = self.tag_index(id)?;
        let tag = &self.tags[index];
        let (link, statics) = self.statics_at(index, self.frequency_at(t), use_cache);
        let samples = TargetSamples::at(targets, t);
        // One loss evaluation feeds the forward-link gate, the response
        // amplitude/phase, and the IC margin below.
        let extra = self.target_losses(tag, link.static_loss_db, &samples);
        let forward_dbm = link.base_forward_dbm - extra;
        if forward_dbm < tag.model.sensitivity().value() {
            return None;
        }
        let h = self.response_from_statics(tag, &link, &statics, &samples, extra);

        // Doppler: finite difference of the noiseless reported phase
        // (within one dwell, so hops do not alias into Doppler). The two
        // endpoints share the cached statics; only the target terms move.
        const DOPPLER_DT: f64 = 1e-3;
        let samples_next = TargetSamples::at(targets, t + DOPPLER_DT);
        let extra_next = self.target_losses(tag, link.static_loss_db, &samples_next);
        let h_next = self.response_from_statics(tag, &link, &statics, &samples_next, extra_next);
        let dphi = wrap_to_pi((-h_next.arg()) - (-h.arg()));
        let doppler =
            dphi / (TAU * DOPPLER_DT) + noise::gaussian(rng, 0.0, self.doppler_noise_sigma());

        // Motion-coupled multipath: targets near the pad raise the jitter
        // of multipath-exposed tags.
        let presence: f64 = samples
            .iter()
            .map(|t| {
                let d = t.position.distance(tag.position);
                1.0 / (1.0 + (d / 0.25).powi(2))
            })
            .sum();
        let motion_noise = MOTION_MULTIPATH_GAIN * link.multipath_energy * presence.min(1.5);
        // IC operating-point noise: a tag fed barely above its sensitivity
        // modulates with compressed depth and jittery phase.
        let margin = forward_dbm - tag.model.sensitivity().value();
        let power_noise = (POWER_NOISE_COEFF * (-(margin - 2.0) / 4.0).exp()).min(0.4);
        // Both σs scale with the reader range (see `link_statics_for`).
        let phase_sigma = (link.phase_noise_sigma + motion_noise) * link.range_factor + power_noise;
        let rss_sigma =
            (link.rss_noise_sigma + 6.0 * motion_noise) * link.range_factor + 8.0 * power_noise;
        let phase = noise::quantize_phase(-h.arg() + noise::gaussian(rng, 0.0, phase_sigma));
        let rss =
            noise::quantize_rss(20.0 * h.abs().log10() + noise::gaussian(rng, 0.0, rss_sigma));
        Some(TagObservation {
            tag: id,
            time: t,
            phase,
            rss_dbm: rss,
            doppler_hz: doppler,
        })
    }

    /// Observes every readable tag at time `t` (an idealized simultaneous
    /// snapshot; the `rfid-gen2` crate provides the realistic serialized
    /// inventory on top of this).
    pub fn observe_all<R: Rng + ?Sized>(
        &self,
        t: f64,
        targets: &[&dyn MovingTarget],
        rng: &mut R,
    ) -> Vec<TagObservation> {
        self.tags
            .iter()
            .filter_map(|tag| self.observe(tag.id, t, targets, rng))
            .collect()
    }

    /// Standard deviation of the reader's Doppler estimate (Hz). Large, per
    /// the paper's observation that Doppler is too noisy to use (Fig. 2a).
    fn doppler_noise_sigma(&self) -> f64 {
        0.6
    }
}

fn wrap_to_pi(phase: f64) -> f64 {
    let mut p = phase.rem_euclid(TAU);
    if p > PI {
        p -= TAU;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tags::{TagArray, TagModel};
    use crate::targets::StaticTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Paper-default NLOS scene: 5×5 Type B plate at 6 cm pitch, antenna
    /// 32 cm behind the plate centre.
    fn nlos_scene(env: Environment) -> Scene {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
            (id.0 as f64 * 2.399) % TAU
        });
        let center = array.center();
        let antenna = ReaderAntenna::new(
            Vec3::new(center.x, center.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
            crate::units::Dbi(8.0),
        );
        Scene::new(antenna, array.tags().to_vec(), env, SceneConfig::default())
    }

    #[test]
    fn all_tags_readable_in_default_deployment() {
        let scene = nlos_scene(Environment::free_space());
        let mut readable = Vec::new();
        scene.readable_tags_into(0.0, &[], &mut readable);
        let all: Vec<TagId> = scene.tags().iter().map(|tag| tag.id).collect();
        assert_eq!(readable, all);
    }

    #[test]
    fn static_scene_has_stable_phase() {
        let scene = nlos_scene(Environment::free_space());
        let mut rng = StdRng::seed_from_u64(3);
        let id = TagId(12);
        let obs: Vec<f64> = (0..50)
            .filter_map(|i| scene.observe(id, i as f64 * 0.02, &[], &mut rng))
            .map(|o| o.phase)
            .collect();
        assert_eq!(obs.len(), 50);
        let spread = sig_spread(&obs);
        assert!(spread < 0.02, "static phase spread {spread}");
    }

    #[test]
    fn hand_above_tag_perturbs_phase_strongly() {
        let scene = nlos_scene(Environment::free_space());
        let mut rng = StdRng::seed_from_u64(4);
        let id = TagId(12); // centre tag at (0.12, -0.12, 0)
        let base = scene
            .observe(id, 0.0, &[], &mut rng)
            .expect("readable")
            .phase;
        let hand = StaticTarget::new(Vec3::new(0.12, -0.12, 0.03), 0.02);
        let with_hand = scene
            .observe(id, 0.0, &[&hand], &mut rng)
            .expect("readable")
            .phase;
        let delta = wrap_to_pi(with_hand - base).abs();
        assert!(delta > 0.1, "phase perturbation {delta} rad too small");
    }

    #[test]
    fn hand_influence_is_local() {
        // A hand over the plate centre must perturb the centre tag much more
        // than the far corner tag — the monotonicity behind Eq. 1–5.
        let scene = nlos_scene(Environment::free_space());
        let hand = StaticTarget::new(Vec3::new(0.12, -0.12, 0.03), 0.02);
        let center = TagId(12);
        let corner = TagId(0);
        let d_center = phase_shift(&scene, center, &hand);
        let d_corner = phase_shift(&scene, corner, &hand);
        assert!(
            d_center > 2.0 * d_corner,
            "centre {d_center} vs corner {d_corner}"
        );
    }

    #[test]
    fn hand_passing_causes_rss_trough() {
        // Sweep the hand across the centre tag and check RSS dips near the
        // crossing instant (the §III-B direction-estimation signal).
        let scene = nlos_scene(Environment::free_space());
        let mut rng = StdRng::seed_from_u64(9);
        let id = TagId(12);
        let mut min_rss = f64::INFINITY;
        let mut min_t = 0.0;
        let mut edge_rss: f64 = f64::NEG_INFINITY;
        for i in 0..100 {
            let t = i as f64 * 0.02; // 2 s sweep
            let x = -0.2 + 0.64 * t / 2.0; // crosses x=0.12 at t=1.0
            let hand = StaticTarget::new(Vec3::new(x, -0.12, 0.03), 0.02);
            let obs = scene.observe(id, t, &[&hand], &mut rng).expect("readable");
            if obs.rss_dbm < min_rss {
                min_rss = obs.rss_dbm;
                min_t = t;
            }
            if i < 5 {
                edge_rss = edge_rss.max(obs.rss_dbm);
            }
        }
        assert!((min_t - 1.0).abs() < 0.4, "trough at t={min_t}, want ≈1.0");
        assert!(
            edge_rss - min_rss > 3.0,
            "trough depth {}",
            edge_rss - min_rss
        );
    }

    #[test]
    fn obstruction_matters_only_in_los_geometry() {
        // LOS: antenna above the plate (same side as the hand).
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |_| 0.0);
        let center = array.center();
        let antenna_los = ReaderAntenna::new(
            Vec3::new(center.x, center.y, 1.0),
            Vec3::new(0.0, 0.0, -1.0),
            crate::units::Dbi(8.0),
        );
        let scene_los = Scene::new(
            antenna_los,
            array.tags().to_vec(),
            Environment::free_space(),
            SceneConfig::default(),
        );
        let tag = *scene_los.tag(TagId(12)).expect("exists");
        // Hand between antenna and tag.
        let hand = TargetSample {
            position: Vec3::new(center.x, center.y, 0.05),
            rcs_m2: 0.02,
        };
        let blocked = scene_los.forward_power_at(&tag, &[hand]).value();
        let open = scene_los.forward_power_at(&tag, &[]).value();
        assert!(open - blocked > 5.0, "LOS obstruction {}", open - blocked);

        // NLOS: antenna behind the plate — the same hand costs only the
        // near-contact detuning, far less than the LOS blockage.
        let scene_nlos = nlos_scene(Environment::free_space());
        let tag_n = *scene_nlos.tag(TagId(12)).expect("exists");
        let blocked_n = scene_nlos.forward_power_at(&tag_n, &[hand]).value();
        let open_n = scene_nlos.forward_power_at(&tag_n, &[]).value();
        assert!(open_n - blocked_n < 4.0, "NLOS {}", open_n - blocked_n);
        assert!(
            (open - blocked) > (open_n - blocked_n) + 4.0,
            "LOS must lose far more than NLOS"
        );
    }

    #[test]
    fn low_tx_power_reduces_perturbation_distinctness() {
        // At low TX power the hand-induced RSS dip stays, but forward margin
        // shrinks; with shadowing some tags drop out entirely.
        let mut scene = nlos_scene(Environment::free_space());
        scene.set_tx_power(Dbm(10.0));
        let tag = *scene.tag(TagId(0)).expect("exists");
        let p = scene.forward_power_at(&tag, &[]).value();
        assert!(p < 0.0, "forward power should be marginal, got {p}");
    }

    #[test]
    fn observation_fields_quantized() {
        let scene = nlos_scene(Environment::office_location(1));
        let mut rng = StdRng::seed_from_u64(5);
        let obs = scene
            .observe(TagId(7), 0.0, &[], &mut rng)
            .expect("readable");
        assert!(obs.phase >= 0.0 && obs.phase < TAU);
        let rss_steps = obs.rss_dbm / noise::RSS_STEP_DB;
        assert!((rss_steps - rss_steps.round()).abs() < 1e-9);
    }

    #[test]
    fn unknown_tag_yields_none() {
        let scene = nlos_scene(Environment::free_space());
        let mut rng = StdRng::seed_from_u64(5);
        assert!(scene.observe(TagId(999), 0.0, &[], &mut rng).is_none());
    }

    #[test]
    fn observe_all_returns_all_readable() {
        let scene = nlos_scene(Environment::office_location(2));
        let mut rng = StdRng::seed_from_u64(6);
        let obs = scene.observe_all(0.0, &[], &mut rng);
        assert_eq!(obs.len(), 25);
    }

    #[test]
    fn tag_diversity_spreads_static_phase() {
        // Different θ_tag → per-tag central phases spread over [0, 2π)
        // (paper Fig. 4).
        let scene = nlos_scene(Environment::free_space());
        let mut rng = StdRng::seed_from_u64(8);
        let phases: Vec<f64> = scene
            .observe_all(0.0, &[], &mut rng)
            .iter()
            .map(|o| o.phase)
            .collect();
        let lo = phases.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = phases.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(hi - lo > 2.0, "phase spread {}", hi - lo);
    }

    fn phase_shift(scene: &Scene, id: TagId, hand: &StaticTarget) -> f64 {
        let tag = scene.tag(id).expect("exists");
        let base = -scene.response(tag, 0.0, &[]).arg();
        let with = -scene.response(tag, 0.0, &[hand]).arg();
        wrap_to_pi(with - base).abs()
    }

    fn sig_spread(values: &[f64]) -> f64 {
        // Spread on the circle: max pairwise wrapped distance.
        let mut max_d: f64 = 0.0;
        for &a in values {
            for &b in values {
                max_d = max_d.max(wrap_to_pi(a - b).abs());
            }
        }
        max_d
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::tags::{TagArray, TagModel};
    use crate::targets::StaticTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scene_with(hopping: Option<HoppingPlan>, env: Environment) -> Scene {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| {
            (id.0 as f64 * 2.399) % TAU
        });
        let c = array.center();
        let antenna = ReaderAntenna::new(
            Vec3::new(c.x, c.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
            crate::units::Dbi(8.0),
        );
        Scene::new(
            antenna,
            array.tags().to_vec(),
            env,
            SceneConfig {
                hopping,
                ..SceneConfig::default()
            },
        )
    }

    /// Cached and uncached observations must agree bit-for-bit: same RNG
    /// seed, same tag, same moving target, compared across the full
    /// observation struct (phase, RSS, Doppler).
    #[test]
    fn cached_observations_match_uncached_exactly() {
        let scene = scene_with(None, Environment::office_location(4));
        let mut rng_cached = StdRng::seed_from_u64(77);
        let mut rng_fresh = rng_cached.clone();
        for i in 0..40 {
            let t = i as f64 * 0.05;
            let hand = StaticTarget::new(Vec3::new(-0.1 + 0.01 * i as f64, -0.12, 0.03), 0.02);
            for id in [TagId(0), TagId(12), TagId(24)] {
                let cached = scene.observe(id, t, &[&hand], &mut rng_cached);
                let fresh = scene.observe_uncached(id, t, &[&hand], &mut rng_fresh);
                assert_eq!(cached, fresh, "tag {id} at t={t}");
            }
        }
    }

    /// With a hopping plan, each dwell selects a different per-channel
    /// cache slot; observations across dwell boundaries must still match
    /// the from-scratch computation exactly.
    #[test]
    fn hopping_scene_cache_is_exact_across_dwell_boundaries() {
        let scene = scene_with(Some(HoppingPlan::fcc()), Environment::office_location(2));
        let plan = scene.config().hopping.clone().expect("plan set");
        let mut rng_cached = StdRng::seed_from_u64(5);
        let mut rng_fresh = rng_cached.clone();
        let mut channels_seen = std::collections::HashSet::new();
        // Samples straddle many dwells (dwell = 0.2 s, samples every 0.13 s).
        for i in 0..40 {
            let t = i as f64 * 0.13;
            channels_seen.insert(scene.frequency_at(t).value().to_bits());
            let cached = scene.observe(TagId(12), t, &[], &mut rng_cached);
            let fresh = scene.observe_uncached(TagId(12), t, &[], &mut rng_fresh);
            assert_eq!(cached, fresh, "t={t}");
        }
        assert!(
            channels_seen.len() > 5,
            "test must actually cross dwells: {} channels",
            channels_seen.len()
        );
        // Every hopping channel has a pre-built cache slot: find a dwell
        // using each channel and hold the two paths against each other.
        for &hz in &plan.channels {
            let t = (0..500)
                .map(|k| k as f64 * plan.dwell_s + 0.01)
                .find(|&t| plan.channel_at(t) == hz)
                .expect("every channel appears within one plan cycle");
            let mut a = StdRng::seed_from_u64(9);
            let mut b = a.clone();
            assert_eq!(
                scene.observe(TagId(12), t, &[], &mut a),
                scene.observe_uncached(TagId(12), t, &[], &mut b),
            );
        }
    }

    /// Changing the transmit power must invalidate the cached base powers:
    /// the rebuilt cache agrees with the from-scratch path at the new
    /// power, and the observation actually changed.
    #[test]
    fn set_tx_power_rebuilds_cache() {
        let mut scene = scene_with(None, Environment::free_space());
        let rng = StdRng::seed_from_u64(11);
        let before = scene
            .observe(TagId(12), 0.0, &[], &mut rng.clone())
            .expect("readable");
        scene.set_tx_power(Dbm(24.0));
        let after_cached = scene.observe(TagId(12), 0.0, &[], &mut rng.clone());
        let after_fresh = scene.observe_uncached(TagId(12), 0.0, &[], &mut rng.clone());
        assert_eq!(after_cached, after_fresh);
        let after = after_cached.expect("still readable at 24 dBm");
        assert!(
            (after.rss_dbm - before.rss_dbm).abs() > 3.0,
            "a 6 dB TX drop must move RSS: {} vs {}",
            before.rss_dbm,
            after.rss_dbm
        );
    }

    /// The noiseless response path (used by calibration) also goes through
    /// the cache; it must be deterministic and match across scene clones.
    #[test]
    fn response_is_cache_stable_across_clones() {
        let scene = scene_with(Some(HoppingPlan::fcc()), Environment::office_location(1));
        let clone = scene.clone();
        let tag = *scene.tag(TagId(7)).expect("exists");
        let hand = StaticTarget::new(Vec3::new(0.1, -0.1, 0.04), 0.02);
        for i in 0..10 {
            let t = i as f64 * 0.21;
            let a = scene.response(&tag, t, &[&hand]);
            let b = clone.response(&tag, t, &[&hand]);
            assert_eq!(a, b);
        }
    }
}

#[cfg(test)]
mod hopping_tests {
    use super::*;
    use crate::tags::{TagArray, TagModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scene_with(hopping: Option<HoppingPlan>) -> Scene {
        let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |_| 0.0);
        let c = array.center();
        let antenna = ReaderAntenna::new(
            Vec3::new(c.x, c.y, -0.32),
            Vec3::new(0.0, 0.0, 1.0),
            crate::units::Dbi(8.0),
        );
        Scene::new(
            antenna,
            array.tags().to_vec(),
            Environment::free_space(),
            SceneConfig {
                hopping,
                ..SceneConfig::default()
            },
        )
    }

    #[test]
    fn fcc_plan_cycles_channels() {
        let plan = HoppingPlan::fcc();
        assert_eq!(plan.channels.len(), 50);
        let c0 = plan.channel_at(0.0);
        let c1 = plan.channel_at(0.25);
        assert_ne!(c0, c1, "dwell boundary must hop");
        // Hops stride across the band, not to the neighbouring channel.
        assert!((c1 - c0).abs() > 2e6, "stride {}", (c1 - c0).abs());
        // Full cycle returns to the first channel.
        assert_eq!(plan.channel_at(50.0 * 0.2), c0);
    }

    #[test]
    fn hopping_makes_static_phase_jump_across_dwells() {
        let fixed = scene_with(None);
        let hopping = scene_with(Some(HoppingPlan::fcc()));
        let mut rng = StdRng::seed_from_u64(1);
        let spread = |scene: &Scene, rng: &mut StdRng| {
            let phases: Vec<f64> = (0..40)
                .filter_map(|i| scene.observe(TagId(12), i as f64 * 0.1, &[], rng))
                .map(|o| o.phase)
                .collect();
            let mut max_d = 0.0f64;
            for pair in phases.windows(2) {
                let mut d = (pair[1] - pair[0]).rem_euclid(TAU);
                if d > PI {
                    d -= TAU;
                }
                max_d = max_d.max(d.abs());
            }
            max_d
        };
        let fixed_spread = spread(&fixed, &mut rng);
        let hopping_spread = spread(&hopping, &mut rng);
        assert!(fixed_spread < 0.05, "fixed-carrier static phase is stable");
        // At 32 cm the round trip is only ≈2 wavelengths, so even a
        // 25 MHz hop shifts phase by ≈0.3 rad — small in absolute terms
        // but an order of magnitude above the static floor, and fatal for
        // the accumulative-difference image.
        assert!(
            hopping_spread > 0.1,
            "hopping must break phase continuity: {hopping_spread}"
        );
    }

    #[test]
    fn within_one_dwell_phase_is_stable() {
        let hopping = scene_with(Some(HoppingPlan::fcc()));
        let mut rng = StdRng::seed_from_u64(2);
        // All samples inside the first 0.2 s dwell.
        let phases: Vec<f64> = (0..10)
            .filter_map(|i| hopping.observe(TagId(12), 0.01 + i as f64 * 0.018, &[], &mut rng))
            .map(|o| o.phase)
            .collect();
        for pair in phases.windows(2) {
            let mut d = (pair[1] - pair[0]).rem_euclid(TAU);
            if d > PI {
                d -= TAU;
            }
            assert!(d.abs() < 0.05, "intra-dwell jump {d}");
        }
    }
}
