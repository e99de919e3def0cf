//! Slotted-ALOHA inventory with the Gen2 Q-algorithm.
//!
//! An inventory round opens with a Query carrying the slot-count exponent
//! `Q`; each participating tag draws a slot in `[0, 2^Q)` and replies with
//! an RN16 when its counter reaches zero. Empty and collision slots waste
//! link time (see [`crate::link`]), and the reader adapts `Q` to the
//! population with the floating-point Q-algorithm from the Gen2 annex.
//!
//! Session semantics: each tag carries an inventoried flag (A/B) per
//! session; a successful singulation flips it. In *dual-target* mode the
//! reader alternates the targeted flag each round, so a static population is
//! read continuously — the mode any monitoring deployment (and RFIPad) runs.
//!
//! Rounds reuse buffers the inventory owns instead of allocating: the
//! powered set is written into one, and the slot draws go into another,
//! sorted by slot and walked with a cursor.

use crate::link::LinkParams;
use rand::Rng;
use rf_sim::tags::{TagId, TagIdMap};
use serde::{Deserialize, Serialize};

/// Gen2 inventoried-flag values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Flag {
    /// Session flag A (the power-up default).
    A,
    /// Session flag B.
    B,
}

impl Flag {
    /// The opposite flag.
    pub fn flipped(self) -> Flag {
        match self {
            Flag::A => Flag::B,
            Flag::B => Flag::A,
        }
    }
}

/// How the reader targets session flags across rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SearchMode {
    /// Alternate the targeted flag every round — tags are re-read
    /// continuously. The right mode for RFIPad-style monitoring.
    DualTarget,
    /// Always target flag A; tags fall silent after one read until their
    /// flag persistence resets (not modelled). Used for one-shot census.
    SingleTargetA,
}

/// The floating-point Q-adaptation algorithm from the Gen2 specification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QAlgorithm {
    qfp: f64,
    c: f64,
    min_q: u8,
    max_q: u8,
}

impl QAlgorithm {
    /// Creates the adapter with an initial Q and the spec-suggested step
    /// `C = 0.35`.
    ///
    /// # Panics
    ///
    /// Panics if `initial_q > 15`.
    pub fn new(initial_q: u8) -> Self {
        assert!(initial_q <= 15, "Q must be ≤ 15");
        Self {
            qfp: initial_q as f64,
            c: 0.35,
            min_q: 0,
            max_q: 15,
        }
    }

    /// Current integer Q.
    pub fn q(&self) -> u8 {
        self.qfp.round() as u8
    }

    /// Records an empty slot (decrease Q).
    pub fn on_empty(&mut self) {
        self.qfp = (self.qfp - self.c).max(self.min_q as f64);
    }

    /// Records a collision slot (increase Q).
    pub fn on_collision(&mut self) {
        self.qfp = (self.qfp + self.c).min(self.max_q as f64);
    }

    /// Records a successful singulation (Q unchanged, per the spec).
    pub fn on_success(&mut self) {}

    /// Resets the adapter to a given Q (used when the reader retargets the
    /// opposite session flag and the expected population jumps back up).
    pub fn reset(&mut self, q: u8) {
        assert!(q <= 15, "Q must be ≤ 15");
        self.qfp = q as f64;
    }
}

/// Outcome of a single slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SlotOutcome {
    /// No tag replied.
    Empty,
    /// Two or more tags replied; RN16s collided.
    Collision,
    /// Exactly one tag was singulated and delivered its EPC.
    Success(TagId),
}

/// Counters describing an inventory run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InventoryStats {
    /// Inventory rounds started.
    pub rounds: u64,
    /// Total slots elapsed.
    pub slots: u64,
    /// Slots with no reply.
    pub empties: u64,
    /// Slots with colliding replies.
    pub collisions: u64,
    /// Successful singulations.
    pub successes: u64,
}

impl InventoryStats {
    /// Successful reads per slot — the MAC efficiency (theoretical ALOHA
    /// optimum ≈ 0.37 with ideal Q).
    pub fn efficiency(&self) -> f64 {
        if self.slots == 0 {
            0.0
        } else {
            self.successes as f64 / self.slots as f64
        }
    }
}

/// A running Gen2 inventory: persistent session flags, adaptive Q, and a
/// simulated wall clock advanced by the link timing of each slot.
#[derive(Debug, Clone)]
pub struct Inventory {
    link: LinkParams,
    q: QAlgorithm,
    initial_q: u8,
    search: SearchMode,
    flags: TagIdMap<TagId, Flag>,
    target: Flag,
    time: f64,
    stats: InventoryStats,
    /// The powered set the `powered` callback last wrote.
    powered: Vec<TagId>,
    /// This round's `(slot, tag)` draws, sorted by slot before the walk.
    draws: Vec<(u64, TagId)>,
}

impl Inventory {
    /// Creates an inventory starting at simulated time `start` seconds.
    pub fn new(link: LinkParams, initial_q: u8, search: SearchMode, start: f64) -> Self {
        Self {
            link,
            q: QAlgorithm::new(initial_q),
            initial_q,
            search,
            flags: TagIdMap::default(),
            target: Flag::A,
            time: start,
            stats: InventoryStats::default(),
            powered: Vec::new(),
            draws: Vec::new(),
        }
    }

    /// Current simulated time in seconds.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &InventoryStats {
        &self.stats
    }

    /// Link parameters in use.
    pub fn link(&self) -> &LinkParams {
        &self.link
    }

    /// Runs rounds until the simulated clock passes `until`.
    ///
    /// `powered` is called with the current time and an empty buffer, and
    /// must push the tags whose forward link is live at that instant (the
    /// scene decides). `on_read` receives each singulated tag and the
    /// singulation time.
    pub fn run<R, P, F>(&mut self, until: f64, rng: &mut R, mut powered: P, mut on_read: F)
    where
        R: Rng + ?Sized,
        P: FnMut(f64, &mut Vec<TagId>),
        F: FnMut(TagId, f64),
    {
        while self.time < until {
            self.run_round(rng, &mut powered, &mut on_read, until);
        }
    }

    /// Runs one full inventory round (Query + its slots), stopping early if
    /// the clock passes `until`.
    fn run_round<R, P, F>(&mut self, rng: &mut R, powered: &mut P, on_read: &mut F, until: f64)
    where
        R: Rng + ?Sized,
        P: FnMut(f64, &mut Vec<TagId>),
        F: FnMut(TagId, f64),
    {
        self.stats.rounds += 1;
        self.time += self.link.query_s();
        let q = self.q.q();
        let slot_count: u64 = 1 << q;

        // Participating tags draw their slot counters, in powered-set
        // order (which fixes the rng stream).
        self.powered.clear();
        powered(self.time, &mut self.powered);
        self.draws.clear();
        for &id in &self.powered {
            let flag = *self.flags.entry(id).or_insert(Flag::A);
            if flag == self.target {
                self.draws.push((rng.random_range(0..slot_count), id));
            }
        }
        self.draws.sort_by_key(|&(slot, _)| slot);

        // The current target population is exhausted: in dual-target mode
        // retarget the opposite flag so the (static) population is read
        // continuously, and restart Q at its initial value since the
        // expected population jumps back up. A short probe round (the
        // remaining empty slots are skipped — real readers close the round
        // with a Query rather than stepping through every slot).
        if self.draws.is_empty() {
            self.stats.slots += 1;
            self.stats.empties += 1;
            self.time += self.link.empty_slot_s();
            if self.search == SearchMode::DualTarget {
                self.target = self.target.flipped();
                self.q.reset(self.initial_q);
            }
            return;
        }

        // `draws[cursor..]` holds the draws for this slot and later ones.
        let mut cursor = 0;
        for slot in 0..slot_count {
            if self.time >= until {
                return;
            }
            // Per the Gen2 Q-algorithm flow, the reader abandons the round
            // (issuing a fresh Query) once the floating-point Q rounds to a
            // different value than the round was started with.
            if self.q.q() != q {
                return;
            }
            self.stats.slots += 1;
            let replies = self.draws[cursor..]
                .iter()
                .take_while(|&&(drawn, _)| drawn == slot)
                .count();
            let outcome = match replies {
                0 => SlotOutcome::Empty,
                1 => SlotOutcome::Success(self.draws[cursor].1),
                _ => SlotOutcome::Collision,
            };
            cursor += replies;
            match outcome {
                SlotOutcome::Empty => {
                    self.stats.empties += 1;
                    self.q.on_empty();
                    self.time += self.link.empty_slot_s();
                }
                SlotOutcome::Collision => {
                    self.stats.collisions += 1;
                    self.q.on_collision();
                    self.time += self.link.collision_slot_s();
                }
                SlotOutcome::Success(id) => {
                    self.stats.successes += 1;
                    self.q.on_success();
                    // Sample the channel at the middle of the EPC reply.
                    let read_time = self.time + self.link.success_slot_s() * 0.7;
                    // The tag must still be powered when it backscatters its
                    // EPC (the hand may have just shadowed it).
                    self.powered.clear();
                    powered(read_time, &mut self.powered);
                    if self.powered.contains(&id) {
                        self.flags.insert(id, self.target.flipped());
                        on_read(id, read_time);
                    }
                    self.time += self.link.success_slot_s();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// A `powered` callback for a static population of `n` tags.
    fn population(n: u64) -> impl FnMut(f64, &mut Vec<TagId>) {
        move |_t, out| out.extend((0..n).map(TagId))
    }

    #[test]
    fn q_algorithm_adapts_within_bounds() {
        let mut q = QAlgorithm::new(4);
        for _ in 0..100 {
            q.on_empty();
        }
        assert_eq!(q.q(), 0);
        for _ in 0..100 {
            q.on_collision();
        }
        assert_eq!(q.q(), 15);
    }

    #[test]
    #[should_panic(expected = "Q must be ≤ 15")]
    fn q_rejects_out_of_range() {
        QAlgorithm::new(16);
    }

    #[test]
    fn flag_flips() {
        assert_eq!(Flag::A.flipped(), Flag::B);
        assert_eq!(Flag::B.flipped().flipped(), Flag::B);
    }

    #[test]
    fn all_tags_read_in_dual_target_mode() {
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            4,
            SearchMode::DualTarget,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let mut reads: HashMap<TagId, u32> = HashMap::new();
        inv.run(2.0, &mut rng, population(25), |id, _t| {
            *reads.entry(id).or_default() += 1
        });
        assert_eq!(reads.len(), 25, "every tag read at least once");
        let min_reads = reads.values().min().copied().unwrap_or(0);
        assert!(min_reads >= 3, "per-tag reads in 2 s: min {min_reads}");
    }

    #[test]
    fn single_target_reads_each_tag_once() {
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            4,
            SearchMode::SingleTargetA,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(2);
        let mut reads: HashMap<TagId, u32> = HashMap::new();
        inv.run(3.0, &mut rng, population(10), |id, _t| {
            *reads.entry(id).or_default() += 1
        });
        assert_eq!(reads.len(), 10);
        assert!(reads.values().all(|&c| c == 1), "{reads:?}");
    }

    #[test]
    fn per_tag_rate_matches_paper_scale() {
        // 25 tags on an M=4 link: expect a per-tag read rate in the tens of
        // hertz — the sampling density the RFIPad pipeline is built for.
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            5,
            SearchMode::DualTarget,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut count = 0u64;
        inv.run(5.0, &mut rng, population(25), |_id, _t| count += 1);
        let per_tag_hz = count as f64 / 25.0 / 5.0;
        assert!(
            per_tag_hz > 3.0 && per_tag_hz < 40.0,
            "per-tag rate {per_tag_hz} Hz"
        );
    }

    #[test]
    fn efficiency_reasonable_after_adaptation() {
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            8,
            SearchMode::DualTarget,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(4);
        inv.run(5.0, &mut rng, population(25), |_id, _t| {});
        let eff = inv.stats().efficiency();
        assert!(eff > 0.12 && eff < 0.6, "efficiency {eff}");
    }

    #[test]
    fn empty_population_just_burns_slots() {
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            2,
            SearchMode::DualTarget,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let mut reads = 0;
        inv.run(0.5, &mut rng, population(0), |_id, _t| reads += 1);
        assert_eq!(reads, 0);
        assert!(inv.stats().empties > 0);
        assert_eq!(inv.stats().successes, 0);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut inv = Inventory::new(LinkParams::fast(), 3, SearchMode::DualTarget, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut last = 1.0;
        inv.run(1.5, &mut rng, population(8), |_id, t| {
            assert!(t >= last, "time went backwards");
            last = t;
        });
        assert!(inv.time() >= 1.5);
    }

    #[test]
    fn read_times_within_run_window() {
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            4,
            SearchMode::DualTarget,
            2.0,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut times = Vec::new();
        inv.run(3.0, &mut rng, population(5), |_id, t| times.push(t));
        assert!(!times.is_empty());
        assert!(times.iter().all(|&t| (2.0..3.2).contains(&t)));
    }

    #[test]
    fn tag_unpowered_at_reply_time_is_not_reported() {
        // Power the tag for the query but never afterwards: the singulation
        // must not produce a read.
        let mut inv = Inventory::new(
            LinkParams::dense_reader_m4(),
            0,
            SearchMode::DualTarget,
            0.0,
        );
        let mut rng = StdRng::seed_from_u64(8);
        let mut reads = 0;
        let mut first_call = true;
        inv.run(
            0.05,
            &mut rng,
            move |_t, out: &mut Vec<TagId>| {
                if first_call {
                    first_call = false;
                    out.push(TagId(0));
                }
            },
            |_id, _t| reads += 1,
        );
        assert_eq!(reads, 0);
    }
}
