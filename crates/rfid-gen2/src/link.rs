//! Gen2 air-interface link timing.
//!
//! The inventory rate — and therefore how densely RFIPad samples each tag —
//! is set by the physical-layer timing: the reader-to-tag Tari, the
//! backscatter link frequency (BLF), and the tag-to-reader Miller mode. The
//! paper's "low throughput / prefers slow motions" limitation (§VI) is a
//! direct consequence of these numbers, so the simulator models them
//! explicitly.

/// Tag-to-reader modulation: FM0 baseband or Miller-modulated subcarrier.
/// Higher Miller factors are more robust but proportionally slower.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TagEncoding {
    /// FM0 baseband: 1 symbol per bit — fastest, least robust.
    Fm0,
    /// Miller subcarrier, 2 cycles per symbol.
    Miller2,
    /// Miller subcarrier, 4 cycles per symbol (Impinj "Dense Reader M=4").
    Miller4,
    /// Miller subcarrier, 8 cycles per symbol — slowest, most robust.
    Miller8,
}

impl TagEncoding {
    /// Subcarrier cycles per data bit.
    pub fn cycles_per_bit(self) -> f64 {
        match self {
            TagEncoding::Fm0 => 1.0,
            TagEncoding::Miller2 => 2.0,
            TagEncoding::Miller4 => 4.0,
            TagEncoding::Miller8 => 8.0,
        }
    }

    /// Preamble length in symbol periods (TRext=1 pilot tone included).
    pub fn preamble_bits(self) -> f64 {
        match self {
            TagEncoding::Fm0 => 18.0,
            _ => 22.0,
        }
    }
}

/// Physical-layer parameters of one reader session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Reference interval Tari in seconds (6.25, 12.5 or 25 µs).
    pub tari_s: f64,
    /// Backscatter link frequency in Hz (typ. 250 kHz).
    pub blf_hz: f64,
    /// Tag-to-reader encoding.
    pub encoding: TagEncoding,
}

impl LinkParams {
    /// Impinj "Mode 1000"-style fast profile: FM0 at 640 kHz (max-throughput
    /// autoset profile).
    pub fn fast() -> Self {
        Self {
            tari_s: 6.25e-6,
            blf_hz: 640e3,
            encoding: TagEncoding::Fm0,
        }
    }

    /// The balanced profile typical of an Impinj Speedway default
    /// (Miller-4 at 250 kHz) — what the paper's prototype would run.
    pub fn dense_reader_m4() -> Self {
        Self {
            tari_s: 12.5e-6,
            blf_hz: 250e3,
            encoding: TagEncoding::Miller4,
        }
    }

    /// Max-robustness profile: Miller-8 at 250 kHz.
    pub fn dense_reader_m8() -> Self {
        Self {
            tari_s: 25e-6,
            blf_hz: 250e3,
            encoding: TagEncoding::Miller8,
        }
    }

    /// Mean duration of one reader→tag data bit: data-0 is one Tari, data-1
    /// is 1.5–2 Tari; PIE averages ≈ 1.5 Tari for random data.
    pub fn reader_bit_s(&self) -> f64 {
        1.5 * self.tari_s
    }

    /// Duration of one tag→reader data bit.
    pub fn tag_bit_s(&self) -> f64 {
        self.encoding.cycles_per_bit() / self.blf_hz
    }

    /// T1: reader-command end to tag-reply start, per the Gen2 spec
    /// `max(RTcal, 10/BLF)`; RTcal ≈ 2.75 · Tari.
    pub fn t1_s(&self) -> f64 {
        (2.75 * self.tari_s).max(10.0 / self.blf_hz)
    }

    /// T2: tag-reply end to next reader command (spec: 3–20 / BLF).
    pub fn t2_s(&self) -> f64 {
        8.0 / self.blf_hz
    }

    /// T3: how long the reader waits before declaring a slot empty.
    pub fn t3_s(&self) -> f64 {
        self.t1_s() + 6.0 / self.blf_hz
    }

    /// Duration of a tag's RN16 reply (preamble + 16 bits + end).
    pub fn rn16_s(&self) -> f64 {
        (self.encoding.preamble_bits() + 17.0) * self.tag_bit_s()
    }

    /// Duration of a tag's `PC + EPC-96 + CRC16` reply.
    pub fn epc_reply_s(&self) -> f64 {
        (self.encoding.preamble_bits() + 128.0 + 1.0) * self.tag_bit_s()
    }

    /// Duration of a Query command (22 bits + frame-sync preamble).
    pub fn query_s(&self) -> f64 {
        22.0 * self.reader_bit_s() + 12.5 * self.tari_s
    }

    /// Duration of a QueryRep command (4 bits + frame sync).
    pub fn query_rep_s(&self) -> f64 {
        4.0 * self.reader_bit_s() + 6.0 * self.tari_s
    }

    /// Duration of an ACK command (18 bits + frame sync).
    pub fn ack_s(&self) -> f64 {
        18.0 * self.reader_bit_s() + 6.0 * self.tari_s
    }

    /// Wall time consumed by an empty slot.
    pub fn empty_slot_s(&self) -> f64 {
        self.query_rep_s() + self.t3_s()
    }

    /// Wall time consumed by a collision slot (RN16s overlap, no ACK).
    pub fn collision_slot_s(&self) -> f64 {
        self.query_rep_s() + self.t1_s() + self.rn16_s() + self.t2_s()
    }

    /// Wall time consumed by a successful singulation:
    /// QueryRep → RN16 → ACK → EPC.
    pub fn success_slot_s(&self) -> f64 {
        self.query_rep_s()
            + self.t1_s()
            + self.rn16_s()
            + self.t2_s()
            + self.ack_s()
            + self.t1_s()
            + self.epc_reply_s()
            + self.t2_s()
    }

    /// Upper bound on reads per second if every slot were a success.
    pub fn max_read_rate_hz(&self) -> f64 {
        1.0 / self.success_slot_s()
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        Self::dense_reader_m4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_duration_ordering() {
        for p in [
            LinkParams::fast(),
            LinkParams::dense_reader_m4(),
            LinkParams::dense_reader_m8(),
        ] {
            assert!(p.empty_slot_s() < p.collision_slot_s());
            assert!(p.collision_slot_s() < p.success_slot_s());
        }
    }

    #[test]
    fn m4_read_rate_plausible() {
        // Real Speedway readers in M=4 singulate roughly 150–400 tags/s.
        let rate = LinkParams::dense_reader_m4().max_read_rate_hz();
        assert!(rate > 150.0 && rate < 600.0, "rate {rate}");
    }

    #[test]
    fn fm0_faster_than_miller8() {
        let fast = LinkParams::fast().max_read_rate_hz();
        let slow = LinkParams::dense_reader_m8().max_read_rate_hz();
        assert!(fast > 2.0 * slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn t1_respects_spec_lower_bound() {
        let p = LinkParams::dense_reader_m4();
        assert!(p.t1_s() >= 10.0 / p.blf_hz);
        assert!(p.t1_s() >= 2.75 * p.tari_s);
    }

    #[test]
    fn higher_miller_slower_tag_bits() {
        let m4 = LinkParams::dense_reader_m4();
        let m8 = LinkParams {
            encoding: TagEncoding::Miller8,
            ..m4
        };
        assert!((m8.tag_bit_s() / m4.tag_bit_s() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn epc_reply_longer_than_rn16() {
        // 128 payload bits vs 16: with preamble overhead the ratio is ≈ 3.9.
        let p = LinkParams::default();
        assert!(p.epc_reply_s() > 3.0 * p.rn16_s());
    }

    #[test]
    fn durations_are_microseconds_scale() {
        let p = LinkParams::dense_reader_m4();
        assert!(p.query_s() > 1e-5 && p.query_s() < 1e-3);
        assert!(p.success_slot_s() > 1e-4 && p.success_slot_s() < 1e-2);
    }
}
