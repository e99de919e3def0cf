//! The reader-report boundary: the canonical record everything above the
//! reader consumes.
//!
//! Real deployments never see the simulator's internal channel state — they
//! see an LLRP report stream: per inventory hit, an EPC, a timestamp, and
//! the reader's quantized phase/RSS/Doppler measurements, stamped with the
//! antenna port and hop-channel index. [`TagReport`] is that record. The
//! recognition stack (`rfipad`) is written entirely against it, so the same
//! pipeline runs from live simulation ([`crate::reader::ReaderRun`]'s
//! events), recorded traces ([`crate::source::TraceSource`]), or a future
//! hardware frontend.
//!
//! [`TagId`] is re-exported here because the report stream is where the
//! logical tag identity crosses the boundary (EPC ↔ id via [`Epc96`]);
//! consumers of reports name tags without touching the simulator crate.
//! [`TagIdMap`] (and its [`TagIdHasher`]) ride along, so the reader's MAC
//! and the recognizer key their per-tag state with one hasher.

use crate::epc::Epc96;
use rf_sim::scene::TagObservation;

pub use rf_sim::noise::PHASE_STEP;
pub use rf_sim::tags::{TagId, TagIdHasher, TagIdMap};

/// Channel index stamped on reports when the reader runs on a fixed
/// carrier (no hopping plan). Hopping readers report 1-based LLRP channel
/// indices, so 0 is unambiguous.
pub const FIXED_CARRIER_CHANNEL: u16 = 0;

/// One tag report, as an LLRP client receives it: the complete boundary
/// record between the reader and the recognition stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TagReport {
    /// The backscattered EPC.
    pub epc: Epc96,
    /// The logical tag id the EPC decodes to.
    pub tag: TagId,
    /// Report timestamp in seconds.
    pub time: f64,
    /// Reported phase in `[0, 2π)`, quantized to the reader resolution
    /// ([`PHASE_STEP`]).
    pub phase: f64,
    /// Reported RSS in dBm, quantized to 0.5 dB.
    pub rss_dbm: f64,
    /// Reported Doppler estimate in Hz (noisy, as the paper observes).
    pub doppler_hz: f64,
    /// Reader antenna port the read arrived on.
    pub antenna_port: u16,
    /// Hop-channel index: 1-based LLRP channel index under a hopping plan,
    /// [`FIXED_CARRIER_CHANNEL`] on a fixed carrier.
    pub channel_index: u16,
}

impl TagReport {
    /// Converts a simulator observation into the boundary record — the one
    /// place the simulator-internal type is allowed to surface.
    pub fn from_observation(obs: &TagObservation, antenna_port: u16, channel_index: u16) -> Self {
        Self {
            epc: Epc96::for_tag(obs.tag),
            tag: obs.tag,
            time: obs.time,
            phase: obs.phase,
            rss_dbm: obs.rss_dbm,
            doppler_hz: obs.doppler_hz,
            antenna_port,
            channel_index,
        }
    }

    /// A synthetic report for tests and hand-built streams: EPC minted
    /// from the tag id, zero Doppler, antenna port 1, fixed carrier.
    pub fn synthetic(tag: TagId, time: f64, phase: f64, rss_dbm: f64) -> Self {
        Self {
            epc: Epc96::for_tag(tag),
            tag,
            time,
            phase,
            rss_dbm,
            doppler_hz: 0.0,
            antenna_port: 1,
            channel_index: FIXED_CARRIER_CHANNEL,
        }
    }
}

/// A batch of tag reports, in arrival order.
///
/// Batching is the ingest stack's unit of amortization: a queue slot, a
/// telemetry record, and a synchronization round trip cost the same whether
/// they carry one report or sixty-four, so sources decode into a batch and
/// engines move batches. A plain vector keeps each report whole, so a batch
/// is one allocation and every consumer reads the reports in place.
pub type ReportBatch = Vec<TagReport>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_observation_carries_every_field() {
        let obs = TagObservation {
            tag: TagId(7),
            time: 1.25,
            phase: 3.0,
            rss_dbm: -44.5,
            doppler_hz: 0.5,
        };
        let r = TagReport::from_observation(&obs, 3, 12);
        assert_eq!(r.tag, TagId(7));
        assert_eq!(r.epc.to_tag(), Some(TagId(7)));
        assert_eq!(r.time, 1.25);
        assert_eq!(r.phase, 3.0);
        assert_eq!(r.rss_dbm, -44.5);
        assert_eq!(r.doppler_hz, 0.5);
        assert_eq!(r.antenna_port, 3);
        assert_eq!(r.channel_index, 12);
    }

    #[test]
    fn synthetic_defaults() {
        let r = TagReport::synthetic(TagId(4), 0.5, 1.0, -45.0);
        assert_eq!(r.epc, Epc96::for_tag(TagId(4)));
        assert_eq!(r.doppler_hz, 0.0);
        assert_eq!(r.antenna_port, 1);
        assert_eq!(r.channel_index, FIXED_CARRIER_CHANNEL);
    }
}
