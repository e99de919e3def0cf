//! The reader-report boundary: the canonical record everything above the
//! reader consumes.
//!
//! Real deployments never see the simulator's internal channel state — they
//! see an LLRP report stream: per inventory hit, an EPC, a timestamp, and
//! the reader's quantized phase/RSS/Doppler measurements, stamped with the
//! antenna port and hop-channel index. [`TagReport`] is that record. The
//! recognition stack (`rfipad`) is written entirely against it, so the same
//! pipeline runs from live simulation ([`crate::source::LiveSource`]),
//! recorded traces ([`crate::source::TraceSource`]), or a future hardware
//! frontend.
//!
//! [`TagId`] is re-exported here because the report stream is where the
//! logical tag identity crosses the boundary (EPC ↔ id via [`Epc96`]);
//! consumers of reports name tags without touching the simulator crate.
//! [`TagIdMap`] (and its [`TagIdHasher`]) ride along, so the reader's MAC
//! and the recognizer key their per-tag state with one hasher.

use crate::epc::Epc96;
use rf_sim::scene::TagObservation;
use serde::{Deserialize, Serialize};

pub use rf_sim::noise::PHASE_STEP;
pub use rf_sim::tags::{TagId, TagIdHasher, TagIdMap};

/// Channel index stamped on reports when the reader runs on a fixed
/// carrier (no hopping plan). Hopping readers report 1-based LLRP channel
/// indices, so 0 is unambiguous.
pub const FIXED_CARRIER_CHANNEL: u16 = 0;

/// One tag report, as an LLRP client receives it: the complete boundary
/// record between the reader and the recognition stack.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// A structure-of-arrays batch of tag reports: one parallel column per
/// [`TagReport`] field.
///
/// Batching is the ingest stack's unit of amortization — a queue slot, a
/// telemetry record, and a synchronization round-trip cost the same whether
/// they carry one report or sixty-four, so sources decode into a batch and
/// engines move batches. The SoA layout keeps each column densely packed
/// for the per-field passes downstream (time-ordered scans touch only the
/// `time` column) and lets one allocation be reused across refills via
/// [`clear`](Self::clear).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportBatch {
    epc: Vec<Epc96>,
    tag: Vec<TagId>,
    time: Vec<f64>,
    phase: Vec<f64>,
    rss_dbm: Vec<f64>,
    doppler_hz: Vec<f64>,
    antenna_port: Vec<u16>,
    channel_index: Vec<u16>,
}

impl ReportBatch {
    /// An empty batch with no reserved capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with every column pre-sized for `cap` reports.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            epc: Vec::with_capacity(cap),
            tag: Vec::with_capacity(cap),
            time: Vec::with_capacity(cap),
            phase: Vec::with_capacity(cap),
            rss_dbm: Vec::with_capacity(cap),
            doppler_hz: Vec::with_capacity(cap),
            antenna_port: Vec::with_capacity(cap),
            channel_index: Vec::with_capacity(cap),
        }
    }

    /// Number of reports in the batch.
    pub fn len(&self) -> usize {
        self.time.len()
    }

    /// Whether the batch holds no reports.
    pub fn is_empty(&self) -> bool {
        self.time.is_empty()
    }

    /// Empties the batch, keeping each column's allocation for reuse.
    pub fn clear(&mut self) {
        self.epc.clear();
        self.tag.clear();
        self.time.clear();
        self.phase.clear();
        self.rss_dbm.clear();
        self.doppler_hz.clear();
        self.antenna_port.clear();
        self.channel_index.clear();
    }

    /// Appends one report, scattering its fields across the columns.
    pub fn push(&mut self, r: TagReport) {
        self.epc.push(r.epc);
        self.tag.push(r.tag);
        self.time.push(r.time);
        self.phase.push(r.phase);
        self.rss_dbm.push(r.rss_dbm);
        self.doppler_hz.push(r.doppler_hz);
        self.antenna_port.push(r.antenna_port);
        self.channel_index.push(r.channel_index);
    }

    /// Reassembles the report at index `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<TagReport> {
        if i >= self.len() {
            return None;
        }
        Some(TagReport {
            epc: self.epc[i],
            tag: self.tag[i],
            time: self.time[i],
            phase: self.phase[i],
            rss_dbm: self.rss_dbm[i],
            doppler_hz: self.doppler_hz[i],
            antenna_port: self.antenna_port[i],
            channel_index: self.channel_index[i],
        })
    }

    /// Iterates the batch as reassembled [`TagReport`]s, in push order.
    pub fn iter(&self) -> impl Iterator<Item = TagReport> + '_ {
        (0..self.len()).map(move |i| self.get(i).expect("index in bounds"))
    }

    /// The report timestamps column (one entry per report, push order).
    pub fn times(&self) -> &[f64] {
        &self.time
    }
}

impl Extend<TagReport> for ReportBatch {
    fn extend<T: IntoIterator<Item = TagReport>>(&mut self, iter: T) {
        for r in iter {
            self.push(r);
        }
    }
}

impl FromIterator<TagReport> for ReportBatch {
    fn from_iter<T: IntoIterator<Item = TagReport>>(iter: T) -> Self {
        let mut batch = Self::new();
        batch.extend(iter);
        batch
    }
}

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

    fn sample_reports() -> Vec<TagReport> {
        (0..5)
            .map(|i| {
                let mut r =
                    TagReport::synthetic(TagId(i), i as f64 * 0.1, 1.0 + i as f64 * 0.3, -44.5);
                r.doppler_hz = i as f64 * 0.25 - 0.5;
                r.antenna_port = 1 + (i % 3) as u16;
                r.channel_index = (i % 4) as u16;
                r
            })
            .collect()
    }

    #[test]
    fn batch_round_trips_every_field() {
        let reports = sample_reports();
        let batch: ReportBatch = reports.iter().copied().collect();
        assert_eq!(batch.len(), reports.len());
        assert!(!batch.is_empty());
        for (i, &r) in reports.iter().enumerate() {
            assert_eq!(batch.get(i), Some(r));
        }
        assert_eq!(batch.get(reports.len()), None);
        assert_eq!(batch.iter().collect::<Vec<_>>(), reports);
        assert_eq!(batch.times(), &[0.0, 0.1, 0.2, 0.30000000000000004, 0.4]);
    }

    #[test]
    fn batch_clear_keeps_capacity() {
        let mut batch = ReportBatch::with_capacity(8);
        batch.extend(sample_reports());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert_eq!(batch.get(0), None);
        // Refill after clear works and observes push order.
        batch.push(TagReport::synthetic(TagId(9), 2.0, 0.5, -40.0));
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.get(0).unwrap().tag, TagId(9));
    }
}
