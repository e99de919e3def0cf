//! Property-based tests of the Gen2 protocol substrate.

use proptest::prelude::*;
use rf_sim::tags::TagId;
use rfid_gen2::crc::{crc16, crc16_verify, crc5, crc5_verify};
use rfid_gen2::epc::Epc96;
use rfid_gen2::report::TagReport;
use rfid_gen2::trace::{read_trace, write_trace, TraceFormat};
use rfid_gen2::QAlgorithm;

/// Builds a report from a proptest-drawn tuple.
fn report_from(
    (id, time, phase, rss, doppler, antenna, channel): (u64, f64, f64, f64, f64, u16, u16),
) -> TagReport {
    TagReport {
        epc: Epc96::for_tag(TagId(id)),
        tag: TagId(id),
        time,
        phase,
        rss_dbm: rss,
        doppler_hz: doppler,
        antenna_port: antenna,
        channel_index: channel,
    }
}

proptest! {
    /// CRC-16 verifies its own output and rejects any single-bit flip.
    #[test]
    fn crc16_round_trip_and_flip(data in prop::collection::vec(any::<u8>(), 1..64), flip in 0usize..512) {
        let crc = crc16(&data);
        prop_assert!(crc16_verify(&data, crc));
        let byte = (flip / 8) % data.len();
        let bit = flip % 8;
        let mut corrupted = data.clone();
        corrupted[byte] ^= 1 << bit;
        prop_assert!(!crc16_verify(&corrupted, crc));
    }

    /// CRC-5 stays in range and rejects single-bit flips.
    #[test]
    fn crc5_round_trip_and_flip(bits in prop::collection::vec(any::<bool>(), 1..64), flip in 0usize..64) {
        let crc = crc5(&bits);
        prop_assert!(crc < 32);
        prop_assert!(crc5_verify(&bits, crc));
        let idx = flip % bits.len();
        let mut corrupted = bits.clone();
        corrupted[idx] = !corrupted[idx];
        prop_assert!(!crc5_verify(&corrupted, crc));
    }

    /// EPC minting round-trips every tag id.
    #[test]
    fn epc_round_trip(id in any::<u64>()) {
        prop_assert_eq!(Epc96::for_tag(TagId(id)).to_tag(), Some(TagId(id)));
    }

    /// Both trace framings round-trip any report stream bit-exactly —
    /// including float bit patterns.
    #[test]
    fn trace_round_trip_bit_exact(
        reads in prop::collection::vec(
            (any::<u64>(), any::<f64>(), any::<f64>(), any::<f64>(), any::<f64>(),
             any::<u16>(), any::<u16>()),
            0..30,
        ),
    ) {
        let reports: Vec<TagReport> = reads
            .iter()
            .copied()
            // NaN breaks PartialEq, not the codec; keep comparisons meaningful.
            .filter(|r| !r.1.is_nan() && !r.2.is_nan() && !r.3.is_nan() && !r.4.is_nan())
            .map(report_from)
            .collect();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            let mut buf = Vec::new();
            write_trace(&mut buf, format, &reports).expect("write");
            let decoded = read_trace(&mut buf.as_slice()).expect("read");
            prop_assert_eq!(&decoded, &reports);
            for (orig, dec) in reports.iter().zip(&decoded) {
                prop_assert_eq!(orig.time.to_bits(), dec.time.to_bits());
                prop_assert_eq!(orig.phase.to_bits(), dec.phase.to_bits());
                prop_assert_eq!(orig.rss_dbm.to_bits(), dec.rss_dbm.to_bits());
                prop_assert_eq!(orig.doppler_hz.to_bits(), dec.doppler_hz.to_bits());
            }
        }
    }

    /// The Q-algorithm never leaves [0, 15] under any event sequence.
    #[test]
    fn q_algorithm_bounded(
        initial in 0u8..16,
        events in prop::collection::vec(0u8..3, 0..500),
    ) {
        let mut q = QAlgorithm::new(initial);
        for e in events {
            match e {
                0 => q.on_empty(),
                1 => q.on_collision(),
                _ => q.on_success(),
            }
            prop_assert!(q.q() <= 15);
        }
    }
}
