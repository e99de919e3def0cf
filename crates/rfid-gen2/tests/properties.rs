//! Property-based tests of the Gen2 protocol substrate.

use proptest::prelude::*;
use rf_sim::tags::TagId;
use rfid_gen2::crc::{crc16, crc16_verify, crc5, crc5_verify};
use rfid_gen2::epc::Epc96;
use rfid_gen2::report::TagReport;
use rfid_gen2::source::{ReportSource, SourceError, TraceSource};
use rfid_gen2::trace::{write_trace, TraceFormat};
use rfid_gen2::wire::{
    decode_payload_v, encode_frame_v, Frame, TraceContext, WireError, FRAME_ACK, FRAME_BATCH,
    FRAME_CLOSE, FRAME_CLOSED, FRAME_ERROR, FRAME_OPEN, FRAME_SHED,
};
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
            let decoded = TraceSource::from_reader(buf.as_slice())
                .expect("header")
                .try_collect_reports()
                .expect("read");
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

/// Every frame type byte, so random payloads get past the first byte.
const FRAME_TYPES: [u8; 7] = [
    FRAME_OPEN,
    FRAME_BATCH,
    FRAME_CLOSE,
    FRAME_ACK,
    FRAME_SHED,
    FRAME_CLOSED,
    FRAME_ERROR,
];

/// Five reports with every field varied.
fn five_reports() -> Vec<TagReport> {
    (0..5u16)
        .map(|i| {
            report_from((
                u64::from(i) * 7,
                0.5 + f64::from(i) * 0.02,
                f64::from(i) * 1.1,
                -45.5 + f64::from(i),
                -0.25 * f64::from(i),
                1 + i % 4,
                i * 9,
            ))
        })
        .collect()
}

/// The payload (after the length prefix) of a valid 5-report BATCH.
fn batch_payload(version: u16) -> Vec<u8> {
    let frame = Frame::Batch {
        session: "pad-1".into(),
        seq: 7,
        reports: five_reports(),
        trace: Some(TraceContext {
            trace: 0x0123_4567_89ab_cdef,
            parent_span: 42,
        }),
    };
    encode_frame_v(&frame, version)[4..].to_vec()
}

/// One hostile edit of a non-empty input: flip a bit (`op` 0), truncate
/// (`op` 1) or insert a byte (otherwise) at a position anywhere in it.
fn mutate(mut bytes: Vec<u8>, op: u8, at: usize, byte: u8) -> Vec<u8> {
    match op {
        0 => {
            let at = at % bytes.len();
            bytes[at] ^= 1 << (byte % 8);
        }
        1 => bytes.truncate(at % bytes.len()),
        _ => bytes.insert(at % (bytes.len() + 1), byte),
    }
    bytes
}

/// Whether decoding `payload` yields a frame or a typed malformed-frame
/// error (a panic fails the calling test by itself).
fn decode_is_typed(payload: &[u8], version: u16) -> bool {
    matches!(
        decode_payload_v(payload, version),
        Ok(_) | Err(WireError::Malformed(_))
    )
}

/// Whether reading `bytes` as a trace, the way every program reads one,
/// yields reports or a typed trace error.
fn read_is_typed(bytes: &[u8]) -> bool {
    let read = TraceSource::from_reader(bytes).and_then(|mut s| s.try_collect_reports());
    matches!(read, Ok(_) | Err(SourceError::Trace(_)))
}

proptest! {
    /// Random payloads into the frame decoder, under both wire versions:
    /// a frame or a typed error, never a panic.
    #[test]
    fn random_payloads_decode_or_are_malformed(
        body in prop::collection::vec(any::<u8>(), 0..256),
        ty in 0usize..8,
        version in 1u16..3,
    ) {
        // Seven draws in eight lead with a real frame type.
        let mut payload: Vec<u8> = FRAME_TYPES.get(ty).copied().into_iter().collect();
        payload.extend(body);
        prop_assert!(decode_is_typed(&payload, version));
    }

    /// One flipped, cut or inserted byte of a valid 5-report BATCH.
    #[test]
    fn mutated_batch_payloads_decode_or_are_malformed(
        op in 0u8..3,
        at in 0usize..usize::MAX,
        byte in any::<u8>(),
        version in 1u16..3,
    ) {
        let payload = mutate(batch_payload(version), op, at, byte);
        prop_assert!(decode_is_typed(&payload, version));
    }

    /// Random bytes read as a trace, with and without each framing's
    /// opening bytes: reports or a trace error, never a panic.
    #[test]
    fn random_bytes_read_as_a_trace_or_a_trace_error(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        lead in 0u8..3,
    ) {
        let mut input = match lead {
            0 => b"RFT1".to_vec(),
            1 => b"{".to_vec(),
            _ => Vec::new(),
        };
        input.extend(bytes);
        prop_assert!(read_is_typed(&input));
    }

    /// One flipped, cut or inserted byte of a binary or JSON-lines trace.
    #[test]
    fn mutated_traces_read_or_fail_typed(
        op in 0u8..3,
        at in 0usize..usize::MAX,
        byte in any::<u8>(),
        json in any::<bool>(),
    ) {
        let format = if json { TraceFormat::JsonLines } else { TraceFormat::Binary };
        let mut trace = Vec::new();
        write_trace(&mut trace, format, &five_reports()).expect("write");
        prop_assert!(read_is_typed(&mutate(trace, op, at, byte)));
    }
}

#[test]
fn lying_batch_count_is_malformed_before_allocation() {
    // A BATCH whose count says u32::MAX in a 40-byte payload. Reserving
    // room for the claimed reports before checking the body length would
    // ask for hundreds of gigabytes and abort the process.
    let mut payload = vec![FRAME_BATCH];
    payload.extend(3u16.to_be_bytes());
    payload.extend(b"pad");
    payload.extend(1u32.to_be_bytes());
    payload.extend(u32::MAX.to_be_bytes());
    payload.resize(40, 0);
    for version in [1, 2] {
        assert!(matches!(
            decode_payload_v(&payload, version),
            Err(WireError::Malformed(_))
        ));
    }
}
