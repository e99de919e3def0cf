//! Trace record/replay: serializing the report stream to disk and back.
//!
//! A trace is a 4-byte magic (`RFT1`) followed by fixed-layout 60-byte
//! records: a big-endian `u32` length prefix, always [`BINARY_RECORD_LEN`],
//! then the fields, big-endian, floats as IEEE-754 bits — compact and
//! exact by construction, NaN and infinities included. `encode_record` and
//! `decode_record` hold the layout; RFIW BATCH frames carry the same
//! records.
//!
//! Traces are read back through [`crate::source::TraceSource`].

use crate::epc::Epc96;
use crate::report::TagReport;
use rf_sim::tags::TagId;
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufWriter, ErrorKind, Read, Write};
use std::path::Path;

/// Magic bytes opening a binary trace file.
pub const BINARY_MAGIC: [u8; 4] = *b"RFT1";

/// Byte length of one binary record body (EPC 12 + tag 8 + four f64 fields
/// 32 + antenna 2 + channel 2).
pub const BINARY_RECORD_LEN: usize = 12 + 8 + 4 * 8 + 2 + 2;

/// Byte length of one whole binary record: the `u32` length prefix and
/// the body.
pub(crate) const RECORD_LEN: usize = 4 + BINARY_RECORD_LEN;

/// On-disk framing of a trace. There is one; the type and
/// [`write_trace`]'s `format` parameter remain only because the benchmark
/// crate names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// Magic header plus length-prefixed fixed-layout records.
    Binary,
}

/// Errors produced while reading or writing traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed binary record or header.
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Malformed(reason) => write!(f, "malformed binary trace: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Encodes one report as a binary record: the length prefix, then the
/// fields in DESIGN §13's byte order.
pub(crate) fn encode_record(r: &TagReport) -> [u8; RECORD_LEN] {
    let mut record = [0u8; RECORD_LEN];
    record[..4].copy_from_slice(&(BINARY_RECORD_LEN as u32).to_be_bytes());
    record[4..16].copy_from_slice(r.epc.as_bytes());
    record[16..24].copy_from_slice(&r.tag.0.to_be_bytes());
    record[24..32].copy_from_slice(&r.time.to_be_bytes());
    record[32..40].copy_from_slice(&r.phase.to_be_bytes());
    record[40..48].copy_from_slice(&r.rss_dbm.to_be_bytes());
    record[48..56].copy_from_slice(&r.doppler_hz.to_be_bytes());
    record[56..58].copy_from_slice(&r.antenna_port.to_be_bytes());
    record[58..60].copy_from_slice(&r.channel_index.to_be_bytes());
    record
}

/// Decodes one binary record, checking its length prefix first.
///
/// # Errors
///
/// [`TraceError::Malformed`] if the prefix is not [`BINARY_RECORD_LEN`].
pub(crate) fn decode_record(record: &[u8; RECORD_LEN]) -> Result<TagReport, TraceError> {
    check_record_len(record)?;
    let word = |at: usize| -> [u8; 8] { record[at..at + 8].try_into().expect("8 bytes") };
    Ok(TagReport {
        epc: Epc96::from_bytes(record[4..16].try_into().expect("12 bytes")),
        tag: TagId(u64::from_be_bytes(word(16))),
        time: f64::from_be_bytes(word(24)),
        phase: f64::from_be_bytes(word(32)),
        rss_dbm: f64::from_be_bytes(word(40)),
        doppler_hz: f64::from_be_bytes(word(48)),
        antenna_port: u16::from_be_bytes([record[56], record[57]]),
        channel_index: u16::from_be_bytes([record[58], record[59]]),
    })
}

/// Checks a record's length prefix; reads nothing past it.
fn check_record_len(record: &[u8; RECORD_LEN]) -> Result<(), TraceError> {
    let len = u32::from_be_bytes([record[0], record[1], record[2], record[3]]) as usize;
    if len != BINARY_RECORD_LEN {
        return Err(TraceError::Malformed(format!(
            "record length {len}, expected {BINARY_RECORD_LEN}"
        )));
    }
    Ok(())
}

/// Reads the next binary record, or `None` at a clean end of stream.
///
/// A record held whole in the reader's buffer is decoded in place. One
/// that straddles a refill is assembled on the stack, its length checked
/// before its body is read. A stream that ends inside a record is a typed
/// truncation error, never a silent end of the trace.
pub(crate) fn read_record<R: BufRead>(reader: &mut R) -> Result<Option<TagReport>, TraceError> {
    match reader.fill_buf() {
        Ok(buf) => {
            if let Some(record) = buf.first_chunk() {
                let report = decode_record(record)?;
                reader.consume(RECORD_LEN);
                return Ok(Some(report));
            }
        }
        // The reads below retry an interrupted read.
        Err(e) if e.kind() == ErrorKind::Interrupted => {}
        Err(e) => return Err(e.into()),
    }
    let mut record = [0u8; RECORD_LEN];
    match read_up_to(reader, &mut record[..4])? {
        0 => return Ok(None),
        4 => check_record_len(&record)?,
        got => {
            return Err(TraceError::Malformed(format!(
                "truncated record length prefix ({got} of 4 bytes)"
            )))
        }
    }
    let got = read_up_to(reader, &mut record[4..])?;
    if got < BINARY_RECORD_LEN {
        return Err(TraceError::Malformed(format!(
            "truncated record body ({got} of {BINARY_RECORD_LEN} bytes)"
        )));
    }
    decode_record(&record).map(Some)
}

/// Reads until `buf` is full or the stream ends, retrying interrupted
/// reads, and returns how many bytes it read.
pub(crate) fn read_up_to(reader: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

/// Writes a complete trace.
///
/// # Errors
///
/// An I/O failure.
pub fn write_trace<W: Write>(
    writer: &mut W,
    format: TraceFormat,
    reports: &[TagReport],
) -> Result<(), TraceError> {
    let TraceFormat::Binary = format;
    writer.write_all(&BINARY_MAGIC)?;
    for r in reports {
        writer.write_all(&encode_record(r))?;
    }
    Ok(())
}

/// Writes a complete trace file.
pub fn write_trace_file(
    path: impl AsRef<Path>,
    format: TraceFormat,
    reports: &[TagReport],
) -> Result<(), TraceError> {
    let mut writer = BufWriter::new(File::create(path)?);
    write_trace(&mut writer, format, reports)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ReportSource, TraceSource};

    /// Reads a whole trace the one way programs do.
    fn read(bytes: &[u8]) -> Result<Vec<TagReport>, TraceError> {
        TraceSource::from_reader(bytes)?.try_collect_reports()
    }

    fn sample_reports() -> Vec<TagReport> {
        (0..7)
            .map(|i| TagReport {
                epc: Epc96::for_tag(TagId(i)),
                tag: TagId(i),
                time: 0.1 + i as f64 * 0.0123456789,
                phase: (i as f64 * 1.7).rem_euclid(std::f64::consts::TAU),
                rss_dbm: -45.5 + i as f64 * 0.5,
                doppler_hz: -0.75 + i as f64 * 0.3,
                antenna_port: 1 + (i % 4) as u16,
                channel_index: (i % 50) as u16,
            })
            .collect()
    }

    #[test]
    fn binary_round_trip_is_bit_exact() {
        let reports = sample_reports();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &reports).unwrap();
        assert_eq!(&buf[..4], &BINARY_MAGIC);
        assert_eq!(buf.len(), 4 + reports.len() * (4 + BINARY_RECORD_LEN));
        let decoded = read(&buf).unwrap();
        assert_eq!(decoded, reports);
    }

    #[test]
    fn empty_trace_reads_empty() {
        assert!(read(&[]).unwrap().is_empty());
    }

    #[test]
    fn garbage_first_byte_rejected() {
        assert!(matches!(
            read(b"\x00\x01\x02"),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn record_codec_round_trips_and_checks_the_length_first() {
        for r in sample_reports() {
            let record = encode_record(&r);
            assert_eq!(&record[..4], &(BINARY_RECORD_LEN as u32).to_be_bytes());
            assert_eq!(decode_record(&record).unwrap(), r);
        }
        let mut record = encode_record(&sample_reports()[1]);
        record[3] = 57;
        match decode_record(&record) {
            Err(TraceError::Malformed(reason)) => {
                assert_eq!(reason, "record length 57, expected 56")
            }
            other => panic!("expected a length error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_binary_record_rejected() {
        let reports = sample_reports();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &reports).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read(&buf).is_err());
    }

    #[test]
    fn non_finite_floats_keep_their_bits() {
        let reports = sample_reports();
        for field in ["time", "phase", "rss_dbm", "doppler_hz"] {
            for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                let mut hostile = reports.clone();
                let r = &mut hostile[2];
                *match field {
                    "time" => &mut r.time,
                    "phase" => &mut r.phase,
                    "rss_dbm" => &mut r.rss_dbm,
                    _ => &mut r.doppler_hz,
                } = bad;
                let mut buf = Vec::new();
                write_trace(&mut buf, TraceFormat::Binary, &hostile).unwrap();
                let decoded = read(&buf).unwrap();
                let bits =
                    |r: &TagReport| [r.time, r.phase, r.rss_dbm, r.doppler_hz].map(f64::to_bits);
                assert_eq!(
                    decoded.iter().map(bits).collect::<Vec<_>>(),
                    hostile.iter().map(bits).collect::<Vec<_>>(),
                    "{field} = {bad}"
                );
            }
        }
    }
}
