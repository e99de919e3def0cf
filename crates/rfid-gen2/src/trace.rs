//! Trace record/replay: serializing the report stream to disk and back.
//!
//! Two framings of the same [`TagReport`] stream:
//!
//! - **JSON lines** (`.jsonl`): one self-describing JSON object per line —
//!   greppable, diffable, and editable. Floats are printed with Rust's
//!   shortest round-trip formatting, so a decoded trace is bit-identical
//!   to the recorded stream. The codec writes each line with `format!` and
//!   reads it with the strict `obs::json` reader.
//! - **Binary** (`.rftrace`): a 4-byte magic (`RFT1`) followed by
//!   length-prefixed fixed-layout records (big-endian, floats as IEEE-754
//!   bits via the vendored `bytes` buffers) — compact and exact by
//!   construction.
//!
//! Traces are read back through [`crate::source::TraceSource`], which
//! autodetects the framing from the first byte, so replay tooling never
//! needs to be told which flavour a file is.

use crate::epc::Epc96;
use crate::report::TagReport;
use bytes::{Buf, BufMut, BytesMut};
use obs::json::JsonError;
use rf_sim::tags::TagId;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening a binary trace file.
pub const BINARY_MAGIC: [u8; 4] = *b"RFT1";

/// Byte length of one binary record body (EPC 12 + tag 8 + four f64 fields
/// 32 + antenna 2 + channel 2).
pub const BINARY_RECORD_LEN: usize = 12 + 8 + 4 * 8 + 2 + 2;

/// On-disk framing of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceFormat {
    /// One JSON object per line.
    JsonLines,
    /// Magic header plus length-prefixed fixed-layout records.
    Binary,
}

impl TraceFormat {
    /// Conventional file extension for the framing.
    pub fn extension(self) -> &'static str {
        match self {
            TraceFormat::JsonLines => "jsonl",
            TraceFormat::Binary => "rftrace",
        }
    }
}

/// Errors produced while reading or writing traces.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed JSON line (1-based line number and reason).
    Parse {
        /// Line number the error was found on.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A malformed binary record or header.
    Malformed(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, reason } => {
                write!(f, "trace parse error on line {line}: {reason}")
            }
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

/// Encodes one report as a JSON object (no trailing newline). Floats use
/// Rust's shortest round-trip formatting, so decoding recovers the exact
/// bits. Non-finite floats have no JSON form; record such reports in the
/// binary framing.
pub fn encode_json_line(r: &TagReport) -> String {
    format!(
        "{{\"epc\":\"{}\",\"tag\":{},\"time\":{},\"phase\":{},\"rss_dbm\":{},\"doppler_hz\":{},\"antenna_port\":{},\"channel_index\":{}}}",
        r.epc.to_hex(), r.tag.0, r.time, r.phase, r.rss_dbm, r.doppler_hz, r.antenna_port, r.channel_index
    )
}

/// Decodes one JSON trace line (field order independent, every field
/// required, nothing else allowed). `line_no` is the 1-based line number
/// used in error messages.
pub fn decode_json_line(line: &str, line_no: usize) -> Result<TagReport, TraceError> {
    report_from_json(line).map_err(|e| TraceError::Parse {
        line: line_no,
        reason: e.to_string(),
    })
}

fn report_from_json(line: &str) -> Result<TagReport, JsonError> {
    let [epc, tag, time, phase, rss_dbm, doppler_hz, antenna_port, channel_index] =
        obs::json::parse(line)?.fields([
            "epc",
            "tag",
            "time",
            "phase",
            "rss_dbm",
            "doppler_hz",
            "antenna_port",
            "channel_index",
        ])?;
    Ok(TagReport {
        epc: Epc96::from_hex(epc.as_str()?).ok_or_else(|| epc.error("expected 24 hex digits"))?,
        tag: TagId(tag.as_uint()?),
        time: time.as_f64()?,
        phase: phase.as_f64()?,
        rss_dbm: rss_dbm.as_f64()?,
        doppler_hz: doppler_hz.as_f64()?,
        antenna_port: antenna_port.as_uint()?,
        channel_index: channel_index.as_uint()?,
    })
}

/// Encodes one report as a length-prefixed binary record.
pub fn encode_binary_record(r: &TagReport) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4 + BINARY_RECORD_LEN);
    buf.put_u32(BINARY_RECORD_LEN as u32);
    buf.put_slice(r.epc.as_bytes());
    buf.put_u64(r.tag.0);
    buf.put_u64(r.time.to_bits());
    buf.put_u64(r.phase.to_bits());
    buf.put_u64(r.rss_dbm.to_bits());
    buf.put_u64(r.doppler_hz.to_bits());
    buf.put_u16(r.antenna_port);
    buf.put_u16(r.channel_index);
    buf.to_vec()
}

/// Reads one length-prefixed binary record, or `None` at a clean
/// end-of-stream. Decodes through a caller-owned scratch buffer, so a
/// replay loop allocates once instead of per record.
pub fn read_binary_record_into<R: Read>(
    reader: &mut R,
    scratch: &mut Vec<u8>,
) -> Result<Option<TagReport>, TraceError> {
    // Read the length prefix byte-wise: zero bytes is a clean end of
    // stream, a *partial* prefix is a truncated frame and must surface as
    // an error, not silently end the trace.
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        match reader.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(TraceError::Malformed(format!(
                    "truncated record length prefix ({filled} of 4 bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len != BINARY_RECORD_LEN {
        return Err(TraceError::Malformed(format!(
            "record length {len}, expected {BINARY_RECORD_LEN}"
        )));
    }
    scratch.clear();
    scratch.resize(len, 0);
    // Same byte-wise discipline for the body: EOF after a valid length
    // prefix is a truncated record, a typed decode fault — not a generic
    // `UnexpectedEof` I/O error and never a silent end of stream.
    let mut filled = 0usize;
    while filled < len {
        match reader.read(&mut scratch[filled..]) {
            Ok(0) => {
                return Err(TraceError::Malformed(format!(
                    "truncated record body ({filled} of {len} bytes)"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let mut buf: &[u8] = scratch;
    let mut epc = [0u8; 12];
    buf.copy_to_slice(&mut epc);
    Ok(Some(TagReport {
        epc: Epc96::from_bytes(epc),
        tag: TagId(buf.get_u64()),
        time: f64::from_bits(buf.get_u64()),
        phase: f64::from_bits(buf.get_u64()),
        rss_dbm: f64::from_bits(buf.get_u64()),
        doppler_hz: f64::from_bits(buf.get_u64()),
        antenna_port: buf.get_u16(),
        channel_index: buf.get_u16(),
    }))
}

/// Writes a complete trace in the given framing.
pub fn write_trace<W: Write>(
    writer: &mut W,
    format: TraceFormat,
    reports: &[TagReport],
) -> Result<(), TraceError> {
    match format {
        TraceFormat::JsonLines => {
            for r in reports {
                writer.write_all(encode_json_line(r).as_bytes())?;
                writer.write_all(b"\n")?;
            }
        }
        TraceFormat::Binary => {
            writer.write_all(&BINARY_MAGIC)?;
            for r in reports {
                writer.write_all(&encode_binary_record(r))?;
            }
        }
    }
    Ok(())
}

/// Writes a complete trace file in the given framing.
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

/// Detects the framing from the first byte of a stream: `{` opens a JSON
/// line, `R` opens the binary magic.
pub fn detect_format(first_byte: u8) -> Result<TraceFormat, TraceError> {
    match first_byte {
        b'{' => Ok(TraceFormat::JsonLines),
        b'R' => Ok(TraceFormat::Binary),
        other => Err(TraceError::Malformed(format!(
            "unrecognized first byte 0x{other:02x} (neither JSON-lines nor binary trace)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ReportSource, SourceError, TraceSource};

    /// Reads a whole trace the one way programs do.
    fn read(bytes: &[u8]) -> Result<Vec<TagReport>, SourceError> {
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
    fn json_lines_round_trip_is_bit_exact() {
        let reports = sample_reports();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::JsonLines, &reports).unwrap();
        let decoded = read(&buf).unwrap();
        assert_eq!(decoded.len(), reports.len());
        for (orig, dec) in reports.iter().zip(&decoded) {
            assert_eq!(orig, dec);
            assert_eq!(orig.time.to_bits(), dec.time.to_bits());
            assert_eq!(orig.phase.to_bits(), dec.phase.to_bits());
        }
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
    fn format_is_autodetected() {
        let reports = sample_reports();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            let mut buf = Vec::new();
            write_trace(&mut buf, format, &reports).unwrap();
            assert_eq!(read(&buf).unwrap(), reports);
        }
    }

    #[test]
    fn empty_trace_reads_empty() {
        assert!(read(&[]).unwrap().is_empty());
    }

    #[test]
    fn garbage_first_byte_rejected() {
        assert!(matches!(
            read(b"\x00\x01\x02"),
            Err(SourceError::Trace(TraceError::Malformed(_)))
        ));
    }

    #[test]
    fn read_binary_record_into_reuses_scratch() {
        let reports = sample_reports();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &reports).unwrap();
        let mut reader = &buf[4..]; // skip magic
        let mut scratch = Vec::new();
        let mut decoded = Vec::new();
        while let Some(r) = read_binary_record_into(&mut reader, &mut scratch).unwrap() {
            decoded.push(r);
            assert_eq!(scratch.len(), BINARY_RECORD_LEN);
        }
        assert_eq!(decoded, reports);
        assert!(scratch.capacity() >= BINARY_RECORD_LEN);
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
    fn malformed_json_line_reports_line_number() {
        match read(b"{\"epc\":\"00\"}\n") {
            Err(SourceError::Trace(TraceError::Parse { line, .. })) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Not JSON, though a comma splitter took them: NaN, a duplicated
        // field, and a leading `+`.
        let line = encode_json_line(&TagReport::synthetic(TagId(3), 1.5, 2.0, -44.0));
        for bad in [
            line.replacen("\"time\":1.5", "\"time\":NaN", 1),
            line.replacen("\"tag\":3", "\"tag\":3,\"tag\":4", 1),
            line.replacen("\"tag\":3", "\"tag\":+1", 1),
        ] {
            let err = decode_json_line(&bad, 7).unwrap_err();
            assert!(matches!(err, TraceError::Parse { line: 7, .. }), "{err}");
        }
    }

    #[test]
    fn field_order_does_not_matter() {
        let r = TagReport::synthetic(TagId(3), 1.5, 2.0, -44.0);
        let line = encode_json_line(&r);
        // Reverse the field order by hand.
        let body = line
            .trim_start_matches('{')
            .trim_end_matches('}')
            .split(',')
            .rev()
            .collect::<Vec<_>>()
            .join(",");
        let reordered = format!("{{{body}}}");
        assert_eq!(decode_json_line(&reordered, 1).unwrap(), r);
    }

    #[test]
    fn extreme_floats_survive_json() {
        let mut r = TagReport::synthetic(TagId(1), 0.1 + 0.2, 1e-15, -45.0);
        r.doppler_hz = -0.0;
        let line = encode_json_line(&r);
        let dec = decode_json_line(&line, 1).unwrap();
        assert_eq!(dec.time.to_bits(), r.time.to_bits());
        assert_eq!(dec.phase.to_bits(), r.phase.to_bits());
        assert_eq!(dec.doppler_hz.to_bits(), r.doppler_hz.to_bits());
    }
}
