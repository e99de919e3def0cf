//! Trace record/replay: serializing the report stream to disk and back.
//!
//! Two framings of the same [`TagReport`] stream:
//!
//! - **JSON lines** (`.jsonl`): one self-describing JSON object per line —
//!   greppable, diffable, and editable. Floats are printed with Rust's
//!   shortest round-trip formatting, so a decoded trace is bit-identical
//!   to the recorded stream. The codec writes each line with `format!` and
//!   reads it with the strict `obs::json` reader. JSON has no NaN or
//!   infinity, so a report holding one is refused, not written.
//! - **Binary** (`.rftrace`): a 4-byte magic (`RFT1`) followed by
//!   fixed-layout 60-byte records: a big-endian `u32` length prefix,
//!   always [`BINARY_RECORD_LEN`], then the fields, big-endian, floats as
//!   IEEE-754 bits — compact and exact by construction. `encode_record`
//!   and `decode_record` hold the layout; RFIW BATCH frames carry the same
//!   records.
//!
//! Traces are read back through [`crate::source::TraceSource`], which
//! autodetects the framing from the first byte, so replay tooling never
//! needs to be told which flavour a file is.

use crate::epc::Epc96;
use crate::report::TagReport;
use obs::json::JsonError;
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
    /// A report JSON lines cannot hold: a float field that is NaN or
    /// infinite. The binary framing holds any bits.
    NonFinite {
        /// The report's position in the written stream, from 0.
        report: usize,
        /// The field's JSON name.
        field: &'static str,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::Parse { line, reason } => {
                write!(f, "trace parse error on line {line}: {reason}")
            }
            TraceError::Malformed(reason) => write!(f, "malformed binary trace: {reason}"),
            TraceError::NonFinite { report, field } => write!(
                f,
                "report {report} has a non-finite {field}, which JSON lines cannot hold"
            ),
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
/// bits. `report` is the report's position in the stream, named in the
/// error.
///
/// # Errors
///
/// [`TraceError::NonFinite`] for the first float field that is NaN or
/// infinite: JSON has no form for it, so no line is produced. Record such
/// reports in the binary framing.
pub fn encode_json_line(r: &TagReport, report: usize) -> Result<String, TraceError> {
    let floats = [
        ("time", r.time),
        ("phase", r.phase),
        ("rss_dbm", r.rss_dbm),
        ("doppler_hz", r.doppler_hz),
    ];
    if let Some(&(field, _)) = floats.iter().find(|(_, v)| !v.is_finite()) {
        return Err(TraceError::NonFinite { report, field });
    }
    Ok(format!(
        "{{\"epc\":\"{}\",\"tag\":{},\"time\":{},\"phase\":{},\"rss_dbm\":{},\"doppler_hz\":{},\"antenna_port\":{},\"channel_index\":{}}}",
        r.epc.to_hex(), r.tag.0, r.time, r.phase, r.rss_dbm, r.doppler_hz, r.antenna_port, r.channel_index
    ))
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

/// Writes a complete trace in the given framing.
///
/// # Errors
///
/// An I/O failure, or in JSON lines [`TraceError::NonFinite`] for the
/// first report with a NaN or infinite float; the reports before it are
/// written, it and those after it are not.
pub fn write_trace<W: Write>(
    writer: &mut W,
    format: TraceFormat,
    reports: &[TagReport],
) -> Result<(), TraceError> {
    match format {
        TraceFormat::JsonLines => {
            for (i, r) in reports.iter().enumerate() {
                writer.write_all(encode_json_line(r, i)?.as_bytes())?;
                writer.write_all(b"\n")?;
            }
        }
        TraceFormat::Binary => {
            writer.write_all(&BINARY_MAGIC)?;
            for r in reports {
                writer.write_all(&encode_record(r))?;
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
    fn malformed_json_line_reports_line_number() {
        match read(b"{\"epc\":\"00\"}\n") {
            Err(TraceError::Parse { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        // Not JSON, though a comma splitter took them: NaN, a duplicated
        // field, and a leading `+`.
        let line = encode_json_line(&TagReport::synthetic(TagId(3), 1.5, 2.0, -44.0), 0).unwrap();
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
        let line = encode_json_line(&r, 0).unwrap();
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
        let line = encode_json_line(&r, 0).unwrap();
        let dec = decode_json_line(&line, 1).unwrap();
        assert_eq!(dec.time.to_bits(), r.time.to_bits());
        assert_eq!(dec.phase.to_bits(), r.phase.to_bits());
        assert_eq!(dec.doppler_hz.to_bits(), r.doppler_hz.to_bits());
    }

    #[test]
    fn non_finite_floats_are_refused_in_json_lines_and_kept_in_binary() {
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
                match write_trace(&mut buf, TraceFormat::JsonLines, &hostile) {
                    Err(TraceError::NonFinite {
                        report: 2,
                        field: f,
                    }) => assert_eq!(f, field),
                    other => panic!("{field} = {bad}: expected a refusal, got {other:?}"),
                }
                // The reports before it are whole lines; its line is not written.
                assert_eq!(read(&buf).unwrap(), reports[..2]);

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
