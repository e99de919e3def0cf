//! The report source: the recognition stack pulls [`TagReport`]s from a
//! [`ReportSource`] without knowing where they were recorded.
//! [`TraceSource`] streams them from a trace.

use crate::report::{ReportBatch, TagReport};
use crate::trace::{
    decode_json_line, detect_format, read_record, read_up_to, TraceError, TraceFormat, BINARY_MAGIC,
};
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;

/// Longest JSON trace line accepted, newline excluded. The longest line
/// [`crate::trace::encode_json_line`] writes is about 1.5 KB (four
/// 327-character subnormal floats); a longer line is refused before more
/// than this much of it is read.
const MAX_JSON_LINE_LEN: usize = 4096;

/// A pull-based stream of tag reports.
///
/// Implementations yield reports in timestamp order. A decode or I/O
/// error ends the stream for good; [`error`](Self::error) says what it
/// was.
pub trait ReportSource {
    /// The next report, or `None` at end of stream.
    fn next_report(&mut self) -> Option<TagReport>;

    /// Decodes up to `max` reports into `out`, returning how many were
    /// appended. Returns `0` only at end of stream (or when `max == 0`), so
    /// ingest loops can treat it exactly like a batched `next_report`.
    ///
    /// `out` is **not** cleared — callers reuse one batch across refills by
    /// clearing it themselves, which is the point: one allocation and one
    /// downstream hand-off per batch instead of per report.
    fn next_batch(&mut self, max: usize, out: &mut ReportBatch) -> usize;

    /// The error that terminated the stream early, if any. A fully
    /// consumed, well-formed stream leaves this `None`.
    fn error(&self) -> Option<&TraceError>;

    /// Takes ownership of the terminating error, leaving the source with
    /// none recorded. The stream stays ended.
    fn take_error(&mut self) -> Option<TraceError>;

    /// Drains the remaining reports, surfacing the terminating error (if
    /// the stream died mid-way) instead of silently truncating.
    fn try_collect_reports(&mut self) -> Result<Vec<TagReport>, TraceError> {
        let mut out = Vec::new();
        self.next_batch(usize::MAX, &mut out);
        match self.take_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

enum TraceStream<R: BufRead> {
    Json {
        reader: R,
        line_no: usize,
    },
    Binary(R),
    /// An error ended the stream and the reader is dropped.
    Ended,
}

impl<R: BufRead> std::fmt::Debug for TraceStream<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStream::Json { line_no, .. } => {
                f.debug_struct("Json").field("line_no", line_no).finish()
            }
            TraceStream::Binary(_) => f.write_str("Binary"),
            TraceStream::Ended => f.write_str("Ended"),
        }
    }
}

/// A source that streams reports from a recorded trace, autodetecting the
/// framing (JSON lines or binary) from the first byte. Binary records are
/// decoded in place from the reader's buffer and JSON lines are bounded,
/// so arbitrarily long traces replay in constant memory.
#[derive(Debug)]
pub struct TraceSource<R: BufRead = BufReader<File>> {
    stream: TraceStream<R>,
    error: Option<TraceError>,
    // The JSON line being decoded, reused across lines.
    line: Vec<u8>,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file for streaming replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Starts streaming from any buffered reader positioned at the start of
    /// a trace.
    pub fn from_reader(mut reader: R) -> Result<Self, TraceError> {
        let stream = match reader.fill_buf()?.first() {
            // Empty trace: either framing decodes to zero reports.
            None => TraceStream::Binary(reader),
            Some(&first) => match detect_format(first)? {
                TraceFormat::JsonLines => TraceStream::Json { reader, line_no: 0 },
                TraceFormat::Binary => {
                    // A trace that ends inside the magic is a truncated
                    // file, a typed decode fault — not a generic
                    // `UnexpectedEof`.
                    let mut magic = [0u8; 4];
                    let got = read_up_to(&mut reader, &mut magic)?;
                    if got < magic.len() {
                        return Err(TraceError::Malformed(format!(
                            "truncated magic ({got} of 4 bytes)"
                        )));
                    }
                    if magic != BINARY_MAGIC {
                        return Err(TraceError::Malformed(format!("bad magic {magic:02x?}")));
                    }
                    TraceStream::Binary(reader)
                }
            },
        };
        Ok(Self {
            stream,
            error: None,
            line: Vec::new(),
        })
    }

    fn next_inner(&mut self) -> Result<Option<TagReport>, TraceError> {
        match &mut self.stream {
            TraceStream::Json { reader, line_no } => loop {
                self.line.clear();
                let limit = MAX_JSON_LINE_LEN as u64 + 1;
                if reader
                    .by_ref()
                    .take(limit)
                    .read_until(b'\n', &mut self.line)?
                    == 0
                {
                    return Ok(None);
                }
                *line_no += 1;
                let parse_error = |reason: String| TraceError::Parse {
                    line: *line_no,
                    reason,
                };
                let text = self.line.strip_suffix(b"\n").unwrap_or(&self.line);
                if text.len() > MAX_JSON_LINE_LEN {
                    return Err(parse_error(format!(
                        "line longer than {MAX_JSON_LINE_LEN} bytes"
                    )));
                }
                let text = std::str::from_utf8(text)
                    .map_err(|e| parse_error(format!("line is not UTF-8: {e}")))?;
                if text.trim().is_empty() {
                    continue;
                }
                return decode_json_line(text, *line_no).map(Some);
            },
            TraceStream::Binary(reader) => read_record(reader),
            TraceStream::Ended => Ok(None),
        }
    }

    /// Ends the stream on its first error, so a dead source stays dead.
    fn end(&mut self, e: TraceError) {
        crate::telemetry::reader_metrics().decode_errors.inc();
        obs::warn!("trace decode error terminated the stream: {e}");
        self.stream = TraceStream::Ended;
        self.error = Some(e);
    }
}

impl<R: BufRead> ReportSource for TraceSource<R> {
    fn next_report(&mut self) -> Option<TagReport> {
        self.next_inner().unwrap_or_else(|e| {
            self.end(e);
            None
        })
    }

    /// A batched decode: the whole refill runs without touching the
    /// allocator, and a mid-batch decode error ends the batch (and the
    /// stream) exactly like [`next_report`](ReportSource::next_report)
    /// would.
    fn next_batch(&mut self, max: usize, out: &mut ReportBatch) -> usize {
        let start = out.len();
        while out.len() - start < max {
            match self.next_inner() {
                Ok(Some(r)) => out.push(r),
                Ok(None) => break,
                Err(e) => {
                    self.end(e);
                    break;
                }
            }
        }
        out.len() - start
    }

    fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    fn take_error(&mut self) -> Option<TraceError> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{encode_json_line, write_trace, BINARY_RECORD_LEN, RECORD_LEN};
    use rf_sim::tags::TagId;

    fn sample() -> Vec<TagReport> {
        (0..5)
            .map(|i| TagReport::synthetic(TagId(i), i as f64 * 0.1, 1.0 + i as f64, -45.0))
            .collect()
    }

    #[test]
    fn trace_source_streams_both_framings() {
        let reports = sample();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            let mut buf = Vec::new();
            write_trace(&mut buf, format, &reports).unwrap();
            let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
            assert_eq!(src.try_collect_reports().unwrap(), reports);
            assert!(src.error().is_none());
        }
    }

    fn drain_batched(src: &mut impl ReportSource, max: usize) -> Vec<TagReport> {
        let mut batch = ReportBatch::new();
        let mut out = Vec::new();
        loop {
            batch.clear();
            let n = src.next_batch(max, &mut batch);
            assert_eq!(n, batch.len());
            if n == 0 {
                return out;
            }
            out.extend_from_slice(&batch);
        }
    }

    #[test]
    fn next_batch_matches_serial_for_both_framings() {
        let reports = sample();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            for max in [1, 2, 5, 64] {
                let mut buf = Vec::new();
                write_trace(&mut buf, format, &reports).unwrap();
                let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
                assert_eq!(
                    drain_batched(&mut src, max),
                    reports,
                    "{format:?} max={max}"
                );
                assert!(src.error().is_none());
            }
        }
    }

    #[test]
    fn next_batch_appends_without_clearing() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        let mut batch = ReportBatch::new();
        batch.push(TagReport::synthetic(TagId(42), 9.0, 0.0, -50.0));
        assert_eq!(src.next_batch(2, &mut batch), 2);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].tag, TagId(42));
        assert_eq!(batch[1..], sample()[..2]);
    }

    #[test]
    fn next_batch_surfaces_decode_error_like_serial() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        buf.truncate(buf.len() - 5);
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        let mut batch = ReportBatch::new();
        let n = src.next_batch(64, &mut batch);
        assert_eq!(n, 4, "well-formed prefix decodes before the error");
        assert!(src.error().is_some());
        assert_eq!(src.next_batch(64, &mut batch), 0, "stream stays dead");
    }

    /// Every report and the error text (if any) of reading `bytes` as a
    /// trace.
    fn read_all<R: BufRead>(reader: R) -> (Vec<TagReport>, Option<String>) {
        match TraceSource::from_reader(reader) {
            Ok(mut src) => {
                let mut out = Vec::new();
                while src.next_batch(3, &mut out) > 0 {}
                (out, src.take_error().map(|e| e.to_string()))
            }
            Err(e) => (Vec::new(), Some(e.to_string())),
        }
    }

    #[test]
    fn records_straddling_a_refill_read_like_one_slice() {
        let reports: Vec<TagReport> = (0..7)
            .map(|i| TagReport::synthetic(TagId(i), i as f64 * 0.1, 1.0 + i as f64, -45.0))
            .collect();
        let mut bytes = Vec::new();
        write_trace(&mut bytes, TraceFormat::Binary, &reports).unwrap();
        // A bad length prefix is refused before its body is read, whether
        // the record sits in the buffer or straddles a refill.
        let mut bad_len = bytes.clone();
        bad_len[4 + 3 * RECORD_LEN + 3] = 57;
        for bytes in [&bytes, &bad_len] {
            for cut in 0..=bytes.len() {
                let whole = read_all(&bytes[..cut]);
                for capacity in [1, 3, 59, 60, 61, 64, 8192] {
                    let buffered = read_all(BufReader::with_capacity(capacity, &bytes[..cut]));
                    assert_eq!(buffered, whole, "cut {cut}, capacity {capacity}");
                }
            }
        }
        let texts = [
            (
                4 + 2 * RECORD_LEN + 30,
                &bytes,
                "truncated record body (26 of 56 bytes)",
            ),
            (
                4 + 2 * RECORD_LEN + 3,
                &bytes,
                "truncated record length prefix (3 of 4 bytes)",
            ),
            (
                4 + 3 * RECORD_LEN + 10,
                &bad_len,
                "record length 57, expected 56",
            ),
            (2, &bytes, "truncated magic (2 of 4 bytes)"),
        ];
        for (cut, bytes, text) in texts {
            let error = read_all(BufReader::with_capacity(7, &bytes[..cut])).1;
            assert_eq!(error, Some(format!("malformed binary trace: {text}")));
        }
    }

    #[test]
    fn trace_source_empty_stream_is_empty() {
        let mut src = TraceSource::from_reader(&[][..]).unwrap();
        assert!(src.next_report().is_none());
        assert!(src.error().is_none());
    }

    #[test]
    fn trace_source_surfaces_decode_error() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        buf.truncate(buf.len() - 5);
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        let mut drained = Vec::new();
        while let Some(r) = src.next_report() {
            drained.push(r);
        }
        assert!(drained.len() < 5);
        assert!(src.error().is_some());
    }

    #[test]
    fn truncated_binary_frame_is_typed_not_panic() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        // Cut inside the length prefix of the final record: a partial
        // prefix is a truncated frame, not a clean end of stream.
        buf.truncate(buf.len() - (4 + BINARY_RECORD_LEN) + 2);
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        match src.try_collect_reports() {
            Err(TraceError::Malformed(reason)) => {
                assert!(reason.contains("length prefix"), "{reason}");
            }
            other => panic!("expected truncated-frame error, got {other:?}"),
        }
        // The error was taken; the source is drained and quiescent.
        assert!(src.error().is_none());
        assert!(src.next_report().is_none());
    }

    #[test]
    fn corrupt_binary_length_prefix_is_malformed() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        // Overwrite the first record's length prefix with nonsense.
        buf[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        match src.try_collect_reports() {
            Err(TraceError::Malformed(reason)) => {
                assert!(reason.contains("record length"), "{reason}");
            }
            other => panic!("expected malformed-record error, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_json_line_is_typed_with_line_number() {
        let reports = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::JsonLines, &reports).unwrap();
        buf.extend_from_slice(b"{\"epc\":\"nope\"}\n");
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        let mut drained = Vec::new();
        src.next_batch(usize::MAX, &mut drained);
        assert_eq!(drained, reports, "well-formed prefix still decodes");
        match src.take_error() {
            Some(TraceError::Parse { line, .. }) => {
                assert_eq!(line, reports.len() + 1);
            }
            other => panic!("expected parse error with line number, got {other:?}"),
        }
    }

    #[test]
    fn the_longest_json_line_the_encoder_writes_decodes() {
        // The longest `Display` form of an f64: a negative subnormal.
        let longest = -f64::from_bits(1);
        assert_eq!(longest.to_string().len(), 327);
        let mut r = TagReport::synthetic(TagId(u64::MAX), longest, longest, longest);
        r.doppler_hz = longest;
        r.antenna_port = u16::MAX;
        r.channel_index = u16::MAX;
        let line = encode_json_line(&r, 0).unwrap();
        assert!(
            line.len() > 1300 && line.len() < MAX_JSON_LINE_LEN,
            "{}",
            line.len()
        );
        let text = format!("{line}\n");
        let mut src = TraceSource::from_reader(text.as_bytes()).unwrap();
        let read = src.try_collect_reports().unwrap();
        assert_eq!(read.len(), 1);
        assert_eq!(read[0].time.to_bits(), longest.to_bits());
        assert_eq!(read[0].doppler_hz.to_bits(), longest.to_bits());
    }

    /// A reader of `{` and then spaces without end, counting what it hands
    /// out.
    struct EndlessLine {
        read: usize,
    }

    impl Read for EndlessLine {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let limit = 64 << 20;
            let n = buf.len().min(limit - self.read);
            for (i, b) in buf[..n].iter_mut().enumerate() {
                *b = if self.read + i == 0 { b'{' } else { b' ' };
            }
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn an_overlong_json_line_is_refused_after_a_bounded_read() {
        let mut reader = BufReader::new(EndlessLine { read: 0 });
        let mut src = TraceSource::from_reader(&mut reader).unwrap();
        assert!(src.next_report().is_none());
        match src.take_error() {
            Some(TraceError::Parse { line: 1, reason }) => {
                assert!(reason.contains("longer than 4096 bytes"), "{reason}")
            }
            other => panic!("expected an over-long line error, got {other:?}"),
        }
        drop(src);
        let read = reader.get_ref().read;
        assert!(read <= MAX_JSON_LINE_LEN + 1 + 8192, "read {read} bytes");
    }

    #[test]
    fn empty_file_opens_and_yields_nothing() {
        let path =
            std::env::temp_dir().join(format!("rfipad-empty-trace-{}.rftrace", std::process::id()));
        std::fs::write(&path, b"").unwrap();
        let mut src = TraceSource::open(&path).unwrap();
        assert_eq!(src.try_collect_reports().unwrap(), Vec::new());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_typed_io_error() {
        match TraceSource::open("/nonexistent/rfipad/trace.rftrace") {
            Err(TraceError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected I/O error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn garbage_first_byte_is_typed_malformed() {
        match TraceSource::from_reader(&b"\x00\x01\x02"[..]) {
            Err(TraceError::Malformed(_)) => {}
            other => panic!("expected malformed error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn sources_are_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceSource>();
        assert_send::<TraceError>();
        assert_send::<Box<dyn ReportSource + Send>>();

        // Sources over different readers drain through the same trait
        // object.
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        let boxed: Vec<Box<dyn ReportSource + Send>> = vec![
            Box::new(TraceSource::from_reader(std::io::Cursor::new(buf.clone())).unwrap()),
            Box::new(TraceSource::from_reader(BufReader::new(std::io::Cursor::new(buf))).unwrap()),
        ];
        for mut src in boxed {
            assert_eq!(src.try_collect_reports().unwrap(), sample());
        }
    }
}
