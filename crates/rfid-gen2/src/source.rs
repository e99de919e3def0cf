//! The report source: the recognition stack pulls [`TagReport`]s from a
//! [`ReportSource`] without knowing where they were recorded.
//! [`TraceSource`] streams them from a trace.

use crate::report::{ReportBatch, TagReport};
use crate::trace::{read_record, read_up_to, TraceError, BINARY_MAGIC};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

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

/// A source that streams reports from a recorded trace. Records are
/// decoded in place from the reader's buffer, so arbitrarily long traces
/// replay in constant memory.
#[derive(Debug)]
pub struct TraceSource<R: BufRead = BufReader<File>> {
    // `None` once the stream has ended on an error, or for an empty trace.
    reader: Option<R>,
    error: Option<TraceError>,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file for streaming replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        Self::from_reader(BufReader::new(File::open(path)?))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Starts streaming from any buffered reader positioned at the start of
    /// a trace. An empty input is an empty trace; any other input must open
    /// with [`BINARY_MAGIC`], and is refused after at most its first four
    /// bytes are read.
    pub fn from_reader(mut reader: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 4];
        let got = read_up_to(&mut reader, &mut magic)?;
        if magic[..got] != BINARY_MAGIC[..got] {
            return Err(TraceError::Malformed(format!(
                "bad magic {:02x?}",
                &magic[..got]
            )));
        }
        let reader = match got {
            0 => None,
            4 => Some(reader),
            // A trace that ends inside the magic is a truncated file, a
            // typed decode fault — not a generic `UnexpectedEof`.
            _ => {
                return Err(TraceError::Malformed(format!(
                    "truncated magic ({got} of 4 bytes)"
                )))
            }
        };
        Ok(Self {
            reader,
            error: None,
        })
    }

    fn next_inner(&mut self) -> Result<Option<TagReport>, TraceError> {
        match &mut self.reader {
            Some(reader) => read_record(reader),
            None => Ok(None),
        }
    }

    /// Ends the stream on its first error, so a dead source stays dead.
    fn end(&mut self, e: TraceError) {
        crate::telemetry::reader_metrics().decode_errors.inc();
        obs::warn!("trace decode error terminated the stream: {e}");
        self.reader = None;
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
    use crate::trace::{write_trace, TraceFormat, BINARY_RECORD_LEN, RECORD_LEN};
    use crate::wire::{encode_frame_v, Frame, WIRE_VERSION_V1};
    use rf_sim::tags::TagId;
    use std::io::Read;

    fn sample() -> Vec<TagReport> {
        (0..5)
            .map(|i| TagReport::synthetic(TagId(i), i as f64 * 0.1, 1.0 + i as f64, -45.0))
            .collect()
    }

    /// `reports` in both framings of the 60-byte record, each behind the
    /// trace magic: as `write_trace` writes a trace, and as the records an
    /// RFIW BATCH frame carries.
    fn both_framings(reports: &[TagReport]) -> [(&'static str, Vec<u8>); 2] {
        let mut trace = Vec::new();
        write_trace(&mut trace, TraceFormat::Binary, reports).unwrap();
        let frame = encode_frame_v(
            &Frame::Batch {
                session: "s".into(),
                seq: 0,
                reports: reports.to_vec(),
                trace: None,
            },
            WIRE_VERSION_V1,
        );
        // A version 1 BATCH frame ends with its records.
        let mut batch = BINARY_MAGIC.to_vec();
        batch.extend_from_slice(&frame[frame.len() - reports.len() * RECORD_LEN..]);
        [("trace", trace), ("BATCH", batch)]
    }

    #[test]
    fn trace_source_streams_both_framings() {
        let reports = sample();
        for (framing, bytes) in both_framings(&reports) {
            let mut src = TraceSource::from_reader(bytes.as_slice()).unwrap();
            assert_eq!(
                src.try_collect_reports().unwrap(),
                reports,
                "framing {framing}"
            );
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
        for (framing, bytes) in both_framings(&reports) {
            for max in [1, 2, 5, 64] {
                let mut src = TraceSource::from_reader(bytes.as_slice()).unwrap();
                assert_eq!(
                    drain_batched(&mut src, max),
                    reports,
                    "framing {framing} max={max}"
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
    fn a_stream_without_the_magic_is_refused_after_one_buffer_fill() {
        let mut reader = BufReader::new(EndlessLine { read: 0 });
        let capacity = reader.capacity();
        match TraceSource::from_reader(&mut reader) {
            Err(TraceError::Malformed(reason)) => {
                assert_eq!(reason, "bad magic [7b, 20, 20, 20]")
            }
            other => panic!("expected a bad-magic error, got {:?}", other.map(|_| ())),
        }
        let read = reader.get_ref().read;
        assert!(read <= capacity, "read {read} bytes");
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
