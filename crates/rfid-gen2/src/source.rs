//! Pluggable report sources: the recognition stack pulls [`TagReport`]s
//! from a [`ReportSource`] without knowing whether they come from a live
//! reader run, a recorded trace, or (eventually) hardware.

use crate::report::{ReportBatch, TagReport};
use crate::trace::{
    decode_json_line, detect_format, read_binary_record_into, TraceError, TraceFormat,
    BINARY_MAGIC, BINARY_RECORD_LEN,
};
use std::fmt;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Errors surfaced by report sources: the one error type ingest code
/// propagates for anything that goes wrong between a reader (live, trace,
/// or hardware) and the recognition stack.
#[derive(Debug)]
#[non_exhaustive]
pub enum SourceError {
    /// A trace decode or framing failure.
    Trace(TraceError),
    /// An underlying I/O failure outside trace framing.
    Io(std::io::Error),
}

impl fmt::Display for SourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SourceError::Trace(e) => write!(f, "trace source: {e}"),
            SourceError::Io(e) => write!(f, "source I/O error: {e}"),
        }
    }
}

impl std::error::Error for SourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SourceError::Trace(e) => Some(e),
            SourceError::Io(e) => Some(e),
        }
    }
}

impl From<TraceError> for SourceError {
    fn from(e: TraceError) -> Self {
        SourceError::Trace(e)
    }
}

impl From<std::io::Error> for SourceError {
    fn from(e: std::io::Error) -> Self {
        SourceError::Io(e)
    }
}

/// A pull-based stream of tag reports.
///
/// Implementations yield reports in timestamp order and return `None` when
/// the stream is exhausted. The trait is object-safe — ingest engines hold
/// heterogeneous sources as `Box<dyn ReportSource + Send>`.
pub trait ReportSource {
    /// The next report, or `None` at end of stream.
    fn next_report(&mut self) -> Option<TagReport>;

    /// Decodes up to `max` reports into `out`, returning how many were
    /// appended. Returns `0` only at end of stream (or when `max == 0`), so
    /// ingest loops can treat it exactly like a batched `next_report`.
    ///
    /// `out` is **not** cleared — callers reuse one batch across refills by
    /// clearing it themselves, which is the point: one allocation and one
    /// downstream hand-off per batch instead of per report. The default
    /// implementation loops [`next_report`](Self::next_report); sources
    /// with cheaper bulk decodes (e.g. binary [`TraceSource`]) override it.
    fn next_batch(&mut self, max: usize, out: &mut ReportBatch) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_report() {
                Some(r) => {
                    out.push(r);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    /// The error that terminated the stream early, if any. A fully
    /// consumed, well-formed stream leaves this `None`; infallible sources
    /// never set it.
    fn error(&self) -> Option<&SourceError> {
        None
    }

    /// Drains the remaining reports into a vector.
    fn collect_reports(&mut self) -> Vec<TagReport> {
        let mut out = Vec::new();
        while let Some(r) = self.next_report() {
            out.push(r);
        }
        out
    }

    /// Takes ownership of the terminating error, leaving the source with
    /// none recorded. Infallible sources return `None`.
    fn take_error(&mut self) -> Option<SourceError> {
        None
    }

    /// Drains the remaining reports, surfacing the terminating error (if
    /// the stream died mid-way) instead of silently truncating.
    fn try_collect_reports(&mut self) -> Result<Vec<TagReport>, SourceError> {
        let out = self.collect_reports();
        match self.take_error() {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

impl<S: ReportSource + ?Sized> ReportSource for Box<S> {
    fn next_report(&mut self) -> Option<TagReport> {
        (**self).next_report()
    }

    fn next_batch(&mut self, max: usize, out: &mut ReportBatch) -> usize {
        (**self).next_batch(max, out)
    }

    fn error(&self) -> Option<&SourceError> {
        (**self).error()
    }

    fn take_error(&mut self) -> Option<SourceError> {
        (**self).take_error()
    }
}

/// A source backed by an in-memory report stream — typically the events of
/// a live [`crate::reader::ReaderRun`].
#[derive(Debug)]
pub struct LiveSource {
    reports: std::vec::IntoIter<TagReport>,
}

impl LiveSource {
    /// Wraps an already-collected report stream.
    pub fn new(reports: Vec<TagReport>) -> Self {
        Self {
            reports: reports.into_iter(),
        }
    }
}

impl From<crate::reader::ReaderRun> for LiveSource {
    fn from(run: crate::reader::ReaderRun) -> Self {
        Self::new(run.events)
    }
}

impl ReportSource for LiveSource {
    fn next_report(&mut self) -> Option<TagReport> {
        self.reports.next()
    }
}

enum TraceStream<R: BufRead> {
    Json { reader: R, line_no: usize },
    Binary(R),
}

impl<R: BufRead> std::fmt::Debug for TraceStream<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceStream::Json { line_no, .. } => {
                f.debug_struct("Json").field("line_no", line_no).finish()
            }
            TraceStream::Binary(_) => f.write_str("Binary"),
        }
    }
}

/// A source that streams reports from a recorded trace, autodetecting the
/// framing (JSON lines or binary) from the first byte. Records are decoded
/// lazily, so arbitrarily long traces replay in constant memory.
#[derive(Debug)]
pub struct TraceSource<R: BufRead = BufReader<File>> {
    stream: TraceStream<R>,
    error: Option<SourceError>,
    // Decode scratch, reused across records so a replay loop (single-record
    // or batched) allocates once per source rather than once per record.
    scratch: Vec<u8>,
    line: String,
}

impl TraceSource<BufReader<File>> {
    /// Opens a trace file for streaming replay.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, SourceError> {
        Self::from_reader(BufReader::new(File::open(path).map_err(SourceError::Io)?))
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Starts streaming from any buffered reader positioned at the start of
    /// a trace.
    pub fn from_reader(mut reader: R) -> Result<Self, SourceError> {
        let first = reader.fill_buf().map_err(TraceError::from)?;
        let stream = if first.is_empty() {
            // Empty trace: either framing decodes to zero reports.
            TraceStream::Binary(reader)
        } else {
            match detect_format(first[0])? {
                TraceFormat::JsonLines => TraceStream::Json { reader, line_no: 0 },
                TraceFormat::Binary => {
                    // Byte-wise read: a trace that ends inside the magic is
                    // a truncated file, a typed decode fault — not a
                    // generic `UnexpectedEof`.
                    let mut magic = [0u8; 4];
                    let mut filled = 0usize;
                    while filled < magic.len() {
                        match reader.read(&mut magic[filled..]) {
                            Ok(0) => {
                                return Err(TraceError::Malformed(format!(
                                    "truncated magic ({filled} of 4 bytes)"
                                ))
                                .into())
                            }
                            Ok(n) => filled += n,
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(e) => return Err(TraceError::from(e).into()),
                        }
                    }
                    if magic != BINARY_MAGIC {
                        return Err(TraceError::Malformed(format!("bad magic {magic:02x?}")).into());
                    }
                    TraceStream::Binary(reader)
                }
            }
        };
        Ok(Self {
            stream,
            error: None,
            scratch: Vec::with_capacity(BINARY_RECORD_LEN),
            line: String::new(),
        })
    }

    /// The decode error that terminated the stream early, if any. A fully
    /// consumed, well-formed trace leaves this `None`.
    pub fn error(&self) -> Option<&SourceError> {
        self.error.as_ref()
    }

    fn next_inner(&mut self) -> Result<Option<TagReport>, TraceError> {
        let Self {
            stream,
            scratch,
            line,
            ..
        } = self;
        match stream {
            TraceStream::Json { reader, line_no } => loop {
                line.clear();
                if reader.read_line(line)? == 0 {
                    return Ok(None);
                }
                *line_no += 1;
                if line.trim().is_empty() {
                    continue;
                }
                return decode_json_line(line, *line_no).map(Some);
            },
            TraceStream::Binary(reader) => read_binary_record_into(reader, scratch),
        }
    }

    fn record_error(&mut self, e: TraceError) {
        crate::telemetry::reader_metrics().decode_errors.inc();
        obs::warn!("trace decode error terminated the stream: {e}");
        self.error = Some(e.into());
    }
}

impl<R: BufRead> ReportSource for TraceSource<R> {
    fn next_report(&mut self) -> Option<TagReport> {
        if self.error.is_some() {
            return None;
        }
        match self.next_inner() {
            Ok(next) => next,
            Err(e) => {
                self.record_error(e);
                None
            }
        }
    }

    /// A batched decode sharing the source's scratch buffers: the whole
    /// refill runs without touching the allocator, and a mid-batch decode
    /// error ends the batch (and the stream) exactly like
    /// [`next_report`](ReportSource::next_report) would.
    fn next_batch(&mut self, max: usize, out: &mut ReportBatch) -> usize {
        let mut n = 0;
        while n < max && self.error.is_none() {
            match self.next_inner() {
                Ok(Some(r)) => {
                    out.push(r);
                    n += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    self.record_error(e);
                    break;
                }
            }
        }
        n
    }

    fn error(&self) -> Option<&SourceError> {
        self.error.as_ref()
    }

    fn take_error(&mut self) -> Option<SourceError> {
        self.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::write_trace;
    use rf_sim::tags::TagId;

    fn sample() -> Vec<TagReport> {
        (0..5)
            .map(|i| TagReport::synthetic(TagId(i), i as f64 * 0.1, 1.0 + i as f64, -45.0))
            .collect()
    }

    #[test]
    fn live_source_yields_in_order() {
        let reports = sample();
        let mut src = LiveSource::new(reports.clone());
        assert_eq!(src.collect_reports(), reports);
        assert!(src.next_report().is_none());
    }

    #[test]
    fn trace_source_streams_both_framings() {
        let reports = sample();
        for format in [TraceFormat::JsonLines, TraceFormat::Binary] {
            let mut buf = Vec::new();
            write_trace(&mut buf, format, &reports).unwrap();
            let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
            assert_eq!(src.collect_reports(), reports);
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
    fn next_batch_default_impl_covers_live_source() {
        let reports = sample();
        let mut src = LiveSource::new(reports.clone());
        let mut batch = ReportBatch::new();
        assert_eq!(src.next_batch(3, &mut batch), 3);
        assert_eq!(src.next_batch(3, &mut batch), 2, "partial final batch");
        assert_eq!(src.next_batch(3, &mut batch), 0, "exhausted");
        assert_eq!(batch, reports);
    }

    #[test]
    fn next_batch_appends_without_clearing() {
        let mut src = LiveSource::new(sample());
        let mut batch = ReportBatch::new();
        batch.push(TagReport::synthetic(TagId(42), 9.0, 0.0, -50.0));
        src.next_batch(2, &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0].tag, TagId(42));
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

    #[test]
    fn next_batch_forwards_through_box() {
        let reports = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &reports).unwrap();
        let mut boxed: Box<dyn ReportSource + Send> =
            Box::new(TraceSource::from_reader(buf.as_slice()).unwrap());
        assert_eq!(drain_batched(&mut boxed, 2), reports);
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
        let drained = src.collect_reports();
        assert!(drained.len() < 5);
        assert!(src.error().is_some());
    }

    #[test]
    fn truncated_binary_frame_is_typed_not_panic() {
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        // Cut inside the length prefix of the final record: a partial
        // prefix is a truncated frame, not a clean end of stream.
        buf.truncate(buf.len() - (4 + crate::trace::BINARY_RECORD_LEN) + 2);
        let mut src = TraceSource::from_reader(buf.as_slice()).unwrap();
        match src.try_collect_reports() {
            Err(SourceError::Trace(TraceError::Malformed(reason))) => {
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
            Err(SourceError::Trace(TraceError::Malformed(reason))) => {
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
        let drained = src.collect_reports();
        assert_eq!(drained, reports, "well-formed prefix still decodes");
        match src.take_error() {
            Some(SourceError::Trace(TraceError::Parse { line, .. })) => {
                assert_eq!(line, reports.len() + 1);
            }
            other => panic!("expected parse error with line number, got {other:?}"),
        }
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
            Err(SourceError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected I/O error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn garbage_first_byte_is_typed_malformed() {
        match TraceSource::from_reader(&b"\x00\x01\x02"[..]) {
            Err(SourceError::Trace(TraceError::Malformed(_))) => {}
            other => panic!("expected malformed error, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn sources_are_object_safe_and_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LiveSource>();
        assert_send::<TraceSource>();
        assert_send::<SourceError>();
        assert_send::<Box<dyn ReportSource + Send>>();

        // Heterogeneous boxed sources drain through the same trait object.
        let mut buf = Vec::new();
        write_trace(&mut buf, TraceFormat::Binary, &sample()).unwrap();
        let boxed: Vec<Box<dyn ReportSource + Send>> = vec![
            Box::new(LiveSource::new(sample())),
            Box::new(TraceSource::from_reader(std::io::Cursor::new(buf)).unwrap()),
        ];
        for mut src in boxed {
            assert_eq!(src.try_collect_reports().unwrap(), sample());
        }
    }
}
