//! The RFIPad ingest wire protocol: length-prefixed report-batch frames
//! with session multiplexing, plus the client codec.
//!
//! A deployment streams reader output to a recognition server over TCP
//! (the role LLRP plays between a Speedway reader and its host). This
//! module defines that boundary for `rfipad::serve`:
//!
//! - a 6-byte versioned handshake (`RFIW` + `u16` version), sent by the
//!   client and answered by the server with the negotiated version (the
//!   minimum of the two) before any frame;
//! - frames of `u32` big-endian payload length + payload, where the first
//!   payload byte is the frame type;
//! - client → server frames [`Frame::Open`], [`Frame::Batch`] (carrying
//!   the [`trace`](crate::trace) length-prefixed binary record encoding,
//!   bit-lossless), and [`Frame::Close`], each tagged with the session id
//!   it targets so one connection multiplexes many sessions;
//! - server → client responses [`Frame::Ack`], [`Frame::Shed`],
//!   [`Frame::Closed`], and [`Frame::Error`].
//!
//! The protocol is lock-step: every client frame gets exactly one
//! response. Backpressure needs no extra machinery — a server that blocks
//! on a full session queue simply delays its ACK, and a lossy server
//! reports what it evicted in a SHED. [`IngestClient`] wraps the exchange
//! for callers.
//!
//! Version 2 adds an **optional trace-context block** to OPEN and BATCH:
//! a presence byte followed (when present) by a 64-bit trace id and a
//! 64-bit parent span id, so a client can tie its batches into an
//! end-to-end trace. The block only exists on the wire when version 2 was
//! negotiated — a v1 peer's byte stream is bit-identical to before, and a
//! v2 encoder talking to a v1 server silently drops the context.
//!
//! Framing and handshake are transport-agnostic (`Read`/`Write`); only
//! [`IngestClient::connect`] assumes TCP.

use crate::report::{ReportBatch, TagReport};
use crate::trace::{decode_record, encode_record, read_up_to, TraceError, RECORD_LEN};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Magic bytes opening the handshake in both directions.
pub const WIRE_MAGIC: [u8; 4] = *b"RFIW";

/// Newest protocol version this codec speaks (adds the optional
/// trace-context block on OPEN/BATCH).
pub const WIRE_VERSION: u16 = 2;

/// Oldest protocol version this codec still accepts.
pub const MIN_WIRE_VERSION: u16 = 1;

/// The version without trace context; its frames are bit-identical to the
/// original protocol.
pub const WIRE_VERSION_V1: u16 = 1;

/// Byte length of the handshake (magic + version).
pub const HANDSHAKE_LEN: usize = 6;

/// Default cap on one frame's payload length. Generous: a 1 MiB frame
/// holds ~18k reports, two orders of magnitude above the batch sizes the
/// engine wants.
pub const DEFAULT_MAX_FRAME_LEN: usize = 1 << 20;

/// Frame type byte: client opens a session.
pub const FRAME_OPEN: u8 = 0x01;
/// Frame type byte: client delivers a report batch to a session.
pub const FRAME_BATCH: u8 = 0x02;
/// Frame type byte: client closes a session.
pub const FRAME_CLOSE: u8 = 0x03;
/// Frame type byte: server accepted a frame in full.
pub const FRAME_ACK: u8 = 0x81;
/// Frame type byte: server accepted a batch but shed older reports.
pub const FRAME_SHED: u8 = 0x82;
/// Frame type byte: server closed a session.
pub const FRAME_CLOSED: u8 = 0x83;
/// Frame type byte: server reports an error.
pub const FRAME_ERROR: u8 = 0x7F;

/// [`Frame::Error`] code: handshake version not supported.
pub const ERR_UNSUPPORTED_VERSION: u16 = 1;
/// [`Frame::Error`] code: frame failed to decode.
pub const ERR_MALFORMED: u16 = 2;
/// [`Frame::Error`] code: frame targets a session this connection never
/// opened (or already closed).
pub const ERR_UNKNOWN_SESSION: u16 = 3;
/// [`Frame::Error`] code: OPEN names a session that is already open.
pub const ERR_SESSION_EXISTS: u16 = 4;
/// [`Frame::Error`] code: the engine rejected the operation.
pub const ERR_ENGINE: u16 = 5;
/// [`Frame::Error`] code: frame length exceeds the server's cap.
pub const ERR_TOO_LARGE: u16 = 6;

/// Errors surfaced by the wire codec and [`IngestClient`].
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The peer's handshake or frame violated the protocol.
    Malformed(String),
    /// The peer speaks a protocol version this codec does not.
    UnsupportedVersion(u16),
    /// A frame's payload length exceeds the configured cap.
    FrameTooLarge {
        /// Declared payload length.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The server answered with an error frame.
    Remote {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The connection died mid-exchange.
    Io(std::io::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(msg) => write!(f, "malformed wire data: {msg}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Remote { code, message } => {
                write!(f, "server error {code}: {message}")
            }
            WireError::Io(e) => write!(f, "wire i/o failed: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Trace context a v2 client attaches to OPEN/BATCH frames: which
/// end-to-end trace the frame belongs to and the client-side span it
/// nests under. Plain ids here — `obs::trace` owns the typed view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// 64-bit trace id (0 is reserved and never generated).
    pub trace: u64,
    /// 64-bit parent span id.
    pub parent_span: u64,
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open an engine session under this id.
    Open {
        /// Client-chosen session id (scoped to the connection).
        session: String,
        /// Optional trace context; only on the wire under version ≥ 2.
        trace: Option<TraceContext>,
    },
    /// Client → server: reports for a session, in the lossless binary
    /// trace record encoding.
    Batch {
        /// Target session id.
        session: String,
        /// Client-assigned sequence number, echoed in the response.
        seq: u32,
        /// The reports.
        reports: ReportBatch,
        /// Optional trace context; only on the wire under version ≥ 2.
        trace: Option<TraceContext>,
    },
    /// Client → server: close a session and flush its pipeline.
    Close {
        /// Target session id.
        session: String,
    },
    /// Server → client: the frame was accepted in full.
    Ack {
        /// Session the response concerns.
        session: String,
        /// Sequence number of the batch (0 for OPEN).
        seq: u32,
        /// Reports enqueued by the acknowledged frame.
        accepted: u64,
    },
    /// Server → client: the batch was accepted, but making room evicted
    /// older queued reports (the engine's `DropOldest` policy).
    Shed {
        /// Session the response concerns.
        session: String,
        /// Sequence number of the batch.
        seq: u32,
        /// Reports enqueued by the acknowledged batch.
        accepted: u64,
        /// Older reports evicted to make room.
        dropped: u64,
    },
    /// Server → client: the session closed; its pipeline produced this
    /// many events in total.
    Closed {
        /// Session the response concerns.
        session: String,
        /// Lifetime event count of the closed session.
        events: u64,
    },
    /// Server → client: the request failed.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail.
        message: String,
    },
}

impl Frame {
    /// The frame's type byte.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Open { .. } => FRAME_OPEN,
            Frame::Batch { .. } => FRAME_BATCH,
            Frame::Close { .. } => FRAME_CLOSE,
            Frame::Ack { .. } => FRAME_ACK,
            Frame::Shed { .. } => FRAME_SHED,
            Frame::Closed { .. } => FRAME_CLOSED,
            Frame::Error { .. } => FRAME_ERROR,
        }
    }
}

/// The 6 handshake bytes announcing an explicit `version` — what a server
/// echoes after negotiation, and what a downlevel client sends.
pub fn handshake_bytes_for(version: u16) -> [u8; HANDSHAKE_LEN] {
    let mut hs = [0u8; HANDSHAKE_LEN];
    hs[..4].copy_from_slice(&WIRE_MAGIC);
    hs[4..].copy_from_slice(&version.to_be_bytes());
    hs
}

/// Validates a received handshake and returns the peer's version. Every
/// version in `MIN_WIRE_VERSION..=WIRE_VERSION` is accepted; the caller
/// negotiates by answering with `min(peer, WIRE_VERSION)`.
///
/// # Errors
///
/// [`WireError::Malformed`] on a magic mismatch,
/// [`WireError::UnsupportedVersion`] on a version this codec does not
/// speak.
pub fn check_handshake(hs: &[u8; HANDSHAKE_LEN]) -> Result<u16, WireError> {
    if hs[..4] != WIRE_MAGIC {
        return Err(WireError::Malformed(format!(
            "bad handshake magic {:02x?}",
            &hs[..4]
        )));
    }
    let version = u16::from_be_bytes([hs[4], hs[5]]);
    if !(MIN_WIRE_VERSION..=WIRE_VERSION).contains(&version) {
        return Err(WireError::UnsupportedVersion(version));
    }
    Ok(version)
}

/// Longest session id a frame can carry: its length travels as a `u16`.
const MAX_SESSION_LEN: usize = u16::MAX as usize;

fn put_session(buf: &mut Vec<u8>, session: &str) {
    check_session(session).expect("session id fits its u16 length field");
    buf.extend_from_slice(&(session.len() as u16).to_be_bytes());
    buf.extend_from_slice(session.as_bytes());
}

/// Whether `session` fits a frame. [`IngestClient`] checks before it
/// writes anything; the encoder asserts it.
fn check_session(session: &str) -> Result<(), WireError> {
    if session.len() > MAX_SESSION_LEN {
        return Err(WireError::Malformed(format!(
            "session id of {} bytes exceeds the {MAX_SESSION_LEN}-byte frame limit",
            session.len()
        )));
    }
    Ok(())
}

fn put_trace(buf: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        Some(ctx) => {
            buf.push(1);
            buf.extend_from_slice(&ctx.trace.to_be_bytes());
            buf.extend_from_slice(&ctx.parent_span.to_be_bytes());
        }
        None => buf.push(0),
    }
}

/// Encodes one frame as length prefix + payload in the negotiated
/// `version`'s wire form, ready to write.
///
/// # Panics
///
/// If the frame's session id is longer than 65,535 bytes, the most its
/// `u16` length field can describe. [`IngestClient`] refuses such ids with
/// a typed error before encoding.
pub fn encode_frame_v(frame: &Frame, version: u16) -> Vec<u8> {
    let traced = version >= 2;
    // The length prefix, type byte and fixed fields take at most 64 bytes;
    // a frame adds its session id, records or message.
    let variable = match frame {
        Frame::Batch {
            session, reports, ..
        } => session.len() + reports.len() * RECORD_LEN,
        Frame::Open { session, .. }
        | Frame::Close { session }
        | Frame::Ack { session, .. }
        | Frame::Shed { session, .. }
        | Frame::Closed { session, .. } => session.len(),
        Frame::Error { message, .. } => message.len(),
    };
    let mut buf = Vec::with_capacity(64 + variable);
    // The length prefix, filled in once the payload is written.
    buf.extend_from_slice(&[0; 4]);
    buf.push(frame.type_byte());
    match frame {
        Frame::Open { session, trace } => {
            put_session(&mut buf, session);
            if traced {
                put_trace(&mut buf, trace);
            }
        }
        Frame::Close { session } => put_session(&mut buf, session),
        Frame::Batch {
            session,
            seq,
            reports,
            trace,
        } => {
            put_session(&mut buf, session);
            buf.extend_from_slice(&seq.to_be_bytes());
            buf.extend_from_slice(&(reports.len() as u32).to_be_bytes());
            for r in reports {
                buf.extend_from_slice(&encode_record(r));
            }
            if traced {
                put_trace(&mut buf, trace);
            }
        }
        Frame::Ack {
            session,
            seq,
            accepted,
        } => {
            put_session(&mut buf, session);
            buf.extend_from_slice(&seq.to_be_bytes());
            buf.extend_from_slice(&accepted.to_be_bytes());
        }
        Frame::Shed {
            session,
            seq,
            accepted,
            dropped,
        } => {
            put_session(&mut buf, session);
            buf.extend_from_slice(&seq.to_be_bytes());
            buf.extend_from_slice(&accepted.to_be_bytes());
            buf.extend_from_slice(&dropped.to_be_bytes());
        }
        Frame::Closed { session, events } => {
            put_session(&mut buf, session);
            buf.extend_from_slice(&events.to_be_bytes());
        }
        Frame::Error { code, message } => {
            let len = message.len().min(u16::MAX as usize);
            buf.extend_from_slice(&code.to_be_bytes());
            buf.extend_from_slice(&(len as u16).to_be_bytes());
            buf.extend_from_slice(&message.as_bytes()[..len]);
        }
    }
    let payload_len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&payload_len.to_be_bytes());
    buf
}

/// Checked cursor over a payload slice: every decode error is a typed
/// [`WireError::Malformed`], never a panic on truncated input.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::Malformed(format!(
                "payload truncated in {what} ({} of {n} bytes)",
                self.buf.len()
            )));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn session(&mut self) -> Result<String, WireError> {
        let len = self.u16("session id length")? as usize;
        let bytes = self.take(len, "session id")?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("session id is not UTF-8".into()))
    }

    fn trace(&mut self) -> Result<Option<TraceContext>, WireError> {
        match self.take(1, "trace flag")?[0] {
            0 => Ok(None),
            1 => Ok(Some(TraceContext {
                trace: self.u64("trace id")?,
                parent_span: self.u64("parent span id")?,
            })),
            other => Err(WireError::Malformed(format!(
                "bad trace flag 0x{other:02x}"
            ))),
        }
    }

    fn done(&self, what: &str) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after {what}",
                self.buf.len()
            )))
        }
    }
}

/// Decodes one frame payload (the bytes after the length prefix) in the
/// negotiated `version`'s wire form.
///
/// # Errors
///
/// [`WireError::Malformed`] on an unknown type byte, truncated fields,
/// a record that fails the binary trace decoder, or trailing bytes.
pub fn decode_payload_v(payload: &[u8], version: u16) -> Result<Frame, WireError> {
    let traced = version >= 2;
    let mut c = Cursor { buf: payload };
    let ty = c.take(1, "frame type")?[0];
    let frame = match ty {
        FRAME_OPEN => Frame::Open {
            session: c.session()?,
            trace: if traced { c.trace()? } else { None },
        },
        FRAME_BATCH => {
            let session = c.session()?;
            let seq = c.u32("batch seq")?;
            let count = c.u32("batch count")? as usize;
            // The body is taken, and so bounded by the payload, before
            // anything is allocated for `count` reports.
            let body_len = count
                .checked_mul(RECORD_LEN)
                .ok_or_else(|| WireError::Malformed(format!("batch count {count} overflows")))?;
            let body = c.take(body_len, "batch records")?;
            let mut reports = ReportBatch::with_capacity(count);
            for (i, record) in body.chunks_exact(RECORD_LEN).enumerate() {
                let record = record
                    .try_into()
                    .expect("chunks_exact yields whole records");
                let report = decode_record(record).map_err(|e| {
                    let reason = match e {
                        TraceError::Malformed(reason) => reason,
                        e => e.to_string(),
                    };
                    WireError::Malformed(format!("record {i}: {reason}"))
                })?;
                reports.push(report);
            }
            Frame::Batch {
                session,
                seq,
                reports,
                trace: if traced { c.trace()? } else { None },
            }
        }
        FRAME_CLOSE => Frame::Close {
            session: c.session()?,
        },
        FRAME_ACK => Frame::Ack {
            session: c.session()?,
            seq: c.u32("ack seq")?,
            accepted: c.u64("ack accepted")?,
        },
        FRAME_SHED => Frame::Shed {
            session: c.session()?,
            seq: c.u32("shed seq")?,
            accepted: c.u64("shed accepted")?,
            dropped: c.u64("shed dropped")?,
        },
        FRAME_CLOSED => Frame::Closed {
            session: c.session()?,
            events: c.u64("closed events")?,
        },
        FRAME_ERROR => {
            let code = c.u16("error code")?;
            let len = c.u16("error message length")? as usize;
            let bytes = c.take(len, "error message")?;
            Frame::Error {
                code,
                message: String::from_utf8_lossy(bytes).into_owned(),
            }
        }
        other => {
            return Err(WireError::Malformed(format!(
                "unknown frame type 0x{other:02x}"
            )))
        }
    };
    c.done("frame")?;
    Ok(frame)
}

/// Writes one frame to a stream in the negotiated `version`'s wire form.
///
/// # Errors
///
/// [`WireError::Io`] if the stream dies mid-write.
pub fn write_frame_v<W: Write>(
    writer: &mut W,
    frame: &Frame,
    version: u16,
) -> Result<(), WireError> {
    writer.write_all(&encode_frame_v(frame, version))?;
    Ok(())
}

/// Reads one complete frame from a blocking stream in the negotiated
/// `version`'s wire form. `Ok(None)` is a clean end of stream (EOF before
/// any prefix byte).
///
/// # Errors
///
/// [`WireError::Malformed`] on a mid-frame EOF or a payload that fails
/// [`decode_payload_v`]; [`WireError::FrameTooLarge`] when the declared
/// length exceeds `max_len`; [`WireError::Io`] on transport faults.
pub fn read_frame_v<R: Read>(
    reader: &mut R,
    max_len: usize,
    version: u16,
) -> Result<Option<Frame>, WireError> {
    let mut prefix = [0u8; 4];
    match read_up_to(reader, &mut prefix)? {
        0 => return Ok(None),
        4 => {}
        got => {
            return Err(WireError::Malformed(format!(
                "truncated frame length prefix ({got} of 4 bytes)"
            )))
        }
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > max_len {
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    let mut payload = vec![0u8; len];
    let got = read_up_to(reader, &mut payload)?;
    if got < len {
        return Err(WireError::Malformed(format!(
            "truncated frame payload ({got} of {len} bytes)"
        )));
    }
    decode_payload_v(&payload, version).map(Some)
}

/// What a [`Frame::Ack`] or [`Frame::Shed`] response said about one
/// delivered batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Delivery {
    /// Reports the server enqueued.
    pub accepted: u64,
    /// Older reports the server evicted to make room (0 under lossless
    /// backpressure).
    pub dropped: u64,
}

/// A synchronous client for the ingest protocol: handshake on connect,
/// then lock-step request/response.
///
/// ```no_run
/// # fn demo(batch: rfid_gen2::report::ReportBatch)
/// #     -> Result<(), rfid_gen2::wire::WireError> {
/// let mut client = rfid_gen2::wire::IngestClient::connect("127.0.0.1:7011")?;
/// client.open("pad-1")?;
/// let delivery = client.send_batch("pad-1", 1, batch)?;
/// assert_eq!(delivery.dropped, 0);
/// let events = client.close("pad-1")?;
/// # let _ = events; Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IngestClient<S: Read + Write = TcpStream> {
    stream: S,
    max_frame_len: usize,
    version: u16,
}

impl IngestClient<TcpStream> {
    /// Connects over TCP and completes the handshake.
    ///
    /// # Errors
    ///
    /// Connection faults as [`WireError::Io`]; a server that answers with
    /// the wrong magic or version as [`WireError::Malformed`] /
    /// [`WireError::UnsupportedVersion`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Self::from_stream(stream)
    }
}

impl<S: Read + Write> IngestClient<S> {
    /// Performs the client side of the handshake on an established
    /// bidirectional stream, announcing [`WIRE_VERSION`] and adopting
    /// whatever version the server negotiates down to.
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::connect`].
    pub fn from_stream(stream: S) -> Result<Self, WireError> {
        Self::from_stream_versioned(stream, WIRE_VERSION)
    }

    /// Performs the handshake announcing an explicit `version` — how a
    /// test impersonates a downlevel (v1) client.
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::connect`], plus [`WireError::Malformed`] if
    /// the server "negotiates" a version above the one announced.
    pub fn from_stream_versioned(mut stream: S, version: u16) -> Result<Self, WireError> {
        stream.write_all(&handshake_bytes_for(version))?;
        let mut hs = [0u8; HANDSHAKE_LEN];
        stream.read_exact(&mut hs).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Malformed("server closed during handshake".into())
            } else {
                e.into()
            }
        })?;
        let negotiated = check_handshake(&hs)?;
        if negotiated > version {
            return Err(WireError::Malformed(format!(
                "server negotiated version {negotiated} above the announced {version}"
            )));
        }
        Ok(Self {
            stream,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            version: negotiated,
        })
    }

    /// The wire version negotiated during the handshake.
    pub fn negotiated_version(&self) -> u16 {
        self.version
    }

    /// Sends one frame and reads the server's response, both in the
    /// negotiated version's wire form.
    ///
    /// # Errors
    ///
    /// Transport and codec faults as in [`write_frame_v`] /
    /// [`read_frame_v`]; a server that hangs up instead of responding is
    /// [`WireError::Malformed`].
    pub fn round_trip(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        write_frame_v(&mut self.stream, frame, self.version)?;
        match read_frame_v(&mut self.stream, self.max_frame_len, self.version)? {
            Some(response) => Ok(response),
            None => Err(WireError::Malformed(
                "server closed instead of responding".into(),
            )),
        }
    }

    /// Opens a session on the server.
    ///
    /// # Errors
    ///
    /// A server-side rejection (duplicate id, engine fault) surfaces as
    /// [`WireError::Remote`]; a session id longer than 65,535 bytes is
    /// [`WireError::Malformed`], returned before anything is sent.
    pub fn open(&mut self, session: &str) -> Result<(), WireError> {
        self.open_traced(session, None)
    }

    /// Opens a session carrying trace context (dropped on the wire if the
    /// negotiated version predates tracing).
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::open`].
    pub fn open_traced(
        &mut self,
        session: &str,
        trace: Option<TraceContext>,
    ) -> Result<(), WireError> {
        check_session(session)?;
        let response = self.round_trip(&Frame::Open {
            session: session.into(),
            trace,
        })?;
        match response {
            Frame::Ack { .. } => Ok(()),
            other => Err(Self::unexpected("OPEN", other)),
        }
    }

    /// Delivers one batch and returns what the server did with it.
    ///
    /// # Errors
    ///
    /// [`WireError::Remote`] when the server answers with an error frame
    /// (unknown session, engine fault); transport faults as
    /// [`WireError::Io`]; a session id longer than 65,535 bytes as
    /// [`WireError::Malformed`], before anything is sent.
    pub fn send_batch(
        &mut self,
        session: &str,
        seq: u32,
        reports: ReportBatch,
    ) -> Result<Delivery, WireError> {
        self.send_batch_traced(session, seq, reports, None)
    }

    /// Delivers one batch carrying trace context (dropped on the wire if
    /// the negotiated version predates tracing).
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::send_batch`].
    pub fn send_batch_traced(
        &mut self,
        session: &str,
        seq: u32,
        reports: ReportBatch,
        trace: Option<TraceContext>,
    ) -> Result<Delivery, WireError> {
        check_session(session)?;
        let response = self.round_trip(&Frame::Batch {
            session: session.into(),
            seq,
            reports,
            trace,
        })?;
        match response {
            Frame::Ack {
                accepted, seq: s, ..
            } if s == seq => Ok(Delivery {
                accepted,
                dropped: 0,
            }),
            Frame::Shed {
                accepted,
                dropped,
                seq: s,
                ..
            } if s == seq => Ok(Delivery { accepted, dropped }),
            other => Err(Self::unexpected("BATCH", other)),
        }
    }

    /// Delivers a report slice in `batch_size` chunks, one BATCH frame
    /// per chunk, and returns the accumulated delivery.
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::send_batch`].
    pub fn send_reports(
        &mut self,
        session: &str,
        reports: &[TagReport],
        batch_size: usize,
    ) -> Result<Delivery, WireError> {
        let mut total = Delivery::default();
        for (i, chunk) in reports.chunks(batch_size.max(1)).enumerate() {
            let delivery = self.send_batch(session, i as u32 + 1, chunk.to_vec())?;
            total.accepted += delivery.accepted;
            total.dropped += delivery.dropped;
        }
        Ok(total)
    }

    /// Closes a session, returning its lifetime event count.
    ///
    /// # Errors
    ///
    /// As for [`IngestClient::open`].
    pub fn close(&mut self, session: &str) -> Result<u64, WireError> {
        check_session(session)?;
        let response = self.round_trip(&Frame::Close {
            session: session.into(),
        })?;
        match response {
            Frame::Closed { events, .. } => Ok(events),
            other => Err(Self::unexpected("CLOSE", other)),
        }
    }

    fn unexpected(request: &str, response: Frame) -> WireError {
        match response {
            Frame::Error { code, message } => WireError::Remote { code, message },
            other => WireError::Malformed(format!(
                "unexpected response to {request}: frame type 0x{:02x}",
                other.type_byte()
            )),
        }
    }

    /// The underlying stream, for socket configuration.
    pub fn stream(&self) -> &S {
        &self.stream
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epc::Epc96;
    use rf_sim::tags::TagId;

    fn sample_report(i: u64) -> TagReport {
        TagReport {
            epc: Epc96::for_tag(TagId(i)),
            tag: TagId(i),
            time: 0.7 + i as f64 * 0.013,
            phase: 1.234 + i as f64,
            rss_dbm: -48.25,
            doppler_hz: -0.5,
            antenna_port: 1,
            channel_index: (i % 50) as u16,
        }
    }

    fn round_trip(frame: Frame) -> Frame {
        let bytes = encode_frame_v(&frame, WIRE_VERSION_V1);
        let len = u32::from_be_bytes(bytes[..4].try_into().unwrap()) as usize;
        assert_eq!(len, bytes.len() - 4, "length prefix covers the payload");
        decode_payload_v(&bytes[4..], WIRE_VERSION_V1).expect("decodes")
    }

    #[test]
    fn handshake_round_trips_and_rejects() {
        let hs = handshake_bytes_for(WIRE_VERSION);
        assert_eq!(check_handshake(&hs).expect("valid"), WIRE_VERSION);
        // Every still-supported version is accepted for negotiation.
        for v in MIN_WIRE_VERSION..=WIRE_VERSION {
            assert_eq!(
                check_handshake(&handshake_bytes_for(v)).expect("supported"),
                v
            );
        }
        let mut bad_magic = hs;
        bad_magic[0] = b'X';
        assert!(matches!(
            check_handshake(&bad_magic),
            Err(WireError::Malformed(_))
        ));
        let mut bad_version = hs;
        bad_version[5] = 99;
        assert!(matches!(
            check_handshake(&bad_version),
            Err(WireError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            check_handshake(&handshake_bytes_for(0)),
            Err(WireError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn v2_round_trips_trace_context_and_v1_stays_bit_identical() {
        let ctx = TraceContext {
            trace: 0x0123_4567_89ab_cdef,
            parent_span: 0xfeed_face_cafe_beef,
        };
        let open = Frame::Open {
            session: "pad-1".into(),
            trace: Some(ctx),
        };
        let batch = Frame::Batch {
            session: "pad-1".into(),
            seq: 9,
            reports: (0..3).map(sample_report).collect(),
            trace: Some(ctx),
        };
        for frame in [open.clone(), batch.clone()] {
            // v2 carries the context through.
            let bytes = encode_frame_v(&frame, 2);
            assert_eq!(decode_payload_v(&bytes[4..], 2).expect("decodes v2"), frame);
            // v1 encoding drops it and is bit-identical to encoding the
            // same frame without any context — old peers see old bytes.
            let mut untraced = frame.clone();
            match &mut untraced {
                Frame::Open { trace, .. } | Frame::Batch { trace, .. } => *trace = None,
                _ => unreachable!(),
            }
            assert_eq!(encode_frame_v(&frame, 1), encode_frame_v(&untraced, 1));
            assert_eq!(
                decode_payload_v(&encode_frame_v(&frame, 1)[4..], 1).expect("decodes v1"),
                untraced
            );
        }
        // An absent context in v2 is one flag byte, still round-trips.
        let bare = Frame::Open {
            session: "pad-2".into(),
            trace: None,
        };
        let bytes = encode_frame_v(&bare, 2);
        assert_eq!(bytes.len(), encode_frame_v(&bare, 1).len() + 1);
        assert_eq!(decode_payload_v(&bytes[4..], 2).expect("decodes"), bare);
        // A v2 payload fed to a v1 decoder has trailing bytes — typed error.
        assert!(matches!(
            decode_payload_v(&encode_frame_v(&open, 2)[4..], 1),
            Err(WireError::Malformed(_))
        ));
        // A bad flag byte is typed, not a panic.
        let mut bytes = encode_frame_v(&bare, 2)[4..].to_vec();
        *bytes.last_mut().expect("flag byte") = 7;
        assert!(matches!(
            decode_payload_v(&bytes, 2),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn every_frame_type_round_trips() {
        let reports: ReportBatch = (0..7).map(sample_report).collect();
        for frame in [
            Frame::Open {
                session: "pad-α".into(),
                trace: None,
            },
            Frame::Batch {
                session: "pad-1".into(),
                seq: 42,
                reports: reports.clone(),
                trace: None,
            },
            Frame::Close {
                session: String::new(),
            },
            Frame::Ack {
                session: "s".into(),
                seq: 7,
                accepted: 64,
            },
            Frame::Shed {
                session: "s".into(),
                seq: 8,
                accepted: 64,
                dropped: 12,
            },
            Frame::Closed {
                session: "s".into(),
                events: 3,
            },
            Frame::Error {
                code: ERR_UNKNOWN_SESSION,
                message: "no such session".into(),
            },
        ] {
            assert_eq!(round_trip(frame.clone()), frame);
        }
    }

    #[test]
    fn batch_payload_is_bit_lossless() {
        let reports: Vec<TagReport> = (0..5).map(sample_report).collect();
        let frame = Frame::Batch {
            session: "bits".into(),
            seq: 1,
            reports: reports.clone(),
            trace: None,
        };
        match round_trip(frame) {
            Frame::Batch {
                reports: decoded, ..
            } => {
                for (orig, dec) in reports.iter().zip(decoded.iter()) {
                    assert_eq!(orig.epc, dec.epc);
                    assert_eq!(orig.time.to_bits(), dec.time.to_bits());
                    assert_eq!(orig.phase.to_bits(), dec.phase.to_bits());
                    assert_eq!(orig.rss_dbm.to_bits(), dec.rss_dbm.to_bits());
                    assert_eq!(orig.doppler_hz.to_bits(), dec.doppler_hz.to_bits());
                }
            }
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed() {
        let bytes = encode_frame_v(
            &Frame::Batch {
                session: "t".into(),
                seq: 1,
                reports: (0..3).map(sample_report).collect(),
                trace: None,
            },
            WIRE_VERSION_V1,
        );
        // Every proper prefix of the payload fails with Malformed — never
        // panics, never decodes.
        for cut in 0..bytes.len() - 5 {
            assert!(
                matches!(
                    decode_payload_v(&bytes[4..4 + cut], WIRE_VERSION_V1),
                    Err(WireError::Malformed(_))
                ),
                "prefix of {cut} bytes must be malformed"
            );
        }
        let mut trailing = bytes[4..].to_vec();
        trailing.push(0);
        assert!(matches!(
            decode_payload_v(&trailing, WIRE_VERSION_V1),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_payload_v(&[0x55], WIRE_VERSION_V1),
            Err(WireError::Malformed(_))
        ));
    }

    /// An in-memory server: reads replay a canned response script, writes
    /// are kept for inspection.
    struct ScriptedPeer {
        script: std::io::Cursor<Vec<u8>>,
        written: Vec<u8>,
    }

    impl Read for ScriptedPeer {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.script.read(buf)
        }
    }

    impl Write for ScriptedPeer {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn oversized_session_id_is_refused_before_anything_is_sent() {
        let mut script = handshake_bytes_for(WIRE_VERSION).to_vec();
        script.extend(encode_frame_v(
            &Frame::Ack {
                session: "pad".into(),
                seq: 0,
                accepted: 0,
            },
            WIRE_VERSION,
        ));
        let peer = ScriptedPeer {
            script: std::io::Cursor::new(script),
            written: Vec::new(),
        };
        let mut client = IngestClient::from_stream(peer).expect("handshake");
        let handshake_only = client.stream().written.clone();
        let long = "x".repeat(70_000);
        for refused in [
            client.open(&long),
            client
                .send_batch(&long, 1, vec![sample_report(0)])
                .map(drop),
            client.close(&long).map(drop),
        ] {
            match refused {
                Err(WireError::Malformed(msg)) => assert!(msg.contains("65535-byte"), "{msg}"),
                other => panic!("expected a typed refusal, got {other:?}"),
            }
        }
        assert_eq!(client.stream().written, handshake_only, "nothing was sent");
        client.open("pad").expect("the connection is still usable");
        let mut written = &client.stream().written[HANDSHAKE_LEN..];
        assert_eq!(
            read_frame_v(&mut written, DEFAULT_MAX_FRAME_LEN, WIRE_VERSION).expect("one frame"),
            Some(Frame::Open {
                session: "pad".into(),
                trace: None,
            })
        );
        assert!(written.is_empty());
    }

    #[test]
    fn read_frame_paths() {
        let frame = Frame::Ack {
            session: "s".into(),
            seq: 1,
            accepted: 2,
        };
        let bytes = encode_frame_v(&frame, WIRE_VERSION_V1);
        // Clean stream: one frame then clean EOF.
        let mut stream: &[u8] = &bytes;
        assert_eq!(
            read_frame_v(&mut stream, DEFAULT_MAX_FRAME_LEN, WIRE_VERSION_V1).expect("reads"),
            Some(frame)
        );
        assert_eq!(
            read_frame_v(&mut stream, DEFAULT_MAX_FRAME_LEN, WIRE_VERSION_V1).expect("clean eof"),
            None
        );
        // Mid-prefix and mid-payload EOFs are malformed.
        for cut in [2usize, bytes.len() - 3] {
            let mut stream: &[u8] = &bytes[..cut];
            assert!(matches!(
                read_frame_v(&mut stream, DEFAULT_MAX_FRAME_LEN, WIRE_VERSION_V1),
                Err(WireError::Malformed(_))
            ));
        }
        // An oversized declared length is rejected before allocation.
        let mut stream: &[u8] = &bytes;
        assert!(matches!(
            read_frame_v(&mut stream, 4, WIRE_VERSION_V1),
            Err(WireError::FrameTooLarge { .. })
        ));
    }
}
