//! Error types for the RFIPad pipeline.

use rfid_gen2::report::TagId;
use std::fmt;

/// Errors surfaced by the RFIPad recognition pipeline and ingest engine.
///
/// The one error type engine code propagates: source failures and session
/// lifecycle faults convert into it via `From`, so a serving loop handles
/// a single enum.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RfipadError {
    /// The layout does not contain the referenced tag.
    UnknownTag(TagId),
    /// Calibration was attempted with too few static samples for a tag.
    InsufficientCalibration {
        /// The under-sampled tag.
        tag: TagId,
        /// Samples available.
        got: usize,
        /// Samples required.
        need: usize,
    },
    /// An observation stream was empty where data was required.
    EmptyStream,
    /// A configuration value is out of its valid range.
    InvalidConfig(String),
    /// A report source failed mid-stream (I/O or decode).
    Source(String),
    /// A session with this id is already open in the engine.
    SessionExists(String),
    /// The ingest engine's workers are gone (shut down or panicked).
    EngineDown,
    /// A pipeline checkpoint failed to parse or restore (malformed JSON,
    /// unsupported version, impossible stage state, or a checkpoint taken
    /// under a different pipeline configuration).
    Checkpoint(String),
}

impl fmt::Display for RfipadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RfipadError::UnknownTag(id) => write!(f, "tag {id} is not in the array layout"),
            RfipadError::InsufficientCalibration { tag, got, need } => write!(
                f,
                "calibration for {tag} needs {need} static samples, got {got}"
            ),
            RfipadError::EmptyStream => write!(f, "observation stream is empty"),
            RfipadError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RfipadError::Source(msg) => write!(f, "report source failed: {msg}"),
            RfipadError::SessionExists(id) => write!(f, "session {id:?} is already open"),
            RfipadError::EngineDown => write!(f, "ingest engine is shut down"),
            RfipadError::Checkpoint(msg) => write!(f, "checkpoint rejected: {msg}"),
        }
    }
}

impl RfipadError {
    /// The one way builders report a bad field: every validating builder
    /// (`EngineBuilder`, `RecognizerBuilder`, `StageGraphBuilder`,
    /// `IngestServerBuilder`) produces
    /// [`RfipadError::InvalidConfig`] messages of the form
    /// `Builder.field: reason`, so an error always names the offending
    /// field.
    pub(crate) fn invalid_field(
        builder: &str,
        field: &str,
        reason: impl std::fmt::Display,
    ) -> Self {
        RfipadError::InvalidConfig(format!("{builder}.{field}: {reason}"))
    }
}

impl std::error::Error for RfipadError {}

impl From<rfid_gen2::source::SourceError> for RfipadError {
    fn from(e: rfid_gen2::source::SourceError) -> Self {
        RfipadError::Source(e.to_string())
    }
}

impl From<rfid_gen2::trace::TraceError> for RfipadError {
    fn from(e: rfid_gen2::trace::TraceError) -> Self {
        RfipadError::Source(e.to_string())
    }
}

/// Checkpoints are the only JSON this crate reads, so a JSON error is a
/// checkpoint error.
impl From<obs::json::JsonError> for RfipadError {
    fn from(e: obs::json::JsonError) -> Self {
        RfipadError::Checkpoint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = RfipadError::UnknownTag(TagId(3));
        assert!(e.to_string().contains("tag-0003"));
        let e = RfipadError::InsufficientCalibration {
            tag: TagId(1),
            got: 2,
            need: 10,
        };
        assert!(e.to_string().contains("needs 10"));
        assert!(!RfipadError::EmptyStream.to_string().is_empty());
        let e = RfipadError::Checkpoint("version 9 unsupported".into());
        assert!(e.to_string().contains("checkpoint rejected"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RfipadError>();
    }
}
