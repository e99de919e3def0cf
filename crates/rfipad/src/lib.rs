//! RFIPad: device-free in-air handwriting over a passive UHF RFID tag array.
//!
//! A faithful reproduction of *RFIPad: Enabling Cost-efficient and
//! Device-free In-air Handwriting using Passive Tags* (ICDCS 2017). A hand
//! moving over a plate of cheap passive tags perturbs the phase and RSS of
//! their backscattered signals; RFIPad turns those perturbations into touch-
//! screen operations and English letters — no wearable, no camera, no
//! training.
//!
//! # Pipeline
//!
//! 1. **Calibration** ([`calibration`]): per-tag static mean phase (tag
//!    diversity, Eq. 6–8) and deviation bias (location diversity, Eq. 9).
//! 2. **Streams** ([`streams`]): reader reports regrouped into per-tag
//!    series, phase unwrapped (de-periodicity) and suppressed.
//! 3. **Segmentation** ([`segmentation`]): Eq. 11–12 frame RMS / window std
//!    against a calibrated threshold separates strokes from adjustment
//!    intervals.
//! 4. **Motion recognition** ([`accumulate`], [`motion`]): accumulative
//!    phase-difference image (Eq. 5/10), Otsu binarization, shape
//!    classification.
//! 5. **Direction** ([`direction`]): two-stage RSS-trough ordering.
//! 6. **Letters** ([`grammar`], [`recognizer`]): tree-structure grammar
//!    with positional disambiguation (D/P, O/S, V/X).
//! 7. **Online engine** ([`stage`], [`engine`]): streaming recognition
//!    as a typed five-stage graph ([`StageGraph`]) with response-time
//!    accounting and checkpoint/restore, served to many concurrent
//!    sessions by the [`Engine`] worker pool.
//! 8. **Multi-pad operation** ([`multipad`]): one reader serving several
//!    pads while its ordinary identification traffic passes through — the
//!    paper's cost-efficiency claim.
//!
//! # Example
//!
//! ```
//! use rfipad::prelude::*;
//! use rfid_gen2::report::{TagId, TagReport};
//!
//! // A 1×3 pad, calibrated from synthetic static reads.
//! let layout = ArrayLayout::new(1, 3, vec![TagId(0), TagId(1), TagId(2)]);
//! let config = RfipadConfig::default();
//! let static_obs: Vec<TagReport> = (0..40)
//!     .flat_map(|j| (0..3).map(move |i| TagReport::synthetic(
//!         TagId(i),
//!         j as f64 * 0.05 + i as f64 * 0.01,
//!         1.0 + i as f64,
//!         -45.0,
//!     )))
//!     .collect();
//! let calibration = Calibration::from_observations(&layout, &static_obs, &config)?;
//! let recognizer = Recognizer::builder()
//!     .layout(layout)
//!     .calibration(calibration)
//!     .config(config)
//!     .build()?;
//! let result = recognizer.recognize_session(&static_obs);
//! assert!(result.strokes.is_empty()); // nothing moved
//! # Ok::<(), rfipad::RfipadError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accumulate;
pub mod calibration;
pub mod config;
pub mod direction;
pub mod engine;
pub mod error;
pub mod grammar;
pub mod layout;
pub mod metrics;
pub mod motion;
pub mod multipad;
pub mod recognizer;
pub mod segmentation;
pub mod serve;
pub mod stage;
pub mod streams;
pub(crate) mod telemetry;
pub mod words;

pub use calibration::Calibration;
pub use config::RfipadConfig;
pub use engine::{Backpressure, Engine, EngineStats, IngestReceipt, SessionHandle, SessionStats};
pub use error::RfipadError;
pub use layout::ArrayLayout;
pub use multipad::{PadDispatcher, PadEvent, PadHandle};
pub use recognizer::{RecognizedStroke, Recognizer, SessionResult};
pub use segmentation::{Segmentation, StrokeSpan};
pub use serve::{CollectingSink, EventSink, IngestServer, IngestServerBuilder};
pub use stage::{
    PipelineCheckpoint, PipelineEvent, Stage, StageGraph, StageGraphBuilder, StageState,
};
pub use streams::{TagStreams, TagStreamsBuilder};
pub use words::{DecodedWord, WordDecoder};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::calibration::Calibration;
    pub use crate::config::RfipadConfig;
    pub use crate::engine::{Backpressure, Engine, IngestReceipt, SessionHandle};
    pub use crate::error::RfipadError;
    pub use crate::grammar::GrammarTree;
    pub use crate::layout::ArrayLayout;
    pub use crate::metrics::ConfusionMatrix;
    pub use crate::recognizer::{RecognizedStroke, Recognizer, SessionResult};
    pub use crate::segmentation::{Segmentation, StrokeSpan};
    pub use crate::stage::{PipelineCheckpoint, PipelineEvent, Stage, StageGraph};
    pub use crate::streams::TagStreams;
}
