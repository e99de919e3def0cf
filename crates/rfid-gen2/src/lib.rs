//! EPC Class-1 Generation-2 UHF RFID reader simulator.
//!
//! This crate stands in for the paper's Impinj Speedway R420 + Octane SDK
//! stack. It layers a slot-level medium-access model on top of the physics
//! in [`rf_sim`]:
//!
//! - [`epc`] — EPC-96 identifiers minted from simulated tag ids;
//! - [`link`] — FM0/Miller link timing, from which per-tag read rates (and
//!   the paper's undersampling-at-speed limitation) follow;
//! - [`inventory`] — slotted-ALOHA rounds with the floating-point
//!   Q-algorithm and A/B session flags, timed by [`link`];
//! - [`reader`] — the reader facade producing timestamped
//!   EPC/phase/RSS/Doppler reports from a scene;
//! - [`report`] — [`report::TagReport`], the canonical reader-boundary
//!   record the recognition stack consumes;
//! - [`trace`] — record/replay serialization of report streams (JSON lines
//!   and fixed-layout binary records);
//! - [`source`] — the [`source::ReportSource`] a recorded trace is read
//!   through;
//! - [`wire`] — the RFIPad ingest protocol: versioned handshake,
//!   session-multiplexed report-batch frames, and the client codec.
//!
//! # Example
//!
//! ```
//! use rfid_gen2::reader::{Gen2Reader, ReaderConfig};
//! use rf_sim::antenna::ReaderAntenna;
//! use rf_sim::environment::Environment;
//! use rf_sim::geometry::Vec3;
//! use rf_sim::scene::{Scene, SceneConfig};
//! use rf_sim::tags::{TagArray, TagModel};
//! use rf_sim::units::Dbi;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let array = TagArray::grid(5, 5, 0.06, Vec3::ZERO, TagModel::TypeB, |id| id.0 as f64);
//! let antenna = ReaderAntenna::new(
//!     Vec3::new(0.12, -0.12, -0.32),
//!     Vec3::new(0.0, 0.0, 1.0),
//!     Dbi(8.0),
//! );
//! let scene = Scene::new(
//!     antenna,
//!     array.tags().to_vec(),
//!     Environment::office_location(1),
//!     SceneConfig::default(),
//! );
//! let reader = Gen2Reader::new(ReaderConfig::default());
//! let mut rng = StdRng::seed_from_u64(1);
//! let run = reader.run(&scene, &[], 0.0, 0.5, &mut rng);
//! assert!(!run.events.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epc;
pub mod inventory;
pub mod link;
pub mod reader;
pub mod report;
pub mod source;
pub(crate) mod telemetry;
pub mod trace;
pub mod wire;

pub use epc::Epc96;
pub use inventory::{Flag, InventoryStats, QAlgorithm, SearchMode, SlotOutcome};
pub use link::{LinkParams, TagEncoding};
pub use reader::{Gen2Reader, ReaderConfig, ReaderRun};
pub use report::{ReportBatch, TagReport, FIXED_CARRIER_CHANNEL};
pub use source::{ReportSource, TraceSource};
pub use trace::{TraceError, TraceFormat};
