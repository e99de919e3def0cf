//! Signal-processing primitives for RF sensing pipelines.
//!
//! This crate collects the deterministic, dependency-free DSP building blocks
//! that the RFIPad recognition pipeline (and its experiment harness) are built
//! from:
//!
//! - [`unwrap`] — phase de-periodicity (unwrapping) for values reported
//!   modulo 2π, both batch and streaming;
//! - [`series`] — irregularly-sampled time series with resampling and
//!   time-window slicing;
//! - [`frames`] — fixed-duration framing, per-frame RMS (paper Eq. 11), and
//!   windows of frames (paper Eq. 12);
//! - [`otsu`] — Otsu's clustering-based threshold selection for gray-scale
//!   data;
//! - [`grid`] — small 2-D gray / binary images laid over a tag array, with
//!   connected components and shape moments;
//! - [`filter`] — moving-average and median filters, trough (local-minimum)
//!   detection;
//! - [`stats`] — summary statistics, online (Welford) accumulation, and
//!   empirical CDFs;
//! - [`kernel`] — allocation-free slice kernels under the above (fused
//!   reductions, windowed statistics, resampling, histogramming, mask
//!   moments) with a reusable [`kernel::Scratch`] arena and naive scalar
//!   references for bit-identity testing.
//!
//! # Example
//!
//! ```
//! use sigproc::unwrap::unwrap_phase;
//! use std::f64::consts::TAU;
//!
//! // A phase ramp that wraps at 2π…
//! let wrapped: Vec<f64> = (0..100).map(|i| (0.1 * i as f64) % TAU).collect();
//! let unwrapped = unwrap_phase(&wrapped);
//! // …becomes a straight line after unwrapping.
//! for (i, v) in unwrapped.iter().enumerate() {
//!     assert!((v - 0.1 * i as f64).abs() < 1e-9);
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod filter;
pub mod frames;
pub mod grid;
pub mod kernel;
pub mod otsu;
pub mod series;
pub mod stats;
pub mod unwrap;

pub use frames::{Frame, FrameSeq, Window};
pub use grid::{BinaryGrid, GridImage};
pub use otsu::otsu_threshold;
pub use series::TimeSeries;
pub use unwrap::{unwrap_phase, StreamingUnwrapper};
