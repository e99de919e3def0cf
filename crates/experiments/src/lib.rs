//! Experiment harness for the RFIPad reproduction.
//!
//! Reproduces every table and figure of the paper's evaluation (§V) plus
//! its design studies (§III–IV): [`setup`] builds the deployment variants
//! (LOS/NLOS, lab locations, TX power, tilt, distance, tag models),
//! [`trial`] calibrates a bench and runs stroke/letter trials end to end
//! through the simulated reader, and [`report`] prints the tables/series.
//!
//! One binary per table/figure lives in `src/bin/` — see `DESIGN.md` for
//! the experiment index and `EXPERIMENTS.md` for recorded results.

#![warn(missing_docs)]

pub mod benchjson;
pub mod fanout;
pub mod golden;
pub mod multiplex;
pub mod report;
pub mod serveload;
pub mod setup;
pub mod trial;

pub use multiplex::{run_multiplexed, Port};
pub use setup::{AntennaPlacement, Deployment, DeploymentSpec};
pub use trial::{Bench, LetterTrial, StrokeTrial, CALIBRATION_SECS};
