//! End-to-end benchmark of the RFIPad reproduction.
//!
//! A seeded corpus of recorded letter sessions (see [`corpus`]) is replayed
//! by four closed-loop workloads (see [`workloads`]); an untraced run
//! reports the end-to-end metrics and a traced run the per-layer ledger
//! (see [`run`]). The `rfibench` binary is the command-line front end.

pub mod alloc;
pub mod chain;
pub mod corpus;
pub mod run;
pub mod spans;
pub mod workloads;
