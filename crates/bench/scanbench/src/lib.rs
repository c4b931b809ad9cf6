//! Scanner-only benchmark for the single-threaded engine.
//!
//! Each workload is scanned once over the simulated Internet while
//! [`replay::Recorder`] records the engine's transport conversation;
//! timed runs then replay that conversation from memory, so the
//! simulator's cost is measured apart from the scanner's. See
//! `README.md` in this directory for the workloads, metrics and modes.

pub mod alloc;
pub mod bench;
pub mod compare;
pub mod layers;
pub mod measure;
pub mod oracle;
pub mod replay;
pub mod workload;
