//! The repository's benchmark: a closed-loop client that drives the
//! Conductor fleet and engine through their public API, measures
//! end-to-end metrics, and in a separate traced run records spans around
//! each public call to break the time down by layer.

pub mod driver;
pub mod metrics;
pub mod run;
pub mod speed;
pub mod trace;
pub mod workloads;
