//! Gateway request-path benchmark.
//!
//! Builds a fig20-shaped gateway from the public APIs of `canal-http`,
//! `canal-policy`, `canal-gateway`, `canal-net`, `canal-crypto` and
//! `canal-mesh`, and drives real bytes through it in one thread. See
//! `README.md` for the workloads, the metrics and how to read a traced run.

pub mod check;
pub mod clock;
pub mod inputs;
pub mod run;
pub mod stats;
pub mod system;
pub mod trace;
pub mod workload;

pub use run::{run, to_json, Metric, Report, RunConfig, Sizes};
pub use workload::Workload;
