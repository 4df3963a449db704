//! The DeTA round benchmark: workloads, deployments, the timed pass,
//! the per-layer pass and the traced run. See `perfbench/README.md`.

pub mod deploy;
pub mod e2e;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod stats;
pub mod traced;
pub mod workloads;
