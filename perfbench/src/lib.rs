//! The repository benchmark for the `clustered` simulator.
//!
//! Three closed-loop workloads drive the simulator through its public
//! API, one process per run:
//!
//! * `wide16` — gzip and swim on the 16-of-16 decentralized machine
//!   under a fixed policy: the widest wakeup/select fan-out.
//! * `adaptive_narrow` — vpr, gzip and a seeded phased program under
//!   interval-explore and fine-grain branch policies with the
//!   centralized cache: few active clusters, a policy that runs on
//!   every commit and reconfigures.
//! * `paper_grid` — the Figure 3/5-shaped grid (nine kernels × fixed
//!   2/4/8/16 and explore) through the sweep executor on two workers.
//!
//! An untraced run reports the end-to-end metrics; a traced run
//! reports per-layer metrics timed from outside each layer's public
//! API, plus the tracing overhead. Every run checks that each point's
//! statistics are bit-identical across its plain, profiled, traced and
//! audited runs.

#![forbid(unsafe_code)]

pub mod bench;
pub mod host;
pub mod plan;
pub mod probe;
pub mod spans;

pub use bench::{run, Metric, Options, Outcome};
pub use plan::{Kind, Window};

/// The seed a run uses when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
