//! End-to-end SCF benchmark for the phi-scf workspace.
//!
//! Runs the real drivers (`hf::run_scf` / `hf::run_uhf`) to convergence on
//! seeded workloads and reports time to solution with tracing off; a
//! separate traced run times each layer from outside the program by
//! wrapping calls into its public functions. See `README.md`.

pub mod bench;
pub mod check;
pub mod driver;
pub mod metrics;
pub mod replay;
pub mod span;
pub mod workload;
