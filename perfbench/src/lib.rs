//! The benchmark's library: one module per workload phase, the in-memory
//! span recorder, the output checks and the per-layer probes. `main.rs`
//! runs them; the self-tests under `tests/` exercise the checks.

pub mod checks;
pub mod host;
pub mod internals;
pub mod layers;
pub mod serve;
pub mod simulate;
pub mod stats;
pub mod trace;
pub mod train;
