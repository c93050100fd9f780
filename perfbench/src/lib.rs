//! The benchmark's own arithmetic — percentiles, the open-loop arrival
//! schedule, span self time and stage residuals — kept apart from the
//! workload code so `tests/arithmetic.rs` can pin it on tiny inputs.

pub mod stats;
pub mod trace;
