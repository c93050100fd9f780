//! # gaia-serving
//!
//! The Section VI deployment simulation: a monthly-scheduled offline
//! pipeline (feature extraction → graph build → Gaia training → artifact
//! publish) and an online model server answering real-time forecasts for
//! new-coming e-sellers from their ego subgraphs, with lock-free
//! epoch-snapshot hot swaps and a worker-pool request path built on
//! per-worker inference contexts.
//!
//! See `ARCHITECTURE.md` at the repo root for the full offline/online split
//! and the snapshot-publish concurrency model.

#![warn(missing_docs)]

pub mod offline;
pub mod server;
pub mod swap;

pub use offline::{ModelArtifact, OfflinePipeline};
pub use server::{
    linearity_r2, DeltaPublishStats, InferenceContext, ModelServer, ModelSnapshot, ServeConfig,
    ServeStats,
};
pub use swap::{Swap, SwapReader};
