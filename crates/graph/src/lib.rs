//! # gaia-graph
//!
//! The e-seller graph substrate of the Gaia reproduction (Section III-B of
//! the paper): CSR storage with typed, directed edges, k-hop ego-subgraph
//! extraction (the AGL "instance generation" of the deployment pipeline),
//! supply-chain relation mining from order logs, and graph statistics.

pub mod closure;
pub mod ego;
pub mod graph;
pub mod mining;
pub mod stats;

pub use closure::dirty_closure;
pub use ego::{extract_ego, extract_ego_into, EgoConfig, EgoScratch, EgoSubgraph, LocalNeighbor};
pub use graph::{Edge, EdgeType, EsellerGraph, Neighbor};
pub use mining::{
    lagged_correlation, mine_supply_chain, relations_to_edges, MinedRelation, MiningConfig,
};
pub use stats::{GraphStats, Histogram};
