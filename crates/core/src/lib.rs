//! # gaia-core
//!
//! The paper's primary contribution: the **Gaia** model — Feature Fusion
//! Layer (FFL), Temporal Embedding Layer (TEL) and the Inter/intra Temporal
//! shift aware Attention GCN (ITA-GCN) built on a Convolutional Attention
//! Unit (CAU) — plus the Table II ablation variants, a generic
//! ego-subgraph trainer/predictor and attention introspection for the
//! Fig 4 case study.
//!
//! ```no_run
//! use gaia_core::{Gaia, GaiaConfig, trainer};
//! use gaia_synth::{generate_dataset, WorldConfig};
//!
//! let (world, ds) = generate_dataset(WorldConfig::default());
//! let cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
//! let mut model = Gaia::new(cfg, 42);
//! let report = trainer::train(&mut model, &ds, &world.graph,
//!                             &trainer::TrainConfig::default());
//! println!("final train MSE: {}", report.train_loss.last().unwrap());
//! ```

pub mod api;
pub mod cau;
pub mod config;
pub mod ffl;
pub mod half;
pub mod ita;
pub mod model;
pub mod tel;
pub mod trainer;

pub use api::{BlockValues, EmbedCache, GraphForecaster, ProjSlot};
pub use cau::ConvolutionalAttentionUnit;
pub use config::{CacheTier, GaiaConfig, GaiaVariant};
pub use ffl::FeatureFusionLayer;
pub use ita::{AttentionDetail, ItaGcnLayer};
pub use model::{Gaia, PublishStageProfile, PUBLISH_BLOCK};
pub use tel::TemporalEmbeddingLayer;
pub use trainer::{
    evaluate_loss, predict_batch_with, predict_nodes, predict_one_with, train, InferenceScratch,
    Prediction, TrainConfig, TrainReport,
};
