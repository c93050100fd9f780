//! The offline half of the Fig. 5 deployment: the monthly-scheduled pipeline
//! that extracts features, builds the e-seller graph, trains Gaia and
//! publishes a model artifact for the online servers.

use gaia_core::trainer::{train, TrainConfig, TrainReport};
use gaia_core::{Gaia, GaiaConfig};
use gaia_synth::{build_dataset, Dataset, World};
use serde::{Deserialize, Serialize};

/// A published model: versioned parameters plus the configuration needed to
/// reconstruct the network on the serving side.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelArtifact {
    /// Monotonically increasing version (one per monthly execution).
    pub version: u64,
    /// Model architecture configuration.
    pub config: GaiaConfig,
    /// JSON-serialised `ParamStore` checkpoint.
    pub checkpoint: String,
    /// Final training loss, for publish-gate checks.
    pub final_train_loss: f32,
}

impl ModelArtifact {
    /// Version 1 of the untrained model `Gaia::new(config, seed)`: a server
    /// boots from it where training is beside the point.
    pub fn untrained(config: GaiaConfig, seed: u64) -> Self {
        let checkpoint = Gaia::new(config.clone(), seed).checkpoint();
        Self { version: 1, config, checkpoint, final_train_loss: 0.0 }
    }
}

/// The offline pipeline. In production this is scheduled monthly; here
/// `execute_month` performs one full cycle.
#[derive(Debug)]
pub struct OfflinePipeline {
    /// Training configuration used every cycle.
    pub train_cfg: TrainConfig,
    /// Model configuration template.
    pub model_cfg: GaiaConfig,
    version: u64,
    seed: u64,
}

impl OfflinePipeline {
    /// Create a pipeline for a dataset shape.
    pub fn new(model_cfg: GaiaConfig, train_cfg: TrainConfig, seed: u64) -> Self {
        Self { train_cfg, model_cfg, version: 0, seed }
    }

    /// Model-init RNG seed for the cycle that publishes artifact version
    /// `version` (1-based): `seed + (version - 1)`, wrapping.
    ///
    /// This derivation was previously implicit inside `execute_month`,
    /// which made it impossible to *hold the model fixed* across cycles —
    /// retraining after a no-op world mutation silently produced a
    /// different model, so any delta-vs-full republish comparison was
    /// confounded by model drift. It is now explicit (and pinned by a
    /// test): callers that need a reproducible or fixed model pass the
    /// seed themselves via [`OfflinePipeline::execute_month_seeded`].
    pub fn cycle_seed(&self, version: u64) -> u64 {
        self.seed.wrapping_add(version.wrapping_sub(1))
    }

    /// One monthly execution: (re)build the dataset from the current world
    /// snapshot — the Node Feature / Relation Extractor stage — then train
    /// and publish. The model is initialised from
    /// [`OfflinePipeline::cycle_seed`] of the version being published.
    pub fn execute_month(&mut self, world: &World) -> (ModelArtifact, Dataset, TrainReport) {
        let model_seed = self.cycle_seed(self.version + 1);
        self.execute_month_seeded(world, model_seed)
    }

    /// [`OfflinePipeline::execute_month`] with an explicit model-init seed:
    /// the same `model_seed` on the same world yields a bit-identical
    /// checkpoint regardless of how many cycles ran before, which is what
    /// lets the delta-vs-full parity wall retrain "the same model" across
    /// publishes.
    pub fn execute_month_seeded(
        &mut self,
        world: &World,
        model_seed: u64,
    ) -> (ModelArtifact, Dataset, TrainReport) {
        let ds = build_dataset(world);
        let mut model = Gaia::new(self.model_cfg.clone(), model_seed);
        let report = train(&mut model, &ds, &world.graph, &self.train_cfg);
        self.version += 1;
        let artifact = ModelArtifact {
            version: self.version,
            config: self.model_cfg.clone(),
            checkpoint: model.checkpoint(),
            final_train_loss: report.train_loss.last().copied().unwrap_or(f32::NAN),
        };
        (artifact, ds, report)
    }

    /// Number of completed monthly executions.
    pub fn completed_cycles(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_graph::EgoConfig;
    use gaia_synth::{generate_dataset, WorldConfig};

    fn small_model_cfg(ds: &Dataset) -> GaiaConfig {
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = 1;
        cfg.ego = EgoConfig { hops: 1, fanout: 3 };
        cfg
    }

    #[test]
    fn monthly_execution_produces_versioned_artifacts() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        let mut pipeline = OfflinePipeline::new(small_model_cfg(&ds), tc, 5);
        let (a1, _, r1) = pipeline.execute_month(&world);
        let (a2, _, _) = pipeline.execute_month(&world);
        assert_eq!(a1.version, 1);
        assert_eq!(a2.version, 2);
        assert_eq!(pipeline.completed_cycles(), 2);
        assert!(a1.final_train_loss.is_finite());
        assert_eq!(r1.train_loss.len(), 1);
        // The checkpoint must be loadable.
        let mut fresh = Gaia::new(a1.config.clone(), 999);
        fresh.restore(&a1.checkpoint).expect("restore artifact");
    }

    /// The seed derivation is explicit and pinned: cycle `v` trains from
    /// `seed + (v - 1)`, so successive cycles differ (the historical
    /// behaviour) and the mapping can never drift silently again.
    #[test]
    fn cycle_seed_derivation_is_pinned() {
        let (_, ds) = generate_dataset(WorldConfig::tiny());
        let tc = TrainConfig { epochs: 1, verbose: false, ..TrainConfig::default() };
        let pipeline = OfflinePipeline::new(small_model_cfg(&ds), tc, 7);
        assert_eq!(pipeline.cycle_seed(1), 7);
        assert_eq!(pipeline.cycle_seed(2), 8);
        assert_ne!(pipeline.cycle_seed(1), pipeline.cycle_seed(2));
        // Wrapping, never panicking, at the u64 edge.
        let edge = OfflinePipeline::new(small_model_cfg(&ds), TrainConfig::default(), u64::MAX);
        assert_eq!(edge.cycle_seed(2), 0);
    }

    /// Holding the seed fixed across cycles on the same world reproduces
    /// the checkpoint bit for bit — the property the delta-vs-full parity
    /// wall leans on to keep the model constant across publishes.
    #[test]
    fn fixed_seed_reproduces_identical_checkpoints_across_cycles() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        let mut pipeline = OfflinePipeline::new(small_model_cfg(&ds), tc, 11);
        let (a1, _, _) = pipeline.execute_month_seeded(&world, 123);
        let (a2, _, _) = pipeline.execute_month_seeded(&world, 123);
        assert_eq!(a1.checkpoint, a2.checkpoint, "same seed + same world must retrain identically");
        assert_eq!(a2.version, 2, "versions still advance");
        // And the default path remains the historical per-cycle drift.
        let (a3, _, _) = pipeline.execute_month(&world);
        let (a4, _, _) = pipeline.execute_month(&world);
        assert_ne!(a3.checkpoint, a4.checkpoint, "default cycles keep distinct seeds");
    }
}
