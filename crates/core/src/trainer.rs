//! Generic mini-batch trainer and predictor for any [`GraphForecaster`].
//!
//! Training iterates over centre shops, extracts each one's ego subgraph
//! (fresh neighbour sample per epoch, as AGL does), builds a tape, and
//! accumulates gradients. Batch members are processed in parallel across
//! threads; the tape-per-example design makes this embarrassingly parallel
//! because the parameter store is only read during forward/backward.

use crate::api::GraphForecaster;
use gaia_graph::{extract_ego_into, EgoScratch, EgoSubgraph, EsellerGraph};
use gaia_nn::{Adam, ParamStore};
use gaia_synth::Dataset;
use gaia_tensor::{Graph, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Trainer hyper-parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Centre shops per optimiser step.
    pub batch_size: usize,
    /// Adam learning rate. The paper uses 1e-5 at Alipay scale over many
    /// steps; the synthetic harness uses a larger rate for few epochs.
    pub lr: f32,
    /// Global gradient-norm clip (0 disables).
    pub clip: f32,
    /// Multiplicative per-epoch learning-rate decay (1.0 disables).
    pub lr_decay: f32,
    /// Base RNG seed (ego sampling, shuffling).
    pub seed: u64,
    /// Worker threads for the batch fan-out.
    pub threads: usize,
    /// Print per-epoch progress.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 6,
            batch_size: 32,
            lr: 3e-3,
            clip: 5.0,
            lr_decay: 0.9,
            seed: 23,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4),
            verbose: false,
        }
    }
}

/// Per-epoch training record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training MSE (model space) per epoch.
    pub train_loss: Vec<f32>,
    /// Mean validation MSE (model space) per epoch.
    pub val_loss: Vec<f32>,
    /// Wall-clock seconds per epoch.
    pub epoch_seconds: Vec<f64>,
}

/// Mix a base seed with a node id (splitmix-style) so every centre gets an
/// independent, thread-count-invariant RNG stream.
fn per_node_seed(seed: u64, node: usize) -> u64 {
    let mut z = seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One worker result: summed gradients keyed by parameter index, plus the
/// summed loss over its chunk.
struct ChunkGrads {
    grads: Vec<Option<Tensor>>,
    loss_sum: f32,
    count: usize,
}

/// Forward+backward for a set of centres, without touching shared state.
fn grad_chunk<M: GraphForecaster + ?Sized>(
    model: &M,
    ds: &Dataset,
    graph: &EsellerGraph,
    centers: &[usize],
    seed: u64,
    n_params: usize,
) -> ChunkGrads {
    let ego_cfg = model.ego_config();
    let mut grads: Vec<Option<Tensor>> = (0..n_params).map(|_| None).collect();
    let mut loss_sum = 0.0;
    // One tape and one ego workspace per chunk, reset between centres.
    let mut g = Graph::new();
    let mut ego_scratch = EgoScratch::new();
    for &center in centers {
        // Seed per centre so gradients are identical for any thread count.
        let mut rng = StdRng::seed_from_u64(per_node_seed(seed, center));
        let ego = extract_ego_into(graph, center, &ego_cfg, &mut rng, &mut ego_scratch);
        g.reset();
        let pred = model.forward_center(&mut g, ds, ego);
        let target = ds.target_tensor(center);
        let loss = g.mse(pred, &target);
        g.backward(loss);
        loss_sum += g.value(loss).data()[0];
        for (key, grad) in g.param_grads() {
            match &mut grads[key] {
                Some(acc) => acc.add_assign_scaled(grad, 1.0),
                slot => *slot = Some(grad.clone()),
            }
        }
    }
    ChunkGrads { grads, loss_sum, count: centers.len() }
}

/// Accumulate one batch of gradients into the model's store using
/// `threads` workers. Returns the mean loss over the batch.
fn batch_step<M: GraphForecaster + ?Sized>(
    model: &mut M,
    ds: &Dataset,
    graph: &EsellerGraph,
    batch: &[usize],
    seed: u64,
    threads: usize,
) -> f32 {
    let n_params = model.params().len();
    let threads = threads.clamp(1, batch.len().max(1));
    let chunk_size = batch.len().div_ceil(threads);
    let results: Vec<ChunkGrads> = std::thread::scope(|scope| {
        let model_ref: &M = model;
        let handles: Vec<_> = batch
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || grad_chunk(model_ref, ds, graph, chunk, seed, n_params))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("trainer worker panicked")).collect()
    });
    let total: usize = results.iter().map(|r| r.count).sum();
    let inv = 1.0 / total.max(1) as f32;
    let store = model.params_mut();
    let mut loss = 0.0;
    for r in results {
        loss += r.loss_sum;
        for (key, grad) in r.grads.into_iter().enumerate() {
            if let Some(grad) = grad {
                store.add_grad(key, &grad, inv);
            }
        }
    }
    loss * inv
}

/// Mean model-space MSE over a set of centres (no gradients) — used for the
/// validation curve.
pub fn evaluate_loss<M: GraphForecaster + ?Sized>(
    model: &M,
    ds: &Dataset,
    graph: &EsellerGraph,
    centers: &[usize],
    seed: u64,
    threads: usize,
) -> f32 {
    if centers.is_empty() {
        return 0.0;
    }
    let preds = predict_nodes(model, ds, graph, centers, seed, threads);
    let mut loss = 0.0;
    for (i, &c) in centers.iter().enumerate() {
        for h in 0..ds.horizon {
            let d = preds[i].model_space[h] - ds.targets_norm_row(c)[h];
            loss += d * d;
        }
    }
    loss / (centers.len() * ds.horizon) as f32
}

/// Train a model in place, returning the per-epoch report.
pub fn train<M: GraphForecaster + ?Sized>(
    model: &mut M,
    ds: &Dataset,
    graph: &EsellerGraph,
    cfg: &TrainConfig,
) -> TrainReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut adam = Adam::new(cfg.lr);
    let mut report =
        TrainReport { train_loss: Vec::new(), val_loss: Vec::new(), epoch_seconds: Vec::new() };
    let mut order = ds.splits.train.clone();
    for epoch in 0..cfg.epochs {
        let t0 = std::time::Instant::now();
        adam.lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut batches: f32 = 0.0;
        for batch in order.chunks(cfg.batch_size) {
            model.params_mut().zero_grads();
            let loss = batch_step(model, ds, graph, batch, rng.gen(), cfg.threads);
            if cfg.clip > 0.0 {
                model.params_mut().clip_grads(cfg.clip);
            }
            adam.step(model.params_mut());
            epoch_loss += loss;
            batches += 1.0;
        }
        let val = evaluate_loss(model, ds, graph, &ds.splits.val, cfg.seed ^ 0xABCD, cfg.threads);
        let secs = t0.elapsed().as_secs_f64();
        if cfg.verbose {
            eprintln!(
                "[{}] epoch {epoch}: train_mse={:.5} val_mse={val:.5} ({secs:.1}s)",
                model.name(),
                epoch_loss / batches.max(1.0),
            );
        }
        report.train_loss.push(epoch_loss / batches.max(1.0));
        report.val_loss.push(val);
        report.epoch_seconds.push(secs);
    }
    report
}

/// One prediction: model space and denormalised currency values.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Prediction {
    /// Centre shop id.
    pub node: usize,
    /// `[T']` prediction in model (positive-log) space.
    pub model_space: Vec<f32>,
    /// `[T']` prediction in currency.
    pub currency: Vec<f64>,
}

/// Reusable per-worker inference state: a forward-only autodiff tape, an
/// ego-extraction workspace and a per-node value cache. Holding one
/// `InferenceScratch` per serving worker (or per predict thread) removes the
/// per-request tape and BFS allocations from the hot path and reuses node
/// embeddings, projections and centre-independent layer states across
/// requests — see `gaia_serving`'s `InferenceContext`. A serving worker
/// installs a publish's cache, whose frozen tier already holds every
/// node's embedding and layer-0 projections, so its memo only gathers
/// deeper layer states; a scratch without one memoises the embeddings and
/// projections it computes itself.
///
/// The cache is only valid while the model parameters, the dataset **and
/// the graph** stay fixed (memoised layer states are functions of a node's
/// neighbour list); call [`InferenceScratch::clear_embed_cache`] or install
/// a fresh cache when any of them changes (e.g. on a snapshot swap).
#[derive(Default)]
pub struct InferenceScratch {
    tape: Graph,
    ego: EgoScratch,
    /// One ego workspace per batch slot for [`predict_batch_with`] (all
    /// egos of a batch must be alive at once); grown on demand and reused,
    /// so a warmed scratch serves any batch up to its high-water size
    /// without fresh allocations.
    ego_batch: Vec<EgoScratch>,
    cache: crate::api::EmbedCache,
}

impl InferenceScratch {
    /// Fresh scratch with a forward-only tape and an empty embedding cache.
    pub fn new() -> Self {
        Self {
            tape: Graph::for_inference(),
            ego: EgoScratch::new(),
            ego_batch: Vec::new(),
            cache: Default::default(),
        }
    }

    /// Drop all cached node embeddings, projections and memoised layer
    /// states. Required whenever the model parameters, the dataset or the
    /// graph this scratch is used with change.
    pub fn clear_embed_cache(&mut self) {
        self.cache.clear();
    }

    /// Replace the embedding cache wholesale — used by serving workers to
    /// install a snapshot's publish-time precomputed embeddings (see
    /// `Gaia::precompute_embeddings`).
    pub fn install_embed_cache(&mut self, cache: crate::api::EmbedCache) {
        self.cache = cache;
    }

    /// Number of nodes with a cached embedding (published or memoised).
    pub fn cached_embeddings(&self) -> usize {
        self.cache.len()
    }

    /// Number of nodes with cached layer-0 projections (the batched
    /// path's publish-time precompute, or what it memoised without one).
    pub fn cached_projections(&self) -> usize {
        self.cache.cached_projections()
    }

    /// Number of memoised centre-independent `(layer, node)` hidden states
    /// (see `EmbedCache::layer_state_constant`). Always 0 for a 1-layer
    /// model, which has no non-final layer.
    pub fn cached_layer_states(&self) -> usize {
        self.cache.cached_layer_states()
    }

    /// Fresh heap buffers the reused tape has ever allocated (pool misses).
    /// Flat across requests = the zero-alloc steady state the serving hot
    /// path targets; see `Graph::fresh_buffer_allocs`.
    pub fn tape_fresh_allocs(&self) -> usize {
        self.tape.fresh_buffer_allocs()
    }
}

/// Predict one centre through the per-request forward
/// ([`GraphForecaster::forward_center_cached`]), reusing `scratch`'s tape,
/// ego workspace and embedding cache. It never reads the layer-0 projection
/// cache, so it is the reference the batched path
/// ([`predict_batch_with`], which every serving and eval path calls) is
/// checked against. Ego sampling is seeded per node (thread-count invariant)
/// and cached embeddings are bit-identical to freshly computed ones, so the
/// result equals [`predict_nodes`]'s for the same `seed`.
pub fn predict_one_with<M: GraphForecaster + ?Sized>(
    model: &M,
    ds: &Dataset,
    graph: &EsellerGraph,
    center: usize,
    seed: u64,
    scratch: &mut InferenceScratch,
) -> Prediction {
    let ego_cfg = model.ego_config();
    let mut rng = StdRng::seed_from_u64(per_node_seed(seed, center));
    let ego = extract_ego_into(graph, center, &ego_cfg, &mut rng, &mut scratch.ego);
    scratch.tape.reset();
    let pred = model.forward_center_cached(&mut scratch.tape, ds, ego, &mut scratch.cache);
    let t = scratch.tape.value(pred);
    Prediction {
        node: center,
        model_space: t.data().to_vec(),
        currency: ds.denormalize_prediction(t),
    }
}

/// Predict a batch of centres on **one** packed tape, reusing `scratch`.
///
/// The tape is reset once per batch instead of once per request, every ego
/// subgraph is extracted up front (per-slot workspaces inside `scratch`),
/// and the model builds all forward graphs through
/// [`GraphForecaster::forward_centers_cached`] — for Gaia that means
/// hoisted projections, fused causal attention and a single stacked
/// prediction-head GEMM across the batch.
///
/// Every batch size takes this path, one included: a lone request reads
/// the publish-time embeddings and layer-0 projections from the cache's
/// frozen tier just as a full micro-batch does, and only memoises them
/// when no publish installed them. A model with more than one ITA layer
/// also memoises centre-independent layer states in `scratch`'s cache, so
/// `scratch` must only ever see one `(model, ds, graph)` between cache
/// clears.
///
/// **Parity contract** (pinned by `tests/proptest_invariants.rs` for batch
/// sizes 1..=16 and by the committed golden fixtures): the result is
/// element-wise bit-identical to calling [`predict_one_with`] in a loop
/// with the same `seed` on a fresh scratch. A publish-time cache keeps
/// that on the f32 tier; on the f16 tier its frozen lanes are binary16,
/// so there the two agree within its serving budget
/// ([`crate::CacheTier::within_budget`]).
pub fn predict_batch_with<M: GraphForecaster + ?Sized>(
    model: &M,
    ds: &Dataset,
    graph: &EsellerGraph,
    centers: &[usize],
    seed: u64,
    scratch: &mut InferenceScratch,
) -> Vec<Prediction> {
    if centers.is_empty() {
        return Vec::new();
    }
    let ego_cfg = model.ego_config();
    if scratch.ego_batch.len() < centers.len() {
        scratch.ego_batch.resize_with(centers.len(), EgoScratch::new);
    }
    let InferenceScratch { tape, ego_batch, cache, .. } = scratch;
    let egos: Vec<&EgoSubgraph> = ego_batch
        .iter_mut()
        .zip(centers)
        .map(|(slot, &center)| {
            // Same per-centre seeding as predict_one_with, so the sampled
            // subgraphs are identical.
            let mut rng = StdRng::seed_from_u64(per_node_seed(seed, center));
            extract_ego_into(graph, center, &ego_cfg, &mut rng, slot)
        })
        .collect();
    tape.reset();
    let preds = model.forward_centers_cached(tape, ds, &egos, cache);
    debug_assert_eq!(preds.len(), centers.len());
    centers
        .iter()
        .zip(preds)
        .map(|(&center, pred)| {
            let t = tape.value(pred);
            Prediction {
                node: center,
                model_space: t.data().to_vec(),
                currency: ds.denormalize_prediction(t),
            }
        })
        .collect()
}

/// Predict a set of centres in parallel. Ego sampling is seeded per node so
/// predictions are reproducible for any thread count. Each worker reuses one
/// [`InferenceScratch`] across its whole chunk and serves it one centre per
/// tape through [`predict_batch_with`]. Larger batches would not pay here:
/// the scratch starts with an empty cache, so a tape holds every ego node's
/// embedding subgraph, and eight egos per tape roughly doubled the peak
/// memory of a training run's validation pass.
pub fn predict_nodes<M: GraphForecaster + ?Sized>(
    model: &M,
    ds: &Dataset,
    graph: &EsellerGraph,
    centers: &[usize],
    seed: u64,
    threads: usize,
) -> Vec<Prediction> {
    let threads = threads.clamp(1, centers.len().max(1));
    let chunk_size = centers.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = centers
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut scratch = InferenceScratch::new();
                    chunk
                        .iter()
                        .flat_map(|&center| {
                            predict_batch_with(model, ds, graph, &[center], seed, &mut scratch)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("predict worker panicked")).collect()
    })
}

/// Convenience access to a read-only param store for trait objects.
pub fn param_summary(ps: &ParamStore) -> String {
    format!("{} tensors / {} scalars", ps.len(), ps.num_scalars())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CacheTier, GaiaConfig};
    use crate::model::Gaia;
    use gaia_graph::EgoConfig;
    use gaia_synth::{generate_dataset, WorldConfig};

    fn tiny_setup() -> (gaia_synth::World, Dataset, Gaia) {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = 1;
        cfg.ego = EgoConfig { hops: 1, fanout: 3 };
        let model = Gaia::new(cfg, 1);
        (world, ds, model)
    }

    #[test]
    fn training_reduces_loss() {
        let (world, ds, mut model) = tiny_setup();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            lr: 5e-3,
            threads: 4,
            ..TrainConfig::default()
        };
        let report = train(&mut model, &ds, &world.graph, &cfg);
        assert_eq!(report.train_loss.len(), 3);
        assert!(report.train_loss[2] < report.train_loss[0], "loss went {:?}", report.train_loss);
        assert!(report.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn predictions_are_deterministic_given_seed() {
        let (world, ds, model) = tiny_setup();
        let nodes: Vec<usize> = ds.splits.test.iter().take(5).copied().collect();
        let a = predict_nodes(&model, &ds, &world.graph, &nodes, 42, 2);
        let b = predict_nodes(&model, &ds, &world.graph, &nodes, 42, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.model_space, y.model_space);
        }
    }

    #[test]
    fn single_thread_matches_multi_thread_gradients() {
        let (world, ds, model) = tiny_setup();
        let batch: Vec<usize> = ds.splits.train.iter().take(8).copied().collect();
        let mut m1 = model.clone();
        let mut m2 = model;
        let l1 = batch_step(&mut m1, &ds, &world.graph, &batch, 7, 1);
        let l2 = batch_step(&mut m2, &ds, &world.graph, &batch, 7, 4);
        assert!((l1 - l2).abs() < 1e-4, "loss differs: {l1} vs {l2}");
        for (p1, p2) in m1.params().iter().zip(m2.params().iter()) {
            let d: f32 = p1
                .grad
                .data()
                .iter()
                .zip(p2.grad.data())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f32::max);
            assert!(d < 1e-4, "grad mismatch on {}: {d}", p1.name);
        }
    }

    #[test]
    fn reused_scratch_matches_predict_nodes() {
        let (world, ds, model) = tiny_setup();
        let nodes: Vec<usize> = ds.splits.test.iter().take(6).copied().collect();
        let batch = predict_nodes(&model, &ds, &world.graph, &nodes, 42, 3);
        let mut scratch = InferenceScratch::new();
        for (i, &node) in nodes.iter().enumerate() {
            let single = predict_one_with(&model, &ds, &world.graph, node, 42, &mut scratch);
            assert_eq!(single.node, batch[i].node);
            assert_eq!(single.model_space, batch[i].model_space, "scratch reuse diverged");
            assert_eq!(single.currency, batch[i].currency);
        }
    }

    #[test]
    fn evaluate_loss_empty_centers_is_zero() {
        let (world, ds, model) = tiny_setup();
        assert_eq!(evaluate_loss(&model, &ds, &world.graph, &[], 1, 2), 0.0);
    }

    /// THE batched-parity contract: a packed multi-request tape returns
    /// **bit-identical** predictions to the per-request loop, for every
    /// batch size (the proptest suite covers random worlds on top).
    #[test]
    fn predict_batch_matches_one_by_one_exactly() {
        let (world, ds, model) = tiny_setup();
        let nodes: Vec<usize> = ds.splits.test.iter().take(9).copied().collect();
        for bs in [1usize, 2, 3, 9] {
            let batch_nodes = &nodes[..bs];
            let mut loop_scratch = InferenceScratch::new();
            let expected: Vec<Prediction> = batch_nodes
                .iter()
                .map(|&n| predict_one_with(&model, &ds, &world.graph, n, 42, &mut loop_scratch))
                .collect();
            let mut batch_scratch = InferenceScratch::new();
            let got =
                predict_batch_with(&model, &ds, &world.graph, batch_nodes, 42, &mut batch_scratch);
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(&expected) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.model_space, b.model_space, "batch size {bs} diverged");
                assert_eq!(a.currency, b.currency);
            }
        }
        assert!(predict_batch_with(
            &model,
            &ds,
            &world.graph,
            &[],
            42,
            &mut InferenceScratch::new()
        )
        .is_empty());
    }

    /// A reused scratch serving a mix of batch sizes still agrees with the
    /// per-request path (cache/pool state carried across batches must not
    /// leak into the numbers).
    #[test]
    fn reused_scratch_batches_stay_exact() {
        let (world, ds, model) = tiny_setup();
        let nodes: Vec<usize> = ds.splits.test.iter().take(8).copied().collect();
        let mut reference = InferenceScratch::new();
        let expected: Vec<Prediction> = nodes
            .iter()
            .map(|&n| predict_one_with(&model, &ds, &world.graph, n, 7, &mut reference))
            .collect();
        let mut scratch = InferenceScratch::new();
        let mut got = Vec::new();
        for chunk in nodes.chunks(3) {
            got.extend(predict_batch_with(&model, &ds, &world.graph, chunk, 7, &mut scratch));
        }
        for (a, b) in got.iter().zip(&expected) {
            assert_eq!(a.model_space, b.model_space, "mixed-batch reuse diverged");
        }
    }

    /// Batched parity holds for every Gaia ablation variant (the NoIta
    /// ablation takes the unmasked batched attention path) and with a
    /// publish-time precomputed embedding + projection cache installed
    /// (the serving configuration: every projection is a cache hit).
    #[test]
    fn batch_parity_across_variants_and_precomputed_cache() {
        use crate::config::GaiaVariant;
        let (world, ds) = gaia_synth::generate_dataset(gaia_synth::WorldConfig::tiny());
        let nodes: Vec<usize> = ds.splits.test.iter().take(5).copied().collect();
        for variant in
            [GaiaVariant::Full, GaiaVariant::NoIta, GaiaVariant::NoFfl, GaiaVariant::NoTel]
        {
            let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
            cfg.channels = 8;
            cfg.kernel_groups = 2;
            cfg.layers = 2;
            cfg.ego = EgoConfig { hops: 2, fanout: 3 };
            let model = Gaia::new(cfg.with_variant(variant), 9);
            let mut loop_scratch = InferenceScratch::new();
            let expected: Vec<Vec<f32>> = nodes
                .iter()
                .map(|&n| {
                    predict_one_with(&model, &ds, &world.graph, n, 5, &mut loop_scratch).model_space
                })
                .collect();
            // Cold batch scratch (exercises the miss → compute paths).
            let mut cold = InferenceScratch::new();
            let got = predict_batch_with(&model, &ds, &world.graph, &nodes, 5, &mut cold);
            for (a, b) in got.iter().zip(&expected) {
                assert_eq!(&a.model_space, b, "{variant:?} cold-cache batch diverged");
            }
            // Warm scratch with the publish-time precompute installed
            // (exercises the all-hit paths the serving workers run), at
            // each cache tier: bitwise on f32, within the budget on f16.
            for tier in CacheTier::ALL {
                let mut published = model.clone();
                published.cfg.cache_tier = tier;
                let mut warm = InferenceScratch::new();
                warm.install_embed_cache(published.precompute_embeddings(&ds));
                let got = predict_batch_with(&model, &ds, &world.graph, &nodes, 5, &mut warm);
                for (a, b) in got.iter().zip(&expected) {
                    let got = &a.model_space;
                    assert!(
                        tier.within_budget(got, b, 0.0),
                        "{variant:?} {tier:?}: {got:?} vs {b:?}"
                    );
                }
            }
        }
    }

    /// Parity wall for the layer-state memo: a 2-layer model on a world
    /// where some nodes exceed the fan-out (sampled, centre-dependent) and
    /// others do not (complete, memoised). Consecutive batches on one
    /// scratch — the memo warm from the batches before — serve exactly the
    /// uncached reference on a fresh scratch: bit for bit from a cold
    /// scratch, and within each cache tier's serving budget with the
    /// publish-time cache installed (exact at f32; the memo itself is
    /// always f32).
    #[test]
    fn memo_warm_batches_match_the_uncached_reference() {
        let (world, ds) = generate_dataset(gaia_synth::WorldConfig::tiny());
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = 2;
        cfg.ego = EgoConfig { hops: 2, fanout: 3 };
        let model = Gaia::new(cfg.clone(), 21);
        let fanout = cfg.ego.fanout;
        let degree = |v: usize| world.graph.degree(v);
        assert!((0..ds.n).any(|v| degree(v) > fanout), "world needs sampled nodes");
        assert!((0..ds.n).any(|v| (1..=fanout).contains(&degree(v))), "and complete ones");
        let reference: Vec<Vec<f32>> = (0..ds.n)
            .map(|v| {
                let mut bare = InferenceScratch::new();
                predict_one_with(&model, &ds, &world.graph, v, 3, &mut bare).model_space
            })
            .collect();
        // Two sweeps over every shop, the second reversed so its batches
        // group differently; within a sweep, later batches find earlier
        // centres' neighbourhoods memoised.
        let forward: Vec<usize> = (0..ds.n).collect();
        let backward: Vec<usize> = (0..ds.n).rev().collect();
        for published in [None, Some(CacheTier::F32), Some(CacheTier::F16)] {
            let mut scratch = InferenceScratch::new();
            if let Some(tier) = published {
                let mut publisher = model.clone();
                publisher.cfg.cache_tier = tier;
                scratch.install_embed_cache(publisher.precompute_embeddings(&ds));
            }
            let mut memo_after_sweep = Vec::new();
            for sweep in [&forward, &backward] {
                for batch in sweep.chunks(8) {
                    for p in predict_batch_with(&model, &ds, &world.graph, batch, 3, &mut scratch) {
                        let (got, want) = (&p.model_space, &reference[p.node]);
                        assert!(
                            published.unwrap_or_default().within_budget(got, want, 0.0),
                            "shop {} ({published:?}): {got:?} vs {want:?}",
                            p.node
                        );
                    }
                }
                memo_after_sweep.push(scratch.cached_layer_states());
            }
            assert!(memo_after_sweep[0] > 0, "the memo never filled");
            // The second sweep revisits the same egos, so every complete
            // node it meets is already memoised.
            assert_eq!(memo_after_sweep[0], memo_after_sweep[1], "second sweep grew the memo");
            for (layer, node) in scratch.cache.memo_keys() {
                // Layer 0 holds a scratch's own embeddings; a published
                // cache serves them from its frozen tier.
                if layer == 0 {
                    assert!(
                        published.is_none(),
                        "a published cache memoised node {node} at layer 0"
                    );
                    continue;
                }
                assert_eq!(layer, 1, "only the non-final layer is memoised");
                assert!(degree(node) <= fanout, "node {node} above the fan-out was memoised");
            }
        }
    }

    /// With a publish installed, serving reads every embedding and layer-0
    /// projection from the frozen tier and never writes the layer-0 memo,
    /// at any batch size and depth; a 2-layer model still memoises deeper
    /// states.
    #[test]
    fn serving_never_fills_the_layer0_memo() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let shops: Vec<usize> = (0..ds.n).collect();
        for layers in [1, 2] {
            let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
            cfg.channels = 8;
            cfg.kernel_groups = 2;
            cfg.layers = layers;
            cfg.ego = EgoConfig { hops: layers, fanout: 3 };
            let model = Gaia::new(cfg, 13);
            for bs in [1usize, 3, 8] {
                let mut scratch = InferenceScratch::new();
                scratch.install_embed_cache(model.precompute_embeddings(&ds));
                for batch in shops.chunks(bs) {
                    predict_batch_with(&model, &ds, &world.graph, batch, 4, &mut scratch);
                }
                let layer0 = scratch.cache.memo_keys().filter(|&(layer, _)| layer == 0).count();
                assert_eq!(layer0, 0, "{layers} layers, batch {bs}: layer-0 memo entries");
                assert_eq!(scratch.cached_embeddings(), ds.n);
                if layers == 2 {
                    assert!(scratch.cached_layer_states() > 0, "batch {bs}: no deeper memo");
                }
            }
        }
    }

    /// The batched mirror of the PR-3 zero-alloc contract: after a warm-up
    /// batch, repeated batched requests on the reused tape allocate zero
    /// fresh tensor buffers — a batch of one included, since it runs on the
    /// same batched tape.
    #[test]
    fn steady_state_batched_inference_allocates_zero_fresh_buffers() {
        let (world, ds, model) = tiny_setup();
        let nodes: Vec<usize> = ds.splits.test.iter().take(4).copied().collect();
        for bs in [1usize, 4] {
            let batch = &nodes[..bs];
            let mut scratch = InferenceScratch::new();
            let first = predict_batch_with(&model, &ds, &world.graph, batch, 42, &mut scratch);
            let _second = predict_batch_with(&model, &ds, &world.graph, batch, 42, &mut scratch);
            let warm = scratch.tape_fresh_allocs();
            for _ in 0..5 {
                let again = predict_batch_with(&model, &ds, &world.graph, batch, 42, &mut scratch);
                for (a, b) in again.iter().zip(&first) {
                    assert_eq!(a.model_space, b.model_space, "steady state changed the answer");
                }
                assert_eq!(
                    scratch.tape_fresh_allocs(),
                    warm,
                    "steady-state batched pass of {bs} allocated a fresh tensor buffer"
                );
            }
        }
    }

    /// The PR-3 acceptance contract: once a reused inference scratch has
    /// served a request, repeat forward passes on its reset tape allocate
    /// **zero** fresh tensor buffers — every op output, bound parameter and
    /// input constant is served from the tape's pool.
    #[test]
    fn steady_state_inference_allocates_zero_fresh_buffers() {
        let (world, ds, model) = tiny_setup();
        let mut scratch = InferenceScratch::new();
        let node = ds.splits.test[0];
        // Warm-up: first pass allocates, and populates the embed cache.
        let first = predict_one_with(&model, &ds, &world.graph, node, 42, &mut scratch);
        let _second = predict_one_with(&model, &ds, &world.graph, node, 42, &mut scratch);
        let warm = scratch.tape_fresh_allocs();
        for _ in 0..5 {
            let again = predict_one_with(&model, &ds, &world.graph, node, 42, &mut scratch);
            assert_eq!(again.model_space, first.model_space, "steady state changed the answer");
            assert_eq!(
                scratch.tape_fresh_allocs(),
                warm,
                "steady-state forward pass allocated a fresh tensor buffer"
            );
        }
    }
}
