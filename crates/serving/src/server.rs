//! The online half of the Fig. 5 deployment: a model server that answers
//! real-time GMV forecasts for (possibly new-coming) e-sellers from their
//! ego subgraph, with hot model swaps when the offline pipeline publishes.
//!
//! Concurrency model: the published model lives in an epoch-snapshot cell
//! ([`crate::swap::Swap`]); a publish is one atomic install and readers
//! revalidate a cached `Arc` with a single atomic load per request, so the
//! request path never contends on a lock. Each worker owns an
//! [`InferenceContext`] whose scratch buffers (forward-only tape, ego-BFS
//! workspace) are reused across requests, matching the paper's observation
//! that inference scales linearly with the number of clients.

use crate::offline::ModelArtifact;
use crate::swap::{Swap, SwapReader};
use gaia_core::trainer::{predict_batch_with, InferenceScratch, Prediction};
use gaia_core::{EmbedCache, Gaia, GraphForecaster};
use gaia_graph::{dirty_closure, EsellerGraph};
use gaia_synth::{
    node_row_unchanged, refresh_dataset, refresh_dataset_full, Dataset, DirtySet, World,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// One published serving generation: the model version, the restored
/// parameters, the publish-time precomputed node embeddings **and the
/// feature/graph stores they were computed against**, swapped as a single
/// unit so readers can never observe a model/embedding/world mismatch —
/// neither across model hot swaps nor across incremental world republishes.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Version of the [`ModelArtifact`] this snapshot was built from.
    pub version: u64,
    /// World revision: bumped by every republish under churn
    /// ([`ModelServer::publish_delta`] / [`ModelServer::publish_full`]),
    /// kept across pure model publishes.
    pub world_rev: u64,
    /// The restored model.
    pub model: Gaia,
    /// `E_v` plus layer-0 projections for every node of `ds`, computed at
    /// publish: workers install this read-only cache instead of each paying
    /// their own embedding warm-up. Segmented copy-on-write form — a delta
    /// republish shares every clean segment with the previous generation.
    pub embeddings: EmbedCache,
    /// The serving dataset this generation's embeddings were computed from.
    pub ds: Dataset,
    /// The e-seller graph requests draw ego subgraphs from.
    pub graph: EsellerGraph,
}

impl ModelSnapshot {
    fn from_artifact(
        artifact: &ModelArtifact,
        world_rev: u64,
        ds: Dataset,
        graph: EsellerGraph,
    ) -> Self {
        let mut model = Gaia::new(artifact.config.clone(), 0);
        model.restore(&artifact.checkpoint).expect("artifact checkpoint must load");
        // Copy-on-write frozen segments: installing into a worker context
        // is an Arc bump per page, not a deep copy of every node's tensor.
        let embeddings = model.precompute_embeddings(&ds);
        Self { version: artifact.version, world_rev, model, embeddings, ds, graph }
    }
}

/// What one [`ModelServer::publish_delta`] actually recomputed — the
/// O(dirty·ego) claim made observable (and benchmarkable) per publish.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct DeltaPublishStats {
    /// Nodes in the world after the republish.
    pub world_nodes: usize,
    /// Nodes the caller's dirty set named.
    pub dirty_nodes: usize,
    /// Size of the dirty set's ego-radius closure — the correctness
    /// boundary: every node whose served inputs could have moved.
    pub closure_nodes: usize,
    /// Nodes actually recomputed: closure nodes whose refreshed feature row
    /// differs bitwise from the previous generation's, plus any nodes
    /// appended to the world since then. Closure nodes with unchanged rows
    /// keep their cached embeddings (same inputs + deterministic kernels
    /// = same bits), so this is O(changed), not O(closure).
    pub recomputed_nodes: usize,
}

/// Online model server holding the published serving generation (model +
/// embeddings + feature/graph stores, one atomic unit).
pub struct ModelServer {
    snapshot: Swap<ModelSnapshot>,
    seed: u64,
}

/// How [`ModelServer::serve`] runs a request slice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads, each with its own [`InferenceContext`]. Clamped to
    /// `[1, requests]`.
    pub workers: usize,
    /// Most queued requests a worker packs onto one tape. Clamped to
    /// `[1, requests]`; `1` serves every request on a tape of its own.
    pub micro_batch: usize,
}

/// Latency/throughput measurement returned by [`ModelServer::serve`].
///
/// Latencies are measured per request **from enqueue** (queue wait plus
/// service time), so percentile figures reflect what a client would see,
/// not just worker compute time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeStats {
    /// Number of predictions served.
    pub requests: usize,
    /// Wall-clock seconds for the whole batch.
    pub seconds: f64,
    /// Throughput in predictions per second.
    pub per_second: f64,
    /// Median per-request latency in seconds, from enqueue to completion.
    pub latency_p50: f64,
    /// 95th-percentile per-request latency in seconds.
    pub latency_p95: f64,
    /// 99th-percentile per-request latency in seconds.
    pub latency_p99: f64,
    /// Requests served by each worker. Length is the number of workers
    /// actually spawned: the requested count clamped to the request count
    /// (minimum 1), so small batches report fewer entries than asked for.
    /// A heavily skewed distribution indicates a scheduling problem.
    pub per_worker: Vec<usize>,
    /// How many micro-batches of each size the workers drained:
    /// `per_batch_size[s - 1]` is the number of tapes that packed exactly
    /// `s` requests. With `micro_batch = 1` this is `[requests]`; larger
    /// caps show how full the queue actually kept the batches. The last
    /// entry doubles as an **overflow bucket**: a batch larger than the
    /// preallocated range saturates into it (see `record_batch_size`)
    /// instead of panicking the worker.
    pub per_batch_size: Vec<usize>,
}

/// Count one drained micro-batch of `batch_len` requests into the size
/// histogram, saturating out-of-range sizes into the **last** bucket: a
/// drain strategy that ever overshoots the preallocated cap (or a zero
/// cap) must degrade the telemetry, never panic the serving worker.
fn record_batch_size(hist: &mut [usize], batch_len: usize) {
    let bucket = batch_len.saturating_sub(1).min(hist.len().saturating_sub(1));
    if let Some(count) = hist.get_mut(bucket) {
        *count += 1;
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `p` in `[0, 1]`.
/// Nearest-rank is the value at 1-based rank `⌈p·n⌉`, clamped into
/// `[1, n]` so `p = 0` reads the first element — never an interpolation
/// or a half-up rounding between two samples, so a reported percentile is
/// always a latency that actually occurred and p50 of an even-length
/// window is the **lower** middle sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Per-worker serving state: a cached snapshot handle (one atomic load per
/// request to revalidate) plus reusable inference scratch buffers. Create
/// one per worker thread with [`ModelServer::inference_context`]; the
/// context is deliberately `!Sync` — it is owned state, never shared.
pub struct InferenceContext<'srv> {
    server: &'srv ModelServer,
    reader: SwapReader<'srv, ModelSnapshot>,
    scratch: InferenceScratch,
    served: usize,
    /// Snapshot epoch the scratch's embedding cache was built against.
    cache_epoch: u64,
}

impl InferenceContext<'_> {
    /// Serve one prediction on the current snapshot, reusing this context's
    /// scratch buffers: a micro-batch of one through
    /// [`InferenceContext::predict_batch`].
    pub fn predict(&mut self, shop: usize) -> Prediction {
        self.predict_batch(&[shop]).pop().expect("one prediction per request")
    }

    /// Serve one micro-batch of predictions on the current snapshot: the
    /// whole batch shares one snapshot revalidation, one tape reset and
    /// one packed forward pass ([`predict_batch_with`]) that reads the
    /// publish-time embeddings and layer-0 projections. Results are
    /// element-wise identical to calling [`InferenceContext::predict`] per
    /// shop, which is a batch of one on this same path. Picks up a newly
    /// published snapshot automatically: any publish — model, delta or
    /// full — installs the snapshot's cache in place of the context's, so
    /// memoised layer states never outlive the graph they were built on.
    pub fn predict_batch(&mut self, shops: &[usize]) -> Vec<Prediction> {
        let (snap, epoch) = self.reader.get_with_epoch();
        if epoch != self.cache_epoch {
            // New snapshot: drop stale embeddings and install the
            // publish-time precomputed ones from the snapshot itself.
            self.scratch.install_embed_cache(snap.embeddings.clone());
            self.cache_epoch = epoch;
        }
        let preds = predict_batch_with(
            &snap.model,
            &snap.ds,
            &snap.graph,
            shops,
            self.server.seed,
            &mut self.scratch,
        );
        self.served += preds.len();
        preds
    }

    /// Number of node embeddings currently cached for the served snapshot.
    pub fn cached_embeddings(&self) -> usize {
        self.scratch.cached_embeddings()
    }

    /// Number of nodes with cached layer-0 projections from the served
    /// snapshot's publish-time precompute (the batched path's conv-free
    /// fast path; full coverage means no request ever convolves K/V).
    pub fn cached_projections(&self) -> usize {
        self.scratch.cached_projections()
    }

    /// Number of centre-independent `(layer, node)` hidden states this
    /// context has memoised for the served snapshot. Stays 0 for a 1-layer
    /// model: its only layer is the final one, which is never memoised.
    pub fn cached_layer_states(&self) -> usize {
        self.scratch.cached_layer_states()
    }

    /// Fresh tensor buffers this context's reused tape has ever allocated
    /// (pool misses). Once every ego shape in the workload has been seen,
    /// this stays flat — the zero-alloc steady state of the request path.
    pub fn tape_fresh_allocs(&self) -> usize {
        self.scratch.tape_fresh_allocs()
    }

    /// Version of the snapshot this context currently serves from.
    pub fn model_version(&mut self) -> u64 {
        self.reader.get().version
    }

    /// World revision of the snapshot this context currently serves from.
    pub fn world_rev(&mut self) -> u64 {
        self.reader.get().world_rev
    }

    /// Publish epoch of the snapshot this context **last served from**
    /// (no revalidation): the monotone observable the hot-swap-under-churn
    /// tests track to prove a context never moves backwards in time.
    pub fn snapshot_epoch(&self) -> u64 {
        self.reader.seen_epoch()
    }

    /// Number of requests this context has served.
    pub fn served(&self) -> usize {
        self.served
    }
}

impl ModelServer {
    /// Boot a server from a published artifact and the online stores. Node
    /// embeddings for the whole dataset are precomputed into the snapshot.
    pub fn new(artifact: &ModelArtifact, graph: EsellerGraph, ds: Dataset, seed: u64) -> Self {
        let snapshot = Swap::new(Arc::new(ModelSnapshot::from_artifact(artifact, 0, ds, graph)));
        Self { snapshot, seed }
    }

    /// Hot-swap to a newer published model (no downtime: the install is one
    /// atomic store; readers finish in-flight requests on the old snapshot
    /// and pick up the new one on their next request). Embedding precompute
    /// happens here, off the request path, before the swap is made visible.
    /// The feature/graph stores carry over from the current generation.
    pub fn publish(&self, artifact: &ModelArtifact) {
        self.snapshot.update(|prev| {
            Arc::new(ModelSnapshot::from_artifact(
                artifact,
                prev.world_rev,
                prev.ds.clone(),
                prev.graph.clone(),
            ))
        });
    }

    /// Incremental republish under world churn: refresh the feature rows of
    /// `dirty` under the current generation's frozen scalers, recompute
    /// embeddings + layer-0 projections for the members of the dirty set's
    /// **ego-radius closure** (radius = the served model's ego hops, walked
    /// on the post-mutation graph) whose refreshed rows actually moved, and
    /// publish a snapshot that shares every clean cache segment with the
    /// previous generation — O(dirty·ego) allocation and compute instead of
    /// the O(world) teardown of [`ModelServer::publish_full`].
    ///
    /// Nothing is copied in proportion to the world. The new snapshot
    /// holds `world.graph` by `Arc` (two refcount bumps; a burst that
    /// changed no edge shares the previous snapshot's CSR), and the
    /// refreshed dataset shares its splits and every clean row segment
    /// with the previous one. What remains O(world) is walking the
    /// dataset's segment table and the cache's page table, one `Arc` bump
    /// per 64 nodes each, and the closure's per-node `seen` flags.
    ///
    /// The model is carried over unchanged (republish ≠ retrain); the
    /// delta-vs-full parity wall proves served predictions are identical to
    /// the teardown path for any mutation sequence. The closure runs inside
    /// [`Swap::update`], so concurrent publishers serialise and no delta is
    /// lost. Returns what was actually recomputed.
    pub fn publish_delta(&self, world: &World, dirty: &DirtySet) -> DeltaPublishStats {
        let mut stats = DeltaPublishStats::default();
        self.snapshot.update(|prev| {
            let ds = refresh_dataset(world, &prev.ds, dirty.nodes());
            let radius = prev.model.ego_config().hops;
            let closure = dirty_closure(&world.graph, dirty.nodes(), radius);
            // The closure is the correctness boundary, but embeddings and
            // layer-0 projections are pure functions of a node's feature
            // row, and the refresh rewrote only the dirty rows — so closure
            // nodes whose row is bit-identical to the previous generation's
            // keep their cached entries (same inputs + deterministic
            // kernels = same bits). A marked-but-unmoved node (e.g. an edge
            // endpoint whose features carry no degree) costs a row compare,
            // not a forward pass.
            let mut recompute: Vec<u32> = closure
                .iter()
                .copied()
                .filter(|&v| {
                    (v as usize) < prev.ds.n && !node_row_unchanged(&ds, &prev.ds, v as usize)
                })
                .collect();
            // Nodes appended since the previous generation are always new
            // work, whether or not the caller remembered to mark them.
            for v in prev.ds.n as u32..ds.n as u32 {
                if let Err(pos) = recompute.binary_search(&v) {
                    recompute.insert(pos, v);
                }
            }
            let embeddings =
                prev.model.precompute_embeddings_delta(&ds, &prev.embeddings, &recompute);
            stats = DeltaPublishStats {
                world_nodes: ds.n,
                dirty_nodes: dirty.len(),
                closure_nodes: closure.len(),
                recomputed_nodes: recompute.len(),
            };
            Arc::new(ModelSnapshot {
                version: prev.version,
                world_rev: prev.world_rev + 1,
                model: prev.model.clone(),
                embeddings,
                ds,
                graph: world.graph.clone(),
            })
        });
        stats
    }

    /// Full-teardown republish under world churn: refresh **every** feature
    /// row under the current generation's frozen scalers and rerun the
    /// whole-world `precompute_embeddings` path from an empty cache — the
    /// O(world) reference [`ModelServer::publish_delta`] is proven
    /// equivalent to (and benchmarked against). Same model, same frozen
    /// statistics; only the incremental shortcuts differ.
    pub fn publish_full(&self, world: &World) {
        self.snapshot.update(|prev| {
            let ds = refresh_dataset_full(world, &prev.ds);
            let embeddings = prev.model.precompute_embeddings(&ds);
            Arc::new(ModelSnapshot {
                version: prev.version,
                world_rev: prev.world_rev + 1,
                model: prev.model.clone(),
                embeddings,
                ds,
                graph: world.graph.clone(),
            })
        });
    }

    /// Currently served model version.
    pub fn version(&self) -> u64 {
        self.snapshot.load_full().version
    }

    /// Clone the currently published snapshot (version + parameters as one
    /// consistent unit).
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        self.snapshot.load_full()
    }

    /// Number of model publishes since boot (epoch of the snapshot cell).
    pub fn publishes(&self) -> u64 {
        self.snapshot.epoch()
    }

    /// Create a serving context for one worker thread: a cached snapshot
    /// handle plus reusable scratch buffers.
    pub fn inference_context(&self) -> InferenceContext<'_> {
        let mut reader = self.snapshot.reader();
        let (snap, cache_epoch) = reader.get_with_epoch();
        let mut scratch = InferenceScratch::new();
        scratch.install_embed_cache(snap.embeddings.clone());
        InferenceContext { server: self, reader, scratch, served: 0, cache_epoch }
    }

    /// Predict one shop (real-time path for a new-coming e-seller: its ego
    /// subgraph is extracted from the online graph store on the fly). One-off
    /// convenience — request loops should hold an [`InferenceContext`].
    pub fn predict_one(&self, shop: usize) -> Prediction {
        self.inference_context().predict(shop)
    }

    /// The worker-pool request path: fan `shops` out over `cfg.workers`
    /// threads through a channel, each worker serving through its own
    /// [`InferenceContext`]. A worker drains up to `cfg.micro_batch` queued
    /// requests per tape and serves them through one packed forward pass;
    /// a cap of 1 gives every request a tape of its own on the same path.
    /// Returns predictions in request order plus latency/throughput
    /// statistics measured per request from enqueue.
    pub fn serve(&self, shops: &[usize], cfg: ServeConfig) -> (Vec<Prediction>, ServeStats) {
        let workers = cfg.workers.clamp(1, shops.len().max(1));
        // Clamp like workers: a cap beyond the request count only inflates
        // the per-batch-size histogram (and a sentinel like usize::MAX
        // would try to allocate it).
        let micro_batch = cfg.micro_batch.clamp(1, shops.len().max(1));
        // An empty batch is a zeroed measurement, not a worker spawn: no
        // threads, no elapsed-time division (throughput stays 0, never
        // NaN), and the telemetry vectors keep their clamped shapes.
        if shops.is_empty() {
            let stats = ServeStats {
                requests: 0,
                seconds: 0.0,
                per_second: 0.0,
                latency_p50: 0.0,
                latency_p95: 0.0,
                latency_p99: 0.0,
                per_worker: vec![0; workers],
                per_batch_size: vec![0; micro_batch],
            };
            return (Vec::new(), stats);
        }
        let (req_tx, req_rx) = crossbeam::channel::unbounded::<(usize, usize)>();
        let enqueue = Instant::now();
        for pair in shops.iter().copied().enumerate() {
            req_tx.send(pair).expect("queue open");
        }
        drop(req_tx);
        type WorkerDone = (Vec<(usize, Prediction, f64)>, Vec<usize>);
        let worker_results: Vec<WorkerDone> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let rx = req_rx.clone();
                    scope.spawn(move || {
                        let mut ctx = self.inference_context();
                        let mut done = Vec::new();
                        let mut batch_sizes = vec![0usize; micro_batch];
                        let mut slots = Vec::with_capacity(micro_batch);
                        let mut batch = Vec::with_capacity(micro_batch);
                        while let Ok((slot, shop)) = rx.recv() {
                            // Drain whatever is already queued, up to the
                            // micro-batch cap, and serve it on one tape. A
                            // cap of 1 never enters the drain loop: each
                            // request is a batch of one.
                            slots.clear();
                            batch.clear();
                            slots.push(slot);
                            batch.push(shop);
                            while batch.len() < micro_batch {
                                match rx.try_recv() {
                                    Ok((s, sh)) => {
                                        slots.push(s);
                                        batch.push(sh);
                                    }
                                    Err(_) => break,
                                }
                            }
                            let preds = ctx.predict_batch(&batch);
                            let finished = enqueue.elapsed().as_secs_f64();
                            record_batch_size(&mut batch_sizes, batch.len());
                            for (&s, pred) in slots.iter().zip(preds) {
                                done.push((s, pred, finished));
                            }
                        }
                        (done, batch_sizes)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("serve worker panicked")).collect()
        });
        let seconds = enqueue.elapsed().as_secs_f64();

        let mut preds: Vec<Option<Prediction>> = (0..shops.len()).map(|_| None).collect();
        let mut latencies = Vec::with_capacity(shops.len());
        let mut per_worker = Vec::with_capacity(workers);
        let mut per_batch_size = vec![0usize; micro_batch];
        for (done, batch_sizes) in worker_results {
            per_worker.push(done.len());
            for (size, count) in per_batch_size.iter_mut().zip(batch_sizes) {
                *size += count;
            }
            for (slot, pred, latency) in done {
                latencies.push(latency);
                preds[slot] = Some(pred);
            }
        }
        let preds: Vec<Prediction> =
            preds.into_iter().map(|p| p.expect("every request served")).collect();
        latencies.sort_by(f64::total_cmp);
        let stats = ServeStats {
            requests: shops.len(),
            seconds,
            per_second: shops.len() as f64 / seconds.max(1e-9),
            latency_p50: percentile(&latencies, 0.50),
            latency_p95: percentile(&latencies, 0.95),
            latency_p99: percentile(&latencies, 0.99),
            per_worker,
            per_batch_size,
        };
        (preds, stats)
    }

    /// Measure inference time as a function of client count — the Section VI
    /// scaling claim ("inference time scales linearly with the number of
    /// clients"). Returns `(clients, seconds)` pairs.
    pub fn scaling_curve(&self, sizes: &[usize], workers: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(sizes.len());
        let n = self.snapshot.load_full().ds.n;
        for &size in sizes {
            let shops: Vec<usize> = (0..size).map(|i| i % n).collect();
            let (_, stats) = self.serve(&shops, ServeConfig { workers, micro_batch: 1 });
            out.push((size, stats.seconds));
        }
        out
    }
}

/// Least-squares linearity check for a scaling curve: returns the R² of
/// seconds ~ clients, in `[0, 1]`. Values near 1 confirm the paper's
/// linear-scaling claim.
pub fn linearity_r2(curve: &[(usize, f64)]) -> f64 {
    let n = curve.len() as f64;
    if curve.len() < 2 {
        return 1.0;
    }
    let mx = curve.iter().map(|&(x, _)| x as f64).sum::<f64>() / n;
    let my = curve.iter().map(|&(_, y)| y).sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for &(x, y) in curve {
        let dx = x as f64 - mx;
        let dy = y - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return 1.0;
    }
    // Exactly 1 in exact arithmetic for two points; rounding can land a
    // hair above it.
    ((sxy * sxy) / (sxx * syy)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::offline::OfflinePipeline;
    use gaia_core::trainer::{predict_one_with, TrainConfig};
    use gaia_core::{CacheTier, GaiaConfig};
    use gaia_graph::EgoConfig;
    use gaia_synth::{generate_dataset, WorldConfig};

    /// Relative budget of the `simd` build's kernels against the per-request
    /// reference path; exact on the scalar build.
    const SIMD_BUDGET: f32 = if cfg!(feature = "simd") { 1e-4 } else { 0.0 };

    /// The tests' small model at cache `tier`: 8 channels, 2 kernel
    /// groups, `layers` ITA layers over `layers`-hop egos of `fanout`.
    fn small_cfg(ds: &Dataset, layers: usize, fanout: usize, tier: CacheTier) -> GaiaConfig {
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = layers;
        cfg.ego = EgoConfig { hops: layers, fanout };
        cfg.cache_tier = tier;
        cfg
    }

    /// A server over a briefly trained 1-layer model whose artifacts
    /// publish at cache `tier`.
    fn booted_server(tier: CacheTier) -> (Arc<ModelServer>, OfflinePipeline, gaia_synth::World) {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds, 1, 3, tier);
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        let mut pipeline = OfflinePipeline::new(cfg, tc, 3);
        let (artifact, ds, _) = pipeline.execute_month(&world);
        let server = Arc::new(ModelServer::new(&artifact, world.graph.clone(), ds, 42));
        (server, pipeline, world)
    }

    /// The nearest-rank contract, pinned at the exact window shapes the
    /// doc/impl mismatch used to get wrong: rank `⌈p·n⌉` (clamped to
    /// `[1, n]`), so p50 of a 2-sample window is the **smaller** element
    /// (the old round-half-away code returned the larger) and every
    /// reported value is a sample that actually occurred.
    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[7.0], p), 7.0, "single sample at p={p}");
        }
        let two = [1.0, 2.0];
        assert_eq!(percentile(&two, 0.0), 1.0);
        assert_eq!(percentile(&two, 0.5), 1.0, "p50 of an even window is the lower middle");
        assert_eq!(percentile(&two, 0.99), 2.0);
        assert_eq!(percentile(&two, 1.0), 2.0);
        let three = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&three, 0.0), 1.0);
        assert_eq!(percentile(&three, 0.5), 2.0, "p50 of an odd window is the true median");
        assert_eq!(percentile(&three, 0.99), 3.0);
        assert_eq!(percentile(&three, 1.0), 3.0);
        // Monotone in p, and never an interpolated value.
        let samples = [0.25, 1.5, 4.0, 8.0, 9.5];
        let mut last = f64::MIN;
        for p in [0.0, 0.2, 0.5, 0.8, 0.95, 1.0] {
            let v = percentile(&samples, p);
            assert!(samples.contains(&v), "p={p} returned a value no request saw");
            assert!(v >= last, "percentile not monotone at p={p}");
            last = v;
        }
    }

    #[test]
    fn batch_size_histogram_saturates_instead_of_panicking() {
        let mut hist = vec![0usize; 4];
        record_batch_size(&mut hist, 1);
        record_batch_size(&mut hist, 4);
        assert_eq!(hist, vec![1, 0, 0, 1]);
        // Sizes beyond the preallocated range land in the last (overflow)
        // bucket rather than indexing out of bounds.
        record_batch_size(&mut hist, 5);
        record_batch_size(&mut hist, 100);
        assert_eq!(hist, vec![1, 0, 0, 3]);
        // Degenerate zero-size batch saturates low into the first bucket.
        record_batch_size(&mut hist, 0);
        assert_eq!(hist, vec![2, 0, 0, 3]);
        // Empty histogram (micro_batch = 0) must be a no-op, not a panic.
        let mut empty: Vec<usize> = Vec::new();
        record_batch_size(&mut empty, 3);
        assert!(empty.is_empty());
    }

    #[test]
    fn predict_one_matches_batch() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let single = server.predict_one(3);
        let (batch, stats) = server.serve(&[3], ServeConfig { workers: 1, micro_batch: 1 });
        assert_eq!(single.currency, batch[0].currency);
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.per_worker, vec![1]);
    }

    #[test]
    fn hot_swap_changes_version_and_parameters() {
        let (server, mut pipeline, world) = booted_server(CacheTier::F32);
        assert_eq!(server.version(), 1);
        assert_eq!(server.publishes(), 0);
        let before = server.predict_one(5);
        let (artifact2, _, _) = pipeline.execute_month(&world);
        server.publish(&artifact2);
        assert_eq!(server.version(), 2);
        assert_eq!(server.publishes(), 1);
        let after = server.predict_one(5);
        // Different seed/version training should change some output.
        assert_ne!(before.model_space, after.model_space);
    }

    #[test]
    fn context_survives_hot_swap() {
        let (server, mut pipeline, world) = booted_server(CacheTier::F32);
        let mut ctx = server.inference_context();
        assert_eq!(ctx.model_version(), 1);
        let before = ctx.predict(5);
        let (artifact2, _, _) = pipeline.execute_month(&world);
        server.publish(&artifact2);
        // The same context must pick up the new snapshot on its next call.
        assert_eq!(ctx.model_version(), 2);
        let after = ctx.predict(5);
        assert_ne!(before.model_space, after.model_space);
        assert_eq!(ctx.served(), 2);
    }

    #[test]
    fn precomputed_embeddings_cover_dataset_and_swap_replaces_them() {
        for tier in CacheTier::ALL {
            let (server, mut pipeline, world) = booted_server(tier);
            let mut ctx = server.inference_context();
            let n = server.snapshot().ds.n;
            // The snapshot's publish-time embeddings and layer-0 projections
            // are installed up front — batched requests never convolve K/V.
            assert_eq!(ctx.cached_embeddings(), n, "cache must cover every node");
            assert_eq!(ctx.cached_projections(), n, "projections must cover every node");
            let first = ctx.predict(3);
            // Serving from the precomputed cache must equal a from-scratch
            // forward pass (no cache ever sees this tape).
            let mut bare = InferenceScratch::new();
            let snap = server.snapshot();
            let uncached = predict_one_with(&snap.model, &snap.ds, &snap.graph, 3, 42, &mut bare);
            let (got, want) = (&first.model_space, &uncached.model_space);
            assert!(tier.within_budget(got, want, 0.0), "{tier:?}: {got:?} vs {want:?}");
            // A hot swap replaces the embeddings (stale ones would silently
            // serve the old model's parameters).
            let (artifact2, _, _) = pipeline.execute_month(&world);
            server.publish(&artifact2);
            let swapped = ctx.predict(3);
            assert_ne!(first.model_space, swapped.model_space);
            assert_eq!(ctx.cached_embeddings(), n);
            // And the served answer under the new model matches a fresh context.
            let fresh = server.predict_one(3);
            assert_eq!(swapped.model_space, fresh.model_space);
        }
    }

    #[test]
    fn stream_serving_returns_all_requests_in_order() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let shops: Vec<usize> = (0..20).collect();
        let (preds, stats) = server.serve(&shops, ServeConfig { workers: 4, micro_batch: 1 });
        assert_eq!(preds.len(), 20);
        let seen: Vec<usize> = preds.iter().map(|p| p.node).collect();
        assert_eq!(seen, shops, "results must come back in request order");
        // The stream path reports full stats now.
        assert_eq!(stats.requests, 20);
        assert_eq!(stats.per_worker.len(), 4);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 20);
        assert!(stats.latency_p50 > 0.0);
        assert!(stats.latency_p50 <= stats.latency_p95);
        assert!(stats.latency_p95 <= stats.latency_p99);
        assert!(stats.latency_p99 <= stats.seconds * 1.001);
    }

    #[test]
    fn stream_matches_direct_prediction() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let direct = server.predict_one(7);
        let (stream, _) = server.serve(&[7], ServeConfig { workers: 2, micro_batch: 1 });
        assert_eq!(stream[0].currency, direct.currency);
    }

    #[test]
    fn predictions_identical_for_any_worker_count() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let shops: Vec<usize> = (0..12).collect();
        let (one, _) = server.serve(&shops, ServeConfig { workers: 1, micro_batch: 1 });
        let (four, _) = server.serve(&shops, ServeConfig { workers: 4, micro_batch: 1 });
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.model_space, b.model_space);
        }
    }

    #[test]
    fn linearity_r2_on_perfect_line() {
        let curve = vec![(100, 1.0), (200, 2.0), (400, 4.0)];
        assert!((linearity_r2(&curve) - 1.0).abs() < 1e-12);
        let flat = vec![(100, 1.0), (200, 1.0)];
        assert_eq!(linearity_r2(&flat), 1.0);
    }

    /// Degenerate curves: an empty curve and a single measurement carry no
    /// linearity evidence, so R² defaults to 1 (vacuously linear) instead
    /// of dividing by zero.
    #[test]
    fn linearity_r2_degenerate_inputs() {
        assert_eq!(linearity_r2(&[]), 1.0);
        assert_eq!(linearity_r2(&[(250, 3.5)]), 1.0);
        // Repeated x with differing y (sxx == 0) must not NaN either.
        assert_eq!(linearity_r2(&[(100, 1.0), (100, 2.0)]), 1.0);
        // A clearly nonlinear curve scores below a near-perfect one.
        let bent = vec![(100, 1.0), (200, 1.05), (400, 9.0), (800, 9.1)];
        let r2 = linearity_r2(&bent);
        assert!((0.0..1.0).contains(&r2), "nonlinear curve got r2 = {r2}");
        let line = vec![(100, 1.0), (200, 2.0), (400, 4.0), (800, 8.0)];
        assert!(linearity_r2(&line) > r2);
    }

    /// `scaling_curve` covers the degenerate single-point sweep and labels
    /// each measurement with its client count.
    #[test]
    fn scaling_curve_single_point_and_labels() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let single = server.scaling_curve(&[8], 2);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].0, 8);
        assert!(single[0].1 > 0.0 && single[0].1.is_finite());
        // A single point is vacuously linear under linearity_r2.
        assert_eq!(linearity_r2(&single), 1.0);
        let empty = server.scaling_curve(&[], 2);
        assert!(empty.is_empty());
    }

    #[test]
    fn scaling_curve_grows_with_clients() {
        let (server, _, _) = booted_server(CacheTier::F32);
        // Per-point minimum over three sweeps: a millisecond-scale wall
        // time on a shared host can catch one scheduler stall.
        let mut curve = server.scaling_curve(&[10, 40], 2);
        for _ in 0..2 {
            for (best, again) in curve.iter_mut().zip(server.scaling_curve(&[10, 40], 2)) {
                best.1 = best.1.min(again.1);
            }
        }
        assert_eq!(curve.len(), 2);
        assert!(curve[1].1 >= curve[0].1 * 0.5, "time should roughly grow: {curve:?}");
    }

    /// A serving context reaches the zero-alloc steady state: after one
    /// sweep over the workload, repeat requests allocate no fresh tensor
    /// buffers — the per-request cost is pure compute on pooled memory.
    #[test]
    fn serving_context_reaches_zero_alloc_steady_state() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let mut ctx = server.inference_context();
        let shops: Vec<usize> = (0..10).collect();
        // Warm-up sweep: sees every ego shape in this workload.
        let warm_preds: Vec<_> = shops.iter().map(|&s| ctx.predict(s)).collect();
        let warm = ctx.tape_fresh_allocs();
        for _ in 0..3 {
            for (&shop, expected) in shops.iter().zip(&warm_preds) {
                let again = ctx.predict(shop);
                assert_eq!(again.model_space, expected.model_space);
            }
            assert_eq!(
                ctx.tape_fresh_allocs(),
                warm,
                "steady-state request allocated a fresh tensor buffer"
            );
        }
    }

    /// THE serving-side batch-parity wall: micro-batched serving returns
    /// exactly the one-request-per-tape predictions, in request order, for
    /// every micro-batch cap and worker count.
    #[test]
    fn micro_batched_serving_matches_per_request_exactly() {
        for tier in CacheTier::ALL {
            let (server, _, _) = booted_server(tier);
            let shops: Vec<usize> = (0..24).map(|i| i % 10).collect();
            let (expected, base_stats) =
                server.serve(&shops, ServeConfig { workers: 1, micro_batch: 1 });
            assert_eq!(base_stats.per_batch_size, vec![24], "micro_batch=1 packs singles only");
            for workers in [1usize, 3] {
                for micro_batch in [1usize, 4, 16] {
                    let (got, stats) = server.serve(&shops, ServeConfig { workers, micro_batch });
                    assert_eq!(got.len(), expected.len());
                    for (a, b) in got.iter().zip(&expected) {
                        assert_eq!(a.node, b.node, "order changed at w={workers} mb={micro_batch}");
                        let at = format!("{tier:?} w={workers} mb={micro_batch}");
                        assert_eq!(
                            a.model_space, b.model_space,
                            "batched serving diverged at {at}"
                        );
                        assert_eq!(a.currency, b.currency, "currency at {at}");
                    }
                    assert_eq!(stats.per_batch_size.len(), micro_batch);
                    let served: usize = stats
                        .per_batch_size
                        .iter()
                        .enumerate()
                        .map(|(i, count)| (i + 1) * count)
                        .sum();
                    assert_eq!(
                        served,
                        shops.len(),
                        "batch-size histogram must cover every request"
                    );
                }
            }
        }
    }

    /// A context's micro-batch path reaches the zero-alloc steady state
    /// (the server mirror of the trainer-level batched assertion) and
    /// stays bit-stable, for a batch of one as for a full micro-batch.
    #[test]
    fn batched_context_reaches_zero_alloc_steady_state() {
        let (server, _, _) = booted_server(CacheTier::F32);
        for size in [1usize, 8] {
            let mut ctx = server.inference_context();
            let shops: Vec<usize> = (0..size).collect();
            let warm_preds = ctx.predict_batch(&shops);
            let _ = ctx.predict_batch(&shops);
            let warm = ctx.tape_fresh_allocs();
            for _ in 0..3 {
                let again = ctx.predict_batch(&shops);
                for (a, b) in again.iter().zip(&warm_preds) {
                    assert_eq!(a.model_space, b.model_space);
                }
                assert_eq!(
                    ctx.tape_fresh_allocs(),
                    warm,
                    "steady-state batch of {size} allocated a fresh tensor buffer"
                );
            }
            assert_eq!(ctx.served(), 5 * shops.len());
        }
    }

    /// A hot swap lands between micro-batches: the context serves the next
    /// batch from the new snapshot (fresh embeddings and projections).
    #[test]
    fn batched_context_picks_up_hot_swap() {
        for tier in CacheTier::ALL {
            let (server, mut pipeline, world) = booted_server(tier);
            let mut ctx = server.inference_context();
            let before = ctx.predict_batch(&[3, 5]);
            let (artifact2, _, _) = pipeline.execute_month(&world);
            server.publish(&artifact2);
            let after = ctx.predict_batch(&[3, 5]);
            assert_ne!(before[0].model_space, after[0].model_space);
            // And the swapped answers equal a fresh context's.
            let fresh = server.predict_one(3);
            assert_eq!(after[0].model_space, fresh.model_space, "{tier:?} post-swap batch");
        }
    }

    /// An empty request slice is a zeroed measurement: no NaN throughput,
    /// no panic, zero latencies, and telemetry vectors that sum to zero —
    /// the degenerate case every aggregation downstream divides by.
    #[test]
    fn empty_batch_yields_empty_stats() {
        let (server, _, _) = booted_server(CacheTier::F32);
        let (preds, stats) = server.serve(&[], ServeConfig { workers: 4, micro_batch: 1 });
        assert!(preds.is_empty());
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.seconds, 0.0);
        assert_eq!(stats.per_second, 0.0, "throughput of nothing is zero, not NaN");
        assert!(stats.per_second.is_finite());
        assert_eq!(stats.latency_p50, 0.0);
        assert_eq!(stats.latency_p95, 0.0);
        assert_eq!(stats.latency_p99, 0.0);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 0);
        assert_eq!(stats.per_batch_size.iter().sum::<usize>(), 0);
        // A micro-batch cap hits the same early return.
        let (preds, stats) = server.serve(&[], ServeConfig { workers: 2, micro_batch: 8 });
        assert!(preds.is_empty());
        assert_eq!(stats.requests, 0);
        assert!(stats.per_second.is_finite());
    }

    /// The ISSUE's hot-swap-under-load contract: readers hammer the serving
    /// path while the offline pipeline publishes in a loop. Every prediction
    /// must be attributable to a published generation — never a mixture —
    /// and the versions a context observes must be monotone.
    #[test]
    fn hot_swap_under_load_never_tears() {
        for tier in CacheTier::ALL {
            let (server, mut pipeline, world) = booted_server(tier);
            // Precompute the expected answer for shop 5 under each generation.
            let mut artifacts = vec![];
            let mut expected = vec![server.predict_one(5).model_space.clone()];
            let current = server.snapshot();
            for _ in 0..3 {
                let (a, _, _) = pipeline.execute_month(&world);
                let snap =
                    ModelSnapshot::from_artifact(&a, 0, current.ds.clone(), current.graph.clone());
                let mut scratch = InferenceScratch::new();
                expected.push(
                    predict_one_with(&snap.model, &snap.ds, &snap.graph, 5, 42, &mut scratch)
                        .model_space
                        .clone(),
                );
                artifacts.push(a);
            }
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let server = &server;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut ctx = server.inference_context();
                        let mut last_version = 0;
                        for _ in 0..60 {
                            let version = ctx.model_version();
                            assert!(version >= last_version, "version went backwards");
                            last_version = version;
                            let pred = ctx.predict(5);
                            // The prediction must match ONE generation — a torn
                            // read (mixed parameters) would match none. "Matches"
                            // carries the tier's budget: exact on f32, and on f16
                            // still far below inter-generation differences.
                            let matches_one = expected
                                .iter()
                                .any(|e| tier.within_budget(&pred.model_space, e, 0.0));
                            assert!(matches_one, "prediction matches no published generation");
                        }
                    });
                }
                scope.spawn(|| {
                    for a in &artifacts {
                        server.publish(a);
                        std::thread::yield_now();
                    }
                });
            });
            assert_eq!(server.version(), 4);
            assert_eq!(server.publishes(), 3);
        }
    }

    /// A server over an untrained (but deterministically initialised)
    /// model: delta-vs-full parity is a property of the republish paths,
    /// not of training, and skipping the train loop keeps these tests fast
    /// enough to run at a world size with several cache segments. Its
    /// artifact publishes at cache `tier`.
    fn untrained_server(
        n_shops: usize,
        world_seed: u64,
        tier: CacheTier,
    ) -> (ModelServer, gaia_synth::World, ModelArtifact) {
        let wc = WorldConfig { n_shops, seed: world_seed, ..WorldConfig::tiny() };
        let (world, ds) = generate_dataset(wc);
        let artifact = ModelArtifact::untrained(small_cfg(&ds, 1, 3, tier), 7);
        let server = ModelServer::new(&artifact, world.graph.clone(), ds, 42);
        (server, world, artifact)
    }

    /// One burst of realistic churn: a history rewrite deep enough to move
    /// the *input* window (the world's trailing `horizon` months are the
    /// target, so a shallow write would be invisible to features), a supply
    /// rewire, an industry move and a brand-new shop with no history.
    fn churn(world: &mut gaia_synth::World, horizon: usize) -> DirtySet {
        use gaia_synth::{MonthlySales, NewShop, Role};
        let window: Vec<MonthlySales> = (0..horizon + 3)
            .map(|m| MonthlySales {
                gmv: 4_000.0 + 250.0 * m as f64,
                orders: 40.0 + m as f64,
                customers: 25.0,
            })
            .collect();
        world.record_sales(2, &window);
        let supplier = world.shops.iter().position(|s| s.role == Role::Supplier).unwrap() as u32;
        let retailer = world.shops.iter().position(|s| s.role == Role::Retailer).unwrap() as u32;
        world.add_supply_edge(supplier, retailer);
        let new_industry = world.shops[8].industry;
        world.set_industry(5, new_industry);
        world.add_shop(NewShop {
            industry: world.shops[0].industry,
            region: world.shops[0].region,
            role: Role::Retailer,
            owner: world.shops[0].owner,
            lead: 0,
        });
        world.take_dirty()
    }

    /// THE delta-vs-full parity wall at unit scope: after a burst of churn
    /// (history rewrite, edge rewire, industry move, new shop),
    /// `publish_delta` must serve the same predictions as the
    /// full-teardown `publish_full` for **every** shop — including the one
    /// that did not exist in the previous generation — while recomputing
    /// only the dirty closure, not the world.
    #[test]
    fn delta_publish_matches_full_teardown() {
        let (delta_srv, mut world_a, _) = untrained_server(160, 21, CacheTier::F32);
        let (full_srv, mut world_b, _) = untrained_server(160, 21, CacheTier::F32);
        let horizon = delta_srv.snapshot().ds.horizon;
        let dirty = churn(&mut world_a, horizon);
        let dirty_b = churn(&mut world_b, horizon);
        assert_eq!(dirty, dirty_b, "identical churn scripts must dirty the same nodes");
        assert!(!dirty.is_empty());

        let stats = delta_srv.publish_delta(&world_a, &dirty);
        full_srv.publish_full(&world_b);

        assert_eq!(stats.world_nodes, 161, "the new shop joined the serving world");
        assert!(stats.closure_nodes >= dirty.len(), "closure includes the dirty set");
        assert!(stats.recomputed_nodes >= 1, "the rewritten history and new shop are real work");
        assert!(
            stats.recomputed_nodes < stats.world_nodes,
            "delta republish recomputed the whole world ({stats:?})"
        );

        let snap_d = delta_srv.snapshot();
        let snap_f = full_srv.snapshot();
        assert_eq!(snap_d.world_rev, 1);
        assert_eq!(snap_f.world_rev, 1);
        assert_eq!(snap_d.version, 1, "a republish is not a retrain");
        assert_eq!(snap_d.ds.n, snap_f.ds.n);

        let mut ctx_d = delta_srv.inference_context();
        let mut ctx_f = full_srv.inference_context();
        for shop in 0..snap_d.ds.n {
            // Exact on the scalar build, within 1e-4 relative under `simd`.
            let (delta, full) = (ctx_d.predict(shop), ctx_f.predict(shop));
            assert_eq!(delta.node, full.node);
            let (d, f) = (&delta.model_space, &full.model_space);
            assert!(CacheTier::F32.within_budget(d, f, SIMD_BUDGET), "shop {shop}: {d:?} vs {f:?}");
        }
    }

    /// A lone request takes the batched, projection-cached path: for every
    /// shop of a published snapshot, `predict`, `predict_batch(&[shop])`
    /// and the uncached per-request reference agree at the build's tier —
    /// including a shop with no edges (its ITA unit keeps only the self
    /// term) and shops born through `publish_delta`, one with edges and one
    /// without.
    #[test]
    fn batch_of_one_matches_uncached_reference() {
        use gaia_synth::{NewShop, Role};
        for tier in CacheTier::ALL {
            let (server, mut world, _) = untrained_server(60, 13, tier);
            let template = world.shops[0].clone();
            let fresh_owner = world.shops.iter().map(|s| s.owner).max().unwrap() + 1;
            let mut born = |owner: u32| {
                world.add_shop(NewShop {
                    industry: template.industry,
                    region: template.region,
                    role: Role::Retailer,
                    owner,
                    lead: 0,
                }) as usize
            };
            let loner = born(fresh_owner);
            let joiner = born(template.owner);
            let dirty = world.take_dirty();
            server.publish_delta(&world, &dirty);

            let snap = server.snapshot();
            assert_eq!(snap.ds.n, world.shops.len(), "both newcomers joined the serving world");
            assert_eq!(snap.graph.degree(loner), 0, "the loner must have no edges");
            assert!(snap.graph.degree(joiner) > 0, "the joiner must have same-owner edges");
            let mut ctx = server.inference_context();
            for shop in 0..snap.ds.n {
                let mut bare = InferenceScratch::new();
                let reference =
                    predict_one_with(&snap.model, &snap.ds, &snap.graph, shop, 42, &mut bare);
                let single = ctx.predict(shop);
                let batch = ctx.predict_batch(&[shop]);
                assert_eq!(single.node, shop);
                assert_eq!(batch.len(), 1);
                assert_eq!(
                    single.model_space, batch[0].model_space,
                    "shop {shop}: predict vs batch"
                );
                assert_eq!(single.currency, batch[0].currency, "shop {shop}: currency");
                let (got, want) = (&single.model_space, &reference.model_space);
                assert!(
                    tier.within_budget(got, want, SIMD_BUDGET),
                    "{tier:?} shop {shop} vs uncached: {got:?} vs {want:?}"
                );
            }
        }
    }

    /// The layer-state memo is bypassed by a 1-layer model (serve-100k's
    /// shape): its only ITA layer is the final one, so a context serving
    /// many batches never memoises a state.
    #[test]
    fn one_layer_model_never_memoises_layer_states() {
        let (server, _, _) = untrained_server(60, 13, CacheTier::F32);
        assert_eq!(server.snapshot().model.cfg.layers, 1);
        let mut ctx = server.inference_context();
        for round in 0..4 {
            for batch in (0..60).collect::<Vec<usize>>().chunks(8) {
                ctx.predict_batch(batch);
            }
            assert_eq!(ctx.cached_layer_states(), 0, "round {round} memoised a layer state");
        }
        assert_eq!(ctx.served(), 4 * 60);
    }

    /// A snapshot change drops the memo: a 2-layer context that has
    /// memoised a complete shop's layer-1 state serves, after a delta that
    /// adds a supply edge to that shop and rewrites one of its neighbours'
    /// sales, exactly what a fresh context and the uncached reference
    /// serve on the new snapshot. A memo that survived the swap would
    /// replay the old neighbourhood's state.
    #[test]
    fn delta_publish_drops_memoised_layer_states() {
        use gaia_synth::MonthlySales;
        for tier in CacheTier::ALL {
            let wc = WorldConfig { n_shops: 80, seed: 17, ..WorldConfig::tiny() };
            let (mut world, ds) = generate_dataset(wc);
            let cfg = small_cfg(&ds, 2, 4, tier);
            let artifact = ModelArtifact::untrained(cfg.clone(), 7);
            let server = ModelServer::new(&artifact, world.graph.clone(), ds, 42);
            // A shop that stays complete after gaining one edge, and a shop
            // not yet linked to it to supply it.
            let graph = &world.graph;
            let target = (0..graph.num_nodes())
                .find(|&v| (1..cfg.ego.fanout).contains(&graph.degree(v)))
                .expect("a shop with spare fan-out");
            let neighbour = graph.neighbors(target)[0].node;
            let supplier = (0..graph.num_nodes() as u32)
                .find(|&v| {
                    v as usize != target && graph.neighbors(target).iter().all(|nb| nb.node != v)
                })
                .unwrap();
            let shops: Vec<usize> = vec![target, neighbour as usize, supplier as usize];

            let mut ctx = server.inference_context();
            let before = ctx.predict_batch(&shops);
            assert!(ctx.cached_layer_states() > 0, "the target's layer-1 state was not memoised");

            assert!(world.add_supply_edge(supplier, target as u32));
            let window: Vec<MonthlySales> = (0..server.snapshot().ds.horizon + 2)
                .map(|m| MonthlySales {
                    gmv: 7_000.0 + 300.0 * m as f64,
                    orders: 50.0,
                    customers: 20.0,
                })
                .collect();
            world.record_sales(neighbour, &window);
            let dirty = world.take_dirty();
            server.publish_delta(&world, &dirty);
            let snap = server.snapshot();
            assert!(snap.graph.degree(target) <= cfg.ego.fanout, "the target must stay complete");

            let after = ctx.predict_batch(&shops);
            let fresh = server.inference_context().predict_batch(&shops);
            for ((a, f), b) in after.iter().zip(&fresh).zip(&before) {
                assert_eq!(a.model_space, f.model_space, "shop {}: warm vs fresh context", a.node);
                let mut bare = InferenceScratch::new();
                let reference =
                    predict_one_with(&snap.model, &snap.ds, &snap.graph, a.node, 42, &mut bare);
                let (got, want) = (&a.model_space, &reference.model_space);
                assert!(tier.within_budget(got, want, SIMD_BUDGET), "{got:?} vs {want:?}");
                if a.node == target {
                    assert_ne!(a.model_space, b.model_space, "the delta must move the target");
                }
            }
        }
    }

    /// An empty dirty set is a true no-op republish: nothing is
    /// recomputed, every copy-on-write segment of the published cache is
    /// the *same allocation* as the previous generation's, and served
    /// predictions are bit-identical on every build — yet the world
    /// revision still advances so observers can tell the publish happened.
    #[test]
    fn empty_dirty_republish_shares_every_segment() {
        let (server, world, _) = untrained_server(60, 5, CacheTier::F32);
        let before = server.snapshot();
        let preds: Vec<_> = (0..before.ds.n).map(|s| server.predict_one(s)).collect();

        let stats = server.publish_delta(&world, &DirtySet::default());
        assert_eq!(stats.dirty_nodes, 0);
        assert_eq!(stats.closure_nodes, 0);
        assert_eq!(stats.recomputed_nodes, 0);

        let after = server.snapshot();
        assert_eq!(after.world_rev, 1);
        assert_eq!(after.embeddings.segment_count(), before.embeddings.segment_count());
        for seg in 0..before.embeddings.segment_count() {
            let addr = after.embeddings.segment_addr(seg);
            assert!(addr.is_some(), "published cache lost segment {seg}");
            assert_eq!(
                before.embeddings.segment_addr(seg),
                addr,
                "segment {seg} was rebuilt by a no-op republish"
            );
        }
        for (shop, expected) in preds.iter().enumerate() {
            assert_eq!(server.predict_one(shop).model_space, expected.model_space);
        }
    }

    /// A small dirty set rebuilds only the segments its ego closure
    /// touches: every other segment of the published cache is shared by
    /// `Arc` with the previous generation (O(dirty·ego) allocation, not
    /// O(world)), and shops outside the closure keep serving bit-identical
    /// predictions on both builds.
    #[test]
    fn delta_republish_shares_clean_segments() {
        use gaia_synth::MonthlySales;
        let (server, mut world, _) = untrained_server(160, 9, CacheTier::F32);
        let before = server.snapshot();
        let preds: Vec<_> = (0..before.ds.n).map(|s| server.predict_one(s)).collect();

        let window: Vec<MonthlySales> = (0..before.ds.horizon + 2)
            .map(|m| MonthlySales {
                gmv: 9_000.0 + 100.0 * m as f64,
                orders: 64.0,
                customers: 31.0,
            })
            .collect();
        world.record_sales(2, &window);
        let dirty = world.take_dirty();
        let radius = before.model.ego_config().hops;
        let closure = dirty_closure(&world.graph, dirty.nodes(), radius);
        assert!(closure.len() > 1, "shop 2 should have ego neighbours in this world");

        let stats = server.publish_delta(&world, &dirty);
        assert_eq!(stats.closure_nodes, closure.len());
        // Only shop 2's feature row actually moved; its closure neighbours
        // refreshed to bit-identical rows and kept their cached entries.
        assert_eq!(stats.recomputed_nodes, 1);

        let after = server.snapshot();
        let rebuilt = EmbedCache::segment_of(2);
        for seg in 0..before.embeddings.segment_count() {
            let (b, a) = (before.embeddings.segment_addr(seg), after.embeddings.segment_addr(seg));
            if seg == rebuilt {
                assert_ne!(b, a, "the rewritten shop's segment must be rebuilt");
            } else {
                assert_eq!(b, a, "clean segment {seg} must be shared, not copied");
            }
        }
        // Any shop outside the closure has an unchanged feature row AND an
        // ego subgraph disjoint from the mutation (the closure is the
        // ego-radius ball), so its served bits must not move at all.
        for shop in 0..before.ds.n {
            if !closure.contains(&(shop as u32)) {
                assert_eq!(
                    server.predict_one(shop).model_space,
                    preds[shop].model_space,
                    "clean shop {shop} changed under a disjoint delta"
                );
            }
        }
    }

    /// A server publishes at its artifact's cache tier. Delta bursts
    /// inherit the previous cache's tier for every segment they rewrite
    /// or append, a full republish keeps the model's tier, and a model
    /// hot swap publishes at the new artifact's tier.
    #[test]
    fn every_publish_path_keeps_the_artifact_tier() {
        let (server, mut world, artifact) = untrained_server(160, 9, CacheTier::F16);
        let stored_at = |tier| {
            let snap = server.snapshot();
            let cache = &snap.embeddings;
            cache.tier() == tier
                && (0..cache.segment_count()).all(|seg| cache.segment_tier(seg) == Some(tier))
        };
        assert!(stored_at(CacheTier::F16), "boot publish");

        // A burst that rewrites a row: its segment is rebuilt, at f16.
        let before = server.snapshot();
        let industry = world.shops[8].industry;
        world.set_industry(5, industry);
        let dirty = world.take_dirty();
        server.publish_delta(&world, &dirty);
        let seg = EmbedCache::segment_of(5);
        let rebuilt = server.snapshot().embeddings.segment_addr(seg);
        assert_ne!(rebuilt, before.embeddings.segment_addr(seg), "the burst rebuilt nothing");
        assert!(stored_at(CacheTier::F16), "rewritten segment");

        // A burst that grows the world (`churn` appends a shop).
        let dirty = churn(&mut world, before.ds.horizon);
        server.publish_delta(&world, &dirty);
        let appended = server.snapshot().embeddings.segment_count();
        assert!(appended > before.embeddings.segment_count(), "no segment appended");
        assert!(stored_at(CacheTier::F16), "appended segment");

        server.publish_full(&world);
        assert!(stored_at(CacheTier::F16), "full republish");
        server.publish(&artifact);
        assert!(stored_at(CacheTier::F16), "model hot swap");
        let mut wide = artifact.clone();
        wide.config.cache_tier = CacheTier::F32;
        server.publish(&wide);
        assert!(stored_at(CacheTier::F32), "hot swap to an f32 artifact");
    }

    /// A snapshot holds the world's graph by `Arc`, never a copy: a delta
    /// publish whose burst changed no edge serves from the previous
    /// snapshot's CSR storage, and one after an `add_supply_edge` serves
    /// the world's rebuilt graph.
    #[test]
    fn delta_publish_shares_the_graph_until_an_edge_changes() {
        use gaia_synth::{MonthlySales, Role};
        fn same_storage(a: &EsellerGraph, b: &EsellerGraph) -> bool {
            a.num_nodes() == b.num_nodes()
                && (0..a.num_nodes()).all(|v| a.neighbors(v).as_ptr() == b.neighbors(v).as_ptr())
        }
        let (server, mut world, _) = untrained_server(160, 9, CacheTier::F32);
        let before = server.snapshot();
        let window: Vec<MonthlySales> = (0..before.ds.horizon + 2)
            .map(|m| MonthlySales { gmv: 8_000.0 + 50.0 * m as f64, orders: 30.0, customers: 20.0 })
            .collect();
        world.record_sales(2, &window);
        let dirty = world.take_dirty();
        server.publish_delta(&world, &dirty);
        let sales_only = server.snapshot();
        assert!(
            same_storage(&sales_only.graph, &before.graph),
            "an edge-free burst copied the CSR"
        );

        let supplier = world.shops.iter().position(|s| s.role == Role::Supplier).unwrap() as u32;
        let retailers: Vec<u32> = (0..world.shops.len() as u32)
            .filter(|&r| world.shops[r as usize].role == Role::Retailer)
            .collect();
        let added = retailers
            .into_iter()
            .find(|&r| world.add_supply_edge(supplier, r))
            .expect("some retailer is not yet supplied by the first supplier");
        let dirty = world.take_dirty();
        server.publish_delta(&world, &dirty);
        let rewired = server.snapshot();
        assert!(!same_storage(&rewired.graph, &sales_only.graph), "a rewire served the old CSR");
        assert!(same_storage(&rewired.graph, &world.graph));
        assert_eq!(rewired.graph.num_edges(), before.graph.num_edges() + 1);
        assert!(rewired.graph.neighbors(supplier as usize).iter().any(|nb| nb.node == added));
    }

    /// Pure model publishes and world republishes advance orthogonal
    /// counters: `publish` bumps the version and carries the world
    /// revision, `publish_delta`/`publish_full` bump the revision and
    /// carry the version.
    #[test]
    fn version_and_world_rev_advance_independently() {
        let (server, world, artifact) = untrained_server(60, 3, CacheTier::F32);
        let snap = server.snapshot();
        assert_eq!((snap.version, snap.world_rev), (1, 0));

        server.publish_delta(&world, &DirtySet::default());
        let snap = server.snapshot();
        assert_eq!((snap.version, snap.world_rev), (1, 1));

        let mut a2 = artifact.clone();
        a2.version = 2;
        server.publish(&a2);
        let snap = server.snapshot();
        assert_eq!((snap.version, snap.world_rev), (2, 1));

        server.publish_full(&world);
        let snap = server.snapshot();
        assert_eq!((snap.version, snap.world_rev), (2, 2));
        assert_eq!(server.publishes(), 3);

        // A context tracks both counters through the publish sequence.
        let mut ctx = server.inference_context();
        assert_eq!(ctx.model_version(), 2);
        assert_eq!(ctx.world_rev(), 2);
    }
}
