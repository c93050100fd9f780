//! Shard-per-worker serving with per-shard epoch snapshots.
//!
//! The unsharded [`ModelServer`] swaps one
//! global snapshot: any republish — even a delta touching three shops —
//! forces every worker through a cache reinstall on its next request, and
//! every worker's embedding cache spans the whole world. This module is the
//! multi-core story: the shop graph is partitioned into shards keyed by the
//! **industry bucket** the supply-chain mining groups shops by
//! ([`gaia_graph::ShardMap`], balanced by shop count), one worker plus its
//! own [`EmbedCache`] slice is pinned per shard, and requests route
//! shard-affine through per-shard queues with work-stealing for stragglers.
//!
//! Each shard has its own [`Swap`] cell, so publishing one shard — full or
//! delta — never stalls readers of the others: their epoch does not move
//! and their cache segments keep their exact allocations (observable via
//! [`EmbedCache::segment_addr`]). A delta republish reslices only the
//! shards whose members intersect the dirty set's ego-radius closure — the
//! same boundary the delta-vs-full parity wall proves sufficient, because a
//! member farther than `hops` from every dirty node has a bit-identical
//! feature row and an ego subgraph disjoint from the mutation.
//!
//! Parity: a shard's slice retains every cache segment covering its
//! members' ego closure, so a pinned worker never misses the cache — even
//! under `embed-f16`, where a miss would recompute in exact f32 and diverge
//! from the quantised frozen block. A stealing worker serves stolen
//! requests **on the victim shard's snapshot**, so stolen predictions are
//! the same bits the home worker would have produced. The
//! `sharded_routing_matches_unsharded` proptest holds this to the usual
//! two-tier wall (bit-exact scalar, 1e-4 relative under simd).

use crate::offline::ModelArtifact;
use crate::server::DeltaPublishStats;
use crate::server::{percentile, record_batch_size, ModelServer, ModelSnapshot, ServeStats};
use crate::swap::{Swap, SwapReader};
use gaia_core::trainer::{predict_batch_with, InferenceScratch, Prediction};
use gaia_core::{EmbedCache, GraphForecaster};
use gaia_graph::{dirty_closure, ShardMap};
use gaia_synth::{Dataset, DirtySet, World};
use std::sync::Arc;
use std::time::Instant;

/// One shard's published serving generation: the master snapshot it was
/// cut from (model + feature/graph stores, shared by `Arc` across every
/// shard of the same publish) plus this shard's embedding-cache slice.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// Shard id this slice serves.
    pub shard: usize,
    /// The master generation: one [`ModelSnapshot`] `Arc` shared by every
    /// shard sliced from the same publish, so a request can never observe
    /// a model/feature/graph mismatch within a shard.
    pub master: Arc<ModelSnapshot>,
    /// This shard's cache slice: `Arc`-bump retained segments covering the
    /// members' ego-radius closure (so a pinned worker never misses), all
    /// other segments dropped.
    pub embeddings: EmbedCache,
}

impl ShardSnapshot {
    /// Model version of the master generation this slice was cut from.
    pub fn version(&self) -> u64 {
        self.master.version
    }

    /// World revision of the master generation this slice was cut from.
    pub fn world_rev(&self) -> u64 {
        self.master.world_rev
    }
}

/// Cut shard `shard`'s slice from a master generation: retain exactly the
/// cache segments covering the members' ego-radius closure. Pure `Arc`
/// bumps — a retained segment is the **same allocation** as the master's
/// (and as the previous generation's, when the master republish left it
/// clean), which is what the per-shard-publish isolation tests observe.
fn slice_shard(master: &Arc<ModelSnapshot>, map: &ShardMap, shard: usize) -> ShardSnapshot {
    let members = map.members(shard);
    let hops = master.model.ego_config().hops;
    let closure = dirty_closure(&master.graph, &members, hops);
    let mut keep = vec![false; master.embeddings.segment_count()];
    for &v in &closure {
        if let Some(k) = keep.get_mut(EmbedCache::segment_of(v as usize)) {
            *k = true;
        }
    }
    let embeddings = master.embeddings.retain_segments(|seg| keep[seg]);
    ShardSnapshot { shard, master: Arc::clone(master), embeddings }
}

/// Shard-per-worker model server: a master [`ModelServer`] (the publish
/// pipeline and the unsharded reference path) plus one [`Swap`] cell per
/// shard and a routing [`ShardMap`].
///
/// Serving ([`ShardedModelServer::serve_sharded`]) spawns one worker per
/// shard; each drains its own queue first, then steals round-robin from
/// the others. Publishing goes through the master first (so the unsharded
/// and sharded views are generations of the same world), then reslices
/// only the affected shards.
pub struct ShardedModelServer {
    master: ModelServer,
    map: Swap<ShardMap>,
    shards: Vec<Swap<ShardSnapshot>>,
    seed: u64,
}

/// What one shard worker produced: served requests (slot, prediction,
/// completion time), its micro-batch-size histogram, requests attributed
/// to each **home shard**, and how many of those were stolen.
struct ShardWorkerReport {
    done: Vec<(usize, Prediction, f64)>,
    batch_sizes: Vec<usize>,
    per_shard: Vec<usize>,
    stolen: usize,
}

/// Drain loop of one pinned worker: exhaust the own queue (`worker`'s
/// shard), then sweep the other queues round-robin and steal whatever is
/// left. Every drained micro-batch comes from a single queue and is served
/// on **that** shard's snapshot — stolen work produces the home worker's
/// bits. All requests are enqueued (and every sender dropped) before any
/// worker starts, so a queue that reports empty stays empty and one sweep
/// over all queues serves everything.
///
/// The scratch's embedding cache is reinstalled only when the served
/// `(shard, epoch)` changes, so the steady state (no stealing, no publish)
/// keeps the unsharded path's one-atomic-load revalidation cost.
fn run_shard_worker(
    server: &ShardedModelServer,
    worker: usize,
    queues: &[crossbeam::channel::Receiver<(usize, usize)>],
    micro_batch: usize,
    enqueue: Instant,
) -> ShardWorkerReport {
    let n = queues.len();
    let mut readers: Vec<SwapReader<'_, ShardSnapshot>> =
        server.shards.iter().map(|cell| cell.reader()).collect();
    let mut scratch = InferenceScratch::new();
    let mut installed: Option<(usize, u64)> = None;
    let mut report = ShardWorkerReport {
        done: Vec::new(),
        batch_sizes: vec![0; micro_batch],
        per_shard: vec![0; n],
        stolen: 0,
    };
    let mut slots = Vec::with_capacity(micro_batch);
    let mut batch = Vec::with_capacity(micro_batch);
    for offset in 0..n {
        let shard = (worker + offset) % n;
        let rx = &queues[shard];
        while let Ok((slot, shop)) = rx.try_recv() {
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
            let (snap, epoch) = readers[shard].get_with_epoch();
            if installed != Some((shard, epoch)) {
                scratch.install_embed_cache(snap.embeddings.clone());
                installed = Some((shard, epoch));
            }
            let preds = predict_batch_with(
                &snap.master.model,
                &snap.master.ds,
                &snap.master.graph,
                &batch,
                server.seed,
                &mut scratch,
            );
            let finished = enqueue.elapsed().as_secs_f64();
            record_batch_size(&mut report.batch_sizes, batch.len());
            report.per_shard[shard] += preds.len();
            if offset > 0 {
                report.stolen += preds.len();
            }
            for (&s, pred) in slots.iter().zip(preds) {
                report.done.push((s, pred, finished));
            }
        }
    }
    report
}

impl ShardedModelServer {
    /// Boot a sharded server from a published artifact and the online
    /// stores: partition the world's shops by industry onto `n_shards`
    /// shards (clamped to at least 1), boot the master server, and cut
    /// each shard's initial snapshot from the master generation.
    pub fn new(
        artifact: &ModelArtifact,
        world: &World,
        ds: Dataset,
        n_shards: usize,
        seed: u64,
    ) -> Self {
        let keys: Vec<u16> = world.shops.iter().map(|s| s.industry).collect();
        let map = ShardMap::from_keys(&keys, n_shards);
        let master = ModelServer::new(artifact, world.graph.clone(), ds, seed);
        let snap = master.snapshot();
        let shards =
            (0..map.n_shards()).map(|s| Swap::new(Arc::new(slice_shard(&snap, &map, s)))).collect();
        Self { master, map: Swap::new(Arc::new(map)), shards, seed }
    }

    /// The master (unsharded) server this fleet publishes through — the
    /// reference path the sharded parity wall compares against.
    pub fn master(&self) -> &ModelServer {
        &self.master
    }

    /// Number of shards (and of pinned serving workers).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The current routing map.
    pub fn shard_map(&self) -> Arc<ShardMap> {
        self.map.load_full()
    }

    /// Publish epoch of one shard's snapshot cell: bumped only when **this
    /// shard** is resliced, so an unaffected shard's epoch proves its
    /// readers were never disturbed.
    pub fn shard_epoch(&self, shard: usize) -> u64 {
        self.shards[shard].epoch()
    }

    /// Clone shard `shard`'s current snapshot.
    pub fn shard_snapshot(&self, shard: usize) -> Arc<ShardSnapshot> {
        self.shards[shard].load_full()
    }

    /// Append newly added shops to the routing map (sticky industry
    /// routing; a brand-new industry goes to the least-loaded shard).
    fn extend_map(&self, world: &World) {
        if world.shops.len() > self.map.load_full().len() {
            self.map.update(|m| {
                let mut next = (**m).clone();
                let keys: Vec<u16> = world.shops[next.len()..].iter().map(|s| s.industry).collect();
                next.extend(&keys);
                Arc::new(next)
            });
        }
    }

    /// Hot-swap every shard to a newer published model: the master
    /// publishes first (embedding precompute off the request path), then
    /// each shard is resliced from the new generation. A model change
    /// invalidates every embedding, so this is the one publish that
    /// necessarily advances all shard epochs.
    pub fn publish(&self, artifact: &ModelArtifact) {
        self.master.publish(artifact);
        let snap = self.master.snapshot();
        let map = self.map.load_full();
        for (s, cell) in self.shards.iter().enumerate() {
            cell.update(|_| Arc::new(slice_shard(&snap, &map, s)));
        }
    }

    /// Incremental republish under world churn, sharded: the master runs
    /// its delta publish (closure walk, row-equality filter, segment
    /// copy-on-write), then **only the affected shards** are resliced — a
    /// shard is affected iff it owns a node of the dirty-set-plus-appended
    /// ego-radius closure. Every other shard keeps its previous snapshot:
    /// epoch unmoved, segment allocations identical, readers undisturbed.
    /// That snapshot still references the pre-churn master generation, and
    /// serving from it is correct by the delta-wall argument: each of its
    /// members is farther than `hops` from every changed node, so its
    /// feature row and ego subgraph — and therefore its prediction — are
    /// unchanged between the generations.
    pub fn publish_delta(&self, world: &World, dirty: &DirtySet) -> DeltaPublishStats {
        let prev_nodes = self.map.load_full().len();
        self.extend_map(world);
        let stats = self.master.publish_delta(world, dirty);
        let snap = self.master.snapshot();
        let map = self.map.load_full();
        let mut seeds: Vec<u32> = dirty.nodes().to_vec();
        seeds.extend(prev_nodes as u32..world.shops.len() as u32);
        let closure = dirty_closure(&world.graph, &seeds, snap.model.ego_config().hops);
        let mut affected = vec![false; map.n_shards()];
        for &v in &closure {
            affected[map.shard_of(v as usize)] = true;
        }
        for (s, cell) in self.shards.iter().enumerate() {
            if affected[s] {
                cell.update(|_| Arc::new(slice_shard(&snap, &map, s)));
            }
        }
        stats
    }

    /// Full-teardown republish of **every** shard: the master rebuilds the
    /// whole world from an empty cache, then each shard is resliced — the
    /// O(world) reference [`ShardedModelServer::publish_delta`] is proven
    /// equivalent to.
    pub fn publish_full(&self, world: &World) {
        self.extend_map(world);
        self.master.publish_full(world);
        let snap = self.master.snapshot();
        let map = self.map.load_full();
        for (s, cell) in self.shards.iter().enumerate() {
            cell.update(|_| Arc::new(slice_shard(&snap, &map, s)));
        }
    }

    /// Full-teardown republish of **one** shard: the master rebuilds, but
    /// only `shard`'s cell is resliced from the new generation — every
    /// other shard keeps its previous snapshot (epoch and segment
    /// allocations untouched), so readers of the rest of the fleet never
    /// notice. Correct when the world's changes since the last publish (if
    /// any) are confined to `shard`'s members' ego closures; for arbitrary
    /// churn use [`ShardedModelServer::publish_delta`], which computes
    /// that boundary itself.
    pub fn publish_full_shard(&self, shard: usize, world: &World) {
        self.extend_map(world);
        self.master.publish_full(world);
        let snap = self.master.snapshot();
        let map = self.map.load_full();
        self.shards[shard].update(|_| Arc::new(slice_shard(&snap, &map, shard)));
    }

    /// Serve `shops` through the sharded fleet: requests are enqueued onto
    /// their home shard's queue, one worker per shard drains its own queue
    /// first and then steals from the others (`run_shard_worker`).
    /// Returns predictions in request order plus statistics with shard
    /// attribution (`per_shard` sums to `requests`; `stolen` counts
    /// foreign-queue work).
    pub fn serve_sharded(
        &self,
        shops: &[usize],
        micro_batch: usize,
    ) -> (Vec<Prediction>, ServeStats) {
        let map = self.map.load_full();
        let n = self.shards.len();
        let micro_batch = micro_batch.clamp(1, shops.len().max(1));
        // Mirror the unsharded path: an empty batch is a zeroed
        // measurement, not a fleet spawn.
        if shops.is_empty() {
            let stats = ServeStats {
                requests: 0,
                seconds: 0.0,
                per_second: 0.0,
                latency_p50: 0.0,
                latency_p95: 0.0,
                latency_p99: 0.0,
                per_worker: vec![0; n],
                per_batch_size: vec![0; micro_batch],
                per_shard: vec![0; n],
                stolen: 0,
            };
            return (Vec::new(), stats);
        }
        let channels: Vec<_> =
            (0..n).map(|_| crossbeam::channel::unbounded::<(usize, usize)>()).collect();
        let enqueue = Instant::now();
        for (slot, &shop) in shops.iter().enumerate() {
            channels[map.shard_of(shop)].0.send((slot, shop)).expect("queue open");
        }
        // Drop every sender before a worker starts: an empty queue means
        // done, so the steal sweep terminates without blocking.
        let queues: Vec<_> = channels.into_iter().map(|(_tx, rx)| rx).collect();
        let reports: Vec<ShardWorkerReport> = std::thread::scope(|scope| {
            let queues = &queues;
            let handles: Vec<_> = (0..n)
                .map(|w| {
                    scope.spawn(move || run_shard_worker(self, w, queues, micro_batch, enqueue))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
        });
        let seconds = enqueue.elapsed().as_secs_f64();

        let mut preds: Vec<Option<Prediction>> = (0..shops.len()).map(|_| None).collect();
        let mut latencies = Vec::with_capacity(shops.len());
        let mut per_worker = Vec::with_capacity(n);
        let mut per_batch_size = vec![0usize; micro_batch];
        let mut per_shard = vec![0usize; n];
        let mut stolen = 0;
        for report in reports {
            per_worker.push(report.done.len());
            for (total, count) in per_batch_size.iter_mut().zip(report.batch_sizes) {
                *total += count;
            }
            for (total, count) in per_shard.iter_mut().zip(report.per_shard) {
                *total += count;
            }
            stolen += report.stolen;
            for (slot, pred, latency) in report.done {
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
            per_shard,
            stolen,
        };
        (preds, stats)
    }

    /// Inference time as a function of client count through the sharded
    /// fleet — the shard-side companion of
    /// [`ModelServer::scaling_curve`], feedable to the same
    /// [`linearity_r2`](crate::server::linearity_r2). Returns
    /// `(clients, seconds)` pairs.
    pub fn scaling_curve(&self, sizes: &[usize], micro_batch: usize) -> Vec<(usize, f64)> {
        let n = self.master.snapshot().ds.n;
        sizes
            .iter()
            .map(|&size| {
                let shops: Vec<usize> = (0..size).map(|i| i % n).collect();
                let (_, stats) = self.serve_sharded(&shops, micro_batch);
                (size, stats.seconds)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use gaia_core::{Gaia, GaiaConfig};
    use gaia_graph::EgoConfig;
    use gaia_synth::{generate_dataset, MonthlySales, WorldConfig};

    /// The unsharded reference: one worker, one request per tape.
    const SINGLES: ServeConfig = ServeConfig { workers: 1, micro_batch: 1 };

    /// Untrained-but-deterministic sharded server (the shard walls are
    /// properties of routing and publishing, not of training).
    fn untrained_sharded(
        n_shops: usize,
        n_shards: usize,
        world_seed: u64,
    ) -> (ShardedModelServer, World, ModelArtifact) {
        let wc = WorldConfig { n_shops, seed: world_seed, ..WorldConfig::tiny() };
        let (world, ds) = generate_dataset(wc);
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = 1;
        cfg.ego = EgoConfig { hops: 1, fanout: 3 };
        let model = Gaia::new(cfg.clone(), 7);
        let artifact = ModelArtifact {
            version: 1,
            config: cfg,
            checkpoint: model.checkpoint(),
            final_train_loss: 0.0,
        };
        let server = ShardedModelServer::new(&artifact, &world, ds, n_shards, 42);
        (server, world, artifact)
    }

    /// Scalar-exact / simd-1e-4 / f16-5e-3 comparison — the same tiers the
    /// delta and batch walls use.
    fn assert_parity(got: &Prediction, want: &Prediction, what: &str) {
        assert_eq!(got.node, want.node, "{what}: node");
        assert_eq!(got.model_space.len(), want.model_space.len(), "{what}: len");
        if cfg!(any(feature = "simd", feature = "embed-f16")) {
            let rel = if cfg!(feature = "embed-f16") { 5e-3 } else { 1e-4 };
            for (a, b) in got.model_space.iter().zip(&want.model_space) {
                let tol = rel * b.abs().max(1.0);
                assert!((a - b).abs() <= tol, "{what}: {a} vs {b} (tol {tol})");
            }
        } else {
            assert_eq!(got.model_space, want.model_space, "{what}");
        }
    }

    /// Every shard's slice covers its members' ego closure (no pinned
    /// worker can miss the cache), retained segments are the master's
    /// exact allocations, and routing covers every shop.
    #[test]
    fn boot_slices_cover_members_and_share_master_segments() {
        let (server, _, _) = untrained_sharded(160, 4, 21);
        let map = server.shard_map();
        let master = server.master().snapshot();
        assert_eq!(map.len(), master.ds.n);
        for s in 0..server.n_shards() {
            let snap = server.shard_snapshot(s);
            assert_eq!(snap.shard, s);
            let members = map.members(s);
            let closure = dirty_closure(&master.graph, &members, 1);
            for &v in &closure {
                let seg = EmbedCache::segment_of(v as usize);
                assert_eq!(
                    snap.embeddings.segment_addr(seg),
                    master.embeddings.segment_addr(seg),
                    "shard {s} segment {seg} must be the master's allocation"
                );
                assert!(snap.embeddings.has_embed(v as usize), "shard {s} misses node {v}");
            }
        }
    }

    /// THE sharded-routing smoke wall at unit scope (the proptest widens it
    /// over random worlds and shard counts): for several shard counts and
    /// micro-batch caps, the sharded fleet returns the unsharded
    /// one-request-per-tape predictions, in request order, with shard
    /// attribution summing to the request count.
    #[test]
    fn sharded_serving_matches_unsharded_reference() {
        let (server, _, _) = untrained_sharded(160, 4, 21);
        let n = server.master().snapshot().ds.n;
        let shops: Vec<usize> = (0..48).map(|i| (i * 13) % n).collect();
        let (expected, _) = server.master().serve(&shops, SINGLES);
        for micro_batch in [1usize, 4] {
            let (got, stats) = server.serve_sharded(&shops, micro_batch);
            assert_eq!(got.len(), expected.len());
            for (a, b) in got.iter().zip(&expected) {
                assert_parity(a, b, &format!("sharded mb={micro_batch}"));
            }
            assert_eq!(stats.requests, shops.len());
            assert_eq!(stats.per_worker.len(), server.n_shards());
            assert_eq!(stats.per_worker.iter().sum::<usize>(), shops.len());
            assert_eq!(stats.per_shard.iter().sum::<usize>(), shops.len());
            let weighted: usize =
                stats.per_batch_size.iter().enumerate().map(|(i, c)| (i + 1) * c).sum();
            assert_eq!(weighted, shops.len(), "batch histogram must cover every request");
            // Home-shard attribution matches the routing map regardless of
            // which worker actually served each request.
            let map = server.shard_map();
            let mut expected_shard = vec![0usize; server.n_shards()];
            for &shop in &shops {
                expected_shard[map.shard_of(shop)] += 1;
            }
            assert_eq!(stats.per_shard, expected_shard);
        }
        // One shard degenerates to the single-queue pool.
        let (one, _, _) = untrained_sharded(160, 1, 21);
        let (got, stats) = one.serve_sharded(&shops, 1);
        for (a, b) in got.iter().zip(&expected) {
            assert_parity(a, b, "single shard");
        }
        assert_eq!(stats.stolen, 0, "one worker has nobody to steal from");
    }

    /// Deterministic work-stealing attribution: a worker whose own queue is
    /// empty drains a foreign queue directly through `run_shard_worker`,
    /// and every count lands on the **home** shard with `stolen` marking
    /// the foreign work. The stolen predictions are the home snapshot's
    /// bits (served on the victim's slice).
    #[test]
    fn stealing_worker_attributes_to_home_shard() {
        let (server, _, _) = untrained_sharded(160, 2, 9);
        let map = server.shard_map();
        // Requests homed entirely on shard 1; worker 0's queue stays empty.
        let victims: Vec<usize> = map.members(1).iter().map(|&v| v as usize).take(6).collect();
        assert!(victims.len() >= 2, "shard 1 must have members in this world");
        let channels: Vec<_> =
            (0..2).map(|_| crossbeam::channel::unbounded::<(usize, usize)>()).collect();
        for (slot, &shop) in victims.iter().enumerate() {
            channels[1].0.send((slot, shop)).expect("queue open");
        }
        let queues: Vec<_> = channels.into_iter().map(|(_tx, rx)| rx).collect();
        let report = run_shard_worker(&server, 0, &queues, 2, Instant::now());
        assert_eq!(report.done.len(), victims.len(), "the stealer must drain everything");
        assert_eq!(report.stolen, victims.len(), "all of it was foreign work");
        assert_eq!(report.per_shard, vec![0, victims.len()], "attribution is by home shard");
        let weighted: usize = report.batch_sizes.iter().enumerate().map(|(i, c)| (i + 1) * c).sum();
        assert_eq!(weighted, victims.len());
        // Stolen predictions equal the unsharded reference for those shops.
        let (expected, _) = server.master().serve(&victims, SINGLES);
        let mut got = report.done;
        got.sort_by_key(|&(slot, _, _)| slot);
        for ((_, pred, _), want) in got.into_iter().zip(&expected) {
            assert_parity(&pred, want, "stolen request");
        }
        // And through the full fleet, attribution still sums under load.
        let (_, stats) = server.serve_sharded(&victims, 2);
        assert_eq!(stats.per_shard.iter().sum::<usize>(), victims.len());
        assert_eq!(stats.per_worker.iter().sum::<usize>(), victims.len());
    }

    /// An empty request slice through the fleet: zeroed stats, finite
    /// throughput, full-length (all-zero) attribution vectors.
    #[test]
    fn sharded_empty_batch_yields_zeroed_stats() {
        let (server, _, _) = untrained_sharded(60, 3, 5);
        let (preds, stats) = server.serve_sharded(&[], 4);
        assert!(preds.is_empty());
        assert_eq!(stats.requests, 0);
        assert_eq!(stats.per_second, 0.0);
        assert!(stats.per_second.is_finite());
        assert_eq!(stats.latency_p99, 0.0);
        assert_eq!(stats.per_worker, vec![0; server.n_shards()]);
        assert_eq!(stats.per_shard, vec![0; server.n_shards()]);
        assert_eq!(stats.stolen, 0);
    }

    /// Find a shop whose ego-radius closure stays on its home shard, so
    /// churn at that shop affects exactly one shard.
    fn shard_local_shop(server: &ShardedModelServer, world: &World) -> (usize, usize) {
        let map = server.shard_map();
        let hops = server.master().snapshot().model.ego_config().hops;
        for shop in 0..world.shops.len() {
            let home = map.shard_of(shop);
            let ball = dirty_closure(&world.graph, &[shop as u32], hops);
            if ball.iter().all(|&v| map.shard_of(v as usize) == home) {
                return (shop, home);
            }
        }
        panic!("no shard-local shop in this world; pick a different seed");
    }

    /// THE per-shard publish isolation wall (the ISSUE's acceptance
    /// observable): publishing one shard — delta and full — advances only
    /// that shard's epoch, while concurrent readers of every other shard
    /// observe their `Arc` snapshot and every cache segment at the exact
    /// same allocation throughout.
    #[test]
    fn publishing_one_shard_never_disturbs_the_others() {
        let (server, mut world, _) = untrained_sharded(160, 4, 21);
        let horizon = server.master().snapshot().ds.horizon;
        let (shop, home) = shard_local_shop(&server, &world);
        let epochs_before: Vec<u64> =
            (0..server.n_shards()).map(|s| server.shard_epoch(s)).collect();
        let others: Vec<usize> = (0..server.n_shards()).filter(|&s| s != home).collect();
        let baseline: Vec<Arc<ShardSnapshot>> =
            (0..server.n_shards()).map(|s| server.shard_snapshot(s)).collect();

        // Readers of the other shards sample continuously while the main
        // thread publishes the home shard twice (delta, then full).
        let publishes_done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for &s in &others {
                let server = &server;
                let baseline = &baseline[s];
                let publishes_done = &publishes_done;
                scope.spawn(move || {
                    let mut reader_epoch_max = 0;
                    while !publishes_done.load(std::sync::atomic::Ordering::Acquire) {
                        let snap = server.shard_snapshot(s);
                        assert!(
                            Arc::ptr_eq(&snap, baseline),
                            "shard {s} snapshot was replaced by a foreign publish"
                        );
                        for seg in 0..baseline.embeddings.segment_count() {
                            assert_eq!(
                                snap.embeddings.segment_addr(seg),
                                baseline.embeddings.segment_addr(seg),
                                "shard {s} segment {seg} moved"
                            );
                        }
                        reader_epoch_max = reader_epoch_max.max(server.shard_epoch(s));
                        std::thread::yield_now();
                    }
                    assert_eq!(reader_epoch_max, 0, "shard {s} epoch moved during publishes");
                });
            }

            // Delta publish confined to the home shard: rewrite deep
            // history at the shard-local shop.
            let window: Vec<MonthlySales> = (0..horizon + 3)
                .map(|m| MonthlySales {
                    gmv: 5_000.0 + 300.0 * m as f64,
                    orders: 50.0 + m as f64,
                    customers: 20.0,
                })
                .collect();
            world.record_sales(shop as u32, &window);
            let dirty = world.take_dirty();
            assert!(!dirty.is_empty());
            let stats = server.publish_delta(&world, &dirty);
            assert!(stats.recomputed_nodes >= 1);
            assert_eq!(server.shard_epoch(home), epochs_before[home] + 1);

            // Full single-shard republish on top.
            server.publish_full_shard(home, &world);
            assert_eq!(server.shard_epoch(home), epochs_before[home] + 2);
            publishes_done.store(true, std::sync::atomic::Ordering::Release);
        });

        for &s in &others {
            assert_eq!(server.shard_epoch(s), epochs_before[s], "shard {s} epoch moved");
            let snap = server.shard_snapshot(s);
            assert!(Arc::ptr_eq(&snap, &baseline[s]));
        }
        // The republished shard serves the post-churn world: its members'
        // predictions match a fresh unsharded reference, as do everyone
        // else's (their stale-generation snapshots are provably identical).
        let map = server.shard_map();
        let shops: Vec<usize> = (0..world.shops.len()).collect();
        let (expected, _) = server.master().serve(&shops, SINGLES);
        let (got, stats) = server.serve_sharded(&shops, 4);
        for (a, b) in got.iter().zip(&expected) {
            let what = format!("post-publish shop {} (shard {})", b.node, map.shard_of(b.node));
            assert_parity(a, b, &what);
        }
        assert_eq!(stats.per_shard.iter().sum::<usize>(), shops.len());
    }

    /// A model hot swap reslices every shard (all epochs advance) and the
    /// fleet serves the new model's bits; an appended shop extends the
    /// routing map sticky-by-industry and is immediately servable.
    #[test]
    fn model_publish_reslices_all_shards_and_growth_extends_routing() {
        use gaia_synth::{NewShop, Role};
        let (server, mut world, artifact) = untrained_sharded(120, 3, 13);
        let before: Vec<u64> = (0..3).map(|s| server.shard_epoch(s)).collect();
        let pred_before = {
            let (p, _) = server.serve_sharded(&[5], 1);
            p.into_iter().next().unwrap()
        };

        let mut a2 = artifact.clone();
        a2.version = 2;
        a2.checkpoint = Gaia::new(a2.config.clone(), 99).checkpoint();
        server.publish(&a2);
        for s in 0..3 {
            assert_eq!(server.shard_epoch(s), before[s] + 1, "model swap must reach shard {s}");
            assert_eq!(server.shard_snapshot(s).version(), 2);
        }
        let (p, _) = server.serve_sharded(&[5], 1);
        assert_ne!(p[0].model_space, pred_before.model_space, "new model must serve new bits");

        // World growth: the new shop routes to its industry's shard and is
        // servable right after the delta publish that admitted it.
        world.add_shop(NewShop {
            industry: world.shops[0].industry,
            region: world.shops[0].region,
            role: Role::Retailer,
            owner: world.shops[0].owner,
            lead: 0,
        });
        let dirty = world.take_dirty();
        server.publish_delta(&world, &dirty);
        let map = server.shard_map();
        let newcomer = world.shops.len() - 1;
        assert_eq!(map.len(), world.shops.len());
        assert_eq!(map.shard_of(newcomer), map.shard_of_key(world.shops[newcomer].industry));
        let (got, _) = server.serve_sharded(&[newcomer, 0, 5], 2);
        let (want, _) = server.master().serve(&[newcomer, 0, 5], SINGLES);
        for (a, b) in got.iter().zip(&want) {
            assert_parity(a, b, "post-growth serving");
        }
    }

    /// The sharded scaling curve has the reference path's shape contract:
    /// one labelled `(clients, seconds)` point per requested size, finite
    /// and positive, feedable to `linearity_r2`.
    #[test]
    fn sharded_scaling_curve_labels_and_measures() {
        let (server, _, _) = untrained_sharded(60, 2, 5);
        let curve = server.scaling_curve(&[6, 18], 4);
        assert_eq!(curve.len(), 2);
        assert_eq!((curve[0].0, curve[1].0), (6, 18));
        assert!(curve.iter().all(|&(_, secs)| secs > 0.0 && secs.is_finite()));
        let r2 = crate::server::linearity_r2(&curve);
        assert!((0.0..=1.0).contains(&r2));
        assert!(server.scaling_curve(&[], 1).is_empty());
    }
}
