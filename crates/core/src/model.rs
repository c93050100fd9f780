//! The full Gaia model (Fig. 2): FFL → TEL → stacked ITA-GCN → prediction
//! head with residual connection (Eq. 9).

use crate::api::{inputs, BlockSink, EmbedCache, GraphForecaster, PageClaims};
use crate::config::GaiaConfig;
use crate::ffl::FeatureFusionLayer;
use crate::ita::{AttentionDetail, ItaGcnLayer};
use crate::tel::TemporalEmbeddingLayer;
use gaia_graph::{EgoConfig, EgoSubgraph};
use gaia_nn::{init, Conv1d, ParamId, ParamStore};
use gaia_tensor::kernels::ProjectionLanes;
use gaia_tensor::{Activation, Graph, PadMode, Tensor, VarId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Prediction head of Eq. 9:
/// `ỹ_u = ReLU([L^P_{1xC;1} ⋆ (H^{(L)}_u + E_u)] W_P + b_P)`.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PredictionHead {
    l_p: Conv1d,
    w_p: ParamId,
    b_p: ParamId,
}

impl PredictionHead {
    fn new(ps: &mut ParamStore, cfg: &GaiaConfig, rng: &mut StdRng) -> Self {
        Self {
            l_p: Conv1d::new(ps, "head.lp", 1, cfg.channels, 1, PadMode::Causal, true, rng),
            w_p: ps.add("head.wp", init::xavier(cfg.t, cfg.horizon, rng)),
            b_p: ps.add("head.bp", Tensor::full(vec![cfg.horizon], gaia_synth::TARGET_SHIFT)),
        }
    }

    fn forward(&self, g: &mut Graph, ps: &ParamStore, h_final: VarId, e: VarId) -> VarId {
        // Residual connection emphasising the TEL representation.
        let sum = g.add(h_final, e);
        let pooled = self.l_p.forward(g, ps, sum); // [T, 1]
        let row = g.transpose(pooled); // [1, T]
        let wp = ps.bind(g, self.w_p);
        let proj = g.matmul(row, wp); // [1, T']
        let bp = ps.bind(g, self.b_p);
        let out = g.add_bias(proj, bp);
        g.relu(out)
    }

    /// Batched head over `(H^{(L)}_u, E_u)` pairs from several requests:
    /// one stacked pooling conv and **one** blocked GEMM against `W_P`
    /// replace per-request conv/transpose/matmul/bias/relu chains.
    /// Bit-identical per request to [`PredictionHead::forward`] (a `[T, 1]`
    /// column transposes to `[1, T]` without moving data, the stacked GEMM
    /// computes rows independently, and `relu(x + b)` fuses exactly).
    fn forward_batched(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        pairs: &[(VarId, VarId)],
    ) -> Vec<VarId> {
        let sums: Vec<VarId> = pairs.iter().map(|&(h, e)| g.add(h, e)).collect();
        let stacked = g.stack_rows(&sums); // [B, T, C]
        let pooled = self.l_p.forward_act_batched(g, ps, stacked, Activation::Identity); // [B, T, 1]
        let b = pairs.len();
        let t = g.value(pooled).shape()[1];
        let rows = g.reshape(pooled, vec![b, 1, t]); // [B, 1, T] — layout-free
        let wp = ps.bind(g, self.w_p);
        let bp = ps.bind(g, self.b_p);
        let out = g.linear_batched(rows, wp, Some(bp), Activation::Relu); // [B, 1, T']
        (0..b).map(|i| g.slice_batch(out, i)).collect()
    }
}

/// Default nodes per batched publish block: big enough that stacked GEMMs
/// amortise weight binds and kernel dispatch across the block, small
/// enough that one block's rank-3 activations stay cache-resident. The
/// publish-parity wall proves the cache contents are independent of this
/// choice.
pub const PUBLISH_BLOCK: usize = 32;

/// Pages of the segment table a full-publish worker claims at a time
/// (see [`Gaia::precompute_embeddings_batched`]): one page, 64 nodes, two
/// default blocks. Small claims keep the workers' finish times within one
/// page of each other on small worlds too; the claim itself is one
/// uncontended lock per page.
const CLAIM_PAGES: usize = 1;

/// Worker threads for a full publish over `n` nodes: the available
/// parallelism, capped by the number of segment-table pages, since a
/// worker claims whole pages (see [`Gaia::precompute_embeddings_batched`]).
/// On a 2-vCPU host a world of more than one page (64 nodes) gets 2
/// workers. Production publishes always use this count; only measurement
/// code ([`Gaia::precompute_embeddings_profiled`]) picks its own.
fn publish_workers(n: usize) -> usize {
    gaia_tensor::claim::claim_workers(n.div_ceil(crate::api::PAGE_NODES))
}

/// Wall-clock split of a publish's blocks by stage, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct PublishStageProfile {
    /// Stacked FFL → TEL forward (input gather included).
    pub embed_seconds: f64,
    /// Batched layer-0 Q/K/V/gate projection convs.
    pub projection_seconds: f64,
    /// Reading the tape values + encoding into frozen segment storage.
    pub insert_seconds: f64,
}

impl PublishStageProfile {
    fn add(&mut self, other: &Self) {
        self.embed_seconds += other.embed_seconds;
        self.projection_seconds += other.projection_seconds;
        self.insert_seconds += other.insert_seconds;
    }
}

/// One profiled full publish ([`Gaia::precompute_embeddings_profiled`]).
#[derive(Clone, Debug, Default)]
pub struct PublishProfile {
    /// Stage split summed over every worker's blocks (CPU seconds).
    pub stages: PublishStageProfile,
    /// Each worker's busy seconds, from its start to its last claim.
    pub worker_busy_seconds: Vec<f64>,
    /// Segment-table pages each worker claimed.
    pub worker_pages: Vec<usize>,
    /// Wall seconds of the whole publish, table growth, storage
    /// allocation and thread spawn/join included.
    pub wall_seconds: f64,
    /// Serial remainder: wall time minus the slowest worker's busy time.
    pub serial_seconds: f64,
}

/// The Gaia model. Holds its own [`ParamStore`]; the forward pass is built
/// per-ego-subgraph on a fresh tape (define-by-run).
#[derive(Clone, Debug)]
pub struct Gaia {
    /// Hyper-parameters (immutable after construction).
    pub cfg: GaiaConfig,
    ps: ParamStore,
    ffl: FeatureFusionLayer,
    tel: TemporalEmbeddingLayer,
    layers: Vec<ItaGcnLayer>,
    head: PredictionHead,
    name: String,
}

impl Gaia {
    /// Construct with Xavier initialisation from `seed`.
    pub fn new(cfg: GaiaConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid GaiaConfig");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let ffl = FeatureFusionLayer::new(&mut ps, &cfg, &mut rng);
        let tel = TemporalEmbeddingLayer::new(&mut ps, &cfg, &mut rng);
        let layers =
            (0..cfg.layers).map(|l| ItaGcnLayer::new(&mut ps, &cfg, l, &mut rng)).collect();
        let head = PredictionHead::new(&mut ps, &cfg, &mut rng);
        let name = cfg.variant.label().to_string();
        Self { cfg, ps, ffl, tel, layers, head, name }
    }

    /// Per-node embedding: FFL then TEL, returning `E_v: [T, C]`.
    fn embed(&self, g: &mut Graph, ds: &gaia_synth::Dataset, node: usize) -> VarId {
        let (z, f_t, f_s) = inputs::node_inputs(g, ds, node);
        let s = self.ffl.forward(g, &self.ps, z, f_t, f_s);
        self.tel.forward(g, &self.ps, s)
    }

    /// Run FFL+TEL for every local node and stack the first `layers`
    /// ITA-GCN layers, returning `(E per node, H^{(layers)} per node)`;
    /// `layers` is the model's depth `L` except for introspection.
    ///
    /// Representations are only refreshed for nodes whose hop distance still
    /// matters at each depth (`hop <= L - l`), which is exactly the receptive
    /// field of the centre node — the same economy AGL's instance generation
    /// provides in the paper's deployment.
    ///
    /// With a `cache` (inference only), cached embeddings enter the tape as
    /// constants, so no gradient flows through them.
    fn propagate_with(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        ego: &EgoSubgraph,
        cache: Option<&mut EmbedCache>,
        layers: usize,
    ) -> (Vec<VarId>, Vec<VarId>) {
        let e = self.embed_locals(g, ds, ego, cache);
        let l_max = self.layers.len();
        let mut h = e.clone();
        for (li, layer) in self.layers.iter().take(layers).enumerate() {
            let l = li + 1;
            let mut next = h.clone();
            for u in 0..ego.len() {
                if (ego.hops[u] as usize) <= l_max - l {
                    next[u] = layer.forward_node(g, &self.ps, &h, ego, u);
                }
            }
            h = next;
        }
        (e, h)
    }

    /// The embedding stage shared by the per-request and batched forward
    /// passes: `E_v` for every local node of `ego`, served from `cache`
    /// when possible (cache entries are bit-identical to fresh computes).
    fn embed_locals(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        ego: &EgoSubgraph,
        mut cache: Option<&mut EmbedCache>,
    ) -> Vec<VarId> {
        let n = ego.len();
        let mut e: Vec<VarId> = Vec::with_capacity(n);
        for v in 0..n {
            let node = ego.nodes[v] as usize;
            // Cached embeddings enter the tape as pooled copies (no clone of
            // the cache storage, no fresh allocation in steady state).
            let hit = cache.as_ref().and_then(|c| c.layer_state_constant(g, 0, node));
            let var = match hit {
                Some(var) => var,
                None => {
                    let var = self.embed(g, ds, node);
                    if let Some(c) = cache.as_mut() {
                        c.insert_layer_state(0, node, g.value(var).clone());
                    }
                    var
                }
            };
            e.push(var);
        }
        e
    }

    /// [`Gaia::propagate_with`] dispatching every refreshed node through
    /// the batched, cache-aware ITA unit
    /// ([`ItaGcnLayer::forward_node_cached`]): hoisted query/gate
    /// projections and fused causal attention over the node's whole
    /// message set. Values are bit-identical to [`Gaia::propagate_with`].
    ///
    /// Layer-state memo: a node's state at layer `l` is
    /// **centre-independent** ("stable") when the node is `complete` in
    /// its ego (all graph neighbours present, in CSR order) and every
    /// neighbour's layer-`l−1` state is stable; embeddings always are.
    /// Such a state is the same op sequence on the same inputs whatever
    /// the centre, so at every non-final layer it is read from `cache` or
    /// computed and memoised. The final layer is never memoised, so no
    /// prediction is; a 1-layer model never touches the memo.
    fn propagate_batched(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        ego: &EgoSubgraph,
        cache: &mut EmbedCache,
    ) -> (Vec<VarId>, Vec<VarId>) {
        let e = self.embed_locals(g, ds, ego, Some(&mut *cache));
        let l_max = self.layers.len();
        let mut h = e.clone();
        let mut stable = vec![true; ego.len()];
        for (li, layer) in self.layers.iter().enumerate() {
            let l = li + 1;
            let mut next = h.clone();
            // The final layer's outputs feed no further layer.
            let mut next_stable = vec![false; if l < l_max { ego.len() } else { 0 }];
            for u in 0..ego.len() {
                if (ego.hops[u] as usize) > l_max - l {
                    continue;
                }
                let node = ego.nodes[u] as usize;
                let memo = l < l_max
                    && ego.complete[u]
                    && ego.neighbors(u).iter().all(|nb| stable[nb.local as usize]);
                next[u] = match memo.then(|| cache.layer_state_constant(g, l, node)).flatten() {
                    Some(hit) => hit,
                    None => {
                        let out =
                            layer.forward_node_cached(g, &self.ps, &h, &stable, ego, u, li, cache);
                        if memo {
                            cache.insert_layer_state(l, node, g.value(out).clone());
                        }
                        out
                    }
                };
                if memo {
                    next_stable[u] = true;
                }
            }
            h = next;
            stable = next_stable;
        }
        (e, h)
    }

    /// Attention introspection at the final layer for the centre node —
    /// used by the Fig 4 case study.
    pub fn attention_at_center(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        ego: &EgoSubgraph,
    ) -> AttentionDetail {
        let last = self.layers.last().expect("at least one layer");
        let (_, h) = self.propagate_with(g, ds, ego, None, self.layers.len() - 1);
        last.attention_detail(g, &self.ps, &h, ego, 0)
    }

    /// Precompute the FFL → TEL embedding value `E_v` and its five layer-0
    /// projections for every node of `ds` — the publish-time half of the
    /// serving fast path. The returned cache holds them in its frozen tier
    /// and nothing in its memo, so it is ready to share: installing it
    /// makes [`GraphForecaster::forward_centers_cached`] skip the per-node
    /// embedding subgraph and the layer-0 projection convs entirely.
    /// Entries are the values the forward pass computes (exactly on the f32
    /// tier), so predictions do not change.
    ///
    /// Dispatches to the batched block driver
    /// ([`Gaia::precompute_embeddings_batched`]) with the default block
    /// size — the publish-parity wall pins it against the per-node
    /// reference ([`Gaia::precompute_embeddings_per_node`]).
    pub fn precompute_embeddings(&self, ds: &gaia_synth::Dataset) -> EmbedCache {
        self.precompute_embeddings_batched(ds, PUBLISH_BLOCK)
    }

    /// Reference per-node publish: one tape reset and one unbatched
    /// FFL → TEL forward per node, then the layer-0 projections of that
    /// embedding on the same tape. Returns each node's six lanes
    /// `[E_v, Q, K, V, gate src, gate dst]` (lane `1 + slot as usize` is
    /// [`crate::ProjSlot`] `slot`) as raw tape values that pass through no
    /// cache writer. Kept as the bit-exactness reference the
    /// publish-parity walls compare the batched driver's cache against.
    pub fn precompute_embeddings_per_node(&self, ds: &gaia_synth::Dataset) -> Vec<[Vec<f32>; 6]> {
        let layer0 = self.layers.first().expect("GaiaConfig::validate requires layers >= 1");
        let mut g = Graph::for_inference();
        (0..ds.n)
            .map(|node| {
                g.reset();
                let e = self.embed(&mut g, ds, node);
                let [q, k, v, gate_src, gate_dst] =
                    layer0.precompute_node_projections(&mut g, &self.ps, e);
                [e, q, k, v, gate_src, gate_dst].map(|var| g.value(var).data().to_vec())
            })
            .collect()
    }

    /// Batched publish: process nodes in fixed blocks of `block`, stacking
    /// each block's input rows into rank-3 tensors and running **one** tape
    /// pass per block through the batched kernels (stacked conv banks, one
    /// stacked GEMM per dense projection), then bulk-inserting the block's
    /// embeddings + layer-0 projections straight into the frozen segment
    /// storage.
    ///
    /// Parallel by work claiming on one table: the caller grows the
    /// cache's segment table for all of `0..n` once, allocating every
    /// segment's storage (`EmbedCache::claim_pages`), and
    /// `publish_workers` scoped worker threads each claim the next
    /// unclaimed page (64 nodes) until none is left, computing its blocks
    /// on a private tape and writing their segments straight into that
    /// page. A worker the host slows simply claims fewer pages, so the
    /// workers finish together; no private cache is built and nothing is
    /// merged. Blocks never straddle a page, so with the default block of
    /// 32 each block fills four whole segments. The calling thread runs
    /// no blocks, whatever the worker count: a tape it ran would stay in
    /// its allocator arena, which the caller's other work (training, in
    /// the monthly cycle) shares, and hold peak memory up.
    ///
    /// Determinism contract: every cache entry is a pure function of
    /// `(ds row, parameters)` computed by kernels that are bit-identical
    /// per member to the per-node path, so the result is independent of
    /// block size, worker count and claim order —
    /// [`Gaia::precompute_embeddings_per_node`] computes the same values
    /// (bit-exact on the scalar build; the simd/embed-f16 tolerance tiers
    /// are measured against it).
    pub fn precompute_embeddings_batched(
        &self,
        ds: &gaia_synth::Dataset,
        block: usize,
    ) -> EmbedCache {
        assert!(block > 0, "precompute_embeddings_batched: block size must be positive");
        self.precompute_claimed(ds, block, publish_workers(ds.n), false).0
    }

    /// The full publish behind [`Gaia::precompute_embeddings_batched`]
    /// and [`Gaia::precompute_embeddings_profiled`], with an explicit
    /// worker count. With `profile`, each block's stage times are recorded
    /// too.
    fn precompute_claimed(
        &self,
        ds: &gaia_synth::Dataset,
        block: usize,
        workers: usize,
        profile: bool,
    ) -> (EmbedCache, PublishProfile) {
        let start = std::time::Instant::now();
        let mut cache = EmbedCache::new();
        let claims = cache.claim_pages(ds.n, (self.cfg.t, self.cfg.channels), CLAIM_PAGES);
        let work = || self.publish_worker(ds, block, &claims, profile);
        let reports = gaia_tensor::claim::spawn_workers(workers, work);
        let mut out =
            PublishProfile { wall_seconds: start.elapsed().as_secs_f64(), ..Default::default() };
        for (busy, pages, stages) in reports {
            out.worker_busy_seconds.push(busy);
            out.worker_pages.push(pages);
            out.stages.add(&stages);
        }
        let slowest = out.worker_busy_seconds.iter().copied().fold(0.0, f64::max);
        out.serial_seconds = out.wall_seconds - slowest;
        (cache, out)
    }

    /// One full-publish worker: claim page runs until none is left and
    /// fill each run's blocks on one reused tape. Returns the worker's
    /// busy seconds, the pages it claimed and (with `profile`) its
    /// blocks' stage split.
    fn publish_worker(
        &self,
        ds: &gaia_synth::Dataset,
        block: usize,
        claims: &PageClaims<'_>,
        profile: bool,
    ) -> (f64, usize, PublishStageProfile) {
        let start = std::time::Instant::now();
        let mut g = Graph::for_inference();
        let mut nodes: Vec<usize> = Vec::with_capacity(block);
        let mut stages = PublishStageProfile::default();
        let mut pages = 0;
        while let Some(mut run) = claims.claim() {
            pages += run.pages();
            let range = run.nodes();
            let mut lo = range.start;
            while lo < range.end {
                let hi = (lo + block).min(range.end);
                nodes.clear();
                nodes.extend(lo..hi);
                self.precompute_block(&mut g, ds, &nodes, &mut run, profile.then_some(&mut stages));
                lo = hi;
            }
        }
        (start.elapsed().as_secs_f64(), pages, stages)
    }

    /// One publish block: reset the tape, run the stacked FFL → TEL
    /// forward, compute the five layer-0 projections in one bank kernel
    /// into pooled scratch buffers, and bulk-insert every lane. Full-size
    /// blocks reuse the tape's pooled buffers, so the steady state
    /// allocates nothing fresh (pinned by a unit test). With `profile`,
    /// per-stage wall time is accumulated (define-by-run tapes compute
    /// eagerly, so stage boundaries are real work boundaries).
    fn precompute_block(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        nodes: &[usize],
        sink: &mut impl BlockSink,
        mut profile: Option<&mut PublishStageProfile>,
    ) {
        g.reset();
        let t0 = profile.as_ref().map(|_| std::time::Instant::now());
        let (z, f_t, f_s) = inputs::node_inputs_batched(g, ds, nodes);
        let s = self.ffl.forward_batched(g, &self.ps, z, f_t, f_s);
        let e = self.tel.forward_batched(g, &self.ps, s);
        if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
            p.embed_seconds += t0.elapsed().as_secs_f64();
        }
        let t1 = profile.as_ref().map(|_| std::time::Instant::now());
        let layer0 = self.layers.first().expect("GaiaConfig::validate requires layers >= 1");
        let (bt, t, c) = {
            let shape = g.value(e).shape();
            (shape[0], shape[1], shape[2])
        };
        let [mut q, mut k, mut v] = [(); 3].map(|_| g.alloc_scratch(&[bt, t, c]));
        let [mut gate_src, mut gate_dst] = [(); 2].map(|_| g.alloc_scratch(&[bt, t, 1]));
        let lanes = ProjectionLanes {
            q: q.data_mut(),
            k: k.data_mut(),
            v: v.data_mut(),
            gate_src: gate_src.data_mut(),
            gate_dst: gate_dst.data_mut(),
        };
        layer0.precompute_block_projections(&self.ps, g.value(e).data(), bt, t, lanes);
        if let (Some(prof), Some(t1)) = (profile.as_deref_mut(), t1) {
            prof.projection_seconds += t1.elapsed().as_secs_f64();
        }
        let t2 = profile.as_ref().map(|_| std::time::Instant::now());
        let vals = crate::api::BlockValues {
            embed: g.value(e).data(),
            q: q.data(),
            k: k.data(),
            v: v.data(),
            gate_src: gate_src.data(),
            gate_dst: gate_dst.data(),
        };
        sink.insert_block(nodes, t, c, &vals);
        for buf in [q, k, v, gate_src, gate_dst] {
            g.recycle_scratch(buf);
        }
        if let (Some(prof), Some(t2)) = (profile, t2) {
            prof.insert_seconds += t2.elapsed().as_secs_f64();
        }
    }

    /// Profiled full publish: the claiming loop of
    /// [`Gaia::precompute_embeddings_batched`] with an explicit worker
    /// count, also returning the per-stage split, each worker's busy time
    /// and claimed pages, and the serial remainder — the
    /// `profile_serving` bench bin's publish rows. Measurement code only:
    /// production publishes use `publish_workers`.
    pub fn precompute_embeddings_profiled(
        &self,
        ds: &gaia_synth::Dataset,
        block: usize,
        workers: usize,
    ) -> (EmbedCache, PublishProfile) {
        assert!(block > 0, "precompute_embeddings_profiled: block size must be positive");
        assert!(workers > 0, "precompute_embeddings_profiled: need a worker");
        self.precompute_claimed(ds, block, workers, true)
    }

    /// Incremental counterpart of [`Gaia::precompute_embeddings`]: start
    /// from the previous epoch's frozen cache (an `Arc`-bump clone) and
    /// recompute the embedding + layer-0 projections of `nodes` only —
    /// in publish blocks through the same batched path as the full
    /// publisher, bulk-inserted copy-on-write (a touched segment is cloned
    /// once, clean segments keep sharing the previous epoch's storage).
    ///
    /// Sound because cache entries are pure per-node functions of
    /// `(ds rows, parameters)`, never of the graph: with the same model and
    /// the same clean rows, a stale entry is bit-identical to a recomputed
    /// one, so the only entries that *can* differ are exactly the ones
    /// recomputed here. `nodes` must cover every node whose dataset row
    /// changed (the publisher passes the dirty-set ego closure, a
    /// superset). Nodes at or beyond `ds.n` are ignored.
    pub fn precompute_embeddings_delta(
        &self,
        ds: &gaia_synth::Dataset,
        prev: &EmbedCache,
        nodes: &[u32],
    ) -> EmbedCache {
        let mut live: Vec<usize> =
            nodes.iter().map(|&v| v as usize).filter(|&v| v < ds.n).collect();
        live.sort_unstable();
        live.dedup();
        let mut cache = prev.clone();
        let mut g = Graph::for_inference();
        for chunk in live.chunks(PUBLISH_BLOCK) {
            self.precompute_block(&mut g, ds, chunk, &mut cache, None);
        }
        cache
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.ps.num_scalars()
    }

    /// Checkpoint the parameters to JSON (used by the serving pipeline).
    pub fn checkpoint(&self) -> String {
        self.ps.to_json()
    }

    /// Restore parameters from a checkpoint produced by a same-config model.
    pub fn restore(&mut self, json: &str) -> Result<(), serde_json::Error> {
        let loaded = ParamStore::from_json(json)?;
        self.ps.load_values_from(&loaded);
        Ok(())
    }
}

impl GraphForecaster for Gaia {
    fn name(&self) -> &str {
        &self.name
    }

    fn params(&self) -> &ParamStore {
        &self.ps
    }

    fn params_mut(&mut self) -> &mut ParamStore {
        &mut self.ps
    }

    fn ego_config(&self) -> EgoConfig {
        self.cfg.ego
    }

    fn forward_center(&self, g: &mut Graph, ds: &gaia_synth::Dataset, ego: &EgoSubgraph) -> VarId {
        let (e, h) = self.propagate_with(g, ds, ego, None, self.layers.len());
        self.head.forward(g, &self.ps, h[0], e[0])
    }

    fn forward_center_cached(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        ego: &EgoSubgraph,
        cache: &mut EmbedCache,
    ) -> VarId {
        let (e, h) = self.propagate_with(g, ds, ego, Some(cache), self.layers.len());
        self.head.forward(g, &self.ps, h[0], e[0])
    }

    /// Gaia's batched inference pass: per-request propagation through the
    /// batched ITA units (hoisted projections, fused causal attention, one
    /// weight bind per message set) and **one** stacked prediction head
    /// across all requests. Bit-identical per request to
    /// [`GraphForecaster::forward_center_cached`] — the parity contract
    /// `tests/proptest_invariants.rs` pins for batch sizes 1..=16.
    fn forward_centers_cached(
        &self,
        g: &mut Graph,
        ds: &gaia_synth::Dataset,
        egos: &[&EgoSubgraph],
        cache: &mut EmbedCache,
    ) -> Vec<VarId> {
        if egos.is_empty() {
            return Vec::new();
        }
        let mut pairs = Vec::with_capacity(egos.len());
        for ego in egos {
            let (e, h) = self.propagate_batched(g, ds, ego, cache);
            pairs.push((h[0], e[0]));
        }
        self.head.forward_batched(g, &self.ps, &pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ProjSlot;
    use crate::config::GaiaVariant;
    use gaia_graph::extract_ego;
    use gaia_synth::{generate_dataset, WorldConfig};

    fn small_cfg(ds: &gaia_synth::Dataset) -> GaiaConfig {
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 16;
        cfg.kernel_groups = 2;
        cfg.ego = EgoConfig { hops: 2, fanout: 4 };
        cfg
    }

    /// Build-tier comparison for publish parity: bit-exact on the scalar
    /// build, 1e-4 relative under `simd`, 5e-3 under `embed-f16` (the
    /// documented cache quantisation budget dominates).
    fn assert_publish_tier(a: &[f32], b: &[f32], ctx: &str) {
        assert_eq!(a.len(), b.len(), "{ctx}: length");
        if cfg!(feature = "embed-f16") {
            for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                let tol = 5e-3 * y.abs().max(1.0);
                assert!((x - y).abs() <= tol, "{ctx}[{i}]: {x} vs {y}");
            }
        } else if cfg!(feature = "simd") {
            for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
                let tol = 1e-4 * y.abs().max(1.0);
                assert!((x - y).abs() <= tol, "{ctx}[{i}]: {x} vs {y}");
            }
        } else {
            assert_eq!(a, b, "{ctx}: scalar build must be bit-exact");
        }
    }

    /// Tentpole wall (unit tier): the batched block publisher fills every
    /// cache lane with the per-node publisher's values, across all four
    /// model variants and a block size that straddles `n % B != 0`.
    #[test]
    fn batched_publish_matches_per_node_across_variants() {
        let (_world, ds) = generate_dataset(WorldConfig::tiny());
        for variant in
            [GaiaVariant::Full, GaiaVariant::NoIta, GaiaVariant::NoFfl, GaiaVariant::NoTel]
        {
            let cfg = small_cfg(&ds).with_variant(variant);
            let model = Gaia::new(cfg, 5);
            let batched = model.precompute_embeddings_batched(&ds, 7);
            let per_node = model.precompute_embeddings_per_node(&ds);
            assert_eq!(batched.len(), ds.n);
            assert_eq!(per_node.len(), ds.n);
            for (node, lanes) in per_node.iter().enumerate() {
                let label = format!("{variant:?} node {node}");
                assert_publish_tier(
                    &batched.embed_vec(node).unwrap(),
                    &lanes[0],
                    &format!("{label} embed"),
                );
                for slot in
                    [ProjSlot::Q, ProjSlot::K, ProjSlot::V, ProjSlot::GateSrc, ProjSlot::GateDst]
                {
                    assert_publish_tier(
                        &batched.proj_vec(node, slot).unwrap(),
                        &lanes[1 + slot as usize],
                        &format!("{label} {slot:?}"),
                    );
                }
            }
        }
    }

    /// The block tape reaches a zero-fresh-alloc steady state: after the
    /// first full-size block warms the pool, every further full block
    /// reuses its buffers (`Graph::reset` recycling — same contract the
    /// serving tapes pin).
    #[test]
    fn publish_block_tape_reaches_zero_alloc_steady_state() {
        let (_world, ds) = generate_dataset(WorldConfig::tiny());
        let model = Gaia::new(small_cfg(&ds), 6);
        const BLOCK: usize = 8;
        assert!(ds.n >= 4 * BLOCK, "world too small for a steady-state window");
        let mut cache = EmbedCache::new();
        let mut g = Graph::for_inference();
        let nodes: Vec<usize> = (0..BLOCK).collect();
        model.precompute_block(&mut g, &ds, &nodes, &mut cache, None);
        let after_warmup = g.fresh_buffer_allocs();
        for b in 1..4 {
            let nodes: Vec<usize> = (b * BLOCK..(b + 1) * BLOCK).collect();
            model.precompute_block(&mut g, &ds, &nodes, &mut cache, None);
            assert_eq!(
                g.fresh_buffer_allocs(),
                after_warmup,
                "block {b} allocated fresh tape buffers"
            );
        }
    }

    /// The claiming publish fills the same cache for any worker count:
    /// every lane equals the 1-worker cache bit for bit, across world
    /// sizes that end mid-segment, on a segment, on a page and past a few
    /// pages, with more workers than pages too.
    #[test]
    fn publish_is_invariant_to_worker_count() {
        let page = crate::api::PAGE_NODES;
        let wc = WorldConfig { n_shops: 5 * page + 3, ..WorldConfig::tiny() };
        let (_world, full) = generate_dataset(wc);
        let model = Gaia::new(small_cfg(&full), 7);
        for n in [0, 5, 8, page, page + 1, 3 * page + 17, 5 * page + 3] {
            // The first `n` shops: a publish reads no row at or past `ds.n`.
            let mut ds = full.clone();
            ds.n = n;
            let (one, _) = model.precompute_claimed(&ds, 12, 1, false);
            for workers in 1..=4 {
                let (cache, _) = model.precompute_claimed(&ds, 12, workers, false);
                assert_eq!(cache.segment_count(), n.div_ceil(crate::api::SEGMENT_NODES));
                assert_eq!(cache.len(), n, "n {n}, {workers} workers");
                for node in 0..n {
                    assert_eq!(cache.embed_vec(node), one.embed_vec(node), "n {n} node {node}");
                    for slot in [
                        ProjSlot::Q,
                        ProjSlot::K,
                        ProjSlot::V,
                        ProjSlot::GateSrc,
                        ProjSlot::GateDst,
                    ] {
                        assert_eq!(cache.proj_vec(node, slot), one.proj_vec(node, slot));
                    }
                }
            }
        }
    }

    #[test]
    fn forward_center_shape_and_nonnegativity() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds);
        let model = Gaia::new(cfg.clone(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        for center in [0usize, 5, 10] {
            let ego = extract_ego(&world.graph, center, &cfg.ego, &mut rng);
            let mut g = Graph::new();
            let pred = model.forward_center(&mut g, &ds, &ego);
            assert_eq!(g.value(pred).shape(), &[1, ds.horizon]);
            // Eq. 9 ends in ReLU: predictions are non-negative.
            assert!(g.value(pred).data().iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn all_variants_build_and_run() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        for variant in
            [GaiaVariant::Full, GaiaVariant::NoIta, GaiaVariant::NoFfl, GaiaVariant::NoTel]
        {
            let cfg = small_cfg(&ds).with_variant(variant);
            let model = Gaia::new(cfg.clone(), 3);
            let mut rng = StdRng::seed_from_u64(4);
            let ego = extract_ego(&world.graph, 1, &cfg.ego, &mut rng);
            let mut g = Graph::new();
            let pred = model.forward_center(&mut g, &ds, &ego);
            assert!(g.value(pred).all_finite(), "{variant:?} produced NaN");
        }
    }

    #[test]
    fn gradient_flows_to_most_parameters() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds);
        let mut model = Gaia::new(cfg.clone(), 5);
        let mut rng = StdRng::seed_from_u64(6);
        // Pick a centre with neighbours.
        let center =
            (0..ds.n).find(|&v| world.graph.degree(v) >= 2).expect("some node has neighbours");
        let ego = extract_ego(&world.graph, center, &cfg.ego, &mut rng);
        let mut g = Graph::new();
        let pred = model.forward_center(&mut g, &ds, &ego);
        let target = ds.target_tensor(center);
        let loss = g.mse(pred, &target);
        g.backward(loss);
        model.params_mut().accumulate_grads(&g);
        let live = model.params().iter().filter(|p| p.grad.max_abs() > 0.0).count();
        let total = model.params().len();
        assert!(live * 10 >= total * 8, "only {live}/{total} params got gradient");
    }

    #[test]
    fn checkpoint_restore_roundtrip() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds);
        let model = Gaia::new(cfg.clone(), 7);
        let mut clone = Gaia::new(cfg.clone(), 999); // different init
        let ckpt = model.checkpoint();
        clone.restore(&ckpt).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let ego = extract_ego(&world.graph, 0, &cfg.ego, &mut rng);
        let mut g1 = Graph::new();
        let p1 = model.forward_center(&mut g1, &ds, &ego);
        let mut g2 = Graph::new();
        let p2 = clone.forward_center(&mut g2, &ds, &ego);
        assert_eq!(g1.value(p1).data(), g2.value(p2).data());
    }

    #[test]
    fn attention_introspection_shapes() {
        let (world, ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds);
        let model = Gaia::new(cfg.clone(), 9);
        let mut rng = StdRng::seed_from_u64(10);
        let center = (0..ds.n).find(|&v| world.graph.degree(v) >= 1).unwrap();
        let ego = extract_ego(&world.graph, center, &cfg.ego, &mut rng);
        let mut g = Graph::new();
        let detail = model.attention_at_center(&mut g, &ds, &ego);
        assert_eq!(g.value(detail.intra).shape(), &[ds.t, ds.t]);
        assert_eq!(detail.inter.len(), ego.neighbors(0).len());
    }

    #[test]
    fn neighbor_signal_changes_center_prediction() {
        // Perturbing a neighbour's series must move the centre's prediction —
        // the whole point of graph aggregation.
        let (world, mut ds) = generate_dataset(WorldConfig::tiny());
        let cfg = small_cfg(&ds);
        let model = Gaia::new(cfg.clone(), 11);
        let mut rng = StdRng::seed_from_u64(12);
        let center = (0..ds.n).find(|&v| world.graph.degree(v) >= 1).unwrap();
        let ego = extract_ego(&world.graph, center, &cfg.ego, &mut rng);
        assert!(ego.len() > 1, "need a neighbour");
        let mut g1 = Graph::new();
        let p1 = model.forward_center(&mut g1, &ds, &ego);
        let base = g1.value(p1).clone();
        // Perturb the first neighbour's GMV series.
        let nb = ego.nodes[1] as usize;
        for x in ds.gmv_row_mut(nb).iter_mut() {
            *x += 2.0;
        }
        let mut g2 = Graph::new();
        let p2 = model.forward_center(&mut g2, &ds, &ego);
        let changed = g2.value(p2);
        let diff: f32 = base.data().iter().zip(changed.data()).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-6, "neighbour perturbation did not propagate");
    }
}
