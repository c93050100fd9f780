//! The common interface every gradient-trained forecaster implements (Gaia
//! and all neural baselines), so one trainer/predictor drives them all and
//! Table I compares like with like.

use gaia_graph::{EgoConfig, EgoSubgraph};
use gaia_nn::ParamStore;
use gaia_synth::Dataset;
use gaia_tensor::claim::Claims;
use gaia_tensor::{Graph, Tensor, VarId};
use std::ops::Range;
use std::sync::Arc;

use crate::config::CacheTier;
use crate::half::{f16_to_f32, f32_to_f16};

/// Slots of the per-node **layer-0 projection cache** (see
/// [`EmbedCache::proj_vec`]): the CAU's Q/K/V conv projections and the
/// ITA aggregation gate's source/destination projections, all evaluated on
/// the node's embedding `E_v`. Like `E_v` itself, these depend only on the
/// node's features and the parameters — never on the ego subgraph — so the
/// serving path can precompute them at publish time and skip the
/// per-request convolutions entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProjSlot {
    /// `Q_v = L^Q ⋆ E_v` (`[T, C]`, used when `v` aggregates).
    Q,
    /// `K_v = L^K ⋆ E_v` (`[T, C]`).
    K,
    /// `V_v = L^V ⋆ E_v` (`[T, C]`).
    V,
    /// Gate source projection `L^s ⋆ E_v` (`[T, 1]`).
    GateSrc,
    /// Gate destination projection `L^d ⋆ E_v` (`[T, 1]`).
    GateDst,
}

/// One memoised state's projections, filled lazily per slot.
type ProjEntry = [Option<Tensor>; 5];

/// One layer of the [`EmbedCache`] memo, keyed by node.
#[derive(Clone, Debug, Default)]
struct LayerMemo {
    /// The node's state at this layer.
    states: std::collections::HashMap<usize, Tensor>,
    /// Projections of that state by this layer's convs.
    proj: std::collections::HashMap<usize, ProjEntry>,
}

/// Nodes per copy-on-write cache segment (see [`EmbedCache`]): contiguous
/// node-id ranges `[k·8, (k+1)·8)` share one `Arc`'d chunk, so an
/// incremental republish re-allocates only the chunks a dirty node lands in.
/// Small on purpose: a segment holds `8 × node_stride` cache elements
/// (~26 KB at the serving model's width), so a ~100-shop churn burst,
/// whose recomputed nodes scatter over the id space, copies a few MB per
/// publish instead of the ~20 MB 64-node segments cost.
pub const SEGMENT_NODES: usize = 8;
// The segment presence mask is one `u64` bit per node.
const _: () = assert!(SEGMENT_NODES <= 64);

/// Segments per page of the segment table (see [`EmbedCache`]). The table
/// is path-copied too: cloning a cache bumps one `Arc` per page, not per
/// segment, and a write copies its page's segment pointers before it
/// copies the segment. At 8 × 8 nodes a page spans 64 nodes, so cloning
/// or dropping a 10⁵-node cache touches ~1.6k reference counts instead of
/// the 12.5k scattered segment headers — each a cache and TLB miss.
const PAGE_SEGMENTS: usize = 8;

/// One copy-on-write page of the segment table.
type Page = [Option<Arc<Segment>>; PAGE_SEGMENTS];

/// Elements one node occupies in a segment block for embedding dims
/// `(t, c)`: embed `[T,C]`, Q/K/V `[T,C]` each, two gate projections
/// `[T,1]` each, at the fixed offsets of [`slot_span`].
#[inline]
pub(crate) fn node_stride(t: usize, c: usize) -> usize {
    4 * t * c + 2 * t
}

/// `(offset, rows, cols)` of a projection slot inside a node's block.
#[inline]
fn slot_span(t: usize, c: usize, slot: ProjSlot) -> (usize, usize, usize) {
    let tc = t * c;
    match slot {
        ProjSlot::Q => (tc, t, c),
        ProjSlot::K => (2 * tc, t, c),
        ProjSlot::V => (3 * tc, t, c),
        ProjSlot::GateSrc => (4 * tc, t, 1),
        ProjSlot::GateDst => (4 * tc + t, t, 1),
    }
}

/// One shared chunk of [`SEGMENT_NODES`] consecutive nodes: embedding
/// values and layer-0 projections together in **one contiguous block** at
/// fixed per-node strides (node `off`'s embed at `off·stride`, projections
/// at [`slot_span`] offsets behind it), so an epoch either owns a segment's
/// storage — a single allocation — or shares all of it with the previous
/// epoch. A node is only ever written whole, all six lanes at once, so one
/// presence bit per node covers them; absent nodes leave their lanes
/// zeroed. An *unfilled* segment has storage allocated but empty
/// (`data.len() == 0`, no node present); it exists only while a full
/// publish fills its table ([`EmbedCache::claim_pages`]).
#[derive(Clone, Debug)]
struct Segment {
    data: Lanes,
    mask: u64,
}

impl Segment {
    fn unfilled(tier: CacheTier, stride: usize) -> Self {
        let cap = SEGMENT_NODES * stride;
        let data = match tier {
            CacheTier::F32 => Lanes::F32(Vec::with_capacity(cap)),
            CacheTier::F16 => Lanes::F16(Vec::with_capacity(cap)),
        };
        Self { data, mask: 0 }
    }
}

/// A segment's block storage, in its [`CacheTier`]'s element type.
/// Readers and writers match the tag once per lane or segment, then run a
/// plain loop over the elements.
#[derive(Clone, Debug)]
enum Lanes {
    /// Raw `f32` values.
    F32(Vec<f32>),
    /// IEEE 754 binary16 bits (see [`crate::half`]).
    F16(Vec<u16>),
}

/// Stacked f32 payloads of one publish block for
/// [`EmbedCache::insert_block`]: member `i` of each slice is node
/// `nodes[i]`'s value, exactly as read off the batched publish tape —
/// embeddings and Q/K/V at stride `T·C`, the gate projections at stride
/// `T`.
pub struct BlockValues<'a> {
    /// Stacked `[B, T, C]` embeddings.
    pub embed: &'a [f32],
    /// Stacked `[B, T, C]` CAU query projections.
    pub q: &'a [f32],
    /// Stacked `[B, T, C]` CAU key projections.
    pub k: &'a [f32],
    /// Stacked `[B, T, C]` CAU value projections.
    pub v: &'a [f32],
    /// Stacked `[B, T, 1]` gate source projections.
    pub gate_src: &'a [f32],
    /// Stacked `[B, T, 1]` gate destination projections.
    pub gate_dst: &'a [f32],
}

/// Cache of per-node values for inference-only forward passes, in two
/// stores with one job each.
///
/// * The **frozen tier** holds each published node's layer-0 values: its
///   embedding `E_v` (FFL → TEL output, `[T, C]`) and the five
///   [`ProjSlot`] projections of it. They depend only on the node's
///   features and the model parameters, never on an ego subgraph, so a
///   publish computes them once ([`EmbedCache::insert_block`]) into
///   copy-on-write segments. Cloning a published cache bumps one `Arc`
///   per page, so handing it to every serving worker is cheap. Its
///   segments store the cache's [`CacheTier`]: a full publish takes it
///   from [`crate::GaiaConfig::cache_tier`], a delta publish's clone
///   inherits it, so every segment it rewrites or appends matches.
/// * The **memo** holds f32 values a forward pass computed, keyed
///   `(layer, node)`: at layer 0 the embeddings and projections a cache
///   without a publish computed for itself, deeper the hidden states
///   `H^l` (`1 ≤ l < L`) of nodes whose state is centre-independent, plus
///   their projections by layer `l`'s convs. It is never frozen.
///
/// A layer-0 lookup reads the frozen tier first, then the memo, so a
/// serving context with a published cache installed never probes the
/// memo at layer 0. Memoised layer states are functions of the **graph**
/// as well, so the cache is only sound while the model parameters, the
/// dataset and the graph all stay fixed; owners (e.g. a serving inference
/// context) must call [`EmbedCache::clear`] or install a fresh cache when
/// any of them changes, such as on a snapshot swap.
#[derive(Clone, Debug, Default)]
pub struct EmbedCache {
    /// Frozen tier, segmented: segment `k` covers nodes
    /// `[k·SEGMENT_NODES, (k+1)·SEGMENT_NODES)` and sits in slot
    /// `k % PAGE_SEGMENTS` of page `k / PAGE_SEGMENTS`. Cloning is one
    /// `Arc` bump per page; [`EmbedCache::insert_block`] rebuilds only the
    /// segments (and pages) it writes, leaving every clean segment's `Arc`
    /// (and thus its heap storage) shared with the previous epoch.
    pages: Vec<Arc<Page>>,
    /// Number of segment slots: the highest frozen node's segment plus one.
    segments: usize,
    /// Embedding dims `(T, C)` of the frozen blocks, set by the first block
    /// written. Every cached tensor agrees on them (one model, one dataset
    /// — see [`EmbedCache::clear`]).
    dims: Option<(usize, usize)>,
    /// The memo, indexed by layer: `E_v` at layer 0, `H^l` of a
    /// centre-independent node deeper, each with its projections.
    memo: Vec<LayerMemo>,
    /// Element storage of the segments this cache creates.
    tier: CacheTier,
}

impl EmbedCache {
    /// Empty cache at the [`CacheTier::F32`] tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache whose frozen segments are stored at `tier`.
    pub fn with_tier(tier: CacheTier) -> Self {
        Self { tier, ..Self::default() }
    }

    /// Element storage of the frozen segments this cache writes.
    pub fn tier(&self) -> CacheTier {
        self.tier
    }

    /// Segment index covering `node`.
    pub fn segment_of(node: usize) -> usize {
        node / SEGMENT_NODES
    }

    /// Number of frozen segment slots (the highest frozen node's segment
    /// plus one; memoised nodes don't count).
    pub fn segment_count(&self) -> usize {
        self.segments
    }

    /// Frozen segment `seg`, if populated.
    #[inline]
    fn segment(&self, seg: usize) -> Option<&Arc<Segment>> {
        self.pages.get(seg / PAGE_SEGMENTS)?[seg % PAGE_SEGMENTS].as_ref()
    }

    /// Every populated frozen segment, in index order.
    fn frozen_segments(&self) -> impl Iterator<Item = &Arc<Segment>> {
        self.pages.iter().flat_map(|page| page.iter().flatten())
    }

    /// Extend the table to at least `segments` slots (new slots empty).
    fn grow_to(&mut self, segments: usize) {
        if segments > self.segments {
            self.segments = segments;
            self.pages.resize_with(segments.div_ceil(PAGE_SEGMENTS), Default::default);
        }
    }

    /// Writable slot of segment `seg` (within [`EmbedCache::segment_count`]):
    /// copies its page first if the page is still shared with another
    /// epoch. The segment itself is left shared — callers copy it on write.
    fn segment_slot_mut(&mut self, seg: usize) -> &mut Option<Arc<Segment>> {
        &mut Arc::make_mut(&mut self.pages[seg / PAGE_SEGMENTS])[seg % PAGE_SEGMENTS]
    }

    /// Stable address of frozen segment `seg`'s storage, if populated.
    /// Two epochs returning the same address for a segment **share** that
    /// segment's heap allocation — the observable the zero-alloc
    /// copy-on-write tests pin.
    pub fn segment_addr(&self, seg: usize) -> Option<usize> {
        self.segment(seg).map(|arc| Arc::as_ptr(arc) as usize)
    }

    /// Element storage of frozen segment `seg`, if populated.
    pub fn segment_tier(&self, seg: usize) -> Option<CacheTier> {
        self.segment(seg).map(|arc| match arc.data {
            Lanes::F32(_) => CacheTier::F32,
            Lanes::F16(_) => CacheTier::F16,
        })
    }

    /// `node`'s frozen layer-`layer` value — its projection `slot`, or its
    /// embedding for `None` — as its segment's tier-tagged storage and the
    /// element range in it, plus its `[rows, cols]` shape, if present. The
    /// frozen tier holds layer 0 only.
    #[inline]
    fn frozen_span(
        &self,
        layer: usize,
        node: usize,
        slot: Option<ProjSlot>,
    ) -> Option<(&Lanes, Range<usize>, usize, usize)> {
        if layer != 0 {
            return None;
        }
        let (t, c) = self.dims?;
        let seg = self.segment(Self::segment_of(node))?;
        let off = node % SEGMENT_NODES;
        if seg.mask >> off & 1 == 0 {
            return None;
        }
        let (offset, rows, cols) = slot.map_or((0, t, c), |slot| slot_span(t, c, slot));
        let start = off * node_stride(t, c) + offset;
        Some((&seg.data, start..start + rows * cols, rows, cols))
    }

    /// `node`'s memoised layer-`layer` value: its projection `slot`, or its
    /// state for `None`.
    fn memo_value(&self, layer: usize, node: usize, slot: Option<ProjSlot>) -> Option<&Tensor> {
        let memo = self.memo.get(layer)?;
        match slot {
            None => memo.states.get(&node),
            Some(slot) => memo.proj.get(&node)?[slot as usize].as_ref(),
        }
    }

    /// Enter `node`'s cached layer-`layer` value (projection `slot`, or the
    /// state for `None`) on the tape as a pooled constant, if present:
    /// straight from the frozen block, a slice copy on the f32 tier and a
    /// dequantising fill on the f16 tier, else a pooled copy of the memo
    /// entry — either way no staging allocation, so the serving steady
    /// state stays zero-alloc.
    fn value_constant(
        &self,
        g: &mut Graph,
        layer: usize,
        node: usize,
        slot: Option<ProjSlot>,
    ) -> Option<VarId> {
        if let Some((lanes, span, rows, cols)) = self.frozen_span(layer, node, slot) {
            return Some(match lanes {
                Lanes::F32(data) => g.constant_slice(&[rows, cols], &data[span]),
                Lanes::F16(data) => g.constant_fill(&[rows, cols], |buf| {
                    for (d, &q) in buf.iter_mut().zip(&data[span]) {
                        *d = f16_to_f32(q);
                    }
                }),
            });
        }
        self.memo_value(layer, node, slot).map(|t| g.constant_from(t))
    }

    /// Owned f32 copy of `node`'s cached layer-0 value (projection `slot`,
    /// or the embedding for `None`), decoded from the frozen block when
    /// frozen.
    fn value_vec(&self, node: usize, slot: Option<ProjSlot>) -> Option<Vec<f32>> {
        if let Some((lanes, span, ..)) = self.frozen_span(0, node, slot) {
            return Some(match lanes {
                Lanes::F32(data) => data[span].to_vec(),
                Lanes::F16(data) => data[span].iter().map(|&q| f16_to_f32(q)).collect(),
            });
        }
        self.memo_value(0, node, slot).map(|t| t.data().to_vec())
    }

    /// Owned f32 copy of `node`'s cached embedding — the test/debug read
    /// path.
    pub fn embed_vec(&self, node: usize) -> Option<Vec<f32>> {
        self.value_vec(node, None)
    }

    /// Owned f32 copy of `node`'s cached layer-0 projection `slot`, if
    /// present.
    pub fn proj_vec(&self, node: usize, slot: ProjSlot) -> Option<Vec<f32>> {
        self.value_vec(node, Some(slot))
    }

    /// Nodes present in the frozen tier.
    fn frozen_len(&self) -> usize {
        self.frozen_segments().map(|seg| seg.mask.count_ones() as usize).sum()
    }

    /// How many of `nodes` (layer-0 memo keys) the frozen tier lacks.
    fn unfrozen<'a>(&self, nodes: impl Iterator<Item = &'a usize>) -> usize {
        nodes.filter(|&&v| self.frozen_span(0, v, None).is_none()).count()
    }

    /// Number of nodes with a cached embedding (frozen or memoised).
    pub fn len(&self) -> usize {
        self.frozen_len() + self.memo.first().map_or(0, |m| self.unfrozen(m.states.keys()))
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached value, frozen and memoised (required after a
    /// parameter, dataset or graph change). Also forgets the frozen dims,
    /// so a model with a different channel width can reuse the cache
    /// object; the tier stays.
    pub fn clear(&mut self) {
        self.pages.clear();
        self.segments = 0;
        self.dims = None;
        self.memo.clear();
    }

    /// Number of nodes with at least one cached layer-0 projection.
    pub fn cached_projections(&self) -> usize {
        self.frozen_len() + self.memo.first().map_or(0, |m| self.unfrozen(m.proj.keys()))
    }

    /// Enter `node`'s cached layer-`layer` state `H^layer` on the tape as a
    /// pooled constant, if present — at layer 0 its embedding `E_v`.
    /// Deeper, only states the request path proved centre-independent are
    /// ever memoised: the node's whole neighbour list was in its ego and
    /// every neighbour's input state was itself centre-independent, so the
    /// entry is the same op sequence on the same inputs — the same bits —
    /// whichever request computed it.
    pub(crate) fn layer_state_constant(
        &self,
        g: &mut Graph,
        layer: usize,
        node: usize,
    ) -> Option<VarId> {
        self.value_constant(g, layer, node, None)
    }

    /// Memoise `H^layer` of `node` (`E_v` at layer 0).
    pub(crate) fn insert_layer_state(&mut self, layer: usize, node: usize, value: Tensor) {
        self.layer_memo_mut(layer).states.insert(node, value);
    }

    /// Layer `layer` of the memo, grown to it if need be.
    fn layer_memo_mut(&mut self, layer: usize) -> &mut LayerMemo {
        if self.memo.len() <= layer {
            self.memo.resize_with(layer + 1, Default::default);
        }
        &mut self.memo[layer]
    }

    /// Number of memoised `(layer, node)` hidden states at layers `≥ 1`.
    pub fn cached_layer_states(&self) -> usize {
        self.memo.iter().skip(1).map(|m| m.states.len()).sum()
    }

    /// `(layer, node)` keys of every memo entry, states and projections,
    /// in no order.
    #[cfg(test)]
    pub(crate) fn memo_keys(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.memo.iter().enumerate().flat_map(|(layer, m)| {
            m.states.keys().chain(m.proj.keys()).map(move |&node| (layer, node))
        })
    }

    /// [`EmbedCache::layer_state_constant`] for the projection `slot` of
    /// `node`'s layer-`layer` state.
    pub(crate) fn proj_constant_at(
        &self,
        g: &mut Graph,
        layer: usize,
        node: usize,
        slot: ProjSlot,
    ) -> Option<VarId> {
        self.value_constant(g, layer, node, Some(slot))
    }

    /// Memoise projection `slot` of `node`'s layer-`layer` state. The value
    /// must be bit-identical to evaluating the projection on the cached
    /// state — callers insert exactly what the tape computed, so cache hits
    /// can never change a prediction.
    pub(crate) fn insert_proj_at(
        &mut self,
        layer: usize,
        node: usize,
        slot: ProjSlot,
        value: Tensor,
    ) {
        self.layer_memo_mut(layer).proj.entry(node).or_default()[slot as usize] = Some(value);
    }

    /// Approximate resident heap bytes of the cache: every heap block's
    /// `capacity × element size` plus a 16-byte per-allocation overhead,
    /// inline headers counted as part of their parent block. The frozen
    /// tier is one contiguous block per segment (two allocations with the
    /// `Arc`), counted at that segment's own element width, plus one
    /// small page allocation per `PAGE_SEGMENTS` segments, so the
    /// world-scale bench sees per-node cost collapse to the element
    /// payload itself.
    pub fn approx_heap_bytes(&self) -> usize {
        const OVH: usize = 16;
        fn tensor_bytes(t: &Tensor) -> usize {
            t.data().len() * 4 + t.shape().len() * 8 + 2 * OVH
        }
        let mut bytes = self.pages.capacity() * std::mem::size_of::<Arc<Page>>() + OVH;
        bytes += self.pages.len() * (std::mem::size_of::<Page>() + 2 * 8 + OVH);
        for seg in self.frozen_segments() {
            bytes += OVH; // the Arc allocation (header + inline Segment)
            bytes += OVH
                + match &seg.data {
                    Lanes::F32(data) => data.capacity() * std::mem::size_of::<f32>(),
                    Lanes::F16(data) => data.capacity() * std::mem::size_of::<u16>(),
                };
        }
        for memo in &self.memo {
            for t in memo.states.values() {
                bytes += tensor_bytes(t) + 3 * OVH;
            }
            for entry in memo.proj.values() {
                bytes += entry.iter().flatten().map(tensor_bytes).sum::<usize>() + 3 * OVH;
            }
        }
        bytes
    }

    /// The cheaply cloneable shared form of this cache, which is the cache
    /// itself: every publish writes the frozen tier directly, and that tier
    /// is already copy-on-write and shared by `Arc`, so there is nothing to
    /// freeze. Kept for callers that mark the hand-over of a published
    /// cache.
    ///
    /// Memoised values are never frozen (the frozen tier may be binary16,
    /// and layer states depend on the graph a publish does not see): only
    /// publish caches are shared, and those hold none — checked in debug
    /// builds.
    pub fn into_shared(self) -> Self {
        debug_assert!(
            self.memo.iter().all(|m| m.states.is_empty() && m.proj.is_empty()),
            "EmbedCache::into_shared: memoised values must not be frozen"
        );
        self
    }

    /// Bulk-insert a publish **block**: the stacked embeddings and all five
    /// layer-0 projection lanes of `nodes` land directly in the frozen
    /// segment storage in one pass — one segment lookup per touched
    /// segment and one copy-on-write clone at most. `nodes` must be sorted
    /// ascending (the block drivers produce sorted node ranges / recompute
    /// lists), so segment grouping is a linear scan.
    ///
    /// Copy-on-write: a segment still shared with a previous epoch is
    /// cloned before the first write (the old epoch's readers never observe
    /// the new values), while a segment this cache already owns is written
    /// in place — so a multi-block publish touches each segment's storage
    /// once.
    pub fn insert_block(&mut self, nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>) {
        check_block(nodes, t, c, vals);
        match self.dims {
            Some(dims) => assert_eq!(dims, (t, c), "insert_block: dims mismatch"),
            None => self.dims = Some((t, c)),
        }
        if let Some(&max) = nodes.last() {
            self.grow_to(Self::segment_of(max) + 1);
        }
        let (tier, stride) = (self.tier, node_stride(t, c));
        let mut i = 0;
        while i < nodes.len() {
            let slot = self.segment_slot_mut(Self::segment_of(nodes[i]));
            let seg = slot.get_or_insert_with(|| Arc::new(Segment::unfilled(tier, stride)));
            i = write_segment(seg, nodes, i, t, c, vals);
        }
    }

    /// Grow this empty cache's table to the `n.div_ceil(SEGMENT_NODES)`
    /// segments of nodes `0..n`, once, and hand its pages out for a full
    /// publish in runs of `run_pages` whole pages ([`PageClaims::claim`]).
    /// Each run is a disjoint `&mut` sub-slice of the one table, so
    /// workers fill their segments in place and nothing is merged
    /// afterwards. `dims` are the embedding dims `(T, C)` every block
    /// inserted through a run must have.
    ///
    /// Every segment's storage is allocated here, at the cache's tier, on
    /// the calling thread, and left unwritten (unfilled): workers only
    /// fill it. So the whole
    /// table comes from the caller's allocator arena however the claims
    /// fall, and a republish reuses the storage its predecessors freed,
    /// instead of each worker's arena growing to the largest share it was
    /// ever dealt.
    pub(crate) fn claim_pages(
        &mut self,
        n: usize,
        dims: (usize, usize),
        run_pages: usize,
    ) -> PageClaims<'_> {
        assert!(self.pages.is_empty() && self.memo.is_empty(), "claim_pages: cache not empty");
        assert!(run_pages > 0, "claim_pages: runs must hold a page");
        self.grow_to(n.div_ceil(SEGMENT_NODES));
        let stride = node_stride(dims.0, dims.1);
        let tier = self.tier;
        for seg in 0..self.segments {
            *self.segment_slot_mut(seg) = Some(Arc::new(Segment::unfilled(tier, stride)));
        }
        if n > 0 {
            self.dims = Some(dims);
        }
        PageClaims { runs: Claims::new(&mut self.pages, run_pages), run_pages, n, dims }
    }
}

/// Nodes one page of the segment table spans: the unit a full publish's
/// workers claim work in ([`EmbedCache::claim_pages`]).
pub(crate) const PAGE_NODES: usize = SEGMENT_NODES * PAGE_SEGMENTS;

/// The pages of a fresh full-publish table, handed out in index order to
/// whichever worker asks next ([`EmbedCache::claim_pages`]).
pub(crate) struct PageClaims<'a> {
    runs: Claims<'a, Arc<Page>>,
    run_pages: usize,
    n: usize,
    dims: (usize, usize),
}

impl<'a> PageClaims<'a> {
    /// The next unclaimed run of pages, or `None` once every page is taken.
    pub(crate) fn claim(&self) -> Option<PageRun<'a>> {
        let (k, pages) = self.runs.claim()?;
        let start = k * self.run_pages * PAGE_NODES;
        let end = (start + pages.len() * PAGE_NODES).min(self.n);
        Some(PageRun { pages, nodes: start..end, dims: self.dims })
    }
}

/// One claimed run of whole pages of a full-publish table: the segments of
/// nodes [`PageRun::nodes`], writable by its holder alone.
pub(crate) struct PageRun<'a> {
    pages: &'a mut [Arc<Page>],
    nodes: std::ops::Range<usize>,
    dims: (usize, usize),
}

impl PageRun<'_> {
    /// Nodes whose segments this run holds.
    pub(crate) fn nodes(&self) -> std::ops::Range<usize> {
        self.nodes.clone()
    }

    /// Pages in this run.
    pub(crate) fn pages(&self) -> usize {
        self.pages.len()
    }
}

/// Where a publish block's values land: a cache's copy-on-write table
/// ([`EmbedCache::insert_block`]) or one claimed run of a full publish's
/// fresh table.
pub(crate) trait BlockSink {
    /// Write block `nodes` (sorted ascending) with dims `(t, c)`.
    fn insert_block(&mut self, nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>);
}

impl BlockSink for EmbedCache {
    fn insert_block(&mut self, nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>) {
        EmbedCache::insert_block(self, nodes, t, c, vals);
    }
}

impl BlockSink for PageRun<'_> {
    /// Panics unless every node lies in [`PageRun::nodes`] and `(t, c)`
    /// are the dims the table was claimed with.
    fn insert_block(&mut self, nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>) {
        check_block(nodes, t, c, vals);
        assert_eq!((t, c), self.dims, "PageRun::insert_block: dims mismatch");
        if let (Some(&lo), Some(&hi)) = (nodes.first(), nodes.last()) {
            assert!(
                self.nodes.contains(&lo) && self.nodes.contains(&hi),
                "PageRun::insert_block: nodes {lo}..={hi} outside the run's {:?}",
                self.nodes
            );
        }
        let mut i = 0;
        while i < nodes.len() {
            let seg = EmbedCache::segment_of(nodes[i] - self.nodes.start);
            let page = Arc::get_mut(&mut self.pages[seg / PAGE_SEGMENTS])
                .expect("a claimed page is never shared");
            let seg =
                page[seg % PAGE_SEGMENTS].as_mut().expect("claim_pages allocates every segment");
            i = write_segment(seg, nodes, i, t, c, vals);
        }
    }
}

/// Validate a publish block's ordering and payload sizes.
fn check_block(nodes: &[usize], t: usize, c: usize, vals: &BlockValues<'_>) {
    let b = nodes.len();
    let tc = t * c;
    assert!(nodes.windows(2).all(|w| w[0] < w[1]), "insert_block: nodes must be sorted");
    assert_eq!(vals.embed.len(), b * tc, "insert_block: embed payload size");
    assert_eq!(vals.q.len(), b * tc, "insert_block: Q payload size");
    assert_eq!(vals.k.len(), b * tc, "insert_block: K payload size");
    assert_eq!(vals.v.len(), b * tc, "insert_block: V payload size");
    assert_eq!(vals.gate_src.len(), b * t, "insert_block: gate-src payload size");
    assert_eq!(vals.gate_dst.len(), b * t, "insert_block: gate-dst payload size");
}

/// Write the block members `nodes[i..]` that share `nodes[i]`'s segment
/// into that segment and return the index of the first member past it. A
/// segment still shared with another epoch is cloned first
/// (copy-on-write); the members are then written in place, in the
/// segment's own element type.
fn write_segment(
    arc: &mut Arc<Segment>,
    nodes: &[usize],
    i: usize,
    t: usize,
    c: usize,
    vals: &BlockValues<'_>,
) -> usize {
    let seg_idx = EmbedCache::segment_of(nodes[i]);
    let end = i + nodes[i..].partition_point(|&v| EmbedCache::segment_of(v) == seg_idx);
    let Segment { data, mask } = Arc::make_mut(arc);
    let members = &nodes[i..end];
    *mask |= match data {
        Lanes::F32(data) => write_members(data, members, i, t, c, vals, |x| x),
        Lanes::F16(data) => write_members(data, members, i, t, c, vals, f32_to_f16),
    };
    end
}

/// Encode block members `members` (payload rows `first..`) into one
/// segment's storage and return their presence bits. An unfilled segment
/// is zero-filled on its first write, by the worker that writes it. A
/// member's six lanes sit at [`slot_span`] offsets behind its embedding.
fn write_members<E: Copy + Default>(
    data: &mut Vec<E>,
    members: &[usize],
    first: usize,
    t: usize,
    c: usize,
    vals: &BlockValues<'_>,
    encode: impl Fn(f32) -> E,
) -> u64 {
    let tc = t * c;
    let stride = node_stride(t, c);
    let len = SEGMENT_NODES * stride;
    assert!(data.is_empty() || data.len() == len, "insert_block: stride mismatch");
    if data.is_empty() {
        data.resize(len, E::default());
    }
    let encode_into = |dst: &mut [E], src: &[f32]| {
        for (d, &x) in dst.iter_mut().zip(src) {
            *d = encode(x);
        }
    };
    let mut present = 0;
    for (m, &node) in (first..).zip(members) {
        let off = node % SEGMENT_NODES;
        let block = off * stride;
        encode_into(&mut data[block..block + tc], &vals.embed[m * tc..(m + 1) * tc]);
        for (lane, src) in [(ProjSlot::Q, vals.q), (ProjSlot::K, vals.k), (ProjSlot::V, vals.v)] {
            let start = block + slot_span(t, c, lane).0;
            encode_into(&mut data[start..start + tc], &src[m * tc..(m + 1) * tc]);
        }
        for (lane, src) in [(ProjSlot::GateSrc, vals.gate_src), (ProjSlot::GateDst, vals.gate_dst)]
        {
            let start = block + slot_span(t, c, lane).0;
            encode_into(&mut data[start..start + t], &src[m * t..(m + 1) * t]);
        }
        present |= 1 << off;
    }
    present
}

/// A model that predicts a centre shop's future GMV from its ego subgraph.
pub trait GraphForecaster: Sync {
    /// Display name (Table I row label).
    fn name(&self) -> &str;

    /// Parameter store (read access for forward passes).
    fn params(&self) -> &ParamStore;

    /// Parameter store (mutable access for the optimiser).
    fn params_mut(&mut self) -> &mut ParamStore;

    /// Ego-subgraph extraction the model wants (pure sequence models use
    /// `hops = 0`).
    fn ego_config(&self) -> EgoConfig;

    /// Build the forward pass for the centre node of `ego` on tape `g`,
    /// returning the `[1, horizon]` prediction in model (positive-log) space.
    fn forward_center(&self, g: &mut Graph, ds: &Dataset, ego: &EgoSubgraph) -> VarId;

    /// Inference-only forward pass that may reuse per-node embedding values
    /// from `cache` (and populate it). Must return bit-identical values to
    /// [`GraphForecaster::forward_center`]; gradients need not flow through
    /// cached sub-expressions, so this must never be used for training.
    /// The default implementation ignores the cache.
    fn forward_center_cached(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        ego: &EgoSubgraph,
        _cache: &mut EmbedCache,
    ) -> VarId {
        self.forward_center(g, ds, ego)
    }

    /// Batched inference pass: build the forward graphs of several
    /// requests on **one** tape, returning one `[1, horizon]` prediction
    /// node per ego subgraph (in input order).
    ///
    /// Contract: the outputs must be element-wise **bit-identical** to
    /// calling [`GraphForecaster::forward_center_cached`] once per ego —
    /// batching may only amortise work (shared tape, hoisted invariant
    /// projections, stacked kernels), never change the arithmetic. The
    /// default implementation is that per-ego loop; models override it
    /// with a genuinely batched graph (see `Gaia`).
    fn forward_centers_cached(
        &self,
        g: &mut Graph,
        ds: &Dataset,
        egos: &[&EgoSubgraph],
        cache: &mut EmbedCache,
    ) -> Vec<VarId> {
        egos.iter().map(|ego| self.forward_center_cached(g, ds, ego, cache)).collect()
    }
}

/// Helpers shared by model implementations.
pub mod inputs {
    use super::*;

    /// The centre/neighbour input triple for one local node of an ego
    /// subgraph: `(z: [T, 1], f_t: [T, d_t], f_s: [1, d_s])` as constants.
    /// Inputs enter the tape as pooled copies, so a reset-reused tape feeds
    /// them in without fresh allocations.
    pub fn node_inputs(g: &mut Graph, ds: &Dataset, node: usize) -> (VarId, VarId, VarId) {
        let z = g.constant_slice(&[ds.t, 1], ds.gmv_row(node));
        // The temporal row is materialised straight into the pooled tape
        // buffer — the dataset stores only its scaler-dependent columns.
        let f_t = g.constant_fill(&[ds.t, ds.d_t], |buf| ds.write_temporal_row(node, buf));
        let f_s = g.constant_slice(&[1, ds.d_s], ds.statics_row(node));
        (z, f_t, f_s)
    }

    /// Stacked input triple for a publish **block** of nodes:
    /// `(z: [B, T, 1], f_t: [B, T, d_t], f_s: [B, 1, d_s])` as rank-3
    /// pooled constants. Member `i` holds exactly the bytes
    /// [`node_inputs`] would enter for `nodes[i]`, so a batched forward
    /// over the stack starts from bit-identical inputs.
    pub fn node_inputs_batched(
        g: &mut Graph,
        ds: &Dataset,
        nodes: &[usize],
    ) -> (VarId, VarId, VarId) {
        let b = nodes.len();
        let z = g.constant_fill(&[b, ds.t, 1], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.t).zip(nodes) {
                dst.copy_from_slice(ds.gmv_row(node));
            }
        });
        let f_t = g.constant_fill(&[b, ds.t, ds.d_t], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.t * ds.d_t).zip(nodes) {
                ds.write_temporal_row(node, dst);
            }
        });
        let f_s = g.constant_fill(&[b, 1, ds.d_s], |buf| {
            for (dst, &node) in buf.chunks_mut(ds.d_s).zip(nodes) {
                dst.copy_from_slice(ds.statics_row(node));
            }
        });
        (z, f_t, f_s)
    }

    /// Flat `[1, T * (1 + d_t) + d_s]` feature row for models that treat the
    /// window as a static feature vector (GAT/GraphSAGE/GeniePath).
    pub fn flat_features(g: &mut Graph, ds: &Dataset, node: usize) -> VarId {
        let mut data = Vec::with_capacity(ds.t * (1 + ds.d_t) + ds.d_s);
        for t in 0..ds.t {
            data.push(ds.gmv_row(node)[t]);
            for k in 0..ds.d_t {
                data.push(ds.temporal_at(node, t, k));
            }
        }
        data.extend_from_slice(ds.statics_row(node));
        let width = data.len();
        g.constant(Tensor::from_vec(vec![1, width], data))
    }

    /// Width of [`flat_features`] rows for a dataset.
    pub fn flat_width(ds: &Dataset) -> usize {
        ds.t * (1 + ds.d_t) + ds.d_s
    }

    /// `[T, 1 + d_t]` window matrix (GMV column plus temporal features) for
    /// sequence models (LogTrans, STGCN, GMAN, MTGNN).
    pub fn window_matrix(g: &mut Graph, ds: &Dataset, node: usize) -> VarId {
        let cols = 1 + ds.d_t;
        let mut data = Vec::with_capacity(ds.t * cols);
        for t in 0..ds.t {
            data.push(ds.gmv_row(node)[t]);
            for k in 0..ds.d_t {
                data.push(ds.temporal_at(node, t, k));
            }
        }
        g.constant(Tensor::from_vec(vec![ds.t, cols], data))
    }
}

#[cfg(test)]
mod tests {
    use super::inputs::*;
    use super::{EmbedCache, ProjSlot, SEGMENT_NODES};
    use gaia_synth::{generate_dataset, WorldConfig};
    use gaia_tensor::{Graph, Tensor};

    // Probe dims: T = 1, C = 2. Embeddings and Q/K/V are `[1, 2]`, the two
    // gate projections `[1, 1]`. Integer payloads stay ≤ 2048 so the values
    // survive the f16 tier bit-exactly and the asserts hold on both tiers.
    fn probe(node: usize) -> Tensor {
        Tensor::from_vec(vec![1, 2], vec![node as f32, 1.0])
    }

    /// Stacked block payloads for `insert_block` over probe dims
    /// `T = 1, C = 2`: per-node values distinguishable across lanes, kept
    /// integer-valued so they survive the f16 tier bit-exactly.
    fn block_payload(
        nodes: &[usize],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) {
        let wide = |k: usize| nodes.iter().flat_map(move |&n| [(n + k) as f32, (k + 1) as f32]);
        let gate = |k: usize| nodes.iter().map(move |&n| (n + k) as f32);
        (
            wide(0).collect(),
            wide(1).collect(),
            wide(2).collect(),
            wide(3).collect(),
            gate(4).collect(),
            gate(5).collect(),
        )
    }

    fn insert_probe_block(cache: &mut EmbedCache, nodes: &[usize]) {
        let (embed, q, k, v, gs, gd) = block_payload(nodes);
        let vals =
            super::BlockValues { embed: &embed, q: &q, k: &k, v: &v, gate_src: &gs, gate_dst: &gd };
        cache.insert_block(nodes, 1, 2, &vals);
    }

    /// Cache with nodes `0..n` frozen through one probe block.
    fn frozen(n: usize) -> EmbedCache {
        let mut c = EmbedCache::new();
        insert_probe_block(&mut c, &(0..n).collect::<Vec<_>>());
        c
    }

    #[test]
    fn segmented_cache_lookup_across_boundaries() {
        let n = SEGMENT_NODES * 2 + 5;
        let c = frozen(n);
        assert_eq!(c.len(), n);
        assert_eq!(c.cached_projections(), n);
        assert_eq!(c.segment_count(), 3);
        for v in [0, SEGMENT_NODES - 1, SEGMENT_NODES, n - 1] {
            assert_eq!(c.embed_vec(v), Some(vec![v as f32, 1.0]), "embed {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::Q), Some(vec![(v + 1) as f32, 2.0]), "proj {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::GateSrc), Some(vec![(v + 4) as f32]), "gate {v}");
        }
        assert_eq!(c.embed_vec(n), None);
        assert_eq!(c.proj_vec(n, ProjSlot::Q), None);
        assert_eq!(c.embed_vec(SEGMENT_NODES * 40), None);
    }

    /// The tape-facing read path: frozen blocks surface as pooled constants
    /// with the original shapes and (decoded) values.
    #[test]
    fn cache_constants_carry_shape_and_value_onto_the_tape() {
        let c = frozen(SEGMENT_NODES + 3);
        let mut g = Graph::new();
        let v = SEGMENT_NODES + 1;
        let e = c.layer_state_constant(&mut g, 0, v).unwrap();
        assert_eq!(g.value(e).shape(), &[1, 2]);
        assert_eq!(g.value(e).data(), &[v as f32, 1.0]);
        let q = c.proj_constant_at(&mut g, 0, v, ProjSlot::Q).unwrap();
        assert_eq!(g.value(q).shape(), &[1, 2]);
        assert_eq!(g.value(q).data(), &[(v + 1) as f32, 2.0]);
        let gs = c.proj_constant_at(&mut g, 0, v, ProjSlot::GateSrc).unwrap();
        assert_eq!(g.value(gs).shape(), &[1, 1]);
        assert_eq!(g.value(gs).data(), &[(v + 4) as f32]);
        assert!(c.proj_constant_at(&mut g, 0, SEGMENT_NODES + 3, ProjSlot::K).is_none());
        // Memo hits surface the same way.
        let mut memo = EmbedCache::new();
        memo.insert_layer_state(0, 0, probe(7));
        let o = memo.layer_state_constant(&mut g, 0, 0).unwrap();
        assert_eq!(g.value(o).data(), probe(7).data());
    }

    #[test]
    fn insert_block_lands_directly_in_frozen_lanes() {
        let mut c = EmbedCache::new();
        // Straddle a segment boundary in one call.
        let nodes: Vec<usize> = (SEGMENT_NODES - 2..SEGMENT_NODES + 3).collect();
        insert_probe_block(&mut c, &nodes);
        assert_eq!(c.len(), nodes.len());
        assert_eq!(c.cached_projections(), nodes.len());
        for &v in &nodes {
            assert_eq!(c.embed_vec(v), Some(vec![v as f32, 1.0]), "embed {v}");
            assert_eq!(c.proj_vec(v, ProjSlot::Q), Some(vec![(v + 1) as f32, 2.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::K), Some(vec![(v + 2) as f32, 3.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::V), Some(vec![(v + 3) as f32, 4.0]));
            assert_eq!(c.proj_vec(v, ProjSlot::GateSrc), Some(vec![(v + 4) as f32]));
            assert_eq!(c.proj_vec(v, ProjSlot::GateDst), Some(vec![(v + 5) as f32]));
        }
        assert_eq!(c.embed_vec(SEGMENT_NODES + 3), None);
    }

    #[test]
    fn insert_block_is_copy_on_write_against_the_previous_epoch() {
        let mut base = EmbedCache::new();
        let all: Vec<usize> = (0..SEGMENT_NODES * 2).collect();
        insert_probe_block(&mut base, &all);
        let addr0 = base.segment_addr(0).unwrap();
        let addr1 = base.segment_addr(1).unwrap();
        // Next epoch: clone (Arc bumps), rewrite three nodes of segment 1.
        let mut next = base.clone();
        // Offsets relative to segment 1 `[SEGMENT_NODES, 2·SEGMENT_NODES)`:
        // the last three nodes are rewritten, the first stays clean, and a
        // later block lands on the two after it.
        let dirty: Vec<usize> = (2 * SEGMENT_NODES - 3..2 * SEGMENT_NODES).collect();
        let shifted: Vec<usize> = dirty.iter().map(|&v| v + 100).collect();
        let (embed, q, k, v, gs, gd) = block_payload(&shifted);
        let vals =
            super::BlockValues { embed: &embed, q: &q, k: &k, v: &v, gate_src: &gs, gate_dst: &gd };
        next.insert_block(&dirty, 1, 2, &vals);
        // Clean segment shared, touched segment copied before the write.
        assert_eq!(next.segment_addr(0), Some(addr0));
        assert_ne!(next.segment_addr(1), Some(addr1));
        let owned_addr = next.segment_addr(1).unwrap();
        // The previous epoch still reads its own values.
        for &d in &dirty {
            assert_eq!(base.embed_vec(d), Some(vec![d as f32, 1.0]), "base epoch mutated");
            assert_eq!(next.embed_vec(d), Some(vec![(d + 100) as f32, 1.0]));
        }
        // Untouched neighbours in the copied segment carried over.
        let clean = SEGMENT_NODES;
        assert_eq!(next.embed_vec(clean), Some(vec![clean as f32, 1.0]));
        // A second block into the now-owned segment writes in place.
        let more: Vec<usize> = (SEGMENT_NODES + 1..SEGMENT_NODES + 3).collect();
        assert!(dirty.iter().chain(&more).chain([&clean]).all(|&v| EmbedCache::segment_of(v) == 1));
        insert_probe_block(&mut next, &more);
        assert_eq!(next.segment_addr(1), Some(owned_addr), "owned segment re-cloned");
    }

    /// The segment table is path-copied by page: a block straddling two
    /// pages of a cloned cache copies exactly its two segments, every
    /// other segment stays shared, and the previous epoch's pages and
    /// values are untouched.
    #[test]
    fn insert_block_across_a_page_boundary_is_copy_on_write() {
        let span = SEGMENT_NODES * super::PAGE_SEGMENTS;
        let mut base = EmbedCache::new();
        insert_probe_block(&mut base, &(0..3 * span).collect::<Vec<_>>());
        let addrs: Vec<_> = (0..base.segment_count()).map(|s| base.segment_addr(s)).collect();
        let mut next = base.clone();
        // One node at the end of page 0 and one at the start of page 1.
        let dirty = [span - 1, span];
        let (embed, q, k, v, gs, gd) = block_payload(&[7, 8]);
        let vals =
            super::BlockValues { embed: &embed, q: &q, k: &k, v: &v, gate_src: &gs, gate_dst: &gd };
        next.insert_block(&dirty, 1, 2, &vals);
        let touched: Vec<usize> = dirty.iter().map(|&d| EmbedCache::segment_of(d)).collect();
        for (s, addr) in addrs.iter().enumerate() {
            assert_eq!(base.segment_addr(s), *addr, "base segment {s} moved");
            if touched.contains(&s) {
                assert_ne!(next.segment_addr(s), *addr, "segment {s} written in place");
            } else {
                assert_eq!(next.segment_addr(s), *addr, "segment {s} copied");
            }
        }
        for d in dirty {
            assert_eq!(base.embed_vec(d), Some(vec![d as f32, 1.0]), "base epoch mutated");
        }
        assert_eq!(next.embed_vec(span - 1), Some(vec![7.0, 1.0]));
        assert_eq!(next.embed_vec(span), Some(vec![8.0, 1.0]));
        assert_eq!(next.len(), base.len());
    }

    /// Claimed page runs tile the table in order, each a whole number of
    /// pages, and blocks written through them land in the one table in
    /// place: no second cache, nothing to merge.
    #[test]
    fn claimed_page_runs_tile_the_table_and_fill_it_in_place() {
        let n = 3 * super::PAGE_NODES + 5;
        let mut cache = EmbedCache::new();
        let claims = cache.claim_pages(n, (1, 2), 2);
        let mut next = 0;
        while let Some(mut run) = claims.claim() {
            let nodes = run.nodes();
            assert_eq!(nodes.start, next, "runs must tile 0..n in order");
            assert!(run.pages() <= 2);
            assert!(nodes.end == n || nodes.len() == run.pages() * super::PAGE_NODES);
            let members: Vec<usize> = nodes.clone().collect();
            let (embed, q, k, v, gs, gd) = block_payload(&members);
            let vals = super::BlockValues {
                embed: &embed,
                q: &q,
                k: &k,
                v: &v,
                gate_src: &gs,
                gate_dst: &gd,
            };
            super::BlockSink::insert_block(&mut run, &members, 1, 2, &vals);
            next = nodes.end;
        }
        assert_eq!(next, n);
        assert_eq!(cache.segment_count(), n.div_ceil(SEGMENT_NODES));
        assert_eq!(cache.len(), n);
        let mut reference = EmbedCache::new();
        insert_probe_block(&mut reference, &(0..n).collect::<Vec<_>>());
        for v in 0..n {
            assert_eq!(cache.embed_vec(v), reference.embed_vec(v), "embed {v}");
            assert_eq!(
                cache.proj_vec(v, ProjSlot::GateDst),
                reference.proj_vec(v, ProjSlot::GateDst)
            );
        }
    }

    /// A worker can only write the segments of the pages it claimed.
    #[test]
    #[should_panic(expected = "outside the run")]
    fn page_run_rejects_a_block_outside_its_pages() {
        let mut cache = EmbedCache::new();
        let claims = cache.claim_pages(2 * super::PAGE_NODES, (1, 2), 1);
        let mut first = claims.claim().unwrap();
        let nodes = [super::PAGE_NODES];
        let (embed, q, k, v, gs, gd) = block_payload(&nodes);
        let vals =
            super::BlockValues { embed: &embed, q: &q, k: &k, v: &v, gate_src: &gs, gate_dst: &gd };
        super::BlockSink::insert_block(&mut first, &nodes, 1, 2, &vals);
    }

    #[test]
    fn empty_and_clear_behave() {
        let mut c = EmbedCache::new();
        assert!(c.is_empty());
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.segment_addr(0), None);
        c.insert_layer_state(0, 5, probe(5));
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        let mut f = frozen(4);
        assert_eq!(f.len(), 4);
        f.clear();
        assert!(f.is_empty() && f.segment_count() == 0);
    }

    /// The memo is counted by `cached_layer_states` (layers ≥ 1 only) and
    /// `approx_heap_bytes`, read back per `(layer, node)` and slot, and
    /// dropped by `clear`. At layer 0 the frozen tier is read first and the
    /// memo serves only nodes it lacks.
    #[test]
    fn layer_state_memo_is_counted_read_back_and_cleared() {
        let mut c = frozen(SEGMENT_NODES);
        let before = c.approx_heap_bytes();
        c.insert_layer_state(1, 3, probe(30));
        c.insert_proj_at(1, 3, ProjSlot::K, probe(31));
        assert_eq!(c.cached_layer_states(), 1);
        assert!(c.approx_heap_bytes() > before, "memo entries must be counted");
        let mut g = Graph::new();
        let h = c.layer_state_constant(&mut g, 1, 3).unwrap();
        assert_eq!(g.value(h).data(), probe(30).data());
        let k = c.proj_constant_at(&mut g, 1, 3, ProjSlot::K).unwrap();
        assert_eq!(g.value(k).data(), probe(31).data());
        assert!(c.proj_constant_at(&mut g, 1, 3, ProjSlot::Q).is_none());
        assert!(c.layer_state_constant(&mut g, 2, 3).is_none());
        // A frozen lane wins over a layer-0 memo entry for the same node...
        c.insert_proj_at(0, 3, ProjSlot::Q, probe(999));
        let q0 = c.proj_constant_at(&mut g, 0, 3, ProjSlot::Q).unwrap();
        assert_eq!(g.value(q0).data(), &[4.0, 2.0]);
        // ...and the memo serves a node the frozen tier lacks: cached, but
        // not a layer state.
        let past = SEGMENT_NODES + 1;
        c.insert_layer_state(0, past, probe(40));
        c.insert_proj_at(0, past, ProjSlot::V, probe(41));
        let e = c.layer_state_constant(&mut g, 0, past).unwrap();
        assert_eq!(g.value(e).data(), probe(40).data());
        assert_eq!(c.proj_vec(past, ProjSlot::V).as_deref(), Some(probe(41).data()));
        assert_eq!(c.len(), SEGMENT_NODES + 1);
        assert_eq!(c.cached_projections(), SEGMENT_NODES + 1);
        assert_eq!(c.cached_layer_states(), 1);
        c.clear();
        assert_eq!(c.cached_layer_states(), 0);
        assert!(c.proj_constant_at(&mut g, 1, 3, ProjSlot::K).is_none());
    }

    /// Memoised states never reach the frozen (possibly binary16) tier.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not be frozen")]
    fn freezing_a_memo_is_a_bug() {
        let mut c = EmbedCache::new();
        c.insert_layer_state(1, 0, probe(1));
        let _ = c.into_shared();
    }

    #[test]
    fn input_builders_shapes() {
        let (_, ds) = generate_dataset(WorldConfig::tiny());
        let mut g = Graph::new();
        let (z, ft, fs) = node_inputs(&mut g, &ds, 0);
        assert_eq!(g.value(z).shape(), &[ds.t, 1]);
        assert_eq!(g.value(ft).shape(), &[ds.t, ds.d_t]);
        assert_eq!(g.value(fs).shape(), &[1, ds.d_s]);
        let flat = flat_features(&mut g, &ds, 0);
        assert_eq!(g.value(flat).shape(), &[1, flat_width(&ds)]);
        let win = window_matrix(&mut g, &ds, 0);
        assert_eq!(g.value(win).shape(), &[ds.t, 1 + ds.d_t]);
    }
}
