//! ITA-GCN layer (Section IV-C2, Eq. 8): graph aggregation with inter and
//! intra temporal-shift-aware attention.
//!
//! ```text
//! H^{l+1}_u = Σ_{v ∈ N(u)} α^l_{u,v} CAU(H^l_u, H^l_v)   (inter neighbour attention)
//!           + CAU(H^l_u, H^l_u)                          (intra self attention)
//! ```
//!
//! with the aggregation gate
//!
//! ```text
//! α_{u,v} = softmax_v( g(u,v) ),
//! g(u,v)  = µ^T tanh(L^s_{1xC;1} ⋆ H_u + L^d_{1xC;1} ⋆ H_v) + β_{type(u,v)}
//! ```
//!
//! `β` is a learned per-edge-type offset — the paper keeps the graph
//! homogeneous and carries the relationship kind as an edge *feature*; a
//! type-conditioned logit is the minimal faithful realisation of that.

use crate::api::{EmbedCache, ProjSlot};
use crate::cau::{proj_cached, proj_stacked, ConvolutionalAttentionUnit, Partner};
use crate::config::{GaiaConfig, GaiaVariant};
use gaia_graph::{EdgeType, EgoSubgraph};
use gaia_nn::{init, Conv1d, ParamId, ParamStore};
use gaia_tensor::kernels::{self, ProjectionBank, ProjectionLanes};
use gaia_tensor::{Graph, PadMode, VarId};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One ITA-GCN layer.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ItaGcnLayer {
    cau: ConvolutionalAttentionUnit,
    l_s: Conv1d,
    l_d: Conv1d,
    /// Attention vector `µ ∈ R^T`, stored as `[1, T]`.
    mu: ParamId,
    /// Per-edge-type logit offsets `β ∈ R^3`.
    edge_bias: ParamId,
}

impl ItaGcnLayer {
    /// Register one layer's parameters.
    pub fn new<R: Rng>(ps: &mut ParamStore, cfg: &GaiaConfig, index: usize, rng: &mut R) -> Self {
        let c = cfg.channels;
        let name = format!("ita{index}");
        let cau = if cfg.variant == GaiaVariant::NoIta {
            ConvolutionalAttentionUnit::plain(ps, &format!("{name}.cau"), c, rng)
        } else {
            ConvolutionalAttentionUnit::new(ps, &format!("{name}.cau"), cfg.t, c, rng)
        };
        Self {
            cau,
            l_s: Conv1d::new(ps, &format!("{name}.ls"), 1, c, 1, PadMode::Causal, true, rng),
            l_d: Conv1d::new(ps, &format!("{name}.ld"), 1, c, 1, PadMode::Causal, true, rng),
            mu: ps.add(format!("{name}.mu"), init::xavier(1, cfg.t, rng)),
            edge_bias: ps.add(
                format!("{name}.edge_bias"),
                gaia_tensor::Tensor::zeros(vec![EdgeType::COUNT]),
            ),
        }
    }

    /// Attention logit `g(u, v)` as a `[1]` node.
    fn edge_logit(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h_u: VarId,
        h_v: VarId,
        ty: EdgeType,
    ) -> VarId {
        let su = self.l_s.forward(g, ps, h_u); // [T, 1]
        let dv = self.l_d.forward(g, ps, h_v); // [T, 1]
        let sum = g.add(su, dv);
        let act = g.tanh(sum);
        let mu = ps.bind(g, self.mu); // [1, T]
        let score = g.matmul(mu, act); // [1, 1]
        let score = g.reshape(score, vec![1]);
        let bias_vec = ps.bind(g, self.edge_bias);
        let bias = g.index_vec(bias_vec, ty.feature_index());
        g.add(score, bias)
    }

    /// Compute `H^{l+1}` for local node `u` of the ego subgraph, given
    /// current representations `h` of every local node. Returns `[T, C]`.
    pub fn forward_node(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h: &[VarId],
        ego: &EgoSubgraph,
        u: usize,
    ) -> VarId {
        // Intra self attention term: CAU(H_u, H_u).
        let self_term = self.cau.forward(g, ps, h[u], h[u]);
        let neighbors = ego.neighbors(u);
        if neighbors.is_empty() {
            return self_term;
        }
        // Inter neighbour attention: α-weighted CAU messages.
        let mut logits = Vec::with_capacity(neighbors.len());
        let mut messages = Vec::with_capacity(neighbors.len());
        for nb in neighbors {
            let v = nb.local as usize;
            logits.push(self.edge_logit(g, ps, h[u], h[v], nb.ty));
            messages.push(self.cau.forward(g, ps, h[u], h[v]));
        }
        let stacked = g.stack_scalars(&logits);
        let alphas = g.softmax_vec(stacked);
        let mut weighted = Vec::with_capacity(messages.len());
        for (i, &msg) in messages.iter().enumerate() {
            let a = g.index_vec(alphas, i);
            weighted.push(g.mul_scalar(msg, a));
        }
        weighted.push(self_term);
        g.sum_vars(&weighted)
    }

    /// Batched, cache-aware [`Self::forward_node`] — the request path's
    /// one ITA dispatch, at any depth. The node's self term and all
    /// neighbour messages run through **one** batched CAU (shared query,
    /// fused causal attention), the gate's source projection `L^s ⋆ H_u`
    /// is computed once instead of per neighbour, and the neighbour logits
    /// collapse into one stacked conv + one GEMM against `µ`.
    ///
    /// `layer` is this layer's index, so `h` holds layer-`layer` states;
    /// `stable[v]` says local node `v`'s state is centre-independent. A
    /// projection of such a state is read from `cache` (the publish-time
    /// lanes on layer 0, where every state is an embedding; the layer-state
    /// memo deeper) or computed and inserted on a miss; every other
    /// projection is convolved on the tape.
    ///
    /// Bit-identical to [`Self::forward_node`]: every reused projection is
    /// the same op on the same input (recomputing it per pair, or reading
    /// the exact tensor a previous request computed, yields the same bits),
    /// batched kernels are per-member-exact, and the final α-weighted
    /// aggregation preserves the same summand order.
    pub(crate) fn forward_node_cached(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h: &[VarId],
        stable: &[bool],
        ego: &EgoSubgraph,
        u: usize,
        layer: usize,
        cache: &mut EmbedCache,
    ) -> VarId {
        let neighbors = ego.neighbors(u);
        let partner =
            |v: usize| Partner { state: h[v], node: ego.nodes[v] as usize, stable: stable[v] };
        // Partner order: neighbours first, self term last, so the final
        // sum_vars matches forward_node's summand order exactly.
        let partners: Vec<Partner> =
            neighbors.iter().map(|nb| partner(nb.local as usize)).chain([partner(u)]).collect();
        let msgs = self.cau.forward_batched(g, ps, partner(u), &partners, layer, cache);
        let self_term = msgs[neighbors.len()];
        if neighbors.is_empty() {
            return self_term;
        }
        // Aggregation gate, batched: g(u,v) = µᵀ tanh(L^s⋆H_u + L^d⋆H_v) + β;
        // su is computed once and shared across the neighbour set.
        let su = proj_cached(g, ps, &self.l_s, ProjSlot::GateSrc, partner(u), layer, cache); // [T, 1]
        let nb_partners = &partners[..neighbors.len()];
        let dv = proj_stacked(g, ps, &self.l_d, ProjSlot::GateDst, nb_partners, layer, cache); // [nb, T, 1]
        let t = g.value(su).shape()[0];
        let su_tiled = g.stack_rows(&vec![su; neighbors.len()]);
        let summed = g.add(su_tiled, dv);
        let gated = g.tanh(summed);
        self.combine_gated(g, ps, neighbors, &msgs, gated, t)
    }

    /// Shared tail of the batched gate: `µᵀ`-scores, edge-type biases,
    /// softmax α and the α-weighted message aggregation (self term last).
    fn combine_gated(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        neighbors: &[gaia_graph::LocalNeighbor],
        msgs: &[VarId],
        gated: VarId,
        t: usize,
    ) -> VarId {
        let gated_rows = g.reshape(gated, vec![neighbors.len(), t]); // [nb, T]
        let mu = ps.bind(g, self.mu); // [1, T]
        let mu_col = g.transpose(mu); // [T, 1] (column layout == row layout)
        let scores = g.matmul(gated_rows, mu_col); // [nb, 1] — one GEMM
        let scores_vec = g.reshape(scores, vec![neighbors.len()]);
        let bias_vec = ps.bind(g, self.edge_bias);
        let types: Vec<usize> = neighbors.iter().map(|nb| nb.ty.feature_index()).collect();
        let biases = g.gather_vec(bias_vec, &types);
        let logits = g.add(scores_vec, biases);
        let alphas = g.softmax_vec(logits);
        let mut weighted = Vec::with_capacity(neighbors.len() + 1);
        for (i, &msg) in msgs.iter().take(neighbors.len()).enumerate() {
            let a = g.index_vec(alphas, i);
            weighted.push(g.mul_scalar(msg, a));
        }
        weighted.push(msgs[neighbors.len()]);
        g.sum_vars(&weighted)
    }

    /// Every layer-0 projection of `e` (one node's embedding on tape `g`),
    /// in [`ProjSlot`] order: the CAU's Q/K/V plus the gate's
    /// source/destination projections — the per-node reference for the
    /// publish-time precompute.
    pub fn precompute_node_projections(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        e: VarId,
    ) -> [VarId; 5] {
        let [q, k, v] = self.cau.precompute_projections(g, ps, e);
        [q, k, v, self.l_s.forward(g, ps, e), self.l_d.forward(g, ps, e)]
    }

    /// Batched publish-time precompute over a **block** of `bt` stacked
    /// embeddings `e: [bt, t, C]`: all five layer-0 projections — CAU
    /// Q/K/V `[bt, t, C]` and the gate source/destination `[bt, t, 1]` —
    /// in one kernel that walks each embedding once
    /// ([`kernels::conv1d_projection_bank_into`]), written straight into
    /// `out` with no tape node. Each lane is bit-identical to
    /// [`Self::precompute_node_projections`] on that member; the caller
    /// bulk-inserts them with [`EmbedCache::insert_block`].
    pub fn precompute_block_projections(
        &self,
        ps: &ParamStore,
        e: &[f32],
        bt: usize,
        t: usize,
        out: ProjectionLanes<'_>,
    ) {
        let kernel = |conv: &Conv1d| {
            assert_eq!(conv.pad, PadMode::Causal, "ITA projection convs are causal");
            let b = conv.b.expect("ITA projection convs carry a bias");
            (ps.get(conv.w).data(), ps.get(b).data())
        };
        let [lq, lk, lv] = self.cau.projection_convs();
        assert_eq!(lq.kernel(), lk.kernel(), "Q and K share one kernel width");
        let bank = ProjectionBank {
            kw: lq.kernel(),
            q: kernel(lq),
            k: kernel(lk),
            v: kernel(lv),
            gate_src: kernel(&self.l_s),
            gate_dst: kernel(&self.l_d),
        };
        kernels::conv1d_projection_bank_into(e, &bank, bt, t, lq.c_in(), lq.c_out(), out);
    }

    /// Attention weights `α_{u,·}` over the neighbours of local node `u`,
    /// plus the intra/self and per-neighbour inter attention matrices —
    /// the introspection used by the Fig 4 case study.
    pub fn attention_detail(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h: &[VarId],
        ego: &EgoSubgraph,
        u: usize,
    ) -> AttentionDetail {
        let (_, intra) = self.cau.forward_with_attention(g, ps, h[u], h[u]);
        let neighbors = ego.neighbors(u);
        let mut logits = Vec::with_capacity(neighbors.len());
        let mut inter = Vec::with_capacity(neighbors.len());
        for nb in neighbors {
            let v = nb.local as usize;
            logits.push(self.edge_logit(g, ps, h[u], h[v], nb.ty));
            let (_, attn) = self.cau.forward_with_attention(g, ps, h[u], h[v]);
            inter.push((nb.local, attn));
        }
        let alphas = if logits.is_empty() {
            None
        } else {
            let stacked = g.stack_scalars(&logits);
            Some(g.softmax_vec(stacked))
        };
        AttentionDetail { intra, inter, alphas }
    }
}

/// Introspection bundle from [`ItaGcnLayer::attention_detail`]; all fields
/// are tape variables that can be read with `Graph::value`.
pub struct AttentionDetail {
    /// `[T, T]` intra (self) attention matrix.
    pub intra: VarId,
    /// Per neighbour `(local id, [T, T] attention matrix)`.
    pub inter: Vec<(u32, VarId)>,
    /// `[n_neighbors]` aggregation weights α (None for isolated nodes).
    pub alphas: Option<VarId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_graph::{extract_ego, Edge, EgoConfig, EsellerGraph};
    use gaia_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg() -> GaiaConfig {
        let mut c = GaiaConfig::new(12, 3, 5, 7);
        c.channels = 16;
        c
    }

    fn toy_ego() -> EgoSubgraph {
        let graph = EsellerGraph::from_edges(
            4,
            &[
                Edge { src: 1, dst: 0, ty: EdgeType::SupplyChain },
                Edge { src: 0, dst: 2, ty: EdgeType::SameOwner },
                Edge { src: 2, dst: 3, ty: EdgeType::SameOwner },
            ],
        );
        let mut rng = StdRng::seed_from_u64(3);
        extract_ego(&graph, 0, &EgoConfig { hops: 2, fanout: 8 }, &mut rng)
    }

    fn node_states(g: &mut Graph, n: usize, rng: &mut StdRng) -> Vec<VarId> {
        (0..n).map(|_| g.constant(Tensor::randn(vec![12, 16], 1.0, rng))).collect()
    }

    #[test]
    fn forward_node_shape_and_finiteness() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamStore::new();
        let layer = ItaGcnLayer::new(&mut ps, &cfg(), 0, &mut rng);
        let ego = toy_ego();
        let mut g = Graph::new();
        let h = node_states(&mut g, ego.len(), &mut rng);
        let out = layer.forward_node(&mut g, &ps, &h, &ego, 0);
        assert_eq!(g.value(out).shape(), &[12, 16]);
        assert!(g.value(out).all_finite());
    }

    #[test]
    fn isolated_node_reduces_to_self_attention() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut ps = ParamStore::new();
        let layer = ItaGcnLayer::new(&mut ps, &cfg(), 0, &mut rng);
        let graph = EsellerGraph::from_edges(2, &[]);
        let ego = extract_ego(&graph, 0, &EgoConfig::default(), &mut StdRng::seed_from_u64(1));
        let mut g = Graph::new();
        let h = node_states(&mut g, 1, &mut rng);
        let out = layer.forward_node(&mut g, &ps, &h, &ego, 0);
        // Must equal the bare CAU self term.
        let reference = layer.cau.forward(&mut g, &ps, h[0], h[0]);
        assert_eq!(g.value(out).data(), g.value(reference).data());
    }

    #[test]
    fn alphas_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ps = ParamStore::new();
        let layer = ItaGcnLayer::new(&mut ps, &cfg(), 0, &mut rng);
        let ego = toy_ego();
        let mut g = Graph::new();
        let h = node_states(&mut g, ego.len(), &mut rng);
        let detail = layer.attention_detail(&mut g, &ps, &h, &ego, 0);
        let alphas = g.value(detail.alphas.expect("node 0 has neighbours"));
        let sum: f32 = alphas.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert_eq!(alphas.len(), ego.neighbors(0).len());
        assert_eq!(detail.inter.len(), ego.neighbors(0).len());
        assert_eq!(g.value(detail.intra).shape(), &[12, 12]);
    }

    #[test]
    fn edge_type_changes_attention() {
        // Manually bias one edge type and verify α shifts toward it.
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamStore::new();
        let layer = ItaGcnLayer::new(&mut ps, &cfg(), 0, &mut rng);
        // Push the SupplyChain bias way up.
        ps.get_mut(layer.edge_bias).data_mut()[EdgeType::SupplyChain.feature_index()] = 5.0;
        let ego = toy_ego();
        let mut g = Graph::new();
        let h = node_states(&mut g, ego.len(), &mut rng);
        let detail = layer.attention_detail(&mut g, &ps, &h, &ego, 0);
        let alphas = g.value(detail.alphas.unwrap());
        // Find which neighbour entry is the supply edge.
        let idx = ego.neighbors(0).iter().position(|nb| nb.ty == EdgeType::SupplyChain).unwrap();
        assert!(alphas.data()[idx] > 0.9, "supply-edge α should dominate, got {:?}", alphas.data());
    }

    #[test]
    fn gradients_reach_attention_params() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ps = ParamStore::new();
        let layer = ItaGcnLayer::new(&mut ps, &cfg(), 0, &mut rng);
        let ego = toy_ego();
        let mut g = Graph::new();
        let h = node_states(&mut g, ego.len(), &mut rng);
        let out = layer.forward_node(&mut g, &ps, &h, &ego, 0);
        let sq = g.mul(out, out);
        let loss = g.sum_all(sq);
        g.backward(loss);
        ps.accumulate_grads(&g);
        assert!(ps.grad(layer.mu).max_abs() > 0.0, "µ got no gradient");
        assert!(ps.grad(layer.edge_bias).max_abs() > 0.0, "edge bias got no gradient");
    }
}
