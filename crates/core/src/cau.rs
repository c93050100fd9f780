//! Convolutional Attention Unit (Section IV-C1) — the heart of the ITA
//! mechanism.
//!
//! For an edge `v -> u` (where `u == v` gives the intra/self term) the CAU
//! computes locality-aware attention between the two GMV representations:
//!
//! ```text
//! Q_u = L^Q_{3xC;C} ⋆ H_u
//! K_v = L^K_{3xC;C} ⋆ H_v
//! V_v = L^V_{1xC;C} ⋆ H_v
//! CAU(H_u, H_v) = softmax(Q_u K_v^T / sqrt(C) + M) V_v
//! ```
//!
//! The width-3 convolutions make the attention aware of the *shape* of
//! adjacent points (LogTrans-style locality), and the mask `M` zeroes all
//! rightward attention to block future leakage. The "w/o ITA" ablation
//! replaces this with traditional self-attention: pointwise (width-1)
//! projections and no mask.

use crate::api::{EmbedCache, ProjSlot};
use gaia_nn::{causal_mask, Conv1d, ParamStore};
use gaia_tensor::{Activation, Graph, PadMode, Tensor, VarId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The CAU: conv-projected masked attention over paired `[T, C]` series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ConvolutionalAttentionUnit {
    lq: Conv1d,
    lk: Conv1d,
    lv: Conv1d,
    /// Shared `{-1e9, 0}` mask from the per-length cache (None for the
    /// traditional-attention ablation). Cloning the CAU bumps the `Arc`.
    mask: Option<Arc<Tensor>>,
    channels: usize,
}

impl ConvolutionalAttentionUnit {
    /// The paper's CAU: width-3 causal conv Q/K, width-1 V, causal mask.
    pub fn new<R: Rng>(ps: &mut ParamStore, name: &str, t: usize, c: usize, rng: &mut R) -> Self {
        Self {
            lq: Conv1d::new(ps, &format!("{name}.lq"), 3, c, c, PadMode::Causal, true, rng),
            lk: Conv1d::new(ps, &format!("{name}.lk"), 3, c, c, PadMode::Causal, true, rng),
            lv: Conv1d::new(ps, &format!("{name}.lv"), 1, c, c, PadMode::Causal, true, rng),
            mask: Some(causal_mask(t)),
            channels: c,
        }
    }

    /// Traditional self-attention for the "w/o ITA" ablation: pointwise
    /// projections, no locality, no mask.
    pub fn plain<R: Rng>(ps: &mut ParamStore, name: &str, c: usize, rng: &mut R) -> Self {
        Self {
            lq: Conv1d::new(ps, &format!("{name}.lq"), 1, c, c, PadMode::Causal, true, rng),
            lk: Conv1d::new(ps, &format!("{name}.lk"), 1, c, c, PadMode::Causal, true, rng),
            lv: Conv1d::new(ps, &format!("{name}.lv"), 1, c, c, PadMode::Causal, true, rng),
            mask: None,
            channels: c,
        }
    }

    /// `CAU(H_u, H_v)`: influence of `v`'s temporal representation on `u`,
    /// aligned per timestamp. Returns `[T, C]`.
    pub fn forward(&self, g: &mut Graph, ps: &ParamStore, h_u: VarId, h_v: VarId) -> VarId {
        self.forward_with_attention(g, ps, h_u, h_v).0
    }

    /// Same as [`Self::forward`] but also returning the `[T, T]` attention
    /// matrix node (for the Fig 4 case study).
    pub fn forward_with_attention(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        h_u: VarId,
        h_v: VarId,
    ) -> (VarId, VarId) {
        let q = self.lq.forward(g, ps, h_u);
        let k = self.lk.forward(g, ps, h_v);
        let v = self.lv.forward(g, ps, h_v);
        // Fused Q Kᵀ / √C + M — one kernel dispatch into a pooled buffer,
        // no separate transpose/scale/mask tape nodes.
        let scale = 1.0 / (self.channels as f32).sqrt();
        let logits = g.attention_scores(q, k, scale, self.mask.as_deref());
        let attn = g.softmax_rows(logits, None);
        let out = g.matmul(attn, v);
        (out, attn)
    }

    /// True when the causal mask is active (the paper's CAU).
    pub fn is_masked(&self) -> bool {
        self.mask.is_some()
    }

    /// Batched `CAU(H_u, H_v)` over one shared query partner `u` and a set
    /// of `partners` (a node's neighbour messages, then its self term),
    /// returning one message per partner — the request path's only CAU.
    ///
    /// Bit-identical to calling [`Self::forward`] per pair — same kernels,
    /// same per-element summation order — but structurally cheaper:
    ///
    /// * the query projection `Q_u = L^Q ⋆ H_u` is computed **once** and
    ///   shared across every pair (per-pair calls recompute it);
    /// * a projection of a centre-independent state (see [`Partner`]) is
    ///   read from `cache` — the publish-time layer-0 lanes or the
    ///   layer-state memo — and the remaining `K`/`V` projections run as
    ///   one batched conv node each (weights bound once);
    /// * the masked variant dispatches to the fused causal
    ///   scores + softmax kernel, which never materialises the upper
    ///   triangle (`exp` of masked entries underflows to exactly `0.0`, so
    ///   skipping them is bit-exact — see
    ///   `gaia_tensor::kernels::attention_probs_causal_into`).
    pub(crate) fn forward_batched(
        &self,
        g: &mut Graph,
        ps: &ParamStore,
        u: Partner,
        partners: &[Partner],
        layer: usize,
        cache: &mut EmbedCache,
    ) -> Vec<VarId> {
        assert!(!partners.is_empty(), "forward_batched: no partners");
        let q = proj_cached(g, ps, &self.lq, ProjSlot::Q, u, layer, cache);
        let k = proj_stacked(g, ps, &self.lk, ProjSlot::K, partners, layer, cache);
        let v = proj_stacked(g, ps, &self.lv, ProjSlot::V, partners, layer, cache);
        self.attend_batched(g, q, k, v, partners.len())
    }

    /// Shared attention tail of the batched CAU paths: probabilities from
    /// the stacked K (fused causal kernel when masked, unmasked scores +
    /// row softmax for the ablation), one strided `probs @ V`, and the
    /// per-partner message slices.
    fn attend_batched(&self, g: &mut Graph, q: VarId, k: VarId, v: VarId, bt: usize) -> Vec<VarId> {
        let scale = 1.0 / (self.channels as f32).sqrt();
        match self.mask.as_deref() {
            // Paper CAU: fused causal scores + softmax (lower triangle
            // only), then the triangular `probs @ V` kernel.
            Some(_) => {
                let probs = g.attention_probs_causal_batched(q, k, scale);
                let msgs = g.matmul_strided_tri(probs, v);
                (0..bt).map(|i| g.slice_batch(msgs, i)).collect()
            }
            // "w/o ITA" ablation: unmasked scores, then the plain row-wise
            // softmax over the flattened batch (softmax is row-independent,
            // so reshaping through [bt·T, T] is bit-exact).
            None => {
                let t = g.value(q).shape()[0];
                let scores = g.attention_scores_batched(q, k, scale, None);
                let flat = g.reshape(scores, vec![bt * t, t]);
                let soft = g.softmax_rows(flat, None);
                let probs = g.reshape(soft, vec![bt, t, t]);
                let msgs = g.matmul_strided(probs, v);
                (0..bt).map(|i| g.slice_batch(msgs, i)).collect()
            }
        }
    }

    /// This CAU's Q/K/V projections of `e` (a node's embedding on tape
    /// `g`), in that order — the per-node reference for the publish-time
    /// half of the cached batched dispatch.
    pub fn precompute_projections(&self, g: &mut Graph, ps: &ParamStore, e: VarId) -> [VarId; 3] {
        self.projection_convs().map(|conv| conv.forward(g, ps, e))
    }

    /// The Q, K and V projection convs, in that order — the CAU's part of
    /// the publish-time projection bank
    /// ([`crate::ita::ItaGcnLayer::precompute_block_projections`]).
    pub(crate) fn projection_convs(&self) -> [&Conv1d; 3] {
        [&self.lq, &self.lk, &self.lv]
    }
}

/// One operand of a batched ITA unit: a local node's input state on the
/// tape, its original node id, and whether that state is
/// **centre-independent** — an embedding, or a memoised layer state (see
/// `EmbedCache::layer_state_constant`). Only such states' projections may
/// be read from or written to the cache: they are the same bits whichever
/// request computes them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Partner {
    pub state: VarId,
    pub node: usize,
    pub stable: bool,
}

/// One projection of `p`'s layer-`layer` state: served from the cache when
/// `p` is centre-independent and present, else computed on the tape (and
/// inserted when centre-independent). With [`proj_stacked`], the single
/// cache-or-compute point for every projection slot (CAU Q/K/V and the ITA
/// gate projections), so hit semantics can never diverge between paths.
pub(crate) fn proj_cached(
    g: &mut Graph,
    ps: &ParamStore,
    conv: &Conv1d,
    slot: ProjSlot,
    p: Partner,
    layer: usize,
    cache: &mut EmbedCache,
) -> VarId {
    if let Some(hit) = p.stable.then(|| cache.proj_constant_at(g, layer, p.node, slot)).flatten() {
        return hit;
    }
    let var = conv.forward(g, ps, p.state);
    if p.stable {
        cache.insert_proj_at(layer, p.node, slot, g.value(var).clone());
    }
    var
}

/// Stacked `[B, T, cols]` projection of every partner's state: hits are
/// pooled copies of cached values, and all misses run through **one**
/// batched conv (member-exact with `conv.forward`), so a partner set with
/// no cacheable state costs what one stacked conv costs. Centre-independent
/// misses are inserted.
pub(crate) fn proj_stacked(
    g: &mut Graph,
    ps: &ParamStore,
    conv: &Conv1d,
    slot: ProjSlot,
    partners: &[Partner],
    layer: usize,
    cache: &mut EmbedCache,
) -> VarId {
    // Hits enter as pooled constants; a miss keeps its input state as a
    // placeholder until the batched conv has produced its projection.
    let mut members: Vec<VarId> = Vec::with_capacity(partners.len());
    let mut misses: Vec<usize> = Vec::new();
    for (i, p) in partners.iter().enumerate() {
        match p.stable.then(|| cache.proj_constant_at(g, layer, p.node, slot)).flatten() {
            Some(hit) => members.push(hit),
            None => {
                misses.push(i);
                members.push(p.state);
            }
        }
    }
    if misses.is_empty() {
        return g.stack_rows(&members);
    }
    let states: Vec<VarId> = misses.iter().map(|&i| partners[i].state).collect();
    let stack = g.stack_rows(&states);
    let computed = conv.forward_act_batched(g, ps, stack, Activation::Identity);
    let (rows, cols) = {
        let shape = g.value(computed).shape();
        (shape[1], shape[2])
    };
    for (j, &i) in misses.iter().enumerate() {
        if partners[i].stable {
            let lane = &g.value(computed).data()[j * rows * cols..(j + 1) * rows * cols];
            let value = Tensor::from_vec(vec![rows, cols], lane.to_vec());
            cache.insert_proj_at(layer, partners[i].node, slot, value);
        }
    }
    if misses.len() == partners.len() {
        return computed;
    }
    for (j, &i) in misses.iter().enumerate() {
        members[i] = g.slice_batch(computed, j);
    }
    g.stack_rows(&members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(masked: bool) -> (ParamStore, ConvolutionalAttentionUnit, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let mut ps = ParamStore::new();
        let cau = if masked {
            ConvolutionalAttentionUnit::new(&mut ps, "cau", 10, 16, &mut rng)
        } else {
            ConvolutionalAttentionUnit::plain(&mut ps, "cau", 16, &mut rng)
        };
        (ps, cau, rng)
    }

    #[test]
    fn output_shape() {
        let (ps, cau, mut rng) = setup(true);
        let mut g = Graph::new();
        let hu = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let hv = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let (out, attn) = cau.forward_with_attention(&mut g, &ps, hu, hv);
        assert_eq!(g.value(out).shape(), &[10, 16]);
        assert_eq!(g.value(attn).shape(), &[10, 10]);
    }

    #[test]
    fn attention_rows_are_probabilities() {
        let (ps, cau, mut rng) = setup(true);
        let mut g = Graph::new();
        let hu = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let hv = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let (_, attn) = cau.forward_with_attention(&mut g, &ps, hu, hv);
        let a = g.value(attn);
        for r in 0..10 {
            let sum: f32 = a.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
            assert!(a.row(r).iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn mask_blocks_rightward_attention() {
        let (ps, cau, mut rng) = setup(true);
        let mut g = Graph::new();
        let hu = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let hv = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let (_, attn) = cau.forward_with_attention(&mut g, &ps, hu, hv);
        let a = g.value(attn);
        for r in 0..10 {
            for c in (r + 1)..10 {
                assert!(a.at(r, c) < 1e-6, "future leak at ({r}, {c}): {}", a.at(r, c));
            }
        }
    }

    #[test]
    fn plain_variant_attends_everywhere() {
        let (ps, cau, mut rng) = setup(false);
        assert!(!cau.is_masked());
        let mut g = Graph::new();
        let hu = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let hv = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let (_, attn) = cau.forward_with_attention(&mut g, &ps, hu, hv);
        // With no mask, upper-triangle weights are generally nonzero.
        let a = g.value(attn);
        let upper: f32 =
            (0..10).flat_map(|r| ((r + 1)..10).map(move |c| (r, c))).map(|(r, c)| a.at(r, c)).sum();
        assert!(upper > 0.1, "plain attention should use future positions");
    }

    #[test]
    fn self_attention_detects_shifted_copy() {
        // Give v a series that equals u shifted by 3 steps. After training-free
        // random projections we can at least verify end-to-end gradient flow
        // through the CAU (its trainability).
        let (mut ps, cau, mut rng) = setup(true);
        let mut g = Graph::new();
        let hu = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let hv = g.constant(Tensor::randn(vec![10, 16], 1.0, &mut rng));
        let out = cau.forward(&mut g, &ps, hu, hv);
        let loss = g.sum_all(out);
        g.backward(loss);
        ps.accumulate_grads(&g);
        for p in ps.iter() {
            assert!(p.grad.max_abs() > 0.0, "no grad for {}", p.name);
        }
    }
}
