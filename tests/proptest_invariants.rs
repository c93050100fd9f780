//! Property-based tests over the core data structures and numerical
//! invariants, spanning several crates.

use gaia_core::half::{f16_to_f32, f32_to_f16};
use gaia_core::trainer::{predict_batch_with, predict_one_with, InferenceScratch};
use gaia_core::{CacheTier, Gaia, GaiaConfig, ProjSlot};
use gaia_graph::{dirty_closure, extract_ego, Edge, EdgeType, EgoConfig, EsellerGraph, Neighbor};
use gaia_serving::{ModelArtifact, ModelServer, ServeConfig};
use gaia_synth::{
    build_dataset, generate_dataset, month_of_year, MonthlySales, NewShop, Role, Scaler, World,
    WorldConfig, D_TEMPORAL,
};
use gaia_tensor::kernels::{
    attention_probs_causal_into, attention_scores_into, conv1d_fused_batched_into,
    conv1d_fused_into, conv1d_gate_batched_into, conv1d_projection_bank_into, matmul_batched_into,
    matmul_into, matmul_naive_into, matmul_nt_into, matmul_strided_into, matmul_tn_into,
    matmul_tri_lower_into, ProjectionBank, ProjectionLanes, MATMUL_BLOCK,
};
use gaia_tensor::{conv1d, softmax_in_place, Activation, Graph, PadMode, Tensor};
use gaia_timeseries::{acf, auto_arima};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Relative budget of the `simd` build's kernels in the serving and
/// publish parity walls; exact on the scalar build.
const SIMD_BUDGET: f32 = if cfg!(feature = "simd") { 1e-4 } else { 0.0 };

/// Reference for the batched conv kernels: one [`conv1d_fused_into`] call
/// per member of `x: [bt, t_len, c_in]`.
#[allow(clippy::too_many_arguments)]
fn conv_per_member(
    x: &[f32],
    w: &[f32],
    bias: Option<&[f32]>,
    (bt, t_len, c_in, c_out): (usize, usize, usize, usize),
    kw: usize,
    pad: PadMode,
    act: Activation,
) -> Vec<f32> {
    let mut out = vec![0.0f32; bt * t_len * c_out];
    for (xm, om) in x.chunks_exact(t_len * c_in).zip(out.chunks_exact_mut(t_len * c_out)) {
        conv1d_fused_into(xm, w, bias, t_len, c_in, c_out, kw, pad, act, om);
    }
    out
}

/// The bit patterns of `xs`, so a comparison tells `-0.0` from `+0.0`.
fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Apply one scripted world mutation. A `(kind, arg)` pair fully determines
/// the op, so replaying the same script on two copies of a world leaves
/// them identical — the premise of the delta-vs-full parity property.
fn apply_churn_op(world: &mut World, horizon: usize, kind: usize, arg: u64) {
    let n = world.shops.len();
    match kind {
        0 => {
            // History rewrite deep enough to cross from the target horizon
            // into the feature input window (a shallower write would only
            // move labels, not served predictions).
            let shop = (arg as usize % n) as u32;
            let months = horizon + 1 + arg as usize % 4;
            let base = 500.0 + (arg % 9_000) as f64;
            let window: Vec<MonthlySales> = (0..months)
                .map(|m| MonthlySales {
                    gmv: base + 37.0 * m as f64,
                    orders: 10.0 + (arg % 50) as f64,
                    customers: 5.0 + (arg % 20) as f64,
                })
                .collect();
            world.record_sales(shop, &window);
        }
        1 => {
            // Supply rewire between an arbitrary supplier/retailer pair.
            let pick = |role: Role, salt: u64| {
                let ids: Vec<u32> =
                    (0..n as u32).filter(|&v| world.shops[v as usize].role == role).collect();
                (!ids.is_empty()).then(|| ids[salt as usize % ids.len()])
            };
            if let (Some(s), Some(r)) = (pick(Role::Supplier, arg), pick(Role::Retailer, arg / 7)) {
                world.add_supply_edge(s, r);
            }
        }
        // Sever an existing supply link, if the world still has one.
        2 if !world.true_supply_links.is_empty() => {
            let idx = arg as usize % world.true_supply_links.len();
            let (s, r) =
                (world.true_supply_links[idx].supplier, world.true_supply_links[idx].retailer);
            world.remove_supply_edge(s, r);
        }
        3 => {
            // A brand-new shop with no history (the new-coming e-seller of
            // the paper): it must be servable straight after the republish.
            let donor = arg as usize % n;
            world.add_shop(NewShop {
                industry: world.shops[donor].industry,
                region: world.shops[donor].region,
                role: if arg.is_multiple_of(2) { Role::Retailer } else { Role::Supplier },
                owner: world.shops[donor].owner,
                lead: arg as usize % 3,
            });
        }
        4 => {
            // Industry churn: move a shop into another shop's bucket.
            let shop = (arg as usize % n) as u32;
            let target = world.shops[(arg / 11) as usize % n].industry;
            world.set_industry(shop, target);
        }
        // Explicit no-op: scripts of pure no-ops exercise the
        // empty-dirty-set republish, which must still be a valid publish.
        _ => {}
    }
}

/// Pick an activation from a sampled index (proptest-friendly enum choice).
/// Edge type by index (`i % 3`).
fn edge_type(i: usize) -> EdgeType {
    [EdgeType::SupplyChain, EdgeType::SameOwner, EdgeType::SameShareholder][i % 3]
}

/// The hash-dedup CSR build that `EsellerGraph::from_edges` replaced by a
/// counting build, kept as its reference: first-occurrence dedup of the
/// directed `(src, dst, ty)` through a hash set into per-node lists, each
/// stably sorted by neighbour. Returns the offsets, the entries and the
/// number of kept edges.
fn csr_hash_reference(n: usize, edges: &[Edge]) -> (Vec<usize>, Vec<Neighbor>, usize) {
    let mut adj: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    let mut seen: std::collections::HashSet<(u32, u32, EdgeType)> =
        std::collections::HashSet::with_capacity(edges.len());
    let mut kept = 0usize;
    for e in edges {
        if e.src == e.dst || !seen.insert((e.src, e.dst, e.ty)) {
            continue;
        }
        adj[e.src as usize].push(Neighbor { node: e.dst, ty: e.ty, outgoing: true });
        adj[e.dst as usize].push(Neighbor { node: e.src, ty: e.ty, outgoing: false });
        kept += 1;
    }
    let mut offsets = vec![0];
    let mut entries = Vec::new();
    for list in &mut adj {
        list.sort_by_key(|nb| nb.node);
        entries.extend_from_slice(list);
        offsets.push(entries.len());
    }
    (offsets, entries, kept)
}

/// Plain breadth-first reference for `dirty_closure`: hop distances from
/// every in-range dirty node, then every node within `radius`, ascending.
fn closure_bfs_reference(graph: &EsellerGraph, dirty: &[u32], radius: usize) -> Vec<u32> {
    let n = graph.num_nodes();
    let mut dist = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    for &d in dirty.iter().filter(|&&d| (d as usize) < n) {
        if dist[d as usize] == usize::MAX {
            dist[d as usize] = 0;
            queue.push_back(d as usize);
        }
    }
    while let Some(u) = queue.pop_front() {
        if dist[u] == radius {
            continue;
        }
        for nb in graph.neighbors(u) {
            if dist[nb.node as usize] == usize::MAX {
                dist[nb.node as usize] = dist[u] + 1;
                queue.push_back(nb.node as usize);
            }
        }
    }
    (0..n as u32).filter(|&v| dist[v as usize] <= radius).collect()
}

fn activation_from_index(i: usize) -> Activation {
    match i % 4 {
        0 => Activation::Identity,
        1 => Activation::Relu,
        2 => Activation::Sigmoid,
        _ => Activation::Tanh,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// log1p scaling round-trips currency values across 8 orders of
    /// magnitude.
    #[test]
    fn scaler_roundtrip(values in prop::collection::vec(1.0f64..1e8, 4..40), probe in 1.0f64..1e8) {
        let scaler = Scaler::fit(values.into_iter());
        let z = scaler.normalize(probe);
        let back = scaler.denormalize(z);
        prop_assert!((back - probe).abs() / probe < 1e-2, "{probe} -> {z} -> {back}");
        // Positive space: non-negative input z always decodes to >= 0.
        let zp = scaler.normalize_pos(probe);
        prop_assert!(scaler.denormalize_pos(zp) >= 0.0);
    }

    /// Monotonicity: both normalisers preserve order.
    #[test]
    fn scaler_monotone(values in prop::collection::vec(1.0f64..1e7, 4..20), a in 1.0f64..1e6, b in 1.0f64..1e6) {
        let scaler = Scaler::fit(values.into_iter());
        if a < b {
            prop_assert!(scaler.normalize(a) <= scaler.normalize(b));
            prop_assert!(scaler.normalize_pos(a) <= scaler.normalize_pos(b));
        }
    }

    /// Softmax rows are probability distributions for arbitrary logits.
    #[test]
    fn softmax_rows_are_distributions(rows in 1usize..6, cols in 1usize..6, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::randn(vec![rows, cols], 3.0, &mut rng);
        let s = t.softmax_rows();
        for r in 0..rows {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    /// conv1d preserves the time length for both padding modes and any
    /// kernel width up to the window.
    #[test]
    fn conv1d_shape_invariant(t_len in 2usize..20, c_in in 1usize..4, c_out in 1usize..4, k in 1usize..6, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![t_len, c_in], 1.0, &mut rng);
        let w = Tensor::randn(vec![k, c_in, c_out], 1.0, &mut rng);
        for pad in [PadMode::Same, PadMode::Causal] {
            let y = conv1d(&x, &w, None, pad);
            prop_assert_eq!(y.shape(), &[t_len, c_out]);
            prop_assert!(y.all_finite());
        }
    }

    /// Causal conv output at position 0 never depends on later inputs.
    #[test]
    fn causal_conv_no_future_leak(t_len in 3usize..16, k in 1usize..5, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![t_len, 2], 1.0, &mut rng);
        let w = Tensor::randn(vec![k, 2, 2], 1.0, &mut rng);
        let y0 = conv1d(&x, &w, None, PadMode::Causal);
        let mut x2 = x.clone();
        for t in 1..t_len {
            for c in 0..2 {
                *x2.at_mut(t, c) += 10.0;
            }
        }
        let y1 = conv1d(&x2, &w, None, PadMode::Causal);
        for c in 0..2 {
            prop_assert!((y0.at(0, c) - y1.at(0, c)).abs() < 1e-5);
        }
    }

    /// KERNEL PARITY — the blocked/unrolled matmul matches the naive
    /// reference elementwise across random shapes, including dimensions
    /// that are not multiples of the block size (the strided tail paths).
    #[test]
    fn blocked_matmul_matches_naive_reference(
        m in 1usize..40,
        k in 1usize..80,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Stretch some shapes across the block boundary so both the
        // full-block and remainder paths are exercised.
        let k = if seed % 3 == 0 { k + MATMUL_BLOCK } else { k };
        let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let mut naive = vec![0.0f32; m * n];
        matmul_naive_into(a.data(), b.data(), m, k, n, &mut naive);
        let mut blocked = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), m, k, n, &mut blocked);
        for (i, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            prop_assert!(
                (x - y).abs() < 1e-3 + 1e-4 * y.abs(),
                "matmul {m}x{k}x{n} elem {i}: blocked {x} vs naive {y}"
            );
        }
    }

    /// KERNEL PARITY — the transposed-operand matmuls (backward-pass
    /// kernels) match naive-matmul-with-explicit-transpose.
    #[test]
    fn transposed_matmul_kernels_match_reference(
        m in 1usize..20,
        k in 1usize..40,
        n in 1usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // NT: a[m,k] @ b[n,k]ᵀ.
        let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let b = Tensor::randn(vec![n, k], 1.0, &mut rng);
        let bt = b.transpose();
        let mut want = vec![0.0f32; m * n];
        matmul_naive_into(a.data(), bt.data(), m, k, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_nt_into(a.data(), b.data(), m, k, n, &mut got);
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-3 + 1e-4 * y.abs(), "nt: {x} vs {y}");
        }
        // TN: a[k,m]ᵀ @ b[k,n].
        let a2 = Tensor::randn(vec![k, m], 1.0, &mut rng);
        let b2 = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let a2t = a2.transpose();
        let mut want = vec![0.0f32; m * n];
        matmul_naive_into(a2t.data(), b2.data(), m, k, n, &mut want);
        let mut got = vec![0.0f32; m * n];
        matmul_tn_into(a2.data(), b2.data(), k, m, n, &mut got);
        for (x, y) in got.iter().zip(&want) {
            prop_assert!((x - y).abs() < 1e-3 + 1e-4 * y.abs(), "tn: {x} vs {y}");
        }
    }

    /// KERNEL PARITY — the fused conv1d+bias+activation matches the naive
    /// reference conv followed by a separate bias/activation sweep, for
    /// both paddings, random kernel widths (including wider-than-window)
    /// and every activation.
    #[test]
    fn fused_conv1d_matches_naive_reference(
        t_len in 1usize..20,
        c_in in 1usize..5,
        c_out in 1usize..5,
        kw in 1usize..7,
        act_idx in 0usize..4,
        with_bias in 0usize..2,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let act = activation_from_index(act_idx);
        let x = Tensor::randn(vec![t_len, c_in], 1.0, &mut rng);
        let w = Tensor::randn(vec![kw, c_in, c_out], 0.5, &mut rng);
        let b = Tensor::randn(vec![c_out], 0.5, &mut rng);
        let bias = (with_bias == 1).then_some(&b);
        for pad in [PadMode::Same, PadMode::Causal] {
            let want = conv1d(&x, &w, bias, pad).map(|v| act.apply(v));
            let mut got = vec![0.0f32; t_len * c_out];
            conv1d_fused_into(
                x.data(), w.data(), bias.map(|t| t.data()),
                t_len, c_in, c_out, kw, pad, act, &mut got,
            );
            for (i, (g, e)) in got.iter().zip(want.data()).enumerate() {
                prop_assert!(
                    (g - e).abs() < 1e-3 + 1e-4 * e.abs(),
                    "conv {pad:?} {act:?} elem {i}: fused {g} vs naive {e}"
                );
            }
        }
    }

    /// KERNEL PARITY — fused attention scores equal the unfused
    /// transpose → naive matmul → scale → mask pipeline.
    #[test]
    fn fused_attention_scores_match_reference(
        t_q in 1usize..12,
        t_k in 1usize..12,
        c in 1usize..16,
        masked in 0usize..2,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::randn(vec![t_q, c], 1.0, &mut rng);
        let k = Tensor::randn(vec![t_k, c], 1.0, &mut rng);
        let mask = Tensor::randn(vec![t_q, t_k], 2.0, &mut rng);
        let scale = 1.0 / (c as f32).sqrt();
        let kt = k.transpose();
        let mut want = vec![0.0f32; t_q * t_k];
        matmul_naive_into(q.data(), kt.data(), t_q, c, t_k, &mut want);
        let mask_slice = (masked == 1).then_some(mask.data());
        for (i, w) in want.iter_mut().enumerate() {
            *w *= scale;
            if let Some(m) = mask_slice {
                *w += m[i];
            }
        }
        let mut scratch = vec![0.0f32; t_k * c];
        let mut got = vec![0.0f32; t_q * t_k];
        attention_scores_into(
            q.data(), k.data(), t_q, t_k, c, scale, mask_slice, &mut scratch, &mut got,
        );
        for (g, e) in got.iter().zip(&want) {
            prop_assert!((g - e).abs() < 1e-3 + 1e-4 * e.abs(), "scores: {g} vs {e}");
        }
    }

    /// KERNEL PARITY — the batched matmul entry points are **bit-identical**
    /// to per-member blocked matmuls: `matmul_batched_into` (one GEMM over
    /// stacked left operands, shared RHS) and `matmul_strided_into`
    /// (independent operand pairs). Exact equality, not tolerance: batching
    /// must never change the summation order.
    #[test]
    fn batched_matmul_kernels_bit_identical_to_looped(
        bt in 1usize..6,
        m in 1usize..12,
        k in 1usize..40,
        n in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = if seed % 3 == 0 { k + MATMUL_BLOCK } else { k };
        let a = Tensor::randn(vec![bt, m, k], 1.0, &mut rng);
        let shared = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let mut batched = vec![0.0f32; bt * m * n];
        matmul_batched_into(a.data(), shared.data(), bt, m, k, n, &mut batched);
        let mut looped = vec![0.0f32; bt * m * n];
        for i in 0..bt {
            matmul_into(
                &a.data()[i * m * k..(i + 1) * m * k],
                shared.data(),
                m, k, n,
                &mut looped[i * m * n..(i + 1) * m * n],
            );
        }
        prop_assert_eq!(&batched, &looped, "matmul_batched diverged at {}x{}x{}x{}", bt, m, k, n);

        let b = Tensor::randn(vec![bt, k, n], 1.0, &mut rng);
        let mut strided = vec![0.0f32; bt * m * n];
        matmul_strided_into(a.data(), b.data(), bt, m, k, n, &mut strided);
        let mut looped = vec![0.0f32; bt * m * n];
        for i in 0..bt {
            matmul_into(
                &a.data()[i * m * k..(i + 1) * m * k],
                &b.data()[i * k * n..(i + 1) * k * n],
                m, k, n,
                &mut looped[i * m * n..(i + 1) * m * n],
            );
        }
        prop_assert_eq!(&strided, &looped, "matmul_strided diverged at {}x{}x{}x{}", bt, m, k, n);
    }

    /// KERNEL PARITY SWEEP — the register-accumulator conv kernels of the
    /// publish block are **bit-identical** to per-member
    /// `conv1d_fused_into` calls, compared as bit patterns: the batched
    /// conv under each activation, with and without bias; the TEL gate
    /// pair against its `ReLU` and `Sigmoid` convs multiplied; and the
    /// layer-0 projection bank against its five separate causal convs.
    /// Shapes include `t_len < kw`, odd widths and widths past one column
    /// chunk. `zero_rows` blanks input rows (the all-zero rows a gated
    /// ReLU produces), which the per-member kernel skips and these kernels
    /// fold in; that is the `-0.0` canonicalisation path.
    #[test]
    fn publish_conv_kernels_bit_identical_to_per_member(
        bt in 1usize..=5,
        t_len in 1usize..=30,
        c_in in 1usize..=40,
        c_out in 1usize..=48,
        kw in 1usize..=16,
        causal in 0usize..2,
        act_pick in 0usize..4,
        zero_rows in 0u32..u32::MAX,
        seed in 0u64..1000,
    ) {
        let pad = if causal == 1 { PadMode::Causal } else { PadMode::Same };
        let act =
            [Activation::Identity, Activation::Relu, Activation::Sigmoid, Activation::Tanh][act_pick];
        let dims = (bt, t_len, c_in, c_out);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Tensor::randn(vec![bt, t_len, c_in], 1.0, &mut rng).into_data();
        for (r, row) in x.chunks_mut(c_in).enumerate() {
            if (zero_rows >> (r % 32)) & 1 == 1 {
                row.fill(0.0);
            }
        }
        let mut randn = |shape: Vec<usize>| Tensor::randn(shape, 0.5, &mut rng).into_data();

        let (w, b) = (randn(vec![kw, c_in, c_out]), randn(vec![c_out]));
        let bias = (seed % 2 == 0).then_some(&b[..]);
        let mut got = vec![0.0f32; bt * t_len * c_out];
        conv1d_fused_batched_into(&x, &w, bias, bt, t_len, c_in, c_out, kw, pad, act, &mut got);
        let want = conv_per_member(&x, &w, bias, dims, kw, pad, act);
        prop_assert_eq!(bits(&got), bits(&want), "batched conv {:?} {:?}", pad, act);

        let (w_d, b_d) = (randn(vec![kw, c_in, c_out]), randn(vec![c_out]));
        let mut den = vec![0.0f32; t_len * c_out];
        conv1d_gate_batched_into(
            &x, &w, &b, &w_d, &b_d, bt, t_len, c_in, c_out, kw, pad, &mut den, &mut got,
        );
        let cap = conv_per_member(&x, &w, Some(&b), dims, kw, pad, Activation::Relu);
        let gate = conv_per_member(&x, &w_d, Some(&b_d), dims, kw, pad, Activation::Sigmoid);
        let want: Vec<f32> = cap.iter().zip(&gate).map(|(c, g)| c * g).collect();
        prop_assert_eq!(bits(&got), bits(&want), "gate kernel {:?}", pad);

        // Q and K take the drawn width; V and both gate projections are
        // width 1; the gates have one output column.
        let kernels: Vec<(Vec<f32>, Vec<f32>, usize, usize)> =
            [(kw, c_out), (kw, c_out), (1, c_out), (1, 1), (1, 1)]
                .into_iter()
                .map(|(k, co)| (randn(vec![k, c_in, co]), randn(vec![co]), k, co))
                .collect();
        let kernel = |i: usize| (&kernels[i].0[..], &kernels[i].1[..]);
        let bank = ProjectionBank {
            kw,
            q: kernel(0),
            k: kernel(1),
            v: kernel(2),
            gate_src: kernel(3),
            gate_dst: kernel(4),
        };
        let mut lanes: Vec<Vec<f32>> =
            kernels.iter().map(|kn| vec![f32::NAN; bt * t_len * kn.3]).collect();
        {
            let [q, k, v, gate_src, gate_dst] = &mut lanes[..] else { unreachable!() };
            let out = ProjectionLanes { q, k, v, gate_src, gate_dst };
            conv1d_projection_bank_into(&x, &bank, bt, t_len, c_in, c_out, out);
        }
        for (slot, ((w, b, k, co), got)) in kernels.iter().zip(&lanes).enumerate() {
            let want = conv_per_member(
                &x, w, Some(b), (bt, t_len, c_in, *co), *k, PadMode::Causal, Activation::Identity,
            );
            prop_assert_eq!(bits(got), bits(&want), "projection bank lane {}", slot);
        }
    }

    /// KERNEL PARITY — the fused causal attention-probability kernel is
    /// **bit-identical** to masked scores followed by a full row softmax,
    /// and the triangular matmul is bit-identical to the blocked kernel on
    /// the resulting probabilities.
    #[test]
    fn causal_probs_and_tri_matmul_bit_identical_to_unfused(
        t in 1usize..16,
        c in 1usize..16,
        n in 1usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::randn(vec![t, c], 1.0, &mut rng);
        let k = Tensor::randn(vec![t, c], 1.0, &mut rng);
        let mut mask = vec![0.0f32; t * t];
        for i in 0..t {
            for j in (i + 1)..t {
                mask[i * t + j] = -1e9;
            }
        }
        let scale = 1.0 / (c as f32).sqrt();
        let mut scratch = vec![0.0f32; t * c];
        let mut want = vec![0.0f32; t * t];
        attention_scores_into(q.data(), k.data(), t, t, c, scale, Some(&mask), &mut scratch, &mut want);
        for row in want.chunks_mut(t) {
            softmax_in_place(row);
        }
        let mut got = vec![0.0f32; t * t];
        attention_probs_causal_into(q.data(), k.data(), t, c, scale, &mut scratch, &mut got);
        prop_assert_eq!(&got, &want, "causal probs diverged at t={} c={}", t, c);

        let v = Tensor::randn(vec![t, n], 1.0, &mut rng);
        let mut full = vec![0.0f32; t * n];
        matmul_into(&got, v.data(), t, t, n, &mut full);
        let mut tri = vec![0.0f32; t * n];
        matmul_tri_lower_into(&got, v.data(), t, n, &mut tri);
        prop_assert_eq!(&tri, &full, "tri matmul diverged at t={} n={}", t, n);
    }

    /// KERNEL PARITY — block-boundary tails and degenerate operands: the
    /// blocked matmul matches the naive reference, and the batched/strided
    /// entry points stay **bit-identical** to looped blocked calls, on
    /// 1×k and k×1 operands and shapes straddling [`MATMUL_BLOCK`] on
    /// every axis. Runs on both feature builds (the scalar fallback and
    /// the simd lane path) via the CI matrix.
    #[test]
    fn matmul_parity_tail_and_degenerate_shapes(
        mi in 0usize..6,
        ki in 0usize..8,
        ni in 0usize..6,
        seed in 0u64..1000,
    ) {
        // Deliberate boundary values: 1 (degenerate row/col vectors),
        // MATMUL_BLOCK ± 1 (block tails), 2·MATMUL_BLOCK ± 1.
        let m = [1, 2, 3, 5, MATMUL_BLOCK - 1, MATMUL_BLOCK + 1][mi];
        let k = [1, 2, 3, MATMUL_BLOCK - 1, MATMUL_BLOCK, MATMUL_BLOCK + 1,
                 2 * MATMUL_BLOCK - 1, 2 * MATMUL_BLOCK + 1][ki];
        let n = [1, 2, 5, MATMUL_BLOCK - 1, MATMUL_BLOCK, MATMUL_BLOCK + 1][ni];
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let b = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let mut naive = vec![0.0f32; m * n];
        matmul_naive_into(a.data(), b.data(), m, k, n, &mut naive);
        let mut blocked = vec![0.0f32; m * n];
        matmul_into(a.data(), b.data(), m, k, n, &mut blocked);
        for (i, (x, y)) in blocked.iter().zip(&naive).enumerate() {
            prop_assert!(
                (x - y).abs() < 1e-3 + 1e-4 * y.abs() * (k as f32).sqrt(),
                "matmul {m}x{k}x{n} elem {i}: blocked {x} vs naive {y}"
            );
        }
        // Batched with the same member shape must reproduce the blocked
        // bits exactly, tails included.
        let bt = 2usize;
        let a2 = Tensor::randn(vec![bt, m, k], 1.0, &mut rng);
        let mut batched = vec![0.0f32; bt * m * n];
        matmul_batched_into(a2.data(), b.data(), bt, m, k, n, &mut batched);
        let mut looped = vec![0.0f32; bt * m * n];
        for i in 0..bt {
            matmul_into(
                &a2.data()[i * m * k..(i + 1) * m * k],
                b.data(),
                m, k, n,
                &mut looped[i * m * n..(i + 1) * m * n],
            );
        }
        prop_assert_eq!(&batched, &looped, "batched tail-shape {}x{}x{} diverged", m, k, n);
    }

    /// DEGENERATE-INPUT PARITY — the fused causal-probability kernel must
    /// stay **bit-identical** to the unfused pipeline even when the scores
    /// contain `NaN`/`±inf` mixed with finite values (an exploded model
    /// must degrade identically on both paths, not panic). Poison values
    /// are injected into `q`/`k` at pseudorandom positions; comparison is
    /// on raw bit patterns because `NaN != NaN`.
    #[test]
    fn causal_probs_bit_identical_on_degenerate_inputs(
        t in 1usize..12,
        c in 1usize..8,
        n_poison in 0usize..5,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Tensor::randn(vec![t, c], 1.0, &mut rng);
        let mut k = Tensor::randn(vec![t, c], 1.0, &mut rng);
        // Inject NaN / +inf / -inf / huge finite values — huge ones land in
        // the "finite but outside the underflow contract" screen branch.
        const POISON: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e30];
        for i in 0..n_poison {
            let h = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64 * 0x85EB_CA6B);
            let pos = (h as usize) % (t * c);
            let val = POISON[(h >> 32) as usize % POISON.len()];
            if i % 2 == 0 {
                q.data_mut()[pos] = val;
            } else {
                k.data_mut()[pos] = val;
            }
        }
        let mut mask = vec![0.0f32; t * t];
        for i in 0..t {
            for j in (i + 1)..t {
                mask[i * t + j] = -1e9;
            }
        }
        let scale = 1.0 / (c as f32).sqrt();
        let mut scratch = vec![0.0f32; t * c];
        let mut want = vec![0.0f32; t * t];
        attention_scores_into(q.data(), k.data(), t, t, c, scale, Some(&mask), &mut scratch, &mut want);
        for row in want.chunks_mut(t) {
            softmax_in_place(row);
        }
        let mut got = vec![0.0f32; t * t];
        attention_probs_causal_into(q.data(), k.data(), t, c, scale, &mut scratch, &mut got);
        let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(&got_bits, &want_bits,
            "degenerate causal probs diverged at t={} c={} poison={}", t, c, n_poison);
    }

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributive(m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let b = Tensor::randn(vec![m, k], 1.0, &mut rng);
        let c = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let lhs = a.add(&b).matmul(&c);
        let rhs = a.matmul(&c).add(&b.matmul(&c));
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Autodiff linearity: grad of sum(a*x) w.r.t. x is a.
    #[test]
    fn autodiff_linear_grad(n in 1usize..8, alpha in -3.0f32..3.0, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(vec![n], 1.0, &mut rng);
        let mut g = Graph::new();
        let xv = g.bind_param(0, x);
        let s = g.scale(xv, alpha);
        let loss = g.sum_all(s);
        g.backward(loss);
        let grad = g.grad(xv).unwrap();
        for &gv in grad.data() {
            prop_assert!((gv - alpha).abs() < 1e-5);
        }
    }

    /// Ego subgraphs: the centre is local 0 at hop 0, hops are within
    /// bounds, adjacency is internally consistent and fanout-bounded growth
    /// holds.
    #[test]
    fn ego_subgraph_invariants(
        n in 2usize..40,
        edge_seeds in prop::collection::vec((0usize..40, 0usize..40), 0..80),
        center in 0usize..40,
        hops in 1usize..3,
        fanout in 1usize..5,
        seed in 0u64..1000,
    ) {
        let edges: Vec<Edge> = edge_seeds
            .iter()
            .map(|&(a, b)| Edge { src: (a % n) as u32, dst: (b % n) as u32, ty: EdgeType::SameOwner })
            .collect();
        let graph = EsellerGraph::from_edges(n, &edges);
        let center = center % n;
        let mut rng = StdRng::seed_from_u64(seed);
        let ego = extract_ego(&graph, center, &EgoConfig { hops, fanout }, &mut rng);
        prop_assert_eq!(ego.center() as usize, center);
        prop_assert_eq!(ego.hops[0], 0);
        for (i, &h) in ego.hops.iter().enumerate() {
            prop_assert!((h as usize) <= hops, "node {i} at hop {h}");
        }
        // Local adjacency symmetric and in-range.
        for (u, nbs) in ego.adj.iter().enumerate() {
            for nb in nbs {
                prop_assert!((nb.local as usize) < ego.len());
                prop_assert!(ego.adj[nb.local as usize].iter().any(|r| r.local as usize == u));
            }
        }
        // No duplicate nodes.
        let mut sorted = ego.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), ego.nodes.len());
    }

    /// CSR PARITY — the counting build of `EsellerGraph::from_edges` equals
    /// the hash-dedup reference: offsets, every entry (`node`, `ty`,
    /// `outgoing`) in order, `num_edges` and the `edges()` order. Each
    /// sampled edge may bring an exact duplicate, its reverse, the same
    /// pair with another type or a self-loop along; tiny `n` (0 and 1
    /// included) makes repeats and isolated nodes common.
    #[test]
    fn csr_counting_build_matches_hash_dedup_reference(
        n in 0usize..10,
        picks in prop::collection::vec((0usize..64, 0usize..64, 0usize..3, 0usize..6), 0..60),
    ) {
        let mut edges = Vec::new();
        for &(a, b, ty, extra) in picks.iter().filter(|_| n > 0) {
            let (a, b, ty) = ((a % n) as u32, (b % n) as u32, edge_type(ty));
            edges.push(Edge { src: a, dst: b, ty });
            match extra {
                0 => edges.push(Edge { src: a, dst: b, ty }),
                1 => edges.push(Edge { src: b, dst: a, ty }),
                2 => edges.push(Edge { src: a, dst: b, ty: edge_type(ty.feature_index() + 1) }),
                3 => edges.push(Edge { src: a, dst: a, ty }),
                _ => {}
            }
        }
        let graph = EsellerGraph::from_edges(n, &edges);
        let (offsets, entries, kept) = csr_hash_reference(n, &edges);
        let mut got_offsets = vec![0];
        let mut got_entries = Vec::new();
        for v in 0..n {
            got_entries.extend_from_slice(graph.neighbors(v));
            got_offsets.push(got_offsets[v] + graph.degree(v));
        }
        prop_assert_eq!(graph.num_nodes(), n);
        prop_assert_eq!(got_offsets, offsets);
        prop_assert_eq!(got_entries.len(), entries.len());
        for (i, (g, r)) in got_entries.iter().zip(&entries).enumerate() {
            prop_assert_eq!((g.node, g.ty, g.outgoing), (r.node, r.ty, r.outgoing), "entry {}", i);
        }
        prop_assert_eq!(graph.num_edges(), kept);
        let reference_edges: Vec<Edge> = (0..n)
            .flat_map(|v| {
                entries[offsets[v]..offsets[v + 1]]
                    .iter()
                    .filter(|nb| nb.outgoing)
                    .map(move |nb| Edge { src: v as u32, dst: nb.node, ty: nb.ty })
            })
            .collect();
        prop_assert_eq!(graph.edges().collect::<Vec<_>>(), reference_edges);
    }

    /// CLOSURE PARITY — `dirty_closure` equals a plain BFS for radius
    /// 0–3 on random graphs, with duplicate and out-of-range dirty ids.
    #[test]
    fn dirty_closure_matches_bfs_reference(
        n in 0usize..30,
        picks in prop::collection::vec((0usize..30, 0usize..30, 0usize..3), 0..60),
        dirty in prop::collection::vec(0u32..40, 0..10),
        radius in 0usize..4,
    ) {
        let edges: Vec<Edge> = picks
            .iter()
            .filter(|_| n > 0)
            .map(|&(a, b, ty)| Edge { src: (a % n) as u32, dst: (b % n) as u32, ty: edge_type(ty) })
            .collect();
        let graph = EsellerGraph::from_edges(n, &edges);
        prop_assert_eq!(
            dirty_closure(&graph, &dirty, radius),
            closure_bfs_reference(&graph, &dirty, radius)
        );
    }

    /// auto_arima never panics and always emits finite forecasts, whatever
    /// the series (including constants and short series).
    #[test]
    fn arima_total_on_arbitrary_series(series in prop::collection::vec(-100.0f64..100.0, 0..40)) {
        let model = auto_arima(&series, 2, 2, 1);
        let f = model.forecast(3);
        prop_assert_eq!(f.len(), 3);
        prop_assert!(f.iter().all(|x| x.is_finite()), "{:?}", f);
    }

    /// ACF is bounded in [-1, 1] and acf[0] == 1 for non-degenerate series.
    #[test]
    fn acf_bounds(series in prop::collection::vec(-50.0f64..50.0, 8..60)) {
        let a = acf(&series, 6);
        if a[0] != 0.0 {
            prop_assert!((a[0] - 1.0).abs() < 1e-9);
            for &v in &a {
                prop_assert!(v.abs() <= 1.0 + 1e-6, "acf out of range: {v}");
            }
        }
    }
}

// Batch-parity properties build a full world + model per case, so they run
// with a smaller case budget than the cheap numeric properties above
// (PROPTEST_CASES still scales them in CI).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// BATCH PARITY — the headline invariant of the batched inference
    /// path: for random worlds, random Gaia depths/fanouts and every batch
    /// size 1..=16, `predict_batch_with` is **element-wise identical**
    /// (exact f32 equality — same kernels, same summation order) to a
    /// `predict_one_with` loop with the same seed. Batch size 1 is a real
    /// check too: it runs the batched forward (batched ITA units, stacked
    /// head, projection cache) against the per-request reference.
    #[test]
    fn predict_batch_matches_per_request_loop(
        world_seed in 0u64..10_000,
        n_shops in 30usize..70,
        batch in 1usize..=16,
        layers in 1usize..=2,
        hops in 1usize..=2,
        fanout in 1usize..=4,
        pred_seed in 0u64..1_000,
    ) {
        let (world, ds) = generate_dataset(WorldConfig {
            n_shops,
            seed: world_seed,
            ..WorldConfig::tiny()
        });
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = layers;
        cfg.ego = EgoConfig { hops, fanout };
        let model = Gaia::new(cfg, world_seed ^ 0x5A5A);
        let centers: Vec<usize> = (0..batch).map(|i| (i * 7 + 3) % ds.n).collect();

        let mut loop_scratch = InferenceScratch::new();
        let expected: Vec<_> = centers
            .iter()
            .map(|&c| predict_one_with(&model, &ds, &world.graph, c, pred_seed, &mut loop_scratch))
            .collect();
        let mut batch_scratch = InferenceScratch::new();
        let got =
            predict_batch_with(&model, &ds, &world.graph, &centers, pred_seed, &mut batch_scratch);
        prop_assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            prop_assert_eq!(a.node, b.node);
            prop_assert_eq!(&a.model_space, &b.model_space,
                "batch size {} diverged from the per-request loop", batch);
            prop_assert_eq!(&a.currency, &b.currency);
        }
        // A second pass on the same (now warm) scratch must still agree —
        // cache hits may never change a prediction.
        let again =
            predict_batch_with(&model, &ds, &world.graph, &centers, pred_seed, &mut batch_scratch);
        for (a, b) in again.iter().zip(&expected) {
            prop_assert_eq!(&a.model_space, &b.model_space, "warm-cache batch diverged");
        }
    }

    /// DELTA PARITY WALL — the headline invariant of incremental republish:
    /// for random worlds and a random script of 1..=32 mutation ops
    /// (history rewrites, supply rewires/severs, new shops, industry moves,
    /// explicit no-ops), `publish_delta` from the world's recorded dirty
    /// set serves the same prediction as a full-teardown `publish_full`
    /// for **every** shop, including shops born mid-script — both through
    /// a single context and through `serve`'s worker pool (random worker
    /// count and micro-batch cap), which must answer in request order with
    /// telemetry that sums to the request count. Scalar build: bit-exact;
    /// SIMD build: within 1e-4 relative.
    #[test]
    fn delta_publish_matches_full_rebuild(
        world_seed in 0u64..10_000,
        n_shops in 30usize..70,
        ops in prop::collection::vec((0usize..6, 0u64..1_000_000), 1..33),
        workers in 1usize..=3,
        micro_batch in 1usize..=8,
    ) {
        let wc = WorldConfig { n_shops, seed: world_seed, ..WorldConfig::tiny() };
        let (mut world_a, ds) = generate_dataset(wc.clone());
        let (mut world_b, _) = generate_dataset(wc);
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        cfg.channels = 8;
        cfg.kernel_groups = 2;
        cfg.layers = 1;
        cfg.ego = EgoConfig { hops: 1, fanout: 3 };
        // Parity is a property of the republish paths, not of training:
        // a deterministically initialised untrained model pins it just as
        // hard and keeps the property affordable per case.
        let artifact = ModelArtifact::untrained(cfg, world_seed ^ 0xD17A);
        let delta_srv = ModelServer::new(&artifact, world_a.graph.clone(), ds.clone(), 42);
        let full_srv = ModelServer::new(&artifact, world_b.graph.clone(), ds.clone(), 42);

        for &(kind, arg) in &ops {
            apply_churn_op(&mut world_a, ds.horizon, kind, arg);
            apply_churn_op(&mut world_b, ds.horizon, kind, arg);
        }
        let dirty = world_a.take_dirty();
        let dirty_b = world_b.take_dirty();
        prop_assert_eq!(&dirty, &dirty_b, "identical scripts must dirty identical nodes");

        let stats = delta_srv.publish_delta(&world_a, &dirty);
        full_srv.publish_full(&world_b);

        let snap_d = delta_srv.snapshot();
        let snap_f = full_srv.snapshot();
        prop_assert_eq!(snap_d.ds.n, snap_f.ds.n);
        prop_assert_eq!(stats.world_nodes, snap_d.ds.n);
        prop_assert!(stats.recomputed_nodes <= stats.world_nodes);
        prop_assert_eq!(snap_d.world_rev, 1);
        prop_assert_eq!(snap_d.version, 1, "a republish is never a retrain");

        // The worker pool serves the whole grown world, shops born
        // mid-script included, from the delta-published snapshot.
        let shops: Vec<usize> = (0..snap_d.ds.n).collect();
        let (served, stats) = delta_srv.serve(&shops, ServeConfig { workers, micro_batch });
        prop_assert_eq!(served.len(), shops.len());
        prop_assert_eq!(stats.requests, shops.len());
        prop_assert_eq!(stats.per_worker.iter().sum::<usize>(), stats.requests,
            "every request lands in exactly one worker row");
        let weighted: usize =
            stats.per_batch_size.iter().enumerate().map(|(i, c)| (i + 1) * c).sum();
        prop_assert_eq!(weighted, stats.requests, "batch-size histogram does not sum");

        let mut ctx_d = delta_srv.inference_context();
        let mut ctx_f = full_srv.inference_context();
        for (shop, s) in served.iter().enumerate() {
            let d = ctx_d.predict(shop);
            let f = ctx_f.predict(shop);
            for (path, got) in [("delta", &d), ("served", s)] {
                prop_assert_eq!(got.node, f.node, "{} answered out of request order", path);
                // Both sides read an f32 cache: bit-exact on the scalar build.
                prop_assert!(
                    CacheTier::F32.within_budget(&got.model_space, &f.model_space, SIMD_BUDGET),
                    "shop {}: {} {:?} vs full {:?}", shop, path, got.model_space, f.model_space
                );
            }
        }
    }

    /// PUBLISH PARITY WALL — the batched publish path is a pure
    /// performance rewrite of the per-node reference: for random worlds
    /// (sized to straddle cache segment boundaries), random
    /// block sizes (including the degenerate `B = 1` and sizes that leave
    /// a ragged tail, `ds.n % B != 0`) and random model widths (`C` from 4
    /// to 48, each with a `K` that divides it), the rank-3 block driver must
    /// reproduce every frozen lane — the embedding plus all five layer-0
    /// projections — for every node, at both cache tiers. Within the
    /// larger of the tier's serving budget and the SIMD build's 1e-4
    /// relative: bit-exact on the scalar build at f32, within 5e-3 relative
    /// at f16 (one half-precision round-trip).
    #[test]
    fn batched_publish_matches_per_node(
        world_seed in 0u64..10_000,
        n_shops in 20usize..90,
        block in 1usize..=48,
        channel_pick in 0usize..6,
        group_pick in 0usize..8,
    ) {
        let wc = WorldConfig { n_shops, seed: world_seed, ..WorldConfig::tiny() };
        let (_world, ds) = generate_dataset(wc);
        let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
        // Model widths are drawn after the world, so a pinned seed replays
        // the same world. `K` divides `C` with a largest TEL kernel
        // `2^K ≤ T`; odd per-group widths (C = 12, K = 2 → 6) take the
        // kernels' column-chunk tails.
        cfg.channels = [4, 8, 12, 16, 32, 48][channel_pick];
        let groups: Vec<usize> = (1..=cfg.channels)
            .filter(|&k| cfg.channels.is_multiple_of(k) && (1usize << k) <= ds.t)
            .collect();
        cfg.kernel_groups = groups[group_pick % groups.len()];
        cfg.layers = 1;
        cfg.ego = EgoConfig { hops: 1, fanout: 3 };
        // Publish parity is a property of the precompute paths, not of
        // training — an untrained deterministic model pins it just as hard.
        let model = Gaia::new(cfg, world_seed ^ 0xB10C);
        let reference = model.precompute_embeddings_per_node(&ds);
        prop_assert_eq!(reference.len(), ds.n);

        const SLOTS: [ProjSlot; 5] =
            [ProjSlot::Q, ProjSlot::K, ProjSlot::V, ProjSlot::GateSrc, ProjSlot::GateDst];
        for tier in CacheTier::ALL {
            let mut publisher = model.clone();
            publisher.cfg.cache_tier = tier;
            let batched = publisher.precompute_embeddings_batched(&ds, block);
            for (node, lanes) in reference.iter().enumerate() {
                let got = std::iter::once(batched.embed_vec(node))
                    .chain(SLOTS.map(|slot| batched.proj_vec(node, slot)));
                for (lane, (got, want)) in got.zip(lanes).enumerate() {
                    let got = got.expect("batched publish must cover every node");
                    prop_assert!(
                        tier.within_budget(&got, want, SIMD_BUDGET),
                        "node {} lane {} block {} {:?}: batched {:?} vs per-node {:?}",
                        node, lane, block, tier, got, want
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// LAYOUT PARITY — the flat-arena `Dataset` must be an invisible
    /// storage change: for random worlds, every row read through the
    /// accessors is **bit-identical** to a nested per-shop reference
    /// computed here value-by-value from the world (per-shop `Vec`s, the
    /// public `Scaler` API, the pre-refactor formulas). This pins the
    /// arena strides, the fused scaler fit, the shared trig table and the
    /// synthesized observed flag all at once — any drift in how the flat
    /// layout stores or reconstructs a value fails a `to_bits` compare.
    #[test]
    fn flat_layout_matches_nested_reference(
        world_seed in 0u64..10_000,
        n_shops in 30usize..90,
    ) {
        let world =
            World::generate(WorldConfig { n_shops, seed: world_seed, ..WorldConfig::tiny() });
        let ds = build_dataset(&world);
        let cfg = &world.config;
        let (in_start, fut_start) = (cfg.input_start(), cfg.horizon_start());
        let t = cfg.input_window;
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();

        // The nested layout fitted scalers by gathering observed training
        // cells into per-column Vecs and running the public iterator fit.
        // The flat build accumulates the same moments straight off its log
        // arena — the fitted parameters must not move by a single bit.
        let mut gmv_cells = Vec::new();
        let mut ord_cells = Vec::new();
        let mut cus_cells = Vec::new();
        for &v in &ds.splits.train {
            let shop = &world.shops[v];
            for m in in_start..fut_start {
                if m >= shop.opened {
                    gmv_cells.push(shop.gmv[m]);
                    ord_cells.push(shop.orders[m]);
                    cus_cells.push(shop.customers[m]);
                }
            }
        }
        for (fitted, stored) in [
            (Scaler::fit(gmv_cells.into_iter()), ds.scaler),
            (Scaler::fit(ord_cells.into_iter()), ds.orders_scaler),
            (Scaler::fit(cus_cells.into_iter()), ds.customers_scaler),
        ] {
            prop_assert_eq!(fitted.mean.to_bits(), stored.mean.to_bits());
            prop_assert_eq!(fitted.std.to_bits(), stored.std.to_bits());
        }

        for v in 0..ds.n {
            let shop = &world.shops[v];
            let series: Vec<f32> = (in_start..fut_start)
                .map(|m| if m >= shop.opened { ds.scaler.normalize(shop.gmv[m]) } else { 0.0 })
                .collect();
            prop_assert_eq!(bits(ds.gmv_row(v)), bits(&series), "gmv row {} drifted", v);

            let mut temporal = vec![0.0f32; t * D_TEMPORAL];
            for (row, m) in (in_start..fut_start).enumerate() {
                let observed = m >= shop.opened;
                let angle = std::f32::consts::TAU * month_of_year(m) as f32 / 12.0;
                let cell = &mut temporal[row * D_TEMPORAL..(row + 1) * D_TEMPORAL];
                cell[0] = angle.sin();
                cell[1] = angle.cos();
                cell[2] =
                    if observed { ds.orders_scaler.normalize(shop.orders[m]) } else { 0.0 };
                cell[3] =
                    if observed { ds.customers_scaler.normalize(shop.customers[m]) } else { 0.0 };
                cell[4] = if observed { 1.0 } else { 0.0 };
            }
            let mut flat = vec![0.0f32; t * D_TEMPORAL];
            ds.write_temporal_row(v, &mut flat);
            prop_assert_eq!(bits(&flat), bits(&temporal), "temporal row {} drifted", v);
            for row in 0..t {
                for k in 0..D_TEMPORAL {
                    prop_assert_eq!(
                        ds.temporal_at(v, row, k).to_bits(),
                        temporal[row * D_TEMPORAL + k].to_bits(),
                        "temporal_at({}, {}, {}) disagrees with the row view", v, row, k
                    );
                }
            }

            let mut stat = vec![0.0f32; ds.d_s];
            stat[shop.industry as usize] = 1.0;
            stat[cfg.n_industries + shop.region as usize] = 1.0;
            stat[cfg.n_industries + cfg.n_regions] =
                if shop.role == Role::Supplier { 1.0 } else { 0.0 };
            let obs = (in_start..fut_start).filter(|&m| m >= shop.opened).count();
            stat[cfg.n_industries + cfg.n_regions + 1] = obs.min(t) as f32 / t as f32;
            prop_assert_eq!(bits(ds.statics_row(v)), bits(&stat), "static row {} drifted", v);
            prop_assert_eq!(ds.observed_len(v), obs);

            for (h, m) in (fut_start..fut_start + cfg.horizon).enumerate() {
                prop_assert_eq!(ds.targets_raw_row(v)[h].to_bits(), shop.gmv[m].to_bits());
                prop_assert_eq!(
                    ds.targets_norm_row(v)[h].to_bits(),
                    ds.scaler.normalize_pos(shop.gmv[m]).to_bits()
                );
            }
        }
    }

    /// HALF ROUND-TRIP — the f16 cache tier's error budget, pinned
    /// on random magnitudes spanning subnormals to near the binary16 max:
    /// encode→decode stays within half a ulp (`2^-11` relative for normal
    /// values, `2^-25` absolute once the value falls into the subnormal
    /// range), and re-encoding the decoded value is exact (decoded halves
    /// are fixed points of the conversion).
    #[test]
    fn f16_round_trip_within_half_ulp(
        values in prop::collection::vec((-1.0f32..1.0, -30i32..16), 1..64),
    ) {
        for &(m, e) in &values {
            let x = m * 2.0f32.powi(e); // |x| < 2^15 — no binary16 overflow
            let h = f32_to_f16(x);
            let rt = f16_to_f32(h);
            let bound = x.abs() / 2048.0 + 2.0f32.powi(-25);
            prop_assert!(
                (rt - x).abs() <= bound,
                "round-trip of {x} gave {rt} (err {} > bound {bound})", (rt - x).abs()
            );
            prop_assert_eq!(f32_to_f16(rt), h, "decoded half {rt} is not a fixed point");
        }
    }
}
