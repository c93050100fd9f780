//! Substrate micro-benchmarks: matmul and conv1d at the shapes the models
//! actually use ([T, C] = [24, 32]), plus the f32 kernel scaling ablation
//! and the kernel-vs-naive comparisons for the `gaia_tensor::kernels`
//! layer (blocked matmul, fused conv1d+bias+act, fused attention scores),
//! the publish block's conv kernels (`publish_block`) and the full
//! publish at 1 and 2 workers (`publish_driver`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaia_tensor::kernels::{
    attention_probs_causal_into, attention_scores_into, conv1d_fused_batched_into,
    conv1d_fused_into, conv1d_gate_batched_into, conv1d_projection_bank_into, matmul_batched_into,
    matmul_into, matmul_naive_into, matmul_tri_lower_into, ProjectionBank, ProjectionLanes,
};
use gaia_tensor::{conv1d, softmax_in_place, Activation, PadMode, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Duration;

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("matmul");
    for &n in &[16usize, 32, 64, 128] {
        let a = Tensor::randn(vec![n, n], 1.0, &mut rng);
        let b = Tensor::randn(vec![n, n], 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_attention_shapes(c: &mut Criterion) {
    // The CAU inner product: [24, 32] x [32, 24] as used per edge.
    let mut rng = StdRng::seed_from_u64(2);
    let q = Tensor::randn(vec![24, 32], 1.0, &mut rng);
    let k = Tensor::randn(vec![24, 32], 1.0, &mut rng);
    c.bench_function("attention_qk_24x32", |b| {
        b.iter(|| black_box(q.matmul(&k.transpose()).softmax_rows()));
    });
}

fn bench_conv1d(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let x = Tensor::randn(vec![24, 32], 1.0, &mut rng);
    let mut group = c.benchmark_group("conv1d_k_sweep");
    for &k in &[2usize, 4, 8, 16] {
        let w = Tensor::randn(vec![k, 32, 8], 0.3, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |bench, _| {
            bench.iter(|| black_box(conv1d(&x, &w, None, PadMode::Same)));
        });
    }
    group.finish();
}

/// The acceptance comparison of the kernel layer: blocked vs naive matmul
/// at model shapes. The roadmap target is blocked ≥ 2× naive at the sizes
/// the forward pass actually multiplies (24–128).
fn bench_matmul_blocked_vs_naive(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("matmul_blocked_vs_naive");
    for &n in &[24usize, 32, 64, 128] {
        let a = Tensor::randn(vec![n, n], 1.0, &mut rng);
        let b = Tensor::randn(vec![n, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; n * n];
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            bench.iter(|| {
                matmul_naive_into(a.data(), b.data(), n, n, n, &mut out);
                black_box(out[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            bench.iter(|| {
                matmul_into(a.data(), b.data(), n, n, n, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

/// Fused conv1d+bias+ReLU (one pass, caller buffer) vs the naive
/// allocating conv followed by separate bias/activation sweeps, at the TEL
/// shape ([24, 32] → 8 channels).
fn bench_conv1d_fused_vs_naive(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let (t_len, c_in, c_out, k) = (24usize, 32usize, 8usize, 4usize);
    let x = Tensor::randn(vec![t_len, c_in], 1.0, &mut rng);
    let w = Tensor::randn(vec![k, c_in, c_out], 0.3, &mut rng);
    let b = Tensor::randn(vec![c_out], 0.3, &mut rng);
    let mut group = c.benchmark_group("conv1d_fused_vs_naive");
    group.bench_function("naive_conv_bias_relu", |bench| {
        bench.iter(|| black_box(conv1d(&x, &w, Some(&b), PadMode::Same).map(|v| v.max(0.0))));
    });
    let mut out = vec![0.0f32; t_len * c_out];
    group.bench_function("fused", |bench| {
        bench.iter(|| {
            conv1d_fused_into(
                x.data(),
                w.data(),
                Some(b.data()),
                t_len,
                c_in,
                c_out,
                k,
                PadMode::Same,
                Activation::Relu,
                &mut out,
            );
            black_box(out[0])
        });
    });
    group.finish();
}

/// Fused attention scores (QKᵀ/√C + M, one kernel, caller buffer) vs the
/// unfused transpose → matmul → scale → mask pipeline at the CAU shape.
fn bench_attention_scores_fused_vs_naive(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(6);
    let (t, ch) = (24usize, 32usize);
    let q = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let k = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let mask = {
        let mut m = Tensor::zeros(vec![t, t]);
        for i in 0..t {
            for j in (i + 1)..t {
                *m.at_mut(i, j) = -1e9;
            }
        }
        m
    };
    let scale = 1.0 / (ch as f32).sqrt();
    let mut group = c.benchmark_group("attention_scores_fused_vs_naive");
    group.bench_function("unfused_transpose_matmul_scale_mask", |bench| {
        bench.iter(|| black_box(q.matmul(&k.transpose()).scale(scale).add(&mask)));
    });
    let mut scratch = vec![0.0f32; t * ch];
    let mut out = vec![0.0f32; t * t];
    group.bench_function("fused", |bench| {
        bench.iter(|| {
            attention_scores_into(
                q.data(),
                k.data(),
                t,
                t,
                ch,
                scale,
                Some(mask.data()),
                &mut scratch,
                &mut out,
            );
            black_box(out[0])
        });
    });
    group.finish();
}

/// PR-4 batch dispatch: one stacked GEMM over B right-hand sides
/// (`matmul_batched_into`) vs B separate blocked matmuls, at the
/// prediction-head shape (B × [1, 24] @ [24, 3]) and a square one.
fn bench_matmul_batched_vs_looped(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(7);
    let mut group = c.benchmark_group("matmul_batched_vs_looped");
    for &(bt, m, k, n) in &[(16usize, 1usize, 24usize, 3usize), (8, 24, 24, 24)] {
        let a = Tensor::randn(vec![bt, m, k], 1.0, &mut rng);
        let w = Tensor::randn(vec![k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; bt * m * n];
        let label = format!("{bt}x{m}x{k}x{n}");
        group.bench_with_input(BenchmarkId::new("looped", &label), &bt, |bench, _| {
            bench.iter(|| {
                for i in 0..bt {
                    matmul_into(
                        &a.data()[i * m * k..(i + 1) * m * k],
                        w.data(),
                        m,
                        k,
                        n,
                        &mut out[i * m * n..(i + 1) * m * n],
                    );
                }
                black_box(out[0])
            });
        });
        group.bench_with_input(BenchmarkId::new("batched", &label), &bt, |bench, _| {
            bench.iter(|| {
                matmul_batched_into(a.data(), w.data(), bt, m, k, n, &mut out);
                black_box(out[0])
            });
        });
    }
    group.finish();
}

/// PR-4 fused causal attention probabilities (blocked scores + prefix-only
/// softmax, one kernel) vs the unfused masked scores → full row softmax
/// pipeline, plus the triangular `probs @ V` vs the full blocked matmul —
/// the two kernels the batched CAU dispatches per message set.
fn bench_causal_attention_batched_vs_unfused(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(8);
    let (t, ch) = (24usize, 8usize);
    let q = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let k = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let v = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let mut mask = vec![0.0f32; t * t];
    for i in 0..t {
        for j in (i + 1)..t {
            mask[i * t + j] = -1e9;
        }
    }
    let scale = 1.0 / (ch as f32).sqrt();
    let mut scratch = vec![0.0f32; t * ch];
    let mut probs = vec![0.0f32; t * t];
    let mut out = vec![0.0f32; t * ch];
    let mut group = c.benchmark_group("causal_attention_fused_vs_unfused");
    group.bench_function("unfused_scores_softmax", |bench| {
        bench.iter(|| {
            attention_scores_into(
                q.data(),
                k.data(),
                t,
                t,
                ch,
                scale,
                Some(&mask),
                &mut scratch,
                &mut probs,
            );
            for row in probs.chunks_mut(t) {
                softmax_in_place(row);
            }
            black_box(probs[0])
        });
    });
    group.bench_function("fused_causal_probs", |bench| {
        bench.iter(|| {
            attention_probs_causal_into(q.data(), k.data(), t, ch, scale, &mut scratch, &mut probs);
            black_box(probs[0])
        });
    });
    attention_probs_causal_into(q.data(), k.data(), t, ch, scale, &mut scratch, &mut probs);
    group.bench_function("probs_at_v_full", |bench| {
        bench.iter(|| {
            matmul_into(&probs, v.data(), t, t, ch, &mut out);
            black_box(out[0])
        });
    });
    group.bench_function("probs_at_v_triangular", |bench| {
        bench.iter(|| {
            matmul_tri_lower_into(&probs, v.data(), t, ch, &mut out);
            black_box(out[0])
        });
    });
    group.finish();
}

/// PR-6 `simd`-vs-scalar sweep. The kernel build is a compile-time feature,
/// so one binary cannot time both GEMM paths: the group's IDs carry the
/// compiled feature (`simd` / `scalar`) and the cross-build comparison is
/// made with criterion's `--save-baseline` between two runs — see
/// `crates/bench/README.md` for the protocol. The transcendental selectors
/// ARE both present in either build, so `exp`/`tanh` polynomial-vs-libm is
/// compared directly in-process.
fn bench_simd_vs_scalar(c: &mut Criterion) {
    let build = if cfg!(feature = "simd") { "simd" } else { "scalar" };
    let mut rng = StdRng::seed_from_u64(9);
    let (t, ch) = (24usize, 8usize);
    let q = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let k = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let v = Tensor::randn(vec![t, ch], 1.0, &mut rng);
    let scale = 1.0 / (ch as f32).sqrt();
    let mut scratch = vec![0.0f32; t * ch];
    let mut probs = vec![0.0f32; t * t];
    let mut att = vec![0.0f32; t * ch];
    let mut group = c.benchmark_group("simd_vs_scalar");

    // The two CAU hot kernels, compiled under whichever feature is on.
    group.bench_function(BenchmarkId::new("causal_probs_24x8", build), |bench| {
        bench.iter(|| {
            attention_probs_causal_into(q.data(), k.data(), t, ch, scale, &mut scratch, &mut probs);
            black_box(probs[0])
        });
    });
    attention_probs_causal_into(q.data(), k.data(), t, ch, scale, &mut scratch, &mut probs);
    group.bench_function(BenchmarkId::new("probs_at_v_tri_24x8", build), |bench| {
        bench.iter(|| {
            matmul_tri_lower_into(&probs, v.data(), t, ch, &mut att);
            black_box(att[0])
        });
    });
    // Small-k GEMM at the score shape — the register-tiled path under
    // `simd`, the 4-group axpy path without it.
    let kt = Tensor::randn(vec![ch, t], 1.0, &mut rng);
    let mut scores = vec![0.0f32; t * t];
    group.bench_function(BenchmarkId::new("gemm_24x8_8x24", build), |bench| {
        bench.iter(|| {
            matmul_into(q.data(), kt.data(), t, ch, t, &mut scores);
            black_box(scores[0])
        });
    });

    // Transcendental selectors: both variants exist in every build, so the
    // polynomial-vs-libm ratio is measured in-process over a 576-element
    // map (the causal-probs working-set size).
    let xs: Vec<f32> = (0..t * t).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.05).collect();
    let mut ys = vec![0.0f32; t * t];
    group.bench_function("exp_map_576/polynomial", |bench| {
        bench.iter(|| {
            for (y, &x) in ys.iter_mut().zip(xs.iter()) {
                *y = gaia_tensor::simd::exp_approx(x);
            }
            black_box(&mut ys);
        });
    });
    group.bench_function("exp_map_576/libm", |bench| {
        bench.iter(|| {
            for (y, &x) in ys.iter_mut().zip(xs.iter()) {
                *y = x.exp();
            }
            black_box(&mut ys);
        });
    });
    group.bench_function("tanh_map_576/polynomial", |bench| {
        bench.iter(|| {
            for (y, &x) in ys.iter_mut().zip(xs.iter()) {
                *y = gaia_tensor::simd::tanh_approx(x);
            }
            black_box(&mut ys);
        });
    });
    group.bench_function("tanh_map_576/libm", |bench| {
        bench.iter(|| {
            for (y, &x) in ys.iter_mut().zip(xs.iter()) {
                *y = x.tanh();
            }
            black_box(&mut ys);
        });
    });
    group.finish();
}

/// The publish block's conv kernels at both model shapes, 32 members with
/// T = 24: serve (C = 8, K = 2) and paper (C = 32, K = 4). One row per TEL
/// gate width (`kw = 2, 4, …, 2^K`, `C/K` channels each), and the layer-0
/// projection bank against the five separate convs it replaces (Q/K width
/// 3, V width 1, two single-column gate projections).
fn bench_publish_block(c: &mut Criterion) {
    const BT: usize = 32;
    const T: usize = 24;
    let mut rng = StdRng::seed_from_u64(11);
    let mut group = c.benchmark_group("publish_block");
    for (shape, ch, groups) in [("serve", 8usize, 2usize), ("paper", 32, 4)] {
        let mut randn = |shape: Vec<usize>| Tensor::randn(shape, 0.3, &mut rng);
        let x = randn(vec![BT, T, ch]);
        let cw = ch / groups;
        for kw in (1..=groups).map(|g| 1usize << g) {
            let (wc, wd) = (randn(vec![kw, ch, cw]), randn(vec![kw, ch, cw]));
            let (bc, bd) = (randn(vec![cw]), randn(vec![cw]));
            let mut den = vec![0.0f32; T * cw];
            let mut out = vec![0.0f32; BT * T * cw];
            group.bench_function(format!("{shape}/tel_gate_kw{kw}"), |bench| {
                bench.iter(|| {
                    conv1d_gate_batched_into(
                        x.data(),
                        wc.data(),
                        bc.data(),
                        wd.data(),
                        bd.data(),
                        BT,
                        T,
                        ch,
                        cw,
                        kw,
                        PadMode::Same,
                        &mut den,
                        &mut out,
                    );
                    black_box(out[0])
                });
            });
        }
        // (kernel, bias, width, c_out) of Q, K, V, gate source, gate dest.
        let convs: Vec<(Tensor, Tensor, usize, usize)> =
            [(3, ch), (3, ch), (1, ch), (1, 1), (1, 1)]
                .into_iter()
                .map(|(kw, co)| (randn(vec![kw, ch, co]), randn(vec![co]), kw, co))
                .collect();
        let mut outs: Vec<Vec<f32>> = convs.iter().map(|c| vec![0.0f32; BT * T * c.3]).collect();
        group.bench_function(format!("{shape}/projections_five_convs"), |bench| {
            bench.iter(|| {
                for ((w, b, kw, co), out) in convs.iter().zip(outs.iter_mut()) {
                    conv1d_fused_batched_into(
                        x.data(),
                        w.data(),
                        Some(b.data()),
                        BT,
                        T,
                        ch,
                        *co,
                        *kw,
                        PadMode::Causal,
                        Activation::Identity,
                        out,
                    );
                }
                black_box(outs[0][0])
            });
        });
        let kernel = |i: usize| (convs[i].0.data(), convs[i].1.data());
        let bank = ProjectionBank {
            kw: 3,
            q: kernel(0),
            k: kernel(1),
            v: kernel(2),
            gate_src: kernel(3),
            gate_dst: kernel(4),
        };
        group.bench_function(format!("{shape}/projection_bank"), |bench| {
            bench.iter(|| {
                let [q, k, v, gate_src, gate_dst] = &mut outs[..] else { unreachable!() };
                conv1d_projection_bank_into(
                    x.data(),
                    &bank,
                    BT,
                    T,
                    ch,
                    ch,
                    ProjectionLanes { q, k, v, gate_src, gate_dst },
                );
                black_box(outs[0][0])
            });
        });
    }
    group.finish();
}

/// The full publish of a 10k-shop world with the serving model
/// (C = 8, K = 2, one layer, untrained, model seed 7): the same publish at
/// 1 and 2 workers, so the single-thread figure sits next to the parallel
/// one.
fn bench_publish_driver(c: &mut Criterion) {
    use gaia_synth::{generate_dataset, WorldConfig};
    let (_world, ds) =
        generate_dataset(WorldConfig { n_shops: 10_000, seed: 1, ..WorldConfig::default() });
    let mut cfg = gaia_core::GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    let model = gaia_core::Gaia::new(cfg, 7);
    let mut group = c.benchmark_group("publish_driver");
    for workers in [1usize, 2] {
        group.bench_function(format!("serve_10k/workers_{workers}"), |bench| {
            bench.iter(|| {
                model.precompute_embeddings_profiled(&ds, gaia_core::PUBLISH_BLOCK, workers).0
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(2)).sample_size(10);
    targets = bench_matmul, bench_attention_shapes, bench_conv1d,
        bench_matmul_blocked_vs_naive, bench_conv1d_fused_vs_naive,
        bench_attention_scores_fused_vs_naive, bench_matmul_batched_vs_looped,
        bench_causal_attention_batched_vs_unfused, bench_simd_vs_scalar, bench_publish_block,
        bench_publish_driver
}
criterion_main!(benches);
