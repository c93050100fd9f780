//! Ad-hoc stage profiler for the batched serving path: times ego
//! extraction, tape reset, batched forward and result extraction
//! separately so kernel work can be told apart from dispatch overhead,
//! then the full publish of a 100k-shop world at 1 and 2 workers.
//! Not part of any committed benchmark protocol.

use gaia_bench::bench_world;
use gaia_core::trainer::{InferenceScratch, TrainConfig};
use gaia_core::GaiaConfig;
use gaia_graph::EgoConfig;
use gaia_serving::OfflinePipeline;
use std::time::Instant;

fn main() {
    let (world, ds0) = bench_world();
    let mut cfg = GaiaConfig::new(ds0.t, ds0.horizon, ds0.d_t, ds0.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 4 };
    let tc = TrainConfig { epochs: 1, batch_size: 32, verbose: false, ..TrainConfig::default() };
    let mut pipeline = OfflinePipeline::new(cfg, tc, 7);
    let (artifact, ds, _) = pipeline.execute_month(&world);
    let mut model = gaia_core::Gaia::new(artifact.config.clone(), 0);
    model.restore(&artifact.checkpoint).expect("restore");
    let cache = model.precompute_embeddings(&ds);
    let mut scratch = InferenceScratch::new();
    scratch.install_embed_cache(cache);

    let batch: Vec<usize> = (0..8usize).collect();
    // Warm up.
    for _ in 0..50 {
        let _ = gaia_core::trainer::predict_batch_with(
            &model,
            &ds,
            &world.graph,
            &batch,
            42,
            &mut scratch,
        );
    }
    let reps = 2000usize;
    let t0 = Instant::now();
    for _ in 0..reps {
        let p = gaia_core::trainer::predict_batch_with(
            &model,
            &ds,
            &world.graph,
            &batch,
            42,
            &mut scratch,
        );
        std::hint::black_box(&p);
    }
    let total = t0.elapsed().as_secs_f64();
    println!(
        "predict_batch_with(batch=8): {:.2} us/batch = {:.2} us/request",
        1e6 * total / reps as f64,
        1e6 * total / (reps * batch.len()) as f64
    );
    println!("dims: t={} horizon={} d_t={} d_s={} n={}", ds.t, ds.horizon, ds.d_t, ds.d_s, ds.n);

    // ---- Stage-level split: replicate predict_batch_with by hand. ----
    use gaia_core::GraphForecaster;
    use gaia_graph::{extract_ego_into, EgoScratch, EgoSubgraph};
    use rand::{rngs::StdRng, SeedableRng};

    let ego_cfg = model.ego_config();
    let mut ego_slots: Vec<EgoScratch> = (0..batch.len()).map(|_| EgoScratch::new()).collect();
    let mut tape = gaia_tensor::Graph::for_inference();
    let mut cache2 = model.precompute_embeddings(&ds);

    let (mut t_ego, mut t_fwd, mut t_out) = (0.0f64, 0.0f64, 0.0f64);
    for _ in 0..reps {
        let s0 = Instant::now();
        let egos: Vec<&EgoSubgraph> = ego_slots
            .iter_mut()
            .zip(&batch)
            .map(|(slot, &center)| {
                let mut rng = StdRng::seed_from_u64(42 ^ (center as u64).wrapping_mul(0x9e37));
                extract_ego_into(&world.graph, center, &ego_cfg, &mut rng, slot)
            })
            .collect();
        let s1 = Instant::now();
        tape.reset();
        let preds = model.forward_centers_cached(&mut tape, &ds, &egos, &mut cache2);
        let s2 = Instant::now();
        let out: Vec<Vec<_>> = preds
            .iter()
            .map(|&p| {
                let t = tape.value(p);
                ds.denormalize_prediction(t)
            })
            .collect();
        std::hint::black_box(&out);
        let s3 = Instant::now();
        t_ego += (s1 - s0).as_secs_f64();
        t_fwd += (s2 - s1).as_secs_f64();
        t_out += (s3 - s2).as_secs_f64();
    }
    let per = |t: f64| 1e6 * t / (reps * batch.len()) as f64;
    println!(
        "stage split per request: ego={:.2}us forward={:.2}us extract={:.2}us",
        per(t_ego),
        per(t_fwd),
        per(t_out)
    );

    publish_cost();

    // ---- Kernel microbenches at exact model shapes. ----
    use gaia_tensor::kernels;
    let t = ds.t; // 24
    let c = 8usize;
    let kreps = 200_000u32;

    // Causal attention probs: q [t,c] @ k^T [c,t] + fused causal softmax.
    let q: Vec<f32> = (0..t * c).map(|i| ((i * 37 % 101) as f32 - 50.0) * 0.01).collect();
    let k: Vec<f32> = (0..t * c).map(|i| ((i * 53 % 97) as f32 - 48.0) * 0.01).collect();
    let mut probs = vec![0.0f32; t * t];
    let mut kt_scratch = vec![0.0f32; t * c];
    let scale = 1.0 / (c as f32).sqrt();
    let s = Instant::now();
    for _ in 0..kreps {
        kernels::attention_probs_causal_into(
            std::hint::black_box(&q),
            std::hint::black_box(&k),
            t,
            c,
            scale,
            &mut kt_scratch,
            &mut probs,
        );
    }
    let causal_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;

    // probs @ v via tri-lower matmul: [t,t] @ [t,1] per channel -> [t,c] strided.
    let v: Vec<f32> = (0..t * c).map(|i| ((i * 29 % 89) as f32 - 44.0) * 0.01).collect();
    let mut att = vec![0.0f32; t * c];
    let s = Instant::now();
    for _ in 0..kreps {
        kernels::matmul_tri_lower_into(
            std::hint::black_box(&probs),
            std::hint::black_box(&v),
            t,
            c,
            &mut att,
        );
    }
    let tri_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;

    // Plain GEMM at score shape: [t,c] @ [c,t].
    let mut scores = vec![0.0f32; t * t];
    let kt: Vec<f32> = (0..c * t).map(|i| ((i * 31 % 83) as f32 - 41.0) * 0.01).collect();
    let s = Instant::now();
    for _ in 0..kreps {
        kernels::matmul_into(
            std::hint::black_box(&q),
            std::hint::black_box(&kt),
            t,
            c,
            t,
            &mut scores,
        );
    }
    let gemm_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;

    // conv1d fused at CAU Q shape: in [t, c], width 3, causal, tanh.
    let w: Vec<f32> = (0..3 * c * c).map(|i| ((i * 13 % 61) as f32 - 30.0) * 0.02).collect();
    let b: Vec<f32> = (0..c).map(|i| i as f32 * 0.01).collect();
    let x: Vec<f32> = (0..t * c).map(|i| ((i * 17 % 71) as f32 - 35.0) * 0.02).collect();
    let mut y = vec![0.0f32; t * c];
    let s = Instant::now();
    for _ in 0..kreps {
        kernels::conv1d_fused_into(
            std::hint::black_box(&x),
            std::hint::black_box(&w),
            Some(&b),
            t,
            c,
            c,
            3,
            gaia_tensor::PadMode::Causal,
            kernels::Activation::Tanh,
            &mut y,
        );
    }
    let conv_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;

    println!(
        "kernels @ model shapes: causal_probs(t={t},c={c})={causal_ns:.0}ns tri={tri_ns:.0}ns \
         gemm[{t}x{c}@{c}x{t}]={gemm_ns:.0}ns conv1d_tanh={conv_ns:.0}ns"
    );

    // ---- Sub-kernel pieces of the causal softmax. ----
    let mut buf = vec![0.0f32; t * t];
    let s = Instant::now();
    for _ in 0..kreps {
        kernels::transpose_into(std::hint::black_box(&k), t, c, &mut kt_scratch);
    }
    let transpose_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    let s = Instant::now();
    for _ in 0..kreps {
        let sp = gaia_tensor::simd::screen_abs_max(std::hint::black_box(&probs), scale);
        std::hint::black_box(sp);
    }
    let screen_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    buf.copy_from_slice(&probs);
    let s = Instant::now();
    for _ in 0..kreps {
        // black_box outside the loop so the map itself can vectorise,
        // exactly as the kernels run it.
        for x in buf.iter_mut() {
            *x = kernels::exp_f32(*x * 1.000_001 - 0.5);
        }
        std::hint::black_box(&mut buf);
    }
    let exp_ns = 1e9 * s.elapsed().as_secs_f64() / (kreps as usize * buf.len()) as f64;
    let s = Instant::now();
    for _ in 0..kreps {
        let m = gaia_tensor::simd::max_fold(std::hint::black_box(&buf[..12]));
        std::hint::black_box(m);
    }
    let max12_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    // Row-softmax loop exactly as the causal fast path runs it.
    let s = Instant::now();
    for _ in 0..kreps {
        buf.copy_from_slice(std::hint::black_box(&probs));
        for r in 0..t {
            let o_row = &mut buf[r * t..(r + 1) * t];
            let prefix = r + 1;
            let max = gaia_tensor::simd::max_fold(&o_row[..prefix]) * scale;
            let padded = ((prefix + 7) & !7).min(t);
            for x in o_row[..padded].iter_mut() {
                *x = kernels::exp_f32(*x * scale - max);
            }
            let mut sum = 0.0;
            for &x in o_row[..prefix].iter() {
                sum += x;
            }
            let inv = 1.0 / sum;
            for x in o_row[..prefix].iter_mut() {
                *x *= inv;
            }
            o_row[prefix..].fill(0.0);
        }
        std::hint::black_box(&mut buf);
    }
    let rows_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    // Variant: precomputed row max (as the fused GEMM provides), exp map
    // via chunks_exact(8) so no scalar epilogue code is emitted at all.
    let row_maxes: Vec<f32> = (0..t)
        .map(|r| {
            probs[r * t..r * t + r + 1].iter().cloned().fold(f32::NEG_INFINITY, f32::max) * scale
        })
        .collect();
    let s = Instant::now();
    for _ in 0..kreps {
        buf.copy_from_slice(std::hint::black_box(&probs));
        for r in 0..t {
            let o_row = &mut buf[r * t..(r + 1) * t];
            let prefix = r + 1;
            let max = row_maxes[r];
            let padded = ((prefix + 7) & !7).min(t);
            for ch in o_row[..padded].chunks_exact_mut(8) {
                for x in ch.iter_mut() {
                    *x = kernels::exp_f32(*x * scale - max);
                }
            }
            let mut sum = 0.0;
            for &x in o_row[..prefix].iter() {
                sum += x;
            }
            let inv = 1.0 / sum;
            for x in o_row[..prefix].iter_mut() {
                *x *= inv;
            }
            o_row[prefix..].fill(0.0);
        }
        std::hint::black_box(&mut buf);
    }
    let rows2_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    // The copy alone, to subtract.
    let s = Instant::now();
    for _ in 0..kreps {
        buf.copy_from_slice(std::hint::black_box(&probs));
        std::hint::black_box(&mut buf);
    }
    let copy_ns = 1e9 * s.elapsed().as_secs_f64() / kreps as f64;
    println!(
        "pieces: transpose[{t}x{c}]={transpose_ns:.0}ns screen[{}]={screen_ns:.0}ns \
         exp_map={exp_ns:.2}ns/elem max_fold[12]={max12_ns:.1}ns \
         row_softmax={:.0}ns variant2={:.0}ns (copy {copy_ns:.0}ns)",
        t * t,
        rows_ns - copy_ns,
        rows2_ns - copy_ns
    );
}

/// Full publishes of a 100k-shop world (perfbench's `serve-100k` world
/// and untrained serving model) in 5 alternating pairs of 1 and 2
/// workers: each row gives wall time, per-worker busy time and claimed
/// pages, the serial remainder, the summed stage split and the process's
/// minor page faults; each pair ends with its 2-over-1 speed-up, the
/// single-thread figure next to the parallel one.
fn publish_cost() {
    use gaia_synth::{generate_dataset, WorldConfig};
    const PAIRS: usize = 5;
    let (_world, ds) =
        generate_dataset(WorldConfig { n_shops: 100_000, seed: 1, ..WorldConfig::default() });
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 4 };
    let model = gaia_core::Gaia::new(cfg, 7);
    // Warm-up: the allocator's first touch of a cache's worth of pages.
    drop(model.precompute_embeddings(&ds));
    println!(
        "publish (n={}, block={}), {PAIRS} alternating pairs:",
        ds.n,
        gaia_core::PUBLISH_BLOCK
    );
    let mut ratios = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        let mut walls = [0.0f64; 2];
        let order = if pair % 2 == 0 { [1usize, 2] } else { [2, 1] };
        for workers in order {
            let faults = minor_faults();
            let (cache, p) =
                model.precompute_embeddings_profiled(&ds, gaia_core::PUBLISH_BLOCK, workers);
            let faults = minor_faults().zip(faults).map(|(after, before)| after - before);
            drop(cache);
            walls[workers - 1] = p.wall_seconds;
            let ms = |v: &[f64]| {
                v.iter().map(|s| format!("{:.1}", 1e3 * s)).collect::<Vec<_>>().join("/")
            };
            println!(
                "  {workers} worker(s): wall={:.1}ms busy={}ms pages={:?} serial={:.2}ms \
                 [embed={:.1}ms projections={:.1}ms insert={:.1}ms, summed] minflt={}",
                1e3 * p.wall_seconds,
                ms(&p.worker_busy_seconds),
                p.worker_pages,
                1e3 * p.serial_seconds,
                1e3 * p.stages.embed_seconds,
                1e3 * p.stages.projection_seconds,
                1e3 * p.stages.insert_seconds,
                faults.map_or("n/a".to_string(), |f| f.to_string()),
            );
        }
        ratios.push(walls[0] / walls[1]);
        println!(
            "  pair {pair}: 1 worker {:.1}ms, 2 workers {:.1}ms, {:.2}x",
            1e3 * walls[0],
            1e3 * walls[1],
            walls[0] / walls[1]
        );
    }
    ratios.sort_by(f64::total_cmp);
    println!("  median 2-over-1 speed-up: {:.2}x", ratios[PAIRS / 2]);
}

/// Minor page faults of this process so far (Linux `/proc/self/stat`
/// field 10), or `None` where that file is unreadable.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    rest.split_whitespace().nth(7)?.parse().ok()
}
