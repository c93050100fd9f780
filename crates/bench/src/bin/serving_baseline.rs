//! Emit the serving-throughput benchmark (`BENCH_pr9.json`) from
//! [`gaia_serving::ServeStats`]: train one offline cycle on the shared bench
//! world, boot the online server and measure batch-prediction throughput and
//! latency percentiles across (a) the 1/2/4/8-worker sweep at micro-batch 1
//! (directly comparable to the frozen `BENCH_pr3.json`), (b) the
//! **micro-batch sweep** at one worker (1/2/4/8/16 requests per tape),
//! comparable to the frozen `BENCH_pr4.json`, and (c) the PR-9 **shard
//! sweep**: a [`gaia_serving::ShardedModelServer`] fleet at 1/2/4/8 shards
//! serving the same request stream at the best micro-batch from (b), plus a
//! request-count scaling curve + R² at the best shard count. Build with
//! `--no-default-features` to measure the scalar fallback instead (see
//! `crates/bench/README.md`).
//!
//! Like the PR-2/PR-3 worker sweeps, the shard sweep is **hardware-flat on
//! the 1-core container this repo benches in**: shard workers are OS
//! threads, so added shards measure sharding overhead (routing, per-shard
//! queues, snapshot installs), not parallel speedup. The number to watch on
//! 1 core is that the curve stays flat — sharding must not tax throughput.
//!
//! Run from the repo root with `cargo run --release -p gaia-bench --bin
//! serving_baseline`. The file is committed next to the frozen baselines
//! (`BENCH_seed.json`, `BENCH_pr2.json`, `BENCH_pr3.json`,
//! `BENCH_pr4.json`); PRs compare their numbers against them — see
//! `crates/bench/README.md` for the comparison protocol and expected
//! machine variance.

use gaia_bench::bench_world;
use gaia_core::trainer::TrainConfig;
use gaia_core::GaiaConfig;
use gaia_graph::EgoConfig;
use gaia_serving::{
    linearity_r2, ModelServer, OfflinePipeline, ServeConfig, ServeStats, ShardedModelServer,
};
use serde::Serialize;

#[derive(Serialize)]
struct Baseline {
    description: String,
    n_shops: usize,
    requests: usize,
    hardware_cores: usize,
    /// Worker sweep at micro-batch 1 — the request path previous PRs
    /// benchmarked, kept for like-for-like comparison.
    runs: Vec<Run>,
    /// PR-4 micro-batch sweep at one worker: each worker drains up to
    /// `micro_batch` queued requests per tape reset and serves them through
    /// one packed batched forward pass.
    batch_runs: Vec<BatchRun>,
    /// Best single-worker throughput across the micro-batch sweep, and the
    /// micro-batch size that achieved it.
    best_batched_per_second: f64,
    best_micro_batch: usize,
    /// Committed 1-worker reference figures and this run's speedups.
    seed_1worker_per_second: f64,
    speedup_vs_seed_1worker: f64,
    pr3_1worker_per_second: f64,
    /// Micro-batch-1 throughput vs PR 3 — must be within noise (same code
    /// path; the acceptance gate for "batching did not tax the old path").
    batch1_vs_pr3_1worker: f64,
    /// Best batched throughput vs PR 3 — the PR-4 acceptance figure
    /// (target ≥ 1.3×).
    speedup_vs_pr3_1worker: f64,
    /// Committed best-batched reference from BENCH_pr4.json and this run's
    /// speedup over it — the PR-6 SIMD acceptance figure (target ≥ 1.5×
    /// with the `simd` feature on).
    pr4_best_batched_per_second: f64,
    speedup_vs_pr4_best_batched: f64,
    /// Whether the `simd` kernel feature was compiled in for this run.
    simd: bool,
    /// Mean single-worker service time in µs per request at the best
    /// micro-batch size.
    forward_us_per_request: f64,
    /// PR-9 shard sweep: the sharded fleet serving the same stream at the
    /// best micro-batch, one pinned worker per shard.
    shard_runs: Vec<ShardRun>,
    /// Best sharded throughput across the sweep and the shard count that
    /// achieved it.
    best_sharded_per_second: f64,
    best_n_shards: usize,
    /// Sharded-vs-unsharded tax at the best micro-batch: best sharded
    /// throughput over the single-worker batched figure. On the 1-core
    /// container this should sit near 1.0 — sharding must not tax the
    /// request path it partitions.
    sharded_vs_best_batched: f64,
    /// Request-count scaling curve `(requests, seconds)` at the best shard
    /// count and micro-batch, from `ShardedModelServer::scaling_curve`.
    shard_scaling_curve: Vec<(usize, f64)>,
    /// R² of seconds ~ requests over `shard_scaling_curve` — the paper's
    /// linear-scaling claim, checked on the sharded path.
    shard_linearity_r2: f64,
}

#[derive(Serialize)]
struct Run {
    workers: usize,
    stats: ServeStats,
}

#[derive(Serialize)]
struct BatchRun {
    micro_batch: usize,
    stats: ServeStats,
}

#[derive(Serialize)]
struct ShardRun {
    n_shards: usize,
    stats: ServeStats,
}

/// 1-worker `per_second` recorded in BENCH_seed.json at PR 1. Kept as a
/// constant so the binary needs no JSON parsing; update it if the seed
/// baseline is ever regenerated.
const SEED_1WORKER_PER_SECOND: f64 = 4264.133884849303;

/// 1-worker `per_second` recorded in BENCH_pr3.json at PR 3 (same rule as
/// the seed constant).
const PR3_1WORKER_PER_SECOND: f64 = 17821.601491881906;

/// `best_batched_per_second` recorded in BENCH_pr4.json at PR 4 (same rule
/// as the seed constant) — the pre-SIMD batched reference.
const PR4_BEST_BATCHED_PER_SECOND: f64 = 36334.42348715269;

/// Best of three: on a shared box the max is the least noisy estimator of
/// the machine's capability.
fn best_of_three(mut run: impl FnMut() -> ServeStats) -> ServeStats {
    let mut best: Option<ServeStats> = None;
    for _ in 0..3 {
        let stats = run();
        if best.as_ref().is_none_or(|b| stats.per_second > b.per_second) {
            best = Some(stats);
        }
    }
    best.expect("three runs measured")
}

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
    let n = ds.n;
    let server = ModelServer::new(&artifact, world.graph.clone(), ds.clone(), 42);

    let shops: Vec<usize> = (0..400).map(|i| i % n).collect();
    // Warm up caches/allocator before measuring (both paths).
    let _ = server.serve(&shops[..50], ServeConfig { workers: 2, micro_batch: 1 });
    let _ = server.serve(&shops[..50], ServeConfig { workers: 1, micro_batch: 8 });

    let mut runs = Vec::new();
    let mut batch1_per_second = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let stats =
            best_of_three(|| server.serve(&shops, ServeConfig { workers, micro_batch: 1 }).1);
        println!(
            "workers={workers:<2} mb=1  requests={} seconds={:.3} per_second={:.1} \
             p50={:.2}ms p95={:.2}ms p99={:.2}ms per_worker={:?}",
            stats.requests,
            stats.seconds,
            stats.per_second,
            stats.latency_p50 * 1e3,
            stats.latency_p95 * 1e3,
            stats.latency_p99 * 1e3,
            stats.per_worker
        );
        if workers == 1 {
            batch1_per_second = stats.per_second;
        }
        runs.push(Run { workers, stats });
    }

    let mut batch_runs = Vec::new();
    let mut best_batched_per_second = 0.0;
    let mut best_micro_batch = 1;
    let mut best_seconds = 0.0;
    for micro_batch in [1usize, 2, 4, 8, 16] {
        let stats =
            best_of_three(|| server.serve(&shops, ServeConfig { workers: 1, micro_batch }).1);
        println!(
            "workers=1  mb={micro_batch:<2} requests={} seconds={:.3} per_second={:.1} \
             p50={:.2}ms p99={:.2}ms batches={:?}",
            stats.requests,
            stats.seconds,
            stats.per_second,
            stats.latency_p50 * 1e3,
            stats.latency_p99 * 1e3,
            stats.per_batch_size
        );
        if stats.per_second > best_batched_per_second {
            best_batched_per_second = stats.per_second;
            best_micro_batch = micro_batch;
            best_seconds = stats.seconds;
        }
        batch_runs.push(BatchRun { micro_batch, stats });
    }

    let mut shard_runs = Vec::new();
    let mut best_sharded_per_second = 0.0;
    let mut best_n_shards = 1;
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedModelServer::new(&artifact, &world, ds.clone(), n_shards, 42);
        // Warm the per-shard snapshots and queues before measuring.
        let _ = sharded.serve_sharded(&shops[..50], best_micro_batch);
        let stats = best_of_three(|| sharded.serve_sharded(&shops, best_micro_batch).1);
        println!(
            "shards={n_shards:<2} mb={best_micro_batch:<2} requests={} seconds={:.3} \
             per_second={:.1} p50={:.2}ms p99={:.2}ms stolen={} per_shard={:?}",
            stats.requests,
            stats.seconds,
            stats.per_second,
            stats.latency_p50 * 1e3,
            stats.latency_p99 * 1e3,
            stats.stolen,
            stats.per_shard
        );
        if stats.per_second > best_sharded_per_second {
            best_sharded_per_second = stats.per_second;
            best_n_shards = n_shards;
        }
        shard_runs.push(ShardRun { n_shards, stats });
    }

    let curve_server = ShardedModelServer::new(&artifact, &world, ds.clone(), best_n_shards, 42);
    let _ = curve_server.serve_sharded(&shops[..50], best_micro_batch);
    let shard_scaling_curve = curve_server.scaling_curve(&[100, 200, 400, 800], best_micro_batch);
    let shard_linearity_r2 = linearity_r2(&shard_scaling_curve);
    println!(
        "shard scaling curve (shards={best_n_shards} mb={best_micro_batch}): {:?} r2={:.4}",
        shard_scaling_curve, shard_linearity_r2
    );

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let baseline = Baseline {
        description: format!(
            "ServeStats throughput/latency for ModelServer::serve across a \
             1/2/4/8-worker sweep (micro-batch 1, comparable to BENCH_pr3) plus the \
             single-worker micro-batch sweep (micro_batch 1/2/4/8/16 \
             requests per tape, comparable to BENCH_pr4) on the shared bench world \
             (200 shops, 1-epoch offline cycle, seed 7/42); epoch-snapshot server, \
             per-worker inference contexts, kernel layer with pooled zero-alloc \
             tapes, batched tape dispatch with publish-time embedding + layer-0 \
             projection precompute, PR-6 SIMD micro-kernels (feature simd={}), \
             plus the PR-9 shard sweep: ShardedModelServer at 1/2/4/8 shards \
             with per-shard snapshots and work-stealing, same stream at the \
             best micro-batch (hardware-flat on 1 core: measures sharding \
             overhead, not parallel speedup)",
            cfg!(feature = "simd")
        ),
        n_shops: n,
        requests: shops.len(),
        hardware_cores: cores,
        runs,
        batch_runs,
        best_batched_per_second,
        best_micro_batch,
        seed_1worker_per_second: SEED_1WORKER_PER_SECOND,
        speedup_vs_seed_1worker: best_batched_per_second / SEED_1WORKER_PER_SECOND,
        pr3_1worker_per_second: PR3_1WORKER_PER_SECOND,
        batch1_vs_pr3_1worker: batch1_per_second / PR3_1WORKER_PER_SECOND,
        speedup_vs_pr3_1worker: best_batched_per_second / PR3_1WORKER_PER_SECOND,
        pr4_best_batched_per_second: PR4_BEST_BATCHED_PER_SECOND,
        speedup_vs_pr4_best_batched: best_batched_per_second / PR4_BEST_BATCHED_PER_SECOND,
        simd: cfg!(feature = "simd"),
        forward_us_per_request: 1e6 * best_seconds / shops.len() as f64,
        shard_runs,
        best_sharded_per_second,
        best_n_shards,
        sharded_vs_best_batched: best_sharded_per_second / best_batched_per_second,
        shard_scaling_curve,
        shard_linearity_r2,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serialises");
    std::fs::write("BENCH_pr9.json", json + "\n").expect("write BENCH_pr9.json");
    println!(
        "wrote BENCH_pr9.json ({cores} cores, simd={}): mb=1 {:.1}/s ({:.2}x pr3), best mb={} \
         {:.1}/s = {:.1} µs/req ({:.2}x pr4 best, {:.2}x pr3, {:.2}x seed); best sharded \
         {:.1}/s at {} shards ({:.2}x best batched), shard-curve r2={:.4}",
        cfg!(feature = "simd"),
        batch1_per_second,
        batch1_per_second / PR3_1WORKER_PER_SECOND,
        best_micro_batch,
        best_batched_per_second,
        1e6 * best_seconds / shops.len() as f64,
        best_batched_per_second / PR4_BEST_BATCHED_PER_SECOND,
        best_batched_per_second / PR3_1WORKER_PER_SECOND,
        best_batched_per_second / SEED_1WORKER_PER_SECOND,
        best_sharded_per_second,
        best_n_shards,
        best_sharded_per_second / best_batched_per_second,
        shard_linearity_r2
    );
}
