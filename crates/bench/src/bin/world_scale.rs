//! Emit the world-scale benchmark (`BENCH_world_scale.json`): how dataset
//! build time, publish time (full and 1%-churn delta) and approximate
//! resident bytes grow with `n_shops`, sweeping 1k / 10k / 100k / 10⁶
//! shops — the ROADMAP's "million-shop worlds" trajectory reached on this
//! container.
//!
//! Each row also reports `batched_publish_speedup`: the current
//! block-batched full publish against the frozen per-node figures the
//! previous PR committed at the same sizes ([`FROZEN_PER_NODE`]) — the
//! before/after evidence for the batched publish path. The 10⁶ row has no
//! frozen counterpart (the per-node path was never swept that far).
//!
//! Heap figures come from the `approx_heap_bytes()` accounting on
//! [`gaia_synth::Dataset`] and [`gaia_core::EmbedCache`] (capacity ×
//! element size + 16 B per allocation). The `pre_refactor_10k` block
//! records the same accounting measured against the nested per-shop layout
//! (one `Vec`/`Tensor` per shop, `Option<Tensor>` cache slots) immediately
//! before the flat-arena refactor landed, so the before/after ratio is
//! committed evidence, not a guess.
//!
//! Timing protocol: every timed phase is the **minimum of 5 consecutive
//! runs**. This container is single-core and single-shot wall timings
//! jitter by ±50% cold-vs-warm; the minimum is the stable, comparable
//! figure. The nested-layout baseline was measured with the same
//! best-of-5 protocol in the same session (same world seed, same serving
//! model, same machine) from a worktree pinned at the pre-refactor
//! commit, alternating baseline and current runs to cancel machine-load
//! drift.
//!
//! Every row publishes at the binary16 cache tier ([`CacheTier::F16`]),
//! the intended configuration at world scale.
//!
//! Run from the repo root with `cargo run --release -p gaia-bench --bin
//! world_scale`. Pass a shop count (e.g. `world_scale 1000`) to run a
//! single smoke row and skip writing the JSON — the CI smoke mode.
//! See `crates/bench/README.md` for the sweep protocol.

use gaia_core::{CacheTier, GaiaConfig};
use gaia_graph::EgoConfig;
use gaia_serving::{ModelArtifact, ModelServer};
use gaia_synth::{build_dataset, Dataset, DirtySet, MonthlySales, World, WorldConfig};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Baseline {
    description: String,
    hardware_cores: usize,
    simd: bool,
    /// Whether the published caches were stored at the binary16 tier.
    embed_f16: bool,
    /// One row per world size, ascending.
    runs: Vec<ScaleRun>,
    /// Nested-layout figures measured at 10k shops before the flat-arena
    /// refactor (same accounting, same world seed, same machine).
    pre_refactor_10k: PreRefactor,
    /// `pre_refactor_10k.dataset_build_seconds / (10k row's)`.
    dataset_build_speedup_10k: f64,
    /// `pre_refactor_10k.dataset_heap_bytes / (10k row's)`.
    dataset_bytes_ratio_10k: f64,
    /// `pre_refactor_10k.cache_heap_bytes / (10k row's cache bytes)`.
    cache_bytes_ratio_10k: f64,
    /// Combined dataset+cache before/after byte ratio at 10k.
    combined_bytes_ratio_10k: f64,
}

#[derive(Serialize)]
struct PreRefactor {
    n_shops: usize,
    dataset_build_seconds: f64,
    dataset_heap_bytes: usize,
    cache_heap_bytes: usize,
    full_publish_seconds: f64,
}

#[derive(Serialize)]
struct ScaleRun {
    n_shops: usize,
    /// Wall seconds for `World::generate`.
    world_gen_seconds: f64,
    /// Best-of-5 wall seconds for `build_dataset`.
    dataset_build_seconds: f64,
    /// `Dataset::approx_heap_bytes()` of the built dataset.
    dataset_heap_bytes: usize,
    /// Best-of-5 wall seconds for `ModelServer::publish_full` (whole-world
    /// feature refresh + embedding/projection precompute + freeze).
    full_publish_seconds: f64,
    /// Best-of-5 wall seconds for `ModelServer::publish_delta` with 1% of
    /// shops churned.
    delta_publish_1pct_seconds: f64,
    /// `EmbedCache::approx_heap_bytes()` of the published snapshot cache.
    cache_heap_bytes: usize,
    /// Stored edges in the generated graph.
    graph_edges: usize,
    /// Frozen per-node full-publish seconds at this size from the sweep
    /// committed before the batched publish landed ([`FROZEN_PER_NODE`]);
    /// `null` where that sweep had no row (the 10⁶ size).
    per_node_publish_frozen_seconds: Option<f64>,
    /// `per_node_publish_frozen_seconds / full_publish_seconds`.
    batched_publish_speedup: Option<f64>,
}

/// Per-node full-publish seconds committed in `BENCH_world_scale.json`
/// before the batched publish path landed — same world seed, serving
/// model, accounting and best-of-5 protocol, frozen here verbatim so the
/// batched-vs-per-node speedup survives the figures being overwritten.
const FROZEN_PER_NODE: [(usize, f64); 3] =
    [(1_000, 0.024319945), (10_000, 0.253021983), (100_000, 2.584596091)];

/// Pre-refactor nested-layout figures at 10k shops (see module docs).
/// Measured with the same `approx_heap_bytes` accounting rules and the
/// same best-of-5 (minimum) timing protocol against the per-shop
/// `Vec`/`Tensor` layout this PR replaced, via a baseline bin run from a
/// worktree at the pre-refactor commit in the same session as the
/// committed sweep.
const BEFORE_10K: PreRefactor = PreRefactor {
    n_shops: 10_000,
    dataset_build_seconds: 0.012374,
    dataset_heap_bytes: 10_200_144,
    cache_heap_bytes: 38_422_632,
    full_publish_seconds: 0.228225,
};

/// Minimum wall seconds over 5 consecutive runs of `f` (see module docs).
fn best_of_5<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..5 {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("ran at least once"))
}

/// The serving model every row publishes: small (publish cost is dominated
/// by per-node embedding precompute, which is what scales with `n_shops`),
/// untrained — publish latency does not depend on the trained weights —
/// and publishing at the f16 cache tier.
fn serving_model(ds: &Dataset) -> ModelArtifact {
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 4 };
    cfg.cache_tier = CacheTier::F16;
    ModelArtifact::untrained(cfg, 7)
}

/// Rewrite recent history of `count` spread-out shops (deep enough to move
/// the input window) and return the dirty set.
fn churn(world: &mut World, count: usize, horizon: usize) -> DirtySet {
    let n = world.shops.len();
    for i in 0..count {
        let shop = ((i * 37 + 11) % n) as u32;
        let window: Vec<MonthlySales> = (0..horizon + 2)
            .map(|m| MonthlySales {
                gmv: 3_000.0 + 71.0 * (i + m) as f64,
                orders: 20.0 + i as f64,
                customers: 9.0 + m as f64,
            })
            .collect();
        world.record_sales(shop, &window);
    }
    world.take_dirty()
}

/// One row, plus the tier its published cache was stored at.
fn run_one(n_shops: usize) -> (ScaleRun, CacheTier) {
    let wc = WorldConfig { n_shops, seed: 9, ..WorldConfig::default() };
    let start = Instant::now();
    let world = World::generate(wc);
    let world_gen_seconds = start.elapsed().as_secs_f64();

    let (dataset_build_seconds, ds) = best_of_5(|| build_dataset(&world));
    let dataset_heap_bytes = ds.approx_heap_bytes();
    let graph_edges = world.graph.num_edges();
    let horizon = ds.horizon;

    let artifact = serving_model(&ds);
    let server = ModelServer::new(&artifact, world.graph.clone(), ds, 42);
    let tier = server.snapshot().embeddings.tier();
    let cache_heap_bytes = server.snapshot().embeddings.approx_heap_bytes();

    // Full republish: whole-world feature refresh + precompute, measured
    // after the boot publish warmed the allocator.
    let (full_publish_seconds, _) = best_of_5(|| server.publish_full(&world));

    // Delta republish at 1% churn (republishing the same dirty set does
    // the same work each time, so best-of-5 measures a steady state).
    let mut churned = world.clone();
    let count = (n_shops / 100).max(1);
    let dirty = churn(&mut churned, count, horizon);
    let (delta_publish_1pct_seconds, _) = best_of_5(|| server.publish_delta(&churned, &dirty));

    let per_node_publish_frozen_seconds =
        FROZEN_PER_NODE.iter().find(|&&(n, _)| n == n_shops).map(|&(_, s)| s);
    let batched_publish_speedup = per_node_publish_frozen_seconds.map(|s| s / full_publish_seconds);

    let speedup_note = batched_publish_speedup
        .map(|s| format!(", {s:.2}x vs frozen per-node"))
        .unwrap_or_default();
    println!(
        "n={n_shops:>7}: world {world_gen_seconds:.2}s, dataset {dataset_build_seconds:.3}s \
         ({:.1} MB), full publish {full_publish_seconds:.4}s \
         ({:.1} MB {tier:?} cache){speedup_note}, \
         delta@1% {delta_publish_1pct_seconds:.4}s, {graph_edges} edges",
        dataset_heap_bytes as f64 / 1e6,
        cache_heap_bytes as f64 / 1e6,
    );
    let run = ScaleRun {
        n_shops,
        world_gen_seconds,
        dataset_build_seconds,
        dataset_heap_bytes,
        full_publish_seconds,
        delta_publish_1pct_seconds,
        cache_heap_bytes,
        graph_edges,
        per_node_publish_frozen_seconds,
        batched_publish_speedup,
    };
    (run, tier)
}

fn main() {
    // Smoke mode: `world_scale <n>` runs one row and writes nothing — used
    // by CI to keep the bin exercised without paying for the full sweep.
    if let Some(arg) = std::env::args().nth(1) {
        let n: usize = arg.parse().expect("usage: world_scale [n_shops]");
        run_one(n);
        return;
    }

    let (runs, tiers): (Vec<ScaleRun>, Vec<CacheTier>) =
        [1_000usize, 10_000, 100_000, 1_000_000].into_iter().map(run_one).unzip();
    let embed_f16 = tiers.iter().all(|&tier| tier == CacheTier::F16);

    let at_10k = runs.iter().find(|r| r.n_shops == 10_000).expect("10k row");
    let dataset_build_speedup_10k = BEFORE_10K.dataset_build_seconds / at_10k.dataset_build_seconds;
    let dataset_bytes_ratio_10k =
        BEFORE_10K.dataset_heap_bytes as f64 / at_10k.dataset_heap_bytes as f64;
    let cache_bytes_ratio_10k = BEFORE_10K.cache_heap_bytes as f64 / at_10k.cache_heap_bytes as f64;
    let combined_bytes_ratio_10k = (BEFORE_10K.dataset_heap_bytes + BEFORE_10K.cache_heap_bytes)
        as f64
        / (at_10k.dataset_heap_bytes + at_10k.cache_heap_bytes) as f64;

    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let baseline = Baseline {
        description: format!(
            "World-scale sweep: dataset build, full/delta publish latency and \
             approx resident bytes vs n_shops on the flat-arena layout \
             (contiguous Dataset feature arenas + contiguous EmbedCache \
             segments) with the block-batched publish path, untrained \
             8-channel 1-layer serving model, world seed 9. Each row's \
             batched_publish_speedup compares against the frozen per-node \
             publish figures from the pre-batching sweep; pre_refactor_10k \
             holds the nested per-shop layout figures from before the \
             flat-arena refactor (simd={}, embed_f16={})",
            cfg!(feature = "simd"),
            embed_f16,
        ),
        hardware_cores: cores,
        simd: cfg!(feature = "simd"),
        embed_f16,
        runs,
        pre_refactor_10k: BEFORE_10K,
        dataset_build_speedup_10k,
        dataset_bytes_ratio_10k,
        cache_bytes_ratio_10k,
        combined_bytes_ratio_10k,
    };
    let json = serde_json::to_string_pretty(&baseline).expect("baseline serialises");
    std::fs::write("BENCH_world_scale.json", json + "\n").expect("write BENCH_world_scale.json");
    println!(
        "wrote BENCH_world_scale.json: dataset build {dataset_build_speedup_10k:.2}x, \
         dataset bytes {dataset_bytes_ratio_10k:.2}x, cache bytes {cache_bytes_ratio_10k:.2}x \
         vs nested layout at 10k shops"
    );
}
