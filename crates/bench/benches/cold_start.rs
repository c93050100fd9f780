//! Cold-start benchmarks: the three stages before a server's boot
//! publish, on a 10k-shop world — `World::generate` (parallel GMV
//! synthesis by stream replay), `EsellerGraph::from_edges` (the counting
//! CSR build, also what every world mutation reruns) and `build_dataset`
//! (its per-shop passes over claimed segment runs).

use criterion::{criterion_group, criterion_main, Criterion};
use gaia_graph::{Edge, EsellerGraph};
use gaia_synth::{build_dataset, World, WorldConfig};
use std::hint::black_box;

const SHOPS: usize = 10_000;

fn config() -> WorldConfig {
    WorldConfig { n_shops: SHOPS, seed: 9, ..WorldConfig::default() }
}

fn bench_cold_start(c: &mut Criterion) {
    let world = World::generate(config());
    let edges: Vec<Edge> = world.graph.edges().collect();
    let mut group = c.benchmark_group("cold_start");
    group.sample_size(10);
    group.bench_function("world_generate_10k", |b| b.iter(|| black_box(World::generate(config()))));
    group.bench_function("from_edges_10k", |b| {
        b.iter(|| black_box(EsellerGraph::from_edges(SHOPS, &edges)))
    });
    group.bench_function("build_dataset_10k", |b| b.iter(|| black_box(build_dataset(&world))));
    group.finish();
}

criterion_group!(benches, bench_cold_start);
criterion_main!(benches);
