//! Pipeline-level benchmarks: ego-subgraph extraction (the AGL instance
//! generation, with the fanout-cap ablation), Fig 4 attention introspection,
//! the Fig 1(a) histogram workload and the Section VI batch-inference
//! scaling points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gaia_bench::bench_world;
use gaia_core::trainer::predict_nodes;
use gaia_core::{Gaia, GaiaConfig};
use gaia_graph::{extract_ego, EgoConfig, Histogram};
use gaia_tensor::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_ego_extraction(c: &mut Criterion) {
    let (world, _) = bench_world();
    let mut group = c.benchmark_group("ego_extraction_fanout");
    for &fanout in &[2usize, 4, 8, usize::MAX] {
        let label = if fanout == usize::MAX { "unbounded".to_string() } else { fanout.to_string() };
        group.bench_with_input(BenchmarkId::from_parameter(label), &fanout, |b, &fanout| {
            let mut rng = StdRng::seed_from_u64(3);
            let cfg = EgoConfig { hops: 2, fanout };
            let mut node = 0usize;
            b.iter(|| {
                node = (node + 7) % world.graph.num_nodes();
                black_box(extract_ego(&world.graph, node, &cfg, &mut rng))
            });
        });
    }
    group.finish();
}

fn bench_fig4_introspection(c: &mut Criterion) {
    let (world, ds) = bench_world();
    let cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    let model = Gaia::new(cfg.clone(), 5);
    let center = (0..ds.n).max_by_key(|&v| world.graph.degree(v)).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let ego = extract_ego(&world.graph, center, &cfg.ego, &mut rng);
    c.bench_function("fig4_attention_introspection", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            black_box(model.attention_at_center(&mut g, &ds, &ego))
        });
    });
}

fn bench_fig1a_histogram(c: &mut Criterion) {
    let (_, ds) = bench_world();
    let lens: Vec<f64> = (0..ds.n).map(|v| ds.observed_len(v) as f64).collect();
    c.bench_function("fig1a_histogram", |b| {
        b.iter(|| black_box(Histogram::fixed(&lens, 0.0, 25.0, 25)));
    });
}

fn bench_inference_scaling(c: &mut Criterion) {
    let (world, ds) = bench_world();
    let cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    let model = Gaia::new(cfg, 5);
    let mut group = c.benchmark_group("section6_batch_inference");
    group.sample_size(10);
    for &n in &[8usize, 32, 64] {
        let nodes: Vec<usize> = (0..n).collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(predict_nodes(&model, &ds, &world.graph, &nodes, 1, 4)));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_ego_extraction,
    bench_fig4_introspection,
    bench_fig1a_histogram,
    bench_inference_scaling
);
criterion_main!(benches);
