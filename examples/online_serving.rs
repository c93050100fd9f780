//! Online-serving scenario (Section VI / Fig 5): the monthly offline
//! pipeline trains and publishes Gaia; the online model server answers
//! real-time forecasts for new-coming e-sellers, survives a hot model swap,
//! and demonstrates the linear inference-time scaling the paper reports.
//!
//! Run with `cargo run --release --example online_serving`.

use gaia_core::trainer::TrainConfig;
use gaia_core::GaiaConfig;
use gaia_serving::{linearity_r2, ModelServer, OfflinePipeline, ServeConfig};
use gaia_synth::{generate_dataset, WorldConfig};
use std::sync::Arc;

fn main() {
    let (world, ds0) = generate_dataset(WorldConfig { n_shops: 300, ..WorldConfig::default() });

    // --- Offline: first monthly execution ---------------------------------
    let model_cfg = GaiaConfig::new(ds0.t, ds0.horizon, ds0.d_t, ds0.d_s);
    let train_cfg = TrainConfig { epochs: 4, verbose: false, ..TrainConfig::default() };
    let mut pipeline = OfflinePipeline::new(model_cfg, train_cfg, 11);
    let (artifact, ds, report) = pipeline.execute_month(&world);
    println!(
        "offline pipeline v{}: trained in {:.1}s, final MSE {:.5}",
        artifact.version,
        report.epoch_seconds.iter().sum::<f64>(),
        artifact.final_train_loss
    );

    // --- Online: boot the server and serve newcomers ----------------------
    let server = Arc::new(ModelServer::new(&artifact, world.graph.clone(), ds.clone(), 5));
    let newcomers: Vec<usize> = ds.splits.test.iter().take(40).copied().collect();
    let (preds, stats) = server.serve(&newcomers, ServeConfig { workers: 4, micro_batch: 1 });
    println!(
        "served {} real-time predictions through the worker pool \
         ({:.0}/s, p50 {:.2}ms, p99 {:.2}ms from enqueue)",
        preds.len(),
        stats.per_second,
        stats.latency_p50 * 1e3,
        stats.latency_p99 * 1e3
    );
    let p = &preds[0];
    println!(
        "  e.g. shop {}: next-3-month GMV forecast = {:?}",
        p.node,
        p.currency.iter().map(|v| v.round()).collect::<Vec<_>>()
    );

    // --- Monthly re-execution and hot swap --------------------------------
    let (artifact2, _, _) = pipeline.execute_month(&world);
    server.publish(&artifact2);
    println!("hot-swapped to model v{} with zero downtime", server.version());

    // --- Scaling curve ------------------------------------------------------
    let sizes = [100, 200, 400, 800];
    let curve = server.scaling_curve(&sizes, 4);
    println!("\ninference scaling (clients -> seconds):");
    for (n, s) in &curve {
        println!("  {n:>5} clients: {s:.3}s");
    }
    println!("linearity R^2 = {:.4} (paper: inference time scales linearly)", linearity_r2(&curve));
}
