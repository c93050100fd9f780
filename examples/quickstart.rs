//! Quickstart: generate a synthetic e-seller world, train Gaia for a few
//! epochs, and forecast the next three months of GMV for a handful of shops.
//!
//! Run with:
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gaia_core::trainer::{predict_nodes, train, TrainConfig};
use gaia_core::{Gaia, GaiaConfig};
use gaia_synth::{generate_dataset, WorldConfig};

fn main() {
    // 1. A small world: 300 shops, 36 months, supply-chain + same-owner
    //    edges, skewed shop ages (the paper's temporal deficiency).
    let world_cfg = WorldConfig { n_shops: 300, ..WorldConfig::default() };
    let (world, ds) = generate_dataset(world_cfg);
    println!(
        "world: {} shops, {} edges, input window T={} months, horizon T'={}",
        ds.n,
        world.graph.num_edges(),
        ds.t,
        ds.horizon
    );

    // 2. Build Gaia with the paper's architecture (C=32, K=4 kernel groups,
    //    L=2 ITA-GCN layers) and train it.
    let cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    let mut model = Gaia::new(cfg, 42);
    println!("Gaia parameters: {}", model.num_params());
    let tc = TrainConfig { epochs: 5, verbose: true, ..TrainConfig::default() };
    let report = train(&mut model, &ds, &world.graph, &tc);
    println!(
        "training done: first-epoch MSE {:.5} -> last-epoch MSE {:.5}",
        report.train_loss.first().unwrap(),
        report.train_loss.last().unwrap()
    );

    // 3. Forecast three test shops and compare to the ground truth.
    let shops: Vec<usize> = ds.splits.test.iter().take(3).copied().collect();
    let preds = predict_nodes(&model, &ds, &world.graph, &shops, 7, 4);
    for p in preds {
        let actual = ds.targets_raw_row(p.node);
        println!("\nshop {} (observed {} of {} months):", p.node, ds.observed_len(p.node), ds.t);
        for h in 0..ds.horizon {
            println!(
                "  month +{}: predicted {:>12.0}  actual {:>12.0}",
                h + 1,
                p.currency[h],
                actual[h]
            );
        }
    }
}
