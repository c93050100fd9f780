//! Supply-chain scenario: the paper's motivating example of *inter temporal
//! shift* — a supplier's GMV moves months before its retailers', so the
//! e-seller graph lets Gaia forecast retailers whose own history is short.
//!
//! This example:
//! 1. generates a world with a strong supplier lead,
//! 2. re-mines the supply-chain relations from raw order logs (the Fig 5
//!    Relation Extractor path) and measures mining precision/recall,
//! 3. trains Gaia and shows that retailers with nearly no history are still
//!    forecast within a sane band thanks to their suppliers.
//!
//! Run with `cargo run --release --example supply_chain`.

use gaia_core::trainer::{predict_nodes, train, TrainConfig};
use gaia_core::{Gaia, GaiaConfig};
use gaia_graph::{mine_supply_chain, MiningConfig};
use gaia_synth::{generate_dataset, Role, WorldConfig};
use std::collections::HashSet;

fn main() {
    let world_cfg = WorldConfig {
        n_shops: 300,
        supplier_fraction: 0.35,
        noise_std: 0.05,
        ..WorldConfig::default()
    };
    let (world, ds) = generate_dataset(world_cfg);

    // --- Relation mining from order logs ---------------------------------
    let volumes: Vec<Vec<f32>> = world
        .shops
        .iter()
        .map(|s| s.orders.iter().map(|&x| (1.0 + x as f32).ln()).collect())
        .collect();
    let candidates = world.mining_candidates(12);
    let mined =
        mine_supply_chain(&volumes, &candidates, &MiningConfig { max_lag: 3, threshold: 0.75 });
    let truth: HashSet<(u32, u32)> =
        world.true_supply_links.iter().map(|l| (l.supplier, l.retailer)).collect();
    let hits = mined.iter().filter(|m| truth.contains(&(m.supplier, m.retailer))).count();
    println!(
        "mined {} supply relations from order logs ({} candidates scanned); {} coincide with \
         ground-truth links ({:.0}% precision)",
        mined.len(),
        candidates.len(),
        hits,
        100.0 * hits as f64 / mined.len().max(1) as f64
    );

    // --- Train Gaia --------------------------------------------------------
    let cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    let mut model = Gaia::new(cfg, 9);
    let tc = TrainConfig { epochs: 6, verbose: false, ..TrainConfig::default() };
    train(&mut model, &ds, &world.graph, &tc);

    // --- Young retailers with supplier links ------------------------------
    let young_retailers: Vec<usize> = ds
        .splits
        .test
        .iter()
        .copied()
        .filter(|&v| {
            world.shops[v].role == Role::Retailer
                && ds.observed_len(v) < 8
                && world.graph.degree(v) >= 1
        })
        .take(5)
        .collect();
    println!("\nyoung retailers (observed < 8 months) forecast via their suppliers:");
    let preds = predict_nodes(&model, &ds, &world.graph, &young_retailers, 3, 4);
    for p in preds {
        let actual: f64 = ds.targets_raw_row(p.node).iter().sum();
        let predicted: f64 = p.currency.iter().sum();
        let suppliers = world
            .graph
            .neighbors(p.node)
            .iter()
            .filter(|nb| nb.ty == gaia_graph::EdgeType::SupplyChain)
            .count();
        println!(
            "  shop {:>4} ({} supply edges, {} observed months): predicted 3-month GMV {:>12.0}, \
             actual {:>12.0} (ratio {:.2})",
            p.node,
            suppliers,
            ds.observed_len(p.node),
            predicted,
            actual,
            predicted / actual.max(1.0)
        );
    }
}
