//! Regenerates the **Section VI** deployment experiment: the hybrid
//! offline-training → online-prediction pipeline, the MAPE improvement of
//! deployed Gaia over the previously deployed LogTrans (paper: 0.117 → 0.083,
//! a 29.1% relative improvement), and the linear scaling of inference time
//! with the number of clients.

use gaia_core::trainer::{predict_nodes, train};
use gaia_core::GaiaConfig;
use gaia_eval::{dump_json, metrics_overall, HarnessConfig};
use gaia_serving::{linearity_r2, ModelServer, OfflinePipeline, ServeConfig};
use serde::Serialize;

#[derive(Serialize)]
struct DeploymentResult {
    gaia_mape: f64,
    logtrans_mape: f64,
    mape_improvement_pct: f64,
    scaling_curve: Vec<(usize, f64)>,
    scaling_r2: f64,
    throughput_per_second: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = HarnessConfig::from_args(&args);
    let (world, ds) = cfg.materialize();

    // --- Offline: monthly pipeline trains and publishes Gaia. -------------
    let model_cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    let mut pipeline = OfflinePipeline::new(model_cfg, cfg.train.clone(), cfg.seed);
    eprintln!(
        "offline pipeline: training Gaia ({} shops, {} epochs)",
        cfg.world.n_shops, cfg.train.epochs
    );
    let (artifact, ds, _) = pipeline.execute_month(&world);

    // --- The previously deployed baseline: LogTrans. ----------------------
    eprintln!("training the deployed LogTrans baseline");
    let mut logtrans = gaia_baselines::LogTrans::new(
        gaia_baselines::LogTransConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s),
        cfg.seed,
    );
    train(&mut logtrans, &ds, &world.graph, &cfg.train);

    // --- Online: boot the server, treat the test split as new-coming
    //     e-sellers arriving for real-time prediction. ---------------------
    let server =
        std::sync::Arc::new(ModelServer::new(&artifact, world.graph.clone(), ds.clone(), cfg.seed));
    let newcomers = ds.splits.test.clone();
    let (gaia_preds, stats) =
        server.serve(&newcomers, ServeConfig { workers: cfg.train.threads, micro_batch: 1 });
    let lt_preds =
        predict_nodes(&logtrans, &ds, &world.graph, &newcomers, cfg.seed, cfg.train.threads);

    let actuals: Vec<Vec<f64>> =
        newcomers.iter().map(|&v| ds.targets_raw_row(v).to_vec()).collect();
    let gaia_cur: Vec<Vec<f64>> = gaia_preds.iter().map(|p| p.currency.clone()).collect();
    let lt_cur: Vec<Vec<f64>> = lt_preds.iter().map(|p| p.currency.clone()).collect();
    let gaia_m = metrics_overall(&gaia_cur, &actuals);
    let lt_m = metrics_overall(&lt_cur, &actuals);
    let improvement = (lt_m.mape - gaia_m.mape) / lt_m.mape * 100.0;

    // --- Scaling: inference time vs client count. -------------------------
    let sizes = [250, 500, 1000, 2000];
    let curve = server.scaling_curve(&sizes, cfg.train.threads);
    let r2 = linearity_r2(&curve);

    println!("\nSECTION VI: deployment in the simulated online environment\n");
    println!("deployed LogTrans MAPE : {:.4}", lt_m.mape);
    println!("deployed Gaia MAPE     : {:.4}", gaia_m.mape);
    println!("relative improvement   : {improvement:.1}%  (paper: 0.117 -> 0.083 = 29.1%)");
    println!("\ninference scaling (clients -> seconds):");
    for (n, s) in &curve {
        println!("  {n:>6} clients: {s:>8.3}s  ({:.0}/s)", *n as f64 / s.max(1e-9));
    }
    println!("linearity R^2 = {r2:.4}  (paper: \"inference time scales linearly\")");
    println!(
        "single-batch throughput: {:.0} predictions/s over {} newcomers",
        stats.per_second, stats.requests
    );

    let result = DeploymentResult {
        gaia_mape: gaia_m.mape,
        logtrans_mape: lt_m.mape,
        mape_improvement_pct: improvement,
        scaling_curve: curve,
        scaling_r2: r2,
        throughput_per_second: stats.per_second,
    };
    match dump_json("deployment", &result) {
        Ok(path) => eprintln!("JSON written to {}", path.display()),
        Err(e) => eprintln!("could not write JSON: {e}"),
    }
}
