//! `monthly-1k`: the paper's monthly cycle on the paper-shaped model.
//!
//! A 1k-shop world is served by an untrained `GaiaConfig::new` model
//! (C=32, K=4, two ITA-GCN layers, 2-hop fanout-6 egos). One
//! `OfflinePipeline::execute_month` trains it for one epoch and
//! `ModelServer::publish` hot-swaps the artifact in. Then, for the rest of
//! the run, each pass publishes the artifact again and forecasts every
//! shop through `predict_batch` at micro-batch 8. The test split's MAPE
//! must be finite and below the untrained model's.

use crate::common::*;
use crate::workloads::serve::{ego_metrics, request_path_metrics};
use gaia_core::trainer::{train, Prediction, TrainConfig};
use gaia_core::{Gaia, GaiaConfig};
use gaia_serving::OfflinePipeline;
use gaia_synth::{build_dataset, Dataset};
use perfbench::stats::{percentile, sorted, stage_residual};
use perfbench::trace::Tracer;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

const N_SHOPS: usize = 1_000;
const WORLD_SEED: u64 = 99;
/// Seed of the boot model and of the offline pipeline, so the trained
/// model starts from the served untrained one.
const MODEL_SEED: u64 = 7;
/// Timed set-ups before the cycle, after one warm-up. One more is timed
/// after every forecast pass, so `setup_s`, their median, samples the
/// whole run.
const SETUPS: usize = 3;
/// One forecast in this many is re-checked on a fresh, uncached scratch.
const CHECK_EVERY: usize = 64;

fn paper_config(ds: &Dataset) -> GaiaConfig {
    GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let booted = boot(N_SHOPS, WORLD_SEED, MODEL_SEED, paper_config, SETUPS);
    let mut setup_times = booted.times;
    let (world, server) = (booted.world, booted.server);
    let (boot_snap, _) = consistent_snapshot(&server);
    let n = boot_snap.ds.n;
    let test = boot_snap.ds.splits.test.clone();

    // The untrained model's error on the test split: the bar training
    // must clear.
    let mut ctx = server.inference_context();
    let untrained: Vec<Prediction> =
        test.chunks(MICRO_BATCH).flat_map(|c| ctx.predict_batch(c)).collect();
    let untrained_mape = mape(&boot_snap.ds, &untrained);
    drop(boot_snap);

    // ---- The monthly cycle. ----
    let tc = TrainConfig {
        epochs: 1,
        batch_size: 32,
        threads: nproc(),
        verbose: false,
        ..TrainConfig::default()
    };
    let cfg = paper_config(&server.snapshot().ds);
    let mut pipeline = OfflinePipeline::new(cfg.clone(), tc.clone(), MODEL_SEED);
    let t = Instant::now();
    let (artifact, _, _) = pipeline.execute_month(&world);
    let cycle_s = secs(t);
    out.set("serving.execute_month_s", cycle_s);
    let origin = Instant::now();
    let mut cycle_tracer = Tracer::new(origin);
    if args.trace {
        let tracer = &mut cycle_tracer;
        // Replay the cycle stage by stage beside the real call; training
        // is deterministic, so the checkpoint must come out identical.
        let root = tracer.begin("serving.execute_month", None, 1);
        let s = tracer.begin("synth.build_dataset", Some(root), 1);
        let ds = build_dataset(&world);
        tracer.end(s);
        let s = tracer.begin("core.model_init", Some(root), 1);
        let mut model = Gaia::new(cfg.clone(), pipeline.cycle_seed(1));
        tracer.end(s);
        let s = tracer.begin("core.train", Some(root), 1);
        train(&mut model, &ds, &world.graph, &tc);
        let train_s = tracer.end(s) as f64 / 1e9;
        let s = tracer.begin("core.checkpoint", Some(root), 1);
        let checkpoint = model.checkpoint();
        tracer.end(s);
        tracer.end(root);
        out.set("core.train_s", train_s);
        out.set("core.train_samples_per_s", ds.splits.train.len() as f64 / train_s);
        let stages: Vec<f64> =
            tracer.spans()[1..].iter().map(|s| s.duration_ns() as f64 / 1e9).collect();
        out.set("bench.cycle_stage_residual_pct", stage_residual(cycle_s, &stages).residual_pct);
        out.count(1, u64::from(checkpoint != artifact.checkpoint));
    }
    let t = Instant::now();
    server.publish(&artifact);
    out.set("serving.model_publish_ms", secs(t) * 1e3);

    // ---- Publish-and-forecast passes. ----
    let mut replay = Replay::new(&server);
    let mut tracer = Tracer::new(origin);
    let order: Vec<usize> = (0..n).collect();
    let mut publish_ms = Vec::new();
    let mut latency_ms = Vec::new();
    let (mut preds_served, mut forecast_s, mut failed, mut checked, mut mismatched) =
        (0u64, 0.0, 0u64, 0u64, 0u64);
    let mut trained_mape = f64::NAN;
    let mut op = 0u64;
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < deadline {
        if pass > 0 {
            let t = Instant::now();
            server.publish(&artifact);
            publish_ms.push(secs(t) * 1e3);
        }
        let (snap, _) = consistent_snapshot(&server);
        replay.revalidate(&server);
        let mut shuffled = order.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(mix(args.seed, pass)));
        let mut by_shop: Vec<Option<Prediction>> = vec![None; n];
        for chunk in shuffled.chunks(MICRO_BATCH) {
            op += 1;
            let t = Instant::now();
            let preds = if args.trace {
                replay.batch(chunk, &mut tracer, op)
            } else {
                ctx.predict_batch(chunk)
            };
            let dt = secs(t);
            // The first pass warms the tape pool and scores the forecast;
            // later passes are timed.
            if pass > 0 {
                latency_ms.push(dt * 1e3);
                forecast_s += dt;
                preds_served += preds.len() as u64;
            }
            failed += preds.iter().filter(|p| !well_formed(p)).count() as u64;
            if args.trace && op.is_multiple_of(16) {
                let want = replay.served(chunk);
                checked += 1;
                mismatched +=
                    u64::from(want.iter().zip(&preds).any(|(w, g)| w.model_space != g.model_space));
            }
            for p in preds {
                let slot = p.node;
                by_shop[slot] = Some(p);
            }
        }
        for shop in (0..n).step_by(CHECK_EVERY) {
            let got = by_shop[shop].as_ref().expect("every shop forecast");
            checked += 1;
            mismatched += u64::from(got.model_space != uncached(&snap, shop).model_space);
        }
        drop(set_up(N_SHOPS, WORLD_SEED, MODEL_SEED, paper_config, &mut setup_times));
        if pass == 0 {
            let test_preds: Vec<Prediction> =
                test.iter().map(|&v| by_shop[v].clone().expect("forecast")).collect();
            trained_mape = mape(&snap.ds, &test_preds);
            tracer = Tracer::new(origin);
        }
        pass += 1;
    }
    setup_times.report(&mut out);
    out.count(preds_served, failed);
    out.count(checked, mismatched);
    eprintln!("monthly-1k: cycle {cycle_s:.2}s, {pass} passes, MAPE {trained_mape:.4} (untrained {untrained_mape:.4})");
    out.set("quality.forecast_mape", trained_mape);
    if !(trained_mape.is_finite() && trained_mape < untrained_mape) {
        out.violate(format!(
            "forecast MAPE {trained_mape} does not beat the untrained model's {untrained_mape}"
        ));
    }
    let publish = sorted(publish_ms);
    out.set("publish_p50_ms", percentile(&publish, 0.5).unwrap_or(f64::INFINITY));
    out.set("publish_p99_ms", percentile(&publish, 0.99).unwrap_or(f64::INFINITY));
    let lat = sorted(latency_ms);
    out.set("latency_p50_ms", percentile(&lat, 0.5).unwrap_or(f64::INFINITY));
    out.set("latency_p90_ms", percentile(&lat, 0.9).unwrap_or(f64::INFINITY));
    out.set("bench.latency_p99_ms", percentile(&lat, 0.99).unwrap_or(f64::INFINITY));
    out.set("throughput_rps", preds_served as f64 / forecast_s.max(1e-9));
    if args.trace {
        request_path_metrics(&mut out, &tracer);
        ego_metrics(&mut out, replay.snapshot(), &order);
        out.set("tensor.fresh_allocs", steady_state_allocs(&server, n, args.seed, 200, 200) as f64);
        cycle_tracer.absorb(tracer);
        write_trace(args, &cycle_tracer);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}
