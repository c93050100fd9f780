//! `serve-100k`: the open-loop read path on a 100k-shop world.
//!
//! The run alternates rounds of two phases. In the open-loop phase one
//! generator thread sends requests for uniformly random shops at
//! precomputed Poisson arrival times and one worker thread drains up to
//! [`MICRO_BATCH`] queued requests per `InferenceContext::predict_batch`.
//! Latency is completion minus *scheduled arrival*, so a stall is charged
//! to every request that queued behind it. In the closed-loop saturation
//! phase the worker is never idle; it gives `throughput_rps`. Alternating
//! the phases lets both sample the whole run, not one end of it.

use crate::common::*;
use gaia_core::trainer::Prediction;
use gaia_serving::ModelSnapshot;
use perfbench::stats::{
    mean, percentile, poisson_schedule, sorted, stage_residual, windowed_percentile,
};
use perfbench::trace::{totals_by_name, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const N_SHOPS: usize = 100_000;
pub const WORLD_SEED: u64 = 9;
pub const MODEL_SEED: u64 = 7;
/// Timed set-ups per run, after one warm-up; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Fixed open-loop arrival rate, requests per second: a quarter to a third
/// of the saturated capacity of the seed code at micro-batch 8 on 2 vCPUs
/// (26k–48k preds/s as the host's load varies). At half capacity the tail
/// of identical runs on a shared VM spread several-fold with the host's
/// load; at this rate it spreads far less.
pub const RATE: f64 = 8_000.0;
/// One round: an open-loop phase then a saturation phase.
const ROUND_S: f64 = 2.0;
/// Share of a round spent in the open-loop phase.
const OPEN_SHARE: f64 = 0.6;
/// Tail percentiles are medians of per-window percentiles over windows of
/// this many consecutive arrivals (200 ms at [`RATE`]; 16 samples beyond
/// each window's p99, 160 beyond its p90). A hypervisor stall then inflates
/// the windows it lands in, not the figure; the pooled p99, stalls
/// included, is reported as `bench.pooled_p99_ms` by the traced run.
const TAIL_WINDOW: usize = 1_600;
/// One request in this many is re-checked on a fresh, uncached scratch.
const CHECK_EVERY: u64 = 64;
/// A run is invalid when the generator's *median* send lag exceeds this:
/// it could not keep pace, so the offered load was below the stated rate.
/// Its p99 is only reported — a hypervisor stall delays the generator as
/// it delays the worker, and latency from scheduled arrival charges it.
const MAX_GENERATOR_LAG_P50_S: f64 = 100e-6;

/// Everything the open-loop phases recorded, across rounds.
#[derive(Default)]
struct OpenLoop {
    /// Per request, in arrival order: completion minus scheduled arrival
    /// (`+∞` for a failed request).
    latency_ms: Vec<f64>,
    /// Per request: how late the generator sent it.
    lag_s: Vec<f64>,
    /// Per request: service start minus scheduled arrival.
    wait_us: Vec<f64>,
    batch_sizes: Vec<f64>,
    /// Sampled served predictions, re-checked after the run.
    stash: Vec<(usize, Vec<f32>)>,
    /// Traced run: every 16th served batch, re-served by `predict_batch`.
    parity: Vec<(Vec<usize>, Vec<Vec<f32>>)>,
    failed: u64,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let booted = boot(N_SHOPS, WORLD_SEED, MODEL_SEED, small_serving_config, SETUPS);
    booted.times.report(&mut out);
    // The boot publish is this workload's publish: a full one.
    let mut publish_ms: Vec<f64> = booted.times.boot_publish_s.iter().map(|s| s * 1e3).collect();
    let server = &booted.server;
    let (n, artifact) = {
        let (snap, _) = consistent_snapshot(server);
        out.set("core.cache_bytes", snap.embeddings.approx_heap_bytes() as f64);
        if args.trace {
            let t = Instant::now();
            drop(snap.model.precompute_embeddings(&snap.ds).into_shared());
            out.set("core.full_precompute_s", secs(t));
        }
        (snap.ds.n, untrained_artifact(&small_serving_config(&snap.ds), MODEL_SEED))
    };

    // Warm-up: every batch size, enough requests to fault in the tape pool.
    let mut ctx = server.inference_context();
    let mut replay = Replay::new(server);
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 0xA11));
    for size in (1..=MICRO_BATCH).cycle().take(4_000) {
        let shops: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
        std::hint::black_box(ctx.predict_batch(&shops));
        if args.trace {
            std::hint::black_box(replay.batch(&shops, &mut Tracer::new(Instant::now()), 0));
        }
    }

    let origin = Instant::now();
    let mut tracer = Tracer::new(origin);
    let mut sat_tracer = Tracer::new(origin);
    let mut open = OpenLoop::default();
    let (mut sat_batches, mut sat_s) = (0u64, 0.0);
    let (mut traced_batches, mut traced_s) = (0u64, 0.0);
    let mut op = 0u64;
    let rounds = ((args.seconds / ROUND_S).round() as u64).max(1);
    for round in 0..rounds {
        if args.trace {
            open_loop_round(args.seed, round, n, &mut open, true, &mut |shops| {
                op += 1;
                replay.batch(shops, &mut tracer, op)
            });
        } else {
            open_loop_round(args.seed, round, n, &mut open, false, &mut |shops| {
                ctx.predict_batch(shops)
            });
        }
        let sat = ROUND_S * (1.0 - OPEN_SHARE);
        if args.trace {
            // Half untraced, half traced: their ratio is the tracing
            // overhead, and the traced stages are set against the
            // untraced wall time.
            let (b, s) = saturate(sat / 2.0, &mut rng, n, &mut out, |b| ctx.predict_batch(b));
            (sat_batches, sat_s) = (sat_batches + b, sat_s + s);
            let (b, s) = saturate(sat / 2.0, &mut rng, n, &mut out, |b| {
                op += 1;
                replay.batch(b, &mut sat_tracer, op)
            });
            (traced_batches, traced_s) = (traced_batches + b, traced_s + s);
        } else {
            let (b, s) = saturate(sat, &mut rng, n, &mut out, |b| ctx.predict_batch(b));
            (sat_batches, sat_s) = (sat_batches + b, sat_s + s);
        }
        // Every round ends with a full republish of the serving model (the
        // same artifact, so the same predictions), timed for the publish
        // metrics beside the boot publishes, while no request is in
        // flight. Spread over the run, these samples do not all share one
        // phase of the host's speed, as the boot publishes of a run do.
        // (With a republish every third round, the median of a run's 8
        // publishes still spread 0.24–0.30 of the median over ten runs.)
        let t = Instant::now();
        server.publish(&artifact);
        publish_ms.push(secs(t) * 1e3);
    }
    let publish_ms = sorted(publish_ms);
    out.set("publish_p50_ms", percentile(&publish_ms, 0.5).unwrap_or(f64::INFINITY));
    out.set("publish_p99_ms", percentile(&publish_ms, 0.99).unwrap_or(f64::INFINITY));
    let total = open.latency_ms.len() as u64;
    out.count(total, open.failed);
    out.set("throughput_rps", (sat_batches * MICRO_BATCH as u64) as f64 / sat_s);

    let lat_sorted = sorted(open.latency_ms.clone());
    out.set("latency_p50_ms", percentile(&lat_sorted, 0.5).unwrap_or(f64::INFINITY));
    out.set(
        "latency_p90_ms",
        windowed_percentile(&open.latency_ms, TAIL_WINDOW, 0.9, 0.5).unwrap_or(f64::INFINITY),
    );
    out.set(
        "bench.latency_p99_ms",
        windowed_percentile(&open.latency_ms, TAIL_WINDOW, 0.99, 0.5).unwrap_or(f64::INFINITY),
    );
    let lag = sorted(open.lag_s.clone());
    let lag_p99 = percentile(&lag, 0.99).unwrap_or(0.0);
    eprintln!(
        "serve-100k: {total} arrivals at {RATE}/s, pooled p99 {:.3} ms, p999 {:.3} ms, generator lag p99 {:.1} us",
        percentile(&lat_sorted, 0.99).unwrap_or(f64::NAN),
        percentile(&lat_sorted, 0.999).unwrap_or(f64::NAN),
        lag_p99 * 1e6
    );
    out.set("bench.generator_lag_us.p99", lag_p99 * 1e6);
    out.set("bench.pooled_p99_ms", percentile(&lat_sorted, 0.99).unwrap_or(f64::INFINITY));
    let lag_p50 = percentile(&lag, 0.5).unwrap_or(0.0);
    if lag_p50 > MAX_GENERATOR_LAG_P50_S {
        out.violate(format!("generator fell behind: median send lag {:.0} us", lag_p50 * 1e6));
    }

    // Sampled served predictions against a fresh, uncached scratch. Every
    // republish installs the same artifact on the same data, so the
    // current snapshot predicts what the one that served them did.
    let (snap, _) = consistent_snapshot(server);
    let mismatched =
        open.stash.iter().filter(|(shop, got)| *got != uncached(&snap, *shop).model_space).count();
    out.count(open.stash.len() as u64, mismatched as u64);

    if args.trace {
        // The replay must be the served path: re-serve sampled batches
        // through `predict_batch` and compare bit for bit.
        let mismatched = open
            .parity
            .iter()
            .filter(|(shops, got)| {
                replay.served(shops).iter().zip(got).any(|(w, g)| &w.model_space != g)
            })
            .count();
        out.count(open.parity.len() as u64, mismatched as u64);
        let wait = sorted(open.wait_us.clone());
        out.set("serving.queue_wait_us.p50", percentile(&wait, 0.5).unwrap_or(0.0));
        out.set("serving.queue_wait_us.p99", percentile(&wait, 0.99).unwrap_or(0.0));
        out.set("serving.batch_size.mean", mean(&open.batch_sizes).unwrap_or(0.0));
        request_path_metrics(&mut out, &tracer);
        ego_metrics(&mut out, &snap, &random_shops(mix(args.seed, 0xE60), n, 20_000));
        out.set(
            "tensor.fresh_allocs",
            steady_state_allocs(server, n, args.seed, 4_000, 2_000) as f64,
        );

        let (untraced, traced) = (sat_s / sat_batches as f64, traced_s / traced_batches as f64);
        out.set("bench.trace_overhead_pct", 100.0 * (traced / untraced - 1.0));
        let totals = totals_by_name(sat_tracer.spans());
        let stages: Vec<f64> =
            ["graph.extract_ego", "tensor.tape_reset", "core.forward", "core.denorm"]
                .iter()
                .map(|name| {
                    totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9)
                        / traced_batches as f64
                })
                .collect();
        out.set("bench.stage_residual_pct", stage_residual(untraced, &stages).residual_pct);
        tracer.absorb(sat_tracer);
        write_trace(args, &tracer);
    }
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// One open-loop phase: a generator thread sends the round's seeded
/// Poisson schedule while this thread serves it through `serve`.
fn open_loop_round(
    seed: u64,
    round: u64,
    n: usize,
    acc: &mut OpenLoop,
    traced: bool,
    serve: &mut dyn FnMut(&[usize]) -> Vec<Prediction>,
) {
    let schedule = poisson_schedule(RATE, ROUND_S * OPEN_SHARE, mix(seed, 2 * round));
    let mut rng = StdRng::seed_from_u64(mix(seed, 2 * round + 1));
    let shops: Vec<usize> = schedule.iter().map(|_| rng.gen_range(0..n)).collect();
    let first = acc.latency_ms.len();
    acc.latency_ms.resize(first + schedule.len(), f64::INFINITY);
    let (tx, rx) = mpsc::channel::<usize>();
    let start = Instant::now() + Duration::from_millis(2);
    let lag = std::thread::scope(|scope| {
        let schedule = &schedule;
        let generator = scope.spawn(move || {
            let mut lag = Vec::with_capacity(schedule.len());
            for (i, &offset) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(offset);
                let mut now = Instant::now();
                while now < due {
                    std::hint::spin_loop();
                    now = Instant::now();
                }
                lag.push((now - due).as_secs_f64());
                tx.send(i).expect("worker outlives the generator");
            }
            lag
        });
        let since_start = || Instant::now().saturating_duration_since(start).as_secs_f64();
        let mut batch: Vec<usize> = Vec::with_capacity(MICRO_BATCH);
        let mut batch_shops: Vec<usize> = Vec::with_capacity(MICRO_BATCH);
        while let Ok(i) = rx.recv() {
            batch.clear();
            batch.push(i);
            while batch.len() < MICRO_BATCH {
                match rx.try_recv() {
                    Ok(i) => batch.push(i),
                    Err(_) => break,
                }
            }
            batch_shops.clear();
            batch_shops.extend(batch.iter().map(|&i| shops[i]));
            let service_start = since_start();
            let result = catch_unwind(AssertUnwindSafe(|| serve(&batch_shops)));
            let done = since_start();
            acc.batch_sizes.push(batch.len() as f64);
            acc.wait_us.extend(batch.iter().map(|&i| (service_start - schedule[i]) * 1e6));
            let Ok(preds) = result else {
                acc.failed += batch.len() as u64;
                continue;
            };
            if traced && acc.batch_sizes.len().is_multiple_of(16) {
                acc.parity.push((
                    batch_shops.clone(),
                    preds.iter().map(|p| p.model_space.clone()).collect(),
                ));
            }
            for (&i, pred) in batch.iter().zip(preds) {
                if !well_formed(&pred) {
                    acc.failed += 1;
                    continue;
                }
                acc.latency_ms[first + i] = (done - schedule[i]) * 1e3;
                if mix(seed, (first + i) as u64).is_multiple_of(CHECK_EVERY) {
                    acc.stash.push((shops[i], pred.model_space));
                }
            }
        }
        generator.join().expect("generator thread panicked")
    });
    acc.lag_s.extend(lag);
}

/// Closed loop of random micro-batches for `seconds`: returns the batches
/// served and the seconds they took, counting malformed predictions as
/// failures.
fn saturate(
    seconds: f64,
    rng: &mut StdRng,
    n: usize,
    out: &mut Outcome,
    mut serve: impl FnMut(&[usize]) -> Vec<Prediction>,
) -> (u64, f64) {
    let t = Instant::now();
    let (mut batches, mut failed) = (0u64, 0u64);
    while secs(t) < seconds {
        let shops: Vec<usize> = (0..MICRO_BATCH).map(|_| rng.gen_range(0..n)).collect();
        failed += serve(&shops).iter().filter(|p| !well_formed(p)).count() as u64;
        batches += 1;
    }
    out.count(batches * MICRO_BATCH as u64, failed);
    (batches, secs(t))
}

/// Per-layer timings of the replayed request path, shared by the workloads
/// that trace it. Service time is the duration of each replayed
/// `predict_batch`.
pub fn request_path_metrics(out: &mut Outcome, tracer: &Tracer) {
    let service: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "serving.predict_batch")
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect();
    let service = sorted(service);
    out.set("serving.service_us.p50", percentile(&service, 0.5).unwrap_or(0.0));
    out.set("serving.service_us.p99", percentile(&service, 0.99).unwrap_or(0.0));
    let totals = totals_by_name(tracer.spans());
    let mean_us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    out.set("graph.ego_us", mean_us("graph.extract_ego"));
    out.set("tensor.tape_reset_us", mean_us("tensor.tape_reset"));
    out.set("core.forward_us", mean_us("core.forward"));
    out.set("core.denorm_us", mean_us("core.denorm"));
}

/// Ego sizes of `traffic`, a fixed seeded sample of the workload's
/// requests, on `snap`: with both fixed they repeat exactly for a seed.
/// Cache bytes read per request are computed, not measured: mean ego nodes
/// times the bytes one node occupies in the frozen cache (embedding plus
/// every layer-0 projection lane).
pub fn ego_metrics(out: &mut Outcome, snap: &ModelSnapshot, traffic: &[usize]) {
    let ego_mean = mean_ego_nodes(snap, traffic);
    out.set("graph.ego_nodes.mean", ego_mean);
    let node_bytes = cached_node_bytes(snap.ds.t, snap.model.cfg.channels);
    out.set("core.cache_read_bytes_per_request", ego_mean * node_bytes as f64);
}
