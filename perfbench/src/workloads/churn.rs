//! `churn-100k`: incremental republish beside reads on the 100k-shop world.
//!
//! A writer thread applies a fresh seeded churn burst (about 100 shops'
//! sales history rewritten deep enough to move the input window, and every
//! [`NEW_SHOP_EVERY`]th burst a new shop with a supply edge), takes the
//! dirty set and calls `ModelServer::publish_delta`, back to back. A reader
//! thread runs a closed loop of `predict_batch` calls on 8 random shops,
//! picking up each new snapshot. Every publish must recompute at least one
//! node: a publish that recomputes nothing times a no-op and fails the run.

use crate::common::*;
use crate::workloads::serve::{
    ego_metrics, request_path_metrics, MODEL_SEED, N_SHOPS, SETUPS, WORLD_SEED,
};
use gaia_core::GraphForecaster;
use gaia_graph::dirty_closure;
use gaia_serving::{DeltaPublishStats, ModelServer};
use gaia_synth::{
    node_row_unchanged, refresh_dataset, DirtySet, MonthlySales, NewShop, Role, World,
};
use perfbench::stats::{mean, percentile, sorted, stage_residual, windowed_percentile};
use perfbench::trace::{totals_by_name, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Shops whose history one burst rewrites (about 0.1% of the world).
const BURST_SHOPS: usize = 100;
/// Every this many bursts also adds a shop and a supply edge into it.
const NEW_SHOP_EVERY: u64 = 16;
/// Deterministic per-publish counts are averaged over this many first
/// publishes, so they repeat exactly for a seed whatever the run length.
const COUNT_PREFIX: usize = 8;
/// One reader call in this many is re-checked on a fresh, uncached scratch.
const CHECK_EVERY: u64 = 64;
/// Reader latency percentiles are taken per window of this many
/// consecutive calls (about half a second), and the figure is the lower
/// quartile over windows. The reader's latencies have two modes, about
/// 0.19 and 0.29 ms, as the writer's memory traffic and the host's speed
/// come and go; the pooled median sits between them and jumped from run
/// to run with the share of each.
const READER_WINDOW: usize = 1_000;
/// Random shops checked against a full republish at the end.
const FINAL_CHECKS: usize = 256;

/// Rewrite the recent history of [`BURST_SHOPS`] seeded random shops of
/// the first `n0`, deep enough to cross from the target months into the
/// input window; occasionally add a retailer with a supplier.
fn apply_burst(world: &mut World, seed: u64, burst: u64, horizon: usize, n0: usize) -> DirtySet {
    let mut rng = StdRng::seed_from_u64(mix(seed, burst));
    for _ in 0..BURST_SHOPS {
        let shop = rng.gen_range(0..n0) as u32;
        let depth = horizon + rng.gen_range(1..=4usize);
        let base: f64 = rng.gen_range(500.0..50_000.0);
        let trend: f64 = rng.gen_range(-0.05..0.08);
        let window: Vec<MonthlySales> = (0..depth)
            .map(|m| MonthlySales {
                gmv: base * (1.0 + trend * m as f64),
                orders: base / 80.0 + m as f64,
                customers: base / 200.0 + 1.0,
            })
            .collect();
        world.record_sales(shop, &window);
    }
    if burst.is_multiple_of(NEW_SHOP_EVERY) {
        let template = &world.shops[rng.gen_range(0..n0)];
        let (industry, region) = (template.industry, template.region);
        let id = world.add_shop(NewShop {
            industry,
            region,
            role: Role::Retailer,
            owner: u32::MAX - 1 - burst as u32,
            lead: 0,
        });
        let supplier = loop {
            let v = rng.gen_range(0..n0);
            if world.shops[v].role == Role::Supplier {
                break v as u32;
            }
        };
        world.add_supply_edge(supplier, id);
    }
    world.take_dirty()
}

/// What the writer measured.
#[derive(Default)]
struct WriterLog {
    publish_ms: Vec<f64>,
    mutate_us: Vec<f64>,
    stats: Vec<DeltaPublishStats>,
    noop_publishes: u64,
    last_dirty: Vec<u32>,
    // Traced run only.
    stats_mismatches: u64,
    segments: Vec<(usize, usize)>,
    refresh_bytes: Vec<usize>,
    tracer: Option<Tracer>,
}

/// What the reader measured.
#[derive(Default)]
struct ReaderLog {
    latency_ms: Vec<f64>,
    preds: u64,
    busy_s: f64,
    failed: u64,
    checked: u64,
    /// Sampled calls not checked because a publish landed mid-check.
    skipped: u64,
    mismatched: u64,
    installs: u64,
    tracer: Option<Tracer>,
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let booted = boot(N_SHOPS, WORLD_SEED, MODEL_SEED, small_serving_config, SETUPS);
    booted.times.report(&mut out);
    let mut world = booted.world;
    let server = booted.server;
    let (snap, _) = consistent_snapshot(&server);
    let (n0, horizon) = (snap.ds.n, snap.ds.horizon);
    out.set("core.cache_bytes", snap.embeddings.approx_heap_bytes() as f64);
    if args.trace {
        let t = Instant::now();
        drop(snap.model.precompute_embeddings(&snap.ds).into_shared());
        out.set("core.full_precompute_s", secs(t));
        // On the boot graph: the churn adds supply edges, so later egos
        // would depend on how many publishes the run fitted in.
        ego_metrics(&mut out, &snap, &random_shops(mix(args.seed, 0xE60), n0, 20_000));
    }
    drop(snap);

    // Warm-up publish (burst 0, untimed) so the first timed publish does
    // not pay first-touch costs.
    let dirty = apply_burst(&mut world, args.seed, 0, horizon, n0);
    server.publish_delta(&world, &dirty);

    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let writer_done = AtomicBool::new(false);
    let origin = Instant::now();
    let (writer, reader) = std::thread::scope(|scope| {
        let (server, writer_done, world) = (&server, &writer_done, &mut world);
        let writer = scope.spawn(move || {
            let log = write_loop(args, server, world, horizon, n0, deadline, origin);
            writer_done.store(true, Ordering::Release);
            log
        });
        let reader = read_loop(args, server, n0, deadline, writer_done, origin);
        (writer.join().expect("writer thread panicked"), reader)
    });

    let publishes = writer.publish_ms.len();
    out.count(publishes as u64, writer.noop_publishes + writer.stats_mismatches);
    if publishes < COUNT_PREFIX {
        out.violate(format!("only {publishes} publishes ran; {COUNT_PREFIX} are needed"));
    }
    let publish_sorted = sorted(writer.publish_ms.clone());
    out.set("publish_p50_ms", percentile(&publish_sorted, 0.5).unwrap_or(f64::INFINITY));
    out.set("publish_p99_ms", percentile(&publish_sorted, 0.99).unwrap_or(f64::INFINITY));
    let windowed = |p| {
        windowed_percentile(&reader.latency_ms, READER_WINDOW, p, 0.25).unwrap_or(f64::INFINITY)
    };
    out.set("latency_p50_ms", windowed(0.5));
    out.set("latency_p90_ms", windowed(0.9));
    let lat = sorted(reader.latency_ms.clone());
    out.set("bench.latency_p99_ms", percentile(&lat, 0.99).unwrap_or(f64::INFINITY));
    out.set("throughput_rps", reader.preds as f64 / reader.busy_s.max(1e-9));
    out.count(reader.preds, reader.failed);
    out.count(reader.checked, reader.mismatched);
    eprintln!(
        "churn-100k: {publishes} publishes, {} reader calls, {} installs, {} calls re-checked uncached ({} skipped)",
        reader.latency_ms.len(),
        reader.installs,
        reader.checked,
        reader.skipped
    );
    // A run whose sampled checks were mostly skipped would check close to
    // nothing: it is invalid.
    if reader.checked == 0 || reader.checked < reader.skipped {
        out.violate(format!(
            "the reader re-checked only {} of {} sampled calls",
            reader.checked,
            reader.checked + reader.skipped
        ));
    }

    let prefix = &writer.stats[..COUNT_PREFIX.min(writer.stats.len())];
    let prefix_mean = |f: fn(&DeltaPublishStats) -> usize| {
        prefix.iter().map(|s| f(s) as f64).sum::<f64>() / prefix.len().max(1) as f64
    };
    out.set("graph.closure_nodes", prefix_mean(|s| s.closure_nodes));
    out.set("core.recomputed_nodes", prefix_mean(|s| s.recomputed_nodes));
    out.set("serving.reader_installs", reader.installs as f64);
    out.set("synth.mutate_us", mean(&writer.mutate_us).unwrap_or(0.0));

    if args.trace {
        traced_metrics(&mut out, &writer, &reader);
        out.set(
            "tensor.fresh_allocs",
            steady_state_allocs(&server, n0, args.seed, 4_000, 2_000) as f64,
        );
        let mut tracer = Tracer::new(origin);
        tracer.absorb(writer.tracer.expect("traced writer records spans"));
        tracer.absorb(reader.tracer.expect("traced reader records spans"));
        write_trace(args, &tracer);
    }

    // Peak memory of the workload itself, before the end-of-run check
    // builds a second full cache.
    out.set("peak_rss_mb", peak_rss_mb());
    final_check(&mut out, args, &server, &world, &writer.last_dirty);
    out
}

fn write_loop(
    args: &Args,
    server: &ModelServer,
    world: &mut World,
    horizon: usize,
    n0: usize,
    deadline: Instant,
    origin: Instant,
) -> WriterLog {
    let mut log =
        WriterLog { tracer: args.trace.then(|| Tracer::new(origin)), ..Default::default() };
    let mut burst = 1u64;
    while Instant::now() < deadline {
        let mut tracer = log.tracer.take();
        let root = tracer.as_mut().map(|t| t.begin("serving.publish_round", None, burst));
        let t0 = Instant::now();
        let span = tracer.as_mut().map(|t| t.begin("synth.mutate", root, burst));
        let dirty = apply_burst(world, args.seed, burst, horizon, n0);
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.end(s);
        }
        log.mutate_us.push(secs(t0) * 1e6);

        let stats = match tracer.as_mut() {
            None => {
                let t1 = Instant::now();
                let stats = server.publish_delta(world, &dirty);
                log.publish_ms.push(secs(t1) * 1e3);
                stats
            }
            Some(t) => traced_publish(t, root, burst, server, world, &dirty, &mut log),
        };
        if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
            t.end(r);
        }
        log.tracer = tracer;
        if stats.recomputed_nodes == 0 {
            log.noop_publishes += 1;
            eprintln!("publish {burst} recomputed nothing: {stats:?}");
        }
        log.stats.push(stats);
        log.last_dirty = dirty.nodes().to_vec();
        burst += 1;
    }
    log
}

/// One publish in the traced run: the real `publish_delta`, and beside it
/// a replay of its stages through the public calls it is made of. The
/// order alternates per publish so neither side always runs on warm
/// caches. The replay must reproduce the publish's `DeltaPublishStats`.
fn traced_publish(
    tr: &mut Tracer,
    root: Option<usize>,
    burst: u64,
    server: &ModelServer,
    world: &World,
    dirty: &DirtySet,
    log: &mut WriterLog,
) -> DeltaPublishStats {
    let (prev, _) = consistent_snapshot(server);
    let mut replayed = None;
    let mut real = None;
    for step in 0..2 {
        if (step == 0) == burst.is_multiple_of(2) {
            let s = tr.begin("synth.refresh", root, burst);
            let ds = refresh_dataset(world, &prev.ds, dirty.nodes());
            tr.end(s);
            log.refresh_bytes.push(ds.approx_heap_bytes());
            let s = tr.begin("graph.closure", root, burst);
            let closure = dirty_closure(&world.graph, dirty.nodes(), prev.model.ego_config().hops);
            tr.end(s);
            let s = tr.begin("serving.row_filter", root, burst);
            let mut recompute: Vec<u32> = closure
                .iter()
                .copied()
                .filter(|&v| {
                    (v as usize) < prev.ds.n && !node_row_unchanged(&ds, &prev.ds, v as usize)
                })
                .collect();
            recompute.extend(prev.ds.n as u32..ds.n as u32);
            recompute.sort_unstable();
            recompute.dedup();
            tr.end(s);
            let s = tr.begin("core.delta_precompute", root, burst);
            let cache = prev.model.precompute_embeddings_delta(&ds, &prev.embeddings, &recompute);
            tr.end(s);
            let s = tr.begin("core.freeze", root, burst);
            let cache = cache.into_shared();
            tr.end(s);
            std::hint::black_box(&cache);
            replayed = Some(DeltaPublishStats {
                world_nodes: ds.n,
                dirty_nodes: dirty.len(),
                closure_nodes: closure.len(),
                recomputed_nodes: recompute.len(),
            });
        } else {
            let s = tr.begin("serving.publish_delta", root, burst);
            real = Some(server.publish_delta(world, dirty));
            log.publish_ms.push(tr.end(s) as f64 / 1e6);
        }
    }
    let (real, replayed) = (real.expect("published"), replayed.expect("replayed"));
    let key =
        |s: &DeltaPublishStats| (s.world_nodes, s.dirty_nodes, s.closure_nodes, s.recomputed_nodes);
    if key(&real) != key(&replayed) {
        log.stats_mismatches += 1;
        eprintln!("replayed publish stats {replayed:?} differ from publish_delta's {real:?}");
    }
    let (next, _) = consistent_snapshot(server);
    let segs = next.embeddings.segment_count();
    let shared = (0..segs)
        .filter(|&g| {
            next.embeddings.segment_addr(g).is_some()
                && next.embeddings.segment_addr(g) == prev.embeddings.segment_addr(g)
        })
        .count();
    log.segments.push((segs - shared, shared));
    real
}

fn read_loop(
    args: &Args,
    server: &ModelServer,
    n0: usize,
    deadline: Instant,
    writer_done: &AtomicBool,
    origin: Instant,
) -> ReaderLog {
    let mut log = ReaderLog::default();
    let mut ctx = server.inference_context();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 0x2EAD));
    let next = |rng: &mut StdRng| -> Vec<usize> {
        (0..MICRO_BATCH).map(|_| rng.gen_range(0..n0)).collect()
    };
    for _ in 0..500 {
        std::hint::black_box(ctx.predict_batch(&next(&mut rng)));
    }
    let mut tracer = Tracer::new(origin);
    let mut replay = Replay::new(server);
    if args.trace {
        for _ in 0..500 {
            std::hint::black_box(replay.batch(&next(&mut rng), &mut Tracer::new(origin), 0));
        }
    }
    let mut epoch = ctx.snapshot_epoch();
    let mut check_s = 0.0;
    let start = Instant::now();
    let mut call = 0u64;
    while Instant::now() < deadline && !writer_done.load(Ordering::Acquire) {
        call += 1;
        let shops = next(&mut rng);
        let t = Instant::now();
        let preds = if args.trace {
            if replay.revalidate(server) {
                log.installs += 1;
            }
            replay.batch(&shops, &mut tracer, call)
        } else {
            let preds = ctx.predict_batch(&shops);
            if ctx.snapshot_epoch() != epoch {
                epoch = ctx.snapshot_epoch();
                log.installs += 1;
            }
            preds
        };
        log.latency_ms.push(secs(t) * 1e3);
        log.preds += preds.len() as u64;
        log.failed += preds.iter().filter(|p| !well_formed(p)).count() as u64;

        if mix(args.seed, call).is_multiple_of(CHECK_EVERY) {
            let t = Instant::now();
            check_call(&mut log, args, server, &mut ctx, &mut replay, &shops, &preds, epoch);
            check_s += secs(t);
        }
    }
    log.busy_s = secs(start) - check_s;
    if args.trace {
        log.tracer = Some(tracer);
    }
    log
}

/// Re-check one reader call. Traced: the replayed batch against what
/// `predict_batch` serves on the same snapshot. Untraced: the batch is
/// served again right after the current snapshot is read, and its first
/// prediction must match a fresh, uncached scratch on that snapshot — as
/// must the timed call's, when it was served from the same one. The check
/// is skipped when a publish landed between reading the snapshot and
/// serving; the reader waits out the publish in progress when it reads the
/// snapshot, so that window is only the writer's next mutation.
#[allow(clippy::too_many_arguments)]
fn check_call(
    log: &mut ReaderLog,
    args: &Args,
    server: &ModelServer,
    ctx: &mut gaia_serving::InferenceContext<'_>,
    replay: &mut Replay,
    shops: &[usize],
    preds: &[gaia_core::trainer::Prediction],
    served_epoch: u64,
) {
    if args.trace {
        log.checked += 1;
        if replay.served(shops).iter().zip(preds).any(|(w, g)| w.model_space != g.model_space) {
            eprintln!("replayed batch {shops:?} differs from predict_batch");
            log.mismatched += 1;
        }
        return;
    }
    let (snap, epoch) = consistent_snapshot(server);
    let again = ctx.predict_batch(shops);
    if ctx.snapshot_epoch() != epoch {
        log.skipped += 1;
        return;
    }
    log.checked += 1;
    let want = uncached(&snap, shops[0]).model_space;
    let timed_ok = served_epoch != epoch || preds[0].model_space == want;
    if again[0].model_space != want || !timed_ok {
        eprintln!(
            "shop {} at epoch {epoch}: served {:?}, uncached {want:?}",
            shops[0], again[0].model_space
        );
        log.mismatched += 1;
    }
}

fn traced_metrics(out: &mut Outcome, writer: &WriterLog, reader: &ReaderLog) {
    let wt = totals_by_name(writer.tracer.as_ref().expect("traced writer").spans());
    let mean_ms = |name: &str| wt.get(name).map_or(0.0, |t| t.mean_us() / 1e3);
    out.set("synth.refresh_ms", mean_ms("synth.refresh"));
    out.set("graph.closure_ms", mean_ms("graph.closure"));
    out.set("serving.row_filter_ms", mean_ms("serving.row_filter"));
    out.set("core.delta_precompute_ms", mean_ms("core.delta_precompute"));
    out.set("core.freeze_ms", mean_ms("core.freeze"));
    let stages: Vec<f64> = [
        "synth.refresh",
        "graph.closure",
        "serving.row_filter",
        "core.delta_precompute",
        "core.freeze",
    ]
    .iter()
    .map(|name| mean_ms(name))
    .collect();
    let residual = stage_residual(mean_ms("serving.publish_delta"), &stages);
    out.set("serving.publish_residual_ms", residual.residual);
    out.set("bench.publish_stage_residual_pct", residual.residual_pct);
    let prefix = COUNT_PREFIX.min(writer.segments.len()).max(1) as f64;
    let seg = &writer.segments[..COUNT_PREFIX.min(writer.segments.len())];
    out.set("core.segments_copied", seg.iter().map(|s| s.0 as f64).sum::<f64>() / prefix);
    out.set("core.segments_shared", seg.iter().map(|s| s.1 as f64).sum::<f64>() / prefix);
    let bytes = &writer.refresh_bytes[..COUNT_PREFIX.min(writer.refresh_bytes.len())];
    out.set("synth.refresh_bytes", bytes.iter().map(|&b| b as f64).sum::<f64>() / prefix);

    request_path_metrics(out, reader.tracer.as_ref().expect("traced reader"));
}

/// End-of-run parity: seeded random shops plus every shop of the last
/// dirty set, served from the delta-published snapshot, must match a
/// server state rebuilt by `publish_full` from the final world.
fn final_check(
    out: &mut Outcome,
    args: &Args,
    server: &ModelServer,
    world: &World,
    last_dirty: &[u32],
) {
    let n = world.shops.len();
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 0xF1A1));
    let mut shops: Vec<usize> = (0..FINAL_CHECKS).map(|_| rng.gen_range(0..n)).collect();
    shops.extend(last_dirty.iter().map(|&v| v as usize).filter(|&v| v < n));
    let serve_all = |server: &ModelServer| {
        let mut ctx = server.inference_context();
        shops.chunks(MICRO_BATCH).flat_map(|c| ctx.predict_batch(c)).collect::<Vec<_>>()
    };
    let delta = serve_all(server);
    server.publish_full(world);
    let full = serve_all(server);
    let mismatched = delta
        .iter()
        .zip(&full)
        .filter(|(d, f)| {
            d.node != f.node || !matches_full_republish(&d.model_space, &f.model_space)
        })
        .inspect(|(d, f)| {
            eprintln!(
                "shop {}: delta-published {:?}, full {:?}",
                d.node, d.model_space, f.model_space
            )
        })
        .count();
    out.count(shops.len() as u64, mismatched as u64);
}
