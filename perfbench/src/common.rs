//! What every workload shares: the command line, the result line, the run
//! context, set-up of a served world, output checks and the traced replay
//! of `InferenceContext::predict_batch`.

use gaia_core::trainer::{predict_batch_with, predict_one_with, InferenceScratch, Prediction};
use gaia_core::{EmbedCache, Gaia, GaiaConfig, GraphForecaster};
use gaia_graph::{extract_ego_into, EgoConfig, EgoScratch};
use gaia_serving::{ModelArtifact, ModelServer, ModelSnapshot};
use gaia_synth::{build_dataset, Dataset, World, WorldConfig};
use perfbench::stats::median;
use perfbench::trace::{totals_by_name, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the ego-neighbour sampling every server in this benchmark uses.
pub const SERVING_SEED: u64 = 42;

/// Requests per `predict_batch` call.
pub const MICRO_BATCH: usize = 8;

/// Parsed command line: `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse() -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload measured: metric values by name plus the operation
/// counts behind `failed` / `attempted`.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that are not per-operation (quality guard, invalid
    /// load generation): any entry makes the run incorrect.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn violate(&mut self, why: String) {
        eprintln!("check failed: {why}");
        self.violations.push(why);
    }

    /// Count `failed` failures out of `attempted` operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Commit of the checkout, read from `.git` without running git;
/// `"unknown"` outside a git checkout.
pub fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let read = |p: &std::path::Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&root.join(".git/HEAD")) else { return "unknown".into() };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return head.to_string() };
    if let Some(hash) = read(&root.join(".git").join(reference)) {
        return hash.trim().to_string();
    }
    read(&root.join(".git/packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..40.min(l.len())].to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run context printed with every result and trace. The benchmark is
/// built one way only — the crates' `simd` kernels on, the `embed-f16`
/// cache off — so those two are constants of the build.
pub fn context_json(args: &Args) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"simd\":true,\"embed_f16\":false,\"commit\":\"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc(),
        commit()
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splitmix mixing of a seed with an index: independent, reproducible
/// streams per request and per churn burst.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The untrained serving model every earlier serving figure used: 8
/// channels, 2 kernel groups, 1 layer, 1-hop fanout-4 egos, model seed 7.
pub fn small_serving_config(ds: &Dataset) -> GaiaConfig {
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 4 };
    cfg
}

/// Artifact of an untrained model (`version` 1).
pub fn untrained_artifact(cfg: &GaiaConfig, model_seed: u64) -> ModelArtifact {
    ModelArtifact {
        version: 1,
        config: cfg.clone(),
        checkpoint: Gaia::new(cfg.clone(), model_seed).checkpoint(),
        final_train_loss: 0.0,
    }
}

/// Stage times of timed set-ups, one entry per set-up, in seconds.
#[derive(Default)]
pub struct SetupTimes {
    pub world_gen_s: Vec<f64>,
    pub build_dataset_s: Vec<f64>,
    pub boot_publish_s: Vec<f64>,
    pub setup_s: Vec<f64>,
}

impl SetupTimes {
    /// Report the medians over set-ups: `setup_s` and its synth stages.
    pub fn report(&self, out: &mut Outcome) {
        let med = |v: &[f64]| median(v).unwrap_or(0.0);
        out.set("setup_s", med(&self.setup_s));
        out.set("synth.world_gen_s", med(&self.world_gen_s));
        out.set("synth.build_dataset_s", med(&self.build_dataset_s));
    }
}

/// A booted serving world and the time its set-up took.
pub struct Booted {
    pub world: World,
    pub server: ModelServer,
    pub times: SetupTimes,
}

/// Generate the world, build its dataset and boot a server on an untrained
/// model `1 + timed` times, keeping the last set-up. The first is a warm-up
/// (the allocator's first touch of the process's pages) and is not timed.
/// Earlier set-ups are dropped before the next starts, so peak memory is
/// one set-up's.
pub fn boot(
    n_shops: usize,
    world_seed: u64,
    model_seed: u64,
    config: fn(&Dataset) -> GaiaConfig,
    timed: usize,
) -> Booted {
    let mut times = SetupTimes::default();
    let mut kept = set_up(n_shops, world_seed, model_seed, config, &mut SetupTimes::default());
    for _ in 0..timed {
        drop(kept);
        kept = set_up(n_shops, world_seed, model_seed, config, &mut times);
    }
    let (world, server) = kept;
    Booted { world, server, times }
}

/// One timed set-up: world generation, dataset build, boot publish.
pub fn set_up(
    n_shops: usize,
    world_seed: u64,
    model_seed: u64,
    config: fn(&Dataset) -> GaiaConfig,
    times: &mut SetupTimes,
) -> (World, ModelServer) {
    let t0 = Instant::now();
    let world = World::generate(WorldConfig { n_shops, seed: world_seed, ..Default::default() });
    let t1 = Instant::now();
    let ds = build_dataset(&world);
    let t2 = Instant::now();
    let artifact = untrained_artifact(&config(&ds), model_seed);
    let server = ModelServer::new(&artifact, world.graph.clone(), ds, SERVING_SEED);
    let t3 = Instant::now();
    times.world_gen_s.push((t1 - t0).as_secs_f64());
    times.build_dataset_s.push((t2 - t1).as_secs_f64());
    times.boot_publish_s.push((t3 - t2).as_secs_f64());
    times.setup_s.push((t3 - t0).as_secs_f64());
    (world, server)
}

/// A served prediction is well-formed: finite in both spaces.
pub fn well_formed(p: &Prediction) -> bool {
    p.model_space.iter().all(|x| x.is_finite()) && p.currency.iter().all(|x| x.is_finite())
}

/// Delta-vs-full republish agreement at the documented tier of the SIMD
/// build: within 1e-4 relative. (Cached-vs-uncached agreement on the f32
/// cache is bit for bit, so those checks compare with `==`.)
pub fn matches_full_republish(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(&g, &w)| (g - w).abs() <= 1e-4 * w.abs().max(1.0))
}

/// Reference prediction of `shop` on a fresh, uncached scratch.
pub fn uncached(snap: &ModelSnapshot, shop: usize) -> Prediction {
    let mut scratch = InferenceScratch::new();
    predict_one_with(&snap.model, &snap.ds, &snap.graph, shop, SERVING_SEED, &mut scratch)
}

/// Ego-sampling seed of one request centre — the serving path's own
/// per-node derivation, repeated here so the traced replay draws the same
/// neighbours (the replay is checked bit for bit against `predict_batch`).
fn per_node_seed(seed: u64, node: usize) -> u64 {
    mix(seed, node as u64)
}

/// Bytes one node occupies in the frozen f32 cache: embedding and Q/K/V
/// `[T, C]` each plus two `[T, 1]` gate lanes.
pub fn cached_node_bytes(t: usize, channels: usize) -> usize {
    (4 * t * channels + 2 * t) * std::mem::size_of::<f32>()
}

/// Stage-by-stage replay of `InferenceContext::predict_batch` through the
/// public calls it is made of — ego extraction, tape reset, batched
/// forward, denormalisation — with a span around each.
pub struct Replay {
    tape: gaia_tensor::Graph,
    slots: Vec<EgoScratch>,
    cache: EmbedCache,
    snap: Arc<ModelSnapshot>,
    /// Publish epoch of the snapshot the replay serves from.
    pub epoch: u64,
    /// Scratch of [`Replay::served`], with the epoch its cache is from.
    reference: InferenceScratch,
    reference_epoch: Option<u64>,
}

impl Replay {
    pub fn new(server: &ModelServer) -> Self {
        let (snap, epoch) = consistent_snapshot(server);
        Self {
            tape: gaia_tensor::Graph::for_inference(),
            slots: Vec::new(),
            cache: snap.embeddings.clone(),
            snap,
            epoch,
            reference: InferenceScratch::new(),
            reference_epoch: None,
        }
    }

    /// What `InferenceContext::predict_batch` serves for `shops` on the
    /// replay's snapshot: `predict_batch_with` on a scratch holding that
    /// snapshot's cache. A context's own snapshot may be newer than the
    /// epoch it reports, so the replay is checked against this instead.
    pub fn served(&mut self, shops: &[usize]) -> Vec<Prediction> {
        if self.reference_epoch != Some(self.epoch) {
            self.reference.install_embed_cache(self.snap.embeddings.clone());
            self.reference_epoch = Some(self.epoch);
        }
        let snap = &self.snap;
        predict_batch_with(
            &snap.model,
            &snap.ds,
            &snap.graph,
            shops,
            SERVING_SEED,
            &mut self.reference,
        )
    }

    /// Pick up a newer snapshot if one was published; true when it did.
    pub fn revalidate(&mut self, server: &ModelServer) -> bool {
        if server.publishes() == self.epoch {
            return false;
        }
        let (snap, epoch) = consistent_snapshot(server);
        self.cache = snap.embeddings.clone();
        self.snap = snap;
        self.epoch = epoch;
        true
    }

    /// The snapshot the replay serves from.
    pub fn snapshot(&self) -> &ModelSnapshot {
        &self.snap
    }

    pub fn batch(&mut self, shops: &[usize], tracer: &mut Tracer, op: u64) -> Vec<Prediction> {
        let Replay { tape, slots, cache, snap, .. } = self;
        let model = &snap.model;
        let ego_cfg = model.ego_config();
        let root = tracer.begin("serving.predict_batch", None, op);
        if slots.len() < shops.len() {
            slots.resize_with(shops.len(), EgoScratch::new);
        }
        let mut egos = Vec::with_capacity(shops.len());
        for (slot, &center) in slots.iter_mut().zip(shops) {
            let span = tracer.begin("graph.extract_ego", Some(root), op);
            let mut rng = StdRng::seed_from_u64(per_node_seed(SERVING_SEED, center));
            let ego = extract_ego_into(&snap.graph, center, &ego_cfg, &mut rng, slot);
            tracer.end(span);
            egos.push(ego);
        }
        let span = tracer.begin("tensor.tape_reset", Some(root), op);
        tape.reset();
        tracer.end(span);
        let span = tracer.begin("core.forward", Some(root), op);
        // A batch of one is served by the per-request forward, exactly as
        // `predict_batch_with` does.
        let outs = match egos.as_slice() {
            [ego] => vec![model.forward_center_cached(tape, &snap.ds, ego, cache)],
            _ => model.forward_centers_cached(tape, &snap.ds, &egos, cache),
        };
        tracer.end(span);
        let span = tracer.begin("core.denorm", Some(root), op);
        let preds = shops
            .iter()
            .zip(outs)
            .map(|(&center, out)| {
                let t = tape.value(out);
                Prediction {
                    node: center,
                    model_space: t.data().to_vec(),
                    currency: snap.ds.denormalize_prediction(t),
                }
            })
            .collect();
        tracer.end(span);
        tracer.end(root);
        preds
    }
}

/// Fresh tensor buffers (tape pool misses) a serving context allocates
/// over `measured` seeded batches, sizes cycling 1..=8, after `warm`
/// batches of the same kind: the zero-alloc steady state of the request
/// path, counted on a fixed sequence so it repeats exactly for a seed.
pub fn steady_state_allocs(
    server: &ModelServer,
    n: usize,
    seed: u64,
    warm: usize,
    measured: usize,
) -> usize {
    let mut ctx = server.inference_context();
    let mut rng = StdRng::seed_from_u64(mix(seed, 0xA110C));
    let mut serve = |batches: usize| {
        for k in 0..batches {
            let shops: Vec<usize> = (0..k % MICRO_BATCH + 1).map(|_| rng.gen_range(0..n)).collect();
            std::hint::black_box(ctx.predict_batch(&shops));
        }
        ctx.tape_fresh_allocs()
    };
    let before = serve(warm);
    serve(measured) - before
}

/// Mean ego-subgraph size, in nodes, of requests for `shops` on `snap`:
/// the same seeded sampling the serving path draws.
pub fn mean_ego_nodes(snap: &ModelSnapshot, shops: &[usize]) -> f64 {
    let cfg = snap.model.ego_config();
    let mut scratch = EgoScratch::new();
    let total: usize = shops
        .iter()
        .map(|&center| {
            let mut rng = StdRng::seed_from_u64(per_node_seed(SERVING_SEED, center));
            extract_ego_into(&snap.graph, center, &cfg, &mut rng, &mut scratch).len()
        })
        .sum();
    total as f64 / shops.len().max(1) as f64
}

/// `count` seeded uniformly random shops of `0..n`.
pub fn random_shops(seed: u64, n: usize, count: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| rng.gen_range(0..n)).collect()
}

/// The current snapshot together with the publish epoch it belongs to.
pub fn consistent_snapshot(server: &ModelServer) -> (Arc<ModelSnapshot>, u64) {
    loop {
        let before = server.publishes();
        let snap = server.snapshot();
        if server.publishes() == before {
            return (snap, before);
        }
    }
}

/// MAPE over the horizon of `preds` against the raw targets of their
/// shops, skipping targets below 1 — the same rule as the evaluation
/// crate's `metrics_overall`.
pub fn mape(ds: &Dataset, preds: &[Prediction]) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for p in preds {
        for (&f, &a) in p.currency.iter().zip(ds.targets_raw_row(p.node)) {
            if a >= 1.0 {
                sum += ((f - a) / a).abs();
                n += 1;
            }
        }
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

/// Where traces and run contexts are written: `out/` beside this package.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Spans written per traced run; the per-layer figures use every span.
const SPANS_WRITTEN: usize = 200_000;

/// Write the traced run's context and its first [`SPANS_WRITTEN`] spans
/// under `out/`, replacing the workload's previous trace; an I/O error is
/// reported, not fatal.
pub fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = out_dir();
    let stem = &args.workload;
    let spans = dir.join(format!("{stem}.spans.jsonl"));
    if let Err(e) = tracer.write_jsonl(&spans, SPANS_WRITTEN) {
        eprintln!("could not write {}: {e}", spans.display());
    }
    // Per span name and per layer (the name's prefix): count, summed
    // duration and summed self time, over every span recorded.
    let totals = totals_by_name(tracer.spans());
    let mut layers: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut lines = Vec::new();
    for (name, t) in &totals {
        let layer = layers.entry(name.split('.').next().unwrap_or(name)).or_default();
        layer.0 += t.total_ns;
        layer.1 += t.self_ns;
        lines.push(format!(
            "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        ));
    }
    let layer_lines: Vec<String> = layers
        .iter()
        .map(|(layer, (total, own))| {
            format!("\"{layer}\":{{\"total_ns\":{total},\"self_ns\":{own}}}")
        })
        .collect();
    let ctx = dir.join(format!("{stem}.context.json"));
    let body = format!(
        "{{\"context\":{},\"spans\":{{{}}},\"layers\":{{{}}}}}\n",
        context_json(args),
        lines.join(","),
        layer_lines.join(",")
    );
    if let Err(e) = std::fs::write(&ctx, body) {
        eprintln!("could not write {}: {e}", ctx.display());
    }
}
