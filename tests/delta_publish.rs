//! Integration: hot swap **under churn** — serving threads hammer the
//! request path while incremental republishes ([`ModelServer::publish_delta`])
//! land concurrently. Complements the model-swap torn-read test in
//! `gaia-serving` by driving the swap with world deltas instead of retrains.
//!
//! What is pinned here:
//! - every served prediction is attributable to exactly the generation the
//!   reader's epoch says it served (no torn world/embedding mixtures),
//! - the epoch a context observes never moves backwards,
//! - a warm context allocates **zero** fresh tensor buffers across an entire
//!   chain of republishes (clean segments are shared, not copied, and the
//!   tape pool never sees a new shape),
//! - cache segments outside each delta's ego closure are carried into the
//!   next generation as the *same* `Arc` allocation — at both cache tiers.

use gaia_core::{CacheTier, EmbedCache, GaiaConfig, GraphForecaster};
use gaia_graph::{dirty_closure, EgoConfig};
use gaia_serving::{ModelArtifact, ModelServer};
use gaia_synth::{generate_dataset, DirtySet, MonthlySales, World, WorldConfig};

const N_SHOPS: usize = 160;
const GENERATIONS: usize = 6;

/// Boot a server over a deterministic untrained model (republish behaviour
/// does not depend on training) at cache `tier`, plus the world it serves.
fn boot(tier: CacheTier) -> (ModelServer, World) {
    let wc = WorldConfig { n_shops: N_SHOPS, seed: 77, ..WorldConfig::tiny() };
    let (world, ds) = generate_dataset(wc);
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 3 };
    cfg.cache_tier = tier;
    let artifact = ModelArtifact::untrained(cfg, 13);
    let server = ModelServer::new(&artifact, world.graph.clone(), ds, 42);
    (server, world)
}

/// The scripted churn chain: generation `g` rewrites one shop's recent
/// history (deep enough to move its feature window). Returns the world
/// state and dirty set at every generation, so the same chain can be
/// replayed on a shadow server to precompute expected answers.
fn churn_chain(world: &World, horizon: usize) -> Vec<(World, DirtySet)> {
    let mut w = world.clone();
    let mut chain = Vec::with_capacity(GENERATIONS);
    for g in 1..=GENERATIONS {
        let shop = ((g * 13) % N_SHOPS) as u32;
        let window: Vec<MonthlySales> = (0..horizon + 2)
            .map(|m| MonthlySales {
                gmv: 1_000.0 * g as f64 + 41.0 * m as f64,
                orders: 20.0 + g as f64,
                customers: 9.0 + m as f64,
            })
            .collect();
        w.record_sales(shop, &window);
        let dirty = w.take_dirty();
        chain.push((w.clone(), dirty));
    }
    chain
}

/// Readers hammer one probe shop while the publisher lands the whole delta
/// chain. Every prediction must equal the shadow-server answer for exactly
/// the generation the context's epoch reports, epochs must be monotone, and
/// a warm context must stay at zero fresh tape allocations throughout.
#[test]
fn repeated_delta_publish_under_load_serves_consistent_generations() {
    for tier in CacheTier::ALL {
        let (server, world) = boot(tier);
        let horizon = server.snapshot().ds.horizon;
        let chain = churn_chain(&world, horizon);
        let probe = 13usize; // dirtied by generation 1, then stable

        // Shadow replay: expected[g] is the probe's answer under generation g.
        let (shadow, _) = boot(tier);
        let mut expected = vec![shadow.predict_one(probe).model_space.clone()];
        for (w, dirty) in &chain {
            shadow.publish_delta(w, dirty);
            expected.push(shadow.predict_one(probe).model_space.clone());
        }
        // The chain must actually change the probe's prediction at least once —
        // otherwise the attribution assertion below would be vacuous.
        assert!(expected.windows(2).any(|p| p[0] != p[1]), "churn chain never moved the probe");

        std::thread::scope(|scope| {
            for _ in 0..3 {
                let server = &server;
                let expected = &expected;
                scope.spawn(move || {
                    let mut ctx = server.inference_context();
                    // Warm the tape on the first request; from then on the
                    // republishes must never cost this context an allocation.
                    let _ = ctx.predict(probe);
                    let warm_allocs = ctx.tape_fresh_allocs();
                    let mut last_epoch = 0u64;
                    for _ in 0..200 {
                        let pred = ctx.predict(probe);
                        // predict() revalidated the reader, so seen_epoch IS the
                        // generation that produced `pred` (one publish = one
                        // epoch bump on this server).
                        let epoch = ctx.snapshot_epoch();
                        assert!(
                            epoch >= last_epoch,
                            "epoch went backwards: {last_epoch} -> {epoch}"
                        );
                        last_epoch = epoch;
                        assert_eq!(
                            pred.model_space, expected[epoch as usize],
                            "prediction not attributable to the generation of epoch {epoch}"
                        );
                        assert_eq!(
                            ctx.tape_fresh_allocs(),
                            warm_allocs,
                            "a republish cost a warm context a fresh tape allocation"
                        );
                    }
                });
            }
            scope.spawn(|| {
                for (w, dirty) in &chain {
                    server.publish_delta(w, dirty);
                    std::thread::yield_now();
                }
            });
        });

        let snap = server.snapshot();
        assert_eq!(snap.world_rev, GENERATIONS as u64);
        assert_eq!(snap.version, 1, "no retrain happened");
        assert_eq!(server.publishes(), GENERATIONS as u64);
        // Post-churn, a fresh context serves the final generation's answer.
        assert_eq!(server.predict_one(probe).model_space, expected[GENERATIONS]);
    }
}

/// Across the whole republish chain, every cache segment outside a delta's
/// ego closure is carried into the next generation as the same `Arc`
/// allocation — the O(dirty·ego) memory claim, end to end.
#[test]
fn republish_chain_shares_clean_segments_between_adjacent_generations() {
    for tier in CacheTier::ALL {
        let (server, world) = boot(tier);
        let snap0 = server.snapshot();
        let radius = snap0.model.ego_config().hops;
        let chain = churn_chain(&world, snap0.ds.horizon);

        let mut prev = snap0;
        let mut shared_total = 0usize;
        for (gen, (w, dirty)) in chain.iter().enumerate() {
            let stats = server.publish_delta(w, dirty);
            let next = server.snapshot();
            let closure = dirty_closure(&w.graph, dirty.nodes(), radius);
            assert_eq!(stats.closure_nodes, closure.len());
            // Each generation rewrites exactly one shop's history, so exactly
            // one feature row moves and exactly one segment is rebuilt; the
            // shop's closure neighbours refresh to bit-identical rows and keep
            // their cached entries.
            assert_eq!(
                stats.recomputed_nodes, 1,
                "generation {gen} recomputed more than the delta"
            );
            let rebuilt = EmbedCache::segment_of(((gen + 1) * 13) % N_SHOPS);
            for seg in 0..prev.embeddings.segment_count() {
                let (b, a) = (prev.embeddings.segment_addr(seg), next.embeddings.segment_addr(seg));
                if seg == rebuilt {
                    assert_ne!(b, a, "generation {gen}: the rewritten shop's segment not rebuilt");
                } else {
                    assert_eq!(b, a, "generation {gen}: clean segment {seg} was copied");
                    shared_total += 1;
                }
            }
            prev = next;
        }
        assert!(shared_total > 0, "the chain never shared a segment");
    }
}
