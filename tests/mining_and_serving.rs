//! Integration of the Fig 5 pipeline paths: supply-chain relation mining
//! from order logs, and offline-train → publish → online-predict parity.

use gaia_core::trainer::TrainConfig;
use gaia_core::{CacheTier, GaiaConfig};
use gaia_graph::{mine_supply_chain, EgoConfig, MiningConfig};
use gaia_serving::{ModelServer, OfflinePipeline, ServeConfig};
use gaia_synth::{generate_dataset, Dataset, WorldConfig};
use std::collections::HashSet;
use std::sync::Arc;

/// The serving tests' small 1-layer model, publishing at cache `tier`.
fn small_cfg(ds: &Dataset, tier: CacheTier) -> GaiaConfig {
    let mut cfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s);
    cfg.channels = 8;
    cfg.kernel_groups = 2;
    cfg.layers = 1;
    cfg.ego = EgoConfig { hops: 1, fanout: 3 };
    cfg.cache_tier = tier;
    cfg
}

#[test]
fn mined_relations_recover_true_supply_links() {
    let (world, _) =
        generate_dataset(WorldConfig { n_shops: 250, noise_std: 0.04, ..WorldConfig::default() });
    let volumes: Vec<Vec<f32>> = world
        .shops
        .iter()
        .map(|s| s.orders.iter().map(|&x| (1.0 + x as f32).ln()).collect())
        .collect();
    let candidates = world.mining_candidates(10);
    let mined =
        mine_supply_chain(&volumes, &candidates, &MiningConfig { max_lag: 3, threshold: 0.75 });
    assert!(!mined.is_empty(), "mining found nothing");
    let truth: HashSet<(u32, u32)> =
        world.true_supply_links.iter().map(|l| (l.supplier, l.retailer)).collect();
    let hits = mined.iter().filter(|m| truth.contains(&(m.supplier, m.retailer))).count();
    let precision = hits as f64 / mined.len() as f64;
    // In the synthetic world, a linked and an unlinked same-industry pair
    // carry *identical* market signal by construction (the supplier lead is
    // industry-wide), so link-level discrimination beyond industry
    // co-membership is not identifiable from series alone — in the real
    // system the candidate set comes from payment co-occurrence, which is
    // what provides that discrimination (see DESIGN.md). The identifiable
    // structure is the *lead*: mining must not be anti-enriched, and the
    // detected lags must match the generated supplier leads.
    let base_hits = candidates.iter().filter(|&&(s, r)| truth.contains(&(s, r))).count();
    let base_rate = base_hits as f64 / candidates.len() as f64;
    assert!(
        precision >= 0.9 * base_rate,
        "mining anti-enriched: precision {precision:.3} vs base rate {base_rate:.3} \
         ({hits}/{} mined, {base_hits}/{} candidates)",
        mined.len(),
        candidates.len()
    );
    // The detected lags of true hits should match the generated leads most
    // of the time.
    let lag_hits = mined
        .iter()
        .filter(|m| {
            world
                .true_supply_links
                .iter()
                .any(|l| l.supplier == m.supplier && l.retailer == m.retailer && l.lead == m.lag)
        })
        .count();
    assert!(lag_hits * 2 >= hits, "lag recovery too weak: {lag_hits}/{hits}");
}

#[test]
fn offline_online_prediction_parity() {
    for tier in CacheTier::ALL {
        let (world, ds0) = generate_dataset(WorldConfig { n_shops: 80, ..WorldConfig::tiny() });
        let model_cfg = small_cfg(&ds0, tier);
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        let mut pipeline = OfflinePipeline::new(model_cfg.clone(), tc, 21);
        let (artifact, ds, _) = pipeline.execute_month(&world);

        // Offline predictions straight from a restored model...
        let mut offline_model = gaia_core::Gaia::new(model_cfg, 0);
        offline_model.restore(&artifact.checkpoint).unwrap();
        let nodes: Vec<usize> = ds.splits.test.iter().take(8).copied().collect();
        let offline =
            gaia_core::trainer::predict_nodes(&offline_model, &ds, &world.graph, &nodes, 42, 2);

        // ...must match the online server's answers within the tier's budget
        // (same artifact, same ego seed).
        let server = Arc::new(ModelServer::new(&artifact, world.graph.clone(), ds, 42));
        for o in offline {
            let online = server.predict_one(o.node);
            assert!(
                tier.within_budget(&online.model_space, &o.model_space, 0.0),
                "parity broke for shop {}: {:?} vs {:?}",
                o.node,
                online.model_space,
                o.model_space
            );
        }
    }
}

/// End-to-end hot-swap-under-load: worker threads serve a stream through
/// per-worker inference contexts while the offline pipeline publishes new
/// generations. Every answer must match exactly one published generation
/// (version and parameters are swapped as one snapshot — a torn read would
/// match none), and the stream path must report coherent latency stats.
#[test]
fn serving_survives_hot_swap_under_stream_load() {
    for tier in CacheTier::ALL {
        let (world, ds0) = generate_dataset(WorldConfig::tiny());
        let model_cfg = small_cfg(&ds0, tier);
        let tc =
            TrainConfig { epochs: 1, batch_size: 16, verbose: false, ..TrainConfig::default() };
        let mut pipeline = OfflinePipeline::new(model_cfg, tc, 9);
        let (artifact, ds, _) = pipeline.execute_month(&world);
        let server = Arc::new(ModelServer::new(&artifact, world.graph.clone(), ds, 42));

        // Expected per-generation answers for a probe shop: generation 1 from
        // the live server, generation 2 from an offline restore of artifact 2.
        let probe = 4usize;
        let (artifact2, ds2, _) = pipeline.execute_month(&world);
        let mut gen2_model = gaia_core::Gaia::new(artifact2.config.clone(), 0);
        gen2_model.restore(&artifact2.checkpoint).unwrap();
        let expected = [
            server.predict_one(probe).model_space.clone(),
            gaia_core::trainer::predict_nodes(&gen2_model, &ds2, &world.graph, &[probe], 42, 1)
                .pop()
                .unwrap()
                .model_space,
        ];
        assert_ne!(expected[0], expected[1], "publish must change the served parameters");

        std::thread::scope(|scope| {
            let server_ref = &server;
            let expected_ref = &expected;
            let publisher = scope.spawn(move || {
                // Let readers start on generation 1, then swap mid-load.
                std::thread::yield_now();
                server_ref.publish(&artifact2);
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    let mut ctx = server_ref.inference_context();
                    for _ in 0..40 {
                        let pred = ctx.predict(probe);
                        assert!(
                            expected_ref.iter().any(|e| tier.within_budget(
                                &pred.model_space,
                                e,
                                0.0
                            )),
                            "answer matches no published generation (torn snapshot?)"
                        );
                    }
                });
            }
            publisher.join().unwrap();
        });
        assert_eq!(server.version(), 2);

        // After the dust settles, a fresh context serves generation 2 and the
        // stream path reports per-request latency stats measured from enqueue.
        let shops: Vec<usize> = (0..30).map(|i| i % 10).collect();
        let (preds, stats) = server.serve(&shops, ServeConfig { workers: 3, micro_batch: 1 });
        assert_eq!(preds.len(), shops.len());
        assert_eq!(preds[probe].node, probe, "results come back in request order");
        assert!(
            tier.within_budget(&preds[probe].model_space, &expected[1], 0.0),
            "served answer matches generation 2"
        );
        assert_eq!(stats.requests, 30);
        assert_eq!(stats.per_worker.len(), 3);
        assert_eq!(stats.per_worker.iter().sum::<usize>(), 30);
        assert!(stats.latency_p50 > 0.0 && stats.latency_p50 <= stats.latency_p95);
        assert!(
            stats.latency_p95 <= stats.latency_p99 && stats.latency_p99 <= stats.seconds * 1.001
        );
        assert!(stats.per_second > 0.0);
    }
}
