//! Synthetic e-seller world generation.
//!
//! The generator is the stand-in for the paper's proprietary Alipay data. It
//! produces exactly the structures the paper's model design exploits:
//!
//! * **Temporal deficiency** (Fig 1a): shop ages follow a skewed
//!   distribution, so many shops have short GMV series.
//! * **Intra temporal shift**: every shop carries an annual seasonal
//!   component — its GMV resembles itself 12 months ago.
//! * **Inter temporal shift**: suppliers track their industry's market
//!   factor *ahead* of retailers (retailers buy first, sell later), so a
//!   supplier's series is a left-shifted version of its retailers'.
//! * **Same-owner coherence**: shops in one owner cluster share promotion
//!   spikes (shopping festivals in months 6, 11, 12).
//!
//! GMV is multiplicative in log space:
//! `gmv_v(t) = base_v · exp(market + seasonal + owner + noise)`.

use crate::config::WorldConfig;
use crate::mutate::DirtySet;
use gaia_graph::{Edge, EdgeType, EsellerGraph};
use gaia_tensor::claim::{for_each_claimed, Claims};
use gaia_tensor::gauss;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Role of a shop in supply chains.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Role {
    /// Upstream: sells goods to retailers; leads the market factor.
    Supplier,
    /// Downstream: sells to consumers; follows the market factor.
    Retailer,
}

/// One generated shop.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Shop {
    /// Raw monthly GMV in currency units; months before `opened` are 0.
    pub gmv: Vec<f64>,
    /// Monthly order counts (auxiliary temporal feature / mining input).
    pub orders: Vec<f64>,
    /// Monthly unique customers (auxiliary temporal feature).
    pub customers: Vec<f64>,
    /// First month with activity.
    pub opened: usize,
    /// Industry id.
    pub industry: u16,
    /// Registration region id.
    pub region: u16,
    /// Supply-chain role.
    pub role: Role,
    /// Owner cluster id (shops sharing it are same-owner linked).
    pub owner: u32,
    /// Months the shop leads the market factor by (suppliers only).
    pub lead: usize,
}

impl Shop {
    /// Observed series length within a window ending at `end` (exclusive).
    pub fn observed_len(&self, end: usize) -> usize {
        end.saturating_sub(self.opened)
    }
}

/// Ground-truth supply relation kept for evaluating the mining path.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrueSupplyLink {
    /// Supplier shop id.
    pub supplier: u32,
    /// Retailer shop id.
    pub retailer: u32,
    /// Lead in months.
    pub lead: usize,
}

/// A fully generated world: shops, the e-seller graph and bookkeeping.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct World {
    /// Generation parameters.
    pub config: WorldConfig,
    /// All shops, indexed by node id.
    pub shops: Vec<Shop>,
    /// The e-seller graph (supply + same-owner/shareholder edges).
    pub graph: EsellerGraph,
    /// Ground-truth supply links (superset info for mining evaluation).
    pub true_supply_links: Vec<TrueSupplyLink>,
    /// Nodes mutated since the last publish (see `crate::mutate`). Freshly
    /// generated worlds start clean.
    pub(crate) dirty: DirtySet,
}

/// Month-of-year (0-based) for a generated month index; the world starts in
/// January of year 0 by convention.
pub fn month_of_year(t: usize) -> usize {
    t % 12
}

/// Shopping-festival boost applied in log space (6.18, 11.11 and 12.12
/// festivals — the "willingness to participate in shopping festivals" of
/// Section III-B).
fn festival_boost(month: usize) -> f64 {
    match month_of_year(month) {
        5 => 0.5,  // June (6.18)
        10 => 1.0, // November (11.11)
        11 => 0.7, // December (12.12)
        _ => 0.0,
    }
}

/// Shops per claimed run of the GMV synthesis (see [`World::generate`]):
/// a few milliseconds of work per run, so the workers finish within one
/// run of each other at 10k shops and up.
const SYNTH_RUN: usize = 512;

impl World {
    /// Generate a world deterministically from its configuration.
    ///
    /// The world is a pure function of `config`: every draw comes from one
    /// `StdRng` stream seeded with `config.seed`, in a fixed order
    /// (industry factors, shop assignments, owner clusters, ages, per-shop
    /// GMV series, then edges), and the result is bit-identical however
    /// many cores the host has.
    ///
    /// The per-shop GMV series, most of the cost, are synthesised in
    /// parallel by stream replay. Every draw of the stream is exactly one
    /// `next_u64` (`gauss` always takes two: its `u1 >= f32::EPSILON`
    /// keeps `z` finite), so shop `v` consumes exactly
    /// `5 + 4·(months − opened[v])` draws. The caller walks the shops once,
    /// saves the stream state at the start of each run of [`SYNTH_RUN`]
    /// shops and advances it by the run's draw count with bare `next_u64`
    /// calls; workers then claim runs and fill them from the saved states.
    /// The stream leaves the pass in the state the sequential loop would
    /// leave it, so edge generation draws the same values. The caller
    /// allocates all three series of every shop; workers allocate nothing,
    /// and a world of one run synthesises inline. A test-side sequential
    /// reference pins the series bits, every shop field, the links, the
    /// CSR and the stream state after synthesis for several worker counts.
    pub fn generate(config: WorldConfig) -> World {
        let workers = gaia_tensor::claim::claim_workers(config.n_shops.div_ceil(SYNTH_RUN));
        Self::generate_with(config, |rng, shops, inputs| {
            synthesize_series(rng, shops, inputs, workers)
        })
    }

    /// [`World::generate`] with the GMV series synthesis as a parameter:
    /// `synthesize` receives the stream right after the ages are drawn and
    /// every shop with its fields set and its series zeroed.
    fn generate_with(
        config: WorldConfig,
        synthesize: impl FnOnce(&mut StdRng, &mut [Shop], &SeriesInputs<'_>),
    ) -> World {
        config.validate().expect("invalid WorldConfig");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let n = config.n_shops;
        let months = config.months;

        // --- Industry market factors -------------------------------------
        // Each industry has a seasonal phase, a mild trend and smooth noise.
        // Evaluated analytically so suppliers can sample it at t + lead.
        let industries: Vec<IndustryFactor> = (0..config.n_industries)
            .map(|_| IndustryFactor {
                phase: rng.gen_range(0.0..12.0),
                trend: rng.gen_range(-0.01..0.02),
                wobble_freq: rng.gen_range(0.2..0.6),
                wobble_phase: rng.gen_range(0.0..std::f64::consts::TAU),
            })
            .collect();

        // --- Static assignments ------------------------------------------
        let mut shops_meta: Vec<(u16, u16, Role, usize)> = (0..n)
            .map(|_| {
                let industry = rng.gen_range(0..config.n_industries) as u16;
                let region = rng.gen_range(0..config.n_regions) as u16;
                let role = if rng.gen_bool(config.supplier_fraction) {
                    Role::Supplier
                } else {
                    Role::Retailer
                };
                let lead = if role == Role::Supplier {
                    rng.gen_range(config.supply_lead_months.clone())
                } else {
                    0
                };
                (industry, region, role, lead)
            })
            .collect();
        // Guarantee at least one supplier and one retailer per industry when
        // possible, so supply chains exist everywhere. Membership is
        // bucketed in one O(n) pass instead of rescanning every shop per
        // industry — the same indexing discipline as `mining_candidates`,
        // needed once worlds grow past ~10k shops.
        let mut members_by_industry: Vec<Vec<usize>> = vec![Vec::new(); config.n_industries];
        for (v, meta) in shops_meta.iter().enumerate() {
            members_by_industry[meta.0 as usize].push(v);
        }
        for ind in 0..config.n_industries {
            let members = &members_by_industry[ind];
            if members.len() >= 2 {
                let has_supplier = members.iter().any(|&v| shops_meta[v].2 == Role::Supplier);
                if !has_supplier {
                    let v = members[0];
                    shops_meta[v].2 = Role::Supplier;
                    shops_meta[v].3 = config.supply_lead_months.start;
                }
                let has_retailer = members.iter().any(|&v| shops_meta[v].2 == Role::Retailer);
                if !has_retailer {
                    shops_meta[members[1]].2 = Role::Retailer;
                    shops_meta[members[1]].3 = 0;
                }
            }
        }

        // --- Owner clusters ------------------------------------------------
        let (owner_of, owner_factor) = assign_owner_clusters(&mut rng, n, &config);

        // --- Ages (temporal deficiency) ------------------------------------
        // A fraction of shops is old (full history); the rest opened recently
        // with a geometric-ish skew toward very short series.
        // Every shop opens early enough to have nonzero targets and at least
        // a few observed input months — the paper forecasts *existing*
        // e-sellers, so the horizon itself is always observed.
        let min_age = config.horizon + 3;
        let opened: Vec<usize> = (0..n)
            .map(|_| {
                if rng.gen_bool(config.full_history_fraction) {
                    0
                } else {
                    // Age in months, biased short: age = months * u^2.
                    let u: f64 = rng.gen_range(0.05..1.0);
                    let age = ((months as f64) * u * u).max(min_age as f64) as usize;
                    months.saturating_sub(age.min(months))
                }
            })
            .collect();

        // --- GMV synthesis --------------------------------------------------
        let mut shops: Vec<Shop> = (0..n)
            .map(|v| {
                let (industry, region, role, lead) = shops_meta[v];
                Shop {
                    gmv: vec![0.0; months],
                    orders: vec![0.0; months],
                    customers: vec![0.0; months],
                    opened: opened[v],
                    industry,
                    region,
                    role,
                    owner: owner_of[v],
                    lead,
                }
            })
            .collect();
        let inputs =
            SeriesInputs { config: &config, industries: &industries, owners: &owner_factor };
        synthesize(&mut rng, &mut shops, &inputs);

        // --- Edges -----------------------------------------------------------
        let mut edges: Vec<Edge> = Vec::new();
        let mut true_links: Vec<TrueSupplyLink> = Vec::new();
        // Supply chain: each retailer links to suppliers of its industry.
        // Suppliers are bucketed by industry in one pass (was an O(I·n)
        // rescan).
        let mut suppliers_by_industry: Vec<Vec<u32>> = vec![Vec::new(); config.n_industries];
        for (v, shop) in shops.iter().enumerate() {
            if shop.role == Role::Supplier {
                suppliers_by_industry[shop.industry as usize].push(v as u32);
            }
        }
        for v in 0..n {
            if shops[v].role != Role::Retailer {
                continue;
            }
            let pool = &suppliers_by_industry[shops[v].industry as usize];
            if pool.is_empty() {
                continue;
            }
            let k =
                sample_poisson_like(config.suppliers_per_retailer, &mut rng).clamp(1, pool.len());
            for _ in 0..k {
                let s = pool[rng.gen_range(0..pool.len())];
                edges.push(Edge { src: s, dst: v as u32, ty: EdgeType::SupplyChain });
                true_links.push(TrueSupplyLink {
                    supplier: s,
                    retailer: v as u32,
                    lead: shops[s as usize].lead,
                });
            }
        }
        // Same owner / shareholder: clique within each owner cluster. The
        // clusters are walked in ascending owner id so the per-pair edge-type
        // draws land on the same pairs in every process.
        // Owner ids are dense (`0..owner_factor.len()`), so the clusters are
        // counting-sorted into one flat member list, ascending owner id
        // then ascending shop id.
        let mut owner_start = vec![0usize; owner_factor.len() + 1];
        for shop in &shops {
            owner_start[shop.owner as usize + 1] += 1;
        }
        for o in 0..owner_factor.len() {
            owner_start[o + 1] += owner_start[o];
        }
        let mut members = vec![0u32; n];
        let mut fill = owner_start.clone();
        for (v, shop) in shops.iter().enumerate() {
            members[fill[shop.owner as usize]] = v as u32;
            fill[shop.owner as usize] += 1;
        }
        for group in owner_start.windows(2).map(|w| &members[w[0]..w[1]]) {
            for a in 0..group.len() {
                for b in (a + 1)..group.len() {
                    let ty = if rng.gen_bool(config.shareholder_prob) {
                        EdgeType::SameShareholder
                    } else {
                        EdgeType::SameOwner
                    };
                    edges.push(Edge { src: group[a], dst: group[b], ty });
                }
            }
        }

        let graph = EsellerGraph::from_edges(n, &edges);
        World { config, shops, graph, true_supply_links: true_links, dirty: DirtySet::default() }
    }

    /// Candidate `(supplier, retailer)` pairs for the mining path: all pairs
    /// sharing an industry with opposite roles, capped per retailer.
    ///
    /// Suppliers are bucketed by industry in one O(n) pass, then each
    /// retailer reads its industry's bucket — replacing the former
    /// all-pairs scan (O(n²), the `generate_dataset` scaling wall past
    /// ~10k shops) while producing the **identical** pair list: buckets
    /// keep ascending supplier ids, exactly the order the scan emitted.
    pub fn mining_candidates(&self, cap_per_retailer: usize) -> Vec<(u32, u32)> {
        let mut suppliers_by_industry: Vec<Vec<u32>> = vec![Vec::new(); self.config.n_industries];
        for (s, shop) in self.shops.iter().enumerate() {
            if shop.role == Role::Supplier {
                suppliers_by_industry[shop.industry as usize].push(s as u32);
            }
        }
        let mut out = Vec::new();
        for (r, shop) in self.shops.iter().enumerate() {
            if shop.role != Role::Retailer {
                continue;
            }
            let bucket = &suppliers_by_industry[shop.industry as usize];
            for &s in bucket.iter().take(cap_per_retailer) {
                out.push((s, r as u32));
            }
        }
        out
    }
}

/// Smooth per-industry market factor, evaluable at fractional months so
/// suppliers can lead it.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct IndustryFactor {
    phase: f64,
    trend: f64,
    wobble_freq: f64,
    wobble_phase: f64,
}

impl IndustryFactor {
    fn value(&self, t: f64) -> f64 {
        let annual = (std::f64::consts::TAU * (t + self.phase) / 12.0).sin();
        let wobble = 0.4 * (self.wobble_freq * t + self.wobble_phase).sin();
        annual + wobble + self.trend * t
    }
}

/// What a shop's GMV series synthesis reads besides the shop itself.
struct SeriesInputs<'a> {
    config: &'a WorldConfig,
    industries: &'a [IndustryFactor],
    owners: &'a [OwnerFactor],
}

/// Stream draws one shop's series synthesis takes ([`fill_series`]): five
/// per shop (`gauss` for the base takes two, then phase, amplitude and
/// ticket) and four per observed month (`gauss` noise, orders, customers).
fn series_draws(shop: &Shop, months: usize) -> usize {
    5 + 4 * months.saturating_sub(shop.opened)
}

/// Fill every shop's GMV, order and customer series from `rng` by stream
/// replay over claimed runs of [`SYNTH_RUN`] shops on `workers` threads
/// (see [`World::generate`]). Leaves `rng` where a sequential walk would.
fn synthesize_series(
    rng: &mut StdRng,
    shops: &mut [Shop],
    inputs: &SeriesInputs<'_>,
    workers: usize,
) {
    let months = inputs.config.months;
    // `market[i][k]` is industry `i`'s scaled market factor at month `k`.
    // A supplier reads it at `t + lead`: the same integer-valued `f64`
    // argument as `t as f64 + lead as f64`, so the same bits.
    let width = months + shops.iter().map(|s| s.lead).max().unwrap_or(0);
    let market: Vec<f64> = inputs
        .industries
        .iter()
        .flat_map(|ind| (0..width).map(|k| inputs.config.market_amplitude * ind.value(k as f64)))
        .collect();
    let mut starts: Vec<StdRng> = Vec::with_capacity(shops.len().div_ceil(SYNTH_RUN));
    for run in shops.chunks(SYNTH_RUN) {
        starts.push(rng.clone());
        for _ in 0..run.iter().map(|shop| series_draws(shop, months)).sum::<usize>() {
            rng.next_u64();
        }
    }
    let end = rng.clone();
    let claims = Claims::new(shops, SYNTH_RUN);
    for_each_claimed(&claims, workers, |k, run| {
        let mut r = starts[k].clone();
        for shop in run {
            let row = &market[shop.industry as usize * width..][..width];
            fill_series(shop, &mut r, inputs, row);
        }
        debug_assert_eq!(
            r.next_u64(),
            starts.get(k + 1).unwrap_or(&end).clone().next_u64(),
            "run {k} took other than its counted draws"
        );
    });
}

/// Synthesise one shop's three series from `rng`, taking exactly
/// [`series_draws`] draws. `market` is the shop's industry row of the
/// scaled market-factor table.
fn fill_series(shop: &mut Shop, rng: &mut StdRng, inputs: &SeriesInputs<'_>, market: &[f64]) {
    let config = inputs.config;
    let base = config.base_gmv * (gauss(rng) as f64 * config.base_sigma).exp();
    let of = &inputs.owners[shop.owner as usize];
    // Per-shop seasonal phase: mostly aligned with the industry but with
    // small jitter, amplitude scaled by config.
    let season_phase = inputs.industries[shop.industry as usize].phase + rng.gen_range(-1.0..1.0);
    let season_amp = config.seasonal_amplitude * rng.gen_range(0.5..1.5);
    let avg_ticket = rng.gen_range(50.0..500.0);
    let lead = shop.lead;
    for t in shop.opened..config.months {
        // Suppliers see market demand `lead` months early: retailers stock
        // up before they sell, so every demand-driven component (market,
        // seasonality, festivals) is left-shifted for them.
        let t_eff = t as f64 + lead as f64;
        let market = market[t + lead];
        let seasonal = season_amp * (std::f64::consts::TAU * (t_eff + season_phase) / 12.0).sin();
        // Festivals hit retailers directly; suppliers feel them early
        // (stocking orders) at reduced strength.
        let festival = match shop.role {
            Role::Retailer => festival_boost(t),
            Role::Supplier => 0.6 * festival_boost(t + lead),
        };
        let owner_term = config.owner_amplitude * of.festival_affinity * festival + of.base_mood;
        let noise = gauss(rng) as f64 * config.noise_std;
        let g = base * (market + seasonal + owner_term + noise).exp();
        shop.gmv[t] = g.max(1.0);
        let o = (g / avg_ticket).max(1.0);
        shop.orders[t] = o * rng.gen_range(0.9..1.1);
        shop.customers[t] = (o * rng.gen_range(0.5..0.9)).max(1.0);
    }
}

/// Per-owner behavioural factor.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct OwnerFactor {
    festival_affinity: f64,
    base_mood: f64,
}

/// Assign shops to owner clusters.
///
/// Semantics (pinned by `owner_clusters_match_linear_rescan_reference`):
/// scan shops in order; each still-unassigned shop seeds a new owner, then
/// with probability `owner_cluster_fraction` pulls in later shops, flipping
/// one fair coin per *unassigned* candidate in increasing index order until
/// the cluster budget is met. The RNG draw sequence is exactly that of the
/// naive linear rescan, but already-assigned candidates are skipped via
/// path-compressed next-unassigned pointers instead of being re-walked for
/// every cluster — near-O(n) total instead of O(n · clusters).
fn assign_owner_clusters(
    rng: &mut impl Rng,
    n: usize,
    config: &WorldConfig,
) -> (Vec<u32>, Vec<OwnerFactor>) {
    let mut owner_of = vec![u32::MAX; n];
    let mut owner_factor: Vec<OwnerFactor> = Vec::new();
    // `next_free[j]` points toward the smallest unassigned index >= j. Roots
    // (`next_free[j] == j`) are unassigned slots, with `n` as the sentinel
    // root; assigning slot `j` links it to `j + 1`.
    let mut next_free: Vec<u32> = (0..=n as u32).collect();
    fn find(next_free: &mut [u32], start: usize) -> usize {
        let mut root = start;
        while next_free[root] as usize != root {
            root = next_free[root] as usize;
        }
        let mut j = start;
        while next_free[j] as usize != j {
            let step = next_free[j] as usize;
            next_free[j] = root as u32;
            j = step;
        }
        root
    }
    let mut i = 0;
    while i < n {
        if owner_of[i] != u32::MAX {
            i += 1;
            continue;
        }
        let owner = owner_factor.len() as u32;
        owner_factor.push(OwnerFactor {
            festival_affinity: rng.gen_range(0.2..1.0),
            base_mood: rng.gen_range(-0.1..0.1),
        });
        owner_of[i] = owner;
        next_free[i] = (i + 1) as u32;
        if rng.gen_bool(config.owner_cluster_fraction) {
            // Pull in additional shops for this owner.
            let extra = ((config.owner_cluster_size - 1.0).max(0.0) * rng.gen_range(0.5..1.5))
                .round() as usize;
            let mut added = 0;
            let mut j = find(&mut next_free, i + 1);
            while j < n && added < extra {
                if rng.gen_bool(0.5) {
                    owner_of[j] = owner;
                    next_free[j] = (j + 1) as u32;
                    added += 1;
                }
                j = find(&mut next_free, j + 1);
            }
        }
        i += 1;
    }
    (owner_of, owner_factor)
}

/// Small-mean integer sample approximating a Poisson draw (exact enough for
/// choosing 1-4 suppliers).
fn sample_poisson_like<R: Rng>(mean: f64, rng: &mut R) -> usize {
    let mut k = mean.floor() as usize;
    if rng.gen_bool(mean - mean.floor()) {
        k += 1;
    }
    // Add occasional extra link for heavy-ish tail.
    if rng.gen_bool(0.1) {
        k += 1;
    }
    k.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_graph::lagged_correlation;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn determinism() {
        let a = World::generate(WorldConfig::tiny());
        let b = World::generate(WorldConfig::tiny());
        assert_eq!(a.shops[0].gmv, b.shops[0].gmv);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
    }

    /// Two generations of one config produce the identical edge list —
    /// edge endpoints *and* types, in order. Owner cliques draw one edge
    /// type per pair, so the clique walk order must not depend on hash
    /// state.
    #[test]
    fn same_config_generates_identical_edges() {
        let cfg = WorldConfig { n_shops: 1000, seed: 99, ..WorldConfig::default() };
        let a: Vec<Edge> = World::generate(cfg.clone()).graph.edges().collect();
        let b: Vec<Edge> = World::generate(cfg).graph.edges().collect();
        assert!(a.iter().any(|e| e.ty == EdgeType::SameShareholder));
        assert!(a.iter().any(|e| e.ty == EdgeType::SameOwner));
        assert_eq!(a, b);
    }

    #[test]
    fn shapes_and_positivity() {
        let w = world();
        assert_eq!(w.shops.len(), w.config.n_shops);
        for shop in &w.shops {
            assert_eq!(shop.gmv.len(), w.config.months);
            for t in 0..shop.opened {
                assert_eq!(shop.gmv[t], 0.0);
            }
            for t in shop.opened..w.config.months {
                assert!(shop.gmv[t] >= 1.0, "gmv must be positive after opening");
                assert!(shop.orders[t] >= 1.0);
            }
        }
    }

    #[test]
    fn age_distribution_is_skewed() {
        let w = World::generate(WorldConfig { n_shops: 2000, ..WorldConfig::default() });
        let full = w.shops.iter().filter(|s| s.opened == 0).count();
        let short =
            w.shops.iter().filter(|s| s.observed_len(w.config.horizon_start()) < 10).count();
        // Close to the configured fraction of old shops...
        assert!((full as f64 / 2000.0 - 0.4).abs() < 0.08, "full fraction {}", full);
        // ...and a sizeable "new shop" group exists for the Fig 3 experiment.
        assert!(short > 100, "short-history shops: {short}");
    }

    #[test]
    fn supply_chain_lead_is_detectable() {
        // A supplier's GMV should correlate more strongly with its retailer's
        // *future* than with its present — averaged over true links.
        let w = World::generate(WorldConfig {
            n_shops: 400,
            noise_std: 0.02,
            ..WorldConfig::default()
        });
        let mut lead_scores = 0.0;
        let mut sync_scores = 0.0;
        let mut count = 0;
        for link in &w.true_supply_links {
            let s = &w.shops[link.supplier as usize];
            let r = &w.shops[link.retailer as usize];
            if s.opened > 0 || r.opened > 0 {
                continue;
            }
            let sv: Vec<f32> = s.gmv.iter().map(|&x| (x as f32).ln()).collect();
            let rv: Vec<f32> = r.gmv.iter().map(|&x| (x as f32).ln()).collect();
            lead_scores += lagged_correlation(&sv, &rv, link.lead);
            sync_scores += lagged_correlation(&sv, &rv, 0);
            count += 1;
        }
        assert!(count > 20, "need enough fully-observed links, got {count}");
        let lead_avg = lead_scores / count as f32;
        let sync_avg = sync_scores / count as f32;
        assert!(
            lead_avg > sync_avg + 0.05,
            "lead corr {lead_avg} should beat sync corr {sync_avg}"
        );
    }

    #[test]
    fn seasonality_creates_annual_self_similarity() {
        let w = World::generate(WorldConfig {
            n_shops: 200,
            months: 36,
            noise_std: 0.02,
            ..WorldConfig::default()
        });
        let mut annual = 0.0;
        let mut offset7 = 0.0;
        let mut count = 0;
        for shop in &w.shops {
            if shop.opened > 0 {
                continue;
            }
            let v: Vec<f32> = shop.gmv.iter().map(|&x| (x as f32).ln()).collect();
            annual += lagged_correlation(&v, &v, 12);
            offset7 += lagged_correlation(&v, &v, 7);
            count += 1;
        }
        assert!(count > 10);
        assert!(
            annual / count as f32 > offset7 / count as f32,
            "12-month self-correlation should beat 7-month"
        );
    }

    #[test]
    fn owner_clusters_share_edges() {
        let w = world();
        let counts = w.graph.edge_type_counts();
        assert!(counts[EdgeType::SameOwner.feature_index()] > 0);
        assert!(counts[EdgeType::SupplyChain.feature_index()] > 0);
    }

    #[test]
    fn mining_candidates_respect_roles() {
        let w = world();
        for (s, r) in w.mining_candidates(5) {
            assert_eq!(w.shops[s as usize].role, Role::Supplier);
            assert_eq!(w.shops[r as usize].role, Role::Retailer);
            assert_eq!(w.shops[s as usize].industry, w.shops[r as usize].industry);
        }
    }

    /// The old O(n²) all-pairs scan, kept as the behavioural reference for
    /// the bucketed implementation.
    fn mining_candidates_brute_force(w: &World, cap: usize) -> Vec<(u32, u32)> {
        let n = w.shops.len();
        let mut out = Vec::new();
        for r in 0..n {
            if w.shops[r].role != Role::Retailer {
                continue;
            }
            let mut count = 0;
            for s in 0..n {
                if count >= cap {
                    break;
                }
                if w.shops[s].role == Role::Supplier && w.shops[s].industry == w.shops[r].industry {
                    out.push((s as u32, r as u32));
                    count += 1;
                }
            }
        }
        out
    }

    /// Bucketed indexing must emit the *identical* pair list as the
    /// all-pairs scan, across the cap boundaries where off-by-ones live:
    /// cap 0, cap 1, caps straddling the largest bucket size, and unbounded.
    #[test]
    fn mining_candidates_bucketed_matches_brute_force_at_boundaries() {
        let w = World::generate(WorldConfig { n_shops: 300, ..WorldConfig::default() });
        let mut per_industry = vec![0usize; w.config.n_industries];
        for s in &w.shops {
            if s.role == Role::Supplier {
                per_industry[s.industry as usize] += 1;
            }
        }
        let largest = per_industry.iter().copied().max().unwrap_or(0);
        assert!(largest >= 2, "world must have a multi-supplier industry");
        for cap in [0, 1, largest - 1, largest, largest + 3, usize::MAX] {
            assert_eq!(
                w.mining_candidates(cap),
                mining_candidates_brute_force(&w, cap),
                "bucketed candidates diverge from the all-pairs scan at cap {cap}"
            );
        }
        // Cap 0 must yield nothing; unbounded yields every cross-role pair.
        assert!(w.mining_candidates(0).is_empty());
    }

    /// Reference owner clustering: the original O(n · clusters) linear
    /// rescan, kept verbatim so the skip-pointer version is pinned to the
    /// exact same RNG draw sequence (worlds feed the golden predictions, so
    /// the stream must not move).
    fn assign_owner_clusters_linear_rescan(
        rng: &mut impl Rng,
        n: usize,
        config: &WorldConfig,
    ) -> (Vec<u32>, Vec<OwnerFactor>) {
        let mut owner_of = vec![u32::MAX; n];
        let mut next_owner = 0u32;
        let mut owner_factor: Vec<OwnerFactor> = Vec::new();
        let mut i = 0;
        while i < n {
            if owner_of[i] != u32::MAX {
                i += 1;
                continue;
            }
            let owner = next_owner;
            next_owner += 1;
            owner_factor.push(OwnerFactor {
                festival_affinity: rng.gen_range(0.2..1.0),
                base_mood: rng.gen_range(-0.1..0.1),
            });
            owner_of[i] = owner;
            if rng.gen_bool(config.owner_cluster_fraction) {
                let extra = ((config.owner_cluster_size - 1.0).max(0.0) * rng.gen_range(0.5..1.5))
                    .round() as usize;
                let mut added = 0;
                let mut j = i + 1;
                while j < n && added < extra {
                    if owner_of[j] == u32::MAX && rng.gen_bool(0.5) {
                        owner_of[j] = owner;
                        added += 1;
                    }
                    j += 1;
                }
            }
            i += 1;
        }
        (owner_of, owner_factor)
    }

    #[test]
    fn owner_clusters_match_linear_rescan_reference() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Sweep seeds, sizes and clustering aggressiveness; compare the
        // assignment, the factors, and the RNG state afterwards (the whole
        // rest of world generation draws from the same stream).
        for seed in [0u64, 7, 9, 11, 42] {
            for (n, fraction, size) in
                [(1, 0.35, 3.0), (50, 0.35, 3.0), (500, 0.9, 12.0), (300, 0.0, 3.0)]
            {
                let config = WorldConfig {
                    n_shops: n,
                    owner_cluster_fraction: fraction,
                    owner_cluster_size: size,
                    seed,
                    ..WorldConfig::default()
                };
                let mut rng_fast = StdRng::seed_from_u64(seed);
                let mut rng_ref = StdRng::seed_from_u64(seed);
                let fast = assign_owner_clusters(&mut rng_fast, n, &config);
                let reference = assign_owner_clusters_linear_rescan(&mut rng_ref, n, &config);
                assert_eq!(fast.0, reference.0, "owner_of diverges (seed {seed}, n {n})");
                assert_eq!(fast.1, reference.1, "owner factors diverge (seed {seed}, n {n})");
                let after_fast: Vec<u64> = (0..8).map(|_| rng_fast.gen()).collect();
                let after_ref: Vec<u64> = (0..8).map(|_| rng_ref.gen()).collect();
                assert_eq!(after_fast, after_ref, "RNG stream moved (seed {seed}, n {n})");
            }
        }
    }

    /// The sequential GMV synthesis the stream replay replaced, kept as its
    /// reference: one walk over the shops on the one stream, the market
    /// factor evaluated per month.
    fn synthesize_sequential(rng: &mut StdRng, shops: &mut [Shop], inputs: &SeriesInputs<'_>) {
        let config = inputs.config;
        let industries = inputs.industries;
        for shop in shops.iter_mut() {
            let (industry, role, lead) = (shop.industry, shop.role, shop.lead);
            let base = config.base_gmv * (gauss(rng) as f64 * config.base_sigma).exp();
            let of = &inputs.owners[shop.owner as usize];
            let season_phase = industries[industry as usize].phase + rng.gen_range(-1.0..1.0);
            let season_amp = config.seasonal_amplitude * rng.gen_range(0.5..1.5);
            let avg_ticket = rng.gen_range(50.0..500.0);
            for t in shop.opened..config.months {
                let t_eff = t as f64 + lead as f64;
                let market = config.market_amplitude * industries[industry as usize].value(t_eff);
                let seasonal =
                    season_amp * (std::f64::consts::TAU * (t_eff + season_phase) / 12.0).sin();
                let festival = match role {
                    Role::Retailer => festival_boost(t),
                    Role::Supplier => 0.6 * festival_boost(t + lead),
                };
                let owner_term =
                    config.owner_amplitude * of.festival_affinity * festival + of.base_mood;
                let noise = gauss(rng) as f64 * config.noise_std;
                let g = base * (market + seasonal + owner_term + noise).exp();
                shop.gmv[t] = g.max(1.0);
                let o = (g / avg_ticket).max(1.0);
                shop.orders[t] = o * rng.gen_range(0.9..1.1);
                shop.customers[t] = (o * rng.gen_range(0.5..0.9)).max(1.0);
            }
        }
    }

    /// Generate a world with `synthesize` and record the next eight
    /// outputs of the stream right after synthesis.
    fn generate_recording(
        config: WorldConfig,
        synthesize: impl FnOnce(&mut StdRng, &mut [Shop], &SeriesInputs<'_>),
    ) -> (World, Vec<u64>) {
        let mut after = Vec::new();
        let world = World::generate_with(config, |rng, shops, inputs| {
            synthesize(rng, shops, inputs);
            let mut probe = rng.clone();
            after = (0..8).map(|_| probe.next_u64()).collect();
        });
        (world, after)
    }

    /// Bit-for-bit world equality: every series bit, every shop field,
    /// the ground-truth links and the CSR (entries per node, edge count
    /// and edge order).
    fn assert_worlds_identical(a: &World, b: &World, label: &str) {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(a.shops.len(), b.shops.len(), "{label}: shop count");
        for (v, (x, y)) in a.shops.iter().zip(&b.shops).enumerate() {
            assert_eq!(bits(&x.gmv), bits(&y.gmv), "{label}: gmv of shop {v}");
            assert_eq!(bits(&x.orders), bits(&y.orders), "{label}: orders of shop {v}");
            assert_eq!(bits(&x.customers), bits(&y.customers), "{label}: customers of shop {v}");
            assert_eq!(
                (x.opened, x.industry, x.region, x.role, x.owner, x.lead),
                (y.opened, y.industry, y.region, y.role, y.owner, y.lead),
                "{label}: fields of shop {v}"
            );
        }
        let links = |w: &World| -> Vec<(u32, u32, usize)> {
            w.true_supply_links.iter().map(|l| (l.supplier, l.retailer, l.lead)).collect()
        };
        assert_eq!(links(a), links(b), "{label}: supply links");
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes(), "{label}: nodes");
        assert_eq!(a.graph.num_edges(), b.graph.num_edges(), "{label}: edge count");
        for v in 0..a.graph.num_nodes() {
            assert_eq!(a.graph.neighbors(v), b.graph.neighbors(v), "{label}: CSR at node {v}");
        }
        assert!(a.graph.edges().eq(b.graph.edges()), "{label}: edge order");
    }

    /// COLD-START INVARIANCE — the stream-replay synthesis over claimed
    /// runs builds the same world as the sequential walk, for every worker
    /// count, at sizes around the run boundaries and on the tiny config,
    /// and leaves the stream in the same state for the edge draws.
    #[test]
    fn claimed_synthesis_matches_sequential_reference() {
        let mut configs = vec![WorldConfig::tiny()];
        for seed in [0u64, 7, 42] {
            for n_shops in [1, SYNTH_RUN - 1, SYNTH_RUN, SYNTH_RUN + 1, 2 * SYNTH_RUN + 1] {
                configs.push(WorldConfig { n_shops, seed, ..WorldConfig::default() });
            }
        }
        for config in configs {
            let label = format!("seed {} n {}", config.seed, config.n_shops);
            let (reference, ref_after) =
                generate_recording(config.clone(), |rng, shops, inputs| {
                    synthesize_sequential(rng, shops, inputs)
                });
            for workers in [1, 2, 3] {
                let (world, after) = generate_recording(config.clone(), |rng, shops, inputs| {
                    synthesize_series(rng, shops, inputs, workers)
                });
                let label = format!("{label} workers {workers}");
                assert_worlds_identical(&world, &reference, &label);
                assert_eq!(after, ref_after, "{label}: stream state after synthesis");
            }
            assert_worlds_identical(&World::generate(config), &reference, &label);
        }
    }

    #[test]
    fn festival_months_boost_november() {
        // Average retailer GMV in November (month_of_year == 10) should beat
        // the February baseline. Seasonal/market amplitudes are muted so the
        // festival effect is isolated from the 8 random industry phases.
        let w = World::generate(WorldConfig {
            n_shops: 500,
            seasonal_amplitude: 0.05,
            market_amplitude: 0.05,
            ..WorldConfig::default()
        });
        let mut nov = 0.0;
        let mut feb = 0.0;
        let mut n_nov = 0.0;
        let mut n_feb = 0.0;
        for shop in &w.shops {
            if shop.role != Role::Retailer {
                continue;
            }
            for t in shop.opened..w.config.months {
                match month_of_year(t) {
                    10 => {
                        nov += shop.gmv[t].ln();
                        n_nov += 1.0;
                    }
                    1 => {
                        feb += shop.gmv[t].ln();
                        n_feb += 1.0;
                    }
                    _ => {}
                }
            }
        }
        assert!(nov / n_nov > feb / n_feb, "festival boost missing");
    }
}
