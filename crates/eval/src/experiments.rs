//! Experiment drivers regenerating every table and figure of the paper.
//! Each `run_*` returns a structured result; the `src/bin` binaries print
//! them in the paper's layout and dump JSON next to the text output.

use crate::metrics::{improvement_pct, metrics_for_month, metrics_overall, Metrics};
use crate::zoo::{build_model, ModelKind};
use gaia_baselines::{arima_forecasts, ArimaBaselineConfig};
use gaia_core::trainer::{predict_nodes, train, TrainConfig};
use gaia_core::{Gaia, GaiaConfig, GaiaVariant};
use gaia_graph::{extract_ego, Histogram};
use gaia_synth::{build_dataset, month_of_year, Dataset, World, WorldConfig};
use gaia_timeseries::pearson;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Harness-wide configuration shared by all experiment binaries.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct HarnessConfig {
    /// World generation parameters.
    pub world: WorldConfig,
    /// Training parameters applied identically to every neural model.
    pub train: TrainConfig,
    /// Model init / prediction seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        Self {
            world: WorldConfig::default(),
            train: TrainConfig {
                epochs: 6,
                batch_size: 32,
                lr: 3e-3,
                verbose: true,
                ..TrainConfig::default()
            },
            seed: 17,
        }
    }
}

impl HarnessConfig {
    /// Smaller setting for CI / integration tests.
    pub fn quick() -> Self {
        let mut cfg = Self::default();
        cfg.world.n_shops = 160;
        cfg.train.epochs = 2;
        cfg.train.verbose = false;
        cfg
    }

    /// Parse `--shops N --epochs N --seed N --quiet` style overrides from a
    /// CLI argument list (unknown arguments are ignored so binaries can add
    /// their own).
    pub fn from_args(args: &[String]) -> Self {
        let mut cfg = Self::default();
        let mut i = 0;
        while i < args.len() {
            let take = |i: usize| args.get(i + 1).and_then(|v| v.parse::<usize>().ok());
            match args[i].as_str() {
                "--shops" => {
                    if let Some(v) = take(i) {
                        cfg.world.n_shops = v;
                    }
                    i += 1;
                }
                "--epochs" => {
                    if let Some(v) = take(i) {
                        cfg.train.epochs = v;
                    }
                    i += 1;
                }
                "--seed" => {
                    if let Some(v) = take(i) {
                        cfg.seed = v as u64;
                        cfg.world.seed = v as u64;
                    }
                    i += 1;
                }
                "--quick" => {
                    cfg.world.n_shops = 160;
                    cfg.train.epochs = 2;
                }
                "--quiet" => cfg.train.verbose = false,
                _ => {}
            }
            i += 1;
        }
        cfg
    }

    /// Generate the world and dataset for this configuration.
    pub fn materialize(&self) -> (World, Dataset) {
        let world = World::generate(self.world.clone());
        let ds = build_dataset(&world);
        (world, ds)
    }
}

/// Month label for horizon index `h` ("Oct.", "Nov.", ...).
pub fn month_label(world: &World, h: usize) -> &'static str {
    const NAMES: [&str; 12] = [
        "Jan.", "Feb.", "Mar.", "Apr.", "May.", "Jun.", "Jul.", "Aug.", "Sep.", "Oct.", "Nov.",
        "Dec.",
    ];
    NAMES[month_of_year(world.config.horizon_start() + h)]
}

// ---------------------------------------------------------------------------
// E1: Table I — overall comparison
// ---------------------------------------------------------------------------

/// One Table I row.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MethodResult {
    /// Row label.
    pub name: String,
    /// Per-horizon-month metrics.
    pub months: Vec<Metrics>,
    /// Training seconds (0 for ARIMA which fits per shop at predict time).
    pub train_seconds: f64,
}

/// Full Table I result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Table1Result {
    /// Month column labels.
    pub month_labels: Vec<String>,
    /// One row per method, in the paper's order (ARIMA first, Gaia last).
    pub rows: Vec<MethodResult>,
}

/// Ground-truth target rows for a node set.
fn actuals_for(ds: &Dataset, nodes: &[usize]) -> Vec<Vec<f64>> {
    nodes.iter().map(|&v| ds.targets_raw_row(v).to_vec()).collect()
}

/// Train one neural model and predict the given nodes (currency space).
pub fn train_and_predict(
    kind: ModelKind,
    world: &World,
    ds: &Dataset,
    nodes: &[usize],
    cfg: &HarnessConfig,
) -> (Vec<Vec<f64>>, f64) {
    let mut model = build_model(kind, ds, cfg.seed);
    let t0 = std::time::Instant::now();
    train(&mut *model, ds, &world.graph, &cfg.train);
    let secs = t0.elapsed().as_secs_f64();
    let preds = predict_nodes(&*model, ds, &world.graph, nodes, cfg.seed, cfg.train.threads);
    (preds.into_iter().map(|p| p.currency).collect(), secs)
}

/// Run the full Table I experiment.
pub fn run_table1(cfg: &HarnessConfig) -> Table1Result {
    let (world, ds) = cfg.materialize();
    let nodes = ds.splits.test.clone();
    let actuals = actuals_for(&ds, &nodes);
    let month_labels = (0..ds.horizon).map(|h| month_label(&world, h).to_string()).collect();

    let mut rows = Vec::new();
    // ARIMA (fit per shop at prediction time; no training phase).
    let t0 = std::time::Instant::now();
    let arima = arima_forecasts(&world, &ds, &nodes, &ArimaBaselineConfig::default());
    let arima_secs = t0.elapsed().as_secs_f64();
    rows.push(MethodResult {
        name: "ARIMA".into(),
        months: (0..ds.horizon).map(|h| metrics_for_month(&arima, &actuals, h)).collect(),
        train_seconds: arima_secs,
    });
    // Neural methods.
    for &kind in ModelKind::table1_neural() {
        if cfg.train.verbose {
            eprintln!("== training {} ==", kind.label());
        }
        let (preds, secs) = train_and_predict(kind, &world, &ds, &nodes, cfg);
        rows.push(MethodResult {
            name: kind.label().into(),
            months: (0..ds.horizon).map(|h| metrics_for_month(&preds, &actuals, h)).collect(),
            train_seconds: secs,
        });
    }
    Table1Result { month_labels, rows }
}

// ---------------------------------------------------------------------------
// E2: Table II — ablations
// ---------------------------------------------------------------------------

/// Run the Table II ablation experiment.
pub fn run_table2(cfg: &HarnessConfig) -> Table1Result {
    let (world, ds) = cfg.materialize();
    let nodes = ds.splits.test.clone();
    let actuals = actuals_for(&ds, &nodes);
    let month_labels = (0..ds.horizon).map(|h| month_label(&world, h).to_string()).collect();
    let mut rows = Vec::new();
    for &kind in ModelKind::table2() {
        if cfg.train.verbose {
            eprintln!("== training {} ==", kind.label());
        }
        let (preds, secs) = train_and_predict(kind, &world, &ds, &nodes, cfg);
        rows.push(MethodResult {
            name: kind.label().into(),
            months: (0..ds.horizon).map(|h| metrics_for_month(&preds, &actuals, h)).collect(),
            train_seconds: secs,
        });
    }
    Table1Result { month_labels, rows }
}

// ---------------------------------------------------------------------------
// E3: Fig 1(a) — temporal deficiency histogram
// ---------------------------------------------------------------------------

/// Fig 1(a) result: distribution of observed series lengths.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig1aResult {
    /// Histogram of observed window lengths.
    pub histogram: Histogram,
    /// Sample skewness (positive = right tail... our lengths skew short with
    /// a mass of full histories; the paper's claim is "skew distribution").
    pub skewness: f64,
    /// Fraction of shops with fewer than 10 observed months.
    pub short_fraction: f64,
}

/// Run the Fig 1(a) experiment.
pub fn run_fig1a(cfg: &HarnessConfig) -> Fig1aResult {
    let (_, ds) = cfg.materialize();
    let lens: Vec<f64> = (0..ds.n).map(|v| ds.observed_len(v) as f64).collect();
    let histogram = Histogram::fixed(&lens, 0.0, ds.t as f64 + 1.0, ds.t + 1);
    let short = (0..ds.n).filter(|&v| ds.observed_len(v) < 10).count();
    Fig1aResult {
        skewness: histogram.skewness(),
        histogram,
        short_fraction: short as f64 / ds.n as f64,
    }
}

// ---------------------------------------------------------------------------
// E4: Fig 3 — new vs old shop groups
// ---------------------------------------------------------------------------

/// One group's comparison between Gaia and LogTrans.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupComparison {
    /// "New Shop Group" / "Old Shop Group".
    pub group: String,
    /// Number of test shops in the group.
    pub count: usize,
    /// Gaia metrics (averaged over the horizon).
    pub gaia: Metrics,
    /// LogTrans metrics.
    pub logtrans: Metrics,
    /// MAE improvement of Gaia over LogTrans, percent (Fig 3 convention).
    pub mae_improvement_pct: f64,
    /// MAPE improvement, percent.
    pub mape_improvement_pct: f64,
}

/// Fig 3 result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig3Result {
    /// New (T < 10) then Old (T >= 10) group comparisons.
    pub groups: Vec<GroupComparison>,
}

/// Run the Fig 3 experiment: train Gaia and LogTrans once, evaluate on the
/// new/old shop groups separately.
pub fn run_fig3(cfg: &HarnessConfig) -> Fig3Result {
    let (world, ds) = cfg.materialize();
    let (new_g, old_g) = ds.new_old_groups(10);
    let all: Vec<usize> = new_g.iter().chain(&old_g).copied().collect();
    let (gaia_preds, _) = train_and_predict(ModelKind::Gaia, &world, &ds, &all, cfg);
    let (lt_preds, _) = train_and_predict(ModelKind::LogTrans, &world, &ds, &all, cfg);
    let index_of: std::collections::HashMap<usize, usize> =
        all.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let group_result = |name: &str, members: &[usize]| {
        let idx: Vec<usize> = members.iter().map(|v| index_of[v]).collect();
        let gp: Vec<Vec<f64>> = idx.iter().map(|&i| gaia_preds[i].clone()).collect();
        let lp: Vec<Vec<f64>> = idx.iter().map(|&i| lt_preds[i].clone()).collect();
        let actual = actuals_for(&ds, members);
        let gaia = metrics_overall(&gp, &actual);
        let logtrans = metrics_overall(&lp, &actual);
        GroupComparison {
            group: name.into(),
            count: members.len(),
            mae_improvement_pct: improvement_pct(logtrans.mae, gaia.mae),
            mape_improvement_pct: improvement_pct(logtrans.mape, gaia.mape),
            gaia,
            logtrans,
        }
    };
    Fig3Result {
        groups: vec![
            group_result("New Shop Group (T<10)", &new_g),
            group_result("Old Shop Group (T>=10)", &old_g),
        ],
    }
}

// ---------------------------------------------------------------------------
// E5/E6: Fig 4 — ITA case study
// ---------------------------------------------------------------------------

/// Fig 4 result: intra-attention-vs-similarity relationship and an inter
/// attention heatmap.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Pearson correlation between intra attention weight `a_{i,j}` and the
    /// local-pattern *distance* of timestamps `i`, `j` (paper reports the
    /// negative relationship: similar patterns attract attention).
    pub attention_distance_correlation: f64,
    /// Sample of `(pattern distance, attention weight)` scatter points.
    pub scatter: Vec<(f64, f64)>,
    /// One centre-neighbour `[T x T]` attention heatmap (row-major).
    pub heatmap: Vec<Vec<f64>>,
    /// The centre and neighbour shop ids of the heatmap.
    pub heatmap_pair: (usize, usize),
}

/// Run the Fig 4 case study on a trained Gaia model.
pub fn run_fig4(cfg: &HarnessConfig) -> Fig4Result {
    let (world, ds) = cfg.materialize();
    let gcfg = GaiaConfig::new(ds.t, ds.horizon, ds.d_t, ds.d_s).with_variant(GaiaVariant::Full);
    let mut model = Gaia::new(gcfg.clone(), cfg.seed);
    train(&mut model, &ds, &world.graph, &cfg.train);

    let mut scatter = Vec::new();
    let mut heatmap = Vec::new();
    let mut heatmap_pair = (0usize, 0usize);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xF16);
    // Sample well-observed test shops with neighbours.
    let candidates: Vec<usize> = ds
        .splits
        .test
        .iter()
        .copied()
        .filter(|&v| ds.observed_len(v) == ds.t && world.graph.degree(v) >= 1)
        .take(24)
        .collect();
    for &center in &candidates {
        let ego = extract_ego(&world.graph, center, &gcfg.ego, &mut rng);
        let mut g = gaia_tensor::Graph::new();
        let detail = model.attention_at_center(&mut g, &ds, &ego);
        let intra = g.value(detail.intra).clone();
        // Scatter: attention a_{i,j} (j <= i) vs local-pattern distance.
        let z = ds.gmv_row(center);
        for i in 3..ds.t {
            for j in 1..i {
                let d = local_pattern_distance(z, i, j, 2);
                scatter.push((d, intra.at(i, j) as f64));
            }
        }
        // Keep the first supply-chain heatmap we see.
        if heatmap.is_empty() {
            if let Some((local, attn)) = detail.inter.first() {
                let a = g.value(*attn);
                heatmap =
                    (0..ds.t).map(|r| (0..ds.t).map(|c| a.at(r, c) as f64).collect()).collect();
                heatmap_pair = (center, ego.nodes[*local as usize] as usize);
            }
        }
    }
    let xs: Vec<f64> = scatter.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = scatter.iter().map(|p| p.1).collect();
    let corr = if xs.len() > 2 { pearson(&xs, &ys) } else { 0.0 };
    // Subsample the scatter for the JSON dump.
    let step = (scatter.len() / 500).max(1);
    let scatter = scatter.into_iter().step_by(step).collect();
    Fig4Result { attention_distance_correlation: corr, scatter, heatmap, heatmap_pair }
}

/// Euclidean distance between the length-`2w+1` local windows around
/// timestamps `i` and `j` of a normalised series (clamped at the borders).
pub fn local_pattern_distance(z: &[f32], i: usize, j: usize, w: usize) -> f64 {
    let t = z.len() as isize;
    let mut acc = 0.0f64;
    for o in -(w as isize)..=(w as isize) {
        let a = (i as isize + o).clamp(0, t - 1) as usize;
        let b = (j as isize + o).clamp(0, t - 1) as usize;
        let d = (z[a] - z[b]) as f64;
        acc += d * d;
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HarnessConfig {
        let mut cfg = HarnessConfig::quick();
        cfg.world.n_shops = 80;
        cfg.train.epochs = 1;
        cfg
    }

    #[test]
    fn from_args_parses_overrides() {
        let args: Vec<String> = ["--shops", "200", "--epochs", "3", "--seed", "9", "--quiet"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let cfg = HarnessConfig::from_args(&args);
        assert_eq!(cfg.world.n_shops, 200);
        assert_eq!(cfg.train.epochs, 3);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.train.verbose);
    }

    #[test]
    fn fig1a_shows_deficiency() {
        let r = run_fig1a(&quick());
        assert!(r.short_fraction > 0.15, "short fraction {}", r.short_fraction);
        assert_eq!(r.histogram.counts.iter().sum::<usize>(), 80);
    }

    #[test]
    fn month_labels_are_oct_nov_dec() {
        let cfg = quick();
        let world = World::generate(cfg.world.clone());
        assert_eq!(month_label(&world, 0), "Oct.");
        assert_eq!(month_label(&world, 1), "Nov.");
        assert_eq!(month_label(&world, 2), "Dec.");
    }

    #[test]
    fn local_pattern_distance_zero_for_same_index() {
        let z = vec![0.1, 0.5, -0.3, 0.8];
        assert_eq!(local_pattern_distance(&z, 2, 2, 1), 0.0);
        assert!(local_pattern_distance(&z, 1, 3, 1) > 0.0);
    }

    // The run_table1/table2/fig3/fig4 drivers are exercised by the (slower)
    // integration tests in `tests/` at the workspace root.
}
