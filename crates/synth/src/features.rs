//! Feature extraction — the offline extractor stack of Fig. 5 (GMV Series
//! Extractor, Temporal/Static Feature Extractor) turning a [`World`] into
//! model-ready instances.
//!
//! GMV enters the models as standardised `log1p` values (`Scaler`), which is
//! also how predictions are mapped back to currency for MAE/RMSE/MAPE.
//!
//! Storage is segmented and copy-on-write: the per-shop feature rows live in
//! `Arc`-shared segments of [`SEGMENT_ROWS`] consecutive shops, each one
//! contiguous block at a fixed per-row stride, rather than one heap object
//! per shop. Building a million-shop dataset performs O(N / 64)
//! allocations, cloning a dataset is one `Arc` bump per segment plus one
//! for the splits, and an incremental refresh copies only the segments its
//! rewritten rows land in (path copying, as in the frozen embedding cache).
//! No per-shop column lives outside the segments, so a refresh copies
//! nothing proportional to the world. Consumers read rows
//! through the `*_row`/`temporal_at` accessors; the segments themselves are
//! private so the stride contracts below cannot be bypassed.

use crate::config::WorldConfig;
use crate::world::{month_of_year, Role, World};
use gaia_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// `ln(1 + max(x, 0))` — the log transform every feature column funnels
/// through (scaler fits and every normalised cell), kept as the single
/// definition so the fit and transform paths cannot drift bit-wise.
#[inline]
fn log1p_pos(x: f64) -> f64 {
    (1.0 + x.max(0.0)).ln()
}

/// `log1p` + z-score scaler fitted on training shops only.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Scaler {
    /// Mean of `ln(1+gmv)` over observed training cells.
    pub mean: f32,
    /// Std of the same population (floored at 1e-3).
    pub std: f32,
}

impl Scaler {
    /// Fit from raw currency values.
    pub fn fit(raw: impl Iterator<Item = f64>) -> Self {
        Self::fit_logs(&raw.map(log1p_pos).collect::<Vec<f64>>())
    }

    /// Fit from already log-transformed values.
    fn fit_logs(logs: &[f64]) -> Self {
        assert!(!logs.is_empty(), "Scaler::fit on empty data");
        let mean = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / logs.len() as f64;
        Self::from_moments(mean, var)
    }

    /// The shared tail of every fit path: population mean/variance (in f64)
    /// → stored f32 scaler. [`build_dataset`] accumulates the same sums as
    /// [`Scaler::fit_logs`] directly from its log arenas (identical
    /// value order, identical reductions) and lands here, so the fused fit
    /// is bit-identical to the iterator path — pinned by the
    /// `fused_arena_fit_matches_scaler_fit` test.
    fn from_moments(mean: f64, var: f64) -> Self {
        Self { mean: mean as f32, std: (var.sqrt() as f32).max(1e-3) }
    }

    /// Currency → normalised log space.
    pub fn normalize(&self, raw: f64) -> f32 {
        self.normalize_log(log1p_pos(raw))
    }

    /// `ln(1+raw)` → normalised log space. The shared tail of
    /// [`Scaler::normalize`], exposed within the crate so the full build
    /// can reuse logs it already computed for the scaler fits instead of
    /// taking a second `ln` per cell (bit-identical: same log value through
    /// the same expression).
    #[inline]
    pub(crate) fn normalize_log(&self, log: f64) -> f32 {
        ((log as f32) - self.mean) / self.std
    }

    /// Normalised log space → currency.
    pub fn denormalize(&self, z: f32) -> f64 {
        ((z * self.std + self.mean) as f64).exp() - 1.0
    }

    /// Currency → *positive* model space: the z-scored log value shifted by
    /// [`TARGET_SHIFT`]. Model outputs live here because the paper's
    /// prediction head (Eq. 9) ends in a ReLU, so the target space must be
    /// non-negative; the shift keeps targets ~N(TARGET_SHIFT, 1) > 0 while
    /// preserving unit-scale gradients for the MSE loss.
    pub fn normalize_pos(&self, raw: f64) -> f32 {
        self.normalize(raw) + TARGET_SHIFT
    }

    /// Positive model space → currency (floored at zero — a model-space
    /// value far below the shift corresponds to less than one currency unit).
    pub fn denormalize_pos(&self, z: f32) -> f64 {
        self.denormalize(z.max(0.0) - TARGET_SHIFT).max(0.0)
    }
}

/// Train/validation/test split over shop ids.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Splits {
    /// Training shop ids.
    pub train: Vec<usize>,
    /// Validation shop ids.
    pub val: Vec<usize>,
    /// Test shop ids (the Table I population).
    pub test: Vec<usize>,
}

/// Shops per copy-on-write feature segment (see [`Dataset`]): rows
/// `[k·64, (k+1)·64)` share one `Arc`'d block, so a refresh that rewrites
/// a row copies that row's 64-shop segment and shares every other one with
/// the previous dataset.
pub const SEGMENT_ROWS: usize = 64;

/// One shared chunk of [`SEGMENT_ROWS`] consecutive shops' feature rows.
/// Every row occupies a fixed [`RowLayout::stride`] span of `f32`s —
/// input series `[T]`, stored aux columns `[T][2]`, statics `[d_s]`,
/// model-space targets `[T']`, in that order — plus `[T']` raw currency
/// targets in the `f64` block and each row's observed window length,
/// stored inline. Segments are allocated full-size; rows past the
/// dataset's `n` stay zero until a refresh appends shops into them.
#[derive(Clone, Debug)]
struct RowSegment {
    values: Vec<f32>,
    targets_raw: Vec<f64>,
    observed_len: [usize; SEGMENT_ROWS],
}

/// Offsets of one shop's columns inside its segment row (all in `f32`
/// elements from the row start, except the `f64` raw targets).
#[derive(Clone, Copy, Debug)]
struct RowLayout {
    t: usize,
    d_s: usize,
    horizon: usize,
}

impl RowLayout {
    /// `f32` elements per row: series, aux, statics, model-space targets.
    #[inline]
    fn stride(self) -> usize {
        self.t * (1 + D_AUX) + self.d_s + self.horizon
    }

    #[inline]
    fn aux_start(self) -> usize {
        self.t
    }

    #[inline]
    fn statics_start(self) -> usize {
        self.t * (1 + D_AUX)
    }

    #[inline]
    fn targets_start(self) -> usize {
        self.statics_start() + self.d_s
    }

    fn empty_segment(self) -> RowSegment {
        RowSegment {
            values: vec![0.0; SEGMENT_ROWS * self.stride()],
            targets_raw: vec![0.0; SEGMENT_ROWS * self.horizon],
            observed_len: [0; SEGMENT_ROWS],
        }
    }
}

/// Mutable views of one shop's row columns inside its segment, as the
/// build and refresh passes write them.
struct RowMut<'a> {
    series: &'a mut [f32],
    aux: &'a mut [f32],
    statics: &'a mut [f32],
    targets_norm: &'a mut [f32],
    targets_raw: &'a mut [f64],
    observed_len: &'a mut usize,
}

impl RowSegment {
    /// Split row `off`'s spans into its columns.
    fn row_mut(&mut self, layout: RowLayout, off: usize) -> RowMut<'_> {
        let stride = layout.stride();
        let row = &mut self.values[off * stride..(off + 1) * stride];
        let (series, rest) = row.split_at_mut(layout.t);
        let (aux, rest) = rest.split_at_mut(layout.t * D_AUX);
        let (statics, targets_norm) = rest.split_at_mut(layout.d_s);
        let h = layout.horizon;
        RowMut {
            series,
            aux,
            statics,
            targets_norm,
            targets_raw: &mut self.targets_raw[off * h..(off + 1) * h],
            observed_len: &mut self.observed_len[off],
        }
    }
}

/// Model-ready dataset: per-shop input window features and horizon targets,
/// plus the graph-independent bookkeeping every model shares.
///
/// All per-shop columns, the observed window length included, live in
/// copy-on-write segments of [`SEGMENT_ROWS`] shops (shop `v` is row
/// `v % 64` of segment `v / 64`, its columns at fixed offsets inside the
/// row). Read them through [`Dataset::gmv_row`], [`Dataset::observed_len`]
/// and friends. The splits sit behind one `Arc`, copied only when a
/// refresh appends shops to the test split. A clone is therefore one
/// `Arc` bump per segment plus one for the splits.
#[derive(Clone, Debug)]
pub struct Dataset {
    /// Number of shops.
    pub n: usize,
    /// Input window length `T`.
    pub t: usize,
    /// Forecast horizon `T'`.
    pub horizon: usize,
    /// Feature rows, `ceil(N / SEGMENT_ROWS)` shared segments. Each row
    /// holds the normalised GMV input series, the scaler-dependent
    /// auxiliary temporal columns (log-orders, log-customers, `[T][2]`
    /// row-major), the static features and both target vectors. The other
    /// three temporal features are not stored per shop at all: sin/cos of
    /// the month come from the shared [`Dataset::trig`] table (identical
    /// for every shop) and the observed flag is derived from the segment's
    /// [`Dataset::observed_len`] column (observed months are a window
    /// suffix) — see [`Dataset::temporal_at`]. Storing 2 of the 5 temporal columns
    /// cuts the dominant part of each row to 40% without changing a single
    /// value the model sees.
    rows: Vec<Arc<RowSegment>>,
    /// Month sin/cos table for the input window, `[T]` — shared by every
    /// shop's temporal row.
    trig: Vec<(f32, f32)>,
    /// The fitted scaler.
    pub scaler: Scaler,
    /// Auxiliary scaler for monthly order counts (train-fitted, frozen
    /// across incremental refreshes like [`Dataset::scaler`]).
    pub orders_scaler: Scaler,
    /// Auxiliary scaler for monthly unique customers (same freezing rule).
    pub customers_scaler: Scaler,
    /// Largest model-space target seen on the training split, used to clamp
    /// predictions before the exp() back-transform (early-training overshoot
    /// would otherwise explode RMSE through the exponential).
    pub max_model_z: f32,
    /// Temporal feature width.
    pub d_t: usize,
    /// Static feature width.
    pub d_s: usize,
    /// Shop id splits, shared between a dataset and its refreshes until a
    /// refresh appends shops.
    pub splits: Arc<Splits>,
}

/// Width of the auxiliary temporal feature vector:
/// `[sin(month), cos(month), log-orders, log-customers, observed]`.
pub const D_TEMPORAL: usize = 5;

/// Stored (scaler-dependent) temporal columns per cell: log-orders and
/// log-customers. The remaining `D_TEMPORAL - D_AUX` columns are
/// synthesized on read (see [`Dataset::temporal_at`]).
const D_AUX: usize = 2;

/// Offset added to z-scored log targets so the model-space targets are
/// positive (the paper's prediction head, Eq. 9, ends in a ReLU). Targets
/// are ~N(TARGET_SHIFT, 1); prediction heads initialise their output bias
/// here so every model starts as the mean predictor.
pub const TARGET_SHIFT: f32 = 4.0;

/// Build the dataset from a generated world.
pub fn build_dataset(world: &World) -> Dataset {
    let cfg = &world.config;
    let n = world.shops.len();
    let t = cfg.input_window;
    let horizon = cfg.horizon;
    let in_start = cfg.input_start();
    let fut_start = cfg.horizon_start();

    // Deterministic 70/10/20 split.
    let mut ids: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5EED_5711);
    ids.shuffle(&mut rng);
    let n_train = (n as f64 * 0.7) as usize;
    let n_val = (n as f64 * 0.1) as usize;
    let splits = Splits {
        train: ids[..n_train].to_vec(),
        val: ids[n_train..n_train + n_val].to_vec(),
        test: ids[n_train + n_val..].to_vec(),
    };

    // Pass A — one sequential walk over the shops computes everything that
    // does not need the fitted scalers: the log-domain input window of
    // every shop (one interleaved `[N·T·3]` arena: gmv, orders, customers
    // per cell), the static feature rows, the raw currency targets and
    // the observed window lengths. `ln` dominates the build at world
    // scale, and without the log arena each observed training cell would
    // pay it twice — once in the scaler fit and again in `normalize` when
    // the row is written. Unobserved cells stay 0.0 and are never read
    // (the fit and the normalisation pass both start at the first
    // observed cell). Statics, raw targets and observed lengths go
    // straight into the segments the dataset will share — no flat staging
    // arena.
    let window = fut_start - in_start;
    let d_s = cfg.n_industries + cfg.n_regions + 2;
    let layout = RowLayout { t, d_s, horizon };
    let mut segments: Vec<RowSegment> =
        (0..n.div_ceil(SEGMENT_ROWS)).map(|_| layout.empty_segment()).collect();
    let mut logs = vec![0.0f64; n * window * 3];
    let observed = |segments: &[RowSegment], v: usize| {
        segments[v / SEGMENT_ROWS].observed_len[v % SEGMENT_ROWS]
    };
    for v in 0..n {
        let shop = &world.shops[v];
        let first = shop.opened.saturating_sub(in_start).min(window);
        let obs = window - first;
        for i in first..window {
            let m = in_start + i;
            let cell = (v * window + i) * 3;
            logs[cell] = log1p_pos(shop.gmv[m]);
            logs[cell + 1] = log1p_pos(shop.orders[m]);
            logs[cell + 2] = log1p_pos(shop.customers[m]);
        }
        let row = segments[v / SEGMENT_ROWS].row_mut(layout, v % SEGMENT_ROWS);
        *row.observed_len = obs;
        let stat = row.statics;
        stat[shop.industry as usize] = 1.0;
        stat[cfg.n_industries + shop.region as usize] = 1.0;
        stat[cfg.n_industries + cfg.n_regions] =
            if shop.role == Role::Supplier { 1.0 } else { 0.0 };
        stat[cfg.n_industries + cfg.n_regions + 1] = obs.min(t) as f32 / t as f32;
        for (h, m) in (fut_start..fut_start + horizon).enumerate() {
            row.targets_raw[h] = shop.gmv[m];
        }
    }

    // Pass B — scalers fitted on observed training cells of the input
    // window only: GMV plus the two auxiliary magnitudes, accumulated
    // straight off the log arena in two walks over the (shuffled-order)
    // training shops: sums for the means, then squared deviations. No
    // gather copy. Each column's accumulator sees exactly the value
    // sequence a `Scaler::fit` over that column's observed train cells
    // would see (same shuffled shop order, same in-window order, same
    // left-to-right f64 folds), so the scalers are bit-identical to three
    // independent iterator fits — `fused_arena_fit_matches_scaler_fit`
    // pins this.
    let mut sums = [0.0f64; 3];
    let mut count = 0usize;
    for &v in &splits.train {
        let obs = observed(&segments, v);
        for i in window - obs..window {
            let cell = (v * window + i) * 3;
            sums[0] += logs[cell];
            sums[1] += logs[cell + 1];
            sums[2] += logs[cell + 2];
        }
        count += obs;
    }
    assert!(count > 0, "Scaler::fit on empty data");
    let means = sums.map(|s| s / count as f64);
    let mut var_sums = [0.0f64; 3];
    for &v in &splits.train {
        for i in window - observed(&segments, v)..window {
            let cell = (v * window + i) * 3;
            let (g, o, c) = (logs[cell], logs[cell + 1], logs[cell + 2]);
            var_sums[0] += (g - means[0]) * (g - means[0]);
            var_sums[1] += (o - means[1]) * (o - means[1]);
            var_sums[2] += (c - means[2]) * (c - means[2]);
        }
    }
    let scaler = Scaler::from_moments(means[0], var_sums[0] / count as f64);
    let orders_scaler = Scaler::from_moments(means[1], var_sums[1] / count as f64);
    let customers_scaler = Scaler::from_moments(means[2], var_sums[2] / count as f64);

    // Pass C — normalised columns, streamed entirely from the arenas of
    // pass A (no World access at all): the input series and auxiliary
    // columns from the log arena, the model-space targets from the raw
    // targets pass A stored (the same f64 values it copied out of the
    // world, so `normalize_pos` sees bit-identical inputs). Unobserved
    // cells keep their zero initialisation, matching `write_node_row`'s
    // explicit zeros — `refresh_of_unmutated_world_is_identity` pins the
    // build path against the refresh path.
    for v in 0..n {
        let first = window - observed(&segments, v);
        let row = segments[v / SEGMENT_ROWS].row_mut(layout, v % SEGMENT_ROWS);
        for i in first..window {
            let cell = (v * window + i) * 3;
            row.series[i] = scaler.normalize_log(logs[cell]);
            row.aux[i * D_AUX] = orders_scaler.normalize_log(logs[cell + 1]);
            row.aux[i * D_AUX + 1] = customers_scaler.normalize_log(logs[cell + 2]);
        }
        for h in 0..horizon {
            row.targets_norm[h] = scaler.normalize_pos(row.targets_raw[h]);
        }
    }
    drop(logs);
    let trig = month_trig(cfg);

    let mut ds = Dataset {
        n,
        t,
        horizon,
        rows: segments.into_iter().map(Arc::new).collect(),
        trig,
        scaler,
        orders_scaler,
        customers_scaler,
        max_model_z: 0.0,
        d_t: D_TEMPORAL,
        d_s,
        splits: Arc::new(splits),
    };
    ds.max_model_z = ds
        .splits
        .train
        .iter()
        .flat_map(|&v| ds.targets_norm_row(v).iter().copied())
        .fold(TARGET_SHIFT, f32::max)
        + 1.0;
    ds
}

/// Sin/cos month-of-year table for the input window. Identical for every
/// shop (all rows map the same `in_start..fut_start` months), so it is
/// computed once per (re)build instead of twice per window row per shop.
fn month_trig(cfg: &WorldConfig) -> Vec<(f32, f32)> {
    (cfg.input_start()..cfg.horizon_start())
        .map(|m| {
            let moy = month_of_year(m) as f32;
            let angle = std::f32::consts::TAU * moy / 12.0;
            (angle.sin(), angle.cos())
        })
        .collect()
}

/// Compute one shop's dataset row from the world under the given (already
/// fitted) scalers, writing into the row's segment spans. This is the
/// incremental-refresh row path; the full build streams the same values
/// through its arena passes, and the
/// `refresh_of_unmutated_world_is_identity` test pins the two paths to
/// bit-identical output. Every span element is overwritten (statics via
/// an explicit fill), so stale refresh targets cannot leak through.
fn write_node_row(
    world: &World,
    v: usize,
    scaler: &Scaler,
    orders_scaler: &Scaler,
    customers_scaler: &Scaler,
    out: RowMut<'_>,
) {
    let cfg = &world.config;
    let t = cfg.input_window;
    let in_start = cfg.input_start();
    let fut_start = cfg.horizon_start();
    let shop = &world.shops[v];
    for (row, m) in (in_start..fut_start).enumerate() {
        let observed = m >= shop.opened;
        out.series[row] = if observed { scaler.normalize(shop.gmv[m]) } else { 0.0 };
        let a = &mut out.aux[row * D_AUX..(row + 1) * D_AUX];
        a[0] = if observed { orders_scaler.normalize(shop.orders[m]) } else { 0.0 };
        a[1] = if observed { customers_scaler.normalize(shop.customers[m]) } else { 0.0 };
    }
    let stat = out.statics;
    stat.fill(0.0);
    stat[shop.industry as usize] = 1.0;
    stat[cfg.n_industries + shop.region as usize] = 1.0;
    stat[cfg.n_industries + cfg.n_regions] = if shop.role == Role::Supplier { 1.0 } else { 0.0 };
    // Normalised age (how much of the window is observed).
    let obs = (fut_start - in_start).saturating_sub(shop.opened.saturating_sub(in_start));
    let obs = obs.min(t);
    stat[cfg.n_industries + cfg.n_regions + 1] = obs as f32 / t as f32;
    *out.observed_len = obs;

    for (h, m) in (fut_start..fut_start + cfg.horizon).enumerate() {
        out.targets_raw[h] = shop.gmv[m];
        out.targets_norm[h] = scaler.normalize_pos(shop.gmv[m]);
    }
}

/// Refresh a dataset after world mutations, recomputing **only** the rows in
/// `dirty` (plus any nodes appended since `prev` was built) under the frozen
/// training-time statistics of `prev`.
///
/// Freezing is the point: scalers, splits and the `max_model_z` clamp were
/// fitted when the served model was trained, and a republish that does not
/// retrain must keep feeding the model inputs in the same normalisation —
/// otherwise every clean node's features (and thus its cached embedding)
/// would silently shift. New nodes (`prev.n..world.shops.len()`) are always
/// recomputed and join the test split: they were never seen in training.
///
/// Copy-on-write: the result starts as an `Arc` bump of every segment of
/// `prev` and of its splits, and only the segments a recomputed row lands
/// in are copied (`Arc::make_mut`) before the write — `prev` itself is
/// never modified, and every other segment stays the same allocation in
/// both datasets (observable through [`Dataset::segment_addr`]). Appended
/// shops fill the last segment's spare rows, then new segments, and only
/// then are the splits copied to take them.
///
/// Because rows are pure per-node functions of `(world, frozen scalers)`,
/// the result is bit-identical to [`refresh_dataset_full`] whenever `dirty`
/// covers every node whose shop data changed — the feature-space half of the
/// delta-vs-full parity wall.
pub fn refresh_dataset(world: &World, prev: &Dataset, dirty: &[u32]) -> Dataset {
    let n = world.shops.len();
    assert!(n >= prev.n, "refresh_dataset: worlds only grow (n={n} < prev {})", prev.n);
    let mut ds = prev.clone();
    ds.n = n;
    let layout = ds.layout();
    ds.rows.resize_with(n.div_ceil(SEGMENT_ROWS), || Arc::new(layout.empty_segment()));
    if n > prev.n {
        Arc::make_mut(&mut ds.splits).test.extend(prev.n..n);
    }
    let (scaler, orders_scaler, customers_scaler) =
        (ds.scaler, ds.orders_scaler, ds.customers_scaler);
    let recompute = dirty.iter().map(|&v| v as usize).filter(|&v| v < prev.n).chain(prev.n..n);
    for v in recompute {
        let seg = Arc::make_mut(&mut ds.rows[v / SEGMENT_ROWS]);
        write_node_row(
            world,
            v,
            &scaler,
            &orders_scaler,
            &customers_scaler,
            seg.row_mut(layout, v % SEGMENT_ROWS),
        );
    }
    ds
}

/// Full-teardown counterpart of [`refresh_dataset`]: recompute **every**
/// row from the world under `prev`'s frozen statistics. This is the
/// reference the delta parity wall compares against — same frozen scalers,
/// no dirty-set shortcuts.
pub fn refresh_dataset_full(world: &World, prev: &Dataset) -> Dataset {
    let all: Vec<u32> = (0..prev.n as u32).collect();
    refresh_dataset(world, prev, &all)
}

/// True when **every** per-node column of shop `v`'s row — input series,
/// temporal and static features, targets, observed length — is bit-identical
/// between two datasets. This is the incremental-republish skip test: a node
/// whose row did not move cannot produce a different embedding (embeddings
/// are pure functions of the row and the kernels are deterministic), so its
/// cached entries can be carried into the next generation untouched.
/// Comparison is bitwise (`f32`/`f64` equality) over the arena row slices,
/// so `NaN`s compare unequal and force a recompute — the conservative
/// direction.
pub fn node_row_unchanged(a: &Dataset, b: &Dataset, v: usize) -> bool {
    // The stored row (series, aux columns, statics, model-space targets)
    // plus the raw targets and `observed_len` fully determine every
    // accessor: sin/cos come from the shared trig table, the observed flag
    // from `observed_len`, so comparing them covers all of `d_t`.
    a.row(v) == b.row(v)
        && a.targets_raw_row(v) == b.targets_raw_row(v)
        && a.observed_len(v) == b.observed_len(v)
}

impl Dataset {
    /// Row layout shared by every segment of this dataset.
    #[inline]
    fn layout(&self) -> RowLayout {
        RowLayout { t: self.t, d_s: self.d_s, horizon: self.horizon }
    }

    /// Shop `v`'s whole stored `f32` row (see [`RowSegment`]).
    #[inline]
    fn row(&self, v: usize) -> &[f32] {
        assert!(v < self.n, "shop {v} out of range (n = {})", self.n);
        let stride = self.layout().stride();
        let off = v % SEGMENT_ROWS * stride;
        &self.rows[v / SEGMENT_ROWS].values[off..off + stride]
    }

    /// Segment index holding shop `v`'s row.
    pub fn segment_of(v: usize) -> usize {
        v / SEGMENT_ROWS
    }

    /// Number of feature-row segments.
    pub fn segment_count(&self) -> usize {
        self.rows.len()
    }

    /// Stable address of feature segment `seg`'s storage, if it exists.
    /// Two datasets returning the same address for a segment **share**
    /// that segment's heap allocation — the observable the copy-on-write
    /// refresh tests pin (mirrors `EmbedCache::segment_addr` in
    /// `gaia-core`).
    pub fn segment_addr(&self, seg: usize) -> Option<usize> {
        self.rows.get(seg).map(|arc| Arc::as_ptr(arc) as usize)
    }

    /// Observed months inside shop `v`'s input window (`T` minus leading
    /// zeros) — the Fig 3 grouping key.
    #[inline]
    pub fn observed_len(&self, v: usize) -> usize {
        assert!(v < self.n, "shop {v} out of range (n = {})", self.n);
        self.rows[v / SEGMENT_ROWS].observed_len[v % SEGMENT_ROWS]
    }

    /// Normalised GMV input series of shop `v` (length `T`).
    #[inline]
    pub fn gmv_row(&self, v: usize) -> &[f32] {
        &self.row(v)[..self.t]
    }

    /// Mutable view of shop `v`'s input series (ablations and tests that
    /// perturb inputs in place). Copies `v`'s segment first if it is
    /// shared with another dataset, so clones never observe the write.
    #[inline]
    pub fn gmv_row_mut(&mut self, v: usize) -> &mut [f32] {
        let layout = self.layout();
        let seg = Arc::make_mut(&mut self.rows[v / SEGMENT_ROWS]);
        seg.row_mut(layout, v % SEGMENT_ROWS).series
    }

    /// Stored auxiliary temporal columns of shop `v`: `T·2` values,
    /// row-major `[T][2]` (log-orders, log-customers).
    #[inline]
    fn aux_row(&self, v: usize) -> &[f32] {
        let layout = self.layout();
        &self.row(v)[layout.aux_start()..layout.statics_start()]
    }

    /// Temporal feature `k` of input-window row `row` for shop `v`.
    /// Columns 0/1 (month sin/cos) come from the shared trig table,
    /// columns 2/3 from the stored aux columns, and column 4 (observed
    /// flag) from [`Dataset::observed_len`] — observed months are always a
    /// suffix of the input window, so `row` is observed iff
    /// `row ≥ T − observed`.
    #[inline]
    pub fn temporal_at(&self, v: usize, row: usize, k: usize) -> f32 {
        debug_assert!(row < self.t && k < self.d_t);
        match k {
            0 => self.trig[row].0,
            1 => self.trig[row].1,
            2 | 3 => self.aux_row(v)[row * D_AUX + (k - 2)],
            _ => {
                if row >= self.t - self.observed_len(v).min(self.t) {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Materialise the full `[T][d_t]` temporal feature row of shop `v`
    /// into `out` (length `T·d_t`) — the layout [`Dataset::temporal_at`]
    /// indexes into. Model input builders write this straight into pooled
    /// tape buffers (`Graph::constant_fill`), so not storing the full
    /// temporal row per shop did not add a heap allocation to the hot path.
    pub fn write_temporal_row(&self, v: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.t * self.d_t);
        let first = self.t - self.observed_len(v).min(self.t);
        let aux = self.aux_row(v);
        for row in 0..self.t {
            let o = &mut out[row * D_TEMPORAL..(row + 1) * D_TEMPORAL];
            let (sin_m, cos_m) = self.trig[row];
            o[0] = sin_m;
            o[1] = cos_m;
            o[2] = aux[row * D_AUX];
            o[3] = aux[row * D_AUX + 1];
            o[4] = if row >= first { 1.0 } else { 0.0 };
        }
    }

    /// Static features of shop `v` (length `d_s`).
    #[inline]
    pub fn statics_row(&self, v: usize) -> &[f32] {
        let layout = self.layout();
        &self.row(v)[layout.statics_start()..layout.targets_start()]
    }

    /// Raw currency targets of shop `v` (length `T'`).
    #[inline]
    pub fn targets_raw_row(&self, v: usize) -> &[f64] {
        assert!(v < self.n, "shop {v} out of range (n = {})", self.n);
        let off = v % SEGMENT_ROWS * self.horizon;
        &self.rows[v / SEGMENT_ROWS].targets_raw[off..off + self.horizon]
    }

    /// Model-space targets of shop `v` (length `T'`).
    #[inline]
    pub fn targets_norm_row(&self, v: usize) -> &[f32] {
        &self.row(v)[self.layout().targets_start()..]
    }

    /// Approximate resident heap bytes of the feature store: every heap
    /// block's `capacity × element size` plus a 16-byte per-allocation
    /// overhead (allocator header/rounding). Inline struct headers are
    /// counted as part of their parent block. The world-scale bench tracks
    /// this figure versus `n_shops`: three allocations per
    /// [`SEGMENT_ROWS`]-shop segment (the `Arc`, which holds the inline
    /// observed-length column, and its two blocks), plus the `Arc`'d
    /// splits, counted once. Segments and splits shared with another
    /// dataset are counted in full — this is the store's footprint, not
    /// what a refresh copied.
    pub fn approx_heap_bytes(&self) -> usize {
        const OVH: usize = 16;
        fn vec_bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>() + OVH
        }
        let segments: usize = self
            .rows
            .iter()
            .map(|seg| {
                OVH + std::mem::size_of_val(&seg.observed_len)
                    + vec_bytes(&seg.values)
                    + vec_bytes(&seg.targets_raw)
            })
            .sum();
        let splits = OVH
            + vec_bytes(&self.splits.train)
            + vec_bytes(&self.splits.val)
            + vec_bytes(&self.splits.test);
        vec_bytes(&self.rows) + segments + vec_bytes(&self.trig) + splits
    }

    /// Normalised-target tensor `[1, T']` for the loss.
    pub fn target_tensor(&self, v: usize) -> Tensor {
        Tensor::from_vec(vec![1, self.horizon], self.targets_norm_row(v).to_vec())
    }

    /// Map a model-space `[1, T']` prediction back to currency per month.
    /// Values are clamped to `[0, max_model_z]` before the exponential
    /// back-transform so an untrained or overshooting model cannot produce
    /// astronomically large currency values.
    pub fn denormalize_prediction(&self, pred: &Tensor) -> Vec<f64> {
        pred.data()
            .iter()
            .map(|&z| self.scaler.denormalize_pos(z.min(self.max_model_z)).max(0.0))
            .collect()
    }

    /// Shop ids in the test split whose observed window length is below
    /// `threshold` ("New Shop Group" of Fig 3) and the rest ("Old Shop
    /// Group").
    pub fn new_old_groups(&self, threshold: usize) -> (Vec<usize>, Vec<usize>) {
        let mut new_group = Vec::new();
        let mut old_group = Vec::new();
        for &v in &self.splits.test {
            if self.observed_len(v) < threshold {
                new_group.push(v);
            } else {
                old_group.push(v);
            }
        }
        (new_group, old_group)
    }
}

/// Convenience: generate a world and its dataset in one call.
pub fn generate_dataset(cfg: WorldConfig) -> (World, Dataset) {
    let world = World::generate(cfg);
    let ds = build_dataset(&world);
    (world, ds)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> (World, Dataset) {
        generate_dataset(WorldConfig::tiny())
    }

    #[test]
    fn scaler_roundtrip() {
        let s = Scaler::fit([10.0, 100.0, 1000.0, 250000.0].into_iter());
        for raw in [5.0, 500.0, 50_000.0] {
            let z = s.normalize(raw);
            let back = s.denormalize(z);
            assert!((back - raw).abs() / raw < 1e-3, "{raw} -> {z} -> {back}");
        }
    }

    #[test]
    fn pos_scaler_roundtrip_and_nonnegative() {
        let s = Scaler::fit([10.0, 100.0, 1000.0, 250000.0].into_iter());
        for raw in [5.0, 500.0, 50_000.0] {
            let z = s.normalize_pos(raw);
            assert!(z >= 0.0);
            let back = s.denormalize_pos(z);
            assert!((back - raw).abs() / raw < 1e-3, "{raw} -> {z} -> {back}");
        }
        // Negative model outputs clamp to zero currency.
        assert_eq!(s.denormalize_pos(-1.0), 0.0);
    }

    #[test]
    fn shapes_consistent() {
        let (world, ds) = dataset();
        assert_eq!(ds.n, world.shops.len());
        let mut trow = vec![0.0f32; ds.t * ds.d_t];
        for v in 0..ds.n {
            assert_eq!(ds.gmv_row(v).len(), ds.t);
            ds.write_temporal_row(v, &mut trow);
            for row in 0..ds.t {
                for k in 0..ds.d_t {
                    assert_eq!(trow[row * ds.d_t + k], ds.temporal_at(v, row, k));
                }
            }
            assert_eq!(ds.statics_row(v).len(), ds.d_s);
            assert_eq!(ds.targets_raw_row(v).len(), ds.horizon);
            assert_eq!(ds.targets_norm_row(v).len(), ds.horizon);
        }
    }

    #[test]
    fn splits_partition_everything() {
        let (_, ds) = dataset();
        let mut seen = vec![false; ds.n];
        for &v in ds.splits.train.iter().chain(&ds.splits.val).chain(&ds.splits.test) {
            assert!(!seen[v], "shop {v} in two splits");
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shop missing from splits");
    }

    #[test]
    fn unobserved_months_are_zeroed_and_masked() {
        let (world, ds) = dataset();
        let in_start = world.config.input_start();
        for v in 0..ds.n {
            let shop = &world.shops[v];
            for row in 0..ds.t {
                let m = in_start + row;
                if m < shop.opened {
                    assert_eq!(ds.gmv_row(v)[row], 0.0);
                    assert_eq!(ds.temporal_at(v, row, 4), 0.0);
                } else {
                    assert_eq!(ds.temporal_at(v, row, 4), 1.0);
                }
            }
        }
    }

    #[test]
    fn static_one_hots_sum_to_two_plus_extras() {
        let (world, ds) = dataset();
        for v in 0..ds.n {
            let s = ds.statics_row(v);
            let ind_sum: f32 = s[..world.config.n_industries].iter().sum();
            let reg_sum: f32 =
                s[world.config.n_industries..][..world.config.n_regions].iter().sum();
            assert_eq!(ind_sum, 1.0);
            assert_eq!(reg_sum, 1.0);
        }
    }

    #[test]
    fn targets_are_future_months() {
        let (world, ds) = dataset();
        let fut = world.config.horizon_start();
        for v in 0..ds.n.min(10) {
            for h in 0..ds.horizon {
                assert_eq!(ds.targets_raw_row(v)[h], world.shops[v].gmv[fut + h]);
            }
        }
    }

    /// The month sin/cos table must reproduce the per-row trig calls it
    /// hoisted bit-for-bit (same f32 expression per month index).
    #[test]
    fn month_trig_matches_per_row_expression() {
        let cfg = WorldConfig::tiny();
        let trig = month_trig(&cfg);
        for (row, m) in (cfg.input_start()..cfg.horizon_start()).enumerate() {
            let moy = month_of_year(m) as f32;
            assert_eq!(trig[row].0.to_bits(), (std::f32::consts::TAU * moy / 12.0).sin().to_bits());
            assert_eq!(trig[row].1.to_bits(), (std::f32::consts::TAU * moy / 12.0).cos().to_bits());
        }
    }

    /// The fused arena fit in `build_dataset` (sums accumulated straight
    /// off the log arenas, no gather copy) must produce bit-identical
    /// scalers to the public `Scaler::fit` iterator path over the same
    /// observed training cells in the same shuffled order.
    #[test]
    fn fused_arena_fit_matches_scaler_fit() {
        let (world, ds) = generate_dataset(WorldConfig { n_shops: 300, ..WorldConfig::default() });
        let in_start = world.config.input_start();
        let fut_start = world.config.horizon_start();
        let (mut gmv, mut ord, mut cust) = (Vec::new(), Vec::new(), Vec::new());
        for &v in &ds.splits.train {
            let shop = &world.shops[v];
            for m in in_start..fut_start {
                if m >= shop.opened {
                    gmv.push(shop.gmv[m]);
                    ord.push(shop.orders[m]);
                    cust.push(shop.customers[m]);
                }
            }
        }
        for (got, expect) in [
            (ds.scaler, Scaler::fit(gmv.into_iter())),
            (ds.orders_scaler, Scaler::fit(ord.into_iter())),
            (ds.customers_scaler, Scaler::fit(cust.into_iter())),
        ] {
            assert_eq!(got.mean.to_bits(), expect.mean.to_bits());
            assert_eq!(got.std.to_bits(), expect.std.to_bits());
        }
    }

    #[test]
    fn new_old_grouping_respects_threshold() {
        let (_, ds) = dataset();
        let (new_g, old_g) = ds.new_old_groups(10);
        for &v in &new_g {
            assert!(ds.observed_len(v) < 10);
        }
        for &v in &old_g {
            assert!(ds.observed_len(v) >= 10);
        }
        assert_eq!(new_g.len() + old_g.len(), ds.splits.test.len());
    }

    fn datasets_bit_identical(a: &Dataset, b: &Dataset) {
        assert_eq!(a.n, b.n);
        let (mut ta, mut tb) = (vec![0.0f32; a.t * a.d_t], vec![0.0f32; b.t * b.d_t]);
        for v in 0..a.n {
            assert_eq!(a.gmv_row(v), b.gmv_row(v), "gmv_norm row {v}");
            a.write_temporal_row(v, &mut ta);
            b.write_temporal_row(v, &mut tb);
            assert_eq!(ta, tb, "temporal row {v}");
            assert_eq!(a.statics_row(v), b.statics_row(v), "statics row {v}");
            assert_eq!(a.targets_norm_row(v), b.targets_norm_row(v), "targets row {v}");
            assert_eq!(a.observed_len(v), b.observed_len(v), "observed_len row {v}");
        }
        assert_eq!(a.max_model_z, b.max_model_z);
        assert_eq!(a.splits.train, b.splits.train);
        assert_eq!(a.splits.test, b.splits.test);
    }

    #[test]
    fn refresh_of_unmutated_world_is_identity() {
        let (world, ds) = dataset();
        datasets_bit_identical(&refresh_dataset(&world, &ds, &[]), &ds);
        datasets_bit_identical(&refresh_dataset_full(&world, &ds), &ds);
    }

    #[test]
    fn dirty_refresh_matches_full_refresh_after_mutations() {
        use crate::mutate::{MonthlySales, NewShop};
        use crate::world::Role;
        let (mut world, ds) = dataset();
        // A window longer than the horizon reaches back into the input
        // months, so both the inputs and the targets of shop 2 change.
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 9e4 + i as f64, orders: 120.0, customers: 80.0 })
            .collect();
        world.record_sales(2, &window);
        world.add_shop(NewShop {
            industry: 0,
            region: 0,
            role: Role::Retailer,
            owner: world.shops[5].owner,
            lead: 0,
        });
        let dirty = world.take_dirty();
        let delta = refresh_dataset(&world, &ds, dirty.nodes());
        let full = refresh_dataset_full(&world, &ds);
        datasets_bit_identical(&delta, &full);
        // The new shop joined the test split with an all-unobserved window.
        let new_id = ds.n;
        assert_eq!(delta.n, ds.n + 1);
        assert!(delta.splits.test.contains(&new_id));
        assert_eq!(delta.observed_len(new_id), 0);
        assert!(delta.gmv_row(new_id).iter().all(|&z| z == 0.0));
        // Frozen statistics carried over from the pre-mutation build.
        assert_eq!(delta.scaler.mean, ds.scaler.mean);
        assert_eq!(delta.max_model_z, ds.max_model_z);
        // And the dirty row actually changed, inputs and targets both.
        assert_ne!(delta.gmv_row(2), ds.gmv_row(2));
        assert_ne!(delta.targets_norm_row(2), ds.targets_norm_row(2));
    }

    #[test]
    fn refresh_without_the_dirty_row_leaves_it_stale() {
        // Negative control: the parity above is meaningful only because a
        // missing dirty id would produce a different dataset.
        use crate::mutate::MonthlySales;
        let (mut world, ds) = dataset();
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 9e4 + i as f64, orders: 120.0, customers: 80.0 })
            .collect();
        world.record_sales(2, &window);
        let stale = refresh_dataset(&world, &ds, &[]);
        assert_eq!(stale.gmv_row(2), ds.gmv_row(2));
        let fresh = refresh_dataset(&world, &ds, &[2]);
        assert_ne!(fresh.gmv_row(2), ds.gmv_row(2));
    }

    /// `node_row_unchanged` detects exactly the rows a refresh moved: the
    /// republish path uses it to skip recomputing embeddings for closure
    /// nodes whose inputs did not actually change.
    #[test]
    fn node_row_unchanged_flags_only_moved_rows() {
        use crate::mutate::MonthlySales;
        let (mut world, ds) = dataset();
        for v in 0..ds.n {
            assert!(node_row_unchanged(&ds, &ds, v), "identity must compare unchanged at {v}");
        }
        let window: Vec<MonthlySales> = (0..ds.horizon + 3)
            .map(|i| MonthlySales { gmv: 7e4 + i as f64, orders: 90.0, customers: 60.0 })
            .collect();
        world.record_sales(3, &window);
        let fresh = refresh_dataset(&world, &ds, &[3]);
        assert!(!node_row_unchanged(&fresh, &ds, 3), "rewritten row must compare changed");
        for v in (0..ds.n).filter(|&v| v != 3) {
            assert!(node_row_unchanged(&fresh, &ds, v), "untouched row {v} compared changed");
        }
        // A dirty mark whose underlying data never moved refreshes to a
        // bit-identical row — the skip test must see through it.
        let remark = refresh_dataset(&world, &fresh, &[5]);
        assert!(node_row_unchanged(&remark, &fresh, 5));
    }

    fn multi_segment() -> (World, Dataset) {
        generate_dataset(WorldConfig { n_shops: 300, ..WorldConfig::default() })
    }

    /// Owned copy of every accessor-visible value of a dataset, to prove
    /// a later refresh did not touch it.
    fn snapshot_bits(ds: &Dataset) -> Vec<u64> {
        let mut out = Vec::new();
        let mut trow = vec![0.0f32; ds.t * ds.d_t];
        for v in 0..ds.n {
            ds.write_temporal_row(v, &mut trow);
            let f32s = ds.gmv_row(v).iter().chain(&trow).chain(ds.statics_row(v));
            out.extend(f32s.chain(ds.targets_norm_row(v)).map(|x| x.to_bits() as u64));
            out.extend(ds.targets_raw_row(v).iter().map(|x| x.to_bits()));
            out.push(ds.observed_len(v) as u64);
        }
        out
    }

    fn bump_sales(world: &mut World, v: u32, base: f64) {
        use crate::mutate::MonthlySales;
        let window: Vec<MonthlySales> = (0..world.config.horizon + 3)
            .map(|i| MonthlySales { gmv: base + i as f64, orders: 90.0, customers: 60.0 })
            .collect();
        world.record_sales(v, &window);
    }

    /// Copy-on-write: refreshing (including growth and `gmv_row_mut` on the
    /// result) never changes a bit of the dataset it was refreshed from —
    /// the observed-length column included, which a young shop's fresh
    /// full-history sales move in the refreshed dataset only.
    #[test]
    fn refresh_leaves_the_previous_dataset_bit_identical() {
        use crate::mutate::{MonthlySales, NewShop};
        let (mut world, ds) = multi_segment();
        let before = snapshot_bits(&ds);
        let young = (0..ds.n).find(|&v| ds.observed_len(v) < ds.t).expect("a young shop");
        let history: Vec<MonthlySales> = (0..world.config.months)
            .map(|i| MonthlySales { gmv: 3e4 + i as f64, orders: 50.0, customers: 40.0 })
            .collect();
        world.record_sales(young as u32, &history);
        bump_sales(&mut world, 7, 5e4);
        bump_sales(&mut world, 200, 6e4);
        world.add_shop(NewShop { industry: 0, region: 0, role: Role::Retailer, owner: 0, lead: 0 });
        let dirty = world.take_dirty();
        let mut next = refresh_dataset(&world, &ds, dirty.nodes());
        next.gmv_row_mut(100)[0] = 123.0;
        assert_ne!(next.gmv_row(7), ds.gmv_row(7));
        assert_eq!(next.observed_len(young), ds.t);
        assert_eq!(next.observed_len(ds.n), 0);
        assert_eq!(snapshot_bits(&ds), before);
    }

    /// The splits are one shared allocation until a refresh appends shops:
    /// then the refreshed dataset gets its own copy, and the dataset it was
    /// refreshed from keeps its splits as they were.
    #[test]
    fn splits_are_shared_until_a_refresh_appends_shops() {
        use crate::mutate::NewShop;
        let (mut world, ds) = multi_segment();
        bump_sales(&mut world, 7, 5e4);
        let dirty = world.take_dirty();
        let same = refresh_dataset(&world, &ds, dirty.nodes());
        assert!(Arc::ptr_eq(&same.splits, &ds.splits), "a refresh without growth copied splits");
        let test_before = ds.splits.test.clone();
        world.add_shop(NewShop { industry: 0, region: 0, role: Role::Retailer, owner: 0, lead: 0 });
        let dirty = world.take_dirty();
        let grown = refresh_dataset(&world, &same, dirty.nodes());
        assert!(!Arc::ptr_eq(&grown.splits, &same.splits), "growth must copy the splits");
        assert_eq!(ds.splits.test, test_before);
        assert_eq!(same.splits.test, test_before);
        assert_eq!(grown.splits.test.len(), test_before.len() + 1);
        assert_eq!(grown.splits.test.last(), Some(&ds.n));
        assert_eq!(grown.splits.train, ds.splits.train);
        assert_eq!(grown.splits.val, ds.splits.val);
    }

    /// A refresh reallocates exactly the segments its dirty rows land in;
    /// every other segment is the previous dataset's allocation.
    #[test]
    fn refresh_copies_only_the_dirty_rows_segments() {
        let (mut world, ds) = multi_segment();
        assert!(ds.segment_count() >= 4, "test needs several segments");
        for v in [3, 5, 2 * SEGMENT_ROWS as u32 + 1] {
            bump_sales(&mut world, v, 4e4 + v as f64);
        }
        let dirty = world.take_dirty();
        let next = refresh_dataset(&world, &ds, dirty.nodes());
        let touched: Vec<usize> =
            dirty.nodes().iter().map(|&v| Dataset::segment_of(v as usize)).collect();
        assert!((0..ds.segment_count()).any(|seg| !touched.contains(&seg)));
        assert_eq!(next.segment_count(), ds.segment_count());
        for seg in 0..ds.segment_count() {
            if touched.contains(&seg) {
                assert_ne!(
                    next.segment_addr(seg),
                    ds.segment_addr(seg),
                    "segment {seg} not copied"
                );
            } else {
                assert_eq!(next.segment_addr(seg), ds.segment_addr(seg), "segment {seg} copied");
            }
        }
        // A clone shares everything; a no-op refresh does too.
        let clone = ds.clone();
        let noop = refresh_dataset(&world, &next, &[]);
        for seg in 0..ds.segment_count() {
            assert_eq!(clone.segment_addr(seg), ds.segment_addr(seg));
            assert_eq!(noop.segment_addr(seg), next.segment_addr(seg));
        }
    }

    /// Growing the world across a segment boundary, from a dataset whose
    /// last segment is partly filled (`n % 64 != 0`), matches
    /// `build_dataset` of the grown world row for row. The fresh build fits
    /// its own scalers, so its normalised columns are compared after a
    /// full refresh under the grown dataset's frozen statistics — a
    /// rewrite of every row in the fresh build's own segment layout.
    #[test]
    fn growth_across_a_segment_boundary_matches_a_fresh_build() {
        use crate::mutate::NewShop;
        let (mut world, ds) = multi_segment();
        assert_ne!(ds.n % SEGMENT_ROWS, 0, "test needs a partial tail segment");
        let grow = SEGMENT_ROWS - ds.n % SEGMENT_ROWS + 5;
        for i in 0..grow {
            let owner = world.shops[i].owner;
            let role = if i % 2 == 0 { Role::Retailer } else { Role::Supplier };
            world.add_shop(NewShop { industry: (i % 3) as u16, region: 1, role, owner, lead: 1 });
        }
        let dirty = world.take_dirty();
        let grown = refresh_dataset(&world, &ds, dirty.nodes());
        assert_eq!(grown.n, ds.n + grow);
        assert_eq!(grown.segment_count(), grown.n.div_ceil(SEGMENT_ROWS));
        assert_eq!(grown.segment_count(), ds.segment_count() + 1);
        assert!((ds.n..grown.n).all(|v| grown.splits.test.contains(&v)));
        let mut fresh = build_dataset(&world);
        for v in 0..grown.n {
            assert_eq!(grown.statics_row(v), fresh.statics_row(v), "statics row {v}");
            assert_eq!(grown.targets_raw_row(v), fresh.targets_raw_row(v), "raw targets row {v}");
            assert_eq!(grown.observed_len(v), fresh.observed_len(v), "observed_len row {v}");
        }
        fresh.scaler = ds.scaler;
        fresh.orders_scaler = ds.orders_scaler;
        fresh.customers_scaler = ds.customers_scaler;
        let fresh = refresh_dataset_full(&world, &fresh);
        let (mut a, mut b) = (vec![0.0f32; ds.t * ds.d_t], vec![0.0f32; ds.t * ds.d_t]);
        for v in 0..grown.n {
            assert_eq!(grown.gmv_row(v), fresh.gmv_row(v), "gmv row {v}");
            grown.write_temporal_row(v, &mut a);
            fresh.write_temporal_row(v, &mut b);
            assert_eq!(a, b, "temporal row {v}");
            assert_eq!(grown.targets_norm_row(v), fresh.targets_norm_row(v), "targets row {v}");
        }
    }

    #[test]
    fn denormalize_prediction_is_positive() {
        let (_, ds) = dataset();
        let pred = Tensor::from_vec(vec![1, 3], vec![3.0, 4.0, 4.5]);
        let out = ds.denormalize_prediction(&pred);
        assert!(out.iter().all(|&x| x >= 0.0));
        assert!(out[2] > out[1] && out[1] > out[0]);
        // Overshoot is clamped, not exploded.
        let wild = Tensor::from_vec(vec![1, 3], vec![50.0, 50.0, 50.0]);
        let capped = ds.denormalize_prediction(&wild);
        assert!(capped[0] <= ds.scaler.denormalize_pos(ds.max_model_z) + 1.0);
    }
}
