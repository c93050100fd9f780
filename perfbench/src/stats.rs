//! Summary statistics and the seeded open-loop arrival schedule.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Nearest-rank percentile of an ascending-sorted slice, `p` in `[0, 1]`:
/// the value at 1-based rank `⌈p·n⌉`, clamped into `[1, n]`. Always a
/// sample that occurred, never an interpolation; `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Sort a sample set ascending (`+∞` last — a failed request counts as
/// slower than every served one).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank median of an unsorted sample set.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean; `None` on an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Percentile `p` of each consecutive window of `window` samples (in the
/// order given), then percentile `across` of those per-window figures. A
/// trailing partial window shorter than half a window is dropped. One
/// stall then moves one window's figure, not the whole run's.
pub fn windowed_percentile(samples: &[f64], window: usize, p: f64, across: f64) -> Option<f64> {
    let window = window.max(1);
    let per_window: Vec<f64> = samples
        .chunks(window)
        .filter(|chunk| 2 * chunk.len() >= window || chunk.len() == samples.len())
        .filter_map(|chunk| percentile(&sorted(chunk.to_vec()), p))
        .collect();
    percentile(&sorted(per_window), across)
}

/// Arrival offsets, in seconds from the start of the phase, of a Poisson
/// process with mean `rate` per second over `[0, duration)`: exponential
/// gaps `-ln(1 - U) / rate` drawn from a generator seeded with `seed`, so
/// the whole schedule is fixed before the first request is sent.
pub fn poisson_schedule(rate: f64, duration: f64, seed: u64) -> Vec<f64> {
    assert!(rate > 0.0 && duration > 0.0, "poisson_schedule: rate and duration must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return offsets;
        }
        offsets.push(t);
    }
}

/// A wall time set against the stages measured inside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageResidual {
    /// Sum of the stage times.
    pub stage_sum: f64,
    /// `wall - stage_sum`: time no stage accounts for (negative when the
    /// stages were measured slower than the wall they are set against).
    pub residual: f64,
    /// `residual / wall` in percent (0 when `wall` is 0).
    pub residual_pct: f64,
}

/// Residual of `wall` against the sum of `stages`.
pub fn stage_residual(wall: f64, stages: &[f64]) -> StageResidual {
    let stage_sum: f64 = stages.iter().sum();
    let residual = wall - stage_sum;
    let residual_pct = if wall == 0.0 { 0.0 } else { 100.0 * residual / wall };
    StageResidual { stage_sum, residual, residual_pct }
}
