//! The benchmark's own arithmetic on inputs small enough to check by hand.

use perfbench::stats::{median, percentile, poisson_schedule, stage_residual, windowed_percentile};
use perfbench::trace::{covered_ns, self_times, totals_by_name, Span, Tracer};

#[test]
fn nearest_rank_percentiles_on_tiny_slices() {
    assert_eq!(percentile(&[], 0.5), None);
    for p in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(percentile(&[7.0], p), Some(7.0));
    }
    // Rank ⌈p·n⌉ clamped to [1, n]: p50 of an even window is the lower middle.
    let two = [1.0, 2.0];
    assert_eq!(percentile(&two, 0.0), Some(1.0));
    assert_eq!(percentile(&two, 0.5), Some(1.0));
    assert_eq!(percentile(&two, 0.99), Some(2.0));
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&ten, 0.5), Some(5.0));
    assert_eq!(percentile(&ten, 0.9), Some(9.0));
    assert_eq!(percentile(&ten, 0.91), Some(10.0));
    assert_eq!(percentile(&ten, 0.99), Some(10.0));
    // A failed request (+∞) sorts last and is what p100 reports.
    assert_eq!(percentile(&[1.0, 2.0, f64::INFINITY], 1.0), Some(f64::INFINITY));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
}

#[test]
fn windowed_percentile_takes_a_percentile_of_window_percentiles() {
    // Windows [1,2,3] [10,20,30] [4,5,6]: per-window max 3, 30, 6.
    let samples = [1.0, 2.0, 3.0, 10.0, 20.0, 30.0, 4.0, 5.0, 6.0];
    assert_eq!(windowed_percentile(&samples, 3, 1.0, 0.5), Some(6.0), "median window");
    assert_eq!(windowed_percentile(&samples, 3, 1.0, 0.25), Some(3.0), "lower quartile");
    assert_eq!(windowed_percentile(&samples, 3, 0.5, 1.0), Some(20.0), "slowest window's median");
    // A trailing window shorter than half a window is dropped...
    let mut with_tail = samples.to_vec();
    with_tail.push(100.0);
    assert_eq!(windowed_percentile(&with_tail, 3, 1.0, 0.5), Some(6.0));
    // ...but a run shorter than one window is its own window.
    assert_eq!(windowed_percentile(&[5.0, 1.0], 8, 1.0, 0.25), Some(5.0));
    assert_eq!(windowed_percentile(&[], 8, 0.5, 0.5), None);
}

#[test]
fn poisson_schedule_has_its_rate_and_repeats_per_seed() {
    let (rate, duration) = (16_000.0, 2.0);
    let a = poisson_schedule(rate, duration, 7);
    assert_eq!(a, poisson_schedule(rate, duration, 7), "same seed, same schedule");
    assert_ne!(a, poisson_schedule(rate, duration, 8), "another seed, another schedule");
    // 32 000 expected arrivals; the count's standard deviation is √32000 ≈ 179.
    let expected = rate * duration;
    assert!((a.len() as f64 - expected).abs() < 4.0 * expected.sqrt(), "{} arrivals", a.len());
    assert!(a.windows(2).all(|w| w[0] < w[1]), "offsets strictly increase");
    assert!(a.first().is_some_and(|&t| t > 0.0) && a.last().is_some_and(|&t| t < duration));
    // Exponential gaps: their mean is 1/rate and their standard deviation too.
    let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
    let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
    assert!((mean * rate - 1.0).abs() < 0.03, "mean gap {mean}");
    assert!((var.sqrt() * rate - 1.0).abs() < 0.05, "gap sd {}", var.sqrt());
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span { name, start_ns, end_ns, parent, op: 0 }
}

#[test]
fn covered_time_counts_overlaps_once_and_clips_to_the_parent() {
    assert_eq!(covered_ns(0, 100, &[]), 0);
    assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 50)]), 30);
    assert_eq!(covered_ns(0, 100, &[(10, 40), (30, 50)]), 40, "overlap counted once");
    assert_eq!(covered_ns(0, 100, &[(30, 50), (10, 40), (35, 45)]), 40, "order does not matter");
    assert_eq!(covered_ns(0, 100, &[(10, 20), (20, 30)]), 20, "touching intervals");
    assert_eq!(covered_ns(10, 50, &[(0, 20), (40, 90)]), 20, "clipped to the parent");
    assert_eq!(covered_ns(10, 50, &[(60, 90)]), 0, "outside the parent");
}

#[test]
fn self_time_subtracts_direct_children_only() {
    // root [0,100) ← a [10,40) ← a1 [15,25)
    //              ← b [30,60) (overlaps a)
    let spans = vec![
        span("root", 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("a1", 15, 25, Some(1)),
        span("b", 30, 60, Some(0)),
    ];
    // root: 100 − |[10,60)| = 50; a: 30 − 10 = 20; a1: 10; b: 30.
    assert_eq!(self_times(&spans), vec![50, 20, 10, 30]);
    let totals = totals_by_name(&spans);
    assert_eq!(totals["root"].total_ns, 100);
    assert_eq!(totals["root"].self_ns, 50);
    assert_eq!(totals["a"].count, 1);
    assert_eq!(totals["b"].mean_us(), 0.03);
}

#[test]
fn absorbed_recordings_keep_their_parents() {
    let origin = std::time::Instant::now();
    let mut a = Tracer::new(origin);
    let root = a.begin("root", None, 1);
    a.end(root);
    let mut b = Tracer::new(origin);
    let parent = b.begin("parent", None, 2);
    let child = b.begin("child", Some(parent), 2);
    b.end(child);
    b.end(parent);
    a.absorb(b);
    let spans = a.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].name, "child");
    assert_eq!(spans[2].parent, Some(1), "child points at its parent after the merge");
    assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
}

#[test]
fn stage_residual_is_wall_minus_stage_sum() {
    let r = stage_residual(10.0, &[2.0, 3.0, 4.0]);
    assert_eq!(r.stage_sum, 9.0);
    assert_eq!(r.residual, 1.0);
    assert_eq!(r.residual_pct, 10.0);
    // Stages measured slower than the wall leave a negative residual.
    let r = stage_residual(8.0, &[5.0, 5.0]);
    assert_eq!(r.residual, -2.0);
    assert_eq!(r.residual_pct, -25.0);
    assert_eq!(stage_residual(0.0, &[]).residual_pct, 0.0);
}
