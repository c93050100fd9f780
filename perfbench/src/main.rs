//! Benchmark of the Gaia serving system. One workload per process:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-100k|churn-100k|monthly-1k> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! records the run context. See `README.md` beside this file for what each
//! metric and workload means.

mod common;
mod workloads;

use common::{context_json, Args, Outcome};

/// End-to-end metrics, printed by every untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "preds/s"),
    ("publish_p50_ms", "ms"),
    ("publish_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run; a layer a workload does
/// not exercise reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("serving.queue_wait_us.p50", "us"),
    ("serving.queue_wait_us.p99", "us"),
    ("serving.service_us.p50", "us"),
    ("serving.service_us.p99", "us"),
    ("serving.batch_size.mean", "count"),
    ("serving.reader_installs", "count"),
    ("serving.publish_residual_ms", "ms"),
    ("serving.row_filter_ms", "ms"),
    ("serving.model_publish_ms", "ms"),
    ("serving.execute_month_s", "s"),
    ("graph.ego_us", "us"),
    ("graph.ego_nodes.mean", "count"),
    ("graph.closure_ms", "ms"),
    ("graph.closure_nodes", "count"),
    ("core.forward_us", "us"),
    ("core.denorm_us", "us"),
    ("core.cache_read_bytes_per_request", "bytes"),
    ("core.cache_bytes", "bytes"),
    ("core.delta_precompute_ms", "ms"),
    ("core.recomputed_nodes", "count"),
    ("core.freeze_ms", "ms"),
    ("core.segments_copied", "count"),
    ("core.segments_shared", "count"),
    ("core.full_precompute_s", "s"),
    ("core.train_s", "s"),
    ("core.train_samples_per_s", "1/s"),
    ("synth.world_gen_s", "s"),
    ("synth.build_dataset_s", "s"),
    ("synth.refresh_ms", "ms"),
    ("synth.refresh_bytes", "bytes"),
    ("synth.mutate_us", "us"),
    ("tensor.tape_reset_us", "us"),
    ("tensor.fresh_allocs", "count"),
    ("quality.forecast_mape", "ratio"),
    ("bench.failed_ratio", "ratio"),
    ("bench.generator_lag_us.p99", "us"),
    ("bench.latency_p99_ms", "ms"),
    ("bench.pooled_p99_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.stage_residual_pct", "%"),
    ("bench.publish_stage_residual_pct", "%"),
    ("bench.cycle_stage_residual_pct", "%"),
];

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-100k|churn-100k|monthly-1k> --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let run: fn(&Args) -> Outcome = match args.workload.as_str() {
        "serve-100k" => workloads::serve::run,
        "churn-100k" => workloads::churn::run,
        "monthly-1k" => workloads::monthly::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let outcome = match std::panic::catch_unwind(|| run(&args)) {
        Ok(outcome) => outcome,
        Err(_) => {
            eprintln!("perfbench: workload {} panicked", args.workload);
            std::process::exit(1);
        }
    };
    println!("{{\"context\":{}}}", context_json(&args));
    println!("{}", result_line(&args, outcome));
}

/// The result object, with every metric the mode promises: a metric the
/// workload did not set is an idle layer (0) in the traced run and a bug
/// in the untraced one.
fn result_line(args: &Args, mut outcome: Outcome) -> String {
    let failed_ratio = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.set("bench.failed_ratio", failed_ratio);
    let mut correct = outcome.attempted > 0 && outcome.failed == 0 && outcome.violations.is_empty();
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        // JSON has no infinities: a metric that could not be measured
        // (every request failed) reads as the largest finite number, and
        // the run is marked incorrect.
        let value = if value.is_finite() {
            value
        } else {
            correct = false;
            f64::MAX
        };
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    )
}
