//! The metric catalogue, the result line and small statistics helpers.

use llm_serving::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one
/// of them on a `--trace 0` run. Unit `s` is host wall time scaled to the
/// reference host's speed (see `timing::calibrate`); `sim_s` is virtual
/// time on the simulated GPUs, which is deterministic for a seed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ttft_p50_s", "sim_s"),
    ("ttft_p99_s", "sim_s"),
    ("tbt_p50_s", "sim_s"),
    ("tbt_p99_s", "sim_s"),
    ("goodput_rpm", "1/min"),
    ("throughput_tok_s", "tok/s"),
];

/// Per-layer metrics: `(name, unit)`. A `--trace 1` run reports every one
/// of them; a layer the workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_ns_per_req", "ns"),
    ("cluster.self_s", "s"),
    ("cluster.route_ns", "ns"),
    ("cluster.route_calls", "count"),
    ("cluster.busy_imbalance", "ratio"),
    ("cluster.default_workers_ratio", "ratio"),
    ("engine.step_ns.hybrid", "ns"),
    ("engine.step_ns.prefill_only", "ns"),
    ("engine.step_ns.decode_only", "ns"),
    ("engine.step_ns.idle", "ns"),
    ("engine.step_calls", "count"),
    ("engine.ran_frac", "ratio"),
    ("engine.submit_ns", "ns"),
    ("engine.busy_s", "sim_s"),
    ("engine.hybrid_frac", "ratio"),
    ("scheduler.decodes_per_iter_p50", "count"),
    ("scheduler.decodes_per_iter_p99", "count"),
    ("scheduler.prefill_tokens_per_iter", "tok"),
    ("scheduler.queue_wait_p50_s", "sim_s"),
    ("scheduler.queue_wait_p99_s", "sim_s"),
    ("scheduler.shed", "count"),
    ("pricing.cache_hit_rate", "ratio"),
    ("pricing.estimate_ns", "ns"),
    ("pricing.err_vs_gpusim_p50", "ratio"),
    ("pricing.err_vs_gpusim_max", "ratio"),
    ("kv.util_p50", "ratio"),
    ("kv.util_p99", "ratio"),
    ("kv.prefix_hit_rate", "ratio"),
    ("kv.preemptions", "count"),
    ("kv.blocks_evicted", "count"),
    ("kv.cow_copies", "count"),
    ("linear.attn_share", "ratio"),
    ("metrics.report_ns", "ns"),
    ("metrics.peak_sample_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.retained_frac", "ratio"),
    ("gpusim.intervals_per_batch", "count"),
    ("gpusim.ns_per_interval", "ns"),
    ("pod.plan_ns", "ns"),
    ("pod.attn_speedup_geomean", "x"),
    ("pod.attn_speedup_max", "x"),
    ("spans.overhead_ratio", "ratio"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests (or kernel batches) the workload submitted.
    pub attempted: u64,
    /// Requests shed or unfinished, or batches that returned `SimError`.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `catalogue`. End-to-end metrics must all be present; a per-layer
    /// metric of a layer the workload did not call reads 0.
    pub fn to_json(
        &self,
        catalogue: &[(&'static str, &'static str)],
        fill_missing: bool,
    ) -> String {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(&v) => v,
                    None if fill_missing => 0.0,
                    None => panic!("workload did not measure end-to-end metric {name}"),
                };
                (
                    name,
                    JsonValue::obj(vec![
                        ("value", JsonValue::Num(value)),
                        ("unit", JsonValue::str(unit)),
                    ]),
                )
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::Bool(self.problems.is_empty())),
            ("attempted", JsonValue::Num(self.attempted as f64)),
            ("failed", JsonValue::Num(self.failed as f64)),
            ("metrics", JsonValue::obj(metrics)),
        ])
        .to_string_compact()
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `p` (in `[0, 100]`) of `xs`; 0 for no samples.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((p / 100.0) * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux hosts).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
