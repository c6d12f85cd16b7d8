//! `kernel_hybrid`: seeded heterogeneous hybrid batches through
//! POD-Attention and the FlashAttention serial baseline on gpu-sim, each
//! also priced by the analytic `AttentionEstimator` and the linear-operator
//! cost model.
//!
//! A case is one prompt prefilled in Sarathi chunks while a fixed set of
//! decodes runs alongside it: every chunk is one hybrid batch, and every
//! decode's context grows by one token per batch. Its simulated serving
//! view: the prompt's time to first token is the sum of its batches'
//! iteration times, and each batch's iteration time is the token gap its
//! decodes see.

use crate::report::{median, percentile, ratio, Outcome};
use crate::spans::{Span, Spans};
use crate::timing::{repeat, setups, timed};
use attn_kernels::{
    AttentionConfig, AttentionEstimator, AttentionStrategy, HybridBatch, PrefillChunk,
    KERNEL_LAUNCH_OVERHEAD,
};
use gpu_sim::GpuConfig;
use llm_serving::{IterationCostModel, ModelConfig, SplitMix64};
use pod_attention::PodAttention;

/// Cases per replay.
pub const DEFAULT_CASES: usize = 16;
/// Sarathi chunk size the prompts are split into.
const CHUNK: usize = 1024;
/// Prompt lengths are stratified over this range (tokens).
const PROMPT_RANGE: (usize, usize) = (4 * 1024, 20 * 1024);
/// Decode counts are stratified over this range.
const DECODE_RANGE: (usize, usize) = (16, 160);
/// Each decode's starting context is uniform over this range (tokens).
const DECODE_CONTEXT_RANGE: (usize, usize) = (1024, 16 * 1024);
/// The interactive SLO class of `SloMix::interactive_batch`: TTFT deadline
/// and token-gap target, in seconds.
const SLO_TTFT: f64 = 2.0;
const SLO_TBT: f64 = 0.2;

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Uniform integer in `[lo, hi]` at fraction `u` of the range.
fn lerp(range: (usize, usize), u: f64) -> usize {
    range.0 + ((range.1 - range.0) as f64 * u).round() as usize
}

/// The batches of `cases` seeded cases: `(case index, batch)` in replay
/// order. Prompt lengths and decode counts are stratified (one seeded draw
/// per equal-width stratum, prompt stratum `i` paired with decode stratum
/// `i * stride mod cases`), so every seed spans both ranges evenly and
/// pairs short and long prompts with light and heavy decode loads alike.
pub fn generate(cases: usize, seed: u64) -> Vec<(usize, HybridBatch)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let stride = (cases / 2 + 1..)
        .find(|&s| gcd(s, cases) == 1)
        .expect("some stride is coprime with the case count");
    let mut batches = Vec::new();
    for case in 0..cases {
        let stratum = case * stride % cases;
        let prompt = lerp(PROMPT_RANGE, (case as f64 + rng.next_f64()) / cases as f64);
        let decodes = lerp(
            DECODE_RANGE,
            (stratum as f64 + rng.next_f64()) / cases as f64,
        );
        let contexts: Vec<usize> = (0..decodes)
            .map(|_| lerp(DECODE_CONTEXT_RANGE, rng.next_f64()))
            .collect();
        for (step, prior) in (0..prompt).step_by(CHUNK).enumerate() {
            let mut batch = HybridBatch::new();
            batch.prefill = Some(PrefillChunk::new(CHUNK.min(prompt - prior), prior));
            for &ctx in &contexts {
                batch.push_decode(ctx + step);
            }
            batches.push((case, batch));
        }
    }
    batches
}

/// The generated batches and the kernels that run them.
#[derive(Debug)]
pub struct Setup {
    batches: Vec<(usize, HybridBatch)>,
    cases: usize,
    model: ModelConfig,
    gpu: GpuConfig,
    pod: PodAttention,
}

/// Generate `cases` cases and build the kernels. Returns the setup and the
/// generation seconds.
fn setup(cases: usize, seed: u64) -> (Setup, f64) {
    let (batches, gen_secs) = timed(|| generate(cases, seed));
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let pod = PodAttention::new(AttentionConfig::llama3_8b(), gpu.clone());
    let setup = Setup {
        batches,
        cases,
        model,
        gpu,
        pod,
    };
    (setup, gen_secs)
}

/// The simulated result of one batch.
#[derive(Debug, Clone, PartialEq)]
struct BatchResult {
    case: usize,
    decodes: usize,
    /// Attention seconds of one transformer layer on gpu-sim: fused POD,
    /// serial baseline.
    pod_attn: f64,
    serial_attn: f64,
    /// Attention seconds of one transformer layer the estimator predicts
    /// for POD.
    est_attn: f64,
    /// Whole-model seconds of everything but attention.
    linear: f64,
    /// Whole-model attention seconds in the cost model's breakdown.
    breakdown_attn: f64,
    /// gpu-sim intervals of both runs.
    intervals: usize,
}

/// One replay: every batch's results, or `None` where gpu-sim failed.
type Replay = Vec<Option<BatchResult>>;

impl Setup {
    /// Batches per replay.
    pub fn batches(&self) -> usize {
        self.batches.len()
    }

    /// Run every batch through the kernels, with spans when enabled.
    fn replay(&self, spans: &mut Spans) -> Replay {
        // Fresh estimators per replay, as each serving engine builds its own:
        // their price memos start empty every time.
        let estimator = AttentionEstimator::new(self.model.attention, self.gpu.clone());
        let cost = IterationCostModel::new(self.model.clone(), self.gpu.clone());
        self.batches
            .iter()
            .map(|(case, batch)| {
                let plan = spans.time(Span::PodPlan, || self.pod.plan(batch));
                std::hint::black_box(plan);
                let (fused, serial) = spans.time(Span::GpuSim, || {
                    (self.pod.execute(batch), self.pod.serial_baseline(batch))
                });
                let est = spans.time(Span::Estimate, || {
                    estimator.estimate(batch, AttentionStrategy::Pod)
                });
                let breakdown = cost.breakdown(batch, AttentionStrategy::Pod);
                let (fused, serial) = (fused.ok()?, serial.ok()?);
                let kernels = batch.has_prefill() as usize + batch.has_decode() as usize;
                let breakdown_attn = breakdown.prefill_attention + breakdown.decode_attention;
                Some(BatchResult {
                    case: *case,
                    decodes: batch.decode_batch_size(),
                    pod_attn: fused.makespan + KERNEL_LAUNCH_OVERHEAD,
                    serial_attn: serial.makespan + kernels as f64 * KERNEL_LAUNCH_OVERHEAD,
                    est_attn: est.total_time,
                    linear: breakdown.total() - breakdown_attn,
                    breakdown_attn,
                    intervals: fused.intervals + serial.intervals,
                })
            })
            .collect()
    }

    /// Whole-model iteration seconds of `r` with POD attention from gpu-sim.
    fn iteration(&self, r: &BatchResult) -> f64 {
        r.linear + self.model.num_layers() as f64 * r.pod_attn
    }
}

/// Attempted and failed batches, plus the every-batch-simulates check.
fn account(out: &mut Outcome, replay: &Replay) {
    let failed = replay.iter().filter(|r| r.is_none()).count();
    out.attempted = replay.len() as u64;
    out.failed = failed as u64;
    out.check(failed == 0, || {
        format!("{failed} batches returned SimError")
    });
}

/// A `--trace 0` run: end-to-end metrics.
pub fn run_end_to_end(cases: usize, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, setup_s, _) = setups(|| setup(cases, seed));
    let runs = repeat(seconds, 3, || setup.replay(&mut Spans::new(false)));
    account(&mut out, &runs.first);
    out.check(runs.all_equal, || {
        "simulated results differ between replays".to_string()
    });
    eprintln!("{}", runs.summary("end-to-end"));
    let results: Vec<&BatchResult> = runs.first.iter().flatten().collect();
    let replay_s = runs.median_scaled();
    let intervals: usize = results.iter().map(|r| r.intervals).sum();

    let mut ttft = vec![0.0; setup.cases];
    let mut worst_gap = vec![0.0_f64; setup.cases];
    let mut gaps = Vec::new();
    let mut tokens = setup.cases as f64;
    for r in &results {
        let t = setup.iteration(r);
        ttft[r.case] += t;
        worst_gap[r.case] = worst_gap[r.case].max(t);
        gaps.resize(gaps.len() + r.decodes, t);
        tokens += r.decodes as f64;
    }
    let busy: f64 = results.iter().map(|r| setup.iteration(r)).sum();
    let met = (0..setup.cases)
        .filter(|&c| ttft[c] <= SLO_TTFT && worst_gap[c] <= SLO_TBT)
        .count();

    out.set("setup_s", setup_s * runs.scale());
    out.set("replay_s", replay_s);
    out.set("events_per_s", intervals as f64 / replay_s);
    out.set("ttft_p50_s", percentile(&mut ttft.clone(), 50.0));
    out.set("ttft_p99_s", percentile(&mut ttft, 99.0));
    out.set("tbt_p50_s", percentile(&mut gaps, 50.0));
    out.set("tbt_p99_s", percentile(&mut gaps, 99.0));
    out.set("goodput_rpm", met as f64 / (busy / 60.0));
    out.set("throughput_tok_s", tokens / busy);
    out
}

/// A `--trace 1` run: per-layer metrics, from an untraced and a traced
/// phase that split `seconds` evenly.
pub fn run_per_layer(cases: usize, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (setup, _, gen_s) = setups(|| setup(cases, seed));
    let plain = repeat(seconds / 2.0, 2, || setup.replay(&mut Spans::new(false)));
    let mut spans = Spans::new(true);
    let traced = repeat(seconds / 2.0, 2, || setup.replay(&mut spans));
    account(&mut out, &plain.first);
    out.check(plain.all_equal && traced.all_equal, || {
        "simulated results differ between replays".to_string()
    });
    out.check(traced.first == plain.first, || {
        "the traced replay diverged from the untraced results".to_string()
    });
    let results: Vec<&BatchResult> = plain.first.iter().flatten().collect();
    let intervals: usize = results.iter().map(|r| r.intervals).sum();
    let reps = traced.walls.len() as f64;

    let mut errs: Vec<f64> = results
        .iter()
        .map(|r| (r.est_attn - r.pod_attn).abs() / r.pod_attn)
        .collect();
    let speedups: Vec<f64> = results.iter().map(|r| r.serial_attn / r.pod_attn).collect();
    let log_mean = speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64;
    let attn: f64 = results.iter().map(|r| r.breakdown_attn).sum();
    let total: f64 = results.iter().map(|r| r.breakdown_attn + r.linear).sum();

    out.set(
        "workload.gen_ns_per_req",
        gen_s * 1e9 / setup.batches() as f64,
    );
    out.set("pricing.estimate_ns", spans.ns_per_call(Span::Estimate));
    out.set("pricing.err_vs_gpusim_p50", percentile(&mut errs, 50.0));
    out.set("pricing.err_vs_gpusim_max", percentile(&mut errs, 100.0));
    out.set("linear.attn_share", ratio(attn, total));
    out.set(
        "gpusim.intervals_per_batch",
        ratio(intervals as f64, results.len() as f64),
    );
    out.set(
        "gpusim.ns_per_interval",
        spans.seconds(Span::GpuSim) * 1e9 / (intervals as f64 * reps),
    );
    out.set("pod.plan_ns", spans.ns_per_call(Span::PodPlan));
    out.set("pod.attn_speedup_geomean", log_mean.exp());
    out.set(
        "pod.attn_speedup_max",
        speedups.iter().copied().fold(0.0, f64::max),
    );
    out.set(
        "spans.overhead_ratio",
        median(&traced.walls) / median(&plain.walls),
    );
    out
}
