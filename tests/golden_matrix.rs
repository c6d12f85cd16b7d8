//! Golden matrix: bit-for-bit digests of the engine's observable behaviour
//! across its residency policies and serving features.
//!
//! Each case runs a small workload to completion and digests three things:
//!
//! * every [`IterationOutcome`] the engine returned (engine cases only; the
//!   cluster case has no per-step outcomes of its own, and its replicas'
//!   iterations appear in the recording as `iteration` events);
//! * the final report's JSON;
//! * the flight recording's JSONL (tracing on, with a ring large enough to
//!   keep every event).
//!
//! The same case also runs untraced and must produce the same outcome and
//! report digests, so tracing stays inert on every path the matrix covers.
//!
//! The matrix spans the three baselines × the three KV residency policies on
//! a memory-pressure trace (deferred admission, paged growth, preemption and
//! prefix eviction all fire), plus one case each for shared-prefix decode
//! dedup, speculative decoding, fair queueing with priority preemption,
//! deadline shedding, streaming metrics and a one-prefill, one-decode
//! disaggregated cluster. Every case also asserts that the feature it is
//! there for actually ran, so a workload change cannot hollow a case out.

use gpu_sim::GpuConfig;
use llm_serving::{
    AcceptanceModel, AdmissionPolicy, Cluster, ClusterConfig, DraftModelConfig, FairQueueConfig,
    IterationOutcome, KvMigration, ModelConfig, Priority, RequestSpec, RouterPolicy, ServingConfig,
    ServingEngine, ServingReport, SharedPrefixWorkload, SloMix, TenantId, TraceConfig, Workload,
};

fn llama3() -> ModelConfig {
    ModelConfig::llama3_8b()
}

fn gpu() -> GpuConfig {
    GpuConfig::a100_80gb()
}

/// FNV-1a over bytes: a small, dependency-free, platform-independent digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn of(text: &str) -> u64 {
        let mut d = Digest::new();
        d.bytes(text.as_bytes());
        d.0
    }
}

/// Digest of one outcome. `Debug` prints every `f64` in its shortest
/// round-trip form, so equal text means equal bits.
fn outcome_text(outcome: &IterationOutcome) -> String {
    format!("{outcome:?}\n")
}

/// What one run produced: digests of the outcome stream, the report JSON and
/// the recording JSONL, plus the report itself for the exercise checks.
struct Run {
    outcomes: u64,
    steps: usize,
    report: u64,
    recording: u64,
    summary: ServingReport,
}

fn tracing() -> TraceConfig {
    TraceConfig::new().with_capacity(1 << 22)
}

fn run_engine(config: ServingConfig, specs: &[RequestSpec]) -> Run {
    let mut engine = ServingEngine::new(config);
    for &spec in specs {
        engine.submit(spec);
    }
    let mut outcomes = Digest::new();
    let mut steps = 0usize;
    let mut now = engine.clock();
    loop {
        let outcome = engine.step(now);
        steps += 1;
        outcomes.bytes(outcome_text(&outcome).as_bytes());
        match outcome {
            IterationOutcome::Ran(stats) => now = stats.completed_at,
            IterationOutcome::IdleUntil(t) => now = t,
            IterationOutcome::Drained => break,
            IterationOutcome::Blocked { .. } => panic!("golden case blocked: {outcome:?}"),
        }
    }
    let summary = engine.report();
    Run {
        outcomes: outcomes.0,
        steps,
        report: Digest::of(&summary.to_json().to_string_pretty()),
        recording: engine
            .flight_recording()
            .map_or(0, |rec| Digest::of(&rec.to_jsonl())),
        summary,
    }
}

fn run_cluster(config: ClusterConfig, specs: &[RequestSpec]) -> Run {
    let mut cluster = Cluster::new(config);
    let report = cluster.run(specs.to_vec());
    let mut summary = report.per_replica[0].clone();
    for r in &report.per_replica[1..] {
        summary.preemptions += r.preemptions;
        summary.migrated_in_requests += r.migrated_in_requests;
        summary.migrated_out_requests += r.migrated_out_requests;
        summary.completed += r.completed;
    }
    Run {
        outcomes: 0,
        steps: 0,
        report: Digest::of(&report.to_json().to_string_pretty()),
        recording: cluster
            .flight_recording()
            .map_or(0, |rec| Digest::of(&rec.to_jsonl())),
        summary,
    }
}

/// Run a case traced and untraced, check tracing inertness, and return the
/// traced run.
fn engine_case(config: ServingConfig, specs: &[RequestSpec]) -> Run {
    let untraced = run_engine(config.clone(), specs);
    let traced = run_engine(config.with_tracing(tracing()), specs);
    assert_eq!(
        untraced.outcomes, traced.outcomes,
        "tracing changed outcomes"
    );
    assert_eq!(untraced.report, traced.report, "tracing changed the report");
    assert_eq!(untraced.recording, 0);
    traced
}

fn cluster_case(config: ClusterConfig, specs: &[RequestSpec]) -> Run {
    let untraced = run_cluster(config.clone(), specs);
    let base = config.base.clone().with_tracing(tracing());
    let traced = run_cluster(ClusterConfig { base, ..config }, specs);
    assert_eq!(untraced.report, traced.report, "tracing changed the report");
    traced
}

/// Mid-length prompts with long decodes: decode growth, not admission, is
/// what fills the cache.
fn pressure_workload() -> Workload {
    Workload {
        name: "pressure".to_string(),
        mean_context: 6_000.0,
        context_range: (2_048, 12_000),
        mean_decode: 900.0,
        min_decode: 32,
    }
}

/// Memory-pressure trace: shared-prefix chat traffic arriving faster than a
/// 24K-token cache can hold it. The 1000-token system prompt ends mid-block,
/// so prefix matches end in a copy-on-write.
fn pressure_trace() -> Vec<RequestSpec> {
    SharedPrefixWorkload::new(pressure_workload(), 3, 1000, 0.7, 0.4).generate(24, 4.0, 0x601D)
}

const PRESSURE_KV_TOKENS: usize = 24_000;

fn pressured(mut config: ServingConfig) -> ServingConfig {
    config.kv_capacity_tokens = Some(PRESSURE_KV_TOKENS);
    config
}

/// Pinned `(outcomes, steps, report, recording)` digests per case, captured
/// from the engine before its residency logic moved into `KvCacheManager`.
const GOLDENS: &[(&str, u64, usize, u64, u64)] = &[
    (
        "vllm/conservative",
        0xe5f8cf796409d280,
        7473,
        0x85bfab2be1801ea5,
        0xf4bceb7a882bf2b5,
    ),
    (
        "vllm/paged",
        0x5f4e6e0a13e18c5f,
        6901,
        0x04cad42b0080d1d5,
        0x0c7eb55feceec6c6,
    ),
    (
        "vllm/prefix",
        0x6c150fa7c20191ea,
        5834,
        0x33d4e49582fde1c5,
        0x058dd0c0046d7a81,
    ),
    (
        "sarathi/conservative",
        0x88d522eaa491fc72,
        7510,
        0xd9f65a3ba4f02838,
        0xd4d683875ee55932,
    ),
    (
        "sarathi/paged",
        0x8fc416615cf850ee,
        6978,
        0x9921a302f8f02523,
        0x9abd348ca7955b14,
    ),
    (
        "sarathi/prefix",
        0x139d7543c3e14d3f,
        5861,
        0x524dee0066749a6b,
        0x0e202448911a4417,
    ),
    (
        "sarathi_pod/conservative",
        0xb9b0d42de5e00323,
        7510,
        0x8d26d8f82883419c,
        0x2d772ece44c3cb98,
    ),
    (
        "sarathi_pod/paged",
        0xd03f0e5bd24ee82a,
        6978,
        0x9baf197e01596351,
        0x9eb4b46ff2615282,
    ),
    (
        "sarathi_pod/prefix",
        0xf6c49fb64a214139,
        5862,
        0x6ffd6db3eb0d3e16,
        0x90b4c98cca4b6768,
    ),
    (
        "dedup",
        0x951c2d2711caf1c2,
        887,
        0x33e824c36e7a79dc,
        0x21412f8af2b6e705,
    ),
    (
        "speculative",
        0xb9b6b25ea9497831,
        2760,
        0x6afdb4029e8f4e93,
        0x50d90b4ecdbbe28f,
    ),
    (
        "fair_priority",
        0x7055577f770ccc2c,
        9691,
        0x7cebf23e0edb588f,
        0x9b0bcf8922e8dfd4,
    ),
    (
        "deadline_shed",
        0xc892a6f1fff19812,
        3038,
        0x652ab1d5dd069c54,
        0x20b03bab09482c0b,
    ),
    (
        "streaming",
        0xf6c49fb64a214139,
        5862,
        0xabec4244734226f6,
        0x90b4c98cca4b6768,
    ),
    (
        "disagg/conservative",
        0x0000000000000000,
        0,
        0xb4366c5c2b5188eb,
        0x599675bb6b904a02,
    ),
    (
        "disagg/prefix",
        0x0000000000000000,
        0,
        0x94089acc727f3c87,
        0x82cbfe742358a9d1,
    ),
];

fn check(name: &str, run: &Run) {
    let got = (run.outcomes, run.steps, run.report, run.recording);
    let line = format!(
        "    (\"{name}\", {:#018x}, {}, {:#018x}, {:#018x}),",
        got.0, got.1, got.2, got.3
    );
    let Some(&(_, outcomes, steps, report, recording)) =
        GOLDENS.iter().find(|(case, ..)| *case == name)
    else {
        panic!("no golden for case {name}; computed:\n{line}");
    };
    assert_eq!(
        (outcomes, steps, report, recording),
        got,
        "{name} moved; computed:\n{line}"
    );
}

type Baseline = fn() -> ServingConfig;

fn baselines() -> [(&'static str, Baseline); 3] {
    [
        ("vllm", || ServingConfig::vllm(llama3(), gpu())),
        ("sarathi", || ServingConfig::sarathi(llama3(), gpu(), 1024)),
        ("sarathi_pod", || {
            ServingConfig::sarathi_pod(llama3(), gpu(), 1024)
        }),
    ]
}

#[test]
fn baselines_by_residency_policy_on_a_pressure_trace() {
    let specs = pressure_trace();
    let mut failures = Vec::new();
    for (name, make) in baselines() {
        for (policy, paged) in [
            ("conservative", None),
            ("paged", Some(false)),
            ("prefix", Some(true)),
        ] {
            let mut config = pressured(make());
            if let Some(prefix_caching) = paged {
                config = config.with_paged_kv(prefix_caching);
            }
            let run = engine_case(config, &specs);
            assert_eq!(run.summary.completed, specs.len(), "{name}/{policy}");
            match paged {
                None => assert_eq!(run.summary.preemptions, 0),
                Some(prefix_caching) => {
                    assert!(
                        run.summary.preemptions > 0,
                        "{name}/{policy} never preempts"
                    );
                    if prefix_caching {
                        assert!(run.summary.cached_prefix_tokens > 0, "{name}/{policy}");
                        assert!(run.summary.blocks_evicted > 0, "{name}/{policy}");
                        assert!(run.summary.cow_copies > 0, "{name}/{policy}");
                    }
                }
            }
            let case = format!("{name}/{policy}");
            if std::panic::catch_unwind(|| check(&case, &run)).is_err() {
                failures.push(case);
            }
        }
    }
    assert!(failures.is_empty(), "moved: {failures:?}");
}

#[test]
fn shared_prefix_decode_dedup() {
    let specs =
        SharedPrefixWorkload::new(Workload::internal(), 2, 2048, 0.9, 0.3).generate(20, 4.0, 21);
    let config = ServingConfig::sarathi_pod(llama3(), gpu(), 1024)
        .with_paged_kv(true)
        .with_decode_dedup(true);
    let run = engine_case(config, &specs);
    assert!(run.summary.decode_kv_tokens_deduped > 0);
    check("dedup", &run);
}

#[test]
fn speculative_decoding_with_a_scaled_draft() {
    let specs = pressure_trace();
    let config = pressured(ServingConfig::sarathi_pod(llama3(), gpu(), 1024))
        .with_paged_kv(true)
        .with_speculative(
            4,
            DraftModelConfig::scaled(0.25),
            AcceptanceModel::new(0.6, 9),
        );
    let run = engine_case(config, &specs);
    assert!(run.summary.spec_rounds > 0);
    assert!(run.summary.draft_tokens_rejected > 0);
    assert!(run.summary.preemptions > 0);
    check("speculative", &run);
}

#[test]
fn fair_queue_with_priority_preemption() {
    let mut specs: Vec<RequestSpec> = pressure_workload()
        .generate(16, 3.0, 5)
        .into_iter()
        .map(|s| s.with_tenant(TenantId(0)).with_priority(Priority::Low))
        .collect();
    specs.extend(
        pressure_workload()
            .generate(8, 1.5, 6)
            .into_iter()
            .map(|s| {
                s.with_tenant(TenantId(1))
                    .with_priority(Priority::High)
                    .with_content(llm_serving::PromptContent::unique(7))
            }),
    );
    specs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    let config = pressured(ServingConfig::sarathi(llama3(), gpu(), 1024))
        .with_paged_kv(false)
        .with_fair_queue(
            FairQueueConfig::new()
                .with_weight(TenantId(1), 2.0)
                .with_priority_preemption(true),
        );
    let run = engine_case(config, &specs);
    assert!(run
        .summary
        .tenants
        .iter()
        .any(|t| t.preemptions_inflicted > 0));
    check("fair_priority", &run);
}

#[test]
fn deadline_shedding() {
    let specs = SloMix::interactive_batch().apply(pressure_trace(), 13);
    let config = pressured(ServingConfig::sarathi_pod(llama3(), gpu(), 1024))
        .with_admission(AdmissionPolicy::DeadlineShed);
    let run = engine_case(config, &specs);
    assert!(run.summary.shed_requests > 0);
    check("deadline_shed", &run);
}

#[test]
fn streaming_metrics() {
    let specs = pressure_trace();
    let config = pressured(ServingConfig::sarathi_pod(llama3(), gpu(), 1024))
        .with_paged_kv(true)
        .with_streaming_metrics(true);
    let run = engine_case(config, &specs);
    assert_eq!(run.summary.completed, specs.len());
    check("streaming", &run);
}

#[test]
fn disaggregated_one_prefill_one_decode() {
    let specs = pressure_trace();
    for (name, paged) in [("disagg/conservative", false), ("disagg/prefix", true)] {
        let mut base = pressured(ServingConfig::sarathi_pod(llama3(), gpu(), 1024));
        if paged {
            base = base.with_paged_kv(true);
        }
        let config = ClusterConfig::disaggregated(
            base,
            1,
            1,
            RouterPolicy::LeastOutstandingTokens,
            KvMigration::infiniband(),
        );
        let run = cluster_case(config, &specs);
        assert_eq!(run.summary.completed, specs.len(), "{name}");
        assert!(run.summary.migrated_in_requests > 0, "{name}");
        check(name, &run);
    }
}
