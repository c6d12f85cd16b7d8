//! Seeded property-fuzz harness: hundreds of random
//! {workload × scheduler × KV policy × router × admission × autoscaler}
//! configurations, each asserting the engine/cluster invariants that every
//! refactor must preserve:
//!
//! * the virtual clock is monotonic, and iteration intervals are well formed;
//! * no request is lost or duplicated across preemption, shedding and
//!   autoscaler re-queueing — at drain, every request is finished, shed, or
//!   reassigned (and reassigned ones finish exactly once elsewhere); half
//!   the cases run multi-tenant traces (random tenant counts, weights and
//!   priority classes) so fair-queue deferral and priority preemption are
//!   under the same conservation checks;
//! * the block pool is leak-free after `run_until_drained` (utilization is
//!   exactly zero, whatever mix of preemptions/evictions happened);
//! * prefill and decode token conservation: every finished request computed
//!   exactly its prompt (minus prefix-cache hits, plus preemption recompute)
//!   and generated exactly its output tokens;
//! * the event-driven cluster core (with sketch-backed streaming metrics on
//!   a slice of cases) produces reports bit-identical to the lockstep
//!   oracle (`Cluster::run_lockstep`).
//!
//! Cases fan out over a worker pool sized by `POD_TEST_THREADS` (default:
//! available parallelism); every case is deterministic from its seed alone,
//! and a serial re-run of a sample is compared against the pooled results so
//! thread-count independence is enforced *inside* the test as well as by the
//! CI matrix. `POD_FUZZ_CASES` overrides the case count (default 500).
//!
//! Every case runs with the flight recorder on: when an invariant panics,
//! the recorded trace is dumped to `target/fuzz_artifacts/<seed>.trace.json`
//! (a Chrome `trace_event` document — load it in `chrome://tracing`) and
//! the dump path is appended to the panic message, so a failing seed ships
//! its own request-level timeline. A slice of cases additionally re-runs
//! untraced and asserts the bit-identical report — tracing must never
//! perturb the fingerprints these invariants pin.

use gpu_sim::GpuConfig;
use llm_serving::{
    AcceptanceModel, AdmissionPolicy, AutoscalerConfig, Cluster, ClusterConfig, DraftModelConfig,
    FairQueueConfig, FlightRecording, IterationOutcome, KvCachePolicy, KvMigration, ModelConfig,
    Phase, Priority, ReplicaRole, RequestSpec, RouterPolicy, ServingConfig, ServingEngine,
    SharedPrefixWorkload, SloMix, SplitMix64, TenantId, TraceConfig, Workload,
};

fn fuzz_cases() -> usize {
    std::env::var("POD_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500)
}

fn test_threads() -> usize {
    std::env::var("POD_TEST_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// A scaled-down trace generator so a 500-case sweep stays fast in debug
/// builds; a slice of cases still runs the paper-statistics workloads.
fn sample_workload(rng: &mut SplitMix64) -> Workload {
    match rng.next_usize(4) {
        0 => Workload::internal(),
        1 => Workload::arxiv(),
        _ => Workload {
            name: "mini".to_string(),
            mean_context: 2_500.0,
            context_range: (512, 6 * 1024),
            mean_decode: 48.0,
            min_decode: 4,
        },
    }
}

fn sample_specs(rng: &mut SplitMix64, seed: u64) -> Vec<RequestSpec> {
    let count = 4 + rng.next_usize(10);
    let qps = 0.5 + rng.next_f64() * 5.0;
    let base = sample_workload(rng);
    let specs = if rng.next_usize(4) == 0 {
        // Shared-prefix trace: exercises the radix index, CoW and multi-turn
        // follow-ups under the paged policies.
        let shared = SharedPrefixWorkload::new(base, 1 + rng.next_usize(3), 257, 0.6, 0.3);
        shared.generate(count, qps, seed)
    } else {
        base.generate(count, qps, seed)
    };
    let specs = match rng.next_usize(3) {
        0 => specs,
        1 => SloMix::interactive_batch().apply(specs, seed),
        _ => SloMix::new(vec![(
            1.0,
            Some(llm_serving::SloSpec::new("strict", 0.75, 0.1)),
        )])
        .apply(specs, seed),
    };
    stamp_tenants(rng, specs)
}

/// Half the traces run multi-tenant: random tenant counts and a sprinkle of
/// non-default priority classes, so fair-queue deferral and priority
/// preemption face the same conservation invariants as plain FCFS.
fn stamp_tenants(rng: &mut SplitMix64, specs: Vec<RequestSpec>) -> Vec<RequestSpec> {
    if rng.next_usize(2) == 0 {
        return specs;
    }
    let tenant_count = 1 + rng.next_usize(4);
    specs
        .into_iter()
        .map(|s| {
            let s = s.with_tenant(TenantId(rng.next_usize(tenant_count) as u32));
            match rng.next_usize(4) {
                0 => s.with_priority(Priority::Low),
                1 => s.with_priority(Priority::High),
                _ => s,
            }
        })
        .collect()
}

fn sample_config(rng: &mut SplitMix64) -> ServingConfig {
    let model = ModelConfig::llama3_8b();
    let gpu = GpuConfig::a100_80gb();
    let mut config = match rng.next_usize(4) {
        0 => ServingConfig::vllm(model, gpu),
        _ => {
            let chunk = [256, 512, 1024][rng.next_usize(3)];
            if rng.next_usize(2) == 0 {
                ServingConfig::sarathi(model, gpu, chunk)
            } else {
                ServingConfig::sarathi_pod(model, gpu, chunk)
            }
        }
    };
    config.kv_policy = match rng.next_usize(3) {
        0 => KvCachePolicy::Conservative,
        1 => KvCachePolicy::Paged {
            prefix_caching: false,
        },
        _ => KvCachePolicy::Paged {
            prefix_caching: true,
        },
    };
    // Decode dedup rides along on half the configs — active only when the
    // policy above landed on paged + prefix caching, so the sweep covers
    // inert-by-policy combinations too.
    if rng.next_usize(2) == 0 {
        config.decode_dedup = true;
    }
    // Small capacities force queueing (conservative) and preemption (paged);
    // 48K still fits the largest generatable request, so no config is a
    // guaranteed deadlock.
    config.kv_capacity_tokens = match rng.next_usize(3) {
        0 => Some(48_000),
        1 => Some(96_000),
        _ => None,
    };
    if rng.next_usize(3) == 0 {
        config.admission = AdmissionPolicy::DeadlineShed;
    }
    // Fair queueing rides along on half the configs, with random per-tenant
    // weights and sometimes priority preemption: the conservation and
    // leak-freedom invariants below must hold however the queue is reordered
    // or resident decodes are evicted.
    if rng.next_usize(2) == 0 {
        let mut fair = FairQueueConfig::new();
        for t in 0..4u32 {
            if rng.next_usize(2) == 0 {
                fair = fair.with_weight(TenantId(t), 0.25 + rng.next_f64() * 4.0);
            }
        }
        if rng.next_usize(2) == 0 {
            fair = fair.with_priority_preemption(true);
        }
        config = config.with_fair_queue(fair);
    }
    // Speculative decode rides along on a third of the configs: random draft
    // depth (k ∈ 1..=8), random acceptance rate (endpoints included) and a
    // random draft-model scale (sometimes free), so rollback, verify pricing
    // and the draft cost path face every invariant below across the full
    // scheduler × KV-policy × tenancy sweep.
    if rng.next_usize(3) == 0 {
        let k = 1 + rng.next_usize(8);
        let rate = match rng.next_usize(5) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.next_f64(),
        };
        let draft = if rng.next_usize(3) == 0 {
            DraftModelConfig::free()
        } else {
            DraftModelConfig::scaled(0.05 + rng.next_f64() * 0.45)
        };
        config = config.with_speculative(k, draft, AcceptanceModel::new(rate, rng.next_u64()));
    }
    config
}

/// Where a failing case's flight recording lands.
fn fuzz_artifact_path(seed: u64) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/fuzz_artifacts")
        .join(format!("{seed}.trace.json"))
}

/// An invariant fired: write the case's flight recording as a Chrome trace
/// and re-raise the panic with the dump path in the message, so the failure
/// report carries its own timeline.
fn dump_and_repanic(
    seed: u64,
    recording: Option<FlightRecording>,
    payload: Box<dyn std::any::Any + Send>,
) -> ! {
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    let note = match recording {
        Some(rec) => {
            let path = fuzz_artifact_path(seed);
            std::fs::create_dir_all(path.parent().expect("artifact dir"))
                .and_then(|()| std::fs::write(&path, rec.to_chrome_json().to_string_compact()))
                .map(|()| format!("flight recording dumped to {}", path.display()))
                .unwrap_or_else(|e| format!("flight recording dump FAILED: {e}"))
        }
        None => "no flight recording (tracing disabled)".to_string(),
    };
    panic!("{msg}\n{note}");
}

/// Step one engine to drain by hand, checking clock/interval invariants on
/// the way, then check conservation and leak-freedom. Returns the report
/// JSON as the case's fingerprint. Runs traced; on an invariant failure the
/// flight recording is dumped via [`dump_and_repanic`].
fn run_engine_case(seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let specs = sample_specs(&mut rng, seed);
    let config = sample_config(&mut rng);
    let tag = format!("engine case seed={seed} ({})", config.system_label());

    let mut engine = ServingEngine::new(config.clone().with_tracing(TraceConfig::new()));
    for spec in &specs {
        engine.submit(*spec);
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine_case_body(&tag, &mut engine, &specs)
    }));
    let fingerprint = match outcome {
        Ok(fp) => fp,
        Err(payload) => dump_and_repanic(seed, engine.flight_recording(), payload),
    };
    // Inertness ride-along on a slice of cases: the untraced config must
    // fingerprint bit-identically — tracing observes, never perturbs.
    if seed % 8 == 0 {
        let untraced = ServingEngine::new(config)
            .run(specs)
            .to_json()
            .to_string_pretty();
        assert_eq!(
            untraced, fingerprint,
            "{tag}: tracing changed the report fingerprint"
        );
    }
    fingerprint
}

fn engine_case_body(tag: &str, engine: &mut ServingEngine, specs: &[RequestSpec]) -> String {
    let mut now = 0.0_f64;
    let mut last_clock = 0.0_f64;
    let mut decode_tokens = 0usize;
    let mut prefill_tokens = 0usize;
    let mut finished_seen = 0usize;
    loop {
        let clock_before = engine.clock();
        assert!(
            clock_before >= last_clock,
            "{tag}: clock went backwards ({clock_before} < {last_clock})"
        );
        last_clock = clock_before;
        match engine.step(now) {
            IterationOutcome::Ran(stats) => {
                assert!(
                    stats.duration > 0.0 && stats.duration.is_finite(),
                    "{tag}: bad iteration duration {}",
                    stats.duration
                );
                assert!(
                    stats.started_at >= clock_before.min(now)
                        && stats.completed_at > stats.started_at,
                    "{tag}: malformed interval [{}, {}]",
                    stats.started_at,
                    stats.completed_at
                );
                assert_eq!(
                    engine.clock(),
                    stats.completed_at,
                    "{tag}: clock must equal the last completion"
                );
                assert!(
                    stats.prefill_tokens + stats.decode_tokens > 0,
                    "{tag}: an executed iteration processed no tokens"
                );
                decode_tokens += stats.decode_tokens;
                prefill_tokens += stats.prefill_tokens;
                finished_seen += stats.newly_finished;
                now = stats.completed_at;
            }
            IterationOutcome::IdleUntil(t) => {
                assert!(
                    t > now,
                    "{tag}: IdleUntil({t}) must point past the caller clock {now}"
                );
                now = t;
            }
            IterationOutcome::Drained => break,
            IterationOutcome::Blocked {
                needed_tokens,
                capacity_tokens,
            } => panic!("{tag}: blocked ({needed_tokens} vs {capacity_tokens})"),
        }
    }
    assert!(engine.is_drained(), "{tag}: drained engine must report so");

    // No request lost or duplicated; per-request token conservation.
    let mut finished = 0usize;
    let mut shed = 0usize;
    let mut expected_decodes = 0usize;
    for req in engine.requests() {
        match (req.finish_time.is_some(), req.shed_time.is_some()) {
            (true, false) => {
                finished += 1;
                assert_eq!(
                    req.generated, req.spec.output_tokens,
                    "{tag}: request {} generated the wrong token count",
                    req.id
                );
                assert_eq!(
                    req.prefilled,
                    req.target_prefill(),
                    "{tag}: request {} prefill incomplete",
                    req.id
                );
                assert_eq!(
                    req.token_times.len(),
                    req.spec.output_tokens,
                    "{tag}: request {} token-time count",
                    req.id
                );
                // Decode tokens actually scheduled for this request: all but
                // the first (produced at prefill completion), regardless of
                // how many times it was preempted and restored.
                expected_decodes += req.spec.output_tokens - 1;
            }
            (false, true) => {
                shed += 1;
                assert_eq!(
                    req.prefilled, 0,
                    "{tag}: shed request {} had computed tokens",
                    req.id
                );
                assert_eq!(req.phase(), Phase::Queued, "{tag}: shed request phase");
            }
            (false, false) => panic!("{tag}: request {} lost (neither finished nor shed)", req.id),
            (true, true) => panic!("{tag}: request {} both finished and shed", req.id),
        }
    }
    assert_eq!(finished + shed, specs.len(), "{tag}: request conservation");
    assert_eq!(
        finished, finished_seen,
        "{tag}: newly_finished conservation"
    );
    assert_eq!(
        decode_tokens, expected_decodes,
        "{tag}: decode conservation"
    );

    let report = engine.report();
    // Speculative conservation: per-request draft tallies sum to the
    // report's counters; every round nets at least its one mandatory token
    // (so net decode tokens bound the round count); and net progress beyond
    // one token per round is exactly paid for by accepted drafts — rejected
    // drafts were rolled back without trace in the token accounting.
    let spec_rounds: usize = engine.requests().iter().map(|r| r.spec_rounds).sum();
    let accepted: usize = engine.requests().iter().map(|r| r.draft_accepted).sum();
    let rejected: usize = engine.requests().iter().map(|r| r.draft_rejected).sum();
    assert_eq!(report.spec_rounds, spec_rounds, "{tag}: spec round totals");
    assert_eq!(
        report.draft_tokens_accepted, accepted,
        "{tag}: accepted-draft totals"
    );
    assert_eq!(
        report.draft_tokens_rejected, rejected,
        "{tag}: rejected-draft totals"
    );
    if engine.config().decode_mode.is_speculative() {
        assert!(
            finished == 0 || spec_rounds > 0,
            "{tag}: a speculative config that finished work must run rounds"
        );
        assert!(
            decode_tokens >= spec_rounds,
            "{tag}: every round nets at least one token \
             ({decode_tokens} net vs {spec_rounds} rounds)"
        );
        assert!(
            accepted + spec_rounds >= decode_tokens,
            "{tag}: net progress beyond one token per round must come from \
             accepted drafts ({decode_tokens} net vs {spec_rounds} rounds + \
             {accepted} accepted)"
        );
    } else {
        assert_eq!(
            spec_rounds + accepted + rejected,
            0,
            "{tag}: autoregressive mode must keep every speculative counter zero"
        );
    }
    assert_eq!(report.completed, finished, "{tag}");
    assert_eq!(report.shed_requests, shed, "{tag}");
    assert_eq!(
        report.prefill_tokens_scheduled, prefill_tokens,
        "{tag}: prefill accounting"
    );
    // Prefill conservation: scheduled prefill plus cache hits covers every
    // finished request's prompt plus all preemption recompute.
    let prompt_and_recompute: usize = engine
        .requests()
        .iter()
        .filter(|r| r.finish_time.is_some())
        .map(|r| r.spec.prompt_tokens + r.recompute_tokens)
        .sum();
    let cached: usize = engine
        .requests()
        .iter()
        .map(|r| r.cached_prompt_tokens)
        .sum();
    assert!(
        prefill_tokens + cached >= prompt_and_recompute,
        "{tag}: prefill undercount ({prefill_tokens} + {cached} < {prompt_and_recompute})"
    );
    assert_eq!(
        report.cached_prefix_tokens, cached,
        "{tag}: cache accounting"
    );

    // Leak-freedom: after drain the KV pool holds no referenced blocks,
    // whatever mix of preemptions, CoW and evictions happened.
    assert_eq!(
        engine.kv_utilization(),
        0.0,
        "{tag}: block pool leaked ({} preemptions, {} evictions)",
        report.preemptions,
        report.blocks_evicted
    );
    report.to_json().to_string_pretty()
}

/// One random cluster configuration run to completion, checking fleet-level
/// request conservation (including autoscaler re-routing). Returns the
/// cluster report JSON as the case's fingerprint.
fn run_cluster_case(seed: u64) -> String {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xC1_05_7E_12);
    let specs = sample_specs(&mut rng, seed);
    let config = sample_config(&mut rng);
    let router = match rng.next_usize(4) {
        0 => RouterPolicy::RoundRobin,
        1 => RouterPolicy::LeastOutstandingTokens,
        2 => RouterPolicy::decode_aware(),
        _ => RouterPolicy::PrefixAffinity,
    };
    let replicas = 1 + rng.next_usize(3);
    let mut cluster_config = ClusterConfig::new(config, replicas, router);
    // Three fleet shapes: autoscaled colocated, disaggregated (with a random
    // migration link), or a plain fixed fleet.
    match rng.next_usize(3) {
        0 => {
            cluster_config = cluster_config.with_autoscaler(AutoscalerConfig {
                min_replicas: 1,
                max_replicas: replicas + rng.next_usize(3),
                interval: 2.0 + rng.next_f64() * 6.0,
                scale_out_backlog: 20_000 + rng.next_usize(80_000),
                scale_in_backlog: 5_000 + rng.next_usize(15_000),
                sustain: 1 + rng.next_usize(2),
            });
        }
        1 => {
            let prefill = 1 + rng.next_usize(2);
            let decode = 1 + rng.next_usize(2);
            let mut roles = vec![ReplicaRole::PrefillOnly; prefill];
            roles.extend(vec![ReplicaRole::DecodeOnly; decode]);
            // A colocated replica sometimes rides along in the mixed fleet.
            if rng.next_usize(2) == 0 {
                roles.push(ReplicaRole::Colocated);
            }
            let migration = match rng.next_usize(4) {
                0 => KvMigration::free(),
                1 => KvMigration::infiniband(),
                2 => KvMigration::commodity(),
                _ => KvMigration::commodity().with_overlap(),
            };
            cluster_config.replicas = roles.len();
            cluster_config = cluster_config.with_roles(roles, migration);
        }
        _ => {}
    }
    // Streaming (sketch-backed) reporting rides along on a third of the
    // cluster cases: it must preserve every exact counter the invariants
    // below check, and stay deterministic like the sample-buffer path.
    if rng.next_usize(3) == 0 {
        cluster_config.base = cluster_config.base.clone().with_streaming_metrics(true);
    }
    let replicas = cluster_config.replicas;
    let tag = format!(
        "cluster case seed={seed} ({} replicas, {})",
        replicas,
        router.label()
    );

    let untraced_config = cluster_config.clone();
    cluster_config.base = cluster_config.base.with_tracing(TraceConfig::new());
    let mut cluster = Cluster::new(cluster_config);
    // The differential oracle for the event-driven core: the event-queue
    // run must reproduce the lockstep sweep bit for bit.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cluster_case_body(&tag, &mut cluster, &specs)
    }));
    let fingerprint = match outcome {
        Ok(fp) => fp,
        Err(payload) => dump_and_repanic(seed, cluster.flight_recording(), payload),
    };
    // Inertness ride-along on a slice of cluster cases: the untraced fleet
    // must fingerprint bit-identically.
    if seed % 16 == 3 {
        let mut untraced = Cluster::new(untraced_config);
        let fp = untraced.run(specs).to_json().to_string_pretty();
        assert_eq!(
            fp, fingerprint,
            "{tag}: tracing changed the cluster report fingerprint"
        );
    }
    fingerprint
}

fn cluster_case_body(tag: &str, cluster: &mut Cluster, specs: &[RequestSpec]) -> String {
    let report = cluster.run(specs.to_vec());
    let lockstep = cluster.run_lockstep(specs.to_vec());
    assert_eq!(
        report, lockstep,
        "{tag}: event-driven run diverged from the lockstep oracle"
    );
    assert_eq!(
        report.to_json().to_string_pretty(),
        lockstep.to_json().to_string_pretty(),
        "{tag}: event-driven vs lockstep JSON fingerprints diverged"
    );

    // Fleet-level conservation: every submitted request finished or was shed
    // exactly once, across all replicas, despite drain re-routing.
    assert_eq!(
        report.aggregate.completed + report.aggregate.shed_requests,
        specs.len(),
        "{tag}: fleet request conservation"
    );
    let mut finished_ids = 0usize;
    let mut migrated_out_ids = 0usize;
    let mut migrated_in_ids = 0usize;
    for replica in cluster.replicas() {
        assert!(replica.is_drained(), "{tag}: replica not drained");
        assert_eq!(replica.kv_utilization(), 0.0, "{tag}: replica leaked");
        for req in replica.requests() {
            if req.reassigned {
                assert!(
                    req.finish_time.is_none() && req.shed_time.is_none(),
                    "{tag}: reassigned request served on its old replica"
                );
            } else if req.migrated_out {
                // The handoff source record: prefill complete (first token
                // minted here), never finished or shed here — the decode
                // replica's copy carries the completion.
                assert!(
                    req.finish_time.is_none() && req.shed_time.is_none(),
                    "{tag}: migrated-out request also served on its source replica"
                );
                assert!(
                    req.first_token_time.is_some(),
                    "{tag}: migrated-out request never completed its prefill"
                );
                migrated_out_ids += 1;
            } else {
                assert!(
                    req.finish_time.is_some() || req.shed_time.is_some(),
                    "{tag}: request lost on a replica"
                );
                finished_ids += usize::from(req.finish_time.is_some());
                if req.migrated_in {
                    assert!(
                        req.finish_time.is_some(),
                        "{tag}: migrated-in request neither finished nor re-migrated"
                    );
                    assert!(
                        req.migration_stall >= 0.0 && req.migration_stall.is_finite(),
                        "{tag}: bad migration stall {}",
                        req.migration_stall
                    );
                    migrated_in_ids += 1;
                }
            }
        }
    }
    assert_eq!(finished_ids, report.aggregate.completed, "{tag}");
    // Handoff conservation: every exported request was imported (and then
    // finished) exactly once, fleet-wide.
    assert_eq!(
        migrated_out_ids, migrated_in_ids,
        "{tag}: handoffs lost or duplicated in flight"
    );
    assert_eq!(
        report.aggregate.migrated_out_requests, migrated_out_ids,
        "{tag}: migration accounting"
    );
    assert_eq!(
        report.aggregate.migrated_in_requests, migrated_in_ids,
        "{tag}: migration accounting (in)"
    );
    assert_eq!(
        report.aggregate.iterations,
        report
            .per_replica
            .iter()
            .map(|r| r.iterations)
            .sum::<usize>(),
        "{tag}: iteration totals"
    );
    // Fleet-wide speculative conservation: replica tallies sum to the
    // aggregate, however the router spread the work.
    assert_eq!(
        report.aggregate.spec_rounds,
        report
            .per_replica
            .iter()
            .map(|r| r.spec_rounds)
            .sum::<usize>(),
        "{tag}: speculative round totals"
    );
    assert_eq!(
        report.aggregate.draft_tokens_accepted + report.aggregate.draft_tokens_rejected,
        report
            .per_replica
            .iter()
            .map(|r| r.draft_tokens_accepted + r.draft_tokens_rejected)
            .sum::<usize>(),
        "{tag}: fleet draft-token totals"
    );
    assert!(report.busy_imbalance >= 1.0, "{tag}");
    assert!(
        report.replica_seconds >= 0.0 && report.replica_seconds.is_finite(),
        "{tag}: replica seconds"
    );
    report.to_json().to_string_pretty()
}

fn run_case(seed: u64) -> String {
    // Mostly engine cases (cheap, stepping-level invariants); every fourth
    // case exercises the cluster/autoscaler layer.
    if seed % 4 == 3 {
        run_cluster_case(seed)
    } else {
        run_engine_case(seed)
    }
}

/// Fan `cases` over the worker pool, preserving order.
fn run_pooled(cases: &[u64]) -> Vec<String> {
    let workers = test_threads().min(cases.len()).max(1);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<String>>> =
        cases.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= cases.len() {
                    break;
                }
                let out = run_case(cases[i]);
                *results[i].lock().expect("result slot") = Some(out);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().expect("slot").expect("every case ran"))
        .collect()
}

/// Differential oracle for the fair-queue inertness contract: with a single
/// tenant and a single priority class, weighted fair queueing must reproduce
/// FCFS **bit for bit** on every random workload × scheduler × KV policy
/// combination — only the `+fair` system label may differ. This is the
/// property every pre-tenancy golden in the repo implicitly relies on.
#[test]
fn single_tenant_fair_queueing_matches_fcfs_on_random_configs() {
    for seed in 0..48u64 {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x00FA_1256);
        let specs: Vec<RequestSpec> = sample_specs(&mut rng, seed)
            .into_iter()
            .map(|s| {
                s.with_tenant(TenantId::DEFAULT)
                    .with_priority(Priority::Normal)
            })
            .collect();
        let mut config = sample_config(&mut rng);
        config.fair_queue = None;
        // Weight overrides for tenants that never appear must be inert too.
        let fair_config = config.clone().with_fair_queue(
            FairQueueConfig::new()
                .with_weight(TenantId(3), 0.5 + rng.next_f64() * 3.0)
                .with_priority_preemption(rng.next_usize(2) == 0),
        );
        let fcfs = ServingEngine::new(config).run(specs.clone());
        let mut fair = ServingEngine::new(fair_config).run(specs);
        assert!(
            fair.system.contains("+fair"),
            "seed {seed}: fair-queue system label missing (got {})",
            fair.system
        );
        fair.system = fcfs.system.clone();
        assert_eq!(
            fair.to_json().to_string_pretty(),
            fcfs.to_json().to_string_pretty(),
            "seed {seed}: single-tenant fair queueing diverged from FCFS"
        );
    }
}

#[test]
fn random_configs_preserve_engine_and_cluster_invariants() {
    let cases: Vec<u64> = (0..fuzz_cases() as u64).collect();
    let pooled = run_pooled(&cases);

    // Thread-count independence, enforced in-process: a serial re-run of a
    // deterministic sample must fingerprint identically to the pooled run
    // (CI additionally repeats the whole test under two POD_TEST_THREADS
    // values).
    let stride = (cases.len() / 16).max(1);
    for i in (0..cases.len()).step_by(stride) {
        let serial = run_case(cases[i]);
        assert_eq!(
            serial, pooled[i],
            "case {} diverged between pooled and serial execution",
            cases[i]
        );
    }
}
