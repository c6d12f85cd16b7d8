//! Determinism and inertness guarantees for the tracing subsystem.
//!
//! The flight recorder's contract is twofold: **off**, it must be
//! bit-for-bit absent — a traced config and an untraced config produce
//! identical reports — and **on**, the exported bytes must be a pure
//! function of (seed, config): the same run exports the same JSONL and
//! Chrome trace under the event-driven core and the lockstep oracle alike.
//! These tests pin both halves, plus the span-fidelity property the
//! exporters are trusted for: terminal events in a large-enough ring
//! reconstruct the report's outcome counts exactly.

use gpu_sim::GpuConfig;
use llm_serving::{
    AdmissionPolicy, AutoscalerConfig, Cluster, ClusterConfig, KvMigration, ModelConfig,
    RouterPolicy, ServingConfig, ServingEngine, SloMix, TraceConfig, TraceEventKind, Workload,
};

fn base() -> ServingConfig {
    ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), 1024)
        .with_paged_kv(true)
}

fn traced(capacity: usize) -> ServingConfig {
    base().with_tracing(TraceConfig::new().with_capacity(capacity))
}

/// Same seed, same config ⇒ byte-identical exports under the event-driven
/// core and the lockstep oracle. The recorder rides the virtual clock, so
/// which replicas the host happens to step must never leak into the trace.
#[test]
fn trace_export_is_byte_identical_under_the_lockstep_oracle() {
    let specs = Workload::internal().generate(300, 6.0, 17);
    let export = |cluster: &Cluster| {
        let rec = cluster.flight_recording().expect("traced cluster");
        (rec.to_jsonl(), rec.to_chrome_json().to_string_pretty())
    };

    let mut cluster = Cluster::new(ClusterConfig::new(
        traced(1 << 20),
        3,
        RouterPolicy::LeastOutstandingTokens,
    ));
    let baseline_report = cluster.run(specs.clone());
    let (baseline_jsonl, baseline_chrome) = export(&cluster);
    assert!(!baseline_jsonl.is_empty());

    let lockstep_report = cluster.run_lockstep(specs);
    assert_eq!(lockstep_report, baseline_report, "lockstep: report drifted");
    let (jsonl, chrome) = export(&cluster);
    assert_eq!(jsonl, baseline_jsonl, "lockstep: JSONL drifted");
    assert_eq!(chrome, baseline_chrome, "lockstep: Chrome drifted");
}

/// Tracing off is provably inert: a config whose only difference is
/// `with_tracing` produces the bit-identical report, at the engine and the
/// cluster level. (The reverse — that *enabling* tracing also changes
/// nothing — is asserted here too; emission only observes.)
#[test]
fn tracing_is_inert_on_simulation_outcomes() {
    let specs = SloMix::interactive_batch()
        .apply(Workload::internal().generate(120, 8.0, 23), 23)
        .into_iter()
        .collect::<Vec<_>>();

    let engine_config = base().with_admission(AdmissionPolicy::DeadlineShed);
    let plain = ServingEngine::new(engine_config.clone()).run(specs.clone());
    let traced_cfg = engine_config.with_tracing(TraceConfig::new());
    let traced_run = ServingEngine::new(traced_cfg).run(specs.clone());
    assert_eq!(
        plain.to_json().to_string_pretty(),
        traced_run.to_json().to_string_pretty(),
        "engine: tracing changed the report"
    );

    let cluster_plain =
        Cluster::new(ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin)).run(specs.clone());
    let cluster_traced = Cluster::new(ClusterConfig::new(
        traced(4096),
        2,
        RouterPolicy::RoundRobin,
    ))
    .run(specs);
    assert_eq!(
        cluster_plain.to_json().to_string_pretty(),
        cluster_traced.to_json().to_string_pretty(),
        "cluster: tracing changed the report"
    );
}

/// An untraced run yields no recording; a traced run yields one whose
/// terminal events reconstruct the report's outcome counts exactly —
/// including migrations on a disaggregated fleet, where every request
/// finishes on a different replica than it prefilled on.
#[test]
fn span_outcomes_reconstruct_cluster_report() {
    let untraced = Cluster::new(ClusterConfig::new(base(), 2, RouterPolicy::RoundRobin));
    assert!(untraced.flight_recording().is_none());

    let specs = SloMix::interactive_batch().apply(Workload::internal().generate(200, 10.0, 31), 31);
    let mut cluster = Cluster::new(ClusterConfig::disaggregated(
        traced(1 << 20).with_admission(AdmissionPolicy::DeadlineShed),
        1,
        1,
        RouterPolicy::RoundRobin,
        KvMigration::infiniband(),
    ));
    let report = cluster.run(specs);
    let recording = cluster.flight_recording().expect("traced cluster");
    assert_eq!(recording.dropped, 0, "ring too small for the span check");

    let outcomes = recording.span_outcomes();
    assert_eq!(outcomes.finished, report.aggregate.completed);
    assert_eq!(outcomes.shed, report.aggregate.shed_requests);
    assert_eq!(
        outcomes.migrated_out,
        report.aggregate.migrated_out_requests
    );
    assert_eq!(outcomes.migrated_in, report.aggregate.migrated_in_requests);
    assert!(
        outcomes.migrated_out > 0,
        "disaggregated fleet produced no migrations — the check is vacuous"
    );
}

/// Autoscaler actions are cluster-level events: the recording's cluster log
/// carries exactly the scale-out/in actions the report counts.
#[test]
fn autoscaler_events_land_in_the_cluster_log() {
    let specs = Workload::internal().generate(400, 25.0, 41);
    let mut cluster = Cluster::new(
        ClusterConfig::new(traced(1 << 20), 1, RouterPolicy::LeastOutstandingTokens)
            .with_autoscaler(AutoscalerConfig::new(1, 4)),
    );
    let report = cluster.run(specs);
    let recording = cluster.flight_recording().expect("traced cluster");

    let scale_outs = recording
        .cluster
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::ScaleOut { .. }))
        .count();
    let scale_ins = recording
        .cluster
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::ScaleIn { .. }))
        .count();
    assert_eq!(scale_outs, report.scale_out_events);
    assert_eq!(scale_ins, report.scale_in_events);
    assert!(
        scale_outs > 0,
        "the burst never tripped the autoscaler — the check is vacuous"
    );
}
