//! The three serving workloads: two fleets on `llm_serving::Cluster` and one
//! offline batch on a single `ServingEngine`.
//!
//! The untraced replay calls the library's own loops (`Cluster::run`,
//! `ServingEngine::run`). The traced replay drives the same engines through
//! their public stepping API (`submit`, `step`, `next_event_time`, the
//! router probes, `report`) in the order `Cluster::run` uses, with a span
//! around every call, and must reproduce the untraced reports exactly.

use crate::report::{median, percentile, ratio, Outcome};
use crate::spans::{Span, Spans};
use crate::timing::{repeat, setups, timed};
use gpu_sim::GpuConfig;
use llm_serving::{
    AdmissionPolicy, Cluster, ClusterConfig, IterationOutcome, IterationStats, ModelConfig,
    RateSchedule, RateSegment, RequestSpec, RouterPolicy, ServingConfig, ServingEngine,
    ServingReport, SharedPrefixWorkload, SloMix, TraceConfig, Workload,
};
use std::cmp::Reverse;

/// Sarathi chunk size of every serving workload.
const CHUNK: usize = 1024;

/// A serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 16 colocated replicas, short chat requests, diurnal-plus-burst open
    /// loop, least-outstanding-tokens routing.
    FleetChat,
    /// 4 paged-KV replicas with prefix caching just below the capacity knee,
    /// shared-prefix traffic, deadline shedding, prefix-affinity routing.
    FleetSaturated,
    /// One Sarathi+POD engine serving arXiv-length requests that all arrive
    /// at t = 0.
    OfflineArxiv,
}

impl Kind {
    /// Requests in one replay at full size.
    pub fn default_requests(self) -> usize {
        match self {
            Kind::FleetChat => 20_000,
            Kind::FleetSaturated => 6_000,
            Kind::OfflineArxiv => 8_192,
        }
    }
}

/// Offered load of `fleet_saturated` in queries per second.
const SATURATED_QPS: f64 = 7.0;

/// Diurnal rate curve with a flash burst at the end of every step: `steps`
/// cosine-shaped segments per `period` seconds, each ending in `burst_secs`
/// at `burst_qps` above the local rate (the `trace_replay` bench's shape).
fn diurnal_with_bursts(
    trough_qps: f64,
    peak_qps: f64,
    period: f64,
    steps: usize,
    burst_qps: f64,
    burst_secs: f64,
) -> RateSchedule {
    let step_secs = period / steps as f64;
    let mut segments = Vec::with_capacity(2 * steps);
    for i in 0..steps {
        let phase = 2.0 * std::f64::consts::PI * (i as f64 + 0.5) / steps as f64;
        let qps = trough_qps + (peak_qps - trough_qps) * 0.5 * (1.0 - phase.cos());
        segments.push(RateSegment {
            duration: step_secs - burst_secs,
            qps,
        });
        segments.push(RateSegment {
            duration: burst_secs,
            qps: qps + burst_qps,
        });
    }
    RateSchedule::new(segments)
}

/// Short chat prompts and answers: the request shape where fleet-scale
/// request counts, not request length, dominate host cost.
fn chat_workload() -> Workload {
    Workload {
        name: "chat-small".to_string(),
        mean_context: 320.0,
        context_range: (64, 2048),
        mean_decode: 8.0,
        min_decode: 2,
    }
}

/// Generate the requests of `kind`, in arrival order.
pub fn generate(kind: Kind, requests: usize, seed: u64) -> Vec<RequestSpec> {
    let mut specs = match kind {
        // 60-200 qps with 1 s bursts at +80 qps, mean ~133 qps: the
        // trace_replay shape with its cycle compressed to 150 s, so a
        // 20k-request replay spans about one whole cycle. (Segment
        // durations are exact binary fractions: generate_trace can stall
        // on a segment boundary that rounding places a hair away.)
        Kind::FleetChat => SloMix::interactive_batch().apply(
            chat_workload().generate_trace(
                requests,
                &diurnal_with_bursts(60.0, 200.0, 150.0, 12, 80.0, 1.0),
                seed,
            ),
            seed,
        ),
        Kind::FleetSaturated => SloMix::interactive_batch().apply(
            SharedPrefixWorkload::new(Workload::internal(), 4, 2043, 0.5, 0.35).generate(
                requests,
                SATURATED_QPS,
                seed,
            ),
            seed,
        ),
        Kind::OfflineArxiv => Workload::arxiv().generate_offline(requests, seed),
    };
    // The stable arrival sort `Cluster::run` applies, so the stepped replay
    // submits in the same order.
    specs.sort_by(|a, b| {
        a.arrival
            .partial_cmp(&b.arrival)
            .expect("arrival times are never NaN")
    });
    specs
}

/// Replica configuration, replica count and router of `kind` (`None`: a
/// single engine with no cluster around it).
fn deployment(kind: Kind) -> (ServingConfig, usize, Option<RouterPolicy>) {
    let base = ServingConfig::sarathi_pod(ModelConfig::llama3_8b(), GpuConfig::a100_80gb(), CHUNK);
    match kind {
        Kind::FleetChat => (
            base.with_streaming_metrics(true),
            16,
            Some(RouterPolicy::LeastOutstandingTokens),
        ),
        Kind::FleetSaturated => (
            base.with_paged_kv(true)
                .with_admission(AdmissionPolicy::DeadlineShed)
                .with_streaming_metrics(true),
            4,
            Some(RouterPolicy::PrefixAffinity),
        ),
        Kind::OfflineArxiv => (base, 1, None),
    }
}

/// Whether the serving workloads' replicas memoize batch prices (the
/// library default every workload runs with).
pub fn price_cache() -> bool {
    deployment(Kind::OfflineArxiv).0.price_cache
}

/// A generated workload plus the system that serves it.
#[derive(Debug)]
pub struct Setup {
    specs: Vec<RequestSpec>,
    /// The cluster's worker count before the benchmark pinned it to 1.
    default_workers: usize,
    config: ServingConfig,
    replicas: usize,
    router: Option<RouterPolicy>,
    runner: Runner,
}

#[derive(Debug)]
enum Runner {
    Fleet(Box<Cluster>),
    Single(Box<ServingEngine>),
}

/// Build `kind` at `requests` requests: generate the trace and construct
/// the cluster or engine. Returns the setup and the generation seconds.
fn setup(kind: Kind, requests: usize, seed: u64) -> (Setup, f64) {
    let (specs, gen_secs) = timed(|| generate(kind, requests, seed));
    let (config, replicas, router) = deployment(kind);
    let mut default_workers = 1;
    let runner = match router {
        Some(router) => {
            let mut cluster = Cluster::new(ClusterConfig::new(config.clone(), replicas, router));
            // The default advances replicas on per-barrier threads, whose
            // wall time on a small shared host swings by more than any
            // bound a regression gate could use. End-to-end runs pin one
            // worker; per-layer runs time the default beside it.
            default_workers = cluster.advance_workers();
            cluster.set_advance_workers(1);
            Runner::Fleet(Box::new(cluster))
        }
        None => Runner::Single(Box::new(ServingEngine::new(config.clone()))),
    };
    let setup = Setup {
        specs,
        default_workers,
        config,
        replicas,
        router,
        runner,
    };
    (setup, gen_secs)
}

/// The simulated outcome of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    /// Each replica's report, in replica order.
    pub per_replica: Vec<ServingReport>,
    /// Requests routed to each replica.
    pub assigned: Vec<usize>,
    /// Fleet aggregate (the engine's own report for a single engine).
    pub aggregate: ServingReport,
    /// Max over mean replica busy time (1 for a single engine).
    pub busy_imbalance: f64,
}

impl Setup {
    /// Worker threads the cluster advances replicas with in end-to-end
    /// runs, and the library default it replaced (1 and 1 without a
    /// cluster).
    pub fn advance_workers(&self) -> (usize, usize) {
        match &self.runner {
            Runner::Fleet(cluster) => (cluster.advance_workers(), self.default_workers),
            Runner::Single(_) => (1, 1),
        }
    }

    /// One untraced replay at the library's default worker count.
    fn replay_default_workers(&mut self) -> Served {
        let pinned = self.advance_workers().0;
        if let Runner::Fleet(cluster) = &mut self.runner {
            cluster.set_advance_workers(self.default_workers);
        }
        let served = self.replay();
        if let Runner::Fleet(cluster) = &mut self.runner {
            cluster.set_advance_workers(pinned);
        }
        served
    }

    /// One untraced replay through the library's own loop.
    pub fn replay(&mut self) -> Served {
        let specs = self.specs.clone();
        match &mut self.runner {
            Runner::Fleet(cluster) => {
                let report = cluster.run(specs);
                Served {
                    per_replica: report.per_replica,
                    assigned: report.assigned_per_replica,
                    aggregate: report.aggregate,
                    busy_imbalance: report.busy_imbalance,
                }
            }
            Runner::Single(engine) => {
                let report = engine.run(specs);
                Served {
                    per_replica: vec![report.clone()],
                    assigned: vec![self.specs.len()],
                    aggregate: report,
                    busy_imbalance: 1.0,
                }
            }
        }
    }

    /// One replay with the flight recorder on: the per-replica reports and
    /// `(events retained, events dropped)`.
    fn replay_recorded(&self) -> (Vec<ServingReport>, usize, u64) {
        let config = self.config.clone().with_tracing(TraceConfig::new());
        let specs = self.specs.clone();
        let (reports, recording) = match self.router {
            Some(router) => {
                let mut cluster = Cluster::new(ClusterConfig::new(config, self.replicas, router));
                cluster.set_advance_workers(self.advance_workers().0);
                let report = cluster.run(specs);
                (report.per_replica, cluster.flight_recording())
            }
            None => {
                let mut engine = ServingEngine::new(config);
                for spec in specs {
                    engine.submit(spec);
                }
                engine.run_until_drained();
                (vec![engine.report()], engine.flight_recording())
            }
        };
        let recording = recording.expect("tracing is configured");
        (reports, recording.event_count(), recording.dropped)
    }

    /// One replay driven through the engines' stepping API, with spans
    /// around every call when `spans` is enabled.
    fn drive(&self, spans: &mut Spans, probe: &mut Probe) -> Driven {
        let mut engines: Vec<ServingEngine> = (0..self.replicas)
            .map(|_| ServingEngine::new(self.config.clone()))
            .collect();
        let mut assigned = vec![0usize; self.replicas];
        probe.unstarted = vec![0; self.replicas];
        for spec in &self.specs {
            // Advance every replica with work due before this arrival, as
            // the cluster's event heap does, then route and submit.
            for (i, engine) in engines.iter_mut().enumerate() {
                let next = spans.time(Span::NextEvent, || engine.next_event_time());
                if next.is_some_and(|at| at < spec.arrival) {
                    step_until(engine, i, Some(spec.arrival), spans, probe);
                }
            }
            let target = match self.router {
                Some(router) => spans.time(Span::Route, || route(router, &engines, spec)),
                None => 0,
            };
            let spec = *spec;
            spans.time(Span::Submit, || engines[target].submit(spec));
            assigned[target] += 1;
        }
        for (i, engine) in engines.iter_mut().enumerate() {
            step_until(engine, i, None, spans, probe);
        }
        let reports = engines
            .iter()
            .map(|engine| spans.time(Span::Report, || engine.report()))
            .collect();
        Driven {
            engines,
            assigned,
            reports,
        }
    }
}

/// The replica choice of `router`, computed from the engines' public probes
/// exactly as `Cluster::route` does (first replica wins ties).
fn route(router: RouterPolicy, engines: &[ServingEngine], spec: &RequestSpec) -> usize {
    let replicas = 0..engines.len();
    let pick = match router {
        RouterPolicy::LeastOutstandingTokens => {
            replicas.min_by_key(|&i| engines[i].outstanding_tokens())
        }
        RouterPolicy::PrefixAffinity => replicas.min_by_key(|&i| {
            (
                Reverse(engines[i].cached_prefix_tokens_for(spec)),
                engines[i].outstanding_tokens(),
            )
        }),
        other => panic!("the stepped replay does not replicate router {other:?}"),
    };
    pick.expect("a fleet has at least one replica")
}

/// Step replica `replica` until it can make no progress before `until` (the
/// loop of `ServingEngine::advance_to`), or until drained when `until` is
/// `None` (the loop of `run_until_drained`).
fn step_until(
    engine: &mut ServingEngine,
    replica: usize,
    until: Option<f64>,
    spans: &mut Spans,
    probe: &mut Probe,
) {
    let mut now = engine.clock();
    while until.is_none_or(|t| now < t) {
        let outcome = spans.time_classified(
            || engine.step(now),
            |outcome| match outcome {
                IterationOutcome::Ran(s) if s.hybrid => Span::StepHybrid,
                IterationOutcome::Ran(s) if s.prefill_tokens > 0 => Span::StepPrefillOnly,
                IterationOutcome::Ran(_) => Span::StepDecodeOnly,
                _ => Span::StepIdle,
            },
        );
        match outcome {
            IterationOutcome::Ran(stats) => {
                if spans.enabled() {
                    probe.after_batch(engine, replica, &stats);
                }
                now = stats.completed_at;
            }
            IterationOutcome::IdleUntil(at) if until.is_none_or(|t| at < t) => now = at,
            IterationOutcome::IdleUntil(_) | IterationOutcome::Drained => break,
            IterationOutcome::Blocked {
                needed_tokens,
                capacity_tokens,
            } => panic!(
                "a request needs {needed_tokens} KV tokens; a replica holds {capacity_tokens}"
            ),
        }
    }
}

/// Per-iteration samples the traced stepped replay collects after each batch.
#[derive(Debug, Default)]
struct Probe {
    decodes: Vec<f64>,
    prefill_tokens: u64,
    kv_util: Vec<f64>,
    /// Seconds from arrival to the start of the batch that first computed
    /// part of the request's prompt.
    queue_waits: Vec<f64>,
    /// Per replica: index of its first request (in submission order) not
    /// yet started, shed or finished.
    unstarted: Vec<usize>,
}

impl Probe {
    /// Sample the batch replica `replica` just ran. Admission is
    /// first-come first-served, so requests start in submission order and
    /// one cursor per replica finds those this batch started.
    fn after_batch(&mut self, engine: &ServingEngine, replica: usize, stats: &IterationStats) {
        self.decodes.push(stats.decode_tokens as f64);
        self.prefill_tokens += stats.prefill_tokens as u64;
        self.kv_util.push(engine.kv_utilization());
        let requests = engine.requests();
        let cursor = &mut self.unstarted[replica];
        while let Some(r) = requests.get(*cursor) {
            if r.shed_time.is_some() {
                *cursor += 1;
            } else if r.prefilled > 0 || r.finish_time.is_some() {
                self.queue_waits.push(stats.started_at - r.spec.arrival);
                *cursor += 1;
            } else {
                break;
            }
        }
    }
}

/// The engines after a driven replay.
struct Driven {
    engines: Vec<ServingEngine>,
    assigned: Vec<usize>,
    reports: Vec<ServingReport>,
}

/// Output tokens the finished requests of `report` received.
fn output_tokens(report: &ServingReport) -> f64 {
    // One first token per finished request plus one per inter-token gap.
    (report.completed + report.tbt.count) as f64
}

/// Checks common to every replay of a serving workload.
fn check_served(out: &mut Outcome, served: &Served, submitted: usize) {
    let agg = &served.aggregate;
    out.check(agg.completed + agg.shed_requests == submitted, || {
        format!(
            "completed {} + shed {} != submitted {submitted}",
            agg.completed, agg.shed_requests
        )
    });
    out.check(served.assigned.iter().sum::<usize>() == submitted, || {
        "routed request count differs from submitted".to_string()
    });
}

/// A `--trace 0` run: end-to-end metrics.
pub fn run_end_to_end(kind: Kind, requests: usize, seed: u64, seconds: f64) -> (Outcome, Setup) {
    let mut out = Outcome::default();
    let (mut setup, setup_s, _) = setups(|| setup(kind, requests, seed));
    let submitted = setup.specs.len();
    let runs = repeat(seconds, 3, || setup.replay());
    check_served(&mut out, &runs.first, submitted);
    out.check(runs.all_equal, || {
        "simulated reports differ between replays".to_string()
    });
    eprintln!("{}", runs.summary("end-to-end"));

    let agg = &runs.first.aggregate;
    let replay_s = runs.median_scaled();
    out.attempted = submitted as u64;
    out.failed = (submitted - agg.completed) as u64;
    out.set("setup_s", setup_s * runs.scale());
    out.set("replay_s", replay_s);
    out.set("events_per_s", agg.iterations as f64 / replay_s);
    out.set("ttft_p50_s", agg.ttft.p50);
    out.set("ttft_p99_s", agg.ttft.p99);
    out.set("tbt_p50_s", agg.tbt.p50);
    out.set("tbt_p99_s", agg.tbt.p99);
    // Requests without an SLO meet it by completing; shed requests miss.
    let met = agg.slo_met + (agg.completed - agg.slo_requests);
    out.set("goodput_rpm", met as f64 / (agg.makespan / 60.0));
    out.set("throughput_tok_s", output_tokens(agg) / agg.makespan);
    (out, setup)
}

/// A `--trace 1` run: per-layer metrics, from five timed phases that split
/// `seconds` evenly — the untraced replay, the same at the library's
/// default worker count, the flight recorder on, and the stepped replay
/// with spans off and with spans on.
pub fn run_per_layer(kind: Kind, requests: usize, seed: u64, seconds: f64) -> (Outcome, Setup) {
    let mut out = Outcome::default();
    let (mut setup, _, gen_s) = setups(|| setup(kind, requests, seed));
    let submitted = setup.specs.len();
    let phase = seconds / 5.0;

    let untraced = repeat(phase, 2, || setup.replay());
    check_served(&mut out, &untraced.first, submitted);
    out.check(untraced.all_equal, || {
        "simulated reports differ between replays".to_string()
    });
    let base = &untraced.first;

    let default_workers = repeat(phase, 1, || setup.replay_default_workers());
    out.check(default_workers.first == *base, || {
        "the default worker count changed the simulated reports".to_string()
    });

    let recorded = repeat(phase, 1, || setup.replay_recorded());
    out.check(recorded.first.0 == base.per_replica, || {
        "the flight recorder changed the simulated reports".to_string()
    });

    let plain = repeat(phase, 1, || {
        setup
            .drive(&mut Spans::new(false), &mut Probe::default())
            .reports
    });
    out.check(plain.first == base.per_replica, || {
        "the stepped replay diverged from the library's run loop".to_string()
    });

    let mut spans = Spans::new(true);
    let mut probe = Probe::default();
    let mut driven = None;
    let traced = repeat(phase, 1, || {
        // Spans accumulate over every repetition; samples come from one.
        probe = Probe::default();
        let d = setup.drive(&mut spans, &mut probe);
        let reports = d.reports.clone();
        driven = Some(d);
        reports
    });
    let driven = driven.expect("at least one traced replay");
    out.check(
        traced.first == base.per_replica && driven.assigned == base.assigned,
        || "the traced replay diverged from the untraced reports".to_string(),
    );
    let reps = traced.walls.len() as f64;

    let agg = &base.aggregate;
    out.attempted = submitted as u64;
    out.failed = (submitted - agg.completed) as u64;
    out.set("workload.gen_ns_per_req", gen_s * 1e9 / submitted as f64);

    // Engine-call time per replay, less the clock reads the spans added
    // (the traced replay's extra wall time spread over its spans).
    let engine_spans = [
        Span::Submit,
        Span::StepHybrid,
        Span::StepPrefillOnly,
        Span::StepDecodeOnly,
        Span::StepIdle,
        Span::NextEvent,
    ];
    let span_cost_s = (median(&traced.walls) - median(&plain.walls)).max(0.0)
        / (spans.total_calls() as f64 / reps);
    let engine_calls_s = engine_spans
        .iter()
        .map(|&s| spans.seconds(s) / reps - spans.calls(s) as f64 / reps * span_cost_s)
        .sum::<f64>();
    if setup.router.is_some() {
        out.set("cluster.self_s", median(&untraced.walls) - engine_calls_s);
        out.set("cluster.route_ns", spans.ns_per_call(Span::Route));
        out.set(
            "cluster.route_calls",
            spans.calls(Span::Route) as f64 / reps,
        );
        out.set("cluster.busy_imbalance", base.busy_imbalance);
        out.set(
            "cluster.default_workers_ratio",
            median(&default_workers.walls) / median(&untraced.walls),
        );
    }

    let ran = [
        Span::StepHybrid,
        Span::StepPrefillOnly,
        Span::StepDecodeOnly,
    ]
    .iter()
    .map(|&s| spans.calls(s))
    .sum::<u64>() as f64;
    let steps = ran + spans.calls(Span::StepIdle) as f64;
    out.set("engine.step_ns.hybrid", spans.ns_per_call(Span::StepHybrid));
    out.set(
        "engine.step_ns.prefill_only",
        spans.ns_per_call(Span::StepPrefillOnly),
    );
    out.set(
        "engine.step_ns.decode_only",
        spans.ns_per_call(Span::StepDecodeOnly),
    );
    out.set("engine.step_ns.idle", spans.ns_per_call(Span::StepIdle));
    out.set("engine.step_calls", steps / reps);
    out.set("engine.ran_frac", ratio(ran, steps));
    out.set("engine.submit_ns", spans.ns_per_call(Span::Submit));
    out.set("engine.busy_s", agg.busy_time);
    out.set(
        "engine.hybrid_frac",
        ratio(agg.hybrid_iterations as f64, agg.iterations as f64),
    );

    out.set(
        "scheduler.decodes_per_iter_p50",
        percentile(&mut probe.decodes, 50.0),
    );
    out.set(
        "scheduler.decodes_per_iter_p99",
        percentile(&mut probe.decodes, 99.0),
    );
    out.set(
        "scheduler.prefill_tokens_per_iter",
        ratio(probe.prefill_tokens as f64, agg.iterations as f64),
    );
    out.set(
        "scheduler.queue_wait_p50_s",
        percentile(&mut probe.queue_waits, 50.0),
    );
    out.set(
        "scheduler.queue_wait_p99_s",
        percentile(&mut probe.queue_waits, 99.0),
    );
    out.set("scheduler.shed", agg.shed_requests as f64);

    out.set(
        "pricing.cache_hit_rate",
        ratio(
            agg.price_cache_hits as f64,
            (agg.price_cache_hits + agg.price_cache_misses) as f64,
        ),
    );

    out.set("kv.util_p50", percentile(&mut probe.kv_util, 50.0));
    out.set("kv.util_p99", percentile(&mut probe.kv_util, 99.0));
    let prompt_tokens: usize = setup.specs.iter().map(|s| s.prompt_tokens).sum();
    out.set(
        "kv.prefix_hit_rate",
        ratio(agg.cached_prefix_tokens as f64, prompt_tokens as f64),
    );
    out.set("kv.preemptions", agg.preemptions as f64);
    out.set("kv.blocks_evicted", agg.blocks_evicted as f64);
    out.set("kv.cow_copies", agg.cow_copies as f64);

    out.set("metrics.report_ns", spans.ns_per_call(Span::Report));
    let peak_samples: usize = driven.engines.iter().map(|e| e.peak_token_samples()).sum();
    out.set(
        "metrics.peak_sample_bytes",
        (peak_samples * std::mem::size_of::<f64>()) as f64,
    );

    let (_, retained, dropped) = recorded.first;
    out.set(
        "trace.overhead_ratio",
        median(&recorded.walls) / median(&untraced.walls),
    );
    out.set(
        "trace.retained_frac",
        ratio(retained as f64, retained as f64 + dropped as f64),
    );
    out.set(
        "spans.overhead_ratio",
        median(&traced.walls) / median(&plain.walls),
    );
    (out, setup)
}
