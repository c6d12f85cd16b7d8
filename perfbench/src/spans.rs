//! Spans around the calls the benchmark makes into the library's public
//! API. Each span kind accumulates a call count and total wall
//! nanoseconds; a disabled recorder runs the call with no clock reads, so
//! the same replay code gives both the traced and the untraced timing.

use std::time::Instant;

/// One instrumented call site (a layer boundary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `ServingEngine::submit`.
    Submit,
    /// `ServingEngine::step` that ran a batch with a prefill chunk and decodes.
    StepHybrid,
    /// `ServingEngine::step` that ran a prefill-only batch.
    StepPrefillOnly,
    /// `ServingEngine::step` that ran a decode-only batch.
    StepDecodeOnly,
    /// `ServingEngine::step` that ran nothing (idle, drained or blocked).
    StepIdle,
    /// `ServingEngine::next_event_time`.
    NextEvent,
    /// Router probes (`outstanding_tokens`, `cached_prefix_tokens_for`)
    /// across the replicas for one routing decision.
    Route,
    /// `ServingEngine::report`.
    Report,
    /// `AttentionEstimator::estimate`.
    Estimate,
    /// `PodAttention::plan`.
    PodPlan,
    /// `PodAttention::execute` plus `PodAttention::serial_baseline`: the
    /// gpu-sim runs of one batch.
    GpuSim,
}

const KINDS: usize = 11;

impl Span {
    fn index(self) -> usize {
        self as usize
    }
}

/// Accumulated `(calls, nanoseconds)` per span kind.
#[derive(Debug, Clone)]
pub struct Spans {
    enabled: bool,
    calls: [u64; KINDS],
    nanos: [u64; KINDS],
}

impl Spans {
    /// A recorder; when `enabled` is false every `time` call is a plain call.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            calls: [0; KINDS],
            nanos: [0; KINDS],
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span of kind `span`.
    pub fn time<R>(&mut self, span: Span, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(span, start);
        out
    }

    /// Run `f` and file its span under the kind `classify` picks from the
    /// result (steps are split by what the batch held).
    pub fn time_classified<R>(
        &mut self,
        f: impl FnOnce() -> R,
        classify: impl FnOnce(&R) -> Span,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(classify(&out), start);
        out
    }

    fn add(&mut self, span: Span, start: Instant) {
        let i = span.index();
        self.calls[i] += 1;
        self.nanos[i] += start.elapsed().as_nanos() as u64;
    }

    /// Calls recorded under `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span.index()]
    }

    /// Calls recorded under every span kind.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total seconds recorded under `span`.
    pub fn seconds(&self, span: Span) -> f64 {
        self.nanos[span.index()] as f64 * 1e-9
    }

    /// Mean nanoseconds per call of `span` (0 when never called).
    pub fn ns_per_call(&self, span: Span) -> f64 {
        let calls = self.calls(span);
        if calls == 0 {
            0.0
        } else {
            self.nanos[span.index()] as f64 / calls as f64
        }
    }
}
