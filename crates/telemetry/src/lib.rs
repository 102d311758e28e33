//! Observability substrate for the DataLab pipeline: span-tree tracing,
//! a metrics registry, and per-stage/per-agent token accounting.
//!
//! The one type most callers touch is [`Telemetry`], a cheaply-cloneable
//! handle bundling three concerns:
//!
//! 1. **Spans** — [`Telemetry::span`] / [`Telemetry::stage`] /
//!    [`Telemetry::agent_scope`] return RAII guards that record
//!    wall-clock intervals into one tree per traced query.
//! 2. **Metrics** — [`Telemetry::metrics`] exposes named counters and
//!    fixed-bucket histograms (`llm.calls`, `sandbox.retries`, …).
//! 3. **Token attribution** — [`Telemetry::record_llm_call`] charges a
//!    model call to the innermost open stage/agent scope, so a query's
//!    spend can be broken down by pipeline stage and agent role.
//! 4. **Events** — [`Telemetry::record_event`] appends a typed,
//!    monotonically-sequenced event to a bounded ring buffer (the
//!    *flight recorder*); the tail of the ring reconstructs the moments
//!    leading up to a failure.
//!
//! The crate is std only by design (its one dependency, `datalab-json`,
//! is a std-only leaf): observability must never be the reason the rest
//! of the workspace fails to build.

#![warn(missing_docs)]

mod context;
mod events;
mod export;
mod metrics;
mod profile;
mod slo;
mod span;
mod summary;
mod tracestore;

pub use context::{RequestContext, TraceId, MAX_TRACE_ID_LEN};
pub use events::{
    is_error_kind, render_flight_record, Event, EventKind, EventLog, DEFAULT_EVENT_CAPACITY,
    MAX_EVENT_DETAIL_BYTES,
};
pub use export::{chrome_trace, metrics_prometheus, metrics_text};
pub use metrics::{
    Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, DEFAULT_BUCKETS,
};
pub use profile::{
    allocator_installed, folded_stacks, folded_total, global_alloc_stats, publish_alloc_metrics,
    resource_stamp, thread_alloc_stats, thread_cpu_time_us, AllocStats, CountingAlloc,
    ProfileWeight, ResourceStamp, ALLOC_BYTES_BUCKETS, ALLOC_COUNT_BUCKETS,
};
pub use slo::{burn_rate, SloTargets, SloTracker, SloWindows, TenantSlo, WindowSli};
pub use span::{SpanGuard, SpanNode, Tracer};
pub use summary::{AttributedUsage, QuerySummary, TokenUsage};
pub use tracestore::{
    RetainReason, StoredTrace, TraceRecord, TraceStore, TraceStorePolicy, TraceSummary,
};

use datalab_json::{ToJson, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Stage,
    Agent,
}

#[derive(Debug, Default)]
struct AttribState {
    /// Open attribution scopes, outermost first.
    scopes: Vec<(u64, ScopeKind, String)>,
    /// (stage, agent) → usage, over the whole lifetime of the handle.
    attribution: BTreeMap<(String, String), TokenUsage>,
    next_scope_id: u64,
}

impl AttribState {
    fn current_key(&self) -> (String, String) {
        let mut stage = None;
        let mut agent = None;
        for (_, kind, name) in self.scopes.iter().rev() {
            match kind {
                ScopeKind::Stage if stage.is_none() => stage = Some(name.clone()),
                ScopeKind::Agent if agent.is_none() => agent = Some(name.clone()),
                _ => {}
            }
        }
        (
            stage.unwrap_or_else(|| "unattributed".to_string()),
            agent.unwrap_or_else(|| "-".to_string()),
        )
    }
}

/// A handle to one telemetry pipeline: tracer + metrics + attribution.
///
/// Clones share state, so the platform can hand the same handle to the
/// LLM, the agents, and the knowledge layer, then collect one coherent
/// picture per query.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    events: Arc<EventLog>,
    state: Arc<Mutex<AttribState>>,
    /// The request trace currently being served, shared by all clones.
    /// While set, every recorded event and every stage/agent scope span
    /// is tagged with the trace ID.
    trace: Arc<Mutex<Option<TraceId>>>,
}

impl Telemetry {
    /// A fresh, empty telemetry pipeline.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// The underlying tracer (for direct span control or draining).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The metrics registry shared by all clones of this handle.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The event log (flight recorder) shared by all clones of this
    /// handle: a bounded ring of typed, monotonically-sequenced events.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Records one typed event into the flight recorder, tagged with the
    /// active request trace when one is set.
    pub fn record_event(&self, kind: EventKind, detail: impl Into<String>) {
        self.events
            .record_traced(kind, detail, self.current_trace_string());
    }

    /// Sets (or clears, with `None`) the request trace this handle — and
    /// every clone of it — is currently serving. The platform sets it at
    /// query start and clears it at query end; sessions serve one query
    /// at a time, so the slot never sees concurrent traces.
    pub fn set_trace(&self, trace: Option<TraceId>) {
        *self.trace.lock().expect("telemetry trace lock") = trace;
    }

    /// The request trace currently being served, if any.
    pub fn current_trace(&self) -> Option<TraceId> {
        self.trace.lock().expect("telemetry trace lock").clone()
    }

    fn current_trace_string(&self) -> Option<String> {
        self.trace
            .lock()
            .expect("telemetry trace lock")
            .as_ref()
            .map(|t| t.as_str().to_string())
    }

    /// The last `n` events, oldest first — the forensic tail attached to
    /// failed queries.
    pub fn flight_record(&self, n: usize) -> Vec<Event> {
        self.events.tail(n)
    }

    /// Opens a plain span with no attribution side effects. When a
    /// request trace is active (see [`Telemetry::set_trace`]) the span
    /// is tagged with a `trace_id` attribute.
    pub fn span(&self, name: &str) -> SpanGuard {
        let span = self.tracer.span(name);
        if let Some(trace) = self.current_trace() {
            span.attr("trace_id", trace.as_str());
        }
        span
    }

    /// Opens a pipeline-stage scope: a span named `name` plus a stage
    /// attribution scope. Model calls made while the guard lives are
    /// charged to this stage.
    pub fn stage(&self, name: &str) -> ScopeGuard {
        self.scoped(name, name, ScopeKind::Stage)
    }

    /// Opens an agent scope: a span named `agent:{role}` plus an agent
    /// attribution scope. Model calls made while the guard lives are
    /// charged to this agent (and the enclosing stage, if any).
    pub fn agent_scope(&self, role: &str) -> ScopeGuard {
        self.scoped(&format!("agent:{role}"), role, ScopeKind::Agent)
    }

    fn scoped(&self, span_name: &str, scope_name: &str, kind: ScopeKind) -> ScopeGuard {
        let span = self.span(span_name);
        let start_res = resource_stamp();
        let mut state = self.state.lock().expect("telemetry lock");
        let id = state.next_scope_id;
        state.next_scope_id += 1;
        state.scopes.push((id, kind, scope_name.to_string()));
        drop(state);
        ScopeGuard {
            telemetry: self.clone(),
            span,
            scope_id: id,
            scope_name: scope_name.to_string(),
            kind,
            start_res,
        }
    }

    fn close_scope(&self, id: u64) {
        let mut state = self.state.lock().expect("telemetry lock");
        state.scopes.retain(|(sid, _, _)| *sid != id);
    }

    /// Charges one model call to the innermost open stage/agent scopes
    /// and folds the counts into the metrics registry (`llm.calls`,
    /// `llm.prompt_tokens`, `llm.completion_tokens`, `llm.call_tokens`).
    pub fn record_llm_call(&self, prompt_tokens: u64, completion_tokens: u64) {
        self.events.record_traced(
            EventKind::LlmCall,
            format!("prompt={prompt_tokens} completion={completion_tokens}"),
            self.current_trace_string(),
        );
        self.metrics.incr("llm.calls", 1);
        self.metrics.incr("llm.prompt_tokens", prompt_tokens);
        self.metrics
            .incr("llm.completion_tokens", completion_tokens);
        self.metrics
            .observe("llm.call_tokens", prompt_tokens + completion_tokens);
        let mut state = self.state.lock().expect("telemetry lock");
        let key = state.current_key();
        let entry = state.attribution.entry(key).or_default();
        entry.prompt_tokens += prompt_tokens;
        entry.completion_tokens += completion_tokens;
        entry.calls += 1;
    }

    /// All usage attributed since this handle was created, key-sorted.
    pub fn attribution(&self) -> Vec<AttributedUsage> {
        let state = self.state.lock().expect("telemetry lock");
        state
            .attribution
            .iter()
            .map(|((stage, agent), usage)| AttributedUsage {
                stage: stage.clone(),
                agent: agent.clone(),
                usage: *usage,
            })
            .collect()
    }

    /// Sum of all attributed usage since this handle was created.
    pub fn token_totals(&self) -> TokenUsage {
        let state = self.state.lock().expect("telemetry lock");
        state
            .attribution
            .values()
            .fold(TokenUsage::default(), |acc, u| acc.add(u))
    }

    /// Drains the tracer into a span forest (see [`Tracer::drain_trace`]).
    pub fn drain_trace(&self) -> Vec<SpanNode> {
        self.tracer.drain_trace()
    }

    /// Packages the drained span forest plus the attribution *delta*
    /// against `baseline` (usage attributed before the query started)
    /// into a [`QuerySummary`]. Attribution state itself is cumulative;
    /// pass [`Telemetry::attribution`] taken before the query began.
    pub fn finish_query(&self, baseline: &[AttributedUsage]) -> QuerySummary {
        let spans = self.drain_trace();
        let attribution = attribution_delta(baseline, &self.attribution());
        let total = attribution
            .iter()
            .fold(TokenUsage::default(), |acc, a| acc.add(&a.usage));
        QuerySummary {
            spans,
            attribution,
            total,
        }
    }

    /// Current metrics + attribution as one JSON object: the
    /// [`MetricsSnapshot`] object with an `"attribution"` array appended.
    /// Allocator totals are refreshed into `alloc.*` instruments first,
    /// so snapshots always carry current counts.
    pub fn snapshot_json(&self) -> Value {
        publish_alloc_metrics(&self.metrics);
        let mut body = self.metrics.snapshot().to_value();
        if let Value::Object(fields) = &mut body {
            fields.push("attribution".to_string(), self.attribution().to_value());
        }
        body
    }
}

/// The usage attributed between two [`Telemetry::attribution`] snapshots:
/// every (stage, agent) pair whose usage grew, with the growth amount.
pub fn attribution_delta(
    before: &[AttributedUsage],
    after: &[AttributedUsage],
) -> Vec<AttributedUsage> {
    let prior: BTreeMap<(&str, &str), &TokenUsage> = before
        .iter()
        .map(|a| ((a.stage.as_str(), a.agent.as_str()), &a.usage))
        .collect();
    after
        .iter()
        .filter_map(|a| {
            let delta = match prior.get(&(a.stage.as_str(), a.agent.as_str())) {
                Some(p) => a.usage.saturating_sub(p),
                None => a.usage,
            };
            (delta != TokenUsage::default()).then(|| AttributedUsage {
                stage: a.stage.clone(),
                agent: a.agent.clone(),
                usage: delta,
            })
        })
        .collect()
}

/// RAII guard for a stage or agent scope: closes both the span and the
/// attribution scope on drop, and feeds the scope's resource consumption
/// into per-stage profiling histograms.
#[derive(Debug)]
pub struct ScopeGuard {
    telemetry: Telemetry,
    span: SpanGuard,
    scope_id: u64,
    scope_name: String,
    kind: ScopeKind,
    start_res: ResourceStamp,
}

impl ScopeGuard {
    /// Attaches a key/value attribute to the scope's span.
    pub fn attr(&self, key: &str, value: impl Into<String>) -> &Self {
        self.span.attr(key, value);
        self
    }
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        self.telemetry.close_scope(self.scope_id);
        // Per-stage resource histograms (stages only: agent scopes nest
        // inside stages and would double-count; their consumption is
        // still on their own spans). Allocation histograms only appear
        // when a counting allocator is live, so binaries that skip it
        // don't export rows of zeros.
        if self.kind == ScopeKind::Stage {
            let end_res = resource_stamp();
            let (cpu_us, allocs, alloc_bytes) = end_res.since(&self.start_res);
            let metrics = &self.telemetry.metrics;
            if end_res.cpu_us.is_some() {
                metrics.observe(&format!("cpu.stage_us.{}", self.scope_name), cpu_us);
            }
            if allocator_installed() {
                metrics.observe_with_buckets(
                    &format!("alloc.stage_bytes.{}", self.scope_name),
                    alloc_bytes,
                    ALLOC_BYTES_BUCKETS,
                );
                metrics.observe_with_buckets(
                    &format!("alloc.stage_allocs.{}", self.scope_name),
                    allocs,
                    ALLOC_COUNT_BUCKETS,
                );
            }
        }
        // self.span drops afterwards and closes the span itself.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llm_calls_attribute_to_innermost_stage_and_agent() {
        let t = Telemetry::new();
        {
            let _q = t.span("query");
            {
                let _s = t.stage("rewrite");
                t.record_llm_call(10, 2);
            }
            {
                let _s = t.stage("execute");
                {
                    let _a = t.agent_scope("sql_agent");
                    t.record_llm_call(30, 5);
                    t.record_llm_call(7, 1);
                }
            }
        }
        let attribution = t.attribution();
        assert_eq!(attribution.len(), 2);
        assert_eq!(attribution[0].stage, "execute");
        assert_eq!(attribution[0].agent, "sql_agent");
        assert_eq!(
            attribution[0].usage,
            TokenUsage {
                prompt_tokens: 37,
                completion_tokens: 6,
                calls: 2
            }
        );
        assert_eq!(attribution[1].stage, "rewrite");
        assert_eq!(attribution[1].agent, "-");
        assert_eq!(
            t.token_totals(),
            TokenUsage {
                prompt_tokens: 47,
                completion_tokens: 8,
                calls: 3
            }
        );
        // The metrics registry mirrors the same counts.
        assert_eq!(t.metrics().counter("llm.calls"), 3);
        assert_eq!(t.metrics().counter("llm.prompt_tokens"), 47);
        assert_eq!(t.metrics().counter("llm.completion_tokens"), 8);
        assert_eq!(t.metrics().histogram("llm.call_tokens").unwrap().count, 3);
    }

    #[test]
    fn calls_outside_any_scope_are_unattributed() {
        let t = Telemetry::new();
        t.record_llm_call(5, 5);
        let attribution = t.attribution();
        assert_eq!(attribution.len(), 1);
        assert_eq!(attribution[0].stage, "unattributed");
        assert_eq!(attribution[0].agent, "-");
    }

    #[test]
    fn stage_and_agent_scopes_open_spans() {
        let t = Telemetry::new();
        {
            let _q = t.span("query");
            let s = t.stage("execute");
            s.attr("plan_steps", "2");
            let _a = t.agent_scope("code_agent");
        }
        let forest = t.drain_trace();
        assert_eq!(forest.len(), 1);
        let root = &forest[0];
        assert_eq!(root.children[0].name, "execute");
        assert_eq!(
            root.children[0].attrs,
            vec![("plan_steps".into(), "2".into())]
        );
        assert_eq!(root.children[0].children[0].name, "agent:code_agent");
        assert!(root.well_formed());
    }

    #[test]
    fn finish_query_reports_only_the_delta() {
        let t = Telemetry::new();
        {
            let _s = t.stage("execute");
            t.record_llm_call(10, 1);
        }
        let baseline = t.attribution();
        {
            let _q = t.span("query");
            let _s = t.stage("execute");
            t.record_llm_call(20, 2);
        }
        let summary = t.finish_query(&baseline);
        assert_eq!(summary.attribution.len(), 1);
        assert_eq!(
            summary.attribution[0].usage,
            TokenUsage {
                prompt_tokens: 20,
                completion_tokens: 2,
                calls: 1
            }
        );
        assert_eq!(summary.total.calls, 1);
        // Spans drained: first query's stage span + second query tree were
        // both still in the arena (never drained before), so the forest
        // has two roots; root() is None in that case.
        assert_eq!(summary.spans.len(), 2);
        // A second finish sees an empty arena and an empty delta.
        let baseline2 = t.attribution();
        let summary2 = t.finish_query(&baseline2);
        assert!(summary2.spans.is_empty());
        assert!(summary2.attribution.is_empty());
    }

    #[test]
    fn attribution_delta_handles_new_and_grown_keys() {
        let before = vec![AttributedUsage {
            stage: "execute".into(),
            agent: "sql_agent".into(),
            usage: TokenUsage {
                prompt_tokens: 10,
                completion_tokens: 1,
                calls: 1,
            },
        }];
        let after = vec![
            AttributedUsage {
                stage: "execute".into(),
                agent: "sql_agent".into(),
                usage: TokenUsage {
                    prompt_tokens: 25,
                    completion_tokens: 3,
                    calls: 2,
                },
            },
            AttributedUsage {
                stage: "synthesize".into(),
                agent: "-".into(),
                usage: TokenUsage {
                    prompt_tokens: 5,
                    completion_tokens: 5,
                    calls: 1,
                },
            },
        ];
        let delta = attribution_delta(&before, &after);
        assert_eq!(delta.len(), 2);
        assert_eq!(
            delta[0].usage,
            TokenUsage {
                prompt_tokens: 15,
                completion_tokens: 2,
                calls: 1
            }
        );
        assert_eq!(delta[1].stage, "synthesize");
        // Unchanged keys drop out entirely.
        assert!(attribution_delta(&after, &after).is_empty());
    }

    #[test]
    fn active_trace_tags_events_and_scope_spans() {
        let t = Telemetry::new();
        t.set_trace(Some(TraceId::parse("req-1").unwrap()));
        {
            let _q = t.span("query");
            let _s = t.stage("execute");
            t.record_llm_call(3, 1);
        }
        t.record_event(EventKind::Retry, "attempt 1");
        t.set_trace(None);
        t.record_event(EventKind::QueryEnd, "ok");
        let events = t.flight_record(8);
        assert_eq!(events[0].trace.as_deref(), Some("req-1"));
        assert_eq!(events[1].trace.as_deref(), Some("req-1"));
        assert_eq!(events[2].trace, None);
        let forest = t.drain_trace();
        let stage = &forest[0].children[0];
        assert!(
            stage
                .attrs
                .iter()
                .any(|(k, v)| k == "trace_id" && v == "req-1"),
            "{stage:?}"
        );
        // Plain spans are tagged too.
        assert_eq!(
            forest[0].attrs,
            vec![("trace_id".to_string(), "req-1".to_string())]
        );
        // Clones observe the shared slot.
        let clone = t.clone();
        clone.set_trace(Some(TraceId::parse("req-2").unwrap()));
        assert_eq!(t.current_trace().unwrap().as_str(), "req-2");
    }

    #[test]
    fn stage_scopes_feed_cpu_histograms_where_the_clock_exists() {
        let t = Telemetry::new();
        {
            let _s = t.stage("execute");
        }
        {
            let _s = t.stage("execute");
        }
        if thread_cpu_time_us().is_some() {
            let h = t.metrics().histogram("cpu.stage_us.execute").unwrap();
            assert_eq!(h.count, 2);
        } else {
            assert!(t.metrics().histogram("cpu.stage_us.execute").is_none());
        }
        // Agent scopes never observe stage histograms.
        {
            let _a = t.agent_scope("sql_agent");
        }
        assert!(t.metrics().histogram("cpu.stage_us.sql_agent").is_none());
    }

    #[test]
    fn snapshot_json_carries_alloc_instruments() {
        let t = Telemetry::new();
        let body = t.snapshot_json();
        let keys: Vec<&str> = body
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["counters", "gauges", "histograms", "attribution"]);
        let json = body.to_string();
        // Always present (zero when no counting allocator is installed).
        assert!(json.contains("\"alloc.allocs\":"), "{json}");
        assert!(json.contains("\"alloc.live_bytes\":"), "{json}");
    }

    #[test]
    fn clones_share_all_state() {
        let t = Telemetry::new();
        let clone = t.clone();
        let _s = t.stage("execute");
        clone.record_llm_call(3, 3);
        clone.metrics().incr("sandbox.retries", 1);
        clone.record_event(EventKind::Retry, "attempt 1");
        assert_eq!(t.attribution()[0].stage, "execute");
        assert_eq!(t.metrics().counter("sandbox.retries"), 1);
        assert_eq!(t.tracer().len(), 1);
        // The llm call and the explicit retry both hit the shared ring.
        assert_eq!(t.events().total_recorded(), 2);
        let flight = t.flight_record(8);
        assert_eq!(flight[0].kind, EventKind::LlmCall);
        assert_eq!(flight[1].kind, EventKind::Retry);
    }
}
