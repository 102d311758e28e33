//! Property-based tests for the tail-sampling trace store's keep policy
//! and for the JSON exports.
//!
//! The two keep-policy invariants come straight from the policy's
//! contract: error traces outlive ok traces under eviction pressure, and
//! degenerate configurations (sampling off, slowest-N off) never panic
//! and still retain exactly what the remaining legs promise. The export
//! properties feed strings that need every kind of escaping through each
//! exporter and read them back with the codec's parser.

use datalab_json::Value;
use datalab_rng::prop::{self as proptest, prelude::*};
use datalab_telemetry::{
    chrome_trace, AttributedUsage, Event, EventKind, MetricsRegistry, RetainReason, SpanNode,
    TokenUsage, TraceRecord, TraceStore, TraceStorePolicy,
};

fn record(idx: usize, ok: bool, duration_us: u64) -> TraceRecord {
    TraceRecord {
        trace_id: format!("t{idx}"),
        tenant: format!("tenant{}", idx % 3),
        workload: "nl2sql".to_string(),
        status: if ok { 200 } else { 503 },
        ok,
        duration_us,
        spans: Vec::new(),
        events: Vec::new(),
    }
}

proptest! {
    /// Under any offer sequence, an error trace is only ever evicted
    /// once no ok traces remain in the store: while the retained error
    /// count is within capacity, every offered error is still present.
    #[test]
    fn errors_never_evicted_before_ok_traces(
        outcomes in proptest::collection::vec((any::<bool>(), 0u64..10_000), 1..200),
        capacity in 1usize..16,
        sample_every in 0usize..8,
        slowest in 0usize..4,
        window in 1usize..32,
    ) {
        let store = TraceStore::new(TraceStorePolicy {
            capacity,
            slowest_per_window: slowest,
            window,
            sample_every,
        });
        let mut error_ids: Vec<String> = Vec::new();
        for (idx, (ok, duration_us)) in outcomes.iter().enumerate() {
            let kept = store.offer(record(idx, *ok, *duration_us));
            if !ok {
                prop_assert_eq!(kept, Some(RetainReason::Error));
                error_ids.push(format!("t{idx}"));
            }
            // The newest `capacity` errors must all still be retained —
            // ok traces are evicted first, so errors only fall off once
            // errors alone exceed capacity.
            let start = error_ids.len().saturating_sub(capacity);
            for id in &error_ids[start..] {
                prop_assert!(
                    store.get(id).is_some(),
                    "error {} evicted while ok traces may remain (len={})",
                    id,
                    store.len()
                );
            }
            prop_assert!(store.len() <= capacity);
        }
        prop_assert_eq!(store.seen(), outcomes.len() as u64);
    }

    /// `sample_every = 0` (and any slowest-N setting, including 0)
    /// degrades to "errors + slowest only": no panics, every error kept,
    /// and with both optional legs off nothing but errors is retained.
    #[test]
    fn zero_sampling_degrades_without_panics(
        outcomes in proptest::collection::vec((any::<bool>(), 0u64..10_000), 1..200),
        slowest in 0usize..3,
        window in 1usize..16,
    ) {
        let store = TraceStore::new(TraceStorePolicy {
            capacity: 256,
            slowest_per_window: slowest,
            window,
            sample_every: 0,
        });
        let mut errors = 0usize;
        for (idx, (ok, duration_us)) in outcomes.iter().enumerate() {
            let kept = store.offer(record(idx, *ok, *duration_us));
            match kept {
                Some(RetainReason::Error) => {
                    prop_assert!(!ok);
                    errors += 1;
                }
                Some(RetainReason::Slow) => {
                    prop_assert!(*ok);
                    prop_assert!(slowest > 0);
                }
                Some(RetainReason::Sampled) => {
                    prop_assert!(false, "uniform sampler fired with sample_every=0");
                }
                None => prop_assert!(*ok),
            }
        }
        prop_assert!(store.len() >= errors.min(256));
        if slowest == 0 {
            // Errors-only mode: retained set is exactly the errors.
            prop_assert_eq!(store.len(), errors.min(256));
            for t in store.summaries(None, None, 512) {
                prop_assert_eq!(t.reason, RetainReason::Error);
            }
        }
    }
}

/// Text that needs every kind of JSON escaping: quotes, backslashes,
/// U+0000–U+001F, U+2028, and two-, three- and four-byte characters.
const AWKWARD: &str = "[a-z \"\\\\\u{0}-\u{1f}\u{2028}é✓𝄞]{0,10}";

type Attrs = Vec<(String, String)>;

fn span(name: String, attrs: Attrs, children: Vec<SpanNode>) -> SpanNode {
    SpanNode {
        name,
        start_us: 1,
        dur_us: 2,
        cpu_us: 0,
        allocs: 0,
        alloc_bytes: 0,
        attrs,
        children,
    }
}

fn parse(text: &str) -> Value {
    Value::parse(text).unwrap_or_else(|e| panic!("{e}: {text:?}"))
}

/// Checks an exported attribute object against the span's pairs: a key
/// set twice keeps its first position and its last value.
fn attrs_read_back(exported: &Value, attrs: &Attrs) -> bool {
    let mut want: Attrs = Vec::new();
    for (k, v) in attrs {
        match want.iter_mut().find(|(seen, _)| seen == k) {
            Some(slot) => slot.1 = v.clone(),
            None => want.push((k.clone(), v.clone())),
        }
    }
    let got: Vec<(&str, Option<&str>)> = exported
        .as_object()
        .map(|m| m.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect())
        .unwrap_or_default();
    got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|((k, v), (wk, wv))| k == wk && *v == Some(wv.as_str()))
}

proptest! {
    /// The span tree and its Chrome trace parse back with every name and
    /// attribute string intact.
    #[test]
    fn span_exports_parse_and_keep_every_string(
        root in (AWKWARD, proptest::collection::vec((AWKWARD, AWKWARD), 0..4)),
        children in proptest::collection::vec(
            (AWKWARD, proptest::collection::vec((AWKWARD, AWKWARD), 0..3)),
            0..4,
        ),
    ) {
        let node = span(
            root.0.clone(),
            root.1.clone(),
            children
                .iter()
                .map(|(name, attrs)| span(name.clone(), attrs.clone(), Vec::new()))
                .collect(),
        );
        let tree = parse(&datalab_json::to_string(&node));
        prop_assert_eq!(tree["name"].as_str(), Some(root.0.as_str()));
        prop_assert!(attrs_read_back(&tree["attrs"], &root.1), "{}", tree);
        let kids = tree["children"].as_array().expect("children array");
        prop_assert_eq!(kids.len(), children.len());
        for (kid, (name, attrs)) in kids.iter().zip(&children) {
            prop_assert_eq!(kid["name"].as_str(), Some(name.as_str()));
            prop_assert!(attrs_read_back(&kid["attrs"], attrs), "{}", kid);
        }

        let trace = parse(&chrome_trace(std::slice::from_ref(&node)).to_string());
        let events = trace["traceEvents"].as_array().expect("traceEvents array");
        prop_assert_eq!(events.len(), 1 + children.len());
        let sources = std::iter::once(&root).chain(&children);
        for (event, (name, attrs)) in events.iter().zip(sources) {
            prop_assert_eq!(event["name"].as_str(), Some(name.as_str()));
            prop_assert!(attrs_read_back(&event["args"], attrs), "{}", event);
        }
    }

    /// Events, metric names and attribution labels parse back equal.
    #[test]
    fn event_metric_and_attribution_exports_keep_every_string(
        detail in AWKWARD,
        trace in proptest::option::of(AWKWARD),
        names in proptest::collection::vec(AWKWARD, 0..6),
        labels in proptest::collection::vec((AWKWARD, AWKWARD), 0..4),
    ) {
        let event = Event {
            seq: 3,
            at_us: 9,
            kind: EventKind::Retry,
            detail: detail.clone(),
            trace: trace.clone(),
        };
        let e = parse(&datalab_json::to_string(&event));
        prop_assert_eq!(e["detail"].as_str(), Some(detail.as_str()));
        prop_assert_eq!(e["trace"].as_str(), trace.as_deref());
        prop_assert_eq!(e["kind"].as_str(), Some("retry"));

        let registry = MetricsRegistry::new();
        for (i, name) in names.iter().enumerate() {
            registry.incr(name, i as u64);
            registry.gauge_set(name, -(i as i64));
            registry.observe(name, i as u64);
        }
        let snapshot = registry.snapshot();
        let m = parse(&datalab_json::to_string(&snapshot));
        for (name, value) in &snapshot.counters {
            prop_assert_eq!(m["counters"][name.as_str()].as_u64(), Some(*value));
        }
        for (name, value) in &snapshot.gauges {
            prop_assert_eq!(m["gauges"][name.as_str()].as_i64(), Some(*value));
        }
        for (name, h) in &snapshot.histograms {
            prop_assert_eq!(m["histograms"][name.as_str()]["count"].as_u64(), Some(h.count));
        }
        let counters = m["counters"].as_object().map(|c| c.len());
        prop_assert_eq!(counters, Some(snapshot.counters.len()));

        let attribution: Vec<AttributedUsage> = labels
            .iter()
            .map(|(stage, agent)| AttributedUsage {
                stage: stage.clone(),
                agent: agent.clone(),
                usage: TokenUsage { prompt_tokens: 4, completion_tokens: 1, calls: 1 },
            })
            .collect();
        let a = parse(&datalab_json::to_string(&attribution));
        let entries = a.as_array().expect("attribution array");
        prop_assert_eq!(entries.len(), labels.len());
        for (entry, (stage, agent)) in entries.iter().zip(&labels) {
            prop_assert_eq!(entry["stage"].as_str(), Some(stage.as_str()));
            prop_assert_eq!(entry["agent"].as_str(), Some(agent.as_str()));
        }
    }
}
