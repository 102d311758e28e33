//! Exporters: the JSON forms of spans, events, token attribution and
//! metric snapshots, Chrome `trace_event` files, and the plain-text and
//! Prometheus expositions.
//!
//! Every JSON export is a [`ToJson`] impl or returns a [`Value`], so the
//! workspace codec alone decides quoting, escaping and number text.

use crate::events::Event;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::span::SpanNode;
use crate::summary::{AttributedUsage, QuerySummary};
use datalab_json::{json, Map, ToJson, Value};

/// A span forest as a Chrome `trace_event` object —
/// `{"traceEvents": [...]}` with one complete (`"ph": "X"`) event per
/// span — loadable in `chrome://tracing` and Perfetto.
pub fn chrome_trace(spans: &[SpanNode]) -> Value {
    let mut events = Vec::new();
    for root in spans {
        push_chrome_events(root, &mut events);
    }
    let mut trace = Map::new();
    trace.push("traceEvents".to_string(), Value::Array(events));
    trace.push("displayTimeUnit".to_string(), json!("ms"));
    Value::Object(trace)
}

fn push_chrome_events(node: &SpanNode, events: &mut Vec<Value>) {
    events.push(json!({
        "name": node.name,
        "cat": "datalab",
        "ph": "X",
        "ts": node.start_us,
        "dur": node.dur_us,
        "pid": 1,
        "tid": 1,
        "args": attrs_object(&node.attrs),
    }));
    for c in &node.children {
        push_chrome_events(c, events);
    }
}

/// Span attributes as an object. A key set twice keeps its first
/// position and its last value, so the export always parses.
fn attrs_object(attrs: &[(String, String)]) -> Value {
    let mut fields = Map::new();
    for (k, v) in attrs {
        fields.insert(k.clone(), json!(v));
    }
    Value::Object(fields)
}

/// Registry entries (distinct, name-sorted) as an object.
fn entries_object<V: ToJson>(entries: &[(String, V)]) -> Value {
    let mut fields = Map::new();
    for (name, v) in entries {
        fields.push(name.clone(), v.to_value());
    }
    Value::Object(fields)
}

impl ToJson for SpanNode {
    /// The subtree as nested objects: `{"name", "start_us", "dur_us",
    /// "cpu_us", "allocs", "alloc_bytes", "attrs", "children"}`.
    fn to_value(&self) -> Value {
        json!({
            "name": self.name,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "cpu_us": self.cpu_us,
            "allocs": self.allocs,
            "alloc_bytes": self.alloc_bytes,
            "attrs": attrs_object(&self.attrs),
            "children": self.children,
        })
    }
}

impl ToJson for Event {
    /// `{"seq", "at_us", "kind", "detail"}`, plus `"trace"` when the
    /// event was recorded under an active request trace.
    fn to_value(&self) -> Value {
        let mut event = json!({
            "seq": self.seq,
            "at_us": self.at_us,
            "kind": self.kind.as_str(),
            "detail": self.detail,
        });
        if let (Some(trace), Value::Object(fields)) = (&self.trace, &mut event) {
            fields.push("trace".to_string(), json!(trace));
        }
        event
    }
}

impl ToJson for AttributedUsage {
    /// `{"stage", "agent", "calls", "prompt_tokens", "completion_tokens"}`.
    fn to_value(&self) -> Value {
        json!({
            "stage": self.stage,
            "agent": self.agent,
            "calls": self.usage.calls,
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
        })
    }
}

impl ToJson for HistogramSnapshot {
    /// `{"bounds", "counts", "count", "sum", "max", "p50", "p90", "p99"}`.
    fn to_value(&self) -> Value {
        json!({
            "bounds": self.bounds,
            "counts": self.counts,
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "p50": self.p50(),
            "p90": self.p90(),
            "p99": self.p99(),
        })
    }
}

impl ToJson for MetricsSnapshot {
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, each
    /// keyed by metric name.
    fn to_value(&self) -> Value {
        json!({
            "counters": entries_object(&self.counters),
            "gauges": entries_object(&self.gauges),
            "histograms": entries_object(&self.histograms),
        })
    }
}

impl ToJson for QuerySummary {
    /// The whole summary: `{"spans", "attribution", "total"}`.
    fn to_value(&self) -> Value {
        json!({
            "spans": self.spans,
            "attribution": self.attribution,
            "total": {
                "prompt_tokens": self.total.prompt_tokens,
                "completion_tokens": self.total.completion_tokens,
                "calls": self.total.calls,
            },
        })
    }
}

/// Renders a metrics snapshot as a plain-text exposition: one
/// `name value` line per counter and gauge (sections separated by `#`
/// comment lines), then one summary line per histogram. The counter and
/// gauge lines are machine-recoverable — `name` up to the last space,
/// integer value after it — so text dumps can be diffed and re-parsed.
pub fn metrics_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("# counters\n");
    for (name, value) in &snapshot.counters {
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str("# gauges\n");
    for (name, value) in &snapshot.gauges {
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str("# histograms\n");
    for (name, h) in &snapshot.histograms {
        out.push_str(&format!(
            "{name} count={} sum={} max={} p50={} p90={} p99={}\n",
            h.count,
            h.sum,
            h.max,
            h.p50(),
            h.p90(),
            h.p99()
        ));
    }
    out
}

/// Maps a dotted metric name onto the Prometheus name charset:
/// everything outside `[a-zA-Z0-9_]` becomes `_`, and the whole name is
/// prefixed `datalab_` (which also guards against leading digits).
/// Distinct dotted names can collide after sanitisation (`a.b` / `a_b`);
/// the registry's naming convention never does.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 8);
    out.push_str("datalab_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (`# TYPE` metadata plus sample lines), so `GET /v1/metrics` is
/// scrapeable by standard tooling. Histograms emit the full cumulative
/// `_bucket{le="..."}` series (the registry's upper-inclusive bounds map
/// directly onto Prometheus `le` semantics) plus `_sum` and `_count`.
pub fn metrics_prometheus(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
    }
    for (name, h) in &snapshot.histograms {
        let n = prometheus_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (slot, bound) in h.bounds.iter().enumerate() {
            cumulative += h.counts.get(slot).copied().unwrap_or(0);
            out.push_str(&format!("{n}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{n}_bucket{{le=\"+Inf\"}} {count}\n{n}_sum {sum}\n{n}_count {count}\n",
            count = h.count,
            sum = h.sum
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::summary::TokenUsage;
    use datalab_json::to_string;

    fn node() -> SpanNode {
        SpanNode {
            name: "query".into(),
            start_us: 5,
            dur_us: 100,
            cpu_us: 60,
            allocs: 12,
            alloc_bytes: 768,
            attrs: vec![("q".into(), "say \"hi\"\n".into())],
            children: vec![SpanNode {
                name: "plan".into(),
                start_us: 10,
                dur_us: 20,
                cpu_us: 0,
                allocs: 0,
                alloc_bytes: 0,
                attrs: vec![],
                children: vec![],
            }],
        }
    }

    /// A span tree whose names and attributes need every kind of
    /// escaping: quotes, backslashes, control characters, U+2028 and
    /// multibyte text.
    fn awkward_node() -> SpanNode {
        SpanNode {
            name: "q\"uery\\ é".into(),
            start_us: 5,
            dur_us: 100,
            cpu_us: 60,
            allocs: 12,
            alloc_bytes: 768,
            attrs: vec![
                ("q\tk".into(), "say \"hi\"\n\u{1}\u{1f}\u{2028}✓".into()),
                ("tenant".into(), "café 𝄞".into()),
            ],
            children: vec![SpanNode {
                name: "plan".into(),
                start_us: 10,
                dur_us: 20,
                cpu_us: 0,
                allocs: 0,
                alloc_bytes: 0,
                attrs: vec![],
                children: vec![],
            }],
        }
    }

    /// Golden bytes of every telemetry export, so the text a client or a
    /// trace viewer reads cannot drift.
    #[test]
    fn exports_match_golden_bytes() {
        let node = awkward_node();
        assert_eq!(
            to_string(&node),
            concat!(
                r#"{"name":"q\"uery\\ é","start_us":5,"dur_us":100,"cpu_us":60,"allocs":12,"#,
                r#""alloc_bytes":768,"attrs":{"q\tk":"say \"hi\"\n\u0001\u001f"#,
                "\u{2028}",
                r#"✓","tenant":"café 𝄞"},"children":[{"name":"plan","start_us":10,"dur_us":20,"#,
                r#""cpu_us":0,"allocs":0,"alloc_bytes":0,"attrs":{},"children":[]}]}"#
            )
        );
        assert_eq!(
            chrome_trace(std::slice::from_ref(&node)).to_string(),
            concat!(
                r#"{"traceEvents":[{"name":"q\"uery\\ é","cat":"datalab","ph":"X","ts":5,"#,
                r#""dur":100,"pid":1,"tid":1,"args":{"q\tk":"say \"hi\"\n\u0001\u001f"#,
                "\u{2028}",
                r#"✓","tenant":"café 𝄞"}},{"name":"plan","cat":"datalab","ph":"X","ts":10,"#,
                r#""dur":20,"pid":1,"tid":1,"args":{}}],"displayTimeUnit":"ms"}"#
            )
        );
        assert_eq!(
            chrome_trace(&[]).to_string(),
            r#"{"traceEvents":[],"displayTimeUnit":"ms"}"#
        );

        let mut event = crate::events::Event {
            seq: 7,
            at_us: 1500,
            kind: crate::events::EventKind::SandboxFailure,
            detail: "parse \"bad\"\r\u{0}\u{2028} ü".into(),
            trace: None,
        };
        assert_eq!(
            to_string(&event),
            concat!(
                r#"{"seq":7,"at_us":1500,"kind":"sandbox_failure","detail":"parse \"bad\"\r\u0000"#,
                "\u{2028}",
                r#" ü"}"#
            )
        );
        event.trace = Some("req\"9é".into());
        assert_eq!(
            to_string(&event),
            concat!(
                r#"{"seq":7,"at_us":1500,"kind":"sandbox_failure","detail":"parse \"bad\"\r\u0000"#,
                "\u{2028}",
                r#" ü","trace":"req\"9é"}"#
            )
        );

        let m = MetricsRegistry::new();
        m.incr("llm.calls", 2);
        m.incr("server.tenant.tokens.a\"é", 40);
        m.gauge_set("server.queue.depth", -5);
        m.histogram_with_buckets("llm.call_tokens", &[10, 100]);
        m.observe("llm.call_tokens", 42);
        m.observe("llm.call_tokens", 7);
        let attribution = vec![AttributedUsage {
            stage: "exe\"cute\u{8}".into(),
            agent: "sql_agent ✓".into(),
            usage: TokenUsage {
                prompt_tokens: 40,
                completion_tokens: 2,
                calls: 1,
            },
        }];
        // `/v1/metrics` is the snapshot object plus an `attribution`
        // array (`Telemetry::snapshot_json`).
        assert_eq!(
            to_string(&m.snapshot()),
            concat!(
                r#"{"counters":{"llm.calls":2,"server.tenant.tokens.a\"é":40},"#,
                r#""gauges":{"server.queue.depth":-5},"histograms":{"llm.call_tokens":"#,
                r#"{"bounds":[10,100],"counts":[1,1,0],"count":2,"sum":49,"max":42,"#,
                r#""p50":10,"p90":42,"p99":42}}}"#
            )
        );
        assert_eq!(
            to_string(&attribution),
            concat!(
                r#"[{"stage":"exe\"cute\b","#,
                r#""agent":"sql_agent ✓","calls":1,"prompt_tokens":40,"completion_tokens":2}]"#
            )
        );
        assert_eq!(
            to_string(&MetricsRegistry::new().snapshot()),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );

        let summary = crate::summary::QuerySummary {
            spans: vec![node.children[0].clone()],
            attribution,
            total: TokenUsage {
                prompt_tokens: 40,
                completion_tokens: 2,
                calls: 1,
            },
        };
        assert_eq!(
            to_string(&summary),
            concat!(
                r#"{"spans":[{"name":"plan","start_us":10,"dur_us":20,"cpu_us":0,"allocs":0,"#,
                r#""alloc_bytes":0,"attrs":{},"children":[]}],"attribution":[{"stage":"exe\"cute\b","#,
                r#""agent":"sql_agent ✓","calls":1,"prompt_tokens":40,"completion_tokens":2}],"#,
                r#""total":{"prompt_tokens":40,"completion_tokens":2,"calls":1}}"#
            )
        );
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let json = chrome_trace(&[node()]).to_string();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"ts\":5"));
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"name\":\"plan\""));
        // The quoted attribute survives escaping.
        assert!(json.contains("say \\\"hi\\\"\\n"));
    }

    #[test]
    fn span_export_nests_children() {
        let json = to_string(&node());
        assert!(json.contains("\"children\":[{\"name\":\"plan\""), "{json}");
        assert!(json.contains("\"cpu_us\":60"), "{json}");
        assert!(json.contains("\"allocs\":12"), "{json}");
        assert!(json.contains("\"alloc_bytes\":768"), "{json}");
    }

    #[test]
    fn prometheus_exposition_covers_all_instrument_kinds() {
        let m = MetricsRegistry::new();
        m.incr("llm.calls", 2);
        m.gauge_set("server.queue.depth", 5);
        m.histogram_with_buckets("server.latency.query_us", &[10, 100]);
        m.observe("server.latency.query_us", 7);
        m.observe("server.latency.query_us", 50);
        m.observe("server.latency.query_us", 500);
        let text = metrics_prometheus(&m.snapshot());
        assert!(
            text.contains("# TYPE datalab_llm_calls counter\ndatalab_llm_calls 2\n"),
            "{text}"
        );
        assert!(
            text.contains(
                "# TYPE datalab_server_queue_depth gauge\ndatalab_server_queue_depth 5\n"
            ),
            "{text}"
        );
        // Cumulative buckets: le="10" holds 1, le="100" holds 2, +Inf 3.
        assert!(text.contains("# TYPE datalab_server_latency_query_us histogram"));
        assert!(text.contains("datalab_server_latency_query_us_bucket{le=\"10\"} 1\n"));
        assert!(text.contains("datalab_server_latency_query_us_bucket{le=\"100\"} 2\n"));
        assert!(text.contains("datalab_server_latency_query_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("datalab_server_latency_query_us_sum 557\n"));
        assert!(text.contains("datalab_server_latency_query_us_count 3\n"));
    }

    #[test]
    fn prometheus_names_are_sanitised() {
        let m = MetricsRegistry::new();
        m.gauge_set("slo.availability_burn_fast_pm.tenant-a", 3);
        let text = metrics_prometheus(&m.snapshot());
        assert!(
            text.contains("datalab_slo_availability_burn_fast_pm_tenant_a 3\n"),
            "{text}"
        );
    }

    #[test]
    fn metrics_export_includes_everything() {
        let m = MetricsRegistry::new();
        m.incr("llm.calls", 2);
        m.gauge_add("server.queue.depth", 5);
        m.histogram_with_buckets("llm.call_tokens", &[10, 100]);
        m.observe("llm.call_tokens", 42);
        let attribution = vec![AttributedUsage {
            stage: "execute".into(),
            agent: "sql_agent".into(),
            usage: TokenUsage {
                prompt_tokens: 40,
                completion_tokens: 2,
                calls: 1,
            },
        }];
        let json = format!("{} {}", to_string(&m.snapshot()), to_string(&attribution));
        assert!(json.contains("\"llm.calls\":2"), "{json}");
        assert!(json.contains("\"gauges\":{\"server.queue.depth\":5}"));
        assert!(json.contains("\"bounds\":[10,100]"));
        assert!(json.contains("\"counts\":[0,1,0]"));
        assert!(json.contains("\"max\":42"));
        assert!(json.contains("\"p99\":42"));
        assert!(json.contains("\"stage\":\"execute\""));
        assert!(json.contains("\"prompt_tokens\":40"));
    }

    #[test]
    fn fault_and_breaker_metrics_round_trip_through_both_exporters() {
        let m = MetricsRegistry::new();
        m.incr("llm.faults.transport", 3);
        m.incr("llm.faults.timeout", 0);
        m.incr("llm.faults.retries", 5);
        m.incr("llm.breaker.trips", 1);
        m.gauge_set("llm.breaker.state", 2);
        let snapshot = m.snapshot();

        // JSON exporter (the /v1/metrics shape) carries the new names,
        // zero-valued counters included.
        let json = to_string(&snapshot);
        assert!(json.contains("\"llm.faults.transport\":3"), "{json}");
        assert!(json.contains("\"llm.faults.timeout\":0"), "{json}");
        assert!(json.contains("\"llm.breaker.trips\":1"), "{json}");
        assert!(json.contains("\"llm.breaker.state\":2"), "{json}");

        // Text exporter round-trip: parse counter/gauge lines back and
        // compare against the snapshot they came from.
        let text = metrics_text(&snapshot);
        let mut counters = std::collections::BTreeMap::new();
        let mut gauges = std::collections::BTreeMap::new();
        let mut section = "";
        for line in text.lines() {
            if let Some(s) = line.strip_prefix("# ") {
                section = s;
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("name value line");
            match section {
                "counters" => {
                    counters.insert(name.to_string(), value.parse::<u64>().unwrap());
                }
                "gauges" => {
                    gauges.insert(name.to_string(), value.parse::<i64>().unwrap());
                }
                _ => {}
            }
        }
        for (name, value) in &snapshot.counters {
            assert_eq!(counters.get(name), Some(value), "{name}");
        }
        for (name, value) in &snapshot.gauges {
            assert_eq!(gauges.get(name), Some(value), "{name}");
        }
        assert_eq!(counters.len(), snapshot.counters.len());
        assert_eq!(gauges.len(), snapshot.gauges.len());
    }

    #[test]
    fn event_export_escapes_the_detail() {
        let mut e = crate::events::Event {
            seq: 7,
            at_us: 1500,
            kind: crate::events::EventKind::SandboxFailure,
            detail: "parse error: \"bad\" line".into(),
            trace: None,
        };
        let json = to_string(&e);
        assert!(json.starts_with("{\"seq\":7,\"at_us\":1500"), "{json}");
        assert!(json.contains("\"kind\":\"sandbox_failure\""));
        assert!(json.contains("\\\"bad\\\""));
        assert!(!json.contains("\"trace\""));
        e.trace = Some("req-9".into());
        let json = to_string(&e);
        assert!(json.contains("\"trace\":\"req-9\""), "{json}");
    }
}
