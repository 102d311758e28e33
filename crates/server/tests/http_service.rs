//! End-to-end tests for the HTTP serving layer over real sockets:
//! happy paths, malformed input on every endpoint, overload shedding,
//! deadlines, tenant isolation, and graceful shutdown.

use datalab_json::Value;
use datalab_server::{Server, ServerConfig};
use datalab_telemetry::CountingAlloc;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

/// Run the suite under the counting allocator — the configuration the
/// shipped binaries use — so `/v1/profile?weight=alloc` and the
/// `alloc.*` metrics exercise real attribution end to end.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const SALES_CSV: &str = "region,amount\neast,10\nwest,20\neast,5\n";
const CHART_QUESTION: &str = "draw a bar chart of sales by region";

fn boot(config: ServerConfig) -> Server {
    Server::start(config).expect("server boots")
}

/// Writes raw bytes, reads to EOF, returns (status, head, body).
fn send_raw(addr: SocketAddr, raw: &[u8]) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("write");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    let (head, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in {text:?}"));
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in {head:?}"));
    (status, head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes(),
    )
}

fn get_traced(addr: SocketAddr, path: &str, trace: &str) -> (u16, String, String) {
    send_raw(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nX-Trace-Id: {trace}\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

fn post_traced(addr: SocketAddr, path: &str, body: &str, trace: &str) -> (u16, String, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nX-Trace-Id: {trace}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    send_raw(addr, raw.as_bytes())
}

/// Case-insensitive response-header lookup in a raw head.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim()
            .eq_ignore_ascii_case(name)
            .then(|| v.trim().to_string())
    })
}

/// Every span name in a `/v1/traces/:id` span forest, depth-first.
fn span_names(spans: &Value, out: &mut Vec<String>) {
    for node in spans.as_array().into_iter().flatten() {
        if let Some(name) = node["name"].as_str() {
            out.push(name.to_string());
        }
        span_names(&node["children"], out);
    }
}

fn json(body: &str) -> Value {
    datalab_json::from_str(body).unwrap_or_else(|e| panic!("bad JSON {body:?}: {e}"))
}

fn error_kind(body: &str) -> String {
    json(body)["error"]["kind"]
        .as_str()
        .unwrap_or_else(|| panic!("no error.kind in {body}"))
        .to_string()
}

fn register_sales(addr: SocketAddr, tenant: &str) {
    let body = datalab_json::json!({"tenant": tenant, "name": "sales", "csv": SALES_CSV});
    let (status, _, response) = post(addr, "/v1/tables", &body.to_string());
    assert_eq!(status, 200, "{response}");
    let v = json(&response);
    assert_eq!(v["ok"], Value::Bool(true));
    assert_eq!(v["rows"], 3);
}

fn run_query(addr: SocketAddr, tenant: &str, question: &str) -> (u16, Value) {
    let body = datalab_json::json!({"tenant": tenant, "question": question});
    let (status, _, response) = post(addr, "/v1/query", &body.to_string());
    (status, json(&response))
}

#[test]
fn health_and_metrics_respond() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();

    let (status, _, body) = get(addr, "/v1/health");
    assert_eq!(status, 200, "{body}");
    let v = json(&body);
    assert_eq!(v["status"], "ok");
    assert_eq!(v["sessions"], 0);

    let (status, _, body) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    let v = json(&body);
    // Pre-registered endpoint histograms are visible before any query.
    assert!(
        v["histograms"]["server.latency.query_us"].is_object(),
        "{body}"
    );
    assert!(v["counters"]["server.requests.health"].as_u64() >= Some(1));
    server.shutdown();
}

#[test]
fn tables_then_query_round_trip() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    register_sales(addr, "acme");

    let (status, v) = run_query(addr, "acme", CHART_QUESTION);
    assert_eq!(status, 200, "{v}");
    assert_eq!(v["tenant"], "acme");
    assert_eq!(v["workload"], "adhoc");
    assert_eq!(v["success"], Value::Bool(true));
    assert_eq!(v["degraded"], Value::Bool(false));
    assert_eq!(v["chart"], Value::Bool(true));
    assert!(v["tokens"].as_u64() > Some(0), "{v}");
    assert!(v["duration_us"].as_u64() > Some(0));
    assert!(!v["plan"].as_array().unwrap().is_empty());

    // Per-tenant attribution shows up in the metrics snapshot.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(
        m["counters"]["server.tenant.tokens.acme"].as_u64() > Some(0),
        "{metrics}"
    );
    assert_eq!(m["counters"]["server.tenant.queries.acme"], 1);
    // Fault-free serving still enumerates the resilience taxonomy at
    // zero and publishes a closed breaker for the tenant.
    assert_eq!(m["counters"]["server.resilience.faults"], 0);
    assert_eq!(m["counters"]["server.resilience.degraded"], 0);
    let (_, _, health) = get(addr, "/v1/health");
    assert_eq!(json(&health)["breakers"]["acme"], "closed", "{health}");
    server.shutdown();
}

#[test]
fn chaos_transport_degrades_and_publishes_breaker_health() {
    use datalab_core::{ChaosConfig, DataLabConfig};
    let server = boot(ServerConfig {
        lab_config: DataLabConfig {
            record_runs: false,
            chaos: Some(ChaosConfig::uniform(7, 0.9)),
            ..DataLabConfig::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    register_sales(addr, "acme");

    let mut saw_degraded = false;
    let mut saw_503 = false;
    for _ in 0..6 {
        let body = datalab_json::json!({"tenant": "acme", "question": "What is the total amount by region?"});
        let (status, head, response) = post(addr, "/v1/query", &body.to_string());
        match status {
            200 => {
                let v = json(&response);
                saw_degraded |= v["degraded"] == Value::Bool(true);
                // Structured degradation never leaks transport poison.
                let answer = v["answer"].as_str().unwrap_or("");
                assert!(!answer.contains("<<llm-error"), "{answer}");
            }
            503 => {
                saw_503 = true;
                assert!(head.contains("Retry-After: 1"), "{head}");
                assert_eq!(error_kind(&response), "transport_unavailable");
            }
            other => panic!("unexpected status {other}: {response}"),
        }
    }
    assert!(
        saw_degraded || saw_503,
        "90% fault rate produced neither degradation nor 503s"
    );

    // Health exposes the tenant's breaker state by name.
    let (_, _, health) = get(addr, "/v1/health");
    let state = json(&health)["breakers"]["acme"].clone();
    assert!(
        ["closed", "open", "half_open"].iter().any(|s| state == *s),
        "{health}"
    );

    // The serving registry mirrored the sessions' resilience activity.
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(
        m["counters"]["server.resilience.faults"].as_u64() > Some(0),
        "{metrics}"
    );
    assert!(
        m["counters"]["server.resilience.retries"].as_u64() > Some(0),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn garbage_bytes_yield_structured_errors_not_panics() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();

    // Non-HTTP bytes on the wire.
    let (status, _, body) = send_raw(addr, b"\x13\x37garbage\x00bytes\r\n\r\n");
    assert_eq!(status, 400, "{body}");
    assert_eq!(error_kind(&body), "bad_request");

    // Valid HTTP, garbage JSON, on both POST endpoints.
    for path in ["/v1/query", "/v1/tables"] {
        let (status, _, body) = post(addr, path, "{not json at all");
        assert_eq!(status, 400, "{path}: {body}");
        assert_eq!(error_kind(&body), "bad_request");

        let (status, _, body) = post(addr, path, "\u{0}\u{1}\u{2}");
        assert_eq!(status, 400, "{path}: {body}");

        // Valid JSON, wrong shape.
        let (status, _, body) = post(addr, path, "{\"tenant\":5}");
        assert_eq!(status, 400, "{path}: {body}");
        assert_eq!(error_kind(&body), "bad_request");

        // A repeated key is rejected, not resolved to either copy.
        let (status, _, body) = post(addr, path, r#"{"tenant":"a","tenant":"b"}"#);
        assert_eq!(status, 400, "{path}: {body}");
        assert_eq!(error_kind(&body), "bad_request");
        assert!(body.contains("duplicate key"), "{path}: {body}");
    }

    // Tenant validation: empty, oversized, control characters.
    for tenant in ["", &"x".repeat(65), "bad\ttenant"] {
        let body = datalab_json::json!({"tenant": tenant, "question": "hi"});
        let (status, _, response) = post(addr, "/v1/query", &body.to_string());
        assert_eq!(status, 400, "tenant {tenant:?}: {response}");
        assert_eq!(error_kind(&response), "bad_request");
    }

    // Unregisterable CSV is a structured 400, not a panic.
    let body = datalab_json::json!({"tenant": "acme", "name": "t", "csv": "\"unterminated"});
    let (status, _, response) = post(addr, "/v1/tables", &body.to_string());
    assert_eq!(status, 400, "{response}");
    assert_eq!(error_kind(&response), "table_register");

    // Unknown routes and methods.
    let (status, _, body) = get(addr, "/v1/nope");
    assert_eq!(status, 404);
    assert_eq!(error_kind(&body), "not_found");
    let (status, _, _) = send_raw(addr, b"DELETE /v1/query HTTP/1.1\r\n\r\n");
    assert_eq!(status, 404);

    // Every worker survived: the error counters are visible and the
    // server still answers.
    let (status, _, metrics) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    let m = json(&metrics);
    assert!(
        m["counters"]["platform.errors.bad_request"].as_u64() >= Some(10),
        "{metrics}"
    );
    assert!(m["counters"]["platform.errors.not_found"].as_u64() >= Some(2));
    let (status, _, _) = get(addr, "/v1/health");
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn oversized_bodies_are_rejected() {
    let server = boot(ServerConfig {
        max_body_bytes: 64,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let big = "x".repeat(1000);
    let body = format!("{{\"tenant\":\"a\",\"question\":\"{big}\"}}");
    let (status, _, response) = post(addr, "/v1/query", &body);
    assert_eq!(status, 413, "{response}");
    assert_eq!(error_kind(&response), "too_large");
    server.shutdown();
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let server = boot(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        read_timeout_ms: 2_000,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // Fill the worker and the queue with connections that never send a
    // request. The first is connected alone and given time to reach the
    // single worker (which then blocks in read for read_timeout_ms); the
    // next two fill the queue. Held in a Vec so the sockets stay open.
    let mut idle = vec![TcpStream::connect(addr).expect("idle connect")];
    thread::sleep(Duration::from_millis(200));
    for _ in 0..2 {
        idle.push(TcpStream::connect(addr).expect("idle connect"));
    }
    thread::sleep(Duration::from_millis(200));

    let (status, head, body) = get(addr, "/v1/health");
    assert_eq!(status, 429, "{body}");
    assert_eq!(error_kind(&body), "overloaded");
    assert!(head.contains("Retry-After: 1"), "{head}");
    // Even acceptor-thread rejections are traceable: a server-minted
    // trace ID in the header and in the error body.
    let trace = header_value(&head, "X-Trace-Id").expect("429 carries X-Trace-Id");
    assert!(!trace.is_empty());
    assert_eq!(json(&body)["error"]["trace_id"], Value::String(trace));

    // Once the idle connections time out, service recovers.
    drop(idle);
    thread::sleep(Duration::from_millis(500));
    let (status, _, body) = get(addr, "/v1/health");
    assert_eq!(status, 200, "{body}");

    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(
        m["counters"]["server.rejected.global"].as_u64() >= Some(1),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn blown_deadline_is_a_504() {
    let server = boot(ServerConfig {
        deadline_ms: 0,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let body = datalab_json::json!({"tenant": "acme", "question": "anything"}).to_string();
    let (status, head, response) = post_traced(addr, "/v1/query", &body, "deadline-trace-1");
    assert_eq!(status, 504, "{response}");
    let v = json(&response);
    assert_eq!(v["error"]["kind"], "deadline");
    // The client's trace ID is echoed on the timeout, in header and body.
    assert_eq!(
        header_value(&head, "X-Trace-Id").as_deref(),
        Some("deadline-trace-1"),
        "{head}"
    );
    assert_eq!(v["error"]["trace_id"], "deadline-trace-1");

    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(m["counters"]["server.timeouts"].as_u64() >= Some(1));
    // The 504 burned the whole error budget for the only request on
    // record: burn rates saturate and the budget reads exhausted.
    assert!(
        m["gauges"]["slo.availability_burn_fast_pm.acme"].as_i64() >= Some(1000),
        "{metrics}"
    );
    assert_eq!(m["gauges"]["slo.budget_exhausted.acme"], 1);
    let (_, _, health) = get(addr, "/v1/health");
    let h = json(&health);
    assert!(
        h["slo"]["acme"]["fast"]["availability_burn"].as_f64() >= Some(1.0),
        "{health}"
    );
    assert_eq!(h["slo"]["acme"]["budget_exhausted"], Value::Bool(true));

    // Server-side failures always land in the trace store (spanless
    // here: the request timed out while queued).
    let (status, _, detail) = get(addr, "/v1/traces/deadline-trace-1");
    assert_eq!(status, 200, "{detail}");
    let d = json(&detail);
    assert_eq!(d["status"], 504);
    assert_eq!(d["ok"], Value::Bool(false));
    assert_eq!(d["reason"], "error");
    server.shutdown();
}

#[test]
fn tenants_are_isolated_over_http() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    register_sales(addr, "acme");

    // acme sees its table; globex — same question, own session — fails
    // because no tables exist there.
    let (status, v) = run_query(addr, "acme", CHART_QUESTION);
    assert_eq!(status, 200);
    assert_eq!(v["success"], Value::Bool(true), "{v}");

    let (status, v) = run_query(addr, "globex", CHART_QUESTION);
    assert_eq!(status, 200);
    assert_eq!(v["success"], Value::Bool(false), "{v}");

    let (_, _, health) = get(addr, "/v1/health");
    assert_eq!(json(&health)["sessions"], 2);
    server.shutdown();
}

#[test]
fn trace_id_is_echoed_on_every_status_class() {
    let server = boot(ServerConfig {
        max_body_bytes: 64,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    // 200: exact echo of the client's trace ID, plus the ID in the body.
    let (status, head, body) = get_traced(addr, "/v1/health", "ok-trace");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header_value(&head, "X-Trace-Id").as_deref(),
        Some("ok-trace")
    );

    // 400 (parsed request, bad body): exact echo in header and body.
    let (status, head, body) = post_traced(addr, "/v1/query", "{not json", "bad-trace");
    assert_eq!(status, 400, "{body}");
    assert_eq!(
        header_value(&head, "X-Trace-Id").as_deref(),
        Some("bad-trace")
    );
    assert_eq!(json(&body)["error"]["trace_id"], "bad-trace");

    // 404: exact echo.
    let (status, head, body) = get_traced(addr, "/v1/nope", "lost-trace");
    assert_eq!(status, 404, "{body}");
    assert_eq!(
        header_value(&head, "X-Trace-Id").as_deref(),
        Some("lost-trace")
    );
    assert_eq!(json(&body)["error"]["trace_id"], "lost-trace");

    // An unusable client ID (bad characters) is replaced, not echoed.
    let (status, head, _) = get_traced(addr, "/v1/health", "no spaces allowed");
    assert_eq!(status, 200);
    let minted = header_value(&head, "X-Trace-Id").expect("minted trace");
    assert_ne!(minted, "no spaces allowed");
    assert!(!minted.is_empty());

    // 413: the request never parses, so the ID is server-minted but
    // still present in header and body.
    let big = "x".repeat(1000);
    let body = format!("{{\"tenant\":\"a\",\"question\":\"{big}\"}}");
    let (status, head, response) = post_traced(addr, "/v1/query", &body, "too-big-trace");
    assert_eq!(status, 413, "{response}");
    let trace = header_value(&head, "X-Trace-Id").expect("413 carries X-Trace-Id");
    assert!(!trace.is_empty());
    assert_eq!(json(&response)["error"]["trace_id"], Value::String(trace));

    // 400 from unparseable bytes: likewise server-minted but present.
    let (status, head, response) = send_raw(addr, b"\x13\x37garbage\r\n\r\n");
    assert_eq!(status, 400, "{response}");
    let trace = header_value(&head, "X-Trace-Id").expect("400 carries X-Trace-Id");
    assert_eq!(json(&response)["error"]["trace_id"], Value::String(trace));
    server.shutdown();
}

#[test]
fn trace_detail_returns_the_full_span_tree() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    register_sales(addr, "acme");

    let body = datalab_json::json!({"tenant": "acme", "question": CHART_QUESTION}).to_string();
    let (status, head, response) = post_traced(addr, "/v1/query", &body, "accept-1");
    assert_eq!(status, 200, "{response}");
    assert_eq!(
        header_value(&head, "X-Trace-Id").as_deref(),
        Some("accept-1")
    );
    assert_eq!(json(&response)["trace_id"], "accept-1");

    // The first completion is always retained (uniform sampler leg), so
    // the detail endpoint serves the full span tree.
    let (status, _, detail) = get(addr, "/v1/traces/accept-1");
    assert_eq!(status, 200, "{detail}");
    let d = json(&detail);
    assert_eq!(d["trace_id"], "accept-1");
    assert_eq!(d["tenant"], "acme");
    assert_eq!(d["status"], 200);
    assert_eq!(d["ok"], Value::Bool(true));

    // The span forest reaches from the query root down to per-agent
    // scopes and individual LLM transport attempts.
    let roots = d["spans"].as_array().expect("spans array");
    assert_eq!(roots.len(), 1, "{detail}");
    assert_eq!(roots[0]["name"], "query");
    assert_eq!(roots[0]["attrs"]["trace_id"], "accept-1");
    let mut names = Vec::new();
    span_names(&d["spans"], &mut names);
    assert!(
        names.iter().any(|n| n.starts_with("agent:")),
        "no agent span in {names:?}"
    );
    assert!(
        names.iter().any(|n| n == "llm:transport"),
        "no transport span in {names:?}"
    );
    // The Chrome export is embedded ready to save and load.
    assert!(
        d["chrome_trace"]["traceEvents"]
            .as_array()
            .is_some_and(|e| !e.is_empty()),
        "{detail}"
    );

    // The index lists it, filters by tenant, and validates parameters.
    let (status, _, index) = get(addr, "/v1/traces");
    assert_eq!(status, 200, "{index}");
    let idx = json(&index);
    assert!(idx["seen"].as_u64() >= Some(1));
    let listed: Vec<&str> = idx["traces"]
        .as_array()
        .unwrap()
        .iter()
        .filter_map(|t| t["trace_id"].as_str())
        .collect();
    assert!(listed.contains(&"accept-1"), "{index}");

    let (_, _, filtered) = get(addr, "/v1/traces?tenant=acme&limit=10");
    assert!(!json(&filtered)["traces"].as_array().unwrap().is_empty());
    let (_, _, other) = get(addr, "/v1/traces?tenant=globex");
    assert!(json(&other)["traces"].as_array().unwrap().is_empty());
    let (status, _, body) = get(addr, "/v1/traces?status=weird");
    assert_eq!(status, 400, "{body}");
    let (status, _, body) = get(addr, "/v1/traces?limit=0");
    assert_eq!(status, 400, "{body}");

    // Unknown trace IDs are a structured 404.
    let (status, _, body) = get(addr, "/v1/traces/never-seen");
    assert_eq!(status, 404, "{body}");
    assert_eq!(error_kind(&body), "trace_not_found");
    server.shutdown();
}

#[test]
fn chaos_failure_retains_an_error_trace_with_fault_markers() {
    use datalab_core::{ChaosConfig, DataLabConfig};
    let server = boot(ServerConfig {
        lab_config: DataLabConfig {
            record_runs: false,
            chaos: Some(ChaosConfig::uniform(7, 1.0)),
            ..DataLabConfig::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.addr();
    // No tables registered and a chart question: the vis agent has no
    // data source, so the degraded pipeline cannot succeed either. With
    // every transport call faulting, failures classify as outages — the
    // 503 path.
    let mut failed_traces = Vec::new();
    for i in 0..4 {
        let trace = format!("chaos-{i}");
        let body = datalab_json::json!({"tenant": "acme", "question": CHART_QUESTION}).to_string();
        let (status, head, response) = post_traced(addr, "/v1/query", &body, &trace);
        assert_eq!(
            header_value(&head, "X-Trace-Id").as_deref(),
            Some(trace.as_str()),
            "{head}"
        );
        if status == 503 {
            assert_eq!(json(&response)["error"]["trace_id"], trace.as_str());
            failed_traces.push(trace);
        }
    }
    assert!(
        !failed_traces.is_empty(),
        "100% fault rate never produced a 503"
    );

    // Error traces are always retained, and carry fault / fallback
    // markers tagged with the request's own trace ID.
    let mut saw_fault_marker = false;
    for trace in &failed_traces {
        let (status, _, detail) = get(addr, &format!("/v1/traces/{trace}"));
        assert_eq!(status, 200, "error trace {trace} was evicted: {detail}");
        let d = json(&detail);
        assert_eq!(d["status"], 503);
        assert_eq!(d["ok"], Value::Bool(false));
        assert_eq!(d["reason"], "error");
        let events = d["events"].as_array().expect("events array");
        assert!(!events.is_empty(), "{detail}");
        saw_fault_marker |= events.iter().any(|e| {
            let kind = e["kind"].as_str().unwrap_or("");
            let resilience = matches!(
                kind,
                "llm_fault" | "transport_retry" | "breaker_trip" | "degraded"
            );
            resilience && e["trace"].as_str() == Some(trace.as_str())
        });
    }
    assert!(
        saw_fault_marker,
        "no retained 503 trace carried a tagged fault/fallback marker"
    );

    // The error listing shows only failures.
    let (_, _, errors) = get(addr, "/v1/traces?status=error");
    let idx = json(&errors);
    for t in idx["traces"].as_array().unwrap() {
        assert_eq!(t["ok"], Value::Bool(false), "{errors}");
    }
    server.shutdown();
}

#[test]
fn health_reports_slo_and_metrics_publish_burn_gauges() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    register_sales(addr, "acme");
    let (status, v) = run_query(addr, "acme", CHART_QUESTION);
    assert_eq!(status, 200, "{v}");

    let (_, _, health) = get(addr, "/v1/health");
    let h = json(&health);
    assert_eq!(h["slo_targets"]["availability"], 0.99, "{health}");
    assert!(h["slo_targets"]["latency_threshold_us"].as_u64() > Some(0));
    let acme = &h["slo"]["acme"];
    assert!(acme["fast"]["requests"].as_u64() >= Some(1), "{health}");
    assert_eq!(acme["fast"]["availability"], 1.0);
    assert_eq!(acme["fast"]["availability_burn"], 0.0);
    assert_eq!(acme["budget_exhausted"], Value::Bool(false));

    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert_eq!(m["gauges"]["slo.availability_burn_fast_pm.acme"], 0);
    assert_eq!(m["gauges"]["slo.budget_exhausted.acme"], 0);
    server.shutdown();
}

#[test]
fn metrics_serve_prometheus_exposition_on_request() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    register_sales(addr, "acme");
    let (status, v) = run_query(addr, "acme", CHART_QUESTION);
    assert_eq!(status, 200, "{v}");

    // Default stays JSON, and the profile endpoint's latency histogram
    // is pre-registered like every other endpoint's.
    let (status, head, body) = get(addr, "/v1/metrics");
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&head, "content-type").as_deref(),
        Some("application/json")
    );
    assert!(
        json(&body)["histograms"]["server.latency.profile_us"].is_object(),
        "{body}"
    );

    // ?format=prometheus switches to text exposition.
    let (status, head, body) = get(addr, "/v1/metrics?format=prometheus");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header_value(&head, "content-type").as_deref(),
        Some("text/plain; version=0.0.4")
    );
    assert!(
        body.contains("# TYPE datalab_server_requests_metrics counter"),
        "{body}"
    );
    assert!(
        body.contains("# TYPE datalab_server_latency_query_us histogram"),
        "{body}"
    );
    assert!(
        body.contains("datalab_server_latency_query_us_bucket{le=\"+Inf\"} 1"),
        "{body}"
    );
    assert!(
        body.contains("datalab_server_latency_query_us_count 1"),
        "{body}"
    );
    assert!(body.contains("datalab_slo_tenants_tracked 1"), "{body}");
    // The counting allocator is installed in this binary, so the
    // republished alloc counters are live.
    let alloc_line = body
        .lines()
        .find(|l| l.starts_with("datalab_alloc_bytes "))
        .unwrap_or_else(|| panic!("no alloc counter in {body}"));
    let bytes: u64 = alloc_line["datalab_alloc_bytes ".len()..]
        .trim()
        .parse()
        .expect("numeric alloc counter");
    assert!(bytes > 0);

    // An Accept header naming openmetrics also selects the text format.
    let (status, head, _) = send_raw(
        addr,
        b"GET /v1/metrics HTTP/1.1\r\nHost: t\r\nAccept: application/openmetrics-text\r\n\r\n",
    );
    assert_eq!(status, 200);
    assert_eq!(
        header_value(&head, "content-type").as_deref(),
        Some("text/plain; version=0.0.4")
    );

    // Unknown formats are a structured 400.
    let (status, _, body) = get(addr, "/v1/metrics?format=xml");
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_request");
    server.shutdown();
}

#[test]
fn profile_endpoint_serves_wall_cpu_and_alloc_weightings() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();

    // Nothing retained yet: an empty profile, still well-formed.
    let (status, head, body) = get(addr, "/v1/profile");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        header_value(&head, "content-type").as_deref(),
        Some("text/plain")
    );
    assert!(body.is_empty(), "{body}");

    register_sales(addr, "acme");
    let (status, v) = run_query(addr, "acme", CHART_QUESTION);
    assert_eq!(status, 200, "{v}");

    // The first completed query is always retained (sampled + slowest),
    // so the wall profile now folds its span tree: every stack starts at
    // the query root and weights are positive integers.
    let (status, _, wall) = get(addr, "/v1/profile?weight=wall");
    assert_eq!(status, 200);
    assert!(!wall.is_empty(), "empty wall profile");
    for line in wall.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack + weight");
        assert!(stack.starts_with("query"), "{line}");
        assert!(weight.parse::<u64>().expect("numeric weight") > 0, "{line}");
    }

    // Alloc weighting is live because this binary installs the counting
    // allocator; the default (no param) matches explicit wall.
    let (status, _, alloc) = get(addr, "/v1/profile?weight=alloc");
    assert_eq!(status, 200);
    assert!(!alloc.is_empty(), "empty alloc profile");
    let (_, _, default_weight) = get(addr, "/v1/profile");
    assert_eq!(default_weight, wall);

    // CPU weighting always answers 200; the body is non-empty exactly
    // where a thread CPU clock exists (Linux/macOS — including CI).
    let (status, _, _cpu) = get(addr, "/v1/profile?weight=cpu");
    assert_eq!(status, 200);

    // Unknown weights are a structured 400.
    let (status, _, body) = get(addr, "/v1/profile?weight=rss");
    assert_eq!(status, 400);
    assert_eq!(error_kind(&body), "bad_request");
    server.shutdown();
}

#[test]
fn slo_gauge_cardinality_is_capped_and_stale_tenants_evicted() {
    let server = boot(ServerConfig {
        slo_max_tenants: 1,
        ..ServerConfig::default()
    });
    let addr = server.addr();

    register_sales(addr, "alpha");
    let (status, v) = run_query(addr, "alpha", CHART_QUESTION);
    assert_eq!(status, 200, "{v}");
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(
        m["gauges"]["slo.availability_burn_fast_pm.alpha"].is_i64()
            || m["gauges"]["slo.availability_burn_fast_pm.alpha"].is_u64(),
        "{metrics}"
    );
    assert_eq!(m["gauges"]["slo.tenants_tracked"], 1);

    // A busier tenant takes the single export slot; alpha's gauges are
    // evicted rather than left stale, but alpha still appears in full
    // on /v1/health and in the uncapped tracked count.
    register_sales(addr, "beta");
    for _ in 0..2 {
        let (status, v) = run_query(addr, "beta", CHART_QUESTION);
        assert_eq!(status, 200, "{v}");
    }
    let (_, _, metrics) = get(addr, "/v1/metrics");
    let m = json(&metrics);
    assert!(
        m["gauges"]["slo.availability_burn_fast_pm.beta"].is_number(),
        "{metrics}"
    );
    assert!(
        m["gauges"]["slo.availability_burn_fast_pm.alpha"].is_null(),
        "alpha gauges survived eviction: {metrics}"
    );
    assert!(
        m["gauges"]["slo.budget_exhausted.alpha"].is_null(),
        "{metrics}"
    );
    assert_eq!(m["gauges"]["slo.tenants_tracked"], 2);
    let (_, _, health) = get(addr, "/v1/health");
    let h = json(&health);
    assert!(h["slo"]["alpha"].is_object(), "{health}");
    assert!(h["slo"]["beta"].is_object(), "{health}");

    // Per-tenant breaker gauges are unaffected by the SLO cap.
    assert!(
        m["gauges"]["llm.breaker.state.alpha"].is_number(),
        "{metrics}"
    );
    server.shutdown();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let server = boot(ServerConfig::default());
    let addr = server.addr();
    let (status, _, _) = get(addr, "/v1/health");
    assert_eq!(status, 200);

    server.shutdown();

    // The listener is gone: either the connect is refused outright or
    // the socket yields no response.
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut stream) => {
            stream
                .set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let _ = stream.write_all(b"GET /v1/health HTTP/1.1\r\n\r\n");
            let mut buf = String::new();
            assert!(
                stream.read_to_string(&mut buf).is_err() || buf.is_empty(),
                "served after shutdown: {buf}"
            );
        }
    }
}

#[test]
fn server_handle_is_send() {
    fn assert_send<T: Send>() {}
    assert_send::<Server>();
    assert_send::<ServerConfig>();
}

/// `body` with the number after every `"key":` replaced by `#`: timings,
/// allocation counts and other figures that differ from run to run.
fn mask(body: &str, keys: &[&str]) -> String {
    let mut out = body.to_string();
    for key in keys {
        let pattern = format!("\"{key}\":");
        let mut from = 0;
        while let Some(at) = out[from..].find(&pattern) {
            let start = from + at + pattern.len();
            let len = out[start..]
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(out.len() - start);
            out.replace_range(start..start + len, "#");
            from = start + 1;
        }
    }
    out
}

/// Golden response bodies. Every body is compared byte for byte, with
/// run-dependent figures masked (see [`mask`]); float fields are masked
/// too and compared as parsed values instead, so their text form may
/// change without changing what a client reads. The tenant name, the
/// question and the unroutable paths carry quotes, backslashes, control
/// characters and non-ASCII text, which pins the escaping of every
/// string the server echoes.
#[test]
fn response_bodies_match_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("datalab-golden-bodies-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = boot(ServerConfig {
        data_dir: Some(dir.clone()),
        fsync: datalab_server::FsyncPolicy::Always,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let tenant = "a\"c\\mé";
    let expect =
        |(status, _, body): (u16, String, String), want: u16, golden: &str, masked: &[&str]| {
            assert_eq!(status, want, "{body}");
            assert_eq!(mask(&body, masked), golden);
            body
        };

    let register = datalab_json::json!({"tenant": tenant, "name": "sales", "csv": SALES_CSV});
    expect(
        post_traced(addr, "/v1/tables", &register.to_string(), "golden-0"),
        200,
        r##"{"ok":true,"tenant":"a\"c\\mé","table":"sales","rows":3}"##,
        &[],
    );
    let question = "draw a bar chart of \"sales\"\tby région\u{1}";
    let query = datalab_json::json!({"tenant": tenant, "question": question});
    expect(
        post_traced(addr, "/v1/query", &query.to_string(), "golden-1"),
        200,
        r##"{"tenant":"a\"c\\mé","workload":"adhoc","trace_id":"golden-1","success":true,"degraded":false,"answer":"rendered a default bar chart of sales {\"mark\":\"bar\",\"data\":\"sales\",\"x\":{\"field\":\"region\"},\"y\":{\"field\":\"amount\",\"aggregate\":\"sum\"},\"filters\":[]}","rewritten_query":"draw a bar chart of \"sales\"\tby région\u0001","plan":["vis_agent"],"tokens":1430,"duration_us":#,"cells_appended":2,"chart":true,"rows":null}"##,
        &["duration_us"],
    );

    let batch = |key: &str| {
        datalab_json::json!({"tenant": tenant, "csv": "region,amount\nnorth,7\n", "idempotency_key": key})
            .to_string()
    };
    expect(
        post_traced(addr, "/v1/tables/sales/rows", &batch("k\"1"), "golden-2"),
        200,
        r##"{"ok":true,"tenant":"a\"c\\mé","table":"sales","deduplicated":false,"appended":1,"updated":0,"invalidated_cells":1}"##,
        &[],
    );
    expect(
        post_traced(addr, "/v1/tables/sales/rows", &batch("k\"1"), "golden-3"),
        200,
        r##"{"ok":true,"tenant":"a\"c\\mé","table":"sales","deduplicated":true,"appended":0,"updated":0,"invalidated_cells":0}"##,
        &[],
    );
    expect(
        get_traced(addr, &format!("/v1/tables?tenant={tenant}"), "golden-4"),
        200,
        r##"{"tenant":"a\"c\\mé","count":1,"tables":[{"name":"sales","rows":4,"columns":2}]}"##,
        &[],
    );

    expect(
        get_traced(addr, "/v1/nope\"\t\u{1}é\\", "golden-5"),
        404,
        r##"{"error":{"kind":"not_found","detail":"no route for GET /v1/nope\"\t\u0001é\\","trace_id":"golden-5"}}"##,
        &[],
    );
    expect(
        post_traced(addr, "/v1/tables/s\"é\u{7f}/rows", &batch("k2"), "golden-6"),
        404,
        concat!(
            r##"{"error":{"kind":"table_not_found","detail":"tenant `a\"c\\mé` has no table `s\"é"##,
            "\u{7f}",
            r##"`","trace_id":"golden-6"}}"##
        ),
        &[],
    );
    expect(
        post_traced(addr, "/v1/query", "{\"tenant\":\"x\",}", "golden-7"),
        400,
        r##"{"error":{"kind":"bad_request","detail":"invalid JSON: expected `\"` at byte 14","trace_id":"golden-7"}}"##,
        &[],
    );

    let floats = [
        "availability",
        "latency_goal",
        "latency_ok_ratio",
        "availability_burn",
        "latency_burn",
    ];
    let health = expect(
        get_traced(addr, "/v1/health", "golden-8"),
        200,
        r##"{"status":"ok","uptime_us":#,"sessions":1,"queue_depth":0,"breakers":{"a\"c\\mé":"closed"},"storage":{"read_only":false,"consecutive_failures":0,"flush_errors":0,"fsync_backlog_bytes":0,"last_error":null},"slo_targets":{"availability":#,"latency_threshold_us":2000000,"latency_goal":#},"slo":{"a\"c\\mé":{"fast":{"requests":1,"good":1,"fast_enough":1,"availability":#,"latency_ok_ratio":#,"availability_burn":#,"latency_burn":#},"slow":{"requests":1,"good":1,"fast_enough":1,"availability":#,"latency_ok_ratio":#,"availability_burn":#,"latency_burn":#},"budget_exhausted":false}}}"##,
        &[&["uptime_us"][..], &floats].concat(),
    );
    let h = json(&health);
    assert_eq!(h["slo_targets"]["availability"], 0.99);
    assert_eq!(h["slo_targets"]["latency_goal"], 0.95);
    for window in ["fast", "slow"] {
        let w = &h["slo"][tenant][window];
        assert_eq!(w["availability"], 1.0, "{health}");
        assert_eq!(w["latency_ok_ratio"], 1.0, "{health}");
        assert_eq!(w["availability_burn"], 0.0, "{health}");
        assert_eq!(w["latency_burn"], 0.0, "{health}");
    }

    let timings = [
        "duration_us",
        "start_us",
        "dur_us",
        "cpu_us",
        "allocs",
        "alloc_bytes",
        "ts",
        "dur",
    ];
    expect(
        get_traced(addr, "/v1/traces", "golden-9"),
        200,
        r##"{"seen":1,"retained":1,"traces":[{"trace_id":"golden-1","tenant":"a\"c\\mé","workload":"adhoc","status":200,"ok":true,"duration_us":#,"reason":"slow","seq":1,"spans":16,"events":0}]}"##,
        &timings,
    );
    expect(
        get_traced(addr, "/v1/traces/golden-1", "golden-10"),
        200,
        concat!(
            r##"{"trace_id":"golden-1","tenant":"a\"c\\mé","workload":"adhoc","status":200,"ok":true,"duration_us":#,"reason":"slow","spans":["##,
            r##"{"name":"query","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","question":"draw a bar chart of \"sales\"\tby région\u0001"},"children":["##,
            r##"{"name":"rewrite","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1"},"children":[]},"##,
            r##"{"name":"ground","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1"},"children":[]},"##,
            r##"{"name":"plan","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1"},"children":["##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]}]},"##,
            r##"{"name":"execute","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","subtasks":"1"},"children":["##,
            r##"{"name":"agent:vis_agent","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","context_units":"0"},"children":["##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]},"##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]},"##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]},"##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]},"##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]}]}]},"##,
            r##"{"name":"synthesize","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1"},"children":["##,
            r##"{"name":"llm:transport","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","outcome":"ok","attempts":"1"},"children":[]}]},"##,
            r##"{"name":"notebook","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"trace_id":"golden-1","cells":"2"},"children":[]}]},"##,
            r##"{"name":"store:fsync","start_us":#,"dur_us":#,"cpu_us":#,"allocs":#,"alloc_bytes":#,"attrs":{"tenant":"a\"c\\mé"},"children":[]}],"events":[],"chrome_trace":{"traceEvents":["##,
            r##"{"name":"query","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","question":"draw a bar chart of \"sales\"\tby région\u0001"}},"##,
            r##"{"name":"rewrite","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1"}},"##,
            r##"{"name":"ground","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1"}},"##,
            r##"{"name":"plan","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"execute","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","subtasks":"1"}},"##,
            r##"{"name":"agent:vis_agent","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","context_units":"0"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"synthesize","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1"}},"##,
            r##"{"name":"llm:transport","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","outcome":"ok","attempts":"1"}},"##,
            r##"{"name":"notebook","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"trace_id":"golden-1","cells":"2"}},"##,
            r##"{"name":"store:fsync","cat":"datalab","ph":"X","ts":#,"dur":#,"pid":1,"tid":1,"args":{"tenant":"a\"c\\mé"}}],"displayTimeUnit":"ms"}}"##,
        ),
        &timings,
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
