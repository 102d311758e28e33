//! The HTTP server: acceptor, worker pool, routing, and shutdown.
//!
//! Request lifecycle:
//!
//! 1. The acceptor thread accepts a connection and `try_push`es it onto
//!    the bounded job queue. A full queue answers `429` with
//!    `Retry-After` right on the acceptor thread — overload is shed
//!    before it can consume a worker.
//! 2. A worker pops the connection, reads and routes the request, and
//!    writes exactly one JSON response. Routing runs inside
//!    `catch_unwind`, so a panic in platform code costs one `500`, never
//!    a worker thread.
//! 3. `shutdown` stops the acceptor, closes the queue, and joins the
//!    workers — queued and in-flight requests drain to completion.
//!
//! Every request carries a trace ID — the client's `X-Trace-Id` header
//! when present and valid, a server-derived one otherwise. The ID is
//! threaded through the platform (tagging spans, events, and LLM
//! transport attempts), echoed on every response, and written into
//! every error body. Completed queries land in a bounded tail-sampled
//! [`TraceStore`] served by `GET /v1/traces`, and feed the per-tenant
//! [`SloTracker`] surfaced by `/v1/health` and `/v1/metrics`.

use crate::admission::{JobQueue, TenantGate};
use crate::http::{linger_close, read_request, HttpError, Request, Response};
use crate::store::{SessionStore, StoreConfig};
use datalab_core::{BreakerState, DataLab, DataLabConfig, RequestContext, LATENCY_BUCKETS_US};
use datalab_json::{json, Map, Value as Json};
use datalab_store::{
    DurabilityConfig, DurableStore, FaultDisk, FaultDiskConfig, FsyncPolicy, SessionRecord,
};
use datalab_telemetry::{
    chrome_trace, folded_stacks, metrics_prometheus, publish_alloc_metrics, EventKind,
    ProfileWeight, SloTargets, SloTracker, SloWindows, SpanNode, Telemetry, TenantSlo, TraceId,
    TraceRecord, TraceStore, TraceStorePolicy, TraceSummary, WindowSli,
};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest tenant name accepted by the API.
pub const MAX_TENANT_LEN: usize = 64;

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Global job-queue capacity; connections beyond it get `429`.
    pub queue_capacity: usize,
    /// Max concurrent in-flight queries per tenant; beyond it, `429`.
    pub per_tenant_inflight: usize,
    /// Total tenant sessions kept resident (LRU-evicted beyond this).
    pub session_capacity: usize,
    /// Session-store shard count.
    pub session_shards: usize,
    /// Per-request deadline in milliseconds; exceeded ⇒ `504`.
    pub deadline_ms: u64,
    /// Socket read/write timeout in milliseconds.
    pub read_timeout_ms: u64,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// Seed for server-minted trace IDs (requests without a valid
    /// `X-Trace-Id` header get `TraceId::derive(trace_seed, counter)`).
    pub trace_seed: u64,
    /// Keep/evict policy for the tail-sampled trace store.
    pub trace_policy: TraceStorePolicy,
    /// Declared per-tenant SLO targets.
    pub slo_targets: SloTargets,
    /// Fast/slow window lengths for SLO burn rates.
    pub slo_windows: SloWindows,
    /// Most tenants whose SLO burn rates are exported as gauges on
    /// `/v1/metrics` (the busiest by fast-window traffic win; everyone
    /// still appears on `/v1/health`). Bounds scrape cardinality: without
    /// a cap, every tenant name that ever queried would mint five gauges
    /// forever.
    pub slo_max_tenants: usize,
    /// Platform configuration for new tenant sessions.
    pub lab_config: DataLabConfig,
    /// Root directory for durable tenant state (snapshot + WAL per
    /// tenant). `None` keeps sessions memory-only: eviction and restarts
    /// lose them, exactly as before durability existed.
    pub data_dir: Option<PathBuf>,
    /// When WAL appends reach stable storage (`always` syncs on the
    /// request path; `interval` bounds loss to one flusher tick; `never`
    /// trusts the page cache). Ignored without `data_dir`.
    pub fsync: FsyncPolicy,
    /// WAL records per tenant between automatic snapshots (0 disables
    /// cadence snapshots). Ignored without `data_dir`.
    pub snapshot_every: u64,
    /// Disk-fault injection beneath the durable store (seeded,
    /// deterministic — the write-path analogue of the model transport's
    /// `ChaosConfig`). `None` leaves every disk call a passthrough.
    /// Ignored without `data_dir`.
    pub faults: Option<FaultDiskConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            per_tenant_inflight: 8,
            session_capacity: 64,
            session_shards: 8,
            deadline_ms: 10_000,
            read_timeout_ms: 2_000,
            max_body_bytes: 4 * 1024 * 1024,
            trace_seed: 7,
            trace_policy: TraceStorePolicy::default(),
            slo_targets: SloTargets::default(),
            slo_windows: SloWindows::default(),
            slo_max_tenants: 32,
            lab_config: DataLabConfig {
                // Serving sessions are long-lived; per-query run records
                // would grow without bound.
                record_runs: false,
                ..DataLabConfig::default()
            },
            data_dir: None,
            fsync: FsyncPolicy::Interval(datalab_store::DEFAULT_FSYNC_INTERVAL),
            snapshot_every: 32,
            faults: None,
        }
    }
}

struct Job {
    stream: TcpStream,
    arrived: Instant,
}

struct ServerInner {
    config: ServerConfig,
    store: SessionStore,
    durable: Option<Arc<DurableStore>>,
    queue: JobQueue<Job>,
    gate: Arc<TenantGate>,
    telemetry: Telemetry,
    traces: TraceStore,
    slo: SloTracker,
    trace_counter: AtomicU64,
    started: Instant,
    shutting_down: AtomicBool,
}

/// A running DataLab serving instance.
pub struct Server {
    inner: Arc<ServerInner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor and worker pool, and returns once the
    /// server is reachable.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;

        let telemetry = Telemetry::default();
        // Pre-register endpoint latency histograms with the shared
        // bucket layout so /v1/metrics shows them from the first scrape.
        for name in [
            "server.latency.query_us",
            "server.latency.tables_us",
            "server.latency.ingest_us",
            "server.latency.health_us",
            "server.latency.metrics_us",
            "server.latency.traces_us",
            "server.latency.profile_us",
        ] {
            telemetry
                .metrics()
                .histogram_with_buckets(name, LATENCY_BUCKETS_US);
        }
        // Pre-register the resilience taxonomy at zero so fault-free
        // scrapes still enumerate it (mirrored from per-tenant sessions
        // after each query).
        for name in [
            "server.resilience.faults",
            "server.resilience.retries",
            "server.resilience.breaker_trips",
            "server.resilience.degraded",
            "server.rejected.breaker",
            "server.rejected.read_only",
        ] {
            telemetry.metrics().incr(name, 0);
        }

        // Durable tenant state: opening the store also starts the
        // interval flusher (when that policy is configured) and
        // pre-registers the `store.*` metric taxonomy.
        let durable = match &config.data_dir {
            Some(dir) => {
                telemetry
                    .metrics()
                    .histogram_with_buckets("server.recovery.latency_us", LATENCY_BUCKETS_US);
                Some(DurableStore::open_with_faults(
                    dir.clone(),
                    DurabilityConfig {
                        fsync: config.fsync,
                        snapshot_every: config.snapshot_every,
                    },
                    telemetry.clone(),
                    config.faults.clone().map(|c| Arc::new(FaultDisk::new(c))),
                )?)
            }
            None => None,
        };

        let store = SessionStore::new(
            StoreConfig {
                capacity: config.session_capacity,
                shards: config.session_shards,
                lab_config: config.lab_config.clone(),
                durable: durable.clone(),
            },
            telemetry.clone(),
        );
        let inner = Arc::new(ServerInner {
            durable,
            queue: JobQueue::new(config.queue_capacity),
            gate: TenantGate::new(config.per_tenant_inflight),
            store,
            telemetry,
            traces: TraceStore::new(config.trace_policy.clone()),
            slo: SloTracker::new(config.slo_targets.clone(), config.slo_windows),
            trace_counter: AtomicU64::new(0),
            started: Instant::now(),
            shutting_down: AtomicBool::new(false),
            config,
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("datalab-acceptor".to_string())
                .spawn(move || accept_loop(listener, &inner))?
        };
        let mut workers = Vec::with_capacity(inner.config.workers.max(1));
        for i in 0..inner.config.workers.max(1) {
            let inner = Arc::clone(&inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("datalab-worker-{i}"))
                    .spawn(move || worker_loop(&inner))?,
            );
        }

        Ok(Server {
            inner,
            addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's telemetry handle (same registry `/v1/metrics`
    /// serves).
    pub fn telemetry(&self) -> &Telemetry {
        &self.inner.telemetry
    }

    /// The durable store backing tenant sessions, when `data_dir` was
    /// configured.
    pub fn durable(&self) -> Option<&Arc<DurableStore>> {
        self.inner.durable.as_ref()
    }

    /// Graceful shutdown: stop accepting, drain queued and in-flight
    /// requests, then join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.inner.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor blocked in `accept` with a throwaway
        // connection; it observes the flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.inner.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Workers are gone, so no appends can race this final sync:
        // graceful shutdown loses nothing regardless of fsync policy.
        if let Some(durable) = &self.inner.durable {
            durable.flush_all();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Mints a trace ID for a request that arrived without a usable
/// `X-Trace-Id` header. Derived from the server seed and a per-server
/// counter, so IDs are deterministic for a given request order.
fn next_trace(inner: &ServerInner) -> TraceId {
    TraceId::derive(
        inner.config.trace_seed,
        inner.trace_counter.fetch_add(1, Ordering::Relaxed),
    )
}

fn accept_loop(listener: TcpListener, inner: &Arc<ServerInner>) {
    for stream in listener.incoming() {
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let timeout = Duration::from_millis(inner.config.read_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        let job = Job {
            stream,
            arrived: Instant::now(),
        };
        match inner.queue.try_push(job) {
            Ok(()) => {
                inner.telemetry.metrics().gauge_add("server.queue.depth", 1);
            }
            Err(job) => {
                // Shed load on the acceptor thread itself. The request
                // is never read, so the trace ID is always server-minted.
                inner.telemetry.metrics().incr("server.rejected.global", 1);
                let trace = next_trace(inner);
                let mut stream = job.stream;
                let _ = error_response(429, "overloaded", "global queue full", &trace)
                    .with_header("Retry-After", "1")
                    .with_header("X-Trace-Id", trace.as_str())
                    .write_to(&mut stream);
                // The unread request would RST the 429 on close; the
                // drain is bounded and shed peers hang up as soon as
                // they see the response, so the acceptor is not stalled.
                linger_close(&mut stream);
            }
        }
    }
}

fn worker_loop(inner: &Arc<ServerInner>) {
    while let Some(job) = inner.queue.pop() {
        inner
            .telemetry
            .metrics()
            .gauge_add("server.queue.depth", -1);
        handle_connection(inner, job);
    }
}

fn handle_connection(inner: &Arc<ServerInner>, mut job: Job) {
    let request = match read_request(&mut job.stream, inner.config.max_body_bytes) {
        Ok(request) => request,
        Err(e) => {
            // The request never parsed, so any client trace header is
            // unreadable: mint a server-side ID for the error body.
            let trace = next_trace(inner);
            let response = match e {
                HttpError::TooLarge(n) => {
                    inner
                        .telemetry
                        .metrics()
                        .incr("platform.errors.bad_request", 1);
                    error_response(
                        413,
                        "too_large",
                        &format!("body of {n} bytes exceeds limit"),
                        &trace,
                    )
                }
                HttpError::BadRequest(why) => {
                    inner
                        .telemetry
                        .metrics()
                        .incr("platform.errors.bad_request", 1);
                    error_response(400, "bad_request", &why, &trace)
                }
                // Read timeouts / resets: nothing useful to send.
                HttpError::Io(_) => return,
            };
            let _ = response
                .with_header("X-Trace-Id", trace.as_str())
                .write_to(&mut job.stream);
            // The request body (if any) was never consumed; a plain
            // close would RST the error response off the wire.
            linger_close(&mut job.stream);
            return;
        }
    };

    // Propagate the caller's trace ID when it is present and valid;
    // otherwise derive one so every response is traceable.
    let trace = request
        .header("x-trace-id")
        .and_then(TraceId::parse)
        .unwrap_or_else(|| next_trace(inner));

    let handled = catch_unwind(AssertUnwindSafe(|| {
        route(inner, &request, &trace, job.arrived)
    }));
    let response = handled.unwrap_or_else(|_| {
        inner.telemetry.metrics().incr("server.errors.panic", 1);
        error_response(500, "internal", "request handler panicked", &trace)
    });
    // The trace ID is echoed on every response — success or error —
    // exactly once, here.
    let _ = response
        .with_header("X-Trace-Id", trace.as_str())
        .write_to(&mut job.stream);
}

fn route(
    inner: &Arc<ServerInner>,
    request: &Request,
    trace: &TraceId,
    arrived: Instant,
) -> Response {
    let begun = Instant::now();
    // Match on the path alone so `/v1/traces?tenant=acme` routes; the
    // query string is re-parsed by handlers that take parameters.
    let path = request.target.split(['?', '#']).next().unwrap_or("");
    let (histogram, response) = match (request.method.as_str(), path) {
        ("GET", "/v1/health") => ("server.latency.health_us", health(inner)),
        ("GET", "/v1/metrics") => ("server.latency.metrics_us", metrics(inner, request, trace)),
        ("GET", "/v1/profile") => ("server.latency.profile_us", profile(inner, request, trace)),
        ("GET", "/v1/traces") => (
            "server.latency.traces_us",
            traces_index(inner, request, trace),
        ),
        ("GET", path) if path.starts_with("/v1/traces/") => (
            "server.latency.traces_us",
            trace_detail(inner, &path["/v1/traces/".len()..], trace),
        ),
        ("GET", "/v1/tables") => (
            "server.latency.tables_us",
            tables_index(inner, request, trace),
        ),
        ("POST", "/v1/tables") => ("server.latency.tables_us", tables(inner, request, trace)),
        ("POST", path) if path.starts_with("/v1/tables/") && path.ends_with("/rows") => {
            let name = &path["/v1/tables/".len()..path.len() - "/rows".len()];
            (
                "server.latency.ingest_us",
                ingest(inner, request, trace, name),
            )
        }
        ("POST", "/v1/query") => (
            "server.latency.query_us",
            query(inner, request, trace, arrived),
        ),
        _ => {
            inner
                .telemetry
                .metrics()
                .incr("platform.errors.not_found", 1);
            let detail = format!("no route for {} {}", request.method, request.target);
            return error_response(404, "not_found", &detail, trace);
        }
    };
    inner
        .telemetry
        .metrics()
        .observe(histogram, begun.elapsed().as_micros() as u64);
    response
}

fn health(inner: &Arc<ServerInner>) -> Response {
    inner.telemetry.metrics().incr("server.requests.health", 1);
    // Per-tenant circuit-breaker states, from the gauges each query
    // refreshes. Empty until a tenant has queried.
    let mut breakers = Map::new();
    for (name, value) in inner.telemetry.metrics().snapshot().gauges {
        if let Some(tenant) = name.strip_prefix("llm.breaker.state.") {
            let state = BreakerState::from_gauge(value).as_str();
            breakers.push(tenant.to_string(), json!(state));
        }
    }
    // Per-tenant SLO burn rates over the fast/slow windows. Empty until
    // a tenant has an admitted query on record.
    let mut slo = Map::new();
    for (tenant, report) in inner.slo.report() {
        slo.push(tenant, tenant_slo_json(&report));
    }
    let targets = inner.slo.targets();
    // Write-path health: the durable store's read-only flag, failure
    // counters, and fsync backlog. `null` without a data_dir.
    let storage = inner.durable.as_ref().map(|durable| {
        let h = durable.storage_health();
        json!({
            "read_only": h.read_only,
            "consecutive_failures": h.consecutive_failures,
            "flush_errors": h.flush_errors,
            "fsync_backlog_bytes": h.fsync_backlog_bytes,
            "last_error": h.last_error,
        })
    });
    Response::json(
        200,
        json!({
            "status": "ok",
            "uptime_us": inner.started.elapsed().as_micros() as u64,
            "sessions": inner.store.len(),
            "queue_depth": inner.queue.depth(),
            "breakers": Json::Object(breakers),
            "storage": storage,
            "slo_targets": {
                "availability": targets.availability,
                "latency_threshold_us": targets.latency_threshold_us,
                "latency_goal": targets.latency_goal,
            },
            "slo": Json::Object(slo),
        }),
    )
}

/// One SLI window as JSON.
fn window_json(w: &WindowSli) -> Json {
    json!({
        "requests": w.requests,
        "good": w.good,
        "fast_enough": w.fast_enough,
        "availability": w.availability,
        "latency_ok_ratio": w.latency_ok_ratio,
        "availability_burn": w.availability_burn,
        "latency_burn": w.latency_burn,
    })
}

/// A tenant's fast/slow SLO windows plus the multi-window verdict.
fn tenant_slo_json(t: &TenantSlo) -> Json {
    json!({
        "fast": window_json(&t.fast),
        "slow": window_json(&t.slow),
        "budget_exhausted": t.budget_exhausted(),
    })
}

/// The tenant component of a per-tenant `slo.*` gauge name; `None` for
/// every other gauge (including the scalar `slo.tenants_tracked`).
fn slo_gauge_tenant(name: &str) -> Option<&str> {
    [
        "slo.availability_burn_fast_pm.",
        "slo.availability_burn_slow_pm.",
        "slo.latency_burn_fast_pm.",
        "slo.latency_burn_slow_pm.",
        "slo.budget_exhausted.",
    ]
    .iter()
    .find_map(|prefix| name.strip_prefix(prefix))
}

/// Publishes per-tenant SLO burn rates as gauges (per-mille, so the
/// integer gauge registry can carry them) right before a scrape.
///
/// Export cardinality is bounded by `slo_max_tenants`: only the busiest
/// tenants by fast-window traffic (name-ordered on ties, so the cut is
/// deterministic) keep their gauges, and gauges belonging to tenants that
/// fell out of the export set — idle or out-ranked — are evicted rather
/// than left to accumulate. `slo.tenants_tracked` always reports the
/// uncapped tenant count so the cap itself is observable.
fn publish_slo_gauges(inner: &Arc<ServerInner>) {
    let m = inner.telemetry.metrics();
    let mut ranked = inner.slo.report();
    let tracked = ranked.len();
    ranked.sort_by(|a, b| {
        b.1.fast
            .requests
            .cmp(&a.1.fast.requests)
            .then_with(|| a.0.cmp(&b.0))
    });
    ranked.truncate(inner.config.slo_max_tenants);
    m.retain_gauges(|name| match slo_gauge_tenant(name) {
        Some(tenant) => ranked.iter().any(|(t, _)| t == tenant),
        None => true,
    });
    for (tenant, report) in &ranked {
        let pm = |burn: f64| (burn * 1000.0).round() as i64;
        m.gauge_set(
            &format!("slo.availability_burn_fast_pm.{tenant}"),
            pm(report.fast.availability_burn),
        );
        m.gauge_set(
            &format!("slo.availability_burn_slow_pm.{tenant}"),
            pm(report.slow.availability_burn),
        );
        m.gauge_set(
            &format!("slo.latency_burn_fast_pm.{tenant}"),
            pm(report.fast.latency_burn),
        );
        m.gauge_set(
            &format!("slo.latency_burn_slow_pm.{tenant}"),
            pm(report.slow.latency_burn),
        );
        m.gauge_set(
            &format!("slo.budget_exhausted.{tenant}"),
            i64::from(report.budget_exhausted()),
        );
    }
    m.gauge_set("slo.tenants_tracked", tracked as i64);
}

/// `GET /v1/metrics[?format=json|prometheus]`: the full registry
/// snapshot. JSON by default; `?format=prometheus` (or an `Accept`
/// header naming `openmetrics` or `text/plain`) switches to
/// Prometheus/OpenMetrics text exposition with cumulative histogram
/// buckets. Allocator totals are republished right before either
/// rendering, so scrapes see current `alloc.*` counters.
fn metrics(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.metrics", 1);
    publish_slo_gauges(inner);
    let accept_prometheus = request
        .header("accept")
        .is_some_and(|a| a.contains("openmetrics") || a.contains("text/plain"));
    let prometheus = match query_param(request.target.as_str(), "format") {
        None => accept_prometheus,
        Some("json") => false,
        Some("prometheus") => true,
        Some(other) => {
            inner
                .telemetry
                .metrics()
                .incr("platform.errors.bad_request", 1);
            let detail = format!("unknown format `{other}` (want `json` or `prometheus`)");
            return error_response(400, "bad_request", &detail, trace);
        }
    };
    if prometheus {
        publish_alloc_metrics(inner.telemetry.metrics());
        let snapshot = inner.telemetry.metrics().snapshot();
        Response::text(
            200,
            "text/plain; version=0.0.4",
            metrics_prometheus(&snapshot),
        )
    } else {
        Response::json(200, inner.telemetry.snapshot_json())
    }
}

/// `GET /v1/profile[?weight=wall|cpu|alloc|alloc_count]`: the retained
/// traces' span forest folded into collapsed-stack (flamegraph) format.
/// CPU and alloc weightings are empty unless the serving binary has a
/// thread CPU clock / the counting allocator installed.
fn profile(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.profile", 1);
    let weight = match query_param(request.target.as_str(), "weight") {
        None => ProfileWeight::Wall,
        Some(raw) => match ProfileWeight::parse(raw) {
            Some(weight) => weight,
            None => {
                inner
                    .telemetry
                    .metrics()
                    .incr("platform.errors.bad_request", 1);
                let detail = format!(
                    "unknown weight `{raw}` (want `wall`, `cpu`, `alloc`, or `alloc_count`)"
                );
                return error_response(400, "bad_request", &detail, trace);
            }
        },
    };
    let folded = folded_stacks(&inner.traces.span_forest(), weight);
    Response::text(200, "text/plain", folded)
}

/// Extracts a query-string parameter from a request target.
///
/// No percent-decoding: trace IDs, tenant names, and the other accepted
/// values are already restricted to characters that need no escaping.
fn query_param<'a>(target: &'a str, name: &str) -> Option<&'a str> {
    let (_, raw) = target.split_once('?')?;
    let raw = raw.split('#').next().unwrap_or("");
    raw.split('&').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// One retained trace's summary line for the `/v1/traces` index.
fn trace_summary_json(t: &TraceSummary) -> Json {
    json!({
        "trace_id": t.trace_id,
        "tenant": t.tenant,
        "workload": t.workload,
        "status": t.status,
        "ok": t.ok,
        "duration_us": t.duration_us,
        "reason": t.reason.as_str(),
        "seq": t.seq,
        "spans": t.spans,
        "events": t.events,
    })
}

/// `GET /v1/traces[?tenant=..&status=ok|error&limit=N]`: newest-first
/// summaries of the retained traces.
fn traces_index(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.traces", 1);
    let target = request.target.as_str();
    let tenant = query_param(target, "tenant");
    let only_errors = match query_param(target, "status") {
        None => None,
        Some("ok") => Some(false),
        Some("error") => Some(true),
        Some(other) => {
            let detail = format!("unknown status filter `{other}` (want `ok` or `error`)");
            return error_response(400, "bad_request", &detail, trace);
        }
    };
    let limit = match query_param(target, "limit") {
        None => 50,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if (1..=500).contains(&n) => n,
            _ => {
                let detail = format!("`limit` must be an integer in 1..=500, got `{raw}`");
                return error_response(400, "bad_request", &detail, trace);
            }
        },
    };
    let summaries: Vec<Json> = inner
        .traces
        .summaries(tenant, only_errors, limit)
        .iter()
        .map(trace_summary_json)
        .collect();
    Response::json(
        200,
        json!({
            "seen": inner.traces.seen(),
            "retained": inner.traces.len(),
            "traces": summaries,
        }),
    )
}

/// `GET /v1/traces/:id`: the full retained trace — span tree, flight
/// record, and a ready-to-load Chrome trace export.
fn trace_detail(inner: &Arc<ServerInner>, id: &str, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.traces", 1);
    let Some(stored) = inner.traces.get(id) else {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.not_found", 1);
        let detail = format!("no retained trace with id `{id}`");
        return error_response(404, "trace_not_found", &detail, trace);
    };
    let record = &stored.record;
    Response::json(
        200,
        json!({
            "trace_id": record.trace_id,
            "tenant": record.tenant,
            "workload": record.workload,
            "status": record.status,
            "ok": record.ok,
            "duration_us": record.duration_us,
            "reason": stored.reason.as_str(),
            "spans": record.spans,
            "events": record.events,
            "chrome_trace": chrome_trace(&record.spans),
        }),
    )
}

/// Parses the body as a JSON object and validates the `tenant` field
/// shared by both POST endpoints.
fn parse_body(
    inner: &Arc<ServerInner>,
    request: &Request,
    trace: &TraceId,
) -> Result<(Json, String), Response> {
    let fail = |detail: &str| {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.bad_request", 1);
        Err(error_response(400, "bad_request", detail, trace))
    };
    let Some(text) = request.body_utf8() else {
        return fail("body is not valid UTF-8");
    };
    let body = match Json::parse(text) {
        Ok(body) => body,
        Err(e) => return fail(&format!("invalid JSON: {e}")),
    };
    let Some(tenant) = body.str_field("tenant") else {
        return fail("missing string field `tenant`");
    };
    if tenant.is_empty() || tenant.len() > MAX_TENANT_LEN {
        return fail(&format!("`tenant` must be 1..={MAX_TENANT_LEN} bytes"));
    }
    if tenant.chars().any(|c| c.is_control()) {
        return fail("`tenant` must not contain control characters");
    }
    let tenant = tenant.to_string();
    Ok((body, tenant))
}

/// Write-through to the durable store: appends `record` to the tenant's
/// WAL and, when the snapshot cadence fires, captures the session's
/// durable state and snapshots it (truncating the WAL). Must be called
/// with the session lock held, so WAL order is execution order and the
/// captured state reflects every appended record. Returns the fsync
/// stall in microseconds when the policy synced on the request path.
///
/// Persistence failures (disk full, dead volume) degrade to memory-only
/// serving: the request already succeeded against session state, so the
/// client gets its answer while the failure lands in the metrics and
/// the flight recorder.
fn persist(
    inner: &Arc<ServerInner>,
    tenant: &str,
    lab: &mut DataLab,
    record: &SessionRecord,
) -> Option<u64> {
    let durable = inner.durable.as_ref()?;
    let receipt = match durable.append(tenant, record) {
        Ok(receipt) => receipt,
        Err(e) => {
            inner.telemetry.metrics().incr("store.append_failures", 1);
            inner
                .telemetry
                .record_event(EventKind::PlatformError, format!("wal append: {e}"));
            return None;
        }
    };
    if receipt.snapshot_due {
        snapshot_session(inner, tenant, lab);
    }
    receipt.fsync_stall_us
}

/// Captures the session's durable state and snapshots it (truncating
/// the WAL). Must be called with the session lock held. Snapshot
/// failures are non-fatal — the WAL still holds every record.
fn snapshot_session(inner: &Arc<ServerInner>, tenant: &str, lab: &DataLab) {
    let Some(durable) = inner.durable.as_ref() else {
        return;
    };
    if let Err(e) = durable.snapshot(tenant, &lab.durable_state()) {
        inner.telemetry.metrics().incr("store.snapshot_failures", 1);
        inner
            .telemetry
            .record_event(EventKind::PlatformError, format!("snapshot: {e}"));
    }
}

/// `GET /v1/tables?tenant=NAME`: the tenant's registered tables with
/// row/column counts, in registration order. Serves from the resident
/// session, recovering it from durable state first if it was evicted
/// (or the server restarted).
fn tables_index(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.tables", 1);
    let fail = |detail: &str| {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.bad_request", 1);
        error_response(400, "bad_request", detail, trace)
    };
    let Some(tenant) = query_param(request.target.as_str(), "tenant") else {
        return fail("missing query parameter `tenant`");
    };
    if tenant.is_empty() || tenant.len() > MAX_TENANT_LEN {
        return fail(&format!("`tenant` must be 1..={MAX_TENANT_LEN} bytes"));
    }
    if tenant.chars().any(|c| c.is_control()) {
        return fail("`tenant` must not contain control characters");
    }
    // Only materialise a session for tenants that exist somewhere —
    // resident in memory or recoverable from disk. Anything else would
    // let listing probes fill the store with empty sessions.
    let durable_has = inner
        .durable
        .as_ref()
        .is_some_and(|durable| durable.has_tenant(tenant));
    if !inner.store.contains(tenant) && !durable_has {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.not_found", 1);
        let detail = format!("no session or durable state for tenant `{tenant}`");
        return error_response(404, "tenant_not_found", &detail, trace);
    }
    let session = inner.store.session(tenant);
    let lab = session.lock().unwrap_or_else(|p| p.into_inner());
    let db = lab.database();
    let tables: Vec<Json> = db
        .table_names()
        .iter()
        .filter_map(|name| {
            let df = db.get(name).ok()?;
            Some(json!({
                "name": name,
                "rows": df.n_rows(),
                "columns": df.schema().fields().len(),
            }))
        })
        .collect();
    Response::json(
        200,
        json!({"tenant": tenant, "count": tables.len(), "tables": tables}),
    )
}

fn tables(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId) -> Response {
    inner.telemetry.metrics().incr("server.requests.tables", 1);
    let (body, tenant) = match parse_body(inner, request, trace) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let (Some(name), Some(csv)) = (body.str_field("name"), body.str_field("csv")) else {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.bad_request", 1);
        return error_response(
            400,
            "bad_request",
            "missing string fields `name` and `csv`",
            trace,
        );
    };

    let session = inner.store.session(&tenant);
    let mut lab = session.lock().unwrap_or_else(|p| p.into_inner());
    match lab.register_csv(name, csv) {
        Ok(()) => {
            persist(
                inner,
                &tenant,
                &mut lab,
                &SessionRecord::RegisterCsv {
                    name: name.to_string(),
                    csv: csv.to_string(),
                },
            );
            let rows = lab.database().get(name).map(|df| df.n_rows()).unwrap_or(0);
            Response::json(
                200,
                json!({"ok": true, "tenant": tenant, "table": name, "rows": rows}),
            )
        }
        Err(e) => error_response(400, "table_register", &e.to_string(), trace),
    }
}

/// `POST /v1/tables/:name/rows`: appends (or upserts, with
/// `key_column`) one batch of CSV rows to a registered table. The batch
/// is one atomic WAL record — committed *before* the in-memory apply,
/// so an acknowledged batch survives a crash and a failed append
/// changes nothing. The client-supplied `idempotency_key` makes retries
/// safe: a key that already applied returns `deduplicated` without
/// touching the table, at request time and at WAL replay alike.
///
/// When the durable store has degraded to read-only (persistent disk
/// faults), the batch is rejected with `503` + `Retry-After` before any
/// state changes; reads keep serving from memory.
fn ingest(inner: &Arc<ServerInner>, request: &Request, trace: &TraceId, name: &str) -> Response {
    inner.telemetry.metrics().incr("server.requests.ingest", 1);
    if name.is_empty() || name.contains('/') {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.not_found", 1);
        let detail = format!("no route for POST {}", request.target);
        return error_response(404, "not_found", &detail, trace);
    }
    let (body, tenant) = match parse_body(inner, request, trace) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let fail = |detail: &str| {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.bad_request", 1);
        error_response(400, "bad_request", detail, trace)
    };
    let (Some(csv), Some(key)) = (body.str_field("csv"), body.str_field("idempotency_key")) else {
        return fail("missing string fields `csv` and `idempotency_key`");
    };
    if key.is_empty() || key.len() > 128 || key.chars().any(|c| c.is_control()) {
        return fail("`idempotency_key` must be 1..=128 bytes with no control characters");
    }
    let key_column = body.str_field("key_column");

    // Like `GET /v1/tables`, only materialise sessions for tenants that
    // exist somewhere; the table requirement below keeps fresh sessions
    // from being writable anyway.
    let durable_has = inner
        .durable
        .as_ref()
        .is_some_and(|durable| durable.has_tenant(&tenant));
    if !inner.store.contains(&tenant) && !durable_has {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.not_found", 1);
        let detail = format!("no session or durable state for tenant `{tenant}`");
        return error_response(404, "tenant_not_found", &detail, trace);
    }

    let session = inner.store.session(&tenant);
    let mut lab = session.lock().unwrap_or_else(|p| p.into_inner());

    // Retry of an already-applied batch: acknowledge without touching
    // the table or the WAL.
    if lab.ingest_seen(key) {
        inner
            .telemetry
            .metrics()
            .incr("server.ingest.deduplicated", 1);
        return Response::json(
            200,
            json!({
                "ok": true,
                "tenant": tenant,
                "table": name,
                "deduplicated": true,
                "appended": 0,
                "updated": 0,
                "invalidated_cells": 0,
            }),
        );
    }

    // The path names the target resource, so a missing table is a 404,
    // not a validation error.
    if lab.database().get(name).is_err() {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.not_found", 1);
        let detail = format!("tenant `{tenant}` has no table `{name}`");
        return error_response(404, "table_not_found", &detail, trace);
    }

    // Validate before committing anything, so a WAL record, once
    // durable, always applies on replay.
    if let Err(e) = lab.validate_ingest(name, csv, key_column) {
        return error_response(400, "ingest", &e.to_string(), trace);
    }

    // Durability-first: the batch reaches the WAL before memory. A
    // rejected or failed append leaves both the table and the WAL's
    // applied state untouched — all-or-nothing.
    let mut snapshot_due = false;
    if let Some(durable) = &inner.durable {
        if !durable.write_allowed() {
            inner
                .telemetry
                .metrics()
                .incr("server.rejected.read_only", 1);
            return error_response(
                503,
                "read_only",
                "durable store is read-only after repeated write failures; retry later",
                trace,
            )
            .with_header("Retry-After", "2");
        }
        let record = SessionRecord::IngestBatch {
            table: name.to_string(),
            rows_csv: csv.to_string(),
            key_column: key_column.map(str::to_string),
            idempotency_key: key.to_string(),
        };
        match durable.append(&tenant, &record) {
            Ok(receipt) => snapshot_due = receipt.snapshot_due,
            Err(e) => {
                inner.telemetry.metrics().incr("store.append_failures", 1);
                inner
                    .telemetry
                    .record_event(EventKind::PlatformError, format!("ingest append: {e}"));
                return error_response(
                    503,
                    "storage_unavailable",
                    &format!("could not commit batch to the write-ahead log: {e}"),
                    trace,
                )
                .with_header("Retry-After", "2");
            }
        }
    }

    // Already validated with the session lock held, so the apply cannot
    // fail; anything else is a bug worth a 500, not a swallow.
    match lab.ingest_rows(name, csv, key_column, key) {
        Ok(outcome) => {
            if snapshot_due {
                snapshot_session(inner, &tenant, &lab);
            }
            inner.telemetry.metrics().incr(
                "server.ingest.rows",
                (outcome.appended + outcome.updated) as u64,
            );
            // The session's own registry is private; mirror the
            // staleness fanout where operators can see it.
            inner
                .telemetry
                .metrics()
                .incr("dag.invalidated", outcome.invalidated_cells.len() as u64);
            Response::json(
                200,
                json!({
                    "ok": true,
                    "tenant": tenant,
                    "table": name,
                    "deduplicated": false,
                    "appended": outcome.appended,
                    "updated": outcome.updated,
                    "invalidated_cells": outcome.invalidated_cells.len(),
                }),
            )
        }
        Err(e) => error_response(500, "ingest_apply", &e.to_string(), trace),
    }
}

fn query(
    inner: &Arc<ServerInner>,
    request: &Request,
    trace: &TraceId,
    arrived: Instant,
) -> Response {
    inner.telemetry.metrics().incr("server.requests.query", 1);
    let (body, tenant) = match parse_body(inner, request, trace) {
        Ok(parsed) => parsed,
        Err(response) => return response,
    };
    let Some(question) = body.str_field("question") else {
        inner
            .telemetry
            .metrics()
            .incr("platform.errors.bad_request", 1);
        return error_response(400, "bad_request", "missing string field `question`", trace);
    };
    let workload = body.str_field("workload").unwrap_or("adhoc");

    let deadline = Duration::from_millis(inner.config.deadline_ms);
    // Queue wait already consumed the whole budget: give up before
    // doing any work. This is a server-side failure, so it counts
    // against the tenant's SLO and leaves a (spanless) error trace.
    if arrived.elapsed() >= deadline {
        inner.telemetry.metrics().incr("server.timeouts", 1);
        let duration_us = arrived.elapsed().as_micros() as u64;
        inner.slo.observe(&tenant, false, duration_us);
        inner.traces.offer(TraceRecord {
            trace_id: trace.as_str().to_string(),
            tenant,
            workload: workload.to_string(),
            status: 504,
            ok: false,
            duration_us,
            spans: Vec::new(),
            events: Vec::new(),
        });
        return error_response(504, "deadline", "deadline exceeded while queued", trace);
    }

    // Admission-control rejections (tenant inflight limit) are client
    // back-pressure, not service failures: excluded from the SLO.
    let Some(_permit) = inner.gate.try_acquire(&tenant) else {
        inner.telemetry.metrics().incr("server.rejected.tenant", 1);
        return error_response(
            429,
            "tenant_overloaded",
            "tenant inflight limit reached",
            trace,
        )
        .with_header("Retry-After", "1");
    };

    let session = inner.store.session(&tenant);
    let ctx = RequestContext::traced(trace.clone());
    let (mut response, breaker, fsync_stall_us) = {
        let mut lab = session.lock().unwrap_or_else(|p| p.into_inner());
        let response = lab.query_with_context(&ctx, workload, question);
        // Persist while still holding the session lock: the WAL's
        // record order is exactly the order queries executed in, which
        // is what deterministic replay needs.
        let fsync_stall_us = persist(
            inner,
            &tenant,
            &mut lab,
            &SessionRecord::Query {
                workload: workload.to_string(),
                question: question.to_string(),
            },
        );
        let breaker = lab.breaker_state();
        (response, breaker, fsync_stall_us)
    };
    let duration_us = arrived.elapsed().as_micros() as u64;

    // Surface the WAL fsync stall (always-policy appends only) in this
    // request's trace as a synthetic span, so durability cost shows up
    // in `/v1/traces/:id` and the `/v1/profile` flamegraph next to the
    // pipeline stages it taxed.
    if let Some(stall_us) = fsync_stall_us {
        let start_us = response
            .telemetry
            .spans
            .last()
            .map(|s| s.start_us + s.dur_us)
            .unwrap_or(0);
        response.telemetry.spans.push(SpanNode {
            name: "store:fsync".to_string(),
            start_us,
            dur_us: stall_us,
            cpu_us: 0,
            allocs: 0,
            alloc_bytes: 0,
            attrs: vec![("tenant".to_string(), tenant.clone())],
            children: Vec::new(),
        });
    }

    // Attribute usage before the deadline check so even timed-out work
    // is billed to its tenant.
    let tokens = response.telemetry.total.total();
    inner
        .telemetry
        .metrics()
        .incr(&format!("server.tenant.tokens.{tenant}"), tokens);
    inner
        .telemetry
        .metrics()
        .incr(&format!("server.tenant.queries.{tenant}"), 1);

    // Mirror the session's per-query resilience deltas into the serving
    // registry, and publish this tenant's breaker state for /v1/health.
    let m = inner.telemetry.metrics();
    m.incr("server.resilience.faults", response.resilience.faults);
    m.incr(
        "server.resilience.retries",
        response.resilience.transport_retries,
    );
    m.incr(
        "server.resilience.breaker_trips",
        response.resilience.breaker_trips,
    );
    m.incr("server.resilience.degraded", response.resilience.degraded);
    m.gauge_set(&format!("llm.breaker.state.{tenant}"), breaker as i64);

    // A query that failed while the transport was down (breaker open or
    // retries exhausted) is a service-level outage for this tenant, not a
    // semantic failure: tell the client to back off and retry.
    let outage =
        !response.success && (breaker == BreakerState::Open || response.resilience.faults > 0);
    // The platform query is uninterruptible, so a blown deadline is
    // detected after the fact: the session state advanced, but the
    // client gets the timeout it was promised.
    let timed_out = !outage && arrived.elapsed() >= deadline;

    let http_response = if outage {
        inner.telemetry.metrics().incr("server.rejected.breaker", 1);
        error_response(
            503,
            "transport_unavailable",
            "model transport unavailable (circuit breaker open or retries exhausted)",
            trace,
        )
        .with_header("Retry-After", "1")
    } else if timed_out {
        inner.telemetry.metrics().incr("server.timeouts", 1);
        error_response(504, "deadline", "deadline exceeded during execution", trace)
    } else {
        let rows = response.frame.as_ref().map(|df| df.n_rows());
        Response::json(
            200,
            json!({
                "tenant": tenant,
                "workload": workload,
                "trace_id": trace.as_str(),
                "success": response.success,
                "degraded": response.degraded,
                "answer": response.answer,
                "rewritten_query": response.rewritten_query,
                "plan": response.plan,
                "tokens": tokens,
                "duration_us": duration_us,
                "cells_appended": response.new_cells.len(),
                "chart": response.chart.is_some(),
                "rows": rows,
            }),
        )
    };

    // Every admitted query — success, outage, or timeout — is an SLO
    // observation and a candidate for the tail-sampled trace store.
    let status: u16 = if outage {
        503
    } else if timed_out {
        504
    } else {
        200
    };
    inner.slo.observe(&tenant, status < 500, duration_us);
    inner.traces.offer(TraceRecord {
        trace_id: trace.as_str().to_string(),
        tenant,
        workload: workload.to_string(),
        status,
        ok: status < 500,
        duration_us,
        spans: response.telemetry.spans,
        events: response.flight_record,
    });

    http_response
}

/// The uniform error body:
/// `{"error":{"kind":"...","detail":"...","trace_id":"..."}}`.
///
/// Every error carries the request's trace ID in the body as well as in
/// the `X-Trace-Id` header, so clients that only log bodies can still
/// correlate failures with `/v1/traces/:id`.
fn error_response(status: u16, kind: &str, detail: &str, trace: &TraceId) -> Response {
    Response::json(
        status,
        json!({"error": {"kind": kind, "detail": detail, "trace_id": trace.as_str()}}),
    )
}
