//! Open-loop load generator for the DataLab serving layer.
//!
//! Replays the deterministic fleet request corpus over real sockets at a
//! target request rate, then prints and writes a latency/error report:
//!
//! ```text
//! cargo run -p datalab-bench --bin loadgen -- [--addr HOST:PORT | --boot]
//!     [--rps N] [--duration 10s] [--seed N] [--tasks N]
//!     [--write-rate R] [--chaos-rate R] [--chaos-seed N] [--out PATH]
//! ```
//!
//! `--boot` starts an in-process server on a free port (used by tests
//! and local runs); `--addr` targets an already-running server (used by
//! the CI smoke). `--write-rate R` (0..=1) turns that fraction of slots
//! into `POST /v1/tables/:name/rows` ingest batches interleaved with the
//! queries; write latency and the write 5xx taxonomy are reported
//! separately from reads. `--chaos-rate R > 0` (boot mode only) injects
//! transport faults into every tenant session at total rate R; `503
//! transport_unavailable` responses are then expected back-pressure, not
//! failures. Exit code 0 means the run finished with zero 5xx responses
//! (excluding tolerated chaos 503s) and zero transport errors; anything
//! else exits 1.

use datalab_bench::telemetry_dir;
use datalab_core::{ChaosConfig, DataLabConfig, LATENCY_BUCKETS_US};
use datalab_json::{json, Map};
use datalab_server::{Json, Server, ServerConfig};
use datalab_telemetry::{CountingAlloc, HistogramSnapshot, MetricsRegistry};
use datalab_workloads::request_corpus;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// In `--boot` mode the in-process server shares this process, so the
/// counting allocator gives its spans and `/v1/metrics` real `alloc.*`
/// attribution — the CI serving smoke exercises exactly that path.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    addr: Option<String>,
    boot: bool,
    rps: u64,
    duration: Duration,
    seed: u64,
    tasks: usize,
    write_rate: f64,
    chaos_rate: f64,
    chaos_seed: u64,
    out: Option<PathBuf>,
}

#[derive(Debug)]
struct Sample {
    status: u16,
    latency_us: u64,
    workload: String,
    write: bool,
    error_kind: Option<String>,
}

/// Precomputed ingest material for one corpus table: a write slot sends
/// the header plus one recycled data row (always schema-compatible).
struct IngestTarget {
    tenant: String,
    name: String,
    header: String,
    rows: Vec<String>,
}

fn parse_duration(text: &str) -> Result<Duration, String> {
    let digits = text.strip_suffix('s').unwrap_or(text);
    digits
        .parse::<u64>()
        .map(Duration::from_secs)
        .map_err(|e| format!("--duration: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        addr: None,
        boot: false,
        rps: 50,
        duration: Duration::from_secs(10),
        seed: 7,
        tasks: 3,
        write_rate: 0.0,
        chaos_rate: 0.0,
        chaos_seed: 7,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} expects a value"));
        match arg.as_str() {
            "--addr" => parsed.addr = Some(take("--addr")?),
            "--boot" => parsed.boot = true,
            "--rps" => parsed.rps = take("--rps")?.parse().map_err(|e| format!("--rps: {e}"))?,
            "--duration" => parsed.duration = parse_duration(&take("--duration")?)?,
            "--seed" => {
                parsed.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--tasks" => {
                parsed.tasks = take("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?
            }
            "--write-rate" => {
                parsed.write_rate = take("--write-rate")?
                    .parse()
                    .map_err(|e| format!("--write-rate: {e}"))?
            }
            "--chaos-rate" => {
                parsed.chaos_rate = take("--chaos-rate")?
                    .parse()
                    .map_err(|e| format!("--chaos-rate: {e}"))?
            }
            "--chaos-seed" => {
                parsed.chaos_seed = take("--chaos-seed")?
                    .parse()
                    .map_err(|e| format!("--chaos-seed: {e}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(take("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.boot == parsed.addr.is_some() {
        return Err("exactly one of --addr or --boot is required".to_string());
    }
    if parsed.rps == 0 {
        return Err("--rps must be positive".to_string());
    }
    if !(0.0..=1.0).contains(&parsed.write_rate) {
        return Err("--write-rate must be between 0 and 1".to_string());
    }
    if parsed.chaos_rate > 0.0 && !parsed.boot {
        return Err(
            "--chaos-rate requires --boot (faults are injected into the booted server's sessions)"
                .to_string(),
        );
    }
    Ok(parsed)
}

/// One HTTP request over a fresh connection; returns (status, body).
/// A `trace` is sent as `X-Trace-Id` so server-side samples and traces
/// can be correlated with loadgen's own report.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    trace: Option<&str>,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .and_then(|()| stream.set_write_timeout(Some(Duration::from_secs(5))))
        .map_err(|e| format!("timeout: {e}"))?;
    let body = body.unwrap_or("");
    let trace_header = trace
        .map(|t| format!("X-Trace-Id: {t}\r\n"))
        .unwrap_or_default();
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: loadgen\r\n{trace_header}Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(raw.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read: {e}"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {text:?}"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head:?}"))?;
    Ok((status, body.to_string()))
}

/// A latency histogram for the JSON report. Bucket bounds and counts
/// ride along so downstream tools (the SLO report) can compute
/// threshold fractions, not just read the fixed percentiles.
fn latency_json(h: &HistogramSnapshot) -> Json {
    json!({
        "count": h.count,
        "p50": h.p50(),
        "p90": h.p90(),
        "p99": h.p99(),
        "p999": h.p999(),
        "max": h.max,
        "bounds": h.bounds,
        "counts": h.counts,
    })
}

/// Response counts keyed by HTTP status (`0` for transport errors), in
/// numeric order.
fn status_json(statuses: &BTreeMap<u16, u64>) -> Json {
    let mut fields = Map::new();
    for (status, count) in statuses {
        fields.push(status.to_string(), json!(count));
    }
    Json::Object(fields)
}

/// One slice of the run (reads or writes): requests sent, their status
/// counts, error taxonomy and latency.
fn side_json(
    statuses: &BTreeMap<u16, u64>,
    errors: &BTreeMap<String, u64>,
    latency: &HistogramSnapshot,
) -> Json {
    json!({
        "sent": latency.count,
        "statuses": status_json(statuses),
        "errors": errors,
        "latency_us": latency_json(latency),
    })
}

/// Extracts `error.kind` from an error body, tolerating non-JSON.
fn error_kind(body: &str) -> String {
    Json::parse(body)
        .ok()
        .and_then(|v| {
            v.get("error")
                .and_then(|e| e.str_field("kind").map(String::from))
        })
        .unwrap_or_else(|| "unparseable".to_string())
}

fn run() -> Result<u8, String> {
    let args = parse_args()?;

    let booted = if args.boot {
        let config = ServerConfig {
            lab_config: DataLabConfig {
                record_runs: false,
                chaos: (args.chaos_rate > 0.0)
                    .then(|| ChaosConfig::uniform(args.chaos_seed, args.chaos_rate)),
                ..DataLabConfig::default()
            },
            ..ServerConfig::default()
        };
        Some(Server::start(config).map_err(|e| format!("boot: {e}"))?)
    } else {
        None
    };
    let addr = match (&booted, &args.addr) {
        (Some(server), _) => server.addr().to_string(),
        (None, Some(addr)) => addr.clone(),
        (None, None) => unreachable!("validated in parse_args"),
    };

    eprintln!(
        "loadgen: target={addr} rps={} duration={}s seed={} tasks={} write_rate={} \
         chaos_rate={} chaos_seed={}",
        args.rps,
        args.duration.as_secs(),
        args.seed,
        args.tasks,
        args.write_rate,
        args.chaos_rate,
        args.chaos_seed
    );

    // Register the corpus tables up front (not counted in the report).
    let corpus = request_corpus(args.seed, args.tasks);
    for table in &corpus.tables {
        let body =
            json!({"tenant": table.tenant, "name": table.name, "csv": table.csv}).to_string();
        let (status, response) = http(&addr, "POST", "/v1/tables", Some(&body), None)?;
        if status != 200 {
            return Err(format!(
                "registering {}/{} failed with {status}: {response}",
                table.tenant, table.name
            ));
        }
    }
    eprintln!(
        "loadgen: registered {} tables for {} tenants",
        corpus.tables.len(),
        corpus.tenants().len()
    );
    let ingest_targets: Vec<IngestTarget> = corpus
        .tables
        .iter()
        .filter_map(|table| {
            let mut lines = table.csv.lines();
            let header = lines.next()?.to_string();
            let rows: Vec<String> = lines
                .filter(|l| !l.trim().is_empty())
                .map(str::to_string)
                .collect();
            (!rows.is_empty()).then(|| IngestTarget {
                tenant: table.tenant.clone(),
                name: table.name.clone(),
                header,
                rows,
            })
        })
        .collect();
    if args.write_rate > 0.0 && ingest_targets.is_empty() {
        return Err("--write-rate needs at least one corpus table with data rows".to_string());
    }

    // Open-loop replay: request i fires at start + i/rps, regardless of
    // how long earlier requests took (so server slowness shows up as
    // latency, not reduced offered load).
    let total = (args.rps * args.duration.as_secs()) as usize;
    let interval = Duration::from_micros(1_000_000 / args.rps.max(1));
    let threads = (args.rps / 4).clamp(2, 16) as usize;
    let next_slot = Arc::new(AtomicUsize::new(0));
    let samples: Arc<Mutex<Vec<Sample>>> = Arc::new(Mutex::new(Vec::with_capacity(total)));
    let requests = Arc::new(corpus.requests);
    let ingest_targets = Arc::new(ingest_targets);
    let write_rate = args.write_rate;
    let start = Instant::now();

    let mut handles = Vec::new();
    for _ in 0..threads {
        let next_slot = Arc::clone(&next_slot);
        let samples = Arc::clone(&samples);
        let requests = Arc::clone(&requests);
        let ingest_targets = Arc::clone(&ingest_targets);
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || loop {
            let slot = next_slot.fetch_add(1, Ordering::Relaxed);
            if slot >= total {
                break;
            }
            let fire_at = start + interval * slot as u32;
            if let Some(wait) = fire_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            // Deterministic interleave: slot s is a write iff the
            // cumulative write quota crosses an integer at s, spreading
            // writes evenly through the schedule at `write_rate`.
            let is_write = write_rate > 0.0
                && ((slot + 1) as f64 * write_rate).floor() > (slot as f64 * write_rate).floor();
            let trace = format!("loadgen-{slot}");
            let (method, path, body, workload) = if is_write {
                let target = &ingest_targets[slot % ingest_targets.len()];
                let csv = format!(
                    "{}\n{}\n",
                    target.header,
                    target.rows[slot % target.rows.len()]
                );
                (
                    "POST".to_string(),
                    format!("/v1/tables/{}/rows", target.name),
                    json!({"tenant": target.tenant, "csv": csv, "idempotency_key": trace})
                        .to_string(),
                    "ingest".to_string(),
                )
            } else {
                let request = &requests[slot % requests.len()];
                (
                    "POST".to_string(),
                    "/v1/query".to_string(),
                    json!({
                        "tenant": request.tenant,
                        "workload": request.workload,
                        "question": request.question,
                    })
                    .to_string(),
                    request.workload.clone(),
                )
            };
            let result = http(&addr, &method, &path, Some(&body), Some(&trace));
            // Latency counts from the scheduled fire time, so a request
            // that left late because every thread was busy still shows
            // its wait (no coordinated omission).
            let latency_us = Instant::now()
                .saturating_duration_since(fire_at)
                .as_micros() as u64;
            let sample = match result {
                Ok((status, response)) => Sample {
                    status,
                    latency_us,
                    workload,
                    write: is_write,
                    error_kind: (status != 200).then(|| error_kind(&response)),
                },
                Err(e) => Sample {
                    status: 0,
                    latency_us,
                    workload,
                    write: is_write,
                    error_kind: Some(format!("transport: {e}")),
                },
            };
            samples.lock().unwrap().push(sample);
        }));
    }
    for handle in handles {
        handle
            .join()
            .map_err(|_| "a loadgen thread panicked".to_string())?;
    }
    let wall_us = start.elapsed().as_micros() as u64;
    let samples = Arc::try_unwrap(samples)
        .map_err(|_| "sample sink still shared".to_string())?
        .into_inner()
        .unwrap();

    // Aggregate: status counts, error taxonomy, latency percentiles —
    // overall, split by reads vs writes, and per workload kind.
    let mut status_counts: BTreeMap<u16, u64> = BTreeMap::new();
    let mut read_statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut write_statuses: BTreeMap<u16, u64> = BTreeMap::new();
    let mut errors: BTreeMap<String, u64> = BTreeMap::new();
    let mut read_errors: BTreeMap<String, u64> = BTreeMap::new();
    let mut write_errors: BTreeMap<String, u64> = BTreeMap::new();
    let mut workloads: Vec<String> = Vec::new();
    let registry = MetricsRegistry::new();
    registry.histogram_with_buckets("loadgen.request_us", LATENCY_BUCKETS_US);
    registry.histogram_with_buckets("loadgen.query_us", LATENCY_BUCKETS_US);
    registry.histogram_with_buckets("loadgen.ingest_us", LATENCY_BUCKETS_US);
    for sample in &samples {
        *status_counts.entry(sample.status).or_insert(0) += 1;
        registry.observe("loadgen.request_us", sample.latency_us);
        let (statuses, taxonomy, series) = if sample.write {
            (&mut write_statuses, &mut write_errors, "loadgen.ingest_us")
        } else {
            (&mut read_statuses, &mut read_errors, "loadgen.query_us")
        };
        *statuses.entry(sample.status).or_insert(0) += 1;
        if let Some(kind) = &sample.error_kind {
            *errors.entry(kind.clone()).or_insert(0) += 1;
            *taxonomy.entry(kind.clone()).or_insert(0) += 1;
        }
        registry.observe(series, sample.latency_us);
        if !sample.write {
            let per_workload = format!("loadgen.query_us.{}", sample.workload);
            if !workloads.contains(&sample.workload) {
                workloads.push(sample.workload.clone());
                registry.histogram_with_buckets(&per_workload, LATENCY_BUCKETS_US);
            }
            registry.observe(&per_workload, sample.latency_us);
        }
    }
    workloads.sort();
    let latency = registry
        .histogram("loadgen.request_us")
        .ok_or_else(|| "latency histogram missing".to_string())?;
    let read_latency = registry
        .histogram("loadgen.query_us")
        .ok_or_else(|| "read latency histogram missing".to_string())?;
    let write_latency = registry
        .histogram("loadgen.ingest_us")
        .ok_or_else(|| "write latency histogram missing".to_string())?;
    let fivexx: u64 = status_counts
        .iter()
        .filter(|(status, _)| **status >= 500)
        .map(|(_, n)| n)
        .sum();
    let transport = status_counts.get(&0).copied().unwrap_or(0);
    let achieved_rps = if wall_us > 0 {
        samples.len() as f64 * 1_000_000.0 / wall_us as f64
    } else {
        0.0
    };

    println!("loadgen report: POST /v1/query + POST /v1/tables/:name/rows");
    println!(
        "  sent       {} ({achieved_rps:.1} rps achieved, {} reads / {} writes)",
        samples.len(),
        read_latency.count,
        write_latency.count
    );
    for (status, count) in &status_counts {
        if *status == 0 {
            println!("  transport  {count}");
        } else {
            println!("  {status}        {count}");
        }
    }
    println!(
        "  latency_us p50={} p90={} p99={} p999={} max={}",
        latency.p50(),
        latency.p90(),
        latency.p99(),
        latency.p999(),
        latency.max
    );
    println!(
        "  reads      n={} p50={} p99={} max={}",
        read_latency.count,
        read_latency.p50(),
        read_latency.p99(),
        read_latency.max
    );
    if args.write_rate > 0.0 {
        println!(
            "  writes     n={} p50={} p99={} max={}",
            write_latency.count,
            write_latency.p50(),
            write_latency.p99(),
            write_latency.max
        );
        for (status, count) in &write_statuses {
            if *status >= 500 {
                println!("  write 5xx  {status}: {count}");
            }
        }
        for (kind, count) in &write_errors {
            println!("  write err  {kind}: {count}");
        }
    }
    for workload in &workloads {
        let h = registry
            .histogram(&format!("loadgen.query_us.{workload}"))
            .ok_or_else(|| format!("missing per-workload histogram for {workload}"))?;
        println!(
            "  workload   {workload}: n={} p50={} p90={} p99={} p999={} max={}",
            h.count,
            h.p50(),
            h.p90(),
            h.p99(),
            h.p999(),
            h.max
        );
    }
    for (kind, count) in &errors {
        println!("  error      {kind}: {count}");
    }

    let path = match args.out {
        Some(p) => p,
        None => telemetry_dir()
            .map_err(|e| format!("cannot create target/telemetry: {e}"))?
            .join("loadgen_report.json"),
    };
    let mut per_workload = Map::new();
    for workload in &workloads {
        let h = registry
            .histogram(&format!("loadgen.query_us.{workload}"))
            .expect("per-workload histogram registered above");
        per_workload.push(workload.clone(), latency_json(&h));
    }
    let report = json!({
        "endpoint": "POST /v1/query",
        "sent": samples.len(),
        "wall_us": wall_us,
        "target_rps": args.rps,
        // One decimal, as printed above.
        "achieved_rps": (achieved_rps * 10.0).round() / 10.0,
        "write_rate": args.write_rate,
        "statuses": status_json(&status_counts),
        "errors": errors,
        "latency_us": latency_json(&latency),
        "reads": side_json(&read_statuses, &read_errors, &read_latency),
        "writes": side_json(&write_statuses, &write_errors, &write_latency),
        "workloads": Json::Object(per_workload),
    });
    std::fs::write(&path, report.to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("loadgen report written: {}", path.display());

    if let Some(server) = booted {
        server.shutdown();
    }
    // Under injected chaos, 503 transport_unavailable is expected
    // back-pressure (the breaker doing its job), not a server failure.
    // Only read 503s qualify: chaos hits the model transport, so a
    // write 503 would mean the storage path degraded.
    let tolerated = if args.chaos_rate > 0.0 {
        let n = read_statuses.get(&503).copied().unwrap_or(0);
        if n > 0 {
            eprintln!(
                "loadgen: tolerating {n} chaos 503s (chaos_rate={})",
                args.chaos_rate
            );
        }
        n
    } else {
        0
    };
    if fivexx > tolerated || transport > 0 {
        eprintln!("loadgen: FAILED ({fivexx} server errors, {transport} transport errors)");
        Ok(1)
    } else {
        Ok(0)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("loadgen: {e}");
            eprintln!(
                "usage: loadgen (--addr HOST:PORT | --boot) [--rps N] [--duration 10s] \
                 [--seed N] [--tasks N] [--write-rate R] [--chaos-rate R] [--chaos-seed N] \
                 [--out PATH]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_json_matches_golden() {
        let registry = MetricsRegistry::new();
        registry.histogram_with_buckets("t", &[10, 100]);
        for us in [5, 50, 500] {
            registry.observe("t", us);
        }
        let h = registry.histogram("t").expect("registered");
        assert_eq!(
            latency_json(&h).to_string(),
            r#"{"count":3,"p50":100,"p90":500,"p99":500,"p999":500,"max":500,"bounds":[10,100],"counts":[1,1,1]}"#
        );
    }
}
