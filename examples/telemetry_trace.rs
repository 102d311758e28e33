//! Observability walkthrough: run a multi-query session and inspect what
//! the telemetry layer recorded — the per-query span tree, the token
//! attribution by pipeline stage and agent, the platform-wide metrics
//! registry, a Chrome `trace_event` export you can load at
//! `chrome://tracing` (or <https://ui.perfetto.dev>), the session-level
//! fleet report, and the flight record attached to a failing query.
//!
//! ```sh
//! cargo run --example telemetry_trace
//! ```

use datalab::core::{DataLab, DataLabConfig};
use datalab::frame::{DataFrame, DataType, Value};
use datalab::telemetry::{chrome_trace, render_flight_record};

fn main() {
    let n = 18;
    let sales = DataFrame::from_columns(vec![
        (
            "region",
            DataType::Str,
            (0..n)
                .map(|i| Value::Str(["east", "west", "south"][i % 3].to_string()))
                .collect(),
        ),
        (
            "amount",
            DataType::Int,
            (0..n).map(|i| Value::Int(100 + 7 * i as i64)).collect(),
        ),
        (
            "cost",
            DataType::Int,
            (0..n).map(|i| Value::Int(40 + 3 * i as i64)).collect(),
        ),
    ])
    .expect("valid frame");

    let mut lab = DataLab::new(DataLabConfig::default());
    lab.register_table("sales", sales)
        .expect("profiling succeeds");

    // Every query comes back with a QuerySummary: one span tree rooted at
    // "query", and the token spend broken down by (stage, agent). Labelled
    // runs (`query_as`) let the session's fleet report break statistics
    // down per workload.
    for (workload, question) in [
        ("nl2sql", "What is the total amount by region?"),
        ("nl2sql", "What is the average cost by region?"),
        ("nl2vis", "Draw a bar chart of total cost by region"),
    ] {
        println!("=== [{workload}] Q: {question}\n");
        let r = lab.query_as(workload, question);
        print!("{}", r.telemetry.render());

        // Machine-readable exports ride along on the same summary.
        let trace = chrome_trace(&r.telemetry.spans).to_string();
        println!(
            "chrome trace: {} bytes, {} events (load at chrome://tracing)",
            trace.len(),
            r.telemetry
                .root()
                .map(|root| root.total_spans())
                .unwrap_or(0),
        );
        println!();
    }

    // The platform-wide registry accumulates across queries: model-call
    // counters, retry counters from every agent, histograms of call sizes.
    println!("=== metrics registry\n");
    let snapshot = lab.telemetry().metrics().snapshot();
    for (name, value) in &snapshot.counters {
        println!("  {name:<26} {value}");
    }
    for (name, h) in &snapshot.histograms {
        println!("  {name:<26} count={} mean={:.1}", h.count, h.mean());
    }
    println!("\nmeter total: {} tokens", lab.tokens_used());
    println!(
        "attributed:  {} tokens",
        lab.telemetry().token_totals().total()
    );

    // A query that cannot succeed: the platform has no "inventory" data,
    // so the vis agent fails and the response carries a flight record —
    // the recorder's events from QueryStart to the failed QueryEnd.
    println!("\n=== a failing query and its flight record\n");
    let mut empty_lab = DataLab::new(DataLabConfig::default());
    let failed = empty_lab.query("draw a pie chart of inventory by warehouse");
    println!("success: {}", failed.success);
    print!("{}", render_flight_record(&failed.flight_record));

    // Every run lands in the session's RunRecorder; the fleet report
    // aggregates pass/fail counts, token totals, per-stage and per-agent
    // latency percentiles, and the error taxonomy.
    println!("\n=== fleet report (multi-query session)\n");
    print!("{}", lab.fleet_report().render());
    println!("\n=== fleet report (failing session)\n");
    print!("{}", empty_lab.fleet_report().render());
}
