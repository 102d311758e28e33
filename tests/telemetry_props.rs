//! Property-based tests for pipeline observability: every `query()`
//! must produce a single-root, well-formed span tree whose token
//! attribution agrees with the global meter, and whose Chrome trace
//! export is valid JSON; histogram percentile readouts must be ordered
//! and bucket-bounded; and the session fleet report must partition the
//! meter delta across multiple queries.

use datalab::core::{DataLab, DataLabConfig};
use datalab::frame::{DataFrame, DataType, Value};
use datalab_rng::prop::prelude::*;

fn lab_with_sales(n: usize) -> DataLab {
    let mut lab = DataLab::new(DataLabConfig::default());
    let df = DataFrame::from_columns(vec![
        (
            "region",
            DataType::Str,
            (0..n)
                .map(|i| Value::Str(["east", "west", "north"][i % 3].into()))
                .collect(),
        ),
        (
            "amount",
            DataType::Int,
            (0..n).map(|i| Value::Int(5 + 7 * i as i64)).collect(),
        ),
        (
            "cost",
            DataType::Int,
            (0..n).map(|i| Value::Int(1 + i as i64)).collect(),
        ),
    ])
    .expect("valid frame");
    lab.register_table("sales", df).expect("registers");
    lab
}

proptest! {
    // Queries are full pipeline runs; a handful of cases is plenty.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_query_yields_a_well_formed_attributed_span_tree(
        measure in prop::sample::select(vec!["amount", "cost"]),
        verb in prop::sample::select(vec!["total", "average", "maximum"]),
        chart in any::<bool>(),
        rows in 3usize..12,
    ) {
        let mut lab = lab_with_sales(rows);
        let question = if chart {
            format!("draw a bar chart of {verb} {measure} by region")
        } else {
            format!("what is the {verb} {measure} by region?")
        };
        let before = lab.tokens_used();
        let r = lab.query(&question);
        let spent = lab.tokens_used() - before;

        // Single root named "query", children nested within parents.
        prop_assert_eq!(r.telemetry.spans.len(), 1, "{:#?}", r.telemetry.spans);
        let root = r.telemetry.root().expect("single root");
        prop_assert_eq!(root.name.as_str(), "query");
        prop_assert!(root.well_formed(), "{}", r.telemetry.render());

        // At least four named pipeline stages under the root.
        let stages = r.telemetry.stage_names();
        prop_assert!(stages.len() >= 4, "stages: {stages:?}");
        for want in ["rewrite", "plan", "execute", "synthesize"] {
            prop_assert!(stages.contains(&want), "missing {want} in {stages:?}");
        }

        // Attribution is complete: the per-stage/per-agent breakdown sums
        // to exactly what the global meter charged for this query.
        prop_assert!(spent > 0);
        prop_assert_eq!(r.telemetry.total.total(), spent);
        let by_parts: u64 = r.telemetry.attribution.iter().map(|a| a.usage.total()).sum();
        prop_assert_eq!(by_parts, spent);

        // The Chrome trace export is valid JSON with complete (ph:"X")
        // events carrying ts + dur.
        let trace: datalab_json::Value =
            datalab_json::from_str(&datalab::telemetry::chrome_trace(&r.telemetry.spans).to_string())
                .expect("valid trace JSON");
        let events = trace["traceEvents"].as_array().expect("traceEvents array");
        prop_assert!(events.len() >= root.total_spans());
        for e in events {
            prop_assert_eq!(&e["ph"], "X");
            prop_assert!(e["ts"].is_u64());
            prop_assert!(e["dur"].is_u64());
            prop_assert!(e["name"].is_string());
        }
    }
}

/// The bucket a value falls in: index into `bounds` (upper-inclusive),
/// or `bounds.len()` for the overflow bucket.
fn bucket_of(bounds: &[u64], v: u64) -> usize {
    bounds.iter().position(|b| v <= *b).unwrap_or(bounds.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn histogram_percentiles_are_ordered_and_bucket_bounded(
        values in prop::collection::vec(0u64..5_000, 1..200),
    ) {
        use datalab::telemetry::MetricsRegistry;
        let bounds = [10u64, 100, 500, 1_000, 2_500];
        let m = MetricsRegistry::new();
        m.histogram_with_buckets("h", &bounds);
        for v in &values {
            m.observe("h", *v);
        }
        let s = m.histogram("h").expect("registered above");

        // Monotone and bounded by the true maximum.
        prop_assert!(s.p50() <= s.p90());
        prop_assert!(s.p90() <= s.p99());
        prop_assert!(s.p99() <= *values.iter().max().unwrap());

        // Each percentile lies in the same bucket as the exact rank
        // statistic it approximates, and never under-reports it.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let reported = s.percentile(q);
            let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            prop_assert_eq!(
                bucket_of(&bounds, reported),
                bucket_of(&bounds, exact),
                "q={} reported={} exact={}",
                q,
                reported,
                exact
            );
            prop_assert!(reported >= exact, "q={q} reported={reported} exact={exact}");
        }
    }
}

proptest! {
    // Each case runs several full queries; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn fleet_report_partitions_the_meter_delta_across_queries(
        measures in prop::collection::vec(
            prop::sample::select(vec!["total amount", "average cost", "maximum amount"]),
            2..5,
        ),
    ) {
        let mut lab = lab_with_sales(9);
        let before = lab.tokens_used();
        for (i, m) in measures.iter().enumerate() {
            let workload = if i % 2 == 0 { "nl2sql" } else { "followup" };
            lab.query_as(workload, &format!("what is the {m} by region?"));
        }
        let report = lab.fleet_report();
        let delta = lab.tokens_used() - before;

        // Fleet totals equal the meter delta, and both the per-stage and
        // per-workload breakdowns partition the same total.
        prop_assert_eq!(report.runs as usize, measures.len());
        prop_assert_eq!(report.tokens.total, delta);
        let by_stage: u64 = report.stages.iter().map(|s| s.tokens).sum();
        prop_assert_eq!(by_stage, delta);
        let by_workload: u64 = report.workloads.values().map(|w| w.tokens).sum();
        prop_assert_eq!(by_workload, delta);

        // The report survives its JSON round-trip.
        let parsed = datalab::core::FleetReport::from_json(&report.to_json())
            .expect("fleet report parses");
        prop_assert_eq!(parsed, report);
    }
}
