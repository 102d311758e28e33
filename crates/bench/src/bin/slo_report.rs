//! SLO gate: judges a loadgen report against declared service-level
//! objectives and exits non-zero when the error budget is blown.
//!
//! ```text
//! cargo run -p datalab-bench --bin slo_report -- --input PATH
//!     [--availability R] [--latency-threshold-ms N] [--latency-goal R]
//!     [--out PATH]
//! ```
//!
//! Input is the JSON report written by the `loadgen` bin. Two SLIs are
//! evaluated over the whole run:
//!
//! * **Availability** — the fraction of requests that did not fail
//!   server-side (5xx or transport errors). Compared against
//!   `--availability` (default 0.99).
//! * **Latency** — the fraction of requests finishing under
//!   `--latency-threshold-ms` (default 2000), computed conservatively
//!   from the report's histogram buckets: a request only counts as fast
//!   when its whole bucket is under the threshold. Compared against
//!   `--latency-goal` (default 0.95).
//!
//! Both SLIs also get a burn rate (bad fraction over allowed budget);
//! burn ≥ 1 means the budget is being spent faster than the target
//! allows. Exit code: `0` when both SLIs meet target, `1` on violation,
//! `2` on usage or input errors — so CI can use this bin as a blocking
//! gate on serving-smoke output.

use datalab_bench::telemetry_dir;
use datalab_json::json;
use datalab_server::Json;
use datalab_telemetry::burn_rate;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    input: PathBuf,
    availability: f64,
    latency_threshold_ms: u64,
    latency_goal: f64,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut input = None;
    let mut parsed = Args {
        input: PathBuf::new(),
        availability: 0.99,
        latency_threshold_ms: 2_000,
        latency_goal: 0.95,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} expects a value"));
        match arg.as_str() {
            "--input" => input = Some(PathBuf::from(take("--input")?)),
            "--availability" => {
                parsed.availability = take("--availability")?
                    .parse()
                    .map_err(|e| format!("--availability: {e}"))?
            }
            "--latency-threshold-ms" => {
                parsed.latency_threshold_ms = take("--latency-threshold-ms")?
                    .parse()
                    .map_err(|e| format!("--latency-threshold-ms: {e}"))?
            }
            "--latency-goal" => {
                parsed.latency_goal = take("--latency-goal")?
                    .parse()
                    .map_err(|e| format!("--latency-goal: {e}"))?
            }
            "--out" => parsed.out = Some(PathBuf::from(take("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.input = input.ok_or_else(|| "--input is required".to_string())?;
    if !(0.0..=1.0).contains(&parsed.availability) || !(0.0..=1.0).contains(&parsed.latency_goal) {
        return Err("--availability and --latency-goal must be in 0..=1".to_string());
    }
    Ok(parsed)
}

/// The two SLI verdicts judged from one loadgen report.
#[derive(Debug, PartialEq)]
struct Verdict {
    total: u64,
    bad: u64,
    availability: f64,
    availability_burn: f64,
    fast_enough: u64,
    latency_ok_ratio: f64,
    latency_burn: f64,
    pass: bool,
}

/// Judges a parsed loadgen report against the targets.
///
/// Server-side failures are 5xx statuses plus transport errors (status
/// `0` in the report); 4xx client errors do not count against
/// availability, matching the serving layer's own SLO policy.
fn judge(report: &Json, args: &Args) -> Result<Verdict, String> {
    let total = report
        .get("sent")
        .and_then(Json::as_f64)
        .ok_or_else(|| "report is missing `sent`".to_string())? as u64;
    let Some(statuses) = report.get("statuses").and_then(Json::as_object) else {
        return Err("report is missing `statuses`".to_string());
    };
    let mut bad = 0u64;
    for (status, count) in statuses.iter() {
        let code: u64 = status
            .parse()
            .map_err(|e| format!("bad status key `{status}`: {e}"))?;
        let count = count
            .as_f64()
            .ok_or_else(|| format!("bad count for status {status}"))? as u64;
        if code == 0 || code >= 500 {
            bad += count;
        }
    }
    if bad > total {
        return Err(format!("{bad} failures exceed {total} requests sent"));
    }

    let latency = report
        .get("latency_us")
        .ok_or_else(|| "report is missing `latency_us`".to_string())?;
    let bounds = latency
        .get("bounds")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report is missing `latency_us.bounds`".to_string())?;
    let counts = latency
        .get("counts")
        .and_then(Json::as_arr)
        .ok_or_else(|| "report is missing `latency_us.counts`".to_string())?;
    if counts.len() != bounds.len() + 1 {
        return Err(format!(
            "histogram shape mismatch: {} bounds, {} counts",
            bounds.len(),
            counts.len()
        ));
    }
    let threshold_us = args.latency_threshold_ms.saturating_mul(1_000);
    let max = latency.get("max").and_then(Json::as_f64).unwrap_or(0.0) as u64;
    // A request is provably fast only when its whole bucket is: count
    // buckets with an upper bound at or under the threshold. When even
    // the slowest observed request beats the threshold, everything does.
    let fast_enough = if max <= threshold_us {
        total
    } else {
        let mut fast = 0u64;
        for (i, bound) in bounds.iter().enumerate() {
            let bound = bound
                .as_f64()
                .ok_or_else(|| format!("bad bound at index {i}"))? as u64;
            let count = counts[i]
                .as_f64()
                .ok_or_else(|| format!("bad count at index {i}"))? as u64;
            if bound <= threshold_us {
                fast += count;
            }
        }
        fast.min(total)
    };

    let availability = if total == 0 {
        1.0
    } else {
        1.0 - bad as f64 / total as f64
    };
    let latency_ok_ratio = if total == 0 {
        1.0
    } else {
        fast_enough as f64 / total as f64
    };
    let availability_burn = burn_rate(bad, total, args.availability);
    let latency_burn = burn_rate(total - fast_enough, total, args.latency_goal);
    let pass = availability >= args.availability && latency_ok_ratio >= args.latency_goal;
    Ok(Verdict {
        total,
        bad,
        availability,
        availability_burn,
        fast_enough,
        latency_ok_ratio,
        latency_burn,
        pass,
    })
}

/// The verdict as the JSON report. Ratios keep six decimals and burn
/// rates three, as the printed report rounds them.
fn verdict_json(v: &Verdict, args: &Args) -> Json {
    let round = |x: f64, decimals: i32| {
        let scale = 10f64.powi(decimals);
        (x * scale).round() / scale
    };
    json!({
        "targets": {
            "availability": args.availability,
            "latency_threshold_ms": args.latency_threshold_ms,
            "latency_goal": args.latency_goal,
        },
        "total": v.total,
        "bad": v.bad,
        "availability": round(v.availability, 6),
        "availability_burn": round(v.availability_burn, 3),
        "fast_enough": v.fast_enough,
        "latency_ok_ratio": round(v.latency_ok_ratio, 6),
        "latency_burn": round(v.latency_burn, 3),
        "pass": v.pass,
    })
}

fn run() -> Result<u8, String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string(&args.input)
        .map_err(|e| format!("cannot read {}: {e}", args.input.display()))?;
    let report = Json::parse(&text).map_err(|e| format!("{}: {e}", args.input.display()))?;
    let verdict = judge(&report, &args)?;

    println!("slo report: {}", args.input.display());
    println!(
        "  availability {:.4} (target {}, burn {:.2})",
        verdict.availability, args.availability, verdict.availability_burn
    );
    println!(
        "  latency      {:.4} under {}ms (goal {}, burn {:.2})",
        verdict.latency_ok_ratio,
        args.latency_threshold_ms,
        args.latency_goal,
        verdict.latency_burn
    );
    println!(
        "  requests     {} total, {} failed, {} fast enough",
        verdict.total, verdict.bad, verdict.fast_enough
    );
    println!(
        "  verdict      {}",
        if verdict.pass { "PASS" } else { "FAIL" }
    );

    let path = match &args.out {
        Some(p) => p.clone(),
        None => telemetry_dir()
            .map_err(|e| format!("cannot create target/telemetry: {e}"))?
            .join("slo_report.json"),
    };
    std::fs::write(&path, verdict_json(&verdict, &args).to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("slo report written: {}", path.display());

    Ok(if verdict.pass { 0 } else { 1 })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("slo_report: {e}");
            eprintln!(
                "usage: slo_report --input PATH [--availability R] \
                 [--latency-threshold-ms N] [--latency-goal R] [--out PATH]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(availability: f64, threshold_ms: u64, goal: f64) -> Args {
        Args {
            input: PathBuf::new(),
            availability,
            latency_threshold_ms: threshold_ms,
            latency_goal: goal,
            out: None,
        }
    }

    fn report(statuses: &str, max_us: u64, bounds: &str, counts: &str) -> Json {
        Json::parse(&format!(
            "{{\"sent\":100,\"statuses\":{{{statuses}}},\
             \"latency_us\":{{\"max\":{max_us},\"bounds\":[{bounds}],\"counts\":[{counts}]}}}}"
        ))
        .expect("test report parses")
    }

    #[test]
    fn clean_run_passes() {
        let r = report("\"200\":100", 900, "1000,10000", "100,0,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert!(v.pass, "{v:?}");
        assert_eq!((v.total, v.bad, v.fast_enough), (100, 0, 100));
        assert_eq!(v.availability, 1.0);
        assert_eq!(v.availability_burn, 0.0);
    }

    #[test]
    fn server_errors_blow_the_availability_budget() {
        // 5 of 100 failed against a 1% budget: burn 5x, no pass.
        let r = report("\"200\":95,\"503\":5", 900, "1000", "100,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert!(!v.pass, "{v:?}");
        assert_eq!(v.bad, 5);
        assert!((v.availability - 0.95).abs() < 1e-9);
        assert!((v.availability_burn - 5.0).abs() < 1e-9, "{v:?}");
    }

    #[test]
    fn transport_errors_count_as_failures() {
        let r = report("\"200\":98,\"0\":2", 900, "1000", "100,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert_eq!(v.bad, 2);
        assert!(!v.pass);
    }

    #[test]
    fn client_errors_do_not_count_against_availability() {
        let r = report("\"200\":90,\"400\":6,\"429\":4", 900, "1000", "100,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert_eq!(v.bad, 0);
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn slow_tail_fails_the_latency_goal_conservatively() {
        // Threshold 2ms; buckets 1ms / 10ms. 10 requests landed in the
        // 1ms..10ms bucket — not provably fast, so they count slow.
        let r = report("\"200\":100", 9_000, "1000,10000", "90,10,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert_eq!(v.fast_enough, 90);
        assert!(!v.pass, "{v:?}");
        assert!((v.latency_burn - 2.0).abs() < 1e-9, "{v:?}");
    }

    #[test]
    fn fast_max_short_circuits_bucket_resolution() {
        // Coarse buckets would undercount, but max proves every request
        // beat the threshold.
        let r = report("\"200\":100", 1_500, "1000,10000", "50,50,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        assert_eq!(v.fast_enough, 100);
        assert!(v.pass, "{v:?}");
    }

    #[test]
    fn malformed_reports_are_input_errors_not_panics() {
        let a = args(0.99, 2, 0.95);
        for bad in [
            "{}",
            "{\"sent\":10}",
            "{\"sent\":10,\"statuses\":{\"200\":10}}",
            "{\"sent\":10,\"statuses\":{\"abc\":1},\"latency_us\":{\"bounds\":[],\"counts\":[0]}}",
            "{\"sent\":10,\"statuses\":{},\"latency_us\":{\"bounds\":[1],\"counts\":[0]}}",
        ] {
            let r = Json::parse(bad).unwrap();
            assert!(judge(&r, &a).is_err(), "{bad}");
        }
    }

    /// The written report: every byte but the rounded ratios pinned, and
    /// those compared as numbers.
    #[test]
    fn verdict_json_matches_golden() {
        let r = report("\"200\":97,\"503\":3", 9_000, "1000,10000", "90,10,0");
        let v = judge(&r, &args(0.99, 2, 0.95)).unwrap();
        let text = verdict_json(&v, &args(0.99, 2, 0.95)).to_string();
        let parsed = Json::parse(&text).unwrap();
        let mut masked = text.clone();
        for key in [
            "availability\":",
            "latency_goal\":",
            "availability_burn\":",
            "latency_ok_ratio\":",
            "latency_burn\":",
        ] {
            let mut from = 0;
            while let Some(at) = masked[from..].find(key) {
                let start = from + at + key.len();
                let len = masked[start..].find([',', '}']).expect("number ends");
                masked.replace_range(start..start + len, "#");
                from = start;
            }
        }
        assert_eq!(
            masked,
            concat!(
                r#"{"targets":{"availability":#,"latency_threshold_ms":2,"latency_goal":#},"#,
                r#""total":100,"bad":3,"availability":#,"availability_burn":#,"#,
                r#""fast_enough":90,"latency_ok_ratio":#,"latency_burn":#,"pass":false}"#
            )
        );
        let field = |path: &[&str]| {
            path.iter()
                .fold(&parsed, |v, k| v.get(k).expect("field present"))
                .as_f64()
                .expect("number")
        };
        assert_eq!(field(&["targets", "availability"]), 0.99);
        assert_eq!(field(&["targets", "latency_goal"]), 0.95);
        assert_eq!(field(&["availability"]), 0.97);
        assert_eq!(field(&["availability_burn"]), 3.0);
        assert_eq!(field(&["latency_ok_ratio"]), 0.9);
        assert_eq!(field(&["latency_burn"]), 2.0);
    }
}
