//! Crash-recovery report: runs the deterministic serving corpus with
//! write-through durability, kills the run with a damaged WAL tail
//! (torn write, bit flip, or a clean stop), reboots a fresh store, and
//! gates on the recovered fleet being indistinguishable from the
//! pre-crash one. Writes a JSON report under `target/telemetry/` and
//! leaves each scenario's data directory (WAL + snapshots) in place as
//! an inspectable artifact.
//!
//! ```text
//! cargo run -p datalab-bench --bin crash_recovery -- [--seed N]
//!     [--tasks N] [--scenarios torn,bitflip,clean] [--snapshot-every N]
//!     [--data-dir PATH] [--out PATH]
//! ```
//!
//! Scenarios:
//!
//! - `torn` / `bitflip` run WAL-only (no snapshots), so recovery replays
//!   every record and the recovered fleet report must equal the
//!   pre-crash one under `FleetReport::comparable()` — the obsdiff-clean
//!   criterion.
//! - `clean` runs with a snapshot cadence (`--snapshot-every`, default
//!   4) to exercise the restore-snapshot-then-replay-tail path; the gate
//!   is per-tenant state equality plus an identical probe query.
//!
//! Gate violations exit 1; usage errors exit 2.

use datalab_bench::telemetry_dir;
use datalab_json::json;
use datalab_workloads::{
    render_crash_report, run_crash_recovery, CrashConfig, CrashInjection, CrashReport,
};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    seed: u64,
    tasks_per_workload: usize,
    scenarios: Vec<CrashInjection>,
    snapshot_every: u64,
    data_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_scenarios(text: &str) -> Result<Vec<CrashInjection>, String> {
    let scenarios: Result<Vec<CrashInjection>, String> = text
        .split(',')
        .map(|s| {
            let s = s.trim();
            CrashInjection::parse(s).ok_or_else(|| {
                format!("--scenarios: unknown scenario `{s}` (want torn, bitflip, or clean)")
            })
        })
        .collect();
    let scenarios = scenarios?;
    if scenarios.is_empty() {
        return Err("--scenarios needs at least one scenario".to_string());
    }
    Ok(scenarios)
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        seed: 7,
        tasks_per_workload: 2,
        scenarios: vec![
            CrashInjection::TornTail,
            CrashInjection::BitFlip,
            CrashInjection::None,
        ],
        snapshot_every: 4,
        data_dir: None,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| args.next().ok_or_else(|| format!("{what} expects a value"));
        match arg.as_str() {
            "--seed" => {
                parsed.seed = take("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--tasks" => {
                parsed.tasks_per_workload = take("--tasks")?
                    .parse()
                    .map_err(|e| format!("--tasks: {e}"))?
            }
            "--scenarios" => parsed.scenarios = parse_scenarios(&take("--scenarios")?)?,
            "--snapshot-every" => {
                parsed.snapshot_every = take("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?
            }
            "--data-dir" => parsed.data_dir = Some(PathBuf::from(take("--data-dir")?)),
            "--out" => parsed.out = Some(PathBuf::from(take("--out")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn run() -> Result<u8, String> {
    let args = parse_args()?;
    let base = match &args.data_dir {
        Some(p) => p.clone(),
        None => telemetry_dir()
            .map_err(|e| format!("cannot create target/telemetry: {e}"))?
            .join("crash_data"),
    };
    eprintln!(
        "crash_recovery: seed={} tasks_per_workload={} scenarios={:?} snapshot_every={} \
         data_dir={}",
        args.seed,
        args.tasks_per_workload,
        args.scenarios
            .iter()
            .map(|s| s.as_str())
            .collect::<Vec<_>>(),
        args.snapshot_every,
        base.display()
    );

    let mut reports: Vec<CrashReport> = Vec::new();
    for injection in &args.scenarios {
        let config = CrashConfig {
            seed: args.seed,
            tasks_per_workload: args.tasks_per_workload,
            // The damaged-tail scenarios run WAL-only so full replay can
            // be held to report equality; the clean scenario exercises
            // the snapshot + tail-replay path instead.
            snapshot_every: match injection {
                CrashInjection::None => args.snapshot_every,
                _ => 0,
            },
            injection: *injection,
        };
        let dir = base.join(injection.as_str());
        // Each run starts from an empty directory but leaves its WAL
        // and snapshot files behind as an inspectable artifact.
        std::fs::remove_dir_all(&dir)
            .or_else(|e| {
                if e.kind() == std::io::ErrorKind::NotFound {
                    Ok(())
                } else {
                    Err(e)
                }
            })
            .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        let report = run_crash_recovery(&config, &dir)
            .map_err(|e| format!("scenario {}: {e}", injection.as_str()))?;
        println!("{}", render_crash_report(&report));
        reports.push(report);
    }

    let failures: Vec<String> = reports
        .iter()
        .filter(|r| !r.ok())
        .flat_map(|r| {
            let scenario = r.injection.clone();
            let mut msgs: Vec<String> = r
                .failures
                .iter()
                .map(|f| format!("{scenario}: {f}"))
                .collect();
            if msgs.is_empty() {
                msgs.push(format!("{scenario}: gate failed"));
            }
            msgs
        })
        .collect();

    let path = match args.out {
        Some(p) => p,
        None => telemetry_dir()
            .map_err(|e| format!("cannot create target/telemetry: {e}"))?
            .join("crash_recovery.json"),
    };
    let report = json!({
        "seed": args.seed,
        "tasks_per_workload": args.tasks_per_workload,
        "scenarios": reports,
    });
    std::fs::write(&path, report.to_string())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("crash recovery report written: {}", path.display());

    if failures.is_empty() {
        println!("crash recovery gate: ok ({} scenarios)", reports.len());
        Ok(0)
    } else {
        for failure in &failures {
            eprintln!("crash_recovery: FAILED: {failure}");
        }
        Ok(1)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("crash_recovery: {e}");
            eprintln!(
                "usage: crash_recovery [--seed N] [--tasks N] \
                 [--scenarios torn,bitflip,clean] [--snapshot-every N] \
                 [--data-dir PATH] [--out PATH]"
            );
            ExitCode::from(2)
        }
    }
}
