//! Crash-recovery harness: run the deterministic serving corpus with
//! write-through durability, kill the "process" mid-append (modelled as
//! a torn or bit-flipped WAL tail), reboot, and prove the recovered
//! fleet is indistinguishable from the pre-crash one.
//!
//! Two gates, depending on the snapshot cadence:
//!
//! - **Full replay** (`snapshot_every == 0`): every query lives in the
//!   WAL, so replaying it re-executes the exact pre-crash run. The
//!   recovered sessions' [`FleetReport`] must equal the pre-crash one
//!   under `FleetReport::comparable()` — the same obsdiff-clean
//!   criterion CI applies to fleet baselines.
//! - **Snapshot + tail replay** (`snapshot_every > 0`): queries folded
//!   into a snapshot are restored, not re-run, so no run records exist
//!   for them. The gate is state equality instead: every tenant's
//!   durable state (tables, knowledge, notebook, history) must match
//!   the pre-crash session exactly, and a probe query fired at both
//!   sessions must produce identical responses and leave identical
//!   durable state.
//!
//! The injected damage models a `SIGKILL` between `write(2)` and
//! `fdatasync(2)`: the interrupted record was never acknowledged
//! (phase A completed all its requests), so recovery must *drop* it —
//! detected as a torn or corrupt tail, never mis-parsed — and lose
//! nothing else.

use crate::corpus::{request_corpus, RequestCorpus};
use datalab_core::{DataLab, DataLabConfig, DataLabResponse, FleetReport};
use datalab_json::json_struct;
use datalab_store::{
    encode_frame, DurabilityConfig, DurableStore, FsyncPolicy, SessionRecord, SessionState,
};
use datalab_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// What the simulated crash does to each tenant's WAL tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashInjection {
    /// Clean kill: every appended frame is intact.
    None,
    /// The last append was cut mid-frame (torn write).
    TornTail,
    /// The last append landed in full but a payload byte flipped
    /// (media corruption); the CRC must catch it.
    BitFlip,
}

impl CrashInjection {
    /// Stable name for reports and CLI flags.
    pub fn as_str(&self) -> &'static str {
        match self {
            CrashInjection::None => "clean",
            CrashInjection::TornTail => "torn",
            CrashInjection::BitFlip => "bitflip",
        }
    }

    /// Parses [`CrashInjection::as_str`] back.
    pub fn parse(raw: &str) -> Option<CrashInjection> {
        match raw {
            "clean" => Some(CrashInjection::None),
            "torn" => Some(CrashInjection::TornTail),
            "bitflip" => Some(CrashInjection::BitFlip),
            _ => None,
        }
    }
}

/// Crash-harness parameters.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Corpus seed (same generators as the fleet and loadgen).
    pub seed: u64,
    /// Tasks sampled per workload family.
    pub tasks_per_workload: usize,
    /// Snapshot cadence for the durable store (0 = WAL-only, which
    /// enables the full-replay report gate).
    pub snapshot_every: u64,
    /// The damage the crash inflicts on each tenant's WAL tail.
    pub injection: CrashInjection,
}

impl Default for CrashConfig {
    fn default() -> CrashConfig {
        CrashConfig {
            seed: 7,
            tasks_per_workload: 2,
            snapshot_every: 0,
            injection: CrashInjection::TornTail,
        }
    }
}

/// Outcome of one crash-recovery run.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashReport {
    /// Corpus seed.
    pub seed: u64,
    /// Tasks per workload family.
    pub tasks_per_workload: u64,
    /// Snapshot cadence used (0 = WAL-only).
    pub snapshot_every: u64,
    /// Injection name (`clean` / `torn` / `bitflip`).
    pub injection: String,
    /// Tenants exercised.
    pub tenants: u64,
    /// WAL records appended in phase A.
    pub records_appended: u64,
    /// Tenants whose recovery observed a torn tail.
    pub torn_tenants: u64,
    /// Tenants whose recovery observed a corrupt (CRC-failed) tail.
    pub corrupt_tenants: u64,
    /// WAL records replayed across all tenants on recovery.
    pub replayed_records: u64,
    /// Whether the full-replay report gate ran (only in WAL-only mode).
    pub report_checked: bool,
    /// Full-replay gate: recovered fleet report equals the pre-crash
    /// one under `comparable()`. Vacuously true when unchecked.
    pub report_match: bool,
    /// State gate: every tenant's durable state and probe response
    /// matched the pre-crash session.
    pub state_match: bool,
    /// Human-readable gate violations (empty = clean pass).
    pub failures: Vec<String>,
}

json_struct!(CrashReport {
    seed: req,
    tasks_per_workload: req,
    snapshot_every: req,
    injection: req,
    tenants: req,
    records_appended: req,
    torn_tenants: req,
    corrupt_tenants: req,
    replayed_records: req,
    report_checked: req,
    report_match: req,
    state_match: req,
    failures: req,
});

impl CrashReport {
    /// Whether every gate passed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.report_match && self.state_match
    }
}

/// The pre-crash truth captured for one tenant, compared against its
/// recovered twin.
struct TenantTruth {
    lab: DataLab,
    state: SessionState,
}

/// The probe question fired at both the pre-crash and recovered session
/// of every tenant. It intentionally ignores tenant schemas: identical
/// *failure* is as strong an equivalence signal as identical success.
const PROBE: &str = "What is the total by the first column?";

fn probe_fingerprint(r: &DataLabResponse) -> String {
    format!(
        "success={} degraded={} rewritten={} plan={:?} rows={:?} answer={}",
        r.success,
        r.degraded,
        r.rewritten_query,
        r.plan,
        r.frame.as_ref().map(|df| df.n_rows()),
        r.answer
    )
}

/// Phase A: run the corpus with write-through durability, exactly the
/// way the serving layer does (append under the session's execution
/// order, snapshot on cadence). Returns the per-tenant truth and the
/// number of records appended.
fn run_live(
    corpus: &RequestCorpus,
    store: &Arc<DurableStore>,
) -> io::Result<(BTreeMap<String, TenantTruth>, u64)> {
    let config = DataLabConfig::default();
    let mut labs: BTreeMap<String, DataLab> = BTreeMap::new();
    let mut appended = 0u64;

    let write_through =
        |store: &Arc<DurableStore>, tenant: &str, lab: &mut DataLab, record: SessionRecord| {
            let receipt = store.append(tenant, &record)?;
            if receipt.snapshot_due {
                store.snapshot(tenant, &lab.durable_state())?;
            }
            io::Result::Ok(())
        };

    for table in &corpus.tables {
        let lab = labs
            .entry(table.tenant.clone())
            .or_insert_with(|| DataLab::new(config.clone()));
        if lab.register_csv(&table.name, &table.csv).is_ok() {
            write_through(
                store,
                &table.tenant,
                lab,
                SessionRecord::RegisterCsv {
                    name: table.name.clone(),
                    csv: table.csv.clone(),
                },
            )?;
            appended += 1;
        }
    }
    for request in &corpus.requests {
        let lab = labs
            .entry(request.tenant.clone())
            .or_insert_with(|| DataLab::new(config.clone()));
        lab.query_as(&request.workload, &request.question);
        write_through(
            store,
            &request.tenant,
            lab,
            SessionRecord::Query {
                workload: request.workload.clone(),
                question: request.question.clone(),
            },
        )?;
        appended += 1;
    }

    let truths = labs
        .into_iter()
        .map(|(tenant, lab)| {
            let state = lab.durable_state();
            (tenant, TenantTruth { lab, state })
        })
        .collect();
    Ok((truths, appended))
}

/// The crash itself: appends the frame of a record that was being
/// written when the process died, damaged per the injection. The record
/// was never acknowledged, so recovery must drop it cleanly.
fn damage_wal(path: &Path, injection: CrashInjection) -> io::Result<()> {
    if injection == CrashInjection::None {
        return Ok(());
    }
    let interrupted = SessionRecord::Query {
        workload: "crash".to_string(),
        question: "query interrupted by the crash".to_string(),
    };
    let mut frame = encode_frame(u64::MAX, &interrupted);
    let tail: &[u8] = match injection {
        CrashInjection::TornTail => &frame[..frame.len() / 2],
        CrashInjection::BitFlip => {
            let at = frame.len() - 3;
            frame[at] ^= 0x10;
            &frame
        }
        CrashInjection::None => unreachable!(),
    };
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(tail)?;
    file.sync_data()?;
    Ok(())
}

/// Runs the full crash-recovery cycle in `data_dir` (which must be
/// empty or absent) and reports every gate outcome.
pub fn run_crash_recovery(config: &CrashConfig, data_dir: &Path) -> io::Result<CrashReport> {
    let corpus = request_corpus(config.seed, config.tasks_per_workload);
    let durability = DurabilityConfig {
        // The harness syncs explicitly at the kill point; request-path
        // fsync would only slow the corpus run down.
        fsync: FsyncPolicy::Never,
        snapshot_every: config.snapshot_every,
    };

    // Phase A: live run with write-through durability.
    let store = DurableStore::open(data_dir, durability.clone(), Telemetry::new())?;
    let (mut truths, records_appended) = run_live(&corpus, &store)?;
    // The kill point: everything acknowledged reaches disk (the real
    // server's eviction/interval flusher guarantees the same), then the
    // in-flight append is torn.
    store.flush_all();
    let tenants: Vec<String> = truths.keys().cloned().collect();
    let wal_paths: Vec<std::path::PathBuf> = tenants.iter().map(|t| store.wal_path(t)).collect();
    drop(store);
    for path in &wal_paths {
        damage_wal(path, config.injection)?;
    }

    // Phase B: reboot. A fresh store recovers each tenant from its
    // snapshot + WAL tail through `DataLab::recover`, the serving
    // layer's own recovery path.
    let store = DurableStore::open(data_dir, durability, Telemetry::new())?;
    let mut failures = Vec::new();
    let mut torn_tenants = 0u64;
    let mut corrupt_tenants = 0u64;
    let mut replayed_records = 0u64;
    let mut recovered_labs: BTreeMap<String, DataLab> = BTreeMap::new();

    for tenant in &tenants {
        let outcome = store.recover_with(tenant, |outcome| {
            (
                DataLab::recover(DataLabConfig::default(), outcome),
                outcome.torn_tail,
                outcome.corrupt_tail,
                outcome.records.len() as u64,
            )
        })?;
        let Some((lab, torn, corrupt, replayed)) = outcome else {
            failures.push(format!("tenant {tenant}: no durable state found"));
            continue;
        };
        torn_tenants += u64::from(torn);
        corrupt_tenants += u64::from(corrupt);
        replayed_records += replayed;
        match config.injection {
            CrashInjection::TornTail if !torn => {
                failures.push(format!("tenant {tenant}: torn tail not detected"));
            }
            CrashInjection::BitFlip if !corrupt => {
                failures.push(format!("tenant {tenant}: corrupt frame not detected"));
            }
            CrashInjection::None if torn || corrupt => {
                failures.push(format!("tenant {tenant}: clean WAL reported damage"));
            }
            _ => {}
        }
        recovered_labs.insert(tenant.clone(), lab);
    }

    // Gate 1 (WAL-only mode): recovered run records reproduce the
    // pre-crash fleet report bit-for-bit modulo wall clock.
    let report_checked = config.snapshot_every == 0;
    let report_match = if report_checked {
        let collect = |labs: &mut BTreeMap<String, DataLab>| {
            let mut records = Vec::new();
            for lab in labs.values_mut() {
                records.extend(lab.take_run_records());
            }
            FleetReport::from_records(&records)
        };
        let mut pre_labs: BTreeMap<String, DataLab> = truths
            .iter_mut()
            .map(|(t, truth)| {
                (
                    t.clone(),
                    std::mem::replace(&mut truth.lab, DataLab::new(DataLabConfig::default())),
                )
            })
            .collect();
        let pre = collect(&mut pre_labs);
        // Put the labs back for the probe comparison below.
        for (tenant, lab) in pre_labs {
            truths.get_mut(&tenant).expect("tenant exists").lab = lab;
        }
        let post = collect(&mut recovered_labs);
        let matched = pre.comparable() == post.comparable();
        if !matched {
            failures.push(format!(
                "fleet report diverged after recovery: pre {}/{} passed, post {}/{} passed",
                pre.passed, pre.runs, post.passed, post.runs
            ));
        }
        matched
    } else {
        true
    };

    // Gate 2: durable state and probe equivalence per tenant.
    let mut state_match = true;
    for (tenant, truth) in truths.iter_mut() {
        let Some(recovered) = recovered_labs.get_mut(tenant) else {
            state_match = false;
            continue;
        };
        let recovered_state = recovered.durable_state();
        if recovered_state != truth.state {
            state_match = false;
            let what = [
                ("tables", recovered_state.tables == truth.state.tables),
                (
                    "knowledge",
                    recovered_state.knowledge_json == truth.state.knowledge_json,
                ),
                (
                    "notebook",
                    recovered_state.notebook_json == truth.state.notebook_json,
                ),
                ("history", recovered_state.history == truth.state.history),
                (
                    "ingest_keys",
                    recovered_state.ingest_keys == truth.state.ingest_keys,
                ),
            ]
            .iter()
            .filter(|(_, same)| !same)
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(",");
            failures.push(format!(
                "tenant {tenant}: recovered state diverged ({what})"
            ));
            continue;
        }
        let pre_probe = probe_fingerprint(&truth.lab.query_as("probe", PROBE));
        let post_probe = probe_fingerprint(&recovered.query_as("probe", PROBE));
        if pre_probe != post_probe {
            state_match = false;
            failures.push(format!(
                "tenant {tenant}: probe diverged\n  pre:  {pre_probe}\n  post: {post_probe}"
            ));
        }
        // The fingerprint omits what the probe wrote (notebook cells,
        // history); compare the post-probe durable state as well.
        if truth.lab.durable_state() != recovered.durable_state() {
            state_match = false;
            failures.push(format!(
                "tenant {tenant}: durable state diverged after the probe"
            ));
        }
    }

    Ok(CrashReport {
        seed: config.seed,
        tasks_per_workload: config.tasks_per_workload as u64,
        snapshot_every: config.snapshot_every,
        injection: config.injection.as_str().to_string(),
        tenants: tenants.len() as u64,
        records_appended,
        torn_tenants,
        corrupt_tenants,
        replayed_records,
        report_checked,
        report_match,
        state_match,
        failures,
    })
}

/// One-line summary per scenario for terminal output.
pub fn render_crash_report(report: &CrashReport) -> String {
    format!(
        "{:<8} snapshot_every={:<3} tenants={:<3} appended={:<4} replayed={:<4} \
         torn={:<3} corrupt={:<3} report_match={:<5} state_match={:<5} {}",
        report.injection,
        report.snapshot_every,
        report.tenants,
        report.records_appended,
        report.replayed_records,
        report.torn_tenants,
        report.corrupt_tenants,
        report.report_match,
        report.state_match,
        if report.ok() { "OK" } else { "FAILED" }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "datalab-crash-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn run(tag: &str, config: &CrashConfig) -> CrashReport {
        let dir = temp_dir(tag);
        let report = run_crash_recovery(config, &dir).expect("harness runs");
        let _ = std::fs::remove_dir_all(&dir);
        report
    }

    #[test]
    fn torn_tail_recovery_reproduces_the_fleet_report() {
        let report = run(
            "torn",
            &CrashConfig {
                tasks_per_workload: 1,
                injection: CrashInjection::TornTail,
                snapshot_every: 0,
                ..CrashConfig::default()
            },
        );
        assert!(report.ok(), "{:?}", report.failures);
        assert!(report.report_checked);
        assert_eq!(report.torn_tenants, report.tenants);
        assert_eq!(report.corrupt_tenants, 0);
        assert_eq!(report.replayed_records, report.records_appended);
    }

    #[test]
    fn bit_flip_recovery_drops_the_frame_and_matches() {
        let report = run(
            "flip",
            &CrashConfig {
                tasks_per_workload: 1,
                injection: CrashInjection::BitFlip,
                snapshot_every: 0,
                ..CrashConfig::default()
            },
        );
        assert!(report.ok(), "{:?}", report.failures);
        assert_eq!(report.corrupt_tenants, report.tenants);
        assert_eq!(report.torn_tenants, 0);
    }

    #[test]
    fn snapshot_path_recovers_state_and_probe_equivalence() {
        let report = run(
            "snap",
            &CrashConfig {
                tasks_per_workload: 2,
                injection: CrashInjection::None,
                snapshot_every: 2,
                ..CrashConfig::default()
            },
        );
        assert!(report.ok(), "{:?}", report.failures);
        assert!(!report.report_checked, "snapshots fold away run records");
        assert!(report.state_match);
        // The cadence actually fired: fewer records replayed than appended.
        assert!(
            report.replayed_records < report.records_appended,
            "{report:?}"
        );
    }

    #[test]
    fn report_serializes_for_the_artifact_writer() {
        let report = run(
            "json",
            &CrashConfig {
                tasks_per_workload: 1,
                ..CrashConfig::default()
            },
        );
        let json = datalab_json::to_string(&report);
        let back: CrashReport = datalab_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(render_crash_report(&report).contains("OK"));
    }
}
