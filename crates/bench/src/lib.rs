//! Shared helpers for the DataLab benchmark harness.

#![warn(missing_docs)]

use datalab_telemetry::Telemetry;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Prints a section header for a reproduced table/figure.
pub fn header(title: &str, paper_ref: &str) {
    println!();
    println!("==================================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; paper values quoted for shape comparison)");
    println!("==================================================================");
}

/// Prints one metric row: benchmark, metric, and per-method values.
pub fn row(benchmark: &str, metric: &str, cells: &[(&str, String)]) {
    let body: Vec<String> = cells.iter().map(|(m, v)| format!("{m}={v}")).collect();
    println!("{benchmark:<18} {metric:<22} {}", body.join("  "));
}

/// The directory telemetry artifacts land in: `target/telemetry/`
/// (honouring `CARGO_TARGET_DIR`), created on first use.
pub fn telemetry_dir() -> std::io::Result<PathBuf> {
    let target =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()));
    let dir = target.join("telemetry");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes a bench run's telemetry (metrics registry + token attribution)
/// as `target/telemetry/<bench_name>_telemetry.json`, so runs can be
/// diffed offline. Creates the directory if needed. Returns the path
/// written, or `None` when the directory is not writable (benches must
/// not fail on I/O).
pub fn write_metrics_snapshot(bench_name: &str, telemetry: &Telemetry) -> Option<PathBuf> {
    let dir = match telemetry_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("telemetry snapshot not written ({e})");
            return None;
        }
    };
    let path = dir.join(format!("{bench_name}_telemetry.json"));
    match std::fs::write(&path, telemetry.snapshot_json().to_string()) {
        Ok(()) => {
            println!("telemetry snapshot: {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("telemetry snapshot not written ({e})");
            None
        }
    }
}

/// The median of `v` (the upper one for even lengths; `0.0` when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(v.len() / 2).copied().unwrap_or(0.0)
}

/// A median-of-N wall-clock timer for the micro-benchmarks.
///
/// Each sample runs the body enough times to take at least a millisecond
/// and records the mean time per call; the report is the median sample,
/// with the fastest and slowest beside it. Run with `--test` (as in
/// `cargo bench --bench micro_engines -- --test`) to run every body once
/// as a smoke check instead.
#[derive(Debug, Clone, Copy)]
pub struct Timer {
    smoke: bool,
}

impl Timer {
    /// A timer configured from the process arguments.
    pub fn from_args() -> Timer {
        Timer {
            smoke: std::env::args().any(|a| a == "--test"),
        }
    }

    /// Times `f` over `samples` samples and prints one line for `name`.
    pub fn bench<O>(&self, name: &str, samples: usize, mut f: impl FnMut() -> O) {
        self.measure(name, samples, |iters| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed()
        });
    }

    /// Like [`Timer::bench`], but each call consumes a fresh input from
    /// `setup`, whose time is not counted.
    pub fn bench_batched<I, O>(
        &self,
        name: &str,
        samples: usize,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
    ) {
        self.measure(name, samples, |iters| {
            (0..iters)
                .map(|_| {
                    let input = setup();
                    let t0 = Instant::now();
                    black_box(routine(black_box(input)));
                    t0.elapsed()
                })
                .sum()
        });
    }

    /// `run(iters)` performs `iters` calls and returns their time.
    fn measure(&self, name: &str, samples: usize, mut run: impl FnMut(u32) -> Duration) {
        if self.smoke {
            run(1);
            println!("{name}: ok");
            return;
        }
        let mut iters = 1;
        while run(iters) < Duration::from_millis(1) && iters < 1 << 20 {
            iters *= 2;
        }
        let samples = samples.max(1);
        let per_call: Vec<f64> = (0..samples)
            .map(|_| run(iters).as_secs_f64() / f64::from(iters))
            .collect();
        let lo = per_call.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = per_call.iter().copied().fold(0.0, f64::max);
        println!(
            "{name:<40} {:>10}  [{} .. {}]  ({samples} samples x {iters} calls)",
            human(median(per_call)),
            human(lo),
            human(hi),
        );
    }
}

fn human(secs: f64) -> String {
    match secs {
        s if s < 1e-6 => format!("{:.1} ns", s * 1e9),
        s if s < 1e-3 => format!("{:.2} us", s * 1e6),
        s if s < 1.0 => format!("{:.2} ms", s * 1e3),
        s => format!("{s:.2} s"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_lands_in_the_telemetry_dir() {
        let t = Telemetry::new();
        t.metrics().incr("llm.calls", 3);
        t.record_llm_call(10, 2);
        let path = write_metrics_snapshot("bench_lib_test", &t).expect("writable target dir");
        assert_eq!(
            path.parent().and_then(|p| p.file_name()).unwrap(),
            "telemetry"
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"llm.calls\""), "{text}");
        assert!(text.contains("\"attribution\""), "{text}");
        std::fs::remove_file(path).ok();
    }
}
