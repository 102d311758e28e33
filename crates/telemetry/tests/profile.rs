//! Integration tests for the continuous-profiling layer, run with the
//! counting global allocator installed — the configuration the server
//! and bench binaries ship with. The unit tests inside the crate run
//! *without* the allocator (exercising the zero fallbacks); this binary
//! pins the installed behaviour: exact thread-local attribution under
//! concurrency, span-level alloc deltas from a real tracer, and the
//! collapsed-stack export's structural invariants.

use datalab_rng::prop::{self as proptest, prelude::*};
use datalab_telemetry::{
    allocator_installed, folded_stacks, folded_total, global_alloc_stats, thread_alloc_stats,
    CountingAlloc, ProfileWeight, SpanNode, Telemetry,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allocates the given buffer sizes on a fresh thread inside a tight
/// measurement window and returns `((allocs, bytes), (frees, freed))`
/// deltas for exactly that window. The holding `Vec` is sized before the
/// window opens and only cleared (elements dropped, backbone kept)
/// before it closes, so the expected counts are exact: one allocation
/// and one free of exactly `size` bytes per entry.
fn measured_thread(sizes: Vec<usize>) -> ((u64, u64), (u64, u64)) {
    std::thread::spawn(move || {
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(sizes.len());
        let before = thread_alloc_stats();
        for &size in &sizes {
            held.push(vec![0u8; size]);
        }
        let mid = thread_alloc_stats();
        held.clear();
        let after = thread_alloc_stats();
        (
            (mid.allocs - before.allocs, mid.bytes - before.bytes),
            (after.frees - mid.frees, after.freed_bytes - mid.freed_bytes),
        )
    })
    .join()
    .expect("measurement thread")
}

#[test]
fn allocator_reports_installed_and_counts_globally() {
    assert!(allocator_installed());
    let before = global_alloc_stats();
    let buf = vec![7u8; 100_000];
    let after = global_alloc_stats();
    drop(buf);
    assert!(after.allocs > before.allocs);
    assert!(after.bytes >= before.bytes + 100_000);
}

#[test]
fn concurrent_threads_attribute_their_own_allocations_exactly() {
    let global_before = global_alloc_stats();
    let handles: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                let sizes: Vec<usize> = (0..50 + i * 10).map(|j| 64 + j * (i + 1)).collect();
                let expected_bytes: u64 = sizes.iter().map(|s| *s as u64).sum();
                let expected_count = sizes.len() as u64;
                (measured_thread(sizes), expected_count, expected_bytes)
            })
        })
        .collect();
    let mut total_allocs = 0;
    let mut total_bytes = 0;
    for handle in handles {
        let (((allocs, bytes), (frees, freed)), expected_count, expected_bytes) =
            handle.join().expect("worker");
        // Exact, not approximate: nothing else allocates inside the
        // window, and other threads' traffic never leaks in.
        assert_eq!(allocs, expected_count);
        assert_eq!(bytes, expected_bytes);
        assert_eq!(frees, expected_count);
        assert_eq!(freed, expected_bytes);
        total_allocs += expected_count;
        total_bytes += expected_bytes;
    }
    let global_after = global_alloc_stats();
    assert!(global_after.allocs >= global_before.allocs + total_allocs);
    assert!(global_after.bytes >= global_before.bytes + total_bytes);
    assert!(global_after.frees >= global_before.frees + total_allocs);
}

#[test]
fn spans_carry_alloc_deltas_and_alloc_weighted_profiles_are_nonempty() {
    let t = Telemetry::new();
    {
        let _root = t.span("query");
        let _work = vec![0u8; 1 << 16];
    }
    let forest = t.drain_trace();
    assert_eq!(forest.len(), 1);
    let root = &forest[0];
    assert!(root.allocs >= 1, "{root:?}");
    assert!(root.alloc_bytes >= 1 << 16, "{root:?}");
    let folded = folded_stacks(&forest, ProfileWeight::AllocBytes);
    assert!(folded.starts_with("query "), "{folded}");
    assert_eq!(folded_total(&folded), root.alloc_bytes);
    let by_count = folded_stacks(&forest, ProfileWeight::AllocCount);
    assert_eq!(folded_total(&by_count), root.allocs);
}

#[test]
fn stage_scopes_observe_alloc_histograms_when_installed() {
    let t = Telemetry::new();
    {
        let _stage = t.stage("execute");
        let _work = vec![0u8; 4096];
    }
    let bytes = t
        .metrics()
        .histogram("alloc.stage_bytes.execute")
        .expect("bytes histogram");
    assert_eq!(bytes.count, 1);
    assert!(bytes.sum >= 4096, "{bytes:?}");
    let count = t
        .metrics()
        .histogram("alloc.stage_allocs.execute")
        .expect("count histogram");
    assert_eq!(count.count, 1);
    assert!(count.sum >= 1);
}

#[test]
fn snapshot_exports_live_alloc_counters() {
    let t = Telemetry::new();
    let keep = vec![1u8; 8192];
    let json = t.snapshot_json();
    drop(keep);
    // With the allocator installed the counters are real, not zero.
    let field = |name: &str| {
        json["counters"][name]
            .as_u64()
            .unwrap_or_else(|| panic!("{name} missing: {json}"))
    };
    assert!(field("alloc.allocs") > 0);
    assert!(field("alloc.bytes") > 0);
}

proptest! {
    /// Thread-local deltas count a controlled allocation pattern
    /// exactly, for any pattern: `n` buffers of arbitrary sizes yield
    /// precisely `n` allocations of precisely the summed bytes, and
    /// dropping them yields the mirror-image frees.
    #[test]
    fn thread_deltas_are_exact_for_any_allocation_pattern(
        sizes in proptest::collection::vec(1usize..16_384, 1..64),
    ) {
        let expected_count = sizes.len() as u64;
        let expected_bytes: u64 = sizes.iter().map(|s| *s as u64).sum();
        let ((allocs, bytes), (frees, freed)) = measured_thread(sizes);
        prop_assert_eq!(allocs, expected_count);
        prop_assert_eq!(bytes, expected_bytes);
        prop_assert_eq!(frees, expected_count);
        prop_assert_eq!(freed, expected_bytes);
    }

    /// Folded output over arbitrary span trees is deterministic and
    /// structurally well-formed — every line is `stack weight` with a
    /// positive weight and non-empty, separator-free frames (names
    /// containing `;`, spaces, or nothing at all are sanitised) — and
    /// wall weights are conserved: the folded total equals the summed
    /// root time whenever children nest inside their parents.
    #[test]
    fn folded_output_is_deterministic_well_formed_and_weight_conserving(
        roots in proptest::collection::vec(
            (
                "[a-zA-Z; _]{0,10}",
                0u64..1_000,
                proptest::collection::vec(("[a-zA-Z; _]{0,10}", 1u64..1_000), 0..4),
            ),
            1..6,
        ),
    ) {
        let spans: Vec<SpanNode> = roots
            .iter()
            .map(|(name, self_us, kids)| {
                let children: Vec<SpanNode> = kids
                    .iter()
                    .map(|(kid_name, kid_dur)| SpanNode {
                        name: kid_name.clone(),
                        start_us: 0,
                        dur_us: *kid_dur,
                        cpu_us: 0,
                        allocs: 0,
                        alloc_bytes: 0,
                        attrs: vec![],
                        children: vec![],
                    })
                    .collect();
                // Parent time = own work + children, so nesting holds
                // and the conservation property is exact.
                let dur_us = self_us + children.iter().map(|c| c.dur_us).sum::<u64>();
                SpanNode {
                    name: name.clone(),
                    start_us: 0,
                    dur_us,
                    cpu_us: 0,
                    allocs: 0,
                    alloc_bytes: 0,
                    attrs: vec![],
                    children,
                }
            })
            .collect();
        let folded = folded_stacks(&spans, ProfileWeight::Wall);
        prop_assert_eq!(&folded, &folded_stacks(&spans, ProfileWeight::Wall));
        for line in folded.lines() {
            let parts = line.rsplit_once(' ');
            prop_assert!(parts.is_some(), "malformed line `{}`", line);
            let (stack, weight) = parts.expect("checked above");
            let weight: u64 = weight.parse().expect("numeric weight");
            prop_assert!(weight > 0, "zero-weight line `{}`", line);
            for frame in stack.split(';') {
                prop_assert!(!frame.is_empty(), "empty frame in `{}`", line);
                prop_assert!(
                    !frame.contains(char::is_whitespace),
                    "unsanitised frame in `{}`",
                    line
                );
            }
        }
        let root_total: u64 = spans.iter().map(|s| s.dur_us).sum();
        prop_assert_eq!(folded_total(&folded), root_total);
    }
}
