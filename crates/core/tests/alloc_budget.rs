//! Allocation budget of the forwarding path: heap allocations per executed
//! event, whole run included (build, dispatch, recorder, oracle finalize,
//! report), must stay under a committed ceiling.
//!
//! The frame path decodes each frame once and hands payloads on as views
//! (`Packet::decode_shared`, `Bytes::slice`); a per-hop copy that creeps
//! back in — a copying decode in the node glue, a `clone` that became a
//! deep copy, a probe that re-parses into fresh buffers — raises the count
//! by 0.5–2 per event on these scenarios and fails here, in `cargo test`,
//! instead of only in the perf pipeline. The counts are exact properties of
//! the code (they repeat to 1 part in 10⁷; the residue is the test
//! harness's own threads), so the ceilings sit ~15 % above the measured
//! values: tight enough to catch one copy per hop, loose enough for
//! unrelated bookkeeping to move a little. If a deliberate change raises a
//! count, re-measure (the test prints every reading) and move the ceiling
//! in the same commit.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running on another thread would be counted too.

use mobicast_core::scenario::{self, PaperHost, ScenarioConfig};
use mobicast_core::strategy::Policy;
use mobicast_core::stress;
use mobicast_sim::SimDuration;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

// Statistics only: nothing is published through these, so `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    if COUNTING.load(Relaxed) {
        ALLOCATIONS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through as given.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` (which returns the events it executed) with counting on;
/// returns allocations per executed event.
fn allocations_per_event(f: impl FnOnce() -> u64) -> f64 {
    ALLOCATIONS.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let events = f();
    COUNTING.store(false, Relaxed);
    assert!(events > 0, "scenario executed no events");
    ALLOCATIONS.load(Relaxed) as f64 / events as f64
}

/// The quick 4×4 stress grid (24 routers, multipath flooding, roaming
/// receivers) under `policy`.
fn grid_spec(policy: Policy) -> stress::StressSpec {
    stress::specs(true)
        .into_iter()
        .find(|s| s.name.starts_with("grid") && s.policy == policy)
        .expect("the quick specs include the grid under this policy")
}

fn stress_allocations_per_event(spec: &stress::StressSpec) -> f64 {
    allocations_per_event(|| {
        let report = stress::run_stress(spec);
        assert_eq!(report.oracle_violations, 0, "{}", spec.name);
        report.events_executed
    })
}

#[test]
fn allocations_per_event_stay_under_budget() {
    // The Figure-1 network under the bidirectional HA tunnel, with the
    // paper's two moves (R3 → Link 6, then the sender → Link 6): every
    // datagram to the away receiver is encapsulated, forwarded and
    // decapsulated, and the away sender reverse-tunnels.
    let fig1 = ScenarioConfig::builder()
        .seed(11)
        .duration(SimDuration::from_secs(300))
        .policy(Policy::BIDIRECTIONAL_TUNNEL)
        .move_at(60.0, PaperHost::R3, 6)
        .move_at(150.0, PaperHost::S, 6)
        .name("fig1/bi-directional tunnel")
        .build();
    let fig1_per_event = allocations_per_event(|| {
        let result = scenario::run(&fig1);
        assert!(result.report.oracle.violations.is_empty());
        result.events_executed
    });
    let grid_native = grid_spec(Policy::LOCAL);
    let grid_tunnel = grid_spec(Policy::BIDIRECTIONAL_TUNNEL);
    // Ceilings ≈ 1.15 × the counts measured when each transmission came to
    // be parsed once (one memo per frame, none per receiver; a router's
    // Router Advertisement is one frame for the whole run): 1.9602, 1.0770,
    // 1.1423. With one queue entry per transmission but a decode per
    // receiver they read 2.5108, 2.0992, 2.1239; before that 4.7370,
    // 4.2179, 4.2141, and with a copying decode per hop 7.22, 5.64, 5.74.
    // Debug and release builds count the same.
    let readings = [
        (&*fig1.name, fig1_per_event, 2.25),
        (
            &*grid_native.name,
            stress_allocations_per_event(&grid_native),
            1.24,
        ),
        (
            &*grid_tunnel.name,
            stress_allocations_per_event(&grid_tunnel),
            1.31,
        ),
    ];
    for (name, per_event, ceiling) in readings {
        eprintln!("{name}: {per_event:.4} allocations/event (ceiling {ceiling})");
    }
    for (name, per_event, ceiling) in readings {
        assert!(
            per_event <= ceiling,
            "{name}: {per_event:.4} allocations per executed event exceed the budget of \
             {ceiling} — a per-hop copy on the frame path? (see the module comment)"
        );
    }
}
