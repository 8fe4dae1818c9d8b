//! The engine's hot loop all but stops allocating in steady state.
//!
//! A counting global allocator tallies the heap allocations (and
//! reallocations) made by the calling thread only, so tests the harness
//! runs in parallel on other threads cannot leak into the count. Each
//! policy replays a lazily synthesized Azure-like stream through
//! [`run_streaming_with_profile`] on this thread at the paper's 240 GB
//! worker. The measured window opens when the first arrival past half
//! the horizon is pulled — by then the pool, the history windows and
//! the timer wheel's buffers have grown to their working size — and
//! closes when the stream runs dry, before the tail drain and the
//! report. Inside that window the engine may allocate at most once per
//! 100 invocations fed, and reallocate (grow a buffer) at most once per
//! 20.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rainbowcake::prelude::*;
use rainbowcake::sim::run_streaming_with_profile;
use rainbowcake::trace::azure::azure_like_stream;
use rainbowcake_bench::make_policy;

thread_local! {
    /// Fresh heap allocations made by the current thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Reallocations (a buffer growing or shrinking) made by the
    /// current thread.
    static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator may run while a thread's locals are
    // being torn down.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

/// The calling thread's (allocations, reallocations) so far.
fn counts() -> (u64, u64) {
    (ALLOCATIONS.with(Cell::get), REALLOCATIONS.with(Cell::get))
}

/// [`System`], counting the calling thread's allocations into
/// [`ALLOCATIONS`] and its reallocations into [`REALLOCATIONS`].
struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATIONS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCATIONS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Passes arrivals through, snapshotting the allocation count when the
/// first arrival past `half` is pulled and again when the stream ends,
/// and counting the arrivals pulled in between.
struct Window<I> {
    arrivals: I,
    half: Instant,
    opened: Option<(u64, u64)>,
    closed: Option<(u64, u64)>,
    fed: u64,
}

impl<I: Iterator<Item = Arrival>> Iterator for Window<I> {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        let next = self.arrivals.next();
        match next {
            Some(a) => {
                if self.opened.is_none() && a.time > self.half {
                    self.opened = Some(counts());
                }
                self.fed += u64::from(self.opened.is_some());
            }
            None => {
                self.closed.get_or_insert_with(counts);
            }
        }
        next
    }
}

/// (Allocations, reallocations) per invocation fed in the second half
/// of a 3-hour stream, replayed for `policy_name` at 240 GB.
fn steady_state_per_invocation(policy_name: &str) -> (f64, f64) {
    let catalog = paper_catalog();
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours: 3,
            seed: 41518,
            rate_scale: 16.0,
        },
    );
    let horizon = stream.horizon();
    let config = SimConfig {
        memory_capacity: MemMb::from_gb(240),
        streaming_metrics: true,
        ..SimConfig::default()
    };
    let mut window = Window {
        arrivals: stream.iter(),
        half: Instant::from_micros(horizon.as_micros() / 2),
        opened: None,
        closed: None,
        fed: 0,
    };
    let mut policy = make_policy(policy_name, &catalog);
    let (report, _) =
        run_streaming_with_profile(&catalog, policy.as_mut(), &mut window, horizon, &config);
    assert_eq!(report.invocations() as u64, stream.total());
    let (opened, closed) = (
        window.opened.expect("the stream crosses half its horizon"),
        window.closed.expect("the engine drains the stream"),
    );
    assert!(
        window.fed > 10_000,
        "window too small: {} arrivals",
        window.fed
    );
    let fed = window.fed as f64;
    (
        (closed.0 - opened.0) as f64 / fed,
        (closed.1 - opened.1) as f64 / fed,
    )
}

/// At most one fresh allocation per 100 invocations, and one
/// reallocation per 20. The reallocations left are the coarse wheel
/// slots (16.7 s each) that hold more keep-alive timers than the wheel
/// keeps buffers for, growing again on each 18-minute rotation.
fn assert_steady_state(policy_name: &str) {
    let (allocs, reallocs) = steady_state_per_invocation(policy_name);
    assert!(
        allocs <= 0.01,
        "{policy_name}: {allocs:.4} allocations per invocation"
    );
    assert!(
        reallocs <= 0.05,
        "{policy_name}: {reallocs:.4} reallocations per invocation"
    );
}

#[test]
fn rainbowcake_steady_state_barely_allocates() {
    assert_steady_state("RainbowCake");
}

#[test]
fn openwhisk_steady_state_barely_allocates() {
    assert_steady_state("OpenWhisk");
}
