//! Criterion bench: compound-rate query cost through the active-member
//! fast path vs the naive oracle, at catalog sizes 10 / 100 / 1000.
//!
//! Two cases per scope:
//!
//! * `*_scan` — `now` advances every iteration: a scan over the active
//!   members off the dense per-function aggregates;
//! * `uncached_*` — the naive O(functions-in-scope) oracle
//!   ([`HistoryRecorder::rate_uncached`]) the fast path must match
//!   bit-for-bit.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use rainbowcake_core::history::{HistoryRecorder, ShareScope};
use rainbowcake_core::time::Instant;
use rainbowcake_core::types::{FunctionId, Language};
use rainbowcake_workloads::synthetic_catalog;

fn warmed_recorder(n: usize) -> (HistoryRecorder, Instant) {
    let catalog = synthetic_catalog(n);
    let mut rec = HistoryRecorder::new(&catalog, 6).unwrap();
    // Eight arrivals per function: every member is active (>= 2
    // windowed arrivals), so scans do maximal work.
    for i in 0..(n as u64 * 8) {
        rec.record_arrival(
            FunctionId::new((i % n as u64) as u32),
            Instant::from_micros(i * 250_000),
        );
    }
    let now = Instant::from_micros(n as u64 * 8 * 250_000);
    (rec, now)
}

fn bench_history_rate(c: &mut Criterion) {
    let mut group = c.benchmark_group("history_rate");
    for &n in &[10usize, 100, 1000] {
        let (rec, now) = warmed_recorder(n);
        let lang = ShareScope::Language(Language::Python);

        group.bench_with_input(BenchmarkId::new("function", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate(black_box(ShareScope::Function(FunctionId::new(3))), now)))
        });

        group.bench_with_input(BenchmarkId::new("lang_scan", n), &n, |b, _| {
            let mut tick = now.as_micros();
            b.iter(|| {
                tick += 1;
                black_box(rec.rate(black_box(lang), Instant::from_micros(tick)))
            })
        });
        group.bench_with_input(BenchmarkId::new("global_scan", n), &n, |b, _| {
            let mut tick = now.as_micros();
            b.iter(|| {
                tick += 1;
                black_box(rec.rate(black_box(ShareScope::Global), Instant::from_micros(tick)))
            })
        });

        group.bench_with_input(BenchmarkId::new("uncached_lang", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate_uncached(black_box(lang), now)))
        });
        group.bench_with_input(BenchmarkId::new("uncached_global", n), &n, |b, _| {
            b.iter(|| black_box(rec.rate_uncached(black_box(ShareScope::Global), now)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_history_rate);
criterion_main!(benches);
