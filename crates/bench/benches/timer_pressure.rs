//! Criterion bench: timer pressure of the RainbowCake ladder on the
//! engine's lazy schedule (one terminal timer per idle period, elapsed
//! rungs settled at dispatch).
//!
//! Each measurement simulates a one-hour Azure-like trace at 10, 100
//! and 1000 functions. Besides Criterion's per-iteration timing, each
//! configuration prints its dispatched-event count, events per
//! invocation, and events per second, so a change in event multiplicity
//! shows up next to the wall-clock figure.

use std::time::Instant as WallInstant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use rainbowcake_bench::make_policy;
use rainbowcake_sim::{run, run_streaming_with_profile, SimConfig};
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_workloads::synthetic_catalog;

fn bench_timer_pressure(c: &mut Criterion) {
    let config = SimConfig::default();
    for functions in [10usize, 100, 1000] {
        let catalog = synthetic_catalog(functions);
        let trace = azure_like_trace(
            catalog.len(),
            &AzureConfig {
                hours: 1,
                ..AzureConfig::default()
            },
        );
        let mut group = c.benchmark_group(format!("timer_pressure/{functions}fn"));
        group.sample_size(10);
        // One profiled warm-up run pins the event count (events
        // dispatched is deterministic) and surfaces the
        // events-per-invocation figure of merit; an unprofiled timed run
        // turns it into events per second.
        let mut policy = make_policy("RainbowCake", &catalog);
        let (_, profile) = run_streaming_with_profile(
            &catalog,
            policy.as_mut(),
            trace.iter().copied(),
            trace.horizon(),
            &config,
        );
        let t0 = WallInstant::now();
        let mut policy = make_policy("RainbowCake", &catalog);
        black_box(run(&catalog, policy.as_mut(), &trace, &config));
        let events_per_s = profile.total_events() as f64 / t0.elapsed().as_secs_f64();
        println!(
            "timer_pressure/{functions}fn lazy: {} events, {} invocations \
             ({:.2} events/invocation, {events_per_s:.0} events/s)",
            profile.total_events(),
            profile.invocations,
            profile.events_per_invocation()
        );
        group.bench_function("lazy", |b| {
            b.iter(|| {
                let mut policy = make_policy("RainbowCake", &catalog);
                black_box(run(&catalog, policy.as_mut(), &trace, &config))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_timer_pressure);
criterion_main!(benches);
