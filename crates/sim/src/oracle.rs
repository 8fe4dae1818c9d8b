//! Oracle tests for the engine's and the cluster's single production
//! paths.
//!
//! The shipped engine has one dispatch path: the timer wheel, drained a
//! tick at a time, with lazy ladder timers. Its predecessors survive
//! here as test-only references ([`Oracle`]): the `BinaryHeap`
//! future-event list, per-event pop-and-dispatch, and the eager per-rung
//! downgrade chain. On the full §7.1 six-policy suite over the 8-hour
//! paper trace, every combination must produce `RunReport` JSON that is
//! **byte-identical** to the production path, both on the calling
//! thread and fanned out over worker threads.
//!
//! The shipped cluster has one execution path,
//! [`run_cluster_streaming`]. Its materialized predecessor lives here as
//! [`route_trace`] plus [`run_cluster`]: route the whole trace up front,
//! then run each worker's sub-trace one after another. On the six-policy
//! suite at 1, 2, 4 and 8 shards the two must serialize identically.

use std::thread;

use proptest::prelude::*;

use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::Policy;
use rainbowcake_core::profile::{Catalog, FunctionProfile};
use rainbowcake_core::rainbow::RainbowCake;
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{FunctionId, Language};
use rainbowcake_policies::{FaasCache, Histogram, OpenWhiskDefault, Pagurus, Seuss};
use rainbowcake_trace::azure::{azure_like_trace, AzureConfig};
use rainbowcake_trace::{Arrival, Trace};
use rainbowcake_workloads::paper_catalog;

use crate::cluster::{
    run_cluster_streaming, ClusterReport, LocalitySharingLoad, Router, WorkerView,
};
use crate::engine::{run_oracle, Oracle};
use crate::{run, run_streaming_with_profile, SimConfig};

/// The six policies of §7.1, in the paper's presentation order.
const POLICIES: [&str; 6] = [
    "OpenWhisk",
    "Histogram",
    "FaasCache",
    "SEUSS",
    "Pagurus",
    "RainbowCake",
];

fn make_policy(name: &str, catalog: &Catalog) -> Box<dyn Policy> {
    match name {
        "OpenWhisk" => Box::new(OpenWhiskDefault::new()),
        "Histogram" => Box::new(Histogram::new(catalog.len())),
        "FaasCache" => Box::new(FaasCache::new()),
        "SEUSS" => Box::new(Seuss::new()),
        "Pagurus" => Box::new(Pagurus::new(catalog.len())),
        "RainbowCake" => {
            Box::new(RainbowCake::with_defaults(catalog).expect("default config is valid"))
        }
        other => panic!("unknown policy {other}"),
    }
}

/// Routes `trace` across `workers` nodes with `router` and returns one
/// sub-trace per worker (same horizon as the input): the materialized
/// reference for the routing step of [`run_cluster_streaming`].
///
/// # Panics
///
/// Panics if `workers` is zero or the router returns an out-of-range
/// worker.
fn route_trace(
    catalog: &Catalog,
    trace: &Trace,
    workers: usize,
    router: &mut dyn Router,
) -> Vec<Trace> {
    assert!(workers > 0, "cluster needs at least one worker");
    let mut views: Vec<WorkerView> = (0..workers)
        .map(|_| WorkerView::new(catalog.len()))
        .collect();
    let mut sub: Vec<Vec<Arrival>> = vec![Vec::new(); workers];
    for a in trace.iter() {
        let language = catalog.profile(a.function).language;
        let w = router.route(a.time, a.function, language, &views);
        assert!(w < workers, "router returned an out-of-range worker");
        views[w].record(a.function, language, a.time);
        sub[w].push(*a);
    }
    sub.into_iter()
        .map(|arrivals| Trace::from_arrivals(trace.horizon(), arrivals))
        .collect()
}

/// The sequential reference for [`run_cluster_streaming`]: routes
/// `trace` with [`route_trace`], then runs each worker's sub-trace in
/// worker order on the calling thread, with a fresh policy from
/// `make_policy`.
pub(crate) fn run_cluster(
    catalog: &Catalog,
    make_policy: &dyn Fn() -> Box<dyn Policy>,
    trace: &Trace,
    workers: usize,
    per_worker: &SimConfig,
    router: &mut dyn Router,
) -> ClusterReport {
    let sub = route_trace(catalog, trace, workers, router);
    let assigned: Vec<usize> = sub.iter().map(|s| s.len()).collect();
    let workers = sub
        .iter()
        .map(|sub_trace| run(catalog, make_policy().as_mut(), sub_trace, per_worker))
        .collect();
    ClusterReport {
        router: router.name(),
        workers,
        assigned,
    }
}

/// The §7.2 evaluation setup: the 20-function catalog, an Azure-like
/// trace, and the 240 GB worker.
struct Suite {
    catalog: Catalog,
    trace: Trace,
    config: SimConfig,
}

impl Suite {
    /// The setup on an `hours`-long Azure-like trace (§7.2 uses 8).
    fn paper_hours(hours: u64) -> Self {
        let catalog = paper_catalog();
        let azure = AzureConfig {
            hours,
            ..AzureConfig::default()
        };
        let trace = azure_like_trace(catalog.len(), &azure);
        Suite {
            catalog,
            trace,
            config: SimConfig::default(),
        }
    }

    /// One policy's report bytes on the references `oracle` selects.
    fn report(&self, name: &str, oracle: Oracle) -> String {
        let mut policy = make_policy(name, &self.catalog);
        let (report, _) = run_oracle(
            &self.catalog,
            policy.as_mut(),
            &self.trace,
            &self.config,
            oracle,
        );
        report.to_json()
    }

    /// Every policy's report bytes on `oracle`, in [`POLICIES`] order,
    /// computed on the calling thread (`threads == 0`) or dealt
    /// round-robin to `threads` scoped worker threads.
    fn reports(&self, oracle: Oracle, threads: usize) -> Vec<String> {
        if threads == 0 {
            return POLICIES.iter().map(|n| self.report(n, oracle)).collect();
        }
        let mut out = vec![String::new(); POLICIES.len()];
        thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        (t..POLICIES.len())
                            .step_by(threads)
                            .map(|i| (i, self.report(POLICIES[i], oracle)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for worker in workers {
                for (i, json) in worker.join().expect("suite worker panicked") {
                    out[i] = json;
                }
            }
        });
        out
    }

    /// `name`'s cluster report at `shards` shards under the §8
    /// scheduler, through the streaming pipeline or, with `sequential`,
    /// through the materialized reference [`run_cluster`].
    fn cluster(
        &self,
        name: &str,
        shards: usize,
        config: &SimConfig,
        sequential: bool,
    ) -> ClusterReport {
        let mut router = LocalitySharingLoad::default();
        let factory = || make_policy(name, &self.catalog);
        if sequential {
            return run_cluster(
                &self.catalog,
                &factory,
                &self.trace,
                shards,
                config,
                &mut router,
            );
        }
        run_cluster_streaming(
            &self.catalog,
            &factory,
            self.trace.iter().copied(),
            self.trace.horizon(),
            shards,
            config,
            &mut router,
        )
        .report
    }
}

/// Shard counts the cluster oracle tests cover.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn full_suite_is_byte_identical_across_backends_and_threads() {
    let suite = Suite::paper_hours(8);
    // The heap backend popping one event at a time, run sequentially,
    // is the behavioural reference.
    let heap = Oracle {
        heap_queue: true,
        per_event: true,
        ..Oracle::default()
    };
    let reference = suite.reports(heap, 0);
    assert_eq!(reference.len(), POLICIES.len());
    for per_event in [true, false] {
        for threads in [0, 1, 4] {
            let wheel = Oracle {
                per_event,
                ..Oracle::default()
            };
            assert_eq!(
                suite.reports(wheel, threads),
                reference,
                "timer wheel diverged from heap reference \
                 (per-event {per_event}, {threads} threads)"
            );
        }
    }
    // The heap itself is also invariant across dispatch modes and
    // thread counts (sanity: the executor and the batcher, not the
    // backend, are what vary here).
    let heap_batched = Oracle {
        heap_queue: true,
        ..Oracle::default()
    };
    assert_eq!(
        suite.reports(heap_batched, 4),
        reference,
        "heap backend diverged across dispatch modes and thread counts"
    );
    // And both shipped entry points are the production cell.
    for (name, expected) in POLICIES.iter().zip(&reference) {
        let mut policy = make_policy(name, &suite.catalog);
        let report = run(&suite.catalog, policy.as_mut(), &suite.trace, &suite.config);
        assert_eq!(&report.to_json(), expected, "{name}: run diverged");
        let mut policy = make_policy(name, &suite.catalog);
        let (report, profile) = run_streaming_with_profile(
            &suite.catalog,
            policy.as_mut(),
            suite.trace.iter().copied(),
            suite.trace.horizon(),
            &suite.config,
        );
        assert_eq!(
            &report.to_json(),
            expected,
            "{name}: run_streaming_with_profile diverged"
        );
        assert_eq!(profile.invocations, report.invocations() as u64, "{name}");
        assert!(
            profile.total_events() >= profile.invocations,
            "{name}: profiled fewer events than completed invocations"
        );
    }
}

#[test]
fn full_suite_is_byte_identical_across_shard_counts_and_backends() {
    // Two paper hours keep the debug-build matrix (6 policies x 4 shard
    // counts x 2 metrics modes x 2 pipelines) inside CI budget while
    // every shard still sees thousands of arrivals.
    let suite = Suite::paper_hours(2);
    for streaming_metrics in [false, true] {
        let config = SimConfig {
            streaming_metrics,
            ..suite.config.clone()
        };
        for name in POLICIES {
            for shards in SHARD_COUNTS {
                assert_eq!(
                    suite.cluster(name, shards, &config, false).to_json(),
                    suite.cluster(name, shards, &config, true).to_json(),
                    "{name}: streaming pipeline diverged at {shards} shards \
                     (streaming_metrics: {streaming_metrics})"
                );
            }
        }
    }
}

#[test]
fn merged_streaming_report_matches_merged_sequential() {
    // The deterministic cross-shard reduction must also be invariant:
    // merging the streaming pipeline's per-worker reports gives the
    // same single-node rollup as merging the sequential pipeline's.
    let suite = Suite::paper_hours(1);
    for shards in SHARD_COUNTS {
        assert_eq!(
            suite
                .cluster("RainbowCake", shards, &suite.config, false)
                .merged()
                .to_json(),
            suite
                .cluster("RainbowCake", shards, &suite.config, true)
                .merged()
                .to_json(),
            "merged reduction diverged at {shards} shards"
        );
    }
}

#[test]
fn lazy_timers_are_byte_identical_to_the_eager_chain() {
    let suite = Suite::paper_hours(8);
    // The eager per-rung chain on the heap backend, one event at a
    // time, is the behavioural reference for the lazy terminal-timer
    // path: every policy — RainbowCake's three-rung ladder above all —
    // must produce the same bytes with 3x fewer timer events.
    let reference = suite.reports(
        Oracle {
            heap_queue: true,
            per_event: true,
            eager_timers: true,
        },
        0,
    );
    assert_eq!(reference.len(), POLICIES.len());
    for oracle in Oracle::all() {
        assert_eq!(
            suite.reports(oracle, 0),
            reference,
            "timer modes diverged ({oracle:?})"
        );
    }
    // And through worker threads on the production path (no oracle).
    assert_eq!(
        suite.reports(Oracle::default(), 4),
        reference,
        "lazy timers diverged on worker threads"
    );
}

/// One synthetic function per language.
fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    for lang in [Language::NodeJs, Language::Python, Language::Java] {
        c.push(FunctionProfile::synthetic(FunctionId::new(0), lang));
    }
    c
}

// Whole mini-simulations under proptest get fewer cases: they are
// comparatively expensive.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The lazy-ladder oracle: on arbitrary traces, seeds, and memory
    /// budgets (pressure included), a RainbowCake run with one terminal
    /// timer per idle period is byte-identical to the eager per-rung
    /// chain, on both queue backends. Debug builds additionally check
    /// every tick-start settlement against the eager-chain schedule walk
    /// (`LadderState::effective_at`) via a `debug_assert` inside the
    /// engine.
    #[test]
    fn lazy_ladder_settlement_matches_eager_chain_oracle(
        raw in prop::collection::vec((0u64..1_800, 0u32..3), 1..120),
        seed in any::<u64>(),
        capacity_mb in 256u64..8_192,
    ) {
        let catalog = small_catalog();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(s, f)| Arrival {
                time: Instant::from_micros(s * 1_000_000),
                function: FunctionId::new(f),
            })
            .collect();
        let trace = Trace::from_arrivals(Micros::from_mins(40), arrivals);
        let config = SimConfig {
            memory_capacity: MemMb::new(capacity_mb),
            seed,
            ..SimConfig::default()
        };
        for heap_queue in [false, true] {
            let run_with = |eager_timers| {
                let mut policy = RainbowCake::with_defaults(&catalog).unwrap();
                let oracle = Oracle { heap_queue, per_event: false, eager_timers };
                run_oracle(&catalog, &mut policy, &trace, &config, oracle).0.to_json()
            };
            prop_assert_eq!(run_with(false), run_with(true), "heap queue {}", heap_queue);
        }
    }

    /// The cluster oracle on arbitrary traces and seeds: the streaming
    /// pipeline reproduces the materialized sequential reference at every
    /// shard count, in both metrics modes.
    #[test]
    fn cluster_report_is_invariant_to_streaming_at_any_shard_count(
        raw in prop::collection::vec((0u64..1_800, 0u32..3), 1..120),
        seed in any::<u64>(),
        streaming_metrics in any::<bool>(),
    ) {
        let catalog = small_catalog();
        let arrivals: Vec<Arrival> = raw
            .into_iter()
            .map(|(s, f)| Arrival {
                time: Instant::from_micros(s * 1_000_000),
                function: FunctionId::new(f),
            })
            .collect();
        let trace = Trace::from_arrivals(Micros::from_mins(40), arrivals);
        let config = SimConfig {
            seed,
            streaming_metrics,
            ..SimConfig::default()
        };
        let factory = || -> Box<dyn Policy> {
            Box::new(RainbowCake::with_defaults(&catalog).unwrap())
        };
        for shards in SHARD_COUNTS {
            let sequential = run_cluster(
                &catalog,
                &factory,
                &trace,
                shards,
                &config,
                &mut LocalitySharingLoad::default(),
            )
            .to_json();
            let streamed = run_cluster_streaming(
                &catalog,
                &factory,
                trace.iter().copied(),
                trace.horizon(),
                shards,
                &config,
                &mut LocalitySharingLoad::default(),
            )
            .report
            .to_json();
            prop_assert_eq!(streamed, sequential, "shards = {}", shards);
        }
    }
}
