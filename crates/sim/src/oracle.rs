//! Oracle tests for the engine's single production path.
//!
//! The shipped engine has one dispatch path: the timer wheel, drained a
//! tick at a time, with lazy ladder timers. Its predecessors survive
//! here as test-only references ([`Oracle`]): the `BinaryHeap`
//! future-event list, per-event pop-and-dispatch, and the eager per-rung
//! downgrade chain. On the full §7.1 six-policy suite over the 8-hour
//! paper trace, every combination must produce `RunReport` JSON that is
//! **byte-identical** to the production path, both on the calling
//! thread and fanned out over worker threads.

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

use crate::engine::{run_oracle, Oracle};
use crate::{run, SimConfig};

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

/// The §7.2 evaluation setup: the 20-function catalog, the 8-hour
/// Azure-like trace, and the 240 GB worker.
struct Suite {
    catalog: Catalog,
    trace: Trace,
    config: SimConfig,
}

impl Suite {
    fn paper_8h() -> Self {
        let catalog = paper_catalog();
        let trace = azure_like_trace(catalog.len(), &AzureConfig::default());
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
}

#[test]
fn full_suite_is_byte_identical_across_backends_and_threads() {
    let suite = Suite::paper_8h();
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
    // And the shipped entry point is the production cell.
    for (name, expected) in POLICIES.iter().zip(&reference) {
        let mut policy = make_policy(name, &suite.catalog);
        let report = run(&suite.catalog, policy.as_mut(), &suite.trace, &suite.config);
        assert_eq!(&report.to_json(), expected, "{name}: run diverged");
    }
}

#[test]
fn lazy_timers_are_byte_identical_to_the_eager_chain() {
    let suite = Suite::paper_8h();
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
}
