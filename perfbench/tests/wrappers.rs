//! The tracing wrappers must not change what they measure: every trait
//! method reaches the wrapped value, and wrapped runs report exactly
//! what bare runs report.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use rainbowcake_bench::{make_policy, BASELINE_NAMES};
use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    ArrivalResponse, ContainerView, Policy, PolicyCtx, PrewarmDecision, ReuseClass, ReuseScope,
    TimeoutDecision, TtlLadder,
};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Layer};
use rainbowcake_perfbench::wrap::{PolicyStats, TracedPolicy, TracedRouter};
use rainbowcake_perfbench::{replay_with, Replay};
use rainbowcake_sim::cluster::LocalitySharingLoad;
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_stream, AzureConfig, AzureStream};
use rainbowcake_workloads::paper_catalog;

fn short_stream(functions: usize) -> AzureStream {
    azure_like_stream(
        functions,
        &AzureConfig {
            hours: 1,
            seed: 7,
            rate_scale: 2.0,
        },
    )
}

fn config(memory_gb: u64) -> SimConfig {
    SimConfig {
        memory_capacity: MemMb::from_gb(memory_gb),
        streaming_metrics: true,
        ..SimConfig::default()
    }
}

fn bare(name: &str, memory_gb: u64) -> Replay {
    let catalog = paper_catalog();
    let stream = short_stream(catalog.len());
    let factory = || make_policy(name, &catalog);
    let mut router = LocalitySharingLoad::default();
    replay_with(&catalog, &stream, &config(memory_gb), &factory, &mut router)
}

fn wrapped(name: &str, memory_gb: u64, every: u64) -> (Replay, PolicyStats) {
    let catalog = paper_catalog();
    let stream = short_stream(catalog.len());
    let sink = Arc::new(Mutex::new(Vec::new()));
    let factory = || -> Box<dyn Policy> {
        Box::new(TracedPolicy::new(
            make_policy(name, &catalog),
            every,
            None,
            Some(Arc::clone(&sink)),
        ))
    };
    let mut router = TracedRouter::new(LocalitySharingLoad::default(), every);
    let replay = replay_with(&catalog, &stream, &config(memory_gb), &factory, &mut router);
    assert_eq!(router.stats.calls, stream.total());
    let mut stats = PolicyStats::default();
    for s in sink.lock().unwrap().iter() {
        stats.merge(s);
    }
    (replay, stats)
}

#[test]
fn wrapped_runs_match_bare_runs_for_every_baseline() {
    // 240 GB never evicts; 2 GB reclaims constantly.
    for memory_gb in [240, 2] {
        for name in BASELINE_NAMES {
            let plain = bare(name, memory_gb);
            for every in [1, 16] {
                let (traced, stats) = wrapped(name, memory_gb, every);
                assert_eq!(
                    traced.json, plain.json,
                    "{name} at {memory_gb} GB, 1 in {every}"
                );
                let (a, b) = (traced.run.profile(), plain.run.profile());
                assert_eq!(a.counts, b.counts, "{name}: same engine path, same events");
                assert_eq!(traced.run.history(), plain.run.history(), "{name}");
                assert!(stats.calls() > 0, "{name}");
                assert!(stats.reclaims_yielding <= stats.reclaims);
                assert!(stats.evictions >= stats.reclaims_yielding);
                if memory_gb == 240 {
                    assert_eq!(stats.reclaims, 0, "{name} has room at 240 GB");
                }
            }
        }
    }
    let (_, squeezed) = wrapped("RainbowCake", 2, 16);
    assert!(squeezed.reclaims > 0 && squeezed.evictions > 0);
}

/// A policy that answers every method with a non-default value and
/// logs which methods it was asked.
struct Probe(Rc<RefCell<Vec<&'static str>>>);

impl Policy for Probe {
    fn name(&self) -> &'static str {
        self.0.borrow_mut().push("name");
        "Probe"
    }
    fn on_arrival(&mut self, _: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        self.0.borrow_mut().push("on_arrival");
        ArrivalResponse::prewarm(f, Micros::from_secs(1), Layer::Lang)
    }
    fn reuse_class(
        &self,
        _: &PolicyCtx<'_>,
        _: FunctionId,
        _: &ContainerView,
    ) -> Option<ReuseClass> {
        self.0.borrow_mut().push("reuse_class");
        Some(ReuseClass::SharedBare)
    }
    fn reuse_scope(&self) -> ReuseScope {
        self.0.borrow_mut().push("reuse_scope");
        ReuseScope::OwnedOrPacked
    }
    fn on_idle(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Micros {
        self.0.borrow_mut().push("on_idle");
        Micros::from_secs(3)
    }
    fn ttl_ladder(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> Option<TtlLadder> {
        self.0.borrow_mut().push("ttl_ladder");
        Some(TtlLadder::single(Micros::from_secs(5)))
    }
    fn on_timeout(&mut self, _: &PolicyCtx<'_>, _: &ContainerView) -> TimeoutDecision {
        self.0.borrow_mut().push("on_timeout");
        TimeoutDecision::Downgrade {
            ttl: Micros::from_secs(2),
        }
    }
    fn on_prewarm_fire(&mut self, _: &PolicyCtx<'_>, _: FunctionId, _: bool) -> PrewarmDecision {
        self.0.borrow_mut().push("on_prewarm_fire");
        PrewarmDecision::Skip
    }
    fn select_victim(&mut self, _: &PolicyCtx<'_>, c: &[ContainerView]) -> Option<ContainerId> {
        self.0.borrow_mut().push("select_victim");
        c.last().map(|c| c.id)
    }
    fn select_victims(
        &mut self,
        _: &PolicyCtx<'_>,
        c: &[ContainerView],
        _: MemMb,
    ) -> Vec<ContainerId> {
        self.0.borrow_mut().push("select_victims");
        c.iter().map(|c| c.id).collect()
    }
    fn on_terminated(&mut self, _: &PolicyCtx<'_>, _: ContainerId) {
        self.0.borrow_mut().push("on_terminated");
    }
    fn history_stats(&self) -> Option<HistoryStats> {
        self.0.borrow_mut().push("history_stats");
        Some(HistoryStats {
            queries: 42,
            ..HistoryStats::default()
        })
    }
}

#[test]
fn every_method_reaches_the_wrapped_policy() {
    let catalog = paper_catalog();
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut p = TracedPolicy::new(Box::new(Probe(Rc::clone(&log))), 1, None, None);
    let ctx = PolicyCtx {
        now: Instant::ZERO,
        catalog: &catalog,
    };
    let f = FunctionId::new(0);
    let view = ContainerView {
        id: ContainerId::new(1),
        layer: Layer::User,
        language: None,
        owner: Some(f),
        packed: Vec::new(),
        memory: MemMb::from_gb(1),
        idle_since: Instant::ZERO,
        created_at: Instant::ZERO,
        hits: 0,
    };
    let views = [
        view.clone(),
        ContainerView {
            id: ContainerId::new(2),
            ..view.clone()
        },
    ];

    assert_eq!(p.name(), "Probe");
    assert_eq!(
        p.on_arrival(&ctx, f),
        ArrivalResponse::prewarm(f, Micros::from_secs(1), Layer::Lang)
    );
    assert_eq!(p.reuse_class(&ctx, f, &view), Some(ReuseClass::SharedBare));
    assert_eq!(p.reuse_scope(), ReuseScope::OwnedOrPacked);
    assert_eq!(p.on_idle(&ctx, &view), Micros::from_secs(3));
    assert_eq!(
        p.ttl_ladder(&ctx, &view),
        Some(TtlLadder::single(Micros::from_secs(5)))
    );
    assert_eq!(
        p.on_timeout(&ctx, &view),
        TimeoutDecision::Downgrade {
            ttl: Micros::from_secs(2)
        }
    );
    assert_eq!(p.on_prewarm_fire(&ctx, f, false), PrewarmDecision::Skip);
    assert_eq!(p.select_victim(&ctx, &views), Some(ContainerId::new(2)));
    assert_eq!(
        p.select_victims(&ctx, &views, MemMb::from_gb(1)),
        vec![ContainerId::new(1), ContainerId::new(2)]
    );
    // Victims destroyed right after the reclamation count as evictions;
    // a termination after another hook does not.
    p.on_terminated(&ctx, ContainerId::new(1));
    p.on_terminated(&ctx, ContainerId::new(2));
    p.on_arrival(&ctx, f);
    p.on_terminated(&ctx, ContainerId::new(3));
    assert_eq!(p.history_stats().map(|h| h.queries), Some(42));

    let calls = log.borrow().clone();
    for method in [
        "name",
        "on_arrival",
        "reuse_class",
        "reuse_scope",
        "on_idle",
        "ttl_ladder",
        "on_timeout",
        "on_prewarm_fire",
        "select_victim",
        "select_victims",
        "on_terminated",
        "history_stats",
    ] {
        assert!(calls.contains(&method), "{method} was not forwarded");
    }
    let stats = p.stats();
    assert_eq!(stats.reclaims, 1);
    assert_eq!(stats.reclaims_yielding, 1);
    assert_eq!(stats.candidates, 2);
    assert_eq!(stats.evictions, 2);
    assert_eq!(stats.methods.iter().map(|m| m.calls).sum::<u64>(), 11);
    assert!(stats.methods.iter().all(|m| m.sampled == m.calls));
}
