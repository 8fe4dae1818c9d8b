//! Tracing wrappers around the public [`Policy`] and [`Router`] traits.
//!
//! Both wrappers forward **every** trait method to the wrapped value,
//! defaulted ones included: a wrapper that fell back to a default
//! `reuse_scope` or `ttl_ladder` would move the engine onto another code
//! path and measure the wrong program. Calls are counted exactly; one
//! call in `every` per method is timed with two clock reads, so the
//! traced run stays close to the untraced one while the counts stay
//! exact and deterministic.

use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex};
use std::time::Instant as Wall;

use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::{
    ArrivalResponse, ContainerView, Policy, PolicyCtx, PrewarmDecision, ReuseClass, ReuseScope,
    TimeoutDecision, TtlLadder,
};
use rainbowcake_core::time::{Instant, Micros};
use rainbowcake_core::types::{ContainerId, FunctionId, Language};
use rainbowcake_sim::cluster::{Router, WorkerId, WorkerView};

use crate::spans::{Span, SpanLog};

/// The policy hooks the wrapper times, in report order.
pub const METHODS: [&str; 8] = [
    "on_arrival",
    "reuse_class",
    "on_idle",
    "ttl_ladder",
    "on_timeout",
    "on_prewarm_fire",
    "select_victims",
    "on_terminated",
];

const ON_ARRIVAL: usize = 0;
const REUSE_CLASS: usize = 1;
const ON_IDLE: usize = 2;
const TTL_LADDER: usize = 3;
const ON_TIMEOUT: usize = 4;
const ON_PREWARM_FIRE: usize = 5;
const SELECT_VICTIMS: usize = 6;
const ON_TERMINATED: usize = 7;

/// Sampled call spans kept per method, so the span file stays small.
const CALL_SPANS_PER_METHOD: u64 = 32;

/// Exact call count plus a 1-in-N timing sample of one hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Nanoseconds spent in the timed calls.
    pub sampled_ns: u64,
}

impl CallStats {
    /// Estimated total nanoseconds over all calls: the sampled mean
    /// scaled by the exact call count.
    pub fn estimated_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 / self.sampled as f64 * self.calls as f64
    }

    /// Mean nanoseconds per timed call.
    pub fn mean_ns(&self) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        self.sampled_ns as f64 / self.sampled as f64
    }

    fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// Everything one wrapped policy observed over its lifetime.
#[derive(Debug, Clone, Default)]
pub struct PolicyStats {
    /// Per-hook statistics, indexed like [`METHODS`].
    pub methods: [CallStats; 8],
    /// `select_victims` calls (memory reclamations).
    pub reclaims: u64,
    /// Reclamations after which at least one returned victim was
    /// destroyed.
    pub reclaims_yielding: u64,
    /// Idle containers offered as candidates, summed over reclamations.
    pub candidates: u64,
    /// Containers destroyed as eviction victims.
    pub evictions: u64,
    /// Sampled call spans.
    pub spans: Vec<Span>,
}

impl PolicyStats {
    /// Calls over all timed hooks.
    pub fn calls(&self) -> u64 {
        self.methods.iter().map(|m| m.calls).sum()
    }

    /// Estimated nanoseconds over all timed hooks.
    pub fn estimated_ns(&self) -> f64 {
        self.methods.iter().map(CallStats::estimated_ns).sum()
    }

    /// Accumulates another shard's statistics.
    pub fn merge(&mut self, other: &PolicyStats) {
        for (m, o) in self.methods.iter_mut().zip(&other.methods) {
            m.merge(o);
        }
        self.reclaims += other.reclaims;
        self.reclaims_yielding += other.reclaims_yielding;
        self.candidates += other.candidates;
        self.evictions += other.evictions;
        self.spans.extend(other.spans.iter().cloned());
    }
}

/// Where finished wrappers deposit their statistics: a wrapper lives on
/// its shard thread and hands its numbers over when dropped.
pub type StatsSink = Arc<Mutex<Vec<PolicyStats>>>;

/// Counter and timer of one hook, usable from `&self` hooks.
#[derive(Default)]
struct Meter {
    calls: Cell<u64>,
    sampled: Cell<u64>,
    sampled_ns: Cell<u64>,
}

/// The per-hook meters of one wrapped policy, plus its sampled spans.
struct Meters {
    every: u64,
    hooks: [Meter; 8],
    log: Option<SpanLog>,
    spans: RefCell<Vec<Span>>,
}

impl Meters {
    /// Runs `call` as hook `method`: counts it, and times it when it is
    /// the sampled one.
    fn measure<T>(&self, method: usize, call: impl FnOnce() -> T) -> T {
        let meter = &self.hooks[method];
        let n = meter.calls.get();
        meter.calls.set(n + 1);
        if !n.is_multiple_of(self.every) {
            return call();
        }
        let start = Wall::now();
        let out = call();
        let end = Wall::now();
        let sampled = meter.sampled.get() + 1;
        meter.sampled.set(sampled);
        meter
            .sampled_ns
            .set(meter.sampled_ns.get() + end.duration_since(start).as_nanos() as u64);
        if let Some(log) = &self.log {
            if sampled <= CALL_SPANS_PER_METHOD {
                let span = log.child_span(METHODS[method], "shard", start, end);
                self.spans.borrow_mut().push(span);
            }
        }
        out
    }

    fn snapshot(&self, method: usize) -> CallStats {
        let m = &self.hooks[method];
        CallStats {
            calls: m.calls.get(),
            sampled: m.sampled.get(),
            sampled_ns: m.sampled_ns.get(),
        }
    }
}

/// A [`Policy`] that forwards every method to `inner`, counting each
/// hook call and timing one in `every`.
pub struct TracedPolicy {
    inner: Box<dyn Policy>,
    meters: Meters,
    reclaims: u64,
    reclaims_yielding: u64,
    candidates: u64,
    evictions: u64,
    /// Victims of the latest reclamation, while its destroy loop may
    /// still be running: the engine destroys victims right after
    /// `select_victims` returns, before any other hook call, and
    /// reports each through `on_terminated` at the same `now`.
    pending: Vec<ContainerId>,
    pending_at: Option<Instant>,
    pending_yielded: bool,
    sink: Option<StatsSink>,
}

impl TracedPolicy {
    /// Wraps `inner`, timing one call in `every` per hook (`every` >= 1).
    /// `log` receives sampled call spans as children of its current
    /// span; `sink` receives the statistics when the wrapper drops.
    pub fn new(
        inner: Box<dyn Policy>,
        every: u64,
        log: Option<SpanLog>,
        sink: Option<StatsSink>,
    ) -> Self {
        TracedPolicy {
            inner,
            meters: Meters {
                every: every.max(1),
                hooks: Default::default(),
                log,
                spans: RefCell::new(Vec::new()),
            },
            reclaims: 0,
            reclaims_yielding: 0,
            candidates: 0,
            evictions: 0,
            pending: Vec::new(),
            pending_at: None,
            pending_yielded: false,
            sink,
        }
    }

    /// The statistics gathered so far.
    pub fn stats(&self) -> PolicyStats {
        PolicyStats {
            methods: std::array::from_fn(|i| self.meters.snapshot(i)),
            reclaims: self.reclaims,
            reclaims_yielding: self.reclaims_yielding,
            candidates: self.candidates,
            evictions: self.evictions,
            spans: self.meters.spans.borrow().clone(),
        }
    }

    /// Any hook other than `on_terminated` ends the latest reclamation's
    /// destroy loop.
    fn end_reclaim(&mut self) {
        self.pending.clear();
        self.pending_at = None;
    }
}

impl Drop for TracedPolicy {
    fn drop(&mut self) {
        let stats = self.stats();
        if let Some(sink) = &self.sink {
            // A poisoned sink means another shard panicked; that panic
            // is reported when its thread joins.
            if let Ok(mut all) = sink.lock() {
                all.push(stats);
            }
        }
    }
}

impl Policy for TracedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_arrival(&mut self, ctx: &PolicyCtx<'_>, f: FunctionId) -> ArrivalResponse {
        self.end_reclaim();
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(ON_ARRIVAL, || inner.on_arrival(ctx, f))
    }

    fn reuse_class(
        &self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        c: &ContainerView,
    ) -> Option<ReuseClass> {
        self.meters
            .measure(REUSE_CLASS, || self.inner.reuse_class(ctx, f, c))
    }

    fn reuse_scope(&self) -> ReuseScope {
        self.inner.reuse_scope()
    }

    fn on_idle(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Micros {
        self.end_reclaim();
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(ON_IDLE, || inner.on_idle(ctx, c))
    }

    fn ttl_ladder(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> Option<TtlLadder> {
        self.end_reclaim();
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(TTL_LADDER, || inner.ttl_ladder(ctx, c))
    }

    fn on_timeout(&mut self, ctx: &PolicyCtx<'_>, c: &ContainerView) -> TimeoutDecision {
        self.end_reclaim();
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(ON_TIMEOUT, || inner.on_timeout(ctx, c))
    }

    fn on_prewarm_fire(
        &mut self,
        ctx: &PolicyCtx<'_>,
        f: FunctionId,
        has_idle_user: bool,
    ) -> PrewarmDecision {
        self.end_reclaim();
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(ON_PREWARM_FIRE, || {
            inner.on_prewarm_fire(ctx, f, has_idle_user)
        })
    }

    fn select_victim(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
    ) -> Option<ContainerId> {
        self.end_reclaim();
        self.inner.select_victim(ctx, candidates)
    }

    fn select_victims(
        &mut self,
        ctx: &PolicyCtx<'_>,
        candidates: &[ContainerView],
        need: MemMb,
    ) -> Vec<ContainerId> {
        let TracedPolicy { inner, meters, .. } = self;
        let victims = meters.measure(SELECT_VICTIMS, || {
            inner.select_victims(ctx, candidates, need)
        });
        self.reclaims += 1;
        self.candidates += candidates.len() as u64;
        self.pending.clone_from(&victims);
        self.pending_at = Some(ctx.now);
        self.pending_yielded = false;
        victims
    }

    fn on_terminated(&mut self, ctx: &PolicyCtx<'_>, id: ContainerId) {
        let victim = if self.pending_at == Some(ctx.now) {
            self.pending.iter().position(|&v| v == id)
        } else {
            None
        };
        match victim {
            Some(pos) => {
                self.pending.swap_remove(pos);
                self.evictions += 1;
                if !self.pending_yielded {
                    self.pending_yielded = true;
                    self.reclaims_yielding += 1;
                }
            }
            None => self.end_reclaim(),
        }
        let TracedPolicy { inner, meters, .. } = self;
        meters.measure(ON_TERMINATED, || inner.on_terminated(ctx, id))
    }

    fn history_stats(&self) -> Option<HistoryStats> {
        self.inner.history_stats()
    }
}

/// A [`Router`] that forwards to `inner`, counting every routing
/// decision and timing one in `every`.
pub struct TracedRouter<R> {
    inner: R,
    every: u64,
    /// Routing statistics so far.
    pub stats: CallStats,
}

impl<R: Router> TracedRouter<R> {
    /// Wraps `inner`, timing one call in `every` (`every` >= 1).
    pub fn new(inner: R, every: u64) -> Self {
        TracedRouter {
            inner,
            every: every.max(1),
            stats: CallStats::default(),
        }
    }
}

impl<R: Router> Router for TracedRouter<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(
        &mut self,
        now: Instant,
        f: FunctionId,
        language: Language,
        views: &[WorkerView],
    ) -> WorkerId {
        let n = self.stats.calls;
        self.stats.calls += 1;
        if !n.is_multiple_of(self.every) {
            return self.inner.route(now, f, language, views);
        }
        let start = Wall::now();
        let w = self.inner.route(now, f, language, views);
        self.stats.sampled += 1;
        self.stats.sampled_ns += start.elapsed().as_nanos() as u64;
        w
    }
}
