//! The repository benchmark: replays fixed Azure-like workloads through
//! the production path — `make_policy` → `run_cluster_streaming` with
//! the §8 `LocalitySharingLoad` router → `ClusterReport` — measured from
//! outside, and checks every report it gets back.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! which end-to-end metric each per-layer metric should move.

pub mod host;
pub mod spans;
pub mod wrap;

use std::time::Instant as Wall;

use rainbowcake_bench::make_policy;
use rainbowcake_core::mem::MemMb;
use rainbowcake_core::policy::Policy;
use rainbowcake_core::profile::Catalog;
use rainbowcake_metrics::{RunReport, StreamingSummary, WasteTracker};
use rainbowcake_sim::cluster::{run_cluster_streaming, LocalitySharingLoad, Router, ShardedRun};
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_stream, AzureConfig, AzureStream};

/// Independent traces in every workload. Each is synthesized from its
/// own seed, so the pooled outcome averages over several draws of the
/// per-function rate parameters instead of hanging on one.
pub const SEGMENTS: u64 = 16;
/// Length of each trace, in hours (16 x 3 h = 48 h in all).
pub const HOURS: u64 = 3;
/// Rate multiplier of every trace (48 h x 16 is ~2 M invocations).
pub const RATE_SCALE: f64 = 16.0;
/// Shards per run: the calling thread synthesizes and routes, one
/// shard thread runs the engine.
pub const SHARDS: usize = 1;
/// The seed a run uses when none is given: `AzureConfig`'s own default.
pub const DEFAULT_SEED: u64 = 0xA22E;

/// One fixed benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// §7.1 policy name, as `make_policy` takes it.
    pub policy: &'static str,
    /// Worker memory budget in GB.
    pub memory_gb: u64,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rc-roomy",
        policy: "RainbowCake",
        memory_gb: 240,
    },
    Workload {
        name: "ow-roomy",
        policy: "OpenWhisk",
        memory_gb: 240,
    },
    Workload {
        name: "rc-pressure",
        policy: "RainbowCake",
        memory_gb: 16,
    },
];

impl Workload {
    /// The workload called `name`, if any.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The trace synthesizer's configuration of trace `segment` under
    /// `seed`. Trace 0 uses `seed` itself; trace `i` adds `i << 32`.
    pub fn trace_config(&self, seed: u64, segment: u64) -> AzureConfig {
        AzureConfig {
            hours: HOURS,
            seed: seed.wrapping_add(segment << 32),
            rate_scale: RATE_SCALE,
        }
    }

    /// The per-worker simulator configuration.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            memory_capacity: MemMb::from_gb(self.memory_gb),
            streaming_metrics: true,
            ..SimConfig::default()
        }
    }

    /// A fresh instance of the workload's policy.
    pub fn policy(&self, catalog: &Catalog) -> Box<dyn Policy> {
        make_policy(self.policy, catalog)
    }
}

/// Everything a run needs before its first arrival is routed.
pub struct Setup {
    /// The 20 paper functions.
    pub catalog: Catalog,
    /// The workload's traces, each replayable lazily.
    pub streams: Vec<AzureStream>,
    /// Seconds from the start of set-up to the first arrival synthesized.
    pub seconds: f64,
}

impl Setup {
    /// Invocations over all traces.
    pub fn invocations(&self) -> u64 {
        self.streams.iter().map(AzureStream::total).sum()
    }
}

/// Builds the catalog and the arrival streams, constructs one policy
/// and synthesizes the first arrival: the work a user waits for before
/// the first arrival is routed.
pub fn setup(workload: &Workload, seed: u64) -> Setup {
    let started = Wall::now();
    let catalog = rainbowcake_workloads::paper_catalog();
    let streams: Vec<AzureStream> = (0..SEGMENTS)
        .map(|i| azure_like_stream(catalog.len(), &workload.trace_config(seed, i)))
        .collect();
    let policy = workload.policy(&catalog);
    let first = streams[0].iter().next();
    let seconds = started.elapsed().as_secs_f64();
    std::hint::black_box((policy, first));
    Setup {
        catalog,
        streams,
        seconds,
    }
}

/// The reports of one pass over every trace, pooled into one: counts
/// and latency histograms merge, waste adds up.
pub fn pooled(reports: &[&RunReport]) -> RunReport {
    let mut waste = WasteTracker::new();
    let mut streaming = StreamingSummary::new();
    for r in reports {
        waste.merge(&r.waste);
        if let Some(s) = &r.streaming {
            streaming.merge(s);
        }
    }
    RunReport {
        policy: reports
            .first()
            .map(|r| r.policy.clone())
            .unwrap_or_default(),
        records: Vec::new(),
        waste,
        streaming: Some(streaming),
    }
}

/// One replay of a workload through the production path.
pub struct Replay {
    /// The pipeline's result and its own thread accounting.
    pub run: ShardedRun,
    /// The merged cluster-wide report.
    pub merged: RunReport,
    /// `ClusterReport::to_json` of the run.
    pub json: String,
    /// Wall seconds from the call into the pipeline to the merged
    /// report.
    pub wall_s: f64,
}

impl Replay {
    /// Completed invocations.
    pub fn completed(&self) -> usize {
        self.run.report.completed()
    }

    /// Arrivals the router handed to the shards.
    pub fn assigned(&self) -> usize {
        self.run.report.assigned.iter().sum()
    }
}

/// Replays `stream` through `run_cluster_streaming` with `factory`'s
/// policies and `router`.
pub fn replay_with(
    catalog: &Catalog,
    stream: &AzureStream,
    config: &SimConfig,
    factory: &(dyn Fn() -> Box<dyn Policy> + Sync),
    router: &mut dyn Router,
) -> Replay {
    let started = Wall::now();
    let run = run_cluster_streaming(
        catalog,
        factory,
        stream.iter(),
        stream.horizon(),
        SHARDS,
        config,
        router,
    );
    let merged = run.report.merged();
    let wall_s = started.elapsed().as_secs_f64();
    let json = run.report.to_json();
    Replay {
        run,
        merged,
        json,
        wall_s,
    }
}

/// Replays the workload untraced: bare policy, bare router.
pub fn replay(workload: &Workload, catalog: &Catalog, stream: &AzureStream) -> Replay {
    let factory = || workload.policy(catalog);
    let mut router = LocalitySharingLoad::default();
    replay_with(
        catalog,
        stream,
        &workload.sim_config(),
        &factory,
        &mut router,
    )
}

/// The correctness checks every replay must pass; returns what failed.
///
/// * every arrival of the stream was assigned to a shard;
/// * every assigned arrival completed;
/// * the start-type counts sum to the completed invocations;
/// * the report encodes byte-identically to `reference`, when given.
pub fn check(replay: &Replay, stream: &AzureStream, reference: Option<&str>) -> Vec<String> {
    let mut problems = Vec::new();
    let assigned = replay.assigned();
    let completed = replay.completed();
    if assigned as u64 != stream.total() {
        problems.push(format!(
            "assigned {assigned} arrivals of a {}-arrival stream",
            stream.total()
        ));
    }
    if completed != assigned {
        problems.push(format!("completed {completed} of {assigned} assigned"));
    }
    let typed: usize = replay
        .merged
        .start_type_counts()
        .iter()
        .map(|&(_, n)| n)
        .sum();
    if typed != completed {
        problems.push(format!("start types sum to {typed}, completed {completed}"));
    }
    if let Some(reference) = reference {
        if replay.json != reference {
            problems.push(format!(
                "report {:016x} differs from the reference {:016x}",
                fingerprint(&replay.json),
                fingerprint(reference)
            ));
        }
    }
    problems
}

/// FNV-1a 64 of a report encoding: a short name for its exact bytes.
pub fn fingerprint(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Median of `xs` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles of `xs`, by linear interpolation between
/// order statistics (equal to the median for one value).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of nothing");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), (2.0, 4.0));
    }

    #[test]
    fn workloads_resolve_by_name() {
        for w in WORKLOADS {
            assert_eq!(Workload::by_name(w.name), Some(w));
        }
        assert_eq!(Workload::by_name("nope"), None);
    }

    #[test]
    fn fingerprint_is_fnv1a() {
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fingerprint("a"), fingerprint("b"));
    }
}
