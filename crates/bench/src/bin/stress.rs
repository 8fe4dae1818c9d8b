//! Million-invocation stress run: drives a large synthesized
//! multi-worker trace through all six §7.1 policies and records engine
//! throughput plus per-policy peak-memory growth into the
//! `BENCH_<seq>.json` artifact series (schema `rainbowcake-stress/6`;
//! `/1`–`/5` artifacts are still readable as perf baselines).
//!
//! Schema `/4` additions: every policy row carries the History
//! Recorder's query counters (`history`: rate queries, compound-scope
//! queries, memo hits — always 0 since the scope memo was removed —
//! member scans, fitted terms; all zero for policies without a
//! recorder), and the scaling section gains a
//! `streaming` point that re-runs RainbowCake on a trace scaled past
//! 10^8 invocations to prove the streaming pipeline's memory stays
//! flat (bounded by channel depth, not trace length) at full speed.
//!
//! Schema `/5` additions: the artifact records the timer mode
//! (`timer_mode`: always `"lazy"`, the engine's one ladder schedule of a
//! single terminal timer per idle period; the eager per-rung chain that
//! once wrote `"eager"` survives only as a unit-test oracle in
//! `rainbowcake-sim`), and every policy row carries `events` (total engine events
//! dispatched, counted by the shards with zero clock reads) and
//! `events_per_invocation` — the timer-pressure figure the lazy
//! downgrade path exists to shrink.
//!
//! Schema `/6` renames: the throughput fields count completed
//! invocations, not engine events, so `events_per_s` became `inv_per_s`
//! and `calibrated_events_per_s` became `calibrated_inv_per_s` (in the
//! policy rows and in the scaling section). Every policy row also
//! carries `route_cpu_s`, the router thread's CPU time, next to
//! `route_s`, which times the router's whole blocked lifetime and so
//! tracks the slowest shard rather than the routing work.
//!
//! The trace is never materialized: each policy run consumes the
//! Azure-like workload from its compact per-minute series through
//! [`run_cluster_streaming`] — the calling thread routes arrivals
//! online with the §8 Locality+Sharing+Load scheduler into bounded
//! per-shard queues, and every shard executes its subsequence on its
//! own OS thread with streaming metrics. Peak memory is bounded by the
//! channel depth, not the invocation count. That the pipeline's report
//! is byte-identical to a materialized, sequential cluster run is pinned
//! by `rainbowcake-sim`'s oracle unit tests, not here.
//!
//! Flags:
//!
//! * `--shards N` — shard (= worker) count, default 4;
//! * `--hours H`, `--rate-scale X` — trace volume, default 48 h at 16x;
//! * `--policy <name>` (repeatable) — restrict the run to the named
//!   policies; filtered runs print numbers but skip the artifact write
//!   so the `BENCH_<seq>.json` series stays full-suite comparable;
//! * `--smoke` — the CI guard: per-policy throughput floors on an
//!   8-hour trace against the committed artifact.
//!   With `--hours H` (H > 1) it becomes the long-stream smoke
//!   instead: stream an H-hour trace through RainbowCake and assert
//!   the process RSS stays flat — the guard for the streaming
//!   pipeline's O(1)-memory claim (`--smoke --hours 96` in CI).
//!
//! Besides wall-clock `inv_per_s`, every row records
//! `calibrated_inv_per_s` = completed / max(router CPU s, slowest
//! shard CPU s): the throughput the pipeline sustains once every shard
//! thread has a core of its own. On a machine with >= shards cores the
//! two numbers converge; on the 1-core CI box the wall figure
//! time-slices all shards onto one core and the calibrated figure is
//! the honest scaling signal (same convention as the busy-time
//! calibration in EXPERIMENTS.md).

use std::time::Instant as WallInstant;

use rainbowcake_bench::{make_policy, BASELINE_NAMES};
use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::profile::Catalog;
use rainbowcake_metrics::json::{escape_str, fmt_f64};
use rainbowcake_sim::cluster::{run_cluster_streaming, LocalitySharingLoad, ShardedRun};
use rainbowcake_sim::SimConfig;
use rainbowcake_trace::azure::{azure_like_stream, AzureConfig, AzureStream};
use rainbowcake_workloads::paper_catalog;

/// Default shard count: each shard is one worker engine on its own OS
/// thread, fed by the streaming router. Override with `--shards N`.
const DEFAULT_SHARDS: usize = 4;

/// Peak resident set size of this process in kB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// Runs `name` over the streamed workload as a sharded cluster: routing
/// happens online on the calling thread, every shard runs concurrently,
/// and nothing proportional to the trace length is ever materialized.
fn run_policy_sharded(
    catalog: &Catalog,
    name: &str,
    stream: &AzureStream,
    shards: usize,
    config: &SimConfig,
) -> ShardedRun {
    let mut router = LocalitySharingLoad::default();
    let factory = || make_policy(name, catalog);
    run_cluster_streaming(
        catalog,
        &factory,
        stream.iter(),
        stream.horizon(),
        shards,
        config,
        &mut router,
    )
}

/// The stress schema version this binary writes;
/// [`baseline_inv_per_s`] reads it and every older one.
const STRESS_SCHEMA: u32 = 6;

/// Per-policy completed invocations/s from the newest `BENCH_<seq>.json`
/// artifact in `dir` carrying a stress schema, if any. Schema `/6`
/// names the field `inv_per_s`; `/1`–`/5` called the same figure
/// `events_per_s`.
fn baseline_inv_per_s(dir: &str) -> Option<(String, Vec<(String, f64)>)> {
    let existing: Vec<String> = (1..10_000)
        .map(|i| format!("{dir}/BENCH_{i:04}.json"))
        .filter(|p| std::path::Path::new(p).exists())
        .collect();
    for path in existing.into_iter().rev() {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Some(version) = (1..=STRESS_SCHEMA)
            .find(|v| text.contains(&format!("\"schema\":\"rainbowcake-stress/{v}\"")))
        else {
            continue;
        };
        let field = if version >= 6 {
            "\"inv_per_s\":"
        } else {
            "\"events_per_s\":"
        };
        let mut rows = Vec::new();
        for chunk in text.split("{\"name\":\"").skip(1) {
            let Some(name) = chunk.split('"').next() else {
                continue;
            };
            let ips = chunk
                .split(field)
                .nth(1)
                .and_then(|rest| rest.split([',', '}']).next())
                .and_then(|num| num.trim().parse::<f64>().ok());
            if let Some(ips) = ips {
                rows.push((name.to_string(), ips));
            }
        }
        if !rows.is_empty() {
            return Some((path, rows));
        }
    }
    None
}

/// Fraction of a policy's recorded invocations/s it must reach in the CI
/// perf smoke. Applied per policy, so a regression localized to one
/// backend (e.g. only RainbowCake's layer-scoring path) trips CI even
/// when the cheap baselines still sail past a shared floor.
const PERF_FLOOR_RATIO: f64 = 0.6;

/// Per-policy throughput floors against the committed stress artifact:
/// every policy must reach [`PERF_FLOOR_RATIO`] of its recorded
/// invocations/s on a scaled-down trace, so a future change can't silently
/// re-quadratify the eviction path without tripping CI. All violations
/// are collected and reported together before failing.
fn perf_smoke(shards: usize) {
    let dir = std::env::var("PERF_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let Some((path, baseline)) = baseline_inv_per_s(&dir) else {
        println!(
            "perf smoke: no rainbowcake-stress/{{1..{STRESS_SCHEMA}}} artifact found, skipping"
        );
        return;
    };
    if cfg!(debug_assertions) {
        println!("perf smoke: debug build, skipping throughput floors");
        return;
    }
    let catalog = paper_catalog();
    // Large enough to amortize startup, small enough for CI: ~4% of the
    // full stress trace.
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours: 8,
            rate_scale: 4.0,
            ..AzureConfig::default()
        },
    );
    let config = SimConfig {
        streaming_metrics: true,
        ..SimConfig::default()
    };
    let mut violations = Vec::new();
    for (name, base_ips) in &baseline {
        // Best of two: absorbs one-off cache/alloc warmup noise.
        let mut best = 0.0f64;
        for _ in 0..2 {
            let t0 = WallInstant::now();
            let sharded = run_policy_sharded(&catalog, name, &stream, shards, &config);
            let completed = sharded.report.completed();
            best = best.max(completed as f64 / t0.elapsed().as_secs_f64());
        }
        let floor = PERF_FLOOR_RATIO * base_ips;
        if best < floor {
            violations.push(format!(
                "{name}: {best:.0} inv/s is below its floor {floor:.0} \
                 ({PERF_FLOOR_RATIO} x the recorded {base_ips:.0})"
            ));
        }
        println!("perf smoke {name}: {best:.0} inv/s (floor {floor:.0})");
    }
    assert!(
        violations.is_empty(),
        "perf smoke: {} of {} policies regressed against {path}:\n  {}",
        violations.len(),
        baseline.len(),
        violations.join("\n  ")
    );
    println!("perf smoke passed against {path}");
}

/// The long-stream smoke (`--smoke --hours H`, H > 1): streams an
/// H-hour trace through RainbowCake on every shard and asserts the
/// process high-water RSS stays flat — the CI guard for the streaming
/// pipeline's O(channel-depth) memory claim. Trace length grows with
/// `H` while the asserted bound does not.
fn long_stream_smoke(hours: u64, shards: usize) {
    let catalog = paper_catalog();
    let stream = azure_like_stream(
        catalog.len(),
        &AzureConfig {
            hours,
            // Millions of invocations in a CI-sized run, so the flat-RSS
            // assert watches a stream long enough to expose any
            // length-proportional buffering.
            rate_scale: 16.0,
            ..AzureConfig::default()
        },
    );
    let config = SimConfig {
        streaming_metrics: true,
        ..SimConfig::default()
    };
    let before_kb = peak_rss_kb();
    let t0 = WallInstant::now();
    let sharded = run_policy_sharded(&catalog, "RainbowCake", &stream, shards, &config);
    let completed = sharded.report.completed();
    let after_kb = peak_rss_kb();
    let grew_kb = after_kb.saturating_sub(before_kb);
    println!(
        "long-stream smoke: {completed} invocations over {hours}h in {:.1} s, \
         RSS {before_kb} -> {after_kb} kB (+{grew_kb} kB)",
        t0.elapsed().as_secs_f64()
    );
    assert!(completed > 0, "long-stream smoke completed nothing");
    // Flat means bounded by the pipeline, not the trace: per-shard
    // engines + bounded channels fit comfortably under 64 MB total and
    // the margin does not scale with `hours`.
    assert!(
        after_kb <= 64 * 1024,
        "long-stream smoke: peak RSS {after_kb} kB exceeds the 64 MB flat-memory bound"
    );
    println!("stress --smoke --hours {hours} passed");
}

/// Parses repeatable `--policy <name>` / `--policy=<name>` filters.
/// Returns the selected policies in `BASELINE_NAMES` order, or the full
/// suite when no filter is given.
///
/// # Panics
///
/// Panics on an unknown policy name or a missing argument.
fn policy_filter() -> Vec<&'static str> {
    let mut wanted = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let name = if arg == "--policy" {
            args.next().expect("--policy requires a name")
        } else if let Some(v) = arg.strip_prefix("--policy=") {
            v.to_string()
        } else {
            continue;
        };
        let known = BASELINE_NAMES
            .iter()
            .find(|&&n| n == name)
            .unwrap_or_else(|| {
                panic!("unknown policy {name:?}; expected one of {BASELINE_NAMES:?}")
            });
        if !wanted.contains(known) {
            wanted.push(*known);
        }
    }
    if wanted.is_empty() {
        BASELINE_NAMES.to_vec()
    } else {
        // Keep the suite's presentation order regardless of flag order.
        BASELINE_NAMES
            .into_iter()
            .filter(|n| wanted.contains(n))
            .collect()
    }
}

/// Parses `--<flag> <v>` / `--<flag>=<v>` as a number, or `default`.
///
/// # Panics
///
/// Panics on a malformed or missing value.
fn numeric_flag<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let val = if arg == flag {
            args.next()
                .unwrap_or_else(|| panic!("{flag} requires a value"))
        } else if let Some(v) = arg.strip_prefix(&format!("{flag}=")) {
            v.to_string()
        } else {
            continue;
        };
        return val
            .parse()
            .unwrap_or_else(|_| panic!("{flag} got a malformed value {val:?}"));
    }
    default
}

/// One policy's full-run measurements, ready for the artifact row.
struct PolicyRow {
    name: &'static str,
    completed: usize,
    cold: usize,
    wall_s: f64,
    inv_per_s: f64,
    calibrated_inv_per_s: f64,
    /// The router thread's blocked lifetime, wall clock.
    route_s: f64,
    /// The router thread's CPU time: the routing work itself.
    route_cpu_s: f64,
    merge_s: f64,
    shard_cpu_s: Vec<f64>,
    rss_delta_kb: u64,
    /// History Recorder query counters summed across shards (all zero
    /// for policies without a recorder).
    history: HistoryStats,
    /// Total engine events dispatched across shards, counted by the
    /// shard hot loops without any clock reads.
    events: u64,
    /// `events / completed` — the timer-pressure figure of merit the
    /// lazy ladder schedule exists to shrink.
    events_per_invocation: f64,
}

/// The `history` sub-object of a policy row.
fn history_json(h: &HistoryStats) -> String {
    format!(
        "{{\"queries\":{},\"scope_queries\":{},\"scope_hits\":{},\
         \"scans\":{},\"terms_computed\":{}}}",
        h.queries, h.scope_queries, h.scope_hits, h.scans, h.terms_computed,
    )
}

impl PolicyRow {
    fn to_json(&self) -> String {
        let cpus: Vec<String> = self.shard_cpu_s.iter().map(|&c| fmt_f64(c)).collect();
        format!(
            "{{\"name\":{},\"completed\":{},\"cold_starts\":{},\"wall_s\":{},\
             \"inv_per_s\":{},\"calibrated_inv_per_s\":{},\"route_s\":{},\
             \"route_cpu_s\":{},\"merge_s\":{},\"shard_cpu_s\":[{}],\"rss_delta_kb\":{},\"history\":{},\
             \"events\":{},\"events_per_invocation\":{}}}",
            escape_str(self.name),
            self.completed,
            self.cold,
            fmt_f64(self.wall_s),
            fmt_f64(self.inv_per_s),
            fmt_f64(self.calibrated_inv_per_s),
            fmt_f64(self.route_s),
            fmt_f64(self.route_cpu_s),
            fmt_f64(self.merge_s),
            cpus.join(","),
            self.rss_delta_kb,
            history_json(&self.history),
            self.events,
            fmt_f64(self.events_per_invocation),
        )
    }
}

/// Runs one policy through the sharded streaming pipeline and collects
/// its artifact row. `rss_mark` carries the `VmHWM` high-water mark
/// between policies so each row's delta is attributable to it.
fn measure_policy(
    catalog: &Catalog,
    name: &'static str,
    stream: &AzureStream,
    shards: usize,
    config: &SimConfig,
    rss_mark: &mut u64,
) -> PolicyRow {
    let t0 = WallInstant::now();
    let sharded = run_policy_sharded(catalog, name, stream, shards, config);
    let wall_s = t0.elapsed().as_secs_f64();
    // The deterministic cross-shard reduction, timed separately so the
    // artifact shows merge overhead next to engine time.
    let m0 = WallInstant::now();
    let merged = sharded.report.merged();
    let merge_s = m0.elapsed().as_secs_f64() + {
        let j0 = WallInstant::now();
        let _ = sharded.report.to_json();
        j0.elapsed().as_secs_f64()
    };
    drop(merged);
    let rss_now = peak_rss_kb();
    let rss_delta_kb = rss_now.saturating_sub(*rss_mark);
    *rss_mark = rss_now;
    let completed = sharded.report.completed();
    let cold = sharded.report.cold_starts();
    // Critical path once every shard thread owns a core: the router or
    // the slowest shard, whichever dominates.
    let critical = sharded
        .shard_cpu_s
        .iter()
        .copied()
        .fold(sharded.route_cpu_s, f64::max);
    let history = sharded.history();
    let profile = sharded.profile();
    PolicyRow {
        name,
        completed,
        cold,
        wall_s,
        inv_per_s: completed as f64 / wall_s,
        calibrated_inv_per_s: completed as f64 / critical.max(1e-9),
        route_s: sharded.route_s,
        route_cpu_s: sharded.route_cpu_s,
        merge_s,
        shard_cpu_s: sharded.shard_cpu_s,
        rss_delta_kb,
        history,
        events: profile.total_events(),
        events_per_invocation: profile.events_per_invocation(),
    }
}

fn main() {
    let shards: usize = numeric_flag("--shards", DEFAULT_SHARDS);
    assert!(shards > 0, "--shards must be positive");
    if std::env::args().any(|a| a == "--smoke") {
        let hours: u64 = numeric_flag("--hours", 1);
        if hours > 1 {
            long_stream_smoke(hours, shards);
        } else {
            perf_smoke(shards);
            println!("stress --smoke passed");
        }
        return;
    }
    let selected = policy_filter();
    let filtered = selected.len() != BASELINE_NAMES.len();

    let azure = AzureConfig {
        hours: numeric_flag("--hours", 48),
        rate_scale: numeric_flag("--rate-scale", 16.0),
        ..AzureConfig::default()
    };
    let catalog = paper_catalog();
    println!(
        "stress: synthesizing {}h trace at {}x rate ...",
        azure.hours, azure.rate_scale
    );
    let stream = azure_like_stream(catalog.len(), &azure);
    let total = stream.total();
    assert!(
        total >= 1_000_000,
        "stress trace must reach one million invocations (got {total})"
    );
    println!("stress: {total} invocations, streaming across {shards} shards ...");
    let config = SimConfig {
        streaming_metrics: true,
        ..SimConfig::default()
    };

    let mut rows = Vec::new();
    let mut rss_mark = peak_rss_kb();
    for name in &selected {
        let row = measure_policy(&catalog, name, &stream, shards, &config, &mut rss_mark);
        assert!(
            row.completed >= 1_000_000,
            "{name} completed only {} invocations",
            row.completed
        );
        println!(
            "  {name}: {} invocations in {:.2} s ({:.0} inv/s wall, {:.0} inv/s \
             calibrated), {} cold starts, {} events ({:.2}/inv), route {:.2} s \
             ({:.2} s CPU), merge {:.3} s, +{} kB peak RSS",
            row.completed,
            row.wall_s,
            row.inv_per_s,
            row.calibrated_inv_per_s,
            row.cold,
            row.events,
            row.events_per_invocation,
            row.route_s,
            row.route_cpu_s,
            row.merge_s,
            row.rss_delta_kb
        );
        if row.history.queries > 0 {
            let h = &row.history;
            println!(
                "    history: {} rate queries ({} compound; {} scans fitting {} terms)",
                h.queries, h.scope_queries, h.scans, h.terms_computed
            );
        }
        rows.push(row);
    }

    if filtered {
        // A partial run is for investigation only: writing it out would
        // break cross-artifact comparability of the BENCH series.
        println!("policy filter active: skipping artifact write");
        return;
    }

    // Shard-scaling evidence: re-run RainbowCake single-sharded so the
    // artifact carries an aggregate-throughput comparison on identical
    // input. Wall events/s only scales on a machine with enough cores;
    // the calibrated figures compare critical-path compute directly.
    let scaling = if shards > 1 {
        let mut mark = peak_rss_kb();
        let one = measure_policy(&catalog, "RainbowCake", &stream, 1, &config, &mut mark);
        let many = rows
            .iter()
            .find(|r| r.name == "RainbowCake")
            .expect("full suite includes RainbowCake");
        println!(
            "  scaling RainbowCake: 1 shard {:.0} inv/s calibrated, {shards} shards \
             {:.0} inv/s calibrated ({:.2}x)",
            one.calibrated_inv_per_s,
            many.calibrated_inv_per_s,
            many.calibrated_inv_per_s / one.calibrated_inv_per_s
        );
        // Streaming-scale evidence: push the same pipeline past 10^8
        // invocations (RainbowCake only) and record that peak RSS stays
        // flat — memory is bounded by the router's channel depth, never
        // by the trace length.
        let mega_factor = (1e8 / total as f64).ceil().max(1.0);
        let mega_azure = AzureConfig {
            rate_scale: azure.rate_scale * mega_factor,
            ..azure
        };
        println!(
            "  scaling: synthesizing {}h trace at {}x rate for the >=1e8 streaming point ...",
            mega_azure.hours, mega_azure.rate_scale
        );
        let mega_stream = azure_like_stream(catalog.len(), &mega_azure);
        let mega_total = mega_stream.total();
        assert!(
            mega_total >= 100_000_000,
            "streaming point must cover 1e8 invocations (got {mega_total})"
        );
        let mut mega_mark = peak_rss_kb();
        let mega = measure_policy(
            &catalog,
            "RainbowCake",
            &mega_stream,
            shards,
            &config,
            &mut mega_mark,
        );
        let mega_rss = peak_rss_kb();
        println!(
            "  scaling RainbowCake streaming: {} invocations at {:.0} inv/s wall \
             ({:.0} calibrated), peak RSS {} MB",
            mega.completed,
            mega.inv_per_s,
            mega.calibrated_inv_per_s,
            mega_rss / 1024
        );
        assert!(
            mega_rss <= 64 * 1024,
            "streaming 1e8-invocation run must hold peak RSS <= 64 MB (got {} kB)",
            mega_rss
        );
        format!(
            ",\"scaling\":{{\"policy\":\"RainbowCake\",\"points\":[{},{}],\
             \"streaming\":{{\"shards\":{shards},\"invocations\":{},\
             \"rate_scale\":{},\"inv_per_s\":{},\"calibrated_inv_per_s\":{},\
             \"peak_rss_kb\":{}}}}}",
            format_args!(
                "{{\"shards\":1,\"inv_per_s\":{},\"calibrated_inv_per_s\":{}}}",
                fmt_f64(one.inv_per_s),
                fmt_f64(one.calibrated_inv_per_s)
            ),
            format_args!(
                "{{\"shards\":{shards},\"inv_per_s\":{},\"calibrated_inv_per_s\":{}}}",
                fmt_f64(many.inv_per_s),
                fmt_f64(many.calibrated_inv_per_s)
            ),
            mega.completed,
            fmt_f64(mega_azure.rate_scale),
            fmt_f64(mega.inv_per_s),
            fmt_f64(mega.calibrated_inv_per_s),
            mega_rss,
        )
    } else {
        String::new()
    };

    let row_json: Vec<String> = rows.iter().map(|r| r.to_json()).collect();
    let json = format!(
        "{{\"schema\":\"rainbowcake-stress/{STRESS_SCHEMA}\",\"shards\":{shards},\
         \"hours\":{},\"rate_scale\":{},\"timer_mode\":\"lazy\",\
         \"invocations\":{total},\"router\":\"Locality+Sharing+Load\",\
         \"peak_rss_kb\":{}{scaling},\"policies\":[{}]}}\n",
        azure.hours,
        fmt_f64(azure.rate_scale),
        peak_rss_kb(),
        row_json.join(","),
    );

    let dir = std::env::var("PERF_BASELINE_DIR").unwrap_or_else(|_| ".".to_string());
    let path = (1..10_000)
        .map(|i| format!("{dir}/BENCH_{i:04}.json"))
        .find(|p| !std::path::Path::new(p).exists())
        .expect("fewer than 10000 baselines");
    std::fs::write(&path, json).expect("write stress artifact");
    println!("wrote {path} (peak RSS {} MB)", peak_rss_kb() / 1024);
}
