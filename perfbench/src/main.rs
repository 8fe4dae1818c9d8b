//! Benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rc-roomy --seed 41518 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` it replays the workload untraced until `--seconds`
//! have passed and reports the end-to-end metrics; with `--trace 1` it
//! pairs untraced with wrapper-traced replays, adds a profiled engine
//! pass and reports the per-layer metrics. Human-readable lines come first; the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant as Wall};

use rainbowcake_core::history::HistoryStats;
use rainbowcake_core::policy::Policy;
use rainbowcake_metrics::{RunReport, StartType};
use rainbowcake_perfbench::spans::Spans;
use rainbowcake_perfbench::wrap::{PolicyStats, StatsSink, TracedPolicy, TracedRouter, METHODS};
use rainbowcake_perfbench::{
    check, fingerprint, host, median, pooled, quartiles, replay, replay_with, setup, Replay, Setup,
    Workload, DEFAULT_SEED, HOURS, RATE_SCALE, SEGMENTS,
};
use rainbowcake_sim::cluster::LocalitySharingLoad;
use rainbowcake_sim::{run_streaming_with_profile, EngineProfile};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Untraced replays of each trace per run, at least, however short
/// `--seconds` is.
const MIN_REPLAYS: usize = 2;
/// The traced run times one call in this many per policy hook and per
/// routing decision; counts stay exact.
const SAMPLE_EVERY: u64 = 16;
/// Share of `--seconds` after which a traced run starts no new pass of
/// paired untraced and traced replays; the profiled engine pass follows.
const PAIRED_SHARE: f64 = 0.4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metrics in report order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric values are finite");
        self.0.push((name.into(), value, unit));
    }

    fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    fn print_lines(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<32} {value:>16.6} {unit}");
        }
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// The tally of the correctness gate over a run's replays.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Gate {
    /// Counts one replay; a replay with any problem counts all of its
    /// invocations as failed.
    fn record(&mut self, what: &str, invocations: u64, problems: Vec<String>) {
        self.attempted += invocations;
        if !problems.is_empty() {
            self.failed += invocations;
            for p in problems {
                self.problems.push(format!("{what}: {p}"));
            }
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// `part / whole`, or 0 when there is no whole (a layer the workload
/// never reaches).
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn pct(part: f64, whole: f64) -> f64 {
    100.0 * ratio(part, whole)
}

fn start_type_count(report: &RunReport, t: StartType) -> f64 {
    report
        .start_type_counts()
        .iter()
        .find(|&&(s, _)| s == t)
        .map_or(0.0, |&(_, n)| n as f64)
}

fn print_header(args: &Args, invocations: u64) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\" profile={} rev={}",
        host::nproc(),
        host::cpu_model(),
        host::rustc_version(),
        host::build_profile(),
        host::git_revision(&root)
    );
    println!(
        "run: workload={} policy={} memory_gb={} traces={SEGMENTS}x{HOURS}h rate_scale={RATE_SCALE} seed={} invocations={invocations} shards=1 trace={}",
        args.workload.name,
        args.workload.policy,
        args.workload.memory_gb,
        args.seed,
        u8::from(args.trace)
    );
}

/// Host timings of one replay.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall_s: f64,
    route_s: f64,
    route_cpu_s: f64,
    shard_busy_s: f64,
    shard_cpu_s: f64,
}

impl Sample {
    fn of(r: &Replay) -> Self {
        Sample {
            wall_s: r.wall_s,
            route_s: r.run.route_s,
            route_cpu_s: r.run.route_cpu_s,
            shard_busy_s: r.run.shard_busy_s.iter().sum(),
            shard_cpu_s: r.run.shard_cpu_s.iter().sum(),
        }
    }
}

/// Untraced replays of every trace: the first replay of each is kept
/// whole as the reference, every replay's timings are kept.
struct Untraced {
    first: Vec<Replay>,
    samples: Vec<Vec<Sample>>,
}

impl Untraced {
    /// Σ over traces of the per-trace median of `f`: each trace's
    /// median over its replays, added up over the traces.
    fn sum_of_medians(&self, f: impl Fn(&Sample) -> f64) -> f64 {
        self.samples
            .iter()
            .map(|s| median(&s.iter().map(&f).collect::<Vec<_>>()))
            .sum()
    }

    fn completed(&self) -> f64 {
        self.first.iter().map(|r| r.completed() as f64).sum()
    }

    fn pooled(&self) -> RunReport {
        pooled(&self.first.iter().map(|r| &r.merged).collect::<Vec<_>>())
    }

    /// Throughput of every complete pass over the traces, in order.
    fn pass_throughputs(&self) -> Vec<f64> {
        let passes = self.samples.iter().map(Vec::len).min().unwrap_or(0);
        (0..passes)
            .map(|p| self.completed() / self.samples.iter().map(|s| s[p].wall_s).sum::<f64>())
            .collect()
    }
}

/// Replays the traces round-robin, checking each replay against its
/// trace's first, until `budget` has passed and every trace has been
/// replayed at least [`MIN_REPLAYS`] times.
fn untraced_replays(args: &Args, s: &Setup, budget: Duration, gate: &mut Gate) -> Untraced {
    let k = s.streams.len();
    let mut first: Vec<Replay> = Vec::with_capacity(k);
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); k];
    let started = Wall::now();
    for n in 0.. {
        let i = n % k;
        if n >= k * MIN_REPLAYS && started.elapsed() >= budget {
            break;
        }
        let stream = &s.streams[i];
        let r = replay(&args.workload, &s.catalog, stream);
        let problems = check(&r, stream, first.get(i).map(|f| f.json.as_str()));
        gate.record("untraced replay", r.assigned() as u64, problems);
        samples[i].push(Sample::of(&r));
        if first.len() == i {
            first.push(r);
        }
    }
    Untraced { first, samples }
}

/// The end-to-end metrics of untraced replays.
fn end_to_end(setup_s: &[f64], u: &Untraced, gate: &Gate) -> Metrics {
    let completed = u.completed();
    let passes = u.pass_throughputs();
    let (q1, q3) = quartiles(&passes);
    println!(
        "replays: {} over {} traces, {} invocations a pass; inv_per_s of each complete pass: median {:.0}, quartiles {:.0}..{:.0}, all {:?}",
        u.samples.iter().map(Vec::len).sum::<usize>(),
        u.first.len(),
        completed,
        median(&passes),
        q1,
        q3,
        passes.iter().map(|t| t.round()).collect::<Vec<_>>()
    );
    for (i, r) in u.first.iter().enumerate() {
        println!(
            "trace {i}: invocations {} cold_start_pct {:.4} e2e_p99_s {:.3} fingerprint {:016x}",
            r.completed(),
            pct(r.run.report.cold_starts() as f64, r.completed() as f64),
            r.merged
                .e2e_percentile(99.0)
                .map_or(0.0, |t| t.as_secs_f64()),
            fingerprint(&r.json)
        );
    }
    let mut m = Metrics::default();
    m.add(
        "inv_per_s",
        completed / u.sum_of_medians(|x| x.wall_s),
        "1/s",
    );
    m.add(
        "cpu_ns_per_inv",
        u.sum_of_medians(|x| x.route_cpu_s + x.shard_cpu_s) * 1e9 / completed,
        "ns",
    );
    m.add("peak_rss_mb", host::peak_rss_kb() as f64 / 1024.0, "MB");
    m.add("setup_s", median(setup_s), "s");
    m.add(
        "completed_pct",
        pct((gate.attempted - gate.failed) as f64, gate.attempted as f64),
        "%",
    );
    m
}

/// The simulated outcomes of the pooled report: deterministic for a
/// seed, so a pure speed change leaves them identical.
fn simulated(report: &RunReport) -> Metrics {
    let completed = report.invocations() as f64;
    let ms = |p: f64| {
        report
            .startup_percentile(p)
            .map_or(0.0, |t| t.as_millis_f64())
    };
    let mut m = Metrics::default();
    m.add(
        "sim.cold_start_pct",
        pct(report.cold_starts() as f64, completed),
        "%",
    );
    m.add("sim.startup_p50_ms", ms(50.0), "ms");
    m.add("sim.startup_p99_ms", ms(99.0), "ms");
    m.add(
        "sim.e2e_p99_s",
        report.e2e_percentile(99.0).map_or(0.0, |t| t.as_secs_f64()),
        "s",
    );
    m.add("sim.waste_gb_s", report.total_waste().value(), "GB.s");
    m
}

/// The traced run: a trace drain, pairs of untraced and wrapper-traced
/// replays, and a profiled engine pass; returns the per-layer metrics.
fn per_layer(args: &Args, s: &Setup, spans: &mut Spans, gate: &mut Gate) -> Metrics {
    let w = &args.workload;
    let total = s.invocations() as f64;

    // Trace synthesis on its own: drain every stream, three times.
    let drains: Vec<f64> = spans.scope("trace.drain", |_| {
        (0..3)
            .map(|_| {
                let started = Wall::now();
                for stream in &s.streams {
                    let n = stream.iter().fold(0u64, |acc, a| {
                        acc ^ a.time.as_micros() ^ a.function.index() as u64
                    });
                    std::hint::black_box(n);
                }
                started.elapsed().as_secs_f64()
            })
            .collect()
    });

    // Pairs of an untraced and a wrapper-traced replay of the same
    // trace, back to back, so the host's drift cancels out of
    // `tracing.overhead_pct`.
    let budget = Duration::from_secs_f64(args.seconds * PAIRED_SHARE);
    let k = s.streams.len();
    let mut base = Untraced {
        first: Vec::with_capacity(k),
        samples: vec![Vec::new(); k],
    };
    let sink: StatsSink = Arc::default();
    let mut router = TracedRouter::new(LocalitySharingLoad::default(), SAMPLE_EVERY);
    let (mut untraced_wall, mut traced_wall, mut traced_inv) = (0.0, 0.0, 0.0);
    spans.enter("cluster.replay.paired");
    let log = spans.log();
    let started = Wall::now();
    for n in 0.. {
        let i = n % k;
        // Whole passes only, so every count per invocation is exact.
        if n > 0 && i == 0 && started.elapsed() >= budget {
            break;
        }
        let stream = &s.streams[i];
        let r = replay(w, &s.catalog, stream);
        let problems = check(&r, stream, base.first.get(i).map(|f| f.json.as_str()));
        gate.record("untraced replay", r.assigned() as u64, problems);
        base.samples[i].push(Sample::of(&r));
        untraced_wall += r.wall_s;
        if base.first.len() == i {
            base.first.push(r);
        }
        let factory = || -> Box<dyn Policy> {
            Box::new(TracedPolicy::new(
                w.policy(&s.catalog),
                SAMPLE_EVERY,
                Some(log.clone()),
                Some(Arc::clone(&sink)),
            ))
        };
        let t = replay_with(&s.catalog, stream, &w.sim_config(), &factory, &mut router);
        let problems = check(&t, stream, Some(&base.first[i].json));
        gate.record("traced replay", t.assigned() as u64, problems);
        traced_wall += t.wall_s;
        traced_inv += t.completed() as f64;
    }
    spans.exit();
    let mut policy = PolicyStats::default();
    for shard in sink
        .lock()
        .expect("no shard panicked holding the sink")
        .iter()
    {
        policy.merge(shard);
    }
    spans.extend(std::mem::take(&mut policy.spans));

    // Handler timing per event kind from the profiled engine entry
    // point, on the same arrivals (one shard receives all of them).
    let mut profile = EngineProfile::default();
    spans.scope("engine.profiled", |_| {
        for (stream, reference) in s.streams.iter().zip(&base.first) {
            let mut bare = w.policy(&s.catalog);
            let (report, p) = run_streaming_with_profile(
                &s.catalog,
                bare.as_mut(),
                stream.iter(),
                stream.horizon(),
                &w.sim_config(),
            );
            let mut problems = Vec::new();
            if report.to_json() != reference.run.report.workers[0].to_json() {
                problems.push("report differs from the cluster's worker 0".to_string());
            }
            gate.record("profiled engine run", report.invocations() as u64, problems);
            profile.merge(&p);
        }
    });

    // The metrics layer: merge and encode every report, pool them.
    let report_s: Vec<f64> = spans.scope("metrics.report", |_| {
        (0..5)
            .map(|_| {
                let started = Wall::now();
                let merged: Vec<RunReport> =
                    base.first.iter().map(|r| r.run.report.merged()).collect();
                let json: Vec<String> = base.first.iter().map(|r| r.run.report.to_json()).collect();
                let all = pooled(&merged.iter().collect::<Vec<_>>());
                std::hint::black_box((all, json));
                started.elapsed().as_secs_f64()
            })
            .collect()
    });

    let inv = base.completed();
    let per_inv = |x: f64| ratio(x, inv);
    let shard_cpu_s = base.sum_of_medians(|x| x.shard_cpu_s);
    let mut counts = EngineProfile::counting();
    let mut history = HistoryStats::default();
    for r in &base.first {
        counts.merge(&r.run.profile());
        history.merge(&r.run.history());
    }
    let report = base.pooled();
    // Policy counts span every traced replay.
    let per_traced_inv = |x: f64| ratio(x, traced_inv);
    let policy_ns_per_inv = per_traced_inv(policy.estimated_ns());

    let mut m = Metrics::default();
    m.add("trace.ns_per_arrival", median(&drains) * 1e9 / total, "ns");
    m.add(
        "cluster.route_cpu_s",
        base.sum_of_medians(|x| x.route_cpu_s),
        "s",
    );
    m.add("cluster.route_ns_per_arrival", router.stats.mean_ns(), "ns");
    m.add(
        "cluster.router_blocked_s",
        base.sum_of_medians(|x| x.route_s - x.route_cpu_s),
        "s",
    );
    m.add(
        "cluster.shard_wait_s",
        base.sum_of_medians(|x| x.shard_busy_s - x.shard_cpu_s),
        "s",
    );
    m.add("engine.shard_cpu_s", shard_cpu_s, "s");
    m.add(
        "engine.self_ns_per_inv",
        per_inv(shard_cpu_s * 1e9) - policy_ns_per_inv,
        "ns",
    );
    m.add(
        "engine.events_per_inv",
        per_inv(counts.total_events() as f64),
        "count",
    );
    for (i, kind) in EngineProfile::KIND_NAMES.iter().enumerate() {
        m.add(
            format!("engine.events.{kind}"),
            per_inv(counts.counts[i] as f64),
            "count",
        );
    }
    for (i, kind) in EngineProfile::KIND_NAMES.iter().enumerate() {
        m.add(
            format!("engine.handler_ns.{kind}"),
            ratio(profile.nanos[i] as f64, profile.counts[i] as f64),
            "ns",
        );
    }
    m.add(
        "policy.calls_per_inv",
        per_traced_inv(policy.calls() as f64),
        "count",
    );
    m.add("policy.ns_per_inv", policy_ns_per_inv, "ns");
    for (i, method) in METHODS.iter().enumerate() {
        m.add(
            format!("policy.ns.{method}"),
            per_traced_inv(policy.methods[i].estimated_ns()),
            "ns",
        );
    }
    m.add(
        "history.queries_per_inv",
        per_inv(history.queries as f64),
        "count",
    );
    m.add(
        "history.scope_queries_per_inv",
        per_inv(history.scope_queries as f64),
        "count",
    );
    m.add(
        "history.scope_hit_pct",
        pct(history.scope_hits as f64, history.scope_queries as f64),
        "%",
    );
    m.add(
        "history.terms_per_scan",
        ratio(history.terms_computed as f64, history.scans as f64),
        "count",
    );
    m.add(
        "pool.reclaims_per_inv",
        per_traced_inv(policy.reclaims as f64),
        "count",
    );
    m.add(
        "pool.reclaim_yield_pct",
        pct(policy.reclaims_yielding as f64, policy.reclaims as f64),
        "%",
    );
    m.add(
        "pool.candidates_per_reclaim",
        ratio(policy.candidates as f64, policy.reclaims as f64),
        "count",
    );
    m.add(
        "pool.evictions_per_inv",
        per_traced_inv(policy.evictions as f64),
        "count",
    );
    for (name, t) in [
        ("pool.warm_user_pct", StartType::WarmUser),
        ("pool.lang_pct", StartType::SharedLang),
        ("pool.bare_pct", StartType::SharedBare),
        ("pool.attached_pct", StartType::Attached),
    ] {
        m.add(name, pct(start_type_count(&report, t), inv), "%");
    }
    let queue_ms = report
        .streaming
        .as_ref()
        .map_or(0.0, |st| st.total_queue.as_millis_f64());
    m.add("pool.queue_ms_per_inv", per_inv(queue_ms), "ms");
    m.add("metrics.report_s", median(&report_s), "s");
    m.add(
        "tracing.overhead_pct",
        100.0 * (traced_wall / untraced_wall - 1.0),
        "%",
    );
    m.extend(simulated(&report));
    println!(
        "traced: one call in {SAMPLE_EVERY} timed per policy hook and for routing; traced replays {traced_wall:.3} s against the untraced replays paired with them {untraced_wall:.3} s"
    );
    m
}

fn write_spans(args: &Args, spans: &Spans) -> std::io::Result<String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name, args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    spans.write_jsonl(&mut out)?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <rc-roomy|ow-roomy|rc-pressure> [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut spans = Spans::new();
    spans.enter("run");
    let setups: Vec<_> = spans.scope("setup", |_| {
        (0..SETUP_REPEATS)
            .map(|_| setup(&args.workload, args.seed))
            .collect()
    });
    let setup_s: Vec<f64> = setups.iter().map(|s| s.seconds).collect();
    let s = setups.into_iter().next_back().expect("SETUP_REPEATS >= 1");
    print_header(&args, s.invocations());

    let mut gate = Gate::default();
    let (metrics, json) = if args.trace {
        let m = per_layer(&args, &s, &mut spans, &mut gate);
        spans.exit();
        match write_spans(&args, &spans) {
            Ok(path) => println!("spans: {path}"),
            Err(e) => gate.problems.push(format!("writing spans: {e}")),
        }
        (m, None)
    } else {
        let budget = Duration::from_secs_f64(args.seconds);
        let u = untraced_replays(&args, &s, budget, &mut gate);
        let m = end_to_end(&setup_s, &u, &gate);
        println!("simulated outcomes (reported as per-layer metrics by --trace 1):");
        simulated(&u.pooled()).print_lines();
        spans.exit();
        let json: String = u.first.iter().map(|r| r.json.as_str()).collect();
        (m, Some(json))
    };
    if let Some(json) = &json {
        println!("report fingerprint: {:016x}", fingerprint(json));
    }
    println!(
        "metrics ({}):",
        if args.trace {
            "per layer"
        } else {
            "end to end"
        }
    );
    metrics.print_lines();
    for p in &gate.problems {
        println!("CHECK FAILED {p}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        gate.correct(),
        gate.attempted,
        gate.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}
