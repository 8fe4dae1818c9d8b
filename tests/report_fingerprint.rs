//! A checked-in fingerprint of the simulator's report bytes: the six
//! §7.1 policies on the 1-hour Azure-like trace, through the
//! single-worker engine ([`run`]) and through the 4-shard streaming
//! cluster ([`run_cluster_streaming`] with [`LocalitySharingLoad`]).
//!
//! Every line of `tests/data/report_fingerprint.txt` records, per
//! pipeline and policy, the completed invocations, the cold starts, the
//! count of every start type (warmest first, as [`StartType::ALL`]
//! orders them) and the FNV-1a 64 hash of the report's JSON encoding.
//! The comparison is exact, so any change to what the simulator
//! reports — however small — fails here. A deliberate semantic change
//! updates the file in the same commit, with a CHANGES.md entry saying
//! why the bytes moved.
//!
//! [`StartType::ALL`]: rainbowcake_metrics::StartType::ALL

use rainbowcake::core::policy::Policy;
use rainbowcake::sim::cluster::{run_cluster_streaming, LocalitySharingLoad};
use rainbowcake::sim::run;
use rainbowcake_bench::{make_policy, Testbed, BASELINE_NAMES};
use rainbowcake_metrics::RunReport;

const EXPECTED: &str = include_str!("data/report_fingerprint.txt");

/// Shards of the cluster pipeline.
const SHARDS: usize = 4;

/// FNV-1a 64 of `bytes`.
fn fnv1a(bytes: &str) -> u64 {
    bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One fingerprint line: completed, cold starts, start types, hash.
fn line(pipeline: &str, name: &str, reports: &[&RunReport], json: &str) -> String {
    let completed: usize = reports.iter().map(|r| r.invocations()).sum();
    let cold: usize = reports.iter().map(|r| r.cold_starts()).sum();
    let mut types = [0usize; 7];
    for r in reports {
        for (slot, (_, n)) in types.iter_mut().zip(r.start_type_counts()) {
            *slot += n;
        }
    }
    let types: Vec<String> = types.iter().map(|n| n.to_string()).collect();
    format!(
        "{pipeline} {name} completed={completed} cold={cold} start_types={} fnv={:016x}",
        types.join(","),
        fnv1a(json)
    )
}

/// The fingerprint of the current simulator, one line per pipeline and
/// policy.
fn fingerprint() -> String {
    let bed = Testbed::paper_hours(1);
    let mut out = Vec::new();
    for name in BASELINE_NAMES {
        let mut policy = make_policy(name, &bed.catalog);
        let report = run(&bed.catalog, policy.as_mut(), &bed.trace, &bed.config);
        out.push(line("run", name, &[&report], &report.to_json()));
    }
    for name in BASELINE_NAMES {
        let factory = || -> Box<dyn Policy> { make_policy(name, &bed.catalog) };
        let cluster = run_cluster_streaming(
            &bed.catalog,
            &factory,
            bed.trace.iter().copied(),
            bed.trace.horizon(),
            SHARDS,
            &bed.config,
            &mut LocalitySharingLoad::default(),
        )
        .report;
        let workers: Vec<&RunReport> = cluster.workers.iter().collect();
        out.push(line("cluster4", name, &workers, &cluster.to_json()));
    }
    out.join("\n") + "\n"
}

#[test]
fn report_bytes_match_the_checked_in_fingerprint() {
    let actual = fingerprint();
    assert!(
        actual == EXPECTED,
        "report fingerprint changed; expected:\n{EXPECTED}\nactual:\n{actual}"
    );
}
