//! The check mode's exit codes: 0 for a clean ledger, non-zero for a
//! breached bound, a failed operation (e.g. a digest mismatch), or a file
//! that is not a ledger.

use std::path::PathBuf;
use std::process::Command;

fn ledger(workload: &str, jobs: u64, failures: &[&str], rows: &[(&str, f64)]) -> String {
    let failures: Vec<String> = failures.iter().map(|f| format!("{f:?}")).collect();
    let rows: Vec<String> = rows
        .iter()
        .map(|(name, median)| {
            format!(
                r#"{{"layer":"x","name":"{name}","unit":"s","median":{median},"q1":{median},"q3":{median},"n":1}}"#
            )
        })
        .collect();
    format!(
        r#"{{"schema":"smt-perfbench-v1","workload":"{workload}","seed":1,"trace":false,
"host":{{"cores":{jobs},"rustc":"rustc","profile":"release","jobs":{jobs},"requested_jobs":{jobs},"warnings":[]}},
"attempted":10,"failed":{},"failures":[{}],"rows":[{}]}}"#,
        failures.len(),
        failures.join(","),
        rows.join(",")
    )
}

/// Write `body` to a file of its own and run `--check` on it.
fn check(name: &str, body: &str) -> i32 {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, body).unwrap();
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--check")
        .arg(&path)
        .status()
        .unwrap()
        .code()
        .unwrap()
}

#[test]
fn clean_ledger_passes() {
    let body = ledger(
        "single-run",
        2,
        &[],
        &[("wall_s", 1.0), ("obs.interval_ratio.4-mix", 1.1)],
    );
    assert_eq!(check("clean", &body), 0);
}

#[test]
fn breached_bound_fails() {
    let probe = ledger("single-run", 2, &[], &[("obs.interval_ratio.4-mix", 1.3)]);
    assert_eq!(check("probe-overhead", &probe), 1);
}

#[test]
fn fragment_speedup_bound_needs_four_jobs() {
    let two = ledger(
        "observed-run",
        2,
        &[],
        &[("pipeline.fragment_speedup", 1.1)],
    );
    assert_eq!(check("speedup-2-jobs", &two), 0);
    let four = ledger(
        "observed-run",
        4,
        &[],
        &[("pipeline.fragment_speedup", 1.1)],
    );
    assert_eq!(check("speedup-4-jobs", &four), 1);
}

#[test]
fn digest_mismatch_fails() {
    let body = ledger(
        "single-run",
        2,
        &["4-mix DWARN: digest 0x0000000000000001, expected 0x0000000000000002"],
        &[("wall_s", 1.0)],
    );
    assert_eq!(check("digest-mismatch", &body), 1);
}

#[test]
fn not_a_ledger_is_a_usage_error() {
    assert_eq!(check("garbage", "{\"schema\":\"other\"}"), 2);
    assert_eq!(check("truncated", "{\"schema\":"), 2);
}
