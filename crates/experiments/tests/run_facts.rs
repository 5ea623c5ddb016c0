//! Campaign-level referee for the per-run facts in the stats artifact.
//!
//! Beyond the [`SimResult`] itself, every in-process campaign run reports
//! four execution facts in its `smt-stats-v3` document: `skip_ratio`,
//! `policy_switches`, `fragments` and `fragment_cycles`. This suite drives
//! grid runs through a real [`Campaign`] in every observer configuration
//! (plain, `--sanitize`, `--intervals`, fragmented, checkpointed, cache
//! served) and checks the four fields against a direct simulator run of
//! the same request.
//!
//! The artifact sink is process-wide, so every case lives in the one test
//! below and the binary holds no other test.

use std::path::{Path, PathBuf};

use dwarn_core::{PolicyKind, SelectorKind};
use smt_experiments::runner::{Campaign, ExpParams, RunKey};
use smt_experiments::{artifacts, Arch};
use smt_obs::Json;
use smt_pipeline::{FragmentOpts, SimConfig, Simulator, Watchdog};
use smt_workloads::{workload, WorkloadClass};

const PARAMS: ExpParams = ExpParams {
    warmup: 1_000,
    measure: 3_000,
};
/// Splits each run into 1 warm-up and 3 measurement fragments.
const FRAGMENT: u64 = 1_000;
/// Fragment replay engages only with at least two campaign workers.
const JOBS: usize = 2;

/// The four execution facts of one stats document, as rendered
/// (`None` = JSON null).
#[derive(Debug, Clone, PartialEq)]
struct Facts {
    skip_ratio: Option<f64>,
    policy_switches: Option<u64>,
    fragments: Option<u64>,
    fragment_cycles: Option<u64>,
}

impl Facts {
    fn served() -> Facts {
        Facts {
            skip_ratio: None,
            policy_switches: None,
            fragments: None,
            fragment_cycles: None,
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwarn-facts-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(policy: PolicyKind) -> RunKey {
    RunKey::workload(Arch::Baseline, &workload(2, WorkloadClass::Mem), policy)
}

/// Facts of a straight sequential run of `key`, or — with `fragment` set —
/// of a null-observer fragmented run (its skip count is the scout's).
fn expected(policy: PolicyKind, fragment: Option<u64>) -> Facts {
    let specs = workload(2, WorkloadClass::Mem).thread_specs();
    let total = (PARAMS.warmup + PARAMS.measure) as f64;
    let mut sim = Simulator::try_new(SimConfig::baseline(), policy.build(), &specs).unwrap();
    let wd = Watchdog::default();
    match fragment {
        None => {
            sim.try_run(PARAMS.warmup, PARAMS.measure, &wd).unwrap();
            Facts {
                skip_ratio: Some(sim.skipped_cycles() as f64 / total),
                policy_switches: Some(sim.policy().switch_log().len() as u64),
                fragments: None,
                fragment_cycles: None,
            }
        }
        Some(cycles) => {
            let opts = FragmentOpts {
                jobs: JOBS,
                fragment_cycles: cycles,
            };
            let factory = || {
                Ok(Simulator::try_new(
                    SimConfig::baseline(),
                    policy.build(),
                    &specs,
                )?)
            };
            let report = sim
                .try_run_fragmented(PARAMS.warmup, PARAMS.measure, &wd, &opts, &factory)
                .unwrap();
            Facts {
                skip_ratio: Some(report.scout_skipped as f64 / total),
                policy_switches: Some(report.switches.len() as u64),
                fragments: Some(report.fragments.len() as u64),
                fragment_cycles: Some(cycles),
            }
        }
    }
}

/// Run `key` on `campaign` with the artifact sink on, and return the
/// facts of the one stats document it writes.
fn recorded(campaign: &Campaign, key: &RunKey, dir: &Path) -> Facts {
    artifacts::enable(dir).unwrap();
    campaign.try_result(key).unwrap();
    artifacts::flush().unwrap();
    let docs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(docs.len(), 1, "expected one stats document: {docs:?}");
    let doc = Json::parse(&std::fs::read_to_string(&docs[0]).unwrap()).unwrap();
    let field = |k: &str| doc.get(k).unwrap_or_else(|| panic!("{docs:?} lacks {k}"));
    let facts = Facts {
        skip_ratio: field("skip_ratio").as_f64(),
        policy_switches: field("policy_switches").as_u64(),
        fragments: field("fragments").as_u64(),
        fragment_cycles: field("fragment_cycles").as_u64(),
    };
    let _ = std::fs::remove_dir_all(dir);
    facts
}

#[test]
fn stats_artifacts_carry_each_runs_execution_facts() {
    // Pin the campaign width so fragment replay engages on any host. This
    // binary runs no other test, so nothing races the variable.
    std::env::set_var("SMT_JOBS", JOBS.to_string());
    let dwarn = key(PolicyKind::DWarn);
    let meta = PolicyKind::Meta(SelectorKind::IpcGreedy);
    let sequential = expected(PolicyKind::DWarn, None);
    let fragmented = expected(PolicyKind::DWarn, Some(FRAGMENT));
    assert!(sequential.skip_ratio.unwrap() > 0.0, "2-MEM must skip");
    assert!(fragmented.fragments.unwrap() >= 2);

    let mut mismatches = Vec::new();
    let mut check = |case: &str, got: Facts, want: Facts| {
        if got != want {
            mismatches.push(format!("{case}: got {got:?}, want {want:?}"));
        }
    };

    let plain = Campaign::new(PARAMS);
    check(
        "plain",
        recorded(&plain, &dwarn, &temp_dir("plain")),
        sequential.clone(),
    );

    let mut sanitized = Campaign::new(PARAMS);
    sanitized.set_sanitize(true);
    check(
        "--sanitize",
        recorded(&sanitized, &dwarn, &temp_dir("sanitize")),
        sequential.clone(),
    );

    let iv_dir = temp_dir("intervals-out");
    let mut probed = Campaign::new(PARAMS);
    probed.set_intervals(&iv_dir, 256).unwrap();
    check(
        "--intervals",
        recorded(&probed, &dwarn, &temp_dir("intervals")),
        sequential.clone(),
    );
    let _ = std::fs::remove_dir_all(&iv_dir);

    let mut sanitized_frag = Campaign::new(PARAMS);
    sanitized_frag.set_sanitize(true);
    sanitized_frag.set_fragments(FRAGMENT);
    check(
        "--sanitize --fragments",
        recorded(&sanitized_frag, &dwarn, &temp_dir("san-frag")),
        fragmented,
    );

    // Only observed runs are split: an unobserved run's scout pass would
    // redo the replay's work, so a plain campaign runs it sequentially.
    let mut plain_frag = Campaign::new(PARAMS);
    plain_frag.set_fragments(FRAGMENT);
    check(
        "--fragments",
        recorded(&plain_frag, &dwarn, &temp_dir("frag")),
        sequential.clone(),
    );

    let switching = Campaign::new(PARAMS);
    let want = expected(meta, None);
    assert!(want.policy_switches.unwrap() > 0, "{meta:?} must switch");
    check(
        "meta-policy",
        recorded(&switching, &key(meta), &temp_dir("meta")),
        want,
    );

    let resume_dir = temp_dir("resume-state");
    let mut resumable = Campaign::new(PARAMS);
    resumable.set_checkpointing(&resume_dir, FRAGMENT).unwrap();
    check(
        "--resume",
        recorded(&resumable, &dwarn, &temp_dir("resume")),
        sequential.clone(),
    );
    let _ = std::fs::remove_dir_all(&resume_dir);

    // A cache-served result did not execute here: all four facts are null.
    let cache_dir = temp_dir("cache-store");
    let cold = Campaign::with_disk_cache(PARAMS, &cache_dir).unwrap();
    check(
        "cache cold",
        recorded(&cold, &dwarn, &temp_dir("cold")),
        sequential.clone(),
    );
    let warm = Campaign::with_disk_cache(PARAMS, &cache_dir).unwrap();
    check(
        "cache-served",
        recorded(&warm, &dwarn, &temp_dir("warm")),
        Facts::served(),
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
