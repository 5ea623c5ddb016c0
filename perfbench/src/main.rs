//! `perfbench`: the benchmark of the whole simulator stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite-cold|single-run|observed-run> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! cargo run ... -- --check <ledger.json>
//! ```
//!
//! Run from the repository root. An untraced run (`--trace 0`) measures
//! the end-to-end metrics; a traced run (`--trace 1`) adds spans around
//! every call into a layer and reports the per-layer metrics. Each run
//! writes its ledger (host record, every row with median, q1, q3 and n,
//! and every failed operation) under `.perfbench/`, prints it as one JSON
//! line, and prints the result as the last line. `--check` judges a
//! ledger against the bounds in [`ledger::BOUNDS`] and exits non-zero on
//! a breach or a failed operation. See `perfbench/README.md`.

mod host;
mod layers;
mod ledger;
mod pinned;
mod runs;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use smt_obs::Json;

use crate::host::Host;
use crate::ledger::{Ledger, END_TO_END};
use crate::workloads::{Ctx, Workload};

const USAGE: &str = "usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       perfbench --check <ledger.json>
workloads: suite-cold single-run observed-run
";

/// Output directory under the working directory (the repository root).
const OUT_DIR: &str = ".perfbench";

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Cmd {
    Run(Args),
    Check(PathBuf),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workload = None;
    let mut seed = smt_workloads::TRACE_SEED;
    let mut seconds = 27.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--check" => return Ok(Cmd::Check(PathBuf::from(value()?))),
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Cmd::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Err(e) => {
            eprint!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Cmd::Check(path)) => check(&path),
        Ok(Cmd::Run(a)) => match run(&a) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// `--check`: exit 1 on any failed operation or breached bound, 2 when the
/// file is not a ledger.
fn check(path: &Path) -> ExitCode {
    let doc = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|s| Json::parse(&s))
        .and_then(|doc| ledger::check(&doc));
    match doc {
        Err(e) => {
            eprintln!("perfbench --check: {e}");
            ExitCode::from(2)
        }
        Ok(problems) if problems.is_empty() => {
            eprintln!("perfbench --check: {} ok", path.display());
            ExitCode::SUCCESS
        }
        Ok(problems) => {
            for p in &problems {
                eprintln!("perfbench --check: {p}");
            }
            ExitCode::FAILURE
        }
    }
}

fn run(a: &Args) -> Result<(), String> {
    let host = Host::detect(a.workload.default_jobs())?;
    // The campaign runner sizes its worker pool from SMT_JOBS; pin it to
    // the capped job count before any campaign (or child process) starts.
    std::env::set_var("SMT_JOBS", host.jobs.to_string());
    for w in &host.warnings {
        eprintln!("perfbench: warning: {w}");
    }
    let out = PathBuf::from(OUT_DIR);
    let work = out.join(format!("work-{}-{}", a.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        jobs: host.jobs,
        work: work.clone(),
    };
    let mut ledger = Ledger::new(a.workload.name(), a.seed, a.trace, host);
    let expected: Vec<(String, &'static str)> = if a.trace {
        workloads::run_traced_body(a.workload, &ctx, &mut ledger);
        spans::set_recording(true);
        layers::battery(&ctx, &mut ledger);
        spans::set_recording(false);
        layers::per_layer_metrics()
            .into_iter()
            .map(|(n, u, _)| (n, u))
            .collect()
    } else {
        workloads::run_untraced(a.workload, &ctx, &mut ledger);
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let _ = std::fs::remove_dir_all(&work);

    let result = ledger.result_line(&expected);
    let stem = format!(
        "{}-trace{}-seed{}",
        a.workload.name(),
        u8::from(a.trace),
        a.seed
    );
    let doc = ledger.to_json();
    let ledger_path = out.join(format!("ledger-{stem}.json"));
    std::fs::write(&ledger_path, doc.render_pretty())
        .map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    if a.trace {
        let spans_path = out.join(format!("spans-{stem}.trace.json"));
        std::fs::write(&spans_path, spans::chrome_trace().render())
            .map_err(|e| format!("{}: {e}", spans_path.display()))?;
        for (layer, secs) in spans::self_seconds_by_layer() {
            eprintln!("self time {layer:<12} {secs:>9.3} s");
        }
        eprintln!("{} spans -> {}", spans::count(), spans_path.display());
    }
    report(&ledger);
    eprintln!("ledger -> {}", ledger_path.display());
    println!("{}", doc.render());
    println!("{}", result.render());
    Ok(())
}

/// Human-readable rows on stderr.
fn report(ledger: &Ledger) {
    let h = &ledger.host;
    eprintln!(
        "host: {} cores, jobs {} (asked {}), {}, {}",
        h.cores, h.jobs, h.requested_jobs, h.rustc, h.profile
    );
    eprintln!(
        "{} seed {}: {} operations, {} failed",
        ledger.workload,
        ledger.seed,
        ledger.attempted,
        ledger.failures.len()
    );
    for r in &ledger.rows {
        eprintln!(
            "  {:<40} {:>14.6} {:<6} [q1 {:.6}, q3 {:.6}, n {}]",
            r.name, r.s.median, r.unit, r.s.q1, r.s.q3, r.s.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        match parse(&args(
            "--workload single-run --seed 7 --seconds 2 --trace 1",
        )) {
            Ok(Cmd::Run(a)) => {
                assert_eq!(a.workload, Workload::SingleRun);
                assert_eq!((a.seed, a.seconds, a.trace), (7, 2.0, true));
            }
            _ => panic!("valid arguments rejected"),
        }
        match parse(&args("--workload suite-cold")) {
            Ok(Cmd::Run(a)) => assert_eq!(a.seed, smt_workloads::TRACE_SEED),
            _ => panic!("defaults rejected"),
        }
        for bad in [
            "",
            "--workload nope",
            "--workload single-run --trace 2",
            "--seconds 0 --workload single-run",
            "--bogus",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn every_metric_name_follows_the_charset() {
        let per_layer = layers::per_layer_metrics();
        assert!(per_layer.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(per_layer.iter().map(|(n, ..)| n.as_str()));
        for (name, unit, better) in &per_layer {
            assert!(ledger::valid_unit(unit), "{name}: unit {unit}");
            assert!(matches!(*better, "lower" | "higher"), "{name}");
        }
        let mut seen = std::collections::HashSet::new();
        for n in names {
            assert!(ledger::valid_name(n), "bad metric name {n}");
            assert!(seen.insert(n), "duplicate metric name {n}");
        }
    }

    /// BENCHMARK.json must declare exactly the workloads and metrics the
    /// code produces, with the same units.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = layers::per_layer_metrics()
            .into_iter()
            .map(|(n, u, _)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), per_layer);
    }
}
