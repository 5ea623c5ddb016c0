//! The ledger: every row one run measured, with the host record and every
//! failed operation, plus the check mode that judges a ledger against the
//! bounds kept here.

use smt_obs::Json;

use crate::host::Host;
use crate::stats::Summary;

/// Schema tag of a ledger document.
pub const SCHEMA: &str = "smt-perfbench-v1";

/// The end-to-end metrics every untraced run reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fragmented_wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    pub name: String,
    pub unit: &'static str,
    pub s: Summary,
}

/// Everything one run measured.
#[derive(Debug)]
pub struct Ledger {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub host: Host,
    pub rows: Vec<Row>,
    /// Operations attempted: runs, passes and round trips whose outputs
    /// were checked.
    pub attempted: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

impl Ledger {
    pub fn new(workload: &str, seed: u64, trace: bool, host: Host) -> Ledger {
        Ledger {
            workload: workload.to_string(),
            seed,
            trace,
            host,
            rows: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    pub fn row(&mut self, name: impl Into<String>, unit: &'static str, s: Summary) {
        self.rows.push(Row {
            name: name.into(),
            unit,
            s,
        });
    }

    /// Count one operation; an `Err` is one failure.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            eprintln!("FAILED: {e}");
            self.failures.push(e);
        }
    }

    /// Count one operation whose output must equal `expected`.
    pub fn expect_eq(&mut self, what: &str, got: u64, expected: u64) {
        self.op(if got == expected {
            Ok(())
        } else {
            Err(format!(
                "{what}: digest {got:#018x}, expected {expected:#018x}"
            ))
        });
    }

    pub fn get(&self, name: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.name == name)
    }

    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let layer = if END_TO_END.iter().any(|(n, _)| *n == r.name) {
                    "end_to_end"
                } else {
                    r.name.split('.').next().unwrap_or("")
                };
                Json::obj(vec![
                    ("layer", Json::str(layer)),
                    ("name", Json::str(r.name.clone())),
                    ("unit", Json::str(r.unit)),
                    ("median", Json::F64(r.s.median)),
                    ("q1", Json::F64(r.s.q1)),
                    ("q3", Json::F64(r.s.q3)),
                    ("n", Json::U64(r.s.n as u64)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::U64(self.seed)),
            ("trace", Json::Bool(self.trace)),
            ("host", self.host.to_json()),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failures.len() as u64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::str(f.clone())).collect()),
            ),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// median of every `expected` metric. A metric the run failed to
    /// produce (or produced only from failed operations) is itself a
    /// failed operation.
    pub fn result_line(&mut self, expected: &[(String, &'static str)]) -> Json {
        let mut metrics = Vec::new();
        for (name, unit) in expected {
            match self.get(name).map(|r| r.s.median).filter(|v| v.is_finite()) {
                Some(v) => metrics.push((
                    name.clone(),
                    Json::obj(vec![("value", Json::F64(v)), ("unit", Json::str(*unit))]),
                )),
                None => self.op(Err(format!("metric {name} was not measured"))),
            }
        }
        let failed = self.failures.len() as u64;
        Json::obj(vec![
            ("correct", Json::Bool(failed == 0)),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

#[cfg(test)]
/// A metric name: starts with a letter or digit, then at most 63 more
/// letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// A limit the check mode enforces on a row's median.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub row: &'static str,
    /// The median must be at most this.
    pub max: Option<f64>,
    /// The median must be at least this.
    pub min: Option<f64>,
    /// The bound applies only with at least this many jobs.
    pub min_jobs: u64,
    pub why: &'static str,
}

/// Bounds carried over unchanged from the per-feature benches whose rows
/// this benchmark measures.
pub const BOUNDS: [Bound; 2] = [
    Bound {
        row: "obs.interval_ratio.4-mix",
        max: Some(1.25),
        min: None,
        min_jobs: 1,
        why: "the interval probe rides along on ordinary runs",
    },
    Bound {
        row: "pipeline.fragment_speedup",
        max: None,
        min: Some(1.4),
        min_jobs: 4,
        why: "fragment replay must pay for itself with 4 or more jobs",
    },
];

/// Judge a ledger document: one line per failed operation and per breached
/// bound. An `Err` means the document is not a ledger.
pub fn check(doc: &Json) -> Result<Vec<String>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} ledger"));
    }
    let jobs = doc
        .get("host")
        .and_then(|h| h.get("jobs"))
        .and_then(Json::as_u64)
        .ok_or("ledger has no host.jobs")?;
    let failures = doc
        .get("failures")
        .and_then(Json::as_arr)
        .ok_or("ledger has no failures")?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("ledger has no rows")?;
    let mut problems: Vec<String> = failures
        .iter()
        .map(|f| format!("failed: {}", f.as_str().unwrap_or("?")))
        .collect();
    if doc.get("failed").and_then(Json::as_u64) != Some(failures.len() as u64) {
        problems.push("failed count disagrees with the failure list".to_string());
    }
    for b in &BOUNDS {
        if jobs < b.min_jobs {
            continue;
        }
        let Some(median) = rows
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(b.row))
            .and_then(|r| r.get("median"))
            .and_then(Json::as_f64)
        else {
            continue;
        };
        if let Some(max) = b.max.filter(|&m| median > m) {
            problems.push(format!("{} = {median} exceeds {max} ({})", b.row, b.why));
        }
        if let Some(min) = b.min.filter(|&m| median < m) {
            problems.push(format!("{} = {median} is below {min} ({})", b.row, b.why));
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_units_follow_the_charset() {
        assert!(valid_name("pipeline.ns_per_cycle.4-ilp"));
        assert!(valid_name("core.ns_per_cycle.dwarn-prio"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("MiB") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("per second"));
        for (name, unit) in END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
        }
    }
}
