//! The host record every output carries, and the process-level meters
//! (CPU time, peak resident memory) read from the operating system.

use smt_obs::Json;

/// Where and how a measurement was taken.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads the process may use.
    pub cores: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile that built the benchmark.
    pub profile: &'static str,
    /// Worker threads actually used: the request, capped at `cores`.
    pub jobs: usize,
    /// Worker threads asked for (`SMT_JOBS`, else the workload's default).
    pub requested_jobs: usize,
    /// Problems with the record, e.g. a request above the core count.
    pub warnings: Vec<String>,
}

impl Host {
    /// Resolve the host record. Jobs come from the `SMT_JOBS` environment
    /// variable, parsed as the campaign runner parses it, else
    /// `default_jobs`.
    pub fn detect(default_jobs: usize) -> Result<Host, String> {
        let requested = match std::env::var("SMT_JOBS") {
            Ok(v) => smt_experiments::runner::parse_jobs(Some(&v)).map_err(|e| e.to_string())?,
            Err(_) => default_jobs,
        };
        Ok(Host::with_jobs(requested))
    }

    /// The host record for `requested_jobs` worker threads, capped at the
    /// core count.
    pub fn with_jobs(requested_jobs: usize) -> Host {
        let cores = cores();
        let jobs = requested_jobs.clamp(1, cores);
        let mut warnings = Vec::new();
        if requested_jobs > cores {
            warnings.push(format!(
                "asked for {requested_jobs} jobs; capped at the {cores} available cores"
            ));
        }
        if cfg!(debug_assertions) {
            warnings.push("debug assertions are on: timings are not representative".into());
        }
        Host {
            cores,
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            jobs,
            requested_jobs,
            warnings,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cores", Json::U64(self.cores as u64)),
            ("rustc", Json::str(self.rustc)),
            ("profile", Json::str(self.profile)),
            ("jobs", Json::U64(self.jobs as u64)),
            ("requested_jobs", Json::U64(self.requested_jobs as u64)),
            (
                "warnings",
                Json::Arr(self.warnings.iter().map(|w| Json::str(w.clone())).collect()),
            ),
        ])
    }
}

/// Hardware threads the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User plus system CPU seconds consumed so far by every thread of this
/// process, including threads that have exited. Nanosecond resolution,
/// unlike the 10 ms ticks of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meters_read_positive_values() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn jobs_are_capped_at_the_core_count() {
        let h = Host::with_jobs(10_000);
        assert_eq!(h.jobs, h.cores);
        assert!(h.warnings.iter().any(|w| w.contains("capped")));
        let one = Host::with_jobs(1);
        assert_eq!(one.jobs, 1);
        assert!(one.warnings.iter().all(|w| !w.contains("capped")));
    }
}
