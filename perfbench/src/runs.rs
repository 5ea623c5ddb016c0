//! Timed calls into the pipeline, observer and experiments layers, shared
//! by the workloads and the per-layer battery. Each function makes one
//! public call per layer boundary inside a [`span`] and returns its host
//! time with the digests that prove what it computed.

use std::path::Path;
use std::time::Instant;

use dwarn_core::{DWarn, PolicyKind, PolicyVisitor};
use smt_experiments::{error::protect, suite, Campaign, ExpParams};
use smt_obs::{IntervalConfig, IntervalProbe, IntervalSeries};
use smt_pipeline::{
    FetchPolicy, FragmentOpts, RecordingSanitizer, SimConfig, SimError, Simulator, ThreadSpec,
    Watchdog,
};
use smt_workloads::{workload, WorkloadClass, TRACE_SEED};

use crate::host::cpu_seconds;
use crate::spans::span;

/// Warm-up and measured cycles of one single run: the standard campaign
/// windows, the run a `compare` user waits for.
pub const WARMUP: u64 = 20_000;
pub const MEASURE: u64 = 60_000;
pub const RUN_CYCLES: u64 = WARMUP + MEASURE;

/// Scout snapshot cadence of fragment replay: eight fragments per run,
/// the default `--fragments` cadence.
pub const FRAGMENT_CYCLES: u64 = 10_000;

/// Interval-probe window: the `--interval-window` default.
pub const INTERVAL_WINDOW: u64 = 1024;

/// Windows of `suite-cold` and the battery's suite passes: the `all` grid
/// (every key, every experiment) with a tenth of the standard windows. A
/// standard cold `all` takes ~25 s on two cores and `--quick` ~7 s; one
/// pass that long per run measured with a 26% spread across runs on a
/// shared two-core host, where a ~5 s one-worker pass repeats often enough
/// for its median to hold still.
pub fn suite_params() -> ExpParams {
    ExpParams {
        warmup: 2_000,
        measure: 6_000,
    }
}

/// The four single-run shapes: ILP, where quiescence skipping is idle,
/// through MEM, where it is busiest, at 4 and 8 threads.
pub const SHAPES: [(&str, usize, WorkloadClass); 4] = [
    ("4-ilp", 4, WorkloadClass::Ilp),
    ("4-mix", 4, WorkloadClass::Mix),
    ("4-mem", 4, WorkloadClass::Mem),
    ("8-mem", 8, WorkloadClass::Mem),
];

/// Span of the per-seed stream offset, in instructions. Small on purpose:
/// the seed varies the inputs without changing what they cost. Replacing
/// the trace seed instead regenerates every static program, which moved
/// the observed run's wall time by 2.5x between two seeds.
const OFFSET_SPAN: u64 = 1024;

/// Instructions every thread's stream is advanced for `seed`: 0 at
/// [`TRACE_SEED`], else a splitmix64 hash of the seed below
/// [`OFFSET_SPAN`].
pub fn stream_offset(seed: u64) -> u64 {
    if seed == TRACE_SEED {
        return 0;
    }
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) % OFFSET_SPAN + 1
}

/// Thread specs of a Table 2(b) workload for `seed`. The static programs
/// stay the campaign's (trace seed [`TRACE_SEED`]); the seed moves where
/// every thread's stream starts. At [`TRACE_SEED`] these are exactly the
/// campaign's specs.
pub fn seeded_specs(threads: usize, class: WorkloadClass, seed: u64) -> Vec<ThreadSpec> {
    let mut specs = workload(threads, class).thread_specs();
    for s in &mut specs {
        s.skip += stream_offset(seed);
    }
    specs
}

/// Whether `seed` is the campaign's trace seed, where pinned digests apply.
pub fn is_default_seed(seed: u64) -> bool {
    seed == TRACE_SEED
}

/// 64-bit FNV-1a, for digests of rendered reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// How a single run is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Null observers, quiescence skipping on or off.
    Plain { skip: bool },
    /// The per-cycle sanitizer (`--sanitize`).
    Sanitized,
    /// The interval probe (`--intervals`).
    Interval,
}

/// One timed single run.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// `Simulator` construction, including the cache prewarm.
    pub build_s: f64,
    /// The 20k+60k-cycle run.
    pub run_s: f64,
    pub digest: u64,
    /// Cycles the quiescence engine advanced in bulk.
    pub skipped: u64,
}

fn timed_run<P, S, F>(
    sim: Result<Simulator<P, S, F>, smt_pipeline::ConfigError>,
    build_s: f64,
    skip: bool,
    what: &str,
) -> Result<(Timed, Simulator<P, S, F>), String>
where
    P: smt_pipeline::Probe,
    S: smt_pipeline::Sanitizer,
    F: FetchPolicy,
{
    let mut sim = sim.map_err(|e| format!("{what}: {e}"))?;
    sim.set_skip_enabled(skip);
    let t0 = Instant::now();
    let result = span("pipeline", "Simulator::try_run", || {
        sim.try_run(WARMUP, MEASURE, &Watchdog::default())
    })
    .map_err(|e| format!("{what}: {e}"))?;
    let run_s = t0.elapsed().as_secs_f64();
    let t = Timed {
        build_s,
        run_s,
        digest: std::hint::black_box(result).digest(),
        skipped: sim.skipped_cycles(),
    };
    Ok((t, sim))
}

/// Build and run `specs` under `policy` in `mode`. A typed run failure or
/// a dirty sanitizer is an `Err`.
pub fn run_with<F: FetchPolicy>(
    policy: F,
    specs: &[ThreadSpec],
    mode: Mode,
    what: &str,
) -> Result<Timed, String> {
    let t0 = Instant::now();
    match mode {
        Mode::Plain { skip } => {
            let sim = span("pipeline", "Simulator::new", || {
                Simulator::try_new(SimConfig::baseline(), policy, specs)
            });
            timed_run(sim, t0.elapsed().as_secs_f64(), skip, what).map(|(t, _)| t)
        }
        Mode::Sanitized => {
            let sim = span("pipeline", "Simulator::try_sanitized", || {
                Simulator::try_sanitized(
                    SimConfig::baseline(),
                    policy,
                    specs,
                    RecordingSanitizer::new(),
                )
            });
            let (t, sim) = timed_run(sim, t0.elapsed().as_secs_f64(), true, what)?;
            if !sim.sanitizer().is_clean() {
                return Err(format!(
                    "{what}: sanitizer recorded {} violation(s)",
                    sim.sanitizer().total()
                ));
            }
            Ok(t)
        }
        Mode::Interval => {
            let sim = span("pipeline", "Simulator::try_with_probe", || {
                Simulator::try_with_probe(
                    SimConfig::baseline(),
                    policy,
                    specs,
                    IntervalProbe::new(IntervalConfig {
                        window: INTERVAL_WINDOW,
                    }),
                )
            });
            let (t, sim) = timed_run(sim, t0.elapsed().as_secs_f64(), true, what)?;
            let series = span("obs", "IntervalProbe::into_series", || {
                sim.into_probe().into_series()
            });
            if series.total_cycles() < RUN_CYCLES {
                return Err(format!(
                    "{what}: interval probe saw {} of {RUN_CYCLES} cycles",
                    series.total_cycles()
                ));
            }
            Ok(t)
        }
    }
}

/// Run `kind` with static (monomorphized) policy dispatch, the path the
/// campaign uses for every grid run.
pub fn run_static(
    kind: PolicyKind,
    specs: &[ThreadSpec],
    mode: Mode,
    what: &str,
) -> Result<Timed, String> {
    struct Visit<'a> {
        specs: &'a [ThreadSpec],
        mode: Mode,
        what: &'a str,
    }
    impl PolicyVisitor for Visit<'_> {
        type Out = Result<Timed, String>;
        fn visit<F: FetchPolicy + 'static>(self, policy: F) -> Self::Out {
            run_with(policy, self.specs, self.mode, self.what)
        }
    }
    kind.dispatch(Visit { specs, mode, what })
}

/// Seconds to construct (and prewarm) a plain simulator for `specs`.
pub fn build_only(kind: PolicyKind, specs: &[ThreadSpec]) -> Result<f64, String> {
    let t0 = Instant::now();
    let sim = span("pipeline", "Simulator::new", || {
        Simulator::try_new(SimConfig::baseline(), kind.build(), specs)
    });
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sim.map_err(|e| e.to_string())?.cycle());
    Ok(secs)
}

/// The observed simulator: DWarn with the interval probe and the
/// recording sanitizer, as `--intervals --sanitize` builds it.
type Observed = Simulator<IntervalProbe, RecordingSanitizer, DWarn>;

fn observed_sim(specs: &[ThreadSpec]) -> Result<Observed, SimError> {
    span("pipeline", "Simulator::try_with_specs", || {
        Simulator::try_with_specs(
            SimConfig::baseline(),
            DWarn::new(),
            specs,
            IntervalProbe::new(IntervalConfig {
                window: INTERVAL_WINDOW,
            }),
            RecordingSanitizer::new(),
        )
    })
    .map_err(SimError::from)
}

/// Seconds to construct the observed simulator.
pub fn observed_build(specs: &[ThreadSpec]) -> Result<f64, String> {
    let t0 = Instant::now();
    let sim = observed_sim(specs).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64();
    std::hint::black_box(sim.cycle());
    Ok(secs)
}

/// One observed run, sequential or fragmented.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    pub wall: f64,
    pub digest: u64,
    pub series_digest: u64,
    /// Fragments replayed (0 for the sequential run).
    pub fragments: u64,
    /// Seconds to stitch the interval series (0 for the sequential run).
    pub stitch_s: f64,
}

/// The observed run, sequentially.
pub fn observed_seq(specs: &[ThreadSpec]) -> Result<ObservedRun, String> {
    let t0 = Instant::now();
    let mut sim = observed_sim(specs).map_err(|e| e.to_string())?;
    let result = span("pipeline", "Simulator::try_run", || {
        sim.try_run(WARMUP, MEASURE, &Watchdog::default())
    })
    .map_err(|e| format!("observed run: {e}"))?;
    if !sim.sanitizer().is_clean() {
        return Err(format!(
            "observed run: sanitizer recorded {} violation(s)",
            sim.sanitizer().total()
        ));
    }
    let series = span("obs", "IntervalProbe::into_series", || {
        sim.into_probe().into_series()
    });
    Ok(ObservedRun {
        wall: t0.elapsed().as_secs_f64(),
        digest: result.digest(),
        series_digest: series.digest(),
        fragments: 0,
        stitch_s: 0.0,
    })
}

/// The observed run via `try_run_fragmented` at `jobs` replay workers: a
/// null-observer scout plus concurrent observed replay, then the interval
/// series stitched, as `--fragments` does it.
pub fn observed_frag(specs: &[ThreadSpec], jobs: usize) -> Result<ObservedRun, String> {
    let t0 = Instant::now();
    let mut scout = span("pipeline", "Simulator::new", || {
        Simulator::try_new(SimConfig::baseline(), DWarn::new(), specs)
    })
    .map_err(|e| e.to_string())?;
    let factory = || observed_sim(specs);
    let opts = FragmentOpts {
        jobs,
        fragment_cycles: FRAGMENT_CYCLES,
    };
    let report = span("pipeline", "Simulator::try_run_fragmented", || {
        scout.try_run_fragmented(WARMUP, MEASURE, &Watchdog::default(), &opts, &factory)
    })
    .map_err(|e| format!("fragmented run: {e}"))?;
    if let Some(f) = report.fragments.iter().find(|f| !f.sanitizer.is_clean()) {
        return Err(format!(
            "fragment {}: sanitizer recorded violations",
            f.index
        ));
    }
    let fragments = report.fragments.len() as u64;
    let parts: Vec<IntervalSeries> = report
        .fragments
        .into_iter()
        .map(|f| f.probe.into_series())
        .collect();
    let s0 = Instant::now();
    let series = span("obs", "IntervalSeries::stitch", || {
        IntervalSeries::stitch(parts.iter())
    })
    .map_err(|e| format!("series stitch: {e}"))?;
    let stitch_s = s0.elapsed().as_secs_f64();
    Ok(ObservedRun {
        wall: t0.elapsed().as_secs_f64(),
        digest: report.result.digest(),
        series_digest: series.digest(),
        fragments,
        stitch_s,
    })
}

/// The experiments `all` runs: `suite::ALL` less `meta`, whose oracle
/// runs bypass the result cache by design.
pub fn all_grid() -> impl Iterator<Item = &'static (&'static str, suite::ExperimentFn)> {
    suite::ALL.iter().filter(|(name, _)| *name != "meta")
}

/// One pass of the `all` grid against a disk cache in `dir`.
#[derive(Debug, Clone)]
pub struct SuitePass {
    pub wall: f64,
    pub cpu: f64,
    /// FNV-1a over every rendered report, in order.
    pub digest: u64,
    pub per_exp: Vec<(&'static str, f64)>,
    /// `(disk_hits, sim_runs, coalesced)` from `Campaign::telemetry_counters`.
    pub counters: (u64, u64, u64),
    /// Typed run failures and broken experiments.
    pub errors: Vec<String>,
}

impl SuitePass {
    /// Simulated cycles behind the results this pass produced, whether
    /// simulated or served from the cache.
    pub fn cycles(&self) -> f64 {
        let p = suite_params();
        ((self.counters.0 + self.counters.1) * (p.warmup + p.measure)) as f64
    }
}

/// Run the `all` grid on a campaign with a disk cache at `dir`, with
/// fragment replay on or off, as `smt-experiments all --cache-dir <dir>
/// [--fragments]` does.
pub fn suite_pass(dir: &Path, fragments: bool) -> SuitePass {
    suite_pass_with(suite_params(), dir, fragments)
}

/// Windows of the fixed-cost pass: a tenth of [`suite_params`], about the
/// shortest at which every solo run on every machine still commits
/// instructions (fig1 needs a positive single-threaded IPC).
pub fn fixed_params() -> ExpParams {
    ExpParams {
        warmup: 200,
        measure: 600,
    }
}

/// Share of a cold pass at [`suite_params`] that does not scale with the
/// windows, from its wall `cold` and the wall `fixed` of a cold pass at
/// [`fixed_params`]: the intercept of the line through the two, over
/// `cold`. That part is what every run costs whatever its length:
/// construction with the cache prewarm, scheduling, cache writes and
/// report rendering.
pub fn fixed_share(cold: f64, fixed: f64) -> f64 {
    let k = suite_params().measure as f64 / fixed_params().measure as f64;
    (k * fixed - cold) / ((k - 1.0) * cold)
}

/// [`suite_pass`] with other windows.
pub fn suite_pass_with(params: ExpParams, dir: &Path, fragments: bool) -> SuitePass {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut errors = Vec::new();
    let mut per_exp = Vec::new();
    let mut h = Fnv::new();
    let mut counters = (0, 0, 0);
    match span("experiments", "Campaign::with_disk_cache", || {
        Campaign::with_disk_cache(params, dir)
    }) {
        Err(e) => errors.push(format!("opening cache {}: {e}", dir.display())),
        Ok(mut c) => {
            if fragments {
                c.set_fragments(FRAGMENT_CYCLES);
            }
            for &(name, f) in all_grid() {
                let t = Instant::now();
                match span("experiments", name, || protect(name, || Ok(f(&c)))) {
                    Ok(report) => {
                        h.eat(name.as_bytes());
                        h.eat(&[0]);
                        h.eat(report.as_bytes());
                    }
                    Err(e) => errors.push(format!("{name}: {e}")),
                }
                per_exp.push((name, t.elapsed().as_secs_f64()));
            }
            errors.extend(
                c.failures()
                    .into_iter()
                    .map(|f| format!("{}: {}", f.what, f.error)),
            );
            counters = c.telemetry_counters();
        }
    }
    SuitePass {
        wall: t0.elapsed().as_secs_f64(),
        cpu: cpu_seconds() - cpu0,
        digest: h.0,
        per_exp,
        counters,
        errors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_share_is_the_intercept_over_the_cold_wall() {
        // 0.5 s fixed plus 2.5 s that scales with the windows.
        let (fixed, scaled) = (0.5, 2.5);
        let k = (suite_params().measure / fixed_params().measure) as f64;
        let share = fixed_share(fixed + scaled, fixed + scaled / k);
        assert!((share - fixed / (fixed + scaled)).abs() < 1e-12, "{share}");
    }

    #[test]
    fn stream_offset_is_zero_only_at_the_trace_seed() {
        assert_eq!(stream_offset(TRACE_SEED), 0);
        for seed in 0..1000 {
            assert!((1..=OFFSET_SPAN).contains(&stream_offset(seed)));
        }
    }
}
