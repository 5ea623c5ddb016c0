//! The workloads, their set-up, and the end-to-end measurement loop.
//!
//! Each workload has a plain body (what its user waits for) and the same
//! work through fragment replay (what a `--fragments` user waits for).
//! One iteration runs both, in an order that alternates between
//! iterations, and checks that they computed the same thing. Iterations
//! repeat until `--seconds` have passed; every end-to-end metric is the
//! median over iterations.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dwarn_core::PolicyKind;
use smt_experiments::{Campaign, ExpParams};
use smt_pipeline::{SimConfig, ThreadSpec};
use smt_workloads::WorkloadClass;

use crate::host::{self, cpu_seconds, peak_rss_mb};
use crate::ledger::Ledger;
use crate::pinned;
use crate::runs::{
    self, Mode, ObservedRun, SuitePass, FRAGMENT_CYCLES, MEASURE, RUN_CYCLES, SHAPES, WARMUP,
};
use crate::spans;
use crate::stats::{pair_order, paired, Side, Summary};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SuiteCold,
    SingleRun,
    ObservedRun,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SuiteCold,
        Workload::SingleRun,
        Workload::ObservedRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::SingleRun => "single-run",
            Workload::ObservedRun => "observed-run",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads when `SMT_JOBS` is unset. `suite-cold` runs its
    /// campaigns on one worker. On a shared 2-vCPU host, two busy threads
    /// took 1.1x to 2x the wall of one, in phases of minutes, so a
    /// two-worker cold pass moved by up to 39% between two sets of ten runs
    /// while the one-thread workloads moved by under 9%.
    pub fn default_jobs(self) -> usize {
        match self {
            Workload::SuiteCold => 1,
            Workload::SingleRun | Workload::ObservedRun => host::cores(),
        }
    }
}

/// Set-up samples taken before every iteration; `setup_s` is the median
/// of all of them. Set-up is milliseconds or less. Sampling throughout
/// the run rather than in one burst at its start lets the median ride out
/// the host's slow and fast phases, as the iteration medians do: burst
/// medians moved by up to 38% between two sets of ten runs.
const SETUPS_PER_ITERATION: usize = 5;

/// The mean of `batch` calls of `f` (seconds each), as one set-up sample.
/// Batching steadies samples of sub-millisecond set-ups.
fn batch_mean(batch: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..batch).map(|_| f()).sum::<f64>() / batch as f64
}

/// What every workload needs to know about its run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub jobs: usize,
    /// Scratch directory for caches; removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A workload's timed body.
trait Body {
    /// One set-up sample in seconds.
    fn setup_sample(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> f64;
    /// The plain body: `(wall seconds, simulated cycles behind its output)`.
    fn plain(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> (f64, f64);
    /// The same work through fragment replay: wall seconds.
    fn fragmented(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> f64;
    /// Check that the two halves of the iteration agree.
    fn compare(&mut self, ledger: &mut Ledger);
}

/// Build the workload's state.
fn setup(w: Workload, ctx: &Ctx, ledger: &mut Ledger) -> Box<dyn Body> {
    match w {
        Workload::SuiteCold => SuiteCold::setup(ctx, ledger),
        Workload::SingleRun => SingleRun::setup(ctx, ledger),
        Workload::ObservedRun => Observed::setup(ctx, ledger),
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(w: Workload, ctx: &Ctx, ledger: &mut Ledger) {
    let mut body = setup(w, ctx, ledger);
    let mut setup_s = Vec::new();
    let started = Instant::now();
    let (mut wall, mut frag, mut cpu, mut rate) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = Duration::ZERO;
    // Skip an iteration that would end more than half an iteration past
    // the budget, so that a run of long iterations ends near `--seconds`.
    while wall.is_empty() || started.elapsed() + last / 2 <= ctx.budget() {
        for _ in 0..SETUPS_PER_ITERATION {
            setup_s.push(body.setup_sample(ctx, ledger));
        }
        let iteration = Instant::now();
        let cpu0 = cpu_seconds();
        let (mut w_s, mut cycles, mut f_s) = (0.0, 0.0, 0.0);
        for side in pair_order(wall.len()) {
            match side {
                Side::A => (w_s, cycles) = body.plain(ctx, ledger),
                Side::B => f_s = body.fragmented(ctx, ledger),
            }
        }
        body.compare(ledger);
        cpu.push(cpu_seconds() - cpu0);
        wall.push(w_s);
        frag.push(f_s);
        rate.push(cycles / w_s);
        last = iteration.elapsed();
    }
    ledger.row("setup_s", "s", Summary::of(&setup_s));
    ledger.row("wall_s", "s", Summary::of(&wall));
    ledger.row("fragmented_wall_s", "s", Summary::of(&frag));
    ledger.row("sim_cycles_per_s", "1/s", Summary::of(&rate));
    ledger.row("cpu_s", "s", Summary::of(&cpu));
    ledger.row("peak_rss_mb", "MiB", Summary::exact(peak_rss_mb()));
}

/// The traced run's workload part: the plain body untraced and traced in
/// interleaved pairs, giving the tracing overhead as a row.
pub fn run_traced_body(w: Workload, ctx: &Ctx, ledger: &mut Ledger) {
    let mut body = setup(w, ctx, ledger);
    let p = paired(1, ctx.budget(), |side| {
        spans::set_recording(side == Side::B);
        let (wall, _) = spans::span("bench", w.name(), || body.plain(ctx, ledger));
        spans::set_recording(false);
        wall
    });
    ledger.row("bench.trace_overhead_ratio", "ratio", p);
}

fn fresh_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    let dir = ctx.work.join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Judge one suite pass: no failures, the pinned report digest, and the
/// expected cache behaviour (`warm`: every result a disk hit; cold:
/// every result simulated).
pub fn judge_pass(what: &str, pass: &SuitePass, warm: bool) -> Result<(), String> {
    if let Some(e) = pass.errors.first() {
        return Err(format!(
            "{what}: {} failure(s), first: {e}",
            pass.errors.len()
        ));
    }
    if pass.digest != pinned::SUITE_REPORTS {
        return Err(format!(
            "{what}: report digest {:#018x}, expected {:#018x}",
            pass.digest,
            pinned::SUITE_REPORTS
        ));
    }
    let (hits, sims, _) = pass.counters;
    match (warm, hits, sims) {
        (true, h, 0) if h > 0 => Ok(()),
        (false, 0, s) if s > 0 => Ok(()),
        _ => Err(format!("{what}: {hits} cache hits and {sims} simulations")),
    }
}

/// `suite-cold`: one cold pass per side, each on a fresh cache directory.
struct SuiteCold {
    passes: usize,
    opened: usize,
    digests: [Option<u64>; 2],
}

impl SuiteCold {
    fn setup(_ctx: &Ctx, _ledger: &mut Ledger) -> Box<dyn Body> {
        let body = SuiteCold {
            passes: 0,
            opened: 0,
            digests: [None; 2],
        };
        Box::new(body)
    }

    fn pass(&mut self, ctx: &Ctx, ledger: &mut Ledger, fragments: bool) -> SuitePass {
        let dir = fresh_dir(ctx, &format!("cold-{}", self.passes));
        self.passes += 1;
        let pass = runs::suite_pass(&dir, fragments);
        let _ = std::fs::remove_dir_all(&dir);
        ledger.op(judge_pass("cold pass", &pass, false));
        self.digests[usize::from(fragments)] = Some(pass.digest);
        pass
    }
}

impl Body for SuiteCold {
    /// `Campaign::with_disk_cache` on a fresh cache directory.
    fn setup_sample(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        batch_mean(16, || {
            // The directory exists before the clock starts: creating it on
            // an overlay filesystem took 12 to 77 us depending on the run,
            // and drowned the campaign's own cost.
            let dir = fresh_dir(ctx, &format!("setup-{}", self.opened));
            self.opened += 1;
            let _ = std::fs::create_dir_all(&dir);
            let t0 = Instant::now();
            let campaign = Campaign::with_disk_cache(runs::suite_params(), &dir).map(|mut c| {
                c.set_fragments(FRAGMENT_CYCLES);
                c
            });
            let secs = t0.elapsed().as_secs_f64();
            ledger.op(campaign
                .map(drop)
                .map_err(|e| format!("opening a fresh cache: {e}")));
            let _ = std::fs::remove_dir_all(&dir);
            secs
        })
    }

    fn plain(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> (f64, f64) {
        let pass = self.pass(ctx, ledger, false);
        (pass.wall, pass.cycles())
    }

    fn fragmented(&mut self, ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        self.pass(ctx, ledger, true).wall
    }

    fn compare(&mut self, ledger: &mut Ledger) {
        if let [Some(plain), Some(frag)] = std::mem::take(&mut self.digests) {
            ledger.expect_eq("cold pass with --fragments", frag, plain);
        }
    }
}

/// `single-run`: the eight runs one after another; the fragmented side
/// runs them through a campaign with `--fragments`, as `compare
/// --fragments` does.
struct SingleRun {
    runs: Vec<(&'static str, PolicyKind, Vec<ThreadSpec>)>,
    pin: bool,
    digests: [Vec<u64>; 2],
}

const SINGLE_POLICIES: [PolicyKind; 2] = [PolicyKind::DWarn, PolicyKind::Icount];

impl SingleRun {
    fn setup(ctx: &Ctx, _ledger: &mut Ledger) -> Box<dyn Body> {
        let mut runs = Vec::new();
        for (shape, threads, class) in SHAPES {
            for kind in SINGLE_POLICIES {
                runs.push((shape, kind, runs::seeded_specs(threads, class, ctx.seed)));
            }
        }
        let body = SingleRun {
            runs,
            pin: runs::is_default_seed(ctx.seed),
            digests: [Vec::new(), Vec::new()],
        };
        Box::new(body)
    }
}

impl Body for SingleRun {
    /// `Simulator::new` for all eight runs.
    fn setup_sample(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        let mut total = 0.0;
        for (shape, kind, specs) in &self.runs {
            match runs::build_only(*kind, specs) {
                Ok(s) => total += s,
                Err(e) => ledger.op(Err(format!("building {shape} {}: {e}", kind.name()))),
            }
        }
        total
    }

    fn plain(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> (f64, f64) {
        let mut wall = 0.0;
        for (shape, kind, specs) in &self.runs {
            let what = format!("{shape} {}", kind.name());
            match runs::run_static(*kind, specs, Mode::Plain { skip: true }, &what) {
                Ok(t) => {
                    wall += t.run_s;
                    self.digests[0].push(t.digest);
                    match pinned::single_run(shape, kind.name()).filter(|_| self.pin) {
                        Some(expected) => ledger.expect_eq(&what, t.digest, expected),
                        None => ledger.op(Ok(())),
                    }
                }
                Err(e) => ledger.op(Err(e)),
            }
        }
        (wall, (self.runs.len() as u64 * RUN_CYCLES) as f64)
    }

    fn fragmented(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        let mut campaign = Campaign::new(ExpParams {
            warmup: WARMUP,
            measure: MEASURE,
        });
        campaign.set_fragments(FRAGMENT_CYCLES);
        let cfg = SimConfig::baseline();
        let mut wall = 0.0;
        for (shape, kind, specs) in &self.runs {
            let t0 = Instant::now();
            let r = spans::span("experiments", "Campaign::try_run_custom", || {
                campaign.try_run_custom(&cfg, specs, &kind.cache_desc(), || kind.build())
            });
            wall += t0.elapsed().as_secs_f64();
            match r {
                Ok(r) => {
                    self.digests[1].push(r.digest());
                    ledger.op(Ok(()));
                }
                Err(e) => ledger.op(Err(format!(
                    "{shape} {} with --fragments: {e}",
                    kind.name()
                ))),
            }
        }
        wall
    }

    fn compare(&mut self, ledger: &mut Ledger) {
        let [plain, frag] = std::mem::take(&mut self.digests);
        if plain.len() != frag.len() {
            return; // a failed run, already counted
        }
        for ((shape, kind, _), (p, f)) in self.runs.iter().zip(plain.into_iter().zip(frag)) {
            ledger.expect_eq(&format!("{shape} {} with --fragments", kind.name()), f, p);
        }
    }
}

/// `observed-run`: the 2-MEM DWarn run with the interval probe and the
/// sanitizer, sequentially and via fragment replay at `jobs` workers.
struct Observed {
    specs: Vec<ThreadSpec>,
    pin: bool,
    jobs: usize,
    runs: [Option<ObservedRun>; 2],
}

/// The observed-run shape.
pub const OBSERVED_SHAPE: (usize, WorkloadClass) = (2, WorkloadClass::Mem);

impl Observed {
    fn setup(ctx: &Ctx, _ledger: &mut Ledger) -> Box<dyn Body> {
        let specs = runs::seeded_specs(OBSERVED_SHAPE.0, OBSERVED_SHAPE.1, ctx.seed);
        let body = Observed {
            specs,
            pin: runs::is_default_seed(ctx.seed),
            jobs: ctx.jobs,
            runs: [None, None],
        };
        Box::new(body)
    }
}

impl Body for Observed {
    /// The observed simulator's construction.
    fn setup_sample(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        batch_mean(4, || {
            runs::observed_build(&self.specs).unwrap_or_else(|e| {
                ledger.op(Err(format!("building the observed run: {e}")));
                f64::NAN
            })
        })
    }

    fn plain(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> (f64, f64) {
        match runs::observed_seq(&self.specs) {
            Ok(r) => {
                let got = (r.digest, r.series_digest);
                ledger.op(if !self.pin || got == pinned::OBSERVED {
                    Ok(())
                } else {
                    Err(format!(
                        "observed run: digests ({:#018x}, {:#018x}), expected ({:#018x}, {:#018x})",
                        got.0,
                        got.1,
                        pinned::OBSERVED.0,
                        pinned::OBSERVED.1
                    ))
                });
                let wall = r.wall;
                self.runs[0] = Some(r);
                (wall, RUN_CYCLES as f64)
            }
            Err(e) => {
                ledger.op(Err(e));
                (f64::NAN, RUN_CYCLES as f64)
            }
        }
    }

    fn fragmented(&mut self, _ctx: &Ctx, ledger: &mut Ledger) -> f64 {
        match runs::observed_frag(&self.specs, self.jobs) {
            Ok(r) => {
                ledger.op(Ok(()));
                let wall = r.wall;
                self.runs[1] = Some(r);
                wall
            }
            Err(e) => {
                ledger.op(Err(e));
                f64::NAN
            }
        }
    }

    fn compare(&mut self, ledger: &mut Ledger) {
        if let [Some(seq), Some(frag)] = std::mem::take(&mut self.runs) {
            ledger.expect_eq("observed run, fragmented result", frag.digest, seq.digest);
            ledger.expect_eq(
                "observed run, fragmented interval series",
                frag.series_digest,
                seq.series_digest,
            );
        }
    }
}
