//! The per-layer battery of the traced run. Each row times calls into one
//! layer's public API from outside, inside spans; ratios come from
//! interleaved pairs. The same battery runs under every workload, so every
//! traced run reports every per-layer metric.

use std::time::{Duration, Instant};

use dwarn_core::{DWarn, PolicyKind};
use smt_experiments::{Arch, Campaign, DiskCache, RunKey};
use smt_pipeline::{MachineSnapshot, SimConfig, Simulator};
use smt_trace::{OpClass, ThreadTrace};
use smt_uarch::MemHierarchy;
use smt_workloads::{workload, WorkloadClass, TRACE_SEED};

use crate::ledger::Ledger;
use crate::pinned;
use crate::runs::{self, Mode, Timed, RUN_CYCLES, SHAPES, WARMUP};
use crate::spans::span;
use crate::stats::{pair_order, paired, Side, Summary};
use crate::workloads::{judge_pass, Ctx, OBSERVED_SHAPE};

/// Interleaved pairs per ratio.
const PAIRS: usize = 5;
/// Repetitions of each directly timed quantity.
const REPEATS: usize = 3;
/// Repetitions of the microsecond-scale calls (snapshot, cache entry).
const MICRO_REPEATS: usize = 21;
/// Instructions drawn per trace-layer repetition.
const TRACE_INSTS: usize = 400_000;

/// The policies timed on 4-MIX: every `PolicyKind`.
pub fn policies() -> Vec<PolicyKind> {
    let mut v = PolicyKind::paper_set().to_vec();
    v.extend([PolicyKind::DWarnPriorityOnly, PolicyKind::DcPred]);
    v.extend(PolicyKind::meta_set());
    v
}

fn policy_label(k: PolicyKind) -> String {
    k.name().to_ascii_lowercase()
}

/// Every per-layer metric a traced run reports: `(name, unit, better)`.
pub fn per_layer_metrics() -> Vec<(String, &'static str, &'static str)> {
    let mut m: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: String, unit, better| m.push((name, unit, better));
    for (shape, ..) in SHAPES {
        add(format!("pipeline.ns_per_cycle.{shape}"), "ns", "lower");
    }
    add("pipeline.setup_ms".into(), "ms", "lower");
    for (prefix, unit, better) in [
        ("pipeline.skip_frac", "frac", "higher"),
        ("pipeline.noskip_ratio", "ratio", "higher"),
        ("pipeline.dyn_dispatch_ratio", "ratio", "higher"),
        ("pipeline.sanitizer_ratio", "ratio", "lower"),
        ("obs.interval_ratio", "ratio", "lower"),
    ] {
        for (shape, ..) in SHAPES {
            add(format!("{prefix}.{shape}"), unit, better);
        }
    }
    for (name, unit, better) in [
        ("pipeline.snapshot_us", "us", "lower"),
        ("pipeline.restore_us", "us", "lower"),
        ("pipeline.snapshot_bytes", "bytes", "lower"),
        ("pipeline.snapshot_encode_us", "us", "lower"),
        ("pipeline.snapshot_decode_us", "us", "lower"),
        ("pipeline.fragment_speedup", "ratio", "higher"),
        ("pipeline.fragments", "count", "lower"),
        ("obs.stitch_us", "us", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    for k in policies() {
        add(
            format!("core.ns_per_cycle.{}", policy_label(k)),
            "ns",
            "lower",
        );
    }
    for (name, unit, better) in [
        ("trace.ns_per_inst.ilp", "ns", "lower"),
        ("trace.ns_per_inst.mem", "ns", "lower"),
        ("uarch.load_ns", "ns", "lower"),
        ("uarch.ifetch_ns", "ns", "lower"),
        ("uarch.l1d_miss_frac", "frac", "lower"),
        ("uarch.l2_miss_frac", "frac", "lower"),
        ("experiments.cache_load_us", "us", "lower"),
        ("experiments.cache_store_us", "us", "lower"),
        ("experiments.cache_entry_bytes", "bytes", "lower"),
    ] {
        add(name.into(), unit, better);
    }
    for (exp, _) in runs::all_grid() {
        add(format!("experiments.exp_s.{exp}.cold"), "s", "lower");
        add(format!("experiments.exp_s.{exp}.warm"), "s", "lower");
    }
    add("experiments.fixed_frac.cold".into(), "frac", "lower");
    add("experiments.cpu_util".into(), "frac", "higher");
    add("experiments.sim_runs.cold".into(), "count", "lower");
    add("experiments.hit_frac.warm".into(), "frac", "higher");
    add("bench.trace_overhead_ratio".into(), "ratio", "lower");
    m
}

fn unit_of(name: &str) -> &'static str {
    per_layer_metrics()
        .into_iter()
        .find(|(n, ..)| n == name)
        .map_or("count", |(_, u, _)| u)
}

fn row(ledger: &mut Ledger, name: String, values: &[f64]) {
    if !values.is_empty() {
        let unit = unit_of(&name);
        ledger.row(name, unit, Summary::of(values));
    }
}

/// Records the digests of the two sides of a pair and checks they agree
/// once both are in.
struct PairCheck<T> {
    what: String,
    seen: [Option<T>; 2],
}

impl<T: PartialEq + std::fmt::Debug> PairCheck<T> {
    fn new(what: String) -> Self {
        PairCheck {
            what,
            seen: [None, None],
        }
    }

    fn see(&mut self, side: Side, value: T, ledger: &mut Ledger) {
        self.seen[usize::from(side == Side::B)] = Some(value);
        if let [Some(a), Some(b)] = std::mem::take(&mut self.seen) {
            ledger.op(if a == b {
                Ok(())
            } else {
                Err(format!("{}: {b:x?} differs from {a:x?}", self.what))
            });
        }
    }
}

/// Run the whole battery.
pub fn battery(ctx: &Ctx, ledger: &mut Ledger) {
    let t0 = Instant::now();
    cycle_loop(ctx, ledger);
    ratios(ctx, ledger);
    snapshots(ctx, ledger);
    fragments(ctx, ledger);
    policy_loop(ctx, ledger);
    trace_layer(ctx, ledger);
    uarch_layer(ctx, ledger);
    cache_layer(ctx, ledger);
    suite_layer(ctx, ledger);
    eprintln!("per-layer battery: {:.1} s", t0.elapsed().as_secs_f64());
}

/// Run `f` and count it as one operation; `None` on failure.
fn attempt<T>(ledger: &mut Ledger, r: Result<T, String>) -> Option<T> {
    match r {
        Ok(v) => {
            ledger.op(Ok(()));
            Some(v)
        }
        Err(e) => {
            ledger.op(Err(e));
            None
        }
    }
}

/// The bare cycle loop per shape (DWarn, Null observers, static dispatch),
/// the construction cost, and the share of cycles quiescence skipping takes.
fn cycle_loop(ctx: &Ctx, ledger: &mut Ledger) {
    let mut setup_ms = Vec::new();
    for (shape, threads, class) in SHAPES {
        let specs = runs::seeded_specs(threads, class, ctx.seed);
        let (mut ns, mut skip) = (Vec::new(), Vec::new());
        let what = format!("{shape} DWARN");
        let pin = pinned::single_run(shape, "DWARN").filter(|_| runs::is_default_seed(ctx.seed));
        for _ in 0..REPEATS {
            let r = runs::run_static(PolicyKind::DWarn, &specs, Mode::Plain { skip: true }, &what);
            let Some(t) = attempt(ledger, r) else {
                continue;
            };
            if let Some(expected) = pin {
                ledger.expect_eq(&what, t.digest, expected);
            }
            setup_ms.push(t.build_s * 1e3);
            ns.push(t.run_s * 1e9 / RUN_CYCLES as f64);
            skip.push(t.skipped as f64 / RUN_CYCLES as f64);
        }
        row(ledger, format!("pipeline.ns_per_cycle.{shape}"), &ns);
        row(ledger, format!("pipeline.skip_frac.{shape}"), &skip);
    }
    row(ledger, "pipeline.setup_ms".into(), &setup_ms);
}

/// What each side of a pair costs, as a paired ratio `B / A` per shape.
fn ratios(ctx: &Ctx, ledger: &mut Ledger) {
    type Run = fn(&[smt_pipeline::ThreadSpec], &str) -> Result<Timed, String>;
    let plain: Run = |s, w| runs::run_static(PolicyKind::DWarn, s, Mode::Plain { skip: true }, w);
    let kinds: [(&str, Run); 4] = [
        ("pipeline.noskip_ratio", |s, w| {
            runs::run_static(PolicyKind::DWarn, s, Mode::Plain { skip: false }, w)
        }),
        ("pipeline.dyn_dispatch_ratio", |s, w| {
            runs::run_with(PolicyKind::DWarn.build(), s, Mode::Plain { skip: true }, w)
        }),
        ("pipeline.sanitizer_ratio", |s, w| {
            runs::run_static(PolicyKind::DWarn, s, Mode::Sanitized, w)
        }),
        ("obs.interval_ratio", |s, w| {
            runs::run_static(PolicyKind::DWarn, s, Mode::Interval, w)
        }),
    ];
    for (shape, threads, class) in SHAPES {
        let specs = runs::seeded_specs(threads, class, ctx.seed);
        for (name, other) in kinds {
            let what = format!("{name}.{shape}");
            let mut check = PairCheck::new(format!("{what}: digest of B vs A"));
            let p = paired(PAIRS, Duration::ZERO, |side| {
                let f = if side == Side::A { plain } else { other };
                match attempt(ledger, f(&specs, &what)) {
                    Some(t) => {
                        check.see(side, t.digest, ledger);
                        t.run_s
                    }
                    None => f64::NAN,
                }
            });
            ledger.row(what, "ratio", p);
        }
    }
}

/// Snapshot capture, restore, encode and decode of the observed-run
/// machine after its warm-up.
fn snapshots(ctx: &Ctx, ledger: &mut Ledger) {
    let specs = runs::seeded_specs(OBSERVED_SHAPE.0, OBSERVED_SHAPE.1, ctx.seed);
    let cfg = SimConfig::baseline();
    let built = Simulator::try_new(cfg.clone(), DWarn::new(), &specs)
        .and_then(|a| Simulator::try_new(cfg, DWarn::new(), &specs).map(|b| (a, b)))
        .map_err(|e| e.to_string());
    let Some((mut sim, mut target)) = attempt(ledger, built) else {
        return;
    };
    let warmed = sim.try_run(WARMUP, 0, &smt_pipeline::Watchdog::default());
    if attempt(ledger, warmed.map_err(|e| e.to_string())).is_none() {
        return;
    }
    let (mut snap_us, mut restore_us, mut enc_us, mut dec_us) = (vec![], vec![], vec![], vec![]);
    let mut bytes = Vec::new();
    let mut snap = None;
    for _ in 0..MICRO_REPEATS {
        let t = Instant::now();
        let s = span("pipeline", "Simulator::snapshot", || sim.snapshot());
        snap_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        bytes = span("pipeline", "MachineSnapshot::to_bytes", || s.to_bytes());
        enc_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let decoded = span("pipeline", "MachineSnapshot::from_bytes", || {
            MachineSnapshot::from_bytes(&bytes)
        });
        dec_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let restored = span("pipeline", "Simulator::restore", || target.restore(&s));
        restore_us.push(t.elapsed().as_secs_f64() * 1e6);
        let round_trip = match (decoded, restored) {
            (Ok(d), Ok(()))
                if d.digest() == s.digest() && target.snapshot().digest() == s.digest() =>
            {
                Ok(())
            }
            (Ok(_), Ok(())) => Err("snapshot round trip changed the machine state".to_string()),
            (Err(e), _) => Err(format!("snapshot decode: {e}")),
            (_, Err(e)) => Err(format!("snapshot restore: {e}")),
        };
        ledger.op(round_trip);
        snap = Some(s);
    }
    std::hint::black_box(snap);
    row(ledger, "pipeline.snapshot_us".into(), &snap_us);
    row(ledger, "pipeline.restore_us".into(), &restore_us);
    row(ledger, "pipeline.snapshot_encode_us".into(), &enc_us);
    row(ledger, "pipeline.snapshot_decode_us".into(), &dec_us);
    row(
        ledger,
        "pipeline.snapshot_bytes".into(),
        &[bytes.len() as f64],
    );
}

/// Fragment replay of the observed run against the sequential run, as a
/// paired speedup, with the stitch cost.
fn fragments(ctx: &Ctx, ledger: &mut Ledger) {
    let specs = runs::seeded_specs(OBSERVED_SHAPE.0, OBSERVED_SHAPE.1, ctx.seed);
    let mut check = PairCheck::new("fragmented vs sequential observed run".into());
    let (mut stitch_us, mut count) = (Vec::new(), Vec::new());
    let p = paired(REPEATS, Duration::ZERO, |side| {
        let r = match side {
            Side::A => runs::observed_frag(&specs, ctx.jobs),
            Side::B => runs::observed_seq(&specs),
        };
        match attempt(ledger, r) {
            Some(r) => {
                if side == Side::A {
                    stitch_us.push(r.stitch_s * 1e6);
                    count.push(r.fragments as f64);
                }
                check.see(side, (r.digest, r.series_digest), ledger);
                r.wall
            }
            None => f64::NAN,
        }
    });
    ledger.row("pipeline.fragment_speedup", "ratio", p);
    row(ledger, "pipeline.fragments".into(), &count);
    row(ledger, "obs.stitch_us".into(), &stitch_us);
}

/// The cycle loop under every policy on 4-MIX.
fn policy_loop(ctx: &Ctx, ledger: &mut Ledger) {
    let specs = runs::seeded_specs(4, WorkloadClass::Mix, ctx.seed);
    for kind in policies() {
        let what = format!("4-mix {}", kind.name());
        let mut ns = Vec::new();
        let mut digests = Vec::new();
        for _ in 0..REPEATS {
            let r = runs::run_static(kind, &specs, Mode::Plain { skip: true }, &what);
            if let Some(t) = attempt(ledger, r) {
                ns.push(t.run_s * 1e9 / RUN_CYCLES as f64);
                digests.push(t.digest);
            }
        }
        if let Some(&first) = digests.first() {
            for &d in &digests[1..] {
                ledger.expect_eq(&format!("{what} rerun"), d, first);
            }
        }
        row(
            ledger,
            format!("core.ns_per_cycle.{}", policy_label(kind)),
            &ns,
        );
    }
}

/// Instruction synthesis: `ThreadTrace::next_inst` for an ILP and a MEM
/// benchmark.
fn trace_layer(ctx: &Ctx, ledger: &mut Ledger) {
    for (label, bench) in [("ilp", "gzip"), ("mem", "mcf")] {
        let Some(profile) = smt_trace::by_name(bench) else {
            ledger.op(Err(format!("unknown benchmark {bench}")));
            continue;
        };
        let mut ns = Vec::new();
        let mut sums = Vec::new();
        for _ in 0..REPEATS {
            let mut tr = ThreadTrace::new(
                &profile,
                TRACE_SEED,
                Simulator::thread_addr_base(0),
                runs::stream_offset(ctx.seed),
            );
            let t = Instant::now();
            let sum = span("trace", "ThreadTrace::next_inst", || {
                (0..TRACE_INSTS).fold(0u64, |acc, _| acc.wrapping_add(tr.next_inst().pc))
            });
            ns.push(t.elapsed().as_secs_f64() * 1e9 / TRACE_INSTS as f64);
            sums.push(std::hint::black_box(sum));
        }
        ledger.op(if sums.windows(2).all(|w| w[0] == w[1]) {
            Ok(())
        } else {
            Err(format!("{bench} trace differs between identical draws"))
        });
        row(ledger, format!("trace.ns_per_inst.{label}"), &ns);
    }
}

/// A one-thread hierarchy of the baseline machine, prewarmed the way the
/// simulator prewarms it for `tr`.
fn prewarmed(tr: &ThreadTrace, profile: &smt_trace::BenchProfile) -> MemHierarchy {
    let cfg = SimConfig::baseline();
    let mut h = MemHierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.tlb, cfg.timing, 1);
    let base = tr.code_base();
    let (hs, hb) = smt_trace::stream::hot_region(base);
    h.prewarm_l1d(hs, hb);
    h.prewarm_l2(base, tr.program().code_bytes());
    h.prewarm_dtlb(0, hs, hb);
    for line in smt_trace::stream::warm_lines(base, profile) {
        h.prewarm_l2(line, 1);
        h.prewarm_dtlb(0, line, 1);
    }
    h
}

/// Cycles between two timed loads. The hierarchy models one memory
/// channel (16 cycles per line) and keeps in-flight misses in a table it
/// sweeps once it holds more than 64 entries; at one load per cycle mcf's
/// misses would saturate the channel and grow the table without bound,
/// a regime the pipeline's per-cycle load limits never reach.
const LOAD_SPACING: u64 = 8;

/// The cache hierarchy on mcf's own address stream: data loads (one every
/// [`LOAD_SPACING`] cycles) and instruction fetches (one per cycle).
fn uarch_layer(ctx: &Ctx, ledger: &mut Ledger) {
    let Some(profile) = smt_trace::by_name("mcf") else {
        ledger.op(Err("unknown benchmark mcf".into()));
        return;
    };
    let mut tr = ThreadTrace::new(
        &profile,
        TRACE_SEED,
        Simulator::thread_addr_base(0),
        runs::stream_offset(ctx.seed),
    );
    let (mut loads, mut pcs) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_INSTS {
        let inst = tr.next_inst();
        pcs.push(inst.pc);
        if let (Some(addr), true) = (inst.mem_addr, inst.class == OpClass::Load) {
            loads.push(addr);
        }
    }
    let (mut load_ns, mut ifetch_ns, mut misses) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let mut h = prewarmed(&tr, &profile);
        let t = Instant::now();
        let (l1, l2) = span("uarch", "MemHierarchy::load", || {
            loads
                .iter()
                .enumerate()
                .fold((0u64, 0u64), |(l1, l2), (i, &a)| {
                    let m = h.load(0, a, i as u64 * LOAD_SPACING, false);
                    (l1 + u64::from(m.l1_miss), l2 + u64::from(m.l2_miss))
                })
        });
        load_ns.push(t.elapsed().as_secs_f64() * 1e9 / loads.len().max(1) as f64);
        let mut h = prewarmed(&tr, &profile);
        let t = Instant::now();
        let imiss = span("uarch", "MemHierarchy::ifetch", || {
            pcs.iter().enumerate().fold(0u64, |n, (i, &pc)| {
                n + u64::from(h.ifetch(pc, i as u64).miss)
            })
        });
        ifetch_ns.push(t.elapsed().as_secs_f64() * 1e9 / pcs.len() as f64);
        misses.push((l1, l2, imiss));
    }
    ledger.op(
        if misses.windows(2).all(|w| w[0] == w[1]) && !loads.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "hierarchy miss counts differ between identical streams: {misses:?}"
            ))
        },
    );
    let (l1, l2, _) = misses[0];
    let n = loads.len().max(1) as f64;
    row(ledger, "uarch.load_ns".into(), &load_ns);
    row(ledger, "uarch.ifetch_ns".into(), &ifetch_ns);
    row(ledger, "uarch.l1d_miss_frac".into(), &[l1 as f64 / n]);
    row(ledger, "uarch.l2_miss_frac".into(), &[l2 as f64 / n]);
}

/// `DiskCache` store and load of one real result.
fn cache_layer(ctx: &Ctx, ledger: &mut Ledger) {
    let dir = ctx.work.join("cache-layer");
    let _ = std::fs::remove_dir_all(&dir);
    let params = runs::suite_params();
    let wl = workload(4, WorkloadClass::Mix);
    let key = RunKey::workload(Arch::Baseline, &wl, PolicyKind::DWarn);
    let prepared = DiskCache::open(&dir)
        .map_err(|e| e.to_string())
        .and_then(|cache| {
            let desc = Campaign::new(params)
                .describe(&key)
                .map_err(|e| e.to_string())?;
            let mut sim =
                Simulator::try_new(SimConfig::baseline(), DWarn::new(), &wl.thread_specs())
                    .map_err(|e| e.to_string())?;
            let result = sim
                .try_run(
                    params.warmup,
                    params.measure,
                    &smt_pipeline::Watchdog::default(),
                )
                .map_err(|e| e.to_string())?;
            Ok((cache, desc, result))
        });
    let Some((cache, desc, result)) = attempt(ledger, prepared) else {
        return;
    };
    let keys: Vec<String> = (0..MICRO_REPEATS).map(|i| format!("{desc}#{i}")).collect();
    let (mut store_us, mut load_us) = (Vec::new(), Vec::new());
    for k in &keys {
        let t = Instant::now();
        let stored = span("experiments", "DiskCache::store", || {
            cache.store(k, &result)
        });
        store_us.push(t.elapsed().as_secs_f64() * 1e6);
        ledger.op(stored.map_err(|e| format!("cache store: {e}")));
    }
    for k in &keys {
        let t = Instant::now();
        let loaded = span("experiments", "DiskCache::load", || cache.load(k));
        load_us.push(t.elapsed().as_secs_f64() * 1e6);
        ledger.op(match loaded {
            Some(r) if r.digest() == result.digest() => Ok(()),
            Some(_) => Err("cache load returned a different result".into()),
            None => Err("cache load missed a stored entry".into()),
        });
    }
    let bytes = std::fs::metadata(cache.entry_path(&keys[0])).map_or(0, |m| m.len());
    row(ledger, "experiments.cache_store_us".into(), &store_us);
    row(ledger, "experiments.cache_load_us".into(), &load_us);
    row(
        ledger,
        "experiments.cache_entry_bytes".into(),
        &[bytes as f64],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Cold passes of the `all` grid, each on a fresh cache, then warm passes
/// against the last one, timed per experiment. Each cold pass is paired
/// with a cold pass at [`runs::fixed_params`], which gives the share of a
/// cold pass that does not scale with the windows ([`runs::fixed_share`]).
fn suite_layer(ctx: &Ctx, ledger: &mut Ledger) {
    const COLD_PASSES: usize = 3;
    const WARM_PASSES: usize = 21;
    let dir = ctx.work.join("suite-layer");
    let fixed_dir = ctx.work.join("suite-layer-fixed");
    let mut passes = Vec::new();
    let mut fixed_share = Vec::new();
    for i in 0..COLD_PASSES {
        let (mut cold, mut fixed) = (f64::NAN, f64::NAN);
        for side in pair_order(i) {
            match side {
                Side::A => {
                    let _ = std::fs::remove_dir_all(&dir);
                    let pass = runs::suite_pass(&dir, false);
                    ledger.op(judge_pass("cold pass", &pass, false));
                    cold = pass.wall;
                    passes.push(("cold", pass));
                }
                Side::B => {
                    let _ = std::fs::remove_dir_all(&fixed_dir);
                    let pass = runs::suite_pass_with(runs::fixed_params(), &fixed_dir, false);
                    ledger.op(match pass.errors.first() {
                        Some(e) => Err(format!("fixed-cost pass: {e}")),
                        None if pass.counters.1 == 0 => {
                            Err("fixed-cost pass simulated nothing".into())
                        }
                        None => Ok(()),
                    });
                    fixed = pass.wall;
                }
            }
        }
        fixed_share.push(runs::fixed_share(cold, fixed));
    }
    let _ = std::fs::remove_dir_all(&fixed_dir);
    for _ in 0..WARM_PASSES {
        let pass = runs::suite_pass(&dir, false);
        ledger.op(judge_pass("warm pass", &pass, true));
        passes.push(("warm", pass));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let of = |tag: &'static str| {
        passes
            .iter()
            .filter(move |(t, _)| *t == tag)
            .map(|(_, p)| p)
    };
    for tag in ["cold", "warm"] {
        for (i, (exp, _)) in runs::all_grid().enumerate() {
            let secs: Vec<f64> = of(tag)
                .filter_map(|p| p.per_exp.get(i).map(|e| e.1))
                .collect();
            row(ledger, format!("experiments.exp_s.{exp}.{tag}"), &secs);
        }
    }
    let util: Vec<f64> = of("cold")
        .map(|p| p.cpu / (p.wall * ctx.jobs as f64))
        .collect();
    let sims: Vec<f64> = of("cold").map(|p| p.counters.1 as f64).collect();
    let hit_frac: Vec<f64> = of("warm")
        .map(|p| p.counters.0 as f64 / (p.counters.0 + p.counters.1).max(1) as f64)
        .collect();
    for (tag, p) in passes.iter().take(COLD_PASSES + 1).skip(COLD_PASSES - 1) {
        eprintln!(
            "cache counters, {tag} pass (hits, sims, coalesced): {:?}",
            p.counters
        );
    }
    row(ledger, "experiments.fixed_frac.cold".into(), &fixed_share);
    row(ledger, "experiments.cpu_util".into(), &util);
    row(ledger, "experiments.sim_runs.cold".into(), &sims);
    row(ledger, "experiments.hit_frac.warm".into(), &hit_frac);
}
