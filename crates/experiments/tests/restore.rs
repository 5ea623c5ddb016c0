//! Golden restore-equivalence suite.
//!
//! The checkpoint/restore engine promises that interrupting a run at cycle
//! k, serializing the machine, restoring it into a *fresh* simulator, and
//! running to completion is **bit-identical** to never having stopped.
//! `SimResult::digest()` condenses a run to one content-exact value, so
//! every promise here is one `assert_eq!` — over every paper policy and
//! every meta-policy, each workload class, with and without the
//! quiescence-skipping engine, plus a sanitizer-audited restored run.

use std::cell::Cell;

use dwarn_core::PolicyKind;
use smt_pipeline::{
    CheckpointOpts, MachineSnapshot, RecordingSanitizer, RunOutcome, SimConfig, Simulator,
    ThreadSpec, Watchdog,
};
use smt_workloads::{workload, WorkloadClass};

const WARMUP: u64 = 400;
const MEASURE: u64 = 1_200;

/// Emit the first periodic checkpoint early enough that a meaningful tail
/// of both phases still runs after the restore.
const CAPTURE_INTERVAL: u64 = 300;

fn classes() -> [WorkloadClass; 3] {
    [WorkloadClass::Ilp, WorkloadClass::Mix, WorkloadClass::Mem]
}

/// Every policy the suite pins: the paper's six plus the three switching
/// meta-policies.
fn policies() -> Vec<PolicyKind> {
    let mut all = PolicyKind::paper_set().to_vec();
    all.extend(PolicyKind::meta_set());
    all
}

/// The straight run: no checkpointing at all.
fn straight_digest(kind: PolicyKind, specs: &[ThreadSpec], skip: bool) -> u64 {
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    sim.run(WARMUP, MEASURE).digest()
}

/// Run until the first periodic checkpoint fires, then stop with a
/// resumable snapshot — the "crash at cycle k" half of the equivalence.
fn interrupt_at_k(kind: PolicyKind, specs: &[ThreadSpec], skip: bool) -> MachineSnapshot {
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    let seen = Cell::new(false);
    let mut sink = |_: &MachineSnapshot| seen.set(true);
    let stop = || seen.get();
    let mut opts = CheckpointOpts {
        interval: CAPTURE_INTERVAL,
        sink: Some(&mut sink),
        stop: Some(&stop),
    };
    match sim
        .try_run_checkpointed(WARMUP, MEASURE, &Watchdog::default(), &mut opts)
        .expect("capture run must not trip the watchdog")
    {
        RunOutcome::Interrupted(snap) => snap,
        RunOutcome::Completed(_) => panic!("{kind:?}: run completed before the first checkpoint"),
    }
}

/// Restore `snap` into a fresh simulator and run the remainder.
fn resumed_digest(
    kind: PolicyKind,
    specs: &[ThreadSpec],
    skip: bool,
    snap: &MachineSnapshot,
) -> u64 {
    let mut sim = Simulator::new(SimConfig::baseline(), kind.build(), specs);
    sim.set_skip_enabled(skip);
    let pending = sim
        .restore_run(snap)
        .expect("snapshot restores into an identically-configured machine");
    let mut sink = |_: &MachineSnapshot| {};
    let mut opts = CheckpointOpts {
        interval: 0,
        sink: Some(&mut sink),
        stop: None,
    };
    match sim
        .resume_run(pending, &Watchdog::default(), &mut opts)
        .expect("resumed run must not trip the watchdog")
    {
        RunOutcome::Completed(result) => result.digest(),
        RunOutcome::Interrupted(_) => panic!("{kind:?}: resume stopped without a stop request"),
    }
}

/// The full matrix for one skip mode: a straight run must equal
/// snapshot-at-k, restore, run-to-end — for every policy × class; the
/// snapshot also survives its own wire format exactly.
fn assert_matrix(skip: bool) {
    for class in classes() {
        let specs = workload(2, class).thread_specs();
        for kind in policies() {
            let want = straight_digest(kind, &specs, skip);
            let snap = interrupt_at_k(kind, &specs, skip);
            assert!(
                snap.cycle() > 0 && snap.cycle() < WARMUP + MEASURE,
                "{kind:?}/{class:?}: checkpoint at cycle {} is not mid-run",
                snap.cycle()
            );
            let rewired =
                MachineSnapshot::from_bytes(&snap.to_bytes()).expect("wire round-trip parses");
            assert_eq!(rewired, snap, "{kind:?}/{class:?}: wire round-trip drifted");
            let got = resumed_digest(kind, &specs, skip, &snap);
            assert_eq!(
                got, want,
                "{kind:?}/{class:?} skip={skip}: restored run diverged from straight run"
            );
        }
    }
}

#[test]
fn restore_at_k_is_bit_identical_with_skipping() {
    assert_matrix(true);
}

#[test]
fn restore_at_k_is_bit_identical_without_skipping() {
    assert_matrix(false);
}

#[test]
fn restore_is_bit_identical_across_skip_modes() {
    // A checkpoint taken by a skipping run resumes bit-identically under
    // the naive per-cycle engine, and vice versa: the snapshot captures
    // machine state, not engine strategy.
    let specs = workload(2, WorkloadClass::Mem).thread_specs();
    for kind in [PolicyKind::DWarn, PolicyKind::Flush] {
        let want = straight_digest(kind, &specs, true);
        let snap = interrupt_at_k(kind, &specs, true);
        assert_eq!(
            resumed_digest(kind, &specs, false, &snap),
            want,
            "{kind:?}: skip-captured snapshot diverged under no-skip resume"
        );
        let snap = interrupt_at_k(kind, &specs, false);
        assert_eq!(
            resumed_digest(kind, &specs, true, &snap),
            want,
            "{kind:?}: no-skip-captured snapshot diverged under skip resume"
        );
    }
}

#[test]
fn restored_run_is_sanitizer_clean() {
    // Restore into a fully-audited machine: every invariant the sanitizer
    // checks must hold in the reconstructed state, every audited cycle,
    // and the result must still be bit-identical.
    let specs = workload(2, WorkloadClass::Mix).thread_specs();
    for kind in [PolicyKind::Icount, PolicyKind::DWarn] {
        let want = straight_digest(kind, &specs, true);
        let snap = interrupt_at_k(kind, &specs, true);
        let mut sim = Simulator::try_sanitized(
            SimConfig::baseline(),
            kind.build(),
            &specs,
            RecordingSanitizer::new(),
        )
        .expect("baseline config is valid");
        let pending = sim.restore_run(&snap).expect("snapshot restores");
        let mut sink = |_: &MachineSnapshot| {};
        let mut opts = CheckpointOpts {
            interval: 0,
            sink: Some(&mut sink),
            stop: None,
        };
        let got = match sim
            .resume_run(pending, &Watchdog::default(), &mut opts)
            .expect("sanitized resume must not trip the watchdog")
        {
            RunOutcome::Completed(result) => result.digest(),
            RunOutcome::Interrupted(_) => unreachable!("no stop requested"),
        };
        // No trailing force_audit: at the final cycle an event due *now* is
        // legitimately still queued. The periodic audits that ran every
        // audited cycle of the resumed span are the check.
        assert!(
            sim.sanitizer().is_clean(),
            "{kind:?}: restored machine failed the audit:\n{}",
            sim.sanitizer().render_report()
        );
        assert_eq!(got, want, "{kind:?}: sanitized restored run diverged");
    }
}

#[test]
fn solo_run_restores_bit_identically() {
    let specs = vec![ThreadSpec::new(smt_trace::profile::mcf())];
    let kind = PolicyKind::Icount;
    let want = straight_digest(kind, &specs, true);
    let snap = interrupt_at_k(kind, &specs, true);
    assert_eq!(resumed_digest(kind, &specs, true, &snap), want);
}
