//! Resource-occupancy analysis: the paper's §2 argument, made visible.
//!
//! "The actual problems are the issue queues and the physical registers,
//! because they are used for a variable, long period." This example samples
//! both while each fetch policy runs the 4-MIX workload and shows how much
//! of the shared machine the MEM threads freeze under each policy — the
//! mechanism behind every number in Figures 1–5.
//!
//! ```text
//! cargo run --release --example occupancy
//! ```

use dwarn_smt::core::PolicyKind;
use dwarn_smt::metrics::table::TextTable;
use dwarn_smt::obs::RecordingProbe;
use dwarn_smt::pipeline::{SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

fn main() {
    let wl = workload(4, WorkloadClass::Mix);
    println!("workload {}: {}\n", wl.name, wl.benchmarks.join(", "));

    let mut t = TextTable::new(vec![
        "policy",
        "tput",
        "IQ int avg/32",
        "IQ ldst avg/32",
        "int regs avg",
        "mcf ROB avg",
        "mcf IQ avg",
    ]);
    for kind in PolicyKind::paper_set() {
        let specs = wl.thread_specs();
        // Only the occupancy samples are read: a one-event ring suffices.
        let probe = RecordingProbe::new(specs.len(), 1).with_sampling(16, 20_000);
        let mut sim = Simulator::try_with_probe(SimConfig::baseline(), kind.build(), &specs, probe)
            .expect("baseline configuration is valid");
        let r = sim.run(20_000, 60_000);
        let occ = sim.into_probe().occupancy();
        t.row(vec![
            kind.name().to_string(),
            format!("{:.2}", r.throughput()),
            format!("{:.1}", occ.avg_iq[0]),
            format!("{:.1}", occ.avg_iq[2]),
            format!("{:.0}", occ.avg_regs.0),
            format!("{:.1}", occ.avg_rob[3]),
            format!("{:.1}", occ.avg_iq_per_thread[3]),
        ]);
    }
    println!("{}", t.render());
    println!("mcf (thread 3) is the long-latency offender:");
    println!(" - under ICOUNT its dependents sit in the issue queues for 100+ cycles;");
    println!(" - DG/PDG keep the queues clean but starve it;");
    println!(" - DWarn holds its issue-queue share down without ever gating it.");
}
