//! Observability from the library: attach a [`RecordingProbe`] to a
//! simulation, inspect its counters and histograms, and export the capture
//! as a Chrome trace-event file you can open in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing` — the gated stretches
//! of each thread show up as named slices, dcache misses as async spans.
//!
//! ```text
//! cargo run --release --example trace_capture
//! ```

use dwarn_smt::core::PolicyKind;
use dwarn_smt::obs::{chrome_trace, GateReason, RecordingProbe};
use dwarn_smt::pipeline::{SimConfig, Simulator};
use dwarn_smt::workloads::{workload, WorkloadClass};

fn main() {
    let wl = workload(4, WorkloadClass::Mix);
    let specs = wl.thread_specs();

    // Same constructor shape as Simulator::try_new, plus the probe.
    // NullProbe (what `try_new` uses) compiles to nothing; RecordingProbe
    // records counters, histograms, an event ring and — sampling every 50
    // cycles from the end of the 2 000-cycle warmup — occupancy samples.
    let probe = RecordingProbe::new(specs.len(), 1 << 20).with_sampling(50, 2_000);
    let mut sim = Simulator::try_with_probe(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &specs,
        probe,
    )
    .expect("baseline configuration is valid");
    let result = sim.run(2_000, 20_000);
    let probe = sim.into_probe();

    println!(
        "{} under DWarn: throughput {:.2} IPC\n",
        wl.name,
        result.throughput()
    );
    for (t, bench) in wl.benchmarks.iter().enumerate() {
        let c = probe.thread(t);
        let gate_h = probe.gate_duration(t);
        let miss_h = probe.l1_latency(t);
        println!(
            "t{t} {bench:<7} committed {:>6}  L1 misses {:>5} (mean latency {:>5.1} cy)  \
             gated {:>3}x (mean {:>5.1} cy, {} by policy)",
            c.committed,
            c.l1_miss_begins,
            miss_h.mean(),
            c.gates,
            gate_h.mean(),
            c.gates_by_reason[GateReason::Policy.index()],
        );
    }
    println!(
        "\nevent ring: {} events captured, {} dropped; {} occupancy samples",
        probe.ring().len(),
        probe.ring().dropped(),
        probe.samples().len()
    );

    let names: Vec<String> = wl.benchmarks.iter().map(|b| b.to_string()).collect();
    let trace = chrome_trace(probe.ring(), probe.samples(), &names);
    let path = "target/trace_capture.trace.json";
    std::fs::write(path, trace).expect("write trace");
    println!("wrote {path} — open it at https://ui.perfetto.dev");
}
