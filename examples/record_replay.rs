//! Trace recording and replay: the trace-driven workflow.
//!
//! Records a synthetic mcf trace to a `DWTR` file, loads it back, and runs
//! the replayed trace against a live-generated twin under DWarn — the two
//! simulations agree cycle-for-cycle.
//!
//! ```text
//! cargo run --release --example record_replay
//! ```

use std::io::{BufReader, BufWriter};

use dwarn_smt::core::PolicyKind;
use dwarn_smt::pipeline::{
    NullProbe, NullSanitizer, SimConfig, Simulator, ThreadFront, ThreadSpec,
};
use dwarn_smt::trace::{profile, RecordedTrace};

fn main() -> std::io::Result<()> {
    let p = profile::mcf();
    let seed = 2004;
    let base = Simulator::thread_addr_base(0);

    // 1. Record 300k instructions to disk.
    let rec = RecordedTrace::record(&p, seed, base, 300_000);
    let path = std::env::temp_dir().join("mcf.dwtr");
    rec.write_to(BufWriter::new(std::fs::File::create(&path)?))?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "recorded {} instructions of {} to {} ({:.1} MB, {:.1} B/inst)",
        rec.insts.len(),
        rec.profile_name,
        path.display(),
        bytes as f64 / 1e6,
        bytes as f64 / rec.insts.len() as f64
    );

    // 2. Load it back and simulate.
    let loaded = RecordedTrace::read_from(BufReader::new(std::fs::File::open(&path)?))?;
    let front = ThreadFront::from_recording(&loaded, seed, base);
    let mut replayed = Simulator::try_with_parts(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        vec![front],
        NullProbe,
        NullSanitizer,
    )
    .expect("baseline configuration is valid");
    let rr = replayed.run(10_000, 30_000);

    // 3. The live-generated twin.
    let mut live = Simulator::new(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &[ThreadSpec {
            profile: p,
            seed,
            skip: 0,
        }],
    );
    let rl = live.run(10_000, 30_000);

    println!(
        "replayed: IPC {:.4}, L1D miss {:.1}%, committed {}",
        rr.ipcs()[0],
        100.0 * rr.mem[0].l1_miss_rate(),
        rr.threads[0].committed
    );
    println!(
        "live:     IPC {:.4}, L1D miss {:.1}%, committed {}",
        rl.ipcs()[0],
        100.0 * rl.mem[0].l1_miss_rate(),
        rl.threads[0].committed
    );
    assert_eq!(rr.threads, rl.threads, "replay must match live generation");
    println!("cycle-exact match ✓");
    std::fs::remove_file(&path).ok();
    Ok(())
}
