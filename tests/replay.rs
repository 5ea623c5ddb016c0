//! Record/replay integration: a recorded trace driven through the full
//! simulator behaves like its live-generated twin.

use dwarn_smt::core::PolicyKind;
use dwarn_smt::pipeline::{NullProbe, NullSanitizer, SimConfig, Simulator, ThreadFront};
use dwarn_smt::trace::{profile, RecordedTrace};

#[test]
fn replayed_trace_matches_live_simulation() {
    // Record enough instructions that the simulation never wraps.
    let p = profile::gzip();
    let seed = 77;
    let rec = RecordedTrace::record(&p, seed, Simulator::thread_addr_base(0), 200_000);

    // Live run.
    let mut live = Simulator::new(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        &[dwarn_smt::pipeline::ThreadSpec {
            profile: p.clone(),
            seed,
            skip: 0,
        }],
    );
    let rl = live.run(5_000, 15_000);

    // Replayed run: the same stream from the recording. Wrong-path
    // synthesis uses an independent PRNG stream in both cases, seeded
    // identically, so the whole simulation should agree cycle-for-cycle.
    let front = ThreadFront::from_recording(&rec, seed, Simulator::thread_addr_base(0));
    let mut replay = Simulator::try_with_parts(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        vec![front],
        NullProbe,
        NullSanitizer,
    )
    .unwrap();
    let rr = replay.run(5_000, 15_000);

    assert_eq!(rl.threads, rr.threads, "live vs replayed runs must agree");
    assert_eq!(rl.mem, rr.mem);
}

#[test]
fn file_round_trip_through_disk() {
    let p = profile::twolf();
    let rec = RecordedTrace::record(&p, 9, 0x1000, 50_000);
    let path = std::env::temp_dir().join("dwarn_smt_replay_test.dwtr");
    {
        let f = std::fs::File::create(&path).unwrap();
        rec.write_to(std::io::BufWriter::new(f)).unwrap();
    }
    let f = std::fs::File::open(&path).unwrap();
    let back = RecordedTrace::read_from(std::io::BufReader::new(f)).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(back.insts, rec.insts);
    assert_eq!(back.profile_name, "twolf");
}

#[test]
fn recorded_trace_rebases_onto_new_address_space() {
    let p = profile::bzip2();
    let rec = RecordedTrace::record(&p, 3, 0x1000, 30_000);
    // Rebase to thread slot 2's address space and run mixed with a
    // synthetic thread.
    let fronts = vec![
        ThreadFront::new(&profile::gzip(), 1, Simulator::thread_addr_base(0), 0),
        ThreadFront::from_recording(&rec, 3, Simulator::thread_addr_base(1)),
    ];
    let mut sim = Simulator::try_with_parts(
        SimConfig::baseline(),
        PolicyKind::DWarn.build(),
        fronts,
        NullProbe,
        NullSanitizer,
    )
    .unwrap();
    let r = sim.run(3_000, 8_000);
    assert!(r.ipcs()[0] > 0.2, "synthetic thread runs");
    assert!(r.ipcs()[1] > 0.2, "replayed thread runs");
}
