//! Result digests pinned at the parent commit of the benchmark. They apply
//! at the campaign's trace seed (the default `--seed`); the suite
//! workloads always run at it. A mismatch is a failed operation: a change
//! that claims only speed must leave every simulated statistic identical.

/// FNV-1a over every report of the `all` grid at the suite windows, in order.
pub const SUITE_REPORTS: u64 = 0x7e47_2bb5_3f9c_ee1a;

/// `SimResult::digest` of each single run: `(shape, policy, digest)`.
pub const SINGLE_RUN: [(&str, &str, u64); 8] = [
    ("4-ilp", "DWARN", 0x5fcc_03cb_370d_a1ed),
    ("4-ilp", "ICOUNT", 0x17cf_93d4_be36_4695),
    ("4-mix", "DWARN", 0xd7a7_e63d_5942_ac50),
    ("4-mix", "ICOUNT", 0xaa87_e0b9_c1fd_765b),
    ("4-mem", "DWARN", 0xf3f2_de29_2076_e6d3),
    ("4-mem", "ICOUNT", 0x634a_66a2_a5ed_eec9),
    ("8-mem", "DWARN", 0x87d1_0877_0d6f_48a8),
    ("8-mem", "ICOUNT", 0xb34b_4aac_eb77_8dac),
];

/// The observed 2-MEM DWarn run: `(SimResult::digest, IntervalSeries::digest)`.
pub const OBSERVED: (u64, u64) = (0x7525_d021_b90d_9f6e, 0xfe81_42f9_215b_2511);

/// The pinned digest of a single run, if any.
pub fn single_run(shape: &str, policy: &str) -> Option<u64> {
    SINGLE_RUN
        .iter()
        .find(|(s, p, _)| *s == shape && *p == policy)
        .map(|&(_, _, d)| d)
}
