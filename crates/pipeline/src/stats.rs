//! Simulation statistics.

/// Per-thread counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadStats {
    /// Instructions fetched (correct-path + wrong-path).
    pub fetched: u64,
    /// The wrong-path subset of `fetched` — instructions fetched past a
    /// mispredicted branch before recovery redirected the front-end.
    pub wrong_path_fetched: u64,
    /// Correct-path instructions committed.
    pub committed: u64,
    /// Instructions squashed by branch-misprediction recovery.
    pub squashed_mispredict: u64,
    /// Instructions squashed by the FLUSH policy's response action.
    pub squashed_flush: u64,
    /// Cycles this thread was gated (absent from the policy's fetch order).
    pub gated_cycles: u64,
    /// Cycles this thread could not fetch for structural reasons
    /// (I-cache miss pending or full fetch queue).
    pub blocked_cycles: u64,
    /// Dispatch stalls due to exhausted shared resources (registers or
    /// issue-queue entries).
    pub dispatch_stalls: u64,
    /// Branch instructions committed.
    pub branches: u64,
    /// Committed branches that had been mispredicted.
    pub branch_mispredicts: u64,
}

impl ThreadStats {
    pub fn ipc(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.committed as f64 / cycles as f64
        }
    }
}

/// Whole-simulation result.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Measured cycles (after warm-up).
    pub cycles: u64,
    pub threads: Vec<ThreadStats>,
    /// Per-thread memory statistics from the hierarchy (measured window).
    pub mem: Vec<smt_uarch::ThreadMemStats>,
    /// Branch predictor accuracy over the measured window.
    pub branch_mispredict_rate: f64,
}

impl SimResult {
    /// Order- and content-exact 64-bit digest of every counter in the
    /// result (FNV-1a over a canonical little-endian serialization).
    ///
    /// Two `SimResult`s have equal digests iff every statistic — cycles,
    /// all per-thread pipeline counters, all per-thread memory counters,
    /// and the branch-mispredict rate — is bit-identical. The golden-digest
    /// determinism suite and the campaign cache's `verify` subcommand both
    /// rely on this: any behavioral drift in the simulator, however small,
    /// changes the digest.
    pub fn digest(&self) -> u64 {
        // FNV-1a, 64-bit. Hand-rolled: the workspace is dependency-free,
        // and `DefaultHasher` is allowed to change across Rust releases,
        // which would silently invalidate stored golden digests.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        eat(self.cycles);
        eat(self.threads.len() as u64);
        for t in &self.threads {
            eat(t.fetched);
            eat(t.wrong_path_fetched);
            eat(t.committed);
            eat(t.squashed_mispredict);
            eat(t.squashed_flush);
            eat(t.gated_cycles);
            eat(t.blocked_cycles);
            eat(t.dispatch_stalls);
            eat(t.branches);
            eat(t.branch_mispredicts);
        }
        eat(self.mem.len() as u64);
        for m in &self.mem {
            eat(m.loads);
            eat(m.l1_misses);
            eat(m.l2_misses);
            eat(m.tlb_misses);
        }
        eat(self.branch_mispredict_rate.to_bits());
        h
    }

    /// Per-thread IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc(self.cycles)).collect()
    }

    /// Throughput: the sum of per-thread IPCs (the paper's §5 metric).
    pub fn throughput(&self) -> f64 {
        self.ipcs().iter().sum()
    }

    /// Total instructions fetched across threads.
    pub fn total_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.fetched).sum()
    }

    /// Total wrong-path instructions fetched across threads.
    pub fn total_wrong_path_fetched(&self) -> u64 {
        self.threads.iter().map(|t| t.wrong_path_fetched).sum()
    }

    /// Wrong-path instructions as a fraction of all fetched instructions —
    /// the fetch bandwidth wasted on mispredicted paths.
    pub fn wrong_path_fraction(&self) -> f64 {
        let f = self.total_fetched();
        if f == 0 {
            0.0
        } else {
            self.total_wrong_path_fetched() as f64 / f as f64
        }
    }

    /// Total instructions squashed by the FLUSH response action.
    pub fn total_flush_squashed(&self) -> u64 {
        self.threads.iter().map(|t| t.squashed_flush).sum()
    }

    /// Figure 2's metric: FLUSH-squashed instructions as a fraction of all
    /// fetched instructions.
    pub fn flushed_fraction(&self) -> f64 {
        let f = self.total_fetched();
        if f == 0 {
            0.0
        } else {
            self.total_flush_squashed() as f64 / f as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_throughput() {
        let r = SimResult {
            cycles: 100,
            threads: vec![
                ThreadStats {
                    committed: 150,
                    ..Default::default()
                },
                ThreadStats {
                    committed: 50,
                    ..Default::default()
                },
            ],
            mem: vec![],
            branch_mispredict_rate: 0.0,
        };
        assert_eq!(r.ipcs(), vec![1.5, 0.5]);
        assert!((r.throughput() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn flushed_fraction() {
        let r = SimResult {
            cycles: 10,
            threads: vec![ThreadStats {
                fetched: 200,
                squashed_flush: 70,
                ..Default::default()
            }],
            mem: vec![],
            branch_mispredict_rate: 0.0,
        };
        assert!((r.flushed_fraction() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_yield_zero_ipc() {
        let t = ThreadStats::default();
        assert_eq!(t.ipc(0), 0.0);
        let r = SimResult::default();
        assert_eq!(r.flushed_fraction(), 0.0);
    }
}
