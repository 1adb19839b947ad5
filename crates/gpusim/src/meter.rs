//! Per-block performance metering.
//!
//! A [`BlockMeter`] rides along with every simulated thread block. Threads
//! report arithmetic and memory activity through their
//! [`crate::exec::ThreadCtx`]; at each barrier the meter reduces the
//! per-thread logs into warp-level quantities using the analytics in
//! [`crate::coalesce`]. The result is a [`BlockMetrics`] that the cost
//! model converts to cycles.
//!
//! Two accounting paths exist:
//!
//! * **exact** — `global_read`/`shared_read` log individual accesses; at
//!   the barrier, the k-th access of each thread in a warp is treated as
//!   one warp-wide memory instruction (the standard lockstep
//!   approximation) and analyzed for coalescing/conflicts. Its host
//!   cost is one sort-and-merge of that instruction's spans in stack
//!   scratch (no sort when the lanes log in address order) and a
//!   fixed-array bank tally, with no allocation per instruction (see
//!   [`crate::coalesce`]). Lanes that logged nothing are skipped, so a
//!   phase costs its logged accesses, not lanes × instructions.
//! * **bulk** — hot inner loops declare their aggregate pattern
//!   (`charge_ops`, `shared_bulk`, `global_bulk`); the same formulas are
//!   applied in closed form. This keeps simulation time proportional to
//!   the real algorithm, not to the number of modelled accesses.

use crate::coalesce::{shared_conflict_cycles, transactions_for_warp, Access};
use crate::sanitizer::{AccessKind, BlockSanitizerReport, SanitizerState};

/// Aggregated, cost-model-ready metrics for one block (or, after
/// [`BlockMetrics::merge`], for many).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockMetrics {
    /// Warp-serialized instruction issues: Σ over warps and phases of the
    /// maximum per-thread op count in that warp (lockstep execution makes
    /// the warp as slow as its busiest thread).
    pub warp_issue_ops: f64,
    /// Raw per-thread op total (for utilization/divergence diagnostics).
    pub thread_ops: u64,
    /// Global-memory transactions after coalescing.
    pub global_transactions: f64,
    /// Global-memory bytes actually requested by threads.
    pub global_bytes: u64,
    /// Serialized shared-memory cycles (bank conflicts included).
    pub shared_cycles: f64,
    /// Shared-memory accesses before serialization (diagnostics).
    pub shared_accesses: u64,
    /// L1-cached global accesses charged through the cached bulk path.
    pub cached_accesses: u64,
    /// Barrier count (each `par_threads` phase ends in one).
    pub barriers: u64,
    /// Number of blocks merged into this metric set.
    pub blocks: u64,
    /// Largest shared-memory allocation seen in any block (bytes).
    pub shared_mem_used: usize,
    /// Block size in threads (largest seen on merge).
    pub block_dim: usize,
}

impl BlockMetrics {
    /// Folds `other` into `self` (used to aggregate a whole launch).
    pub fn merge(&mut self, other: &BlockMetrics) {
        self.warp_issue_ops += other.warp_issue_ops;
        self.thread_ops += other.thread_ops;
        self.global_transactions += other.global_transactions;
        self.global_bytes += other.global_bytes;
        self.shared_cycles += other.shared_cycles;
        self.shared_accesses += other.shared_accesses;
        self.cached_accesses += other.cached_accesses;
        self.barriers += other.barriers;
        self.blocks += other.blocks;
        self.shared_mem_used = self.shared_mem_used.max(other.shared_mem_used);
        self.block_dim = self.block_dim.max(other.block_dim);
    }

    /// Warp-execution divergence indicator: 1.0 means perfectly balanced
    /// warps, larger values mean issue slots wasted on idle lanes.
    pub fn divergence_factor(&self, warp_size: usize) -> f64 {
        if self.thread_ops == 0 {
            return 1.0;
        }
        (self.warp_issue_ops * warp_size as f64) / self.thread_ops as f64
    }
}

/// Reused buffers for splitting one warp's per-lane access logs into
/// warp-wide instructions.
#[derive(Debug, Default)]
struct WarpScratch {
    /// Lanes that logged more than the current instruction index.
    active: Vec<usize>,
    /// The instruction being analyzed.
    instruction: Vec<Access>,
}

impl WarpScratch {
    /// Hands `analyze` each warp-wide instruction of one warp, in order:
    /// the k-th logged access of every lane (in lane order) that logged
    /// more than k accesses. Lanes that have run out are dropped, so a
    /// sparse phase costs its logged accesses, not lanes × instructions.
    fn for_each_instruction(&mut self, lanes: &[Vec<Access>], mut analyze: impl FnMut(&[Access])) {
        self.active.clear();
        self.active.extend((0..lanes.len()).filter(|&l| !lanes[l].is_empty()));
        let mut k = 0;
        while !self.active.is_empty() {
            if let [lane] = self.active[..] {
                // One lane left: each remaining access is an instruction.
                lanes[lane][k..].iter().for_each(|a| analyze(std::slice::from_ref(a)));
                return;
            }
            self.instruction.clear();
            self.instruction.extend(self.active.iter().map(|&l| lanes[l][k]));
            analyze(&self.instruction);
            k += 1;
            self.active.retain(|&l| lanes[l].len() > k);
        }
    }
}

/// Live metering state for one executing block.
#[derive(Debug)]
pub struct BlockMeter {
    warp_size: usize,
    block_dim: usize,
    /// Per-thread op counter for the current phase.
    phase_ops: Vec<u64>,
    /// Per-thread logged global accesses for the current phase.
    phase_global: Vec<Vec<Access>>,
    /// Per-thread logged shared accesses for the current phase.
    phase_shared: Vec<Vec<Access>>,
    /// Reused buffers for the barrier-time warp analysis.
    scratch: WarpScratch,
    metrics: BlockMetrics,
    transaction_bytes: u64,
    shared_banks: u64,
    /// Racecheck state; present only under [`crate::exec::GpuSim::launch_checked`].
    sanitizer: Option<Box<SanitizerState>>,
}

impl BlockMeter {
    /// Creates a meter for a block of `block_dim` threads.
    pub fn new(
        block_dim: usize,
        warp_size: usize,
        transaction_bytes: usize,
        shared_banks: usize,
    ) -> Self {
        Self {
            warp_size,
            block_dim,
            phase_ops: vec![0; block_dim],
            phase_global: vec![Vec::new(); block_dim],
            phase_shared: vec![Vec::new(); block_dim],
            scratch: WarpScratch::default(),
            metrics: BlockMetrics { blocks: 1, block_dim, ..BlockMetrics::default() },
            transaction_bytes: transaction_bytes as u64,
            shared_banks: shared_banks as u64,
            sanitizer: None,
        }
    }

    /// Arms the shared-memory sanitizer for this block (checked launches).
    pub fn enable_sanitizer(&mut self, block_idx: usize) {
        self.sanitizer = Some(Box::new(SanitizerState::new(block_idx)));
    }

    /// Records `n` arithmetic/control ops for thread `tid`.
    pub fn charge_ops(&mut self, tid: usize, n: u64) {
        self.phase_ops[tid] += n;
        self.metrics.thread_ops += n;
    }

    /// Logs an exact global access for thread `tid`.
    pub fn log_global(&mut self, tid: usize, addr: u64, bytes: u32) {
        self.phase_global[tid].push(Access { addr, bytes });
        self.metrics.global_bytes += u64::from(bytes);
        // A memory instruction is still an issued instruction.
        self.charge_ops(tid, 1);
    }

    /// Logs an exact shared access for thread `tid`. The read/write
    /// `kind` feeds the sanitizer (when armed); metering itself is
    /// direction-agnostic.
    pub fn log_shared(&mut self, tid: usize, kind: AccessKind, addr: u64, bytes: u32) {
        self.phase_shared[tid].push(Access { addr, bytes });
        self.metrics.shared_accesses += 1;
        if let Some(san) = &mut self.sanitizer {
            san.log(tid, kind, addr, bytes);
        }
        self.charge_ops(tid, 1);
    }

    /// Bulk shared-memory accounting: thread `tid` performed `accesses`
    /// shared accesses in a pattern whose warp-wide conflict degree is
    /// `conflict_ways` (1 = conflict-free, `warp_size` = fully serialized).
    pub fn shared_bulk(&mut self, tid: usize, accesses: u64, conflict_ways: u64) {
        self.metrics.shared_accesses += accesses;
        // One warp instruction serves warp_size thread-accesses and costs
        // `conflict_ways` bank cycles; amortize per thread.
        self.metrics.shared_cycles +=
            accesses as f64 * conflict_ways as f64 / self.warp_size as f64;
        self.charge_ops(tid, accesses);
    }

    /// Bulk global-memory accounting: thread `tid` moved `bytes` bytes in
    /// accesses of `access_width` bytes. When `coalesced`, the warp's
    /// lanes form contiguous spans (cost: bytes / transaction size);
    /// otherwise every access pays a full transaction.
    pub fn global_bulk(&mut self, tid: usize, bytes: u64, access_width: u64, coalesced: bool) {
        debug_assert!(access_width > 0);
        self.metrics.global_bytes += bytes;
        let accesses = bytes.div_ceil(access_width);
        if coalesced {
            self.metrics.global_transactions += bytes as f64 / self.transaction_bytes as f64;
        } else {
            self.metrics.global_transactions += accesses as f64;
        }
        self.charge_ops(tid, accesses);
    }

    /// Bulk accounting for global accesses that hit the L1 cache (small
    /// hot per-thread footprints, e.g. V1's window buffers when *not*
    /// placed in shared memory).
    pub fn global_cached_bulk(&mut self, tid: usize, accesses: u64) {
        self.metrics.cached_accesses += accesses;
        self.charge_ops(tid, accesses);
    }

    /// Shared-memory footprint accounting (affects occupancy).
    pub fn note_shared_alloc(&mut self, bytes: usize) {
        self.metrics.shared_mem_used = self.metrics.shared_mem_used.max(bytes);
    }

    /// Ends a barrier-delimited phase: reduces the per-thread logs into
    /// warp-level metrics and clears them.
    pub fn end_phase(&mut self) {
        self.end_phase_inner(None, true);
    }

    /// [`Self::end_phase`] with the block's exit mask, so the sanitizer
    /// can flag barriers only part of the block arrived at.
    pub fn end_phase_masked(&mut self, exited: &[bool]) {
        self.end_phase_inner(Some(exited), true);
    }

    fn end_phase_inner(&mut self, exited: Option<&[bool]>, real_barrier: bool) {
        if let Some(san) = &mut self.sanitizer {
            san.end_phase(exited, real_barrier);
        }
        self.metrics.barriers += 1;
        // Warp-serialized issue: each warp is as slow as its busiest lane.
        for warp in self.phase_ops.chunks(self.warp_size) {
            self.metrics.warp_issue_ops += *warp.iter().max().unwrap_or(&0) as f64;
        }
        self.phase_ops.fill(0);

        // Coalescing: the k-th logged access of each lane forms one
        // warp-wide memory instruction.
        let warps = self.block_dim.div_ceil(self.warp_size);
        for w in 0..warps {
            let lanes = w * self.warp_size..((w + 1) * self.warp_size).min(self.block_dim);
            self.scratch.for_each_instruction(&self.phase_global[lanes.clone()], |instruction| {
                self.metrics.global_transactions +=
                    transactions_for_warp(instruction, self.transaction_bytes) as f64;
            });
            self.scratch.for_each_instruction(&self.phase_shared[lanes], |instruction| {
                self.metrics.shared_cycles +=
                    shared_conflict_cycles(instruction, self.shared_banks) as f64;
            });
        }
        for v in &mut self.phase_global {
            v.clear();
        }
        for v in &mut self.phase_shared {
            v.clear();
        }
    }

    /// Finalizes the meter (flushing any un-barriered phase) and returns
    /// the metrics.
    pub fn finish(self) -> BlockMetrics {
        self.finish_checked().0
    }

    /// [`Self::finish`], additionally yielding the sanitizer's findings
    /// when a checked launch armed it. The end-of-kernel flush is not a
    /// barrier: it sweeps trailing accesses for conflicts but cannot be
    /// divergent.
    pub fn finish_checked(mut self) -> (BlockMetrics, Option<BlockSanitizerReport>) {
        let pending = self.phase_ops.iter().any(|&o| o > 0)
            || self.phase_global.iter().any(|v| !v.is_empty())
            || self.phase_shared.iter().any(|v| !v.is_empty());
        if pending {
            self.end_phase_inner(None, false);
        }
        (self.metrics, self.sanitizer.map(|s| s.into_report()))
    }

    /// Read-only view of the metrics accumulated so far (completed phases).
    pub fn metrics(&self) -> &BlockMetrics {
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter() -> BlockMeter {
        BlockMeter::new(64, 32, 128, 32)
    }

    #[test]
    fn warp_issue_takes_the_max_lane() {
        let mut m = meter();
        m.charge_ops(0, 10); // warp 0
        m.charge_ops(1, 4);
        m.charge_ops(33, 7); // warp 1
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.warp_issue_ops, 17.0);
        assert_eq!(metrics.thread_ops, 21);
    }

    #[test]
    fn coalesced_warp_counts_one_transaction() {
        let mut m = meter();
        for t in 0..32 {
            m.log_global(t, (t * 4) as u64, 4);
        }
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.global_transactions, 1.0);
        assert_eq!(metrics.global_bytes, 128);
    }

    #[test]
    fn scattered_warp_counts_many_transactions() {
        let mut m = meter();
        for t in 0..32 {
            m.log_global(t, (t * 4096) as u64, 4);
        }
        m.end_phase();
        assert_eq!(m.finish().global_transactions, 32.0);
    }

    #[test]
    fn second_warp_is_analyzed_separately() {
        let mut m = meter();
        // Warp 0 coalesced; warp 1 scattered.
        for t in 0..32 {
            m.log_global(t, (t * 4) as u64, 4);
        }
        for t in 32..64 {
            m.log_global(t, (t * 4096) as u64, 4);
        }
        m.end_phase();
        assert_eq!(m.finish().global_transactions, 1.0 + 32.0);
    }

    #[test]
    fn shared_conflicts_serialize() {
        let mut m = meter();
        for t in 0..32 {
            m.log_shared(t, AccessKind::Read, (t * 128) as u64, 1); // all in bank 0
        }
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.shared_cycles, 32.0);
        assert_eq!(metrics.shared_accesses, 32);
    }

    #[test]
    fn bulk_shared_matches_exact_for_uniform_pattern() {
        // Exact: 32 lanes, stride 4 (conflict-free), 10 instructions.
        let mut exact = BlockMeter::new(32, 32, 128, 32);
        for _ in 0..10 {
            for t in 0..32 {
                exact.log_shared(t, AccessKind::Read, (t * 4) as u64, 1);
            }
        }
        exact.end_phase();

        let mut bulk = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            bulk.shared_bulk(t, 10, 1);
        }
        bulk.end_phase();

        let e = exact.finish();
        let b = bulk.finish();
        assert_eq!(e.shared_cycles, 10.0);
        assert!((b.shared_cycles - e.shared_cycles).abs() < 1e-9);
        assert_eq!(e.shared_accesses, 320);
        assert_eq!(b.shared_accesses, 320);
    }

    #[test]
    fn bulk_global_coalesced_matches_exact() {
        // Exact: 32 lanes × 4 consecutive bytes each, 128-aligned.
        let mut exact = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            exact.log_global(t, (t * 4) as u64, 4);
        }
        exact.end_phase();

        let mut bulk = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            bulk.global_bulk(t, 4, 4, true);
        }
        bulk.end_phase();

        assert_eq!(exact.finish().global_transactions, 1.0);
        assert!((bulk.finish().global_transactions - 1.0).abs() < 1e-9);
    }

    #[test]
    fn finish_flushes_unbarriered_phase() {
        let mut m = meter();
        m.charge_ops(5, 3);
        let metrics = m.finish();
        assert_eq!(metrics.warp_issue_ops, 3.0);
        assert_eq!(metrics.barriers, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = BlockMetrics { warp_issue_ops: 1.0, blocks: 1, ..Default::default() };
        let b = BlockMetrics {
            warp_issue_ops: 2.0,
            blocks: 1,
            shared_mem_used: 4096,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.warp_issue_ops, 3.0);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.shared_mem_used, 4096);
    }

    #[test]
    fn divergence_factor() {
        let mut m = BlockMeter::new(32, 32, 128, 32);
        // One busy lane out of 32.
        m.charge_ops(0, 32);
        m.end_phase();
        let metrics = m.finish();
        assert_eq!(metrics.divergence_factor(32), 32.0);

        let mut m = BlockMeter::new(32, 32, 128, 32);
        for t in 0..32 {
            m.charge_ops(t, 8);
        }
        m.end_phase();
        assert_eq!(m.finish().divergence_factor(32), 1.0);
    }

    #[test]
    fn cached_bulk_accumulates() {
        let mut m = meter();
        m.global_cached_bulk(0, 100);
        let metrics = m.finish();
        assert_eq!(metrics.cached_accesses, 100);
    }
}
