//! Batched, bank-parallel execution of bulk bitwise operations.
//!
//! The paper's headline throughput (Section 7.1, Figure 9) assumes all
//! banks operate in parallel: each bank sustains an independent pipeline of
//! AAP programs, and the analytic envelope in
//! [`AmbitConfig`](crate::AmbitConfig) scales linearly with the bank count.
//! [`AmbitMemory::bitwise`](crate::AmbitMemory::bitwise) realizes that
//! parallelism only *within* one multi-chunk vector; a workload made of many
//! single-chunk operations still issues them serially.
//!
//! A [`BatchBuilder`] collects a set of bulk operations — with dependencies
//! between them inferred from handle reuse (read-after-write,
//! write-after-write, write-after-read) or declared explicitly — and
//! [`AmbitMemory::execute_batch`](crate::AmbitMemory::execute_batch) plans
//! them into dependency *waves*: every op in a wave is mutually independent,
//! so their chunk programs issue back-to-back and overlap across banks on
//! the shared [`CommandTimer`](ambit_dram::CommandTimer) timeline, SIMDRAM
//! style (Hajinazar et al., ASPLOS'21). A wave barrier separates dependent
//! ops.

use std::collections::{HashMap, HashSet};

use crate::controller::OpReceipt;
use crate::driver::BitVectorHandle;
use crate::error::{AmbitError, Result};
use crate::ops::BitwiseOp;

/// Identifier of one operation inside a [`BatchBuilder`], returned by the
/// builder methods and usable as a dependency anchor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The op's position in the batch (its submission order).
    pub fn index(&self) -> usize {
        self.0
    }
}

/// How `execute_batch` issues the planned chunk programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IssuePolicy {
    /// Issue ops strictly one after another: each op's programs start only
    /// after the previous op's last precharge completes. This is the
    /// baseline the bank-parallel speedup is measured against.
    Serial,
    /// Issue every op of a dependency wave back-to-back so chunk programs
    /// on different banks overlap in simulated time; a timing barrier
    /// separates consecutive waves.
    #[default]
    BankParallel,
    /// Alias of [`BankParallel`](Self::BankParallel): issues exactly as it
    /// does, on the calling thread. Kept only so the frozen `perfbench`
    /// harness, whose threaded A/B probe names it, compiles; goes once a
    /// later benchmark revision drops its `pool.*` probes.
    BankParallelThreaded,
}

/// Receipt for one executed batch: the merged timing/energy window, per-op
/// receipts, and per-bank occupancy attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReceipt {
    /// Merged window across every op: earliest start, latest end, summed
    /// energy and command counts.
    pub total: OpReceipt,
    /// Per-op receipts, indexed by [`OpId::index`].
    pub per_op: Vec<OpReceipt>,
    /// Dependency waves the batch was planned into.
    pub waves: usize,
    /// Open-row busy time each timing pipeline (bank, or `(bank, subarray)`
    /// under SALP) accumulated *during this batch only*, picoseconds — the
    /// per-batch delta of the timer's cumulative busy attribution, so a
    /// pipeline this batch never touched reads zero even if earlier batches
    /// used it. Indexed by pipeline id; the vector's length covers every
    /// pipeline the timer has ever tracked, not just the ones this batch
    /// used.
    pub bank_busy_ps: Vec<u64>,
}

impl BatchReceipt {
    /// Wall-clock simulated time from the batch's first command to its last
    /// precharge.
    pub fn makespan_ps(&self) -> u64 {
        self.total.latency_ps()
    }

    /// Timing pipelines that did work during this batch.
    pub fn banks_used(&self) -> usize {
        self.bank_busy_ps.iter().filter(|&&b| b > 0).count()
    }
}

/// One queued operation: the same shapes the eager
/// [`AmbitMemory`](crate::AmbitMemory) entry points accept.
///
/// `PartialEq`/`Eq`/`Hash` make the op usable as the driver's
/// compiled-program cache key: handles are never reused after `free`, so an
/// op value identifies a (handle set, shape) pair for the life of the cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum BatchOp {
    /// `dst = op(src1, src2)`.
    Bitwise {
        op: BitwiseOp,
        src1: BitVectorHandle,
        src2: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    },
    /// `dst = majority(a, b, c)`.
    Maj3 {
        a: BitVectorHandle,
        b: BitVectorHandle,
        c: BitVectorHandle,
        dst: BitVectorHandle,
    },
    /// `dst = srcs[0] op … op srcs[k−1]` (associative fold).
    Fold {
        op: BitwiseOp,
        srcs: Vec<BitVectorHandle>,
        dst: BitVectorHandle,
    },
}

impl BatchOp {
    /// Handles the op reads (the destination is excluded even when it is
    /// also a source — that in-place hazard is covered by the write).
    pub(crate) fn reads(&self) -> Vec<BitVectorHandle> {
        match self {
            BatchOp::Bitwise { src1, src2, .. } => {
                let mut r = vec![*src1];
                r.extend(*src2);
                r
            }
            BatchOp::Maj3 { a, b, c, .. } => vec![*a, *b, *c],
            BatchOp::Fold { srcs, .. } => srcs.clone(),
        }
    }

    /// The handle the op writes.
    pub(crate) fn writes(&self) -> BitVectorHandle {
        match self {
            BatchOp::Bitwise { dst, .. }
            | BatchOp::Maj3 { dst, .. }
            | BatchOp::Fold { dst, .. } => *dst,
        }
    }

    /// Whether the op references `handle` as a source or destination —
    /// the plan-cache eviction predicate
    /// [`AmbitMemory::free`](crate::AmbitMemory::free) uses to drop exactly
    /// the cached plans a freed handle invalidates.
    pub(crate) fn involves(&self, handle: BitVectorHandle) -> bool {
        self.writes() == handle || self.reads().contains(&handle)
    }

    /// Telemetry mnemonic, matching what the eager entry points record.
    pub(crate) fn mnemonic(&self) -> &'static str {
        match self {
            BatchOp::Bitwise { op, .. } => op.mnemonic(),
            BatchOp::Maj3 { .. } => "maj3",
            BatchOp::Fold { op: BitwiseOp::And, .. } => "fold_and",
            BatchOp::Fold { op: BitwiseOp::Or, .. } => "fold_or",
            BatchOp::Fold { op, .. } => op.mnemonic(),
        }
    }
}

/// A read-only view of one queued batch operation: the operation kind, the
/// handles it reads, and the handle it writes.
///
/// This is the introspection surface golden models and conformance oracles
/// use to recompute a batch's expected results on the CPU without executing
/// it — the view mirrors exactly what
/// [`execute_batch`](crate::AmbitMemory::execute_batch) will run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOpView {
    /// Telemetry mnemonic of the operation (`bbop_and`, `maj3`,
    /// `fold_or`, …).
    pub mnemonic: &'static str,
    /// The bitwise operation, for ops that are a plain
    /// [`BitwiseOp`] application ([`None`] for majority).
    pub op: Option<BitwiseOp>,
    /// Handles the op reads, in operand order (destination excluded even
    /// when it is also a source).
    pub reads: Vec<BitVectorHandle>,
    /// The handle the op writes.
    pub writes: BitVectorHandle,
}

/// Builder for a batch of bulk bitwise operations with inter-op
/// dependencies.
///
/// Data dependencies are inferred automatically from handle reuse: an op
/// reading a handle a prior op wrote (RAW), writing a handle a prior op
/// wrote (WAW), or writing a handle a prior op read (WAR) is ordered after
/// that op. [`depends_on`](Self::depends_on) adds explicit edges for
/// orderings the handles do not capture.
///
/// # Examples
///
/// ```
/// use ambit_core::{AmbitMemory, BatchBuilder, BitwiseOp, IssuePolicy};
///
/// let mut mem = AmbitMemory::ddr3_module();
/// let bits = mem.row_bits();
/// let a = mem.alloc(bits)?;
/// let b = mem.alloc(bits)?;
/// let t = mem.alloc(bits)?;
/// let out = mem.alloc(bits)?;
/// mem.poke_bits(a, &vec![true; bits])?;
/// mem.poke_bits(b, &vec![false; bits])?;
///
/// let mut batch = BatchBuilder::new();
/// let and = batch.bitwise(BitwiseOp::And, a, Some(b), t);
/// let not = batch.bitwise(BitwiseOp::Not, t, None, out); // RAW on t
/// assert_eq!(and.index(), 0);
/// assert_eq!(not.index(), 1);
/// let receipt = mem.execute_batch(&batch, IssuePolicy::BankParallel)?;
/// assert_eq!(receipt.per_op.len(), 2);
/// assert_eq!(mem.popcount(out)?, bits);
/// # Ok::<(), ambit_core::AmbitError>(())
/// ```
#[derive(Debug, Default)]
pub struct BatchBuilder {
    pub(crate) ops: Vec<BatchOp>,
    /// Explicit `(later, earlier)` edges added via `depends_on`.
    explicit: Vec<(usize, usize)>,
}

impl BatchBuilder {
    /// An empty batch.
    pub fn new() -> Self {
        BatchBuilder::default()
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Queues `dst = op(src1, src2)` (the shape of
    /// [`AmbitMemory::bitwise`](crate::AmbitMemory::bitwise)).
    pub fn bitwise(
        &mut self,
        op: BitwiseOp,
        src1: BitVectorHandle,
        src2: Option<BitVectorHandle>,
        dst: BitVectorHandle,
    ) -> OpId {
        self.push(BatchOp::Bitwise { op, src1, src2, dst })
    }

    /// Queues `dst = majority(a, b, c)` (the shape of
    /// [`AmbitMemory::bitwise_maj3`](crate::AmbitMemory::bitwise_maj3)).
    pub fn maj3(
        &mut self,
        a: BitVectorHandle,
        b: BitVectorHandle,
        c: BitVectorHandle,
        dst: BitVectorHandle,
    ) -> OpId {
        self.push(BatchOp::Maj3 { a, b, c, dst })
    }

    /// Queues a k-way accumulation (the shape of
    /// [`AmbitMemory::bitwise_fold`](crate::AmbitMemory::bitwise_fold)).
    pub fn fold(&mut self, op: BitwiseOp, srcs: &[BitVectorHandle], dst: BitVectorHandle) -> OpId {
        self.push(BatchOp::Fold {
            op,
            srcs: srcs.to_vec(),
            dst,
        })
    }

    /// Adds an explicit edge: `op` must execute after `dep`. Use for
    /// orderings invisible to the handle-based hazard analysis (e.g. ops
    /// that communicate through host-side reads between batches).
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::UnknownOp`] if either id is not from this
    /// batch, and [`AmbitError::DependencyCycle`] for a self-edge.
    pub fn depends_on(&mut self, op: OpId, dep: OpId) -> Result<()> {
        for id in [op, dep] {
            if id.0 >= self.ops.len() {
                return Err(AmbitError::UnknownOp { id: id.0 });
            }
        }
        if op == dep {
            return Err(AmbitError::DependencyCycle { op: op.0 });
        }
        self.explicit.push((op.0, dep.0));
        Ok(())
    }

    fn push(&mut self, op: BatchOp) -> OpId {
        self.ops.push(op);
        OpId(self.ops.len() - 1)
    }

    /// Read-only views of every queued op, in submission order — the
    /// program-introspection hook for golden models (see [`BatchOpView`]).
    pub fn op_views(&self) -> Vec<BatchOpView> {
        self.ops
            .iter()
            .map(|o| BatchOpView {
                mnemonic: o.mnemonic(),
                op: match o {
                    BatchOp::Bitwise { op, .. } | BatchOp::Fold { op, .. } => Some(*op),
                    BatchOp::Maj3 { .. } => None,
                },
                reads: o.reads(),
                writes: o.writes(),
            })
            .collect()
    }

    /// Plans the batch into dependency waves: every op in a wave is
    /// independent of every other op in the same wave, and depends only on
    /// ops in earlier waves. Waves preserve submission order internally.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::EmptyBatch`] for an empty builder.
    /// * [`AmbitError::DependencyCycle`] if the explicit edges close a
    ///   cycle (handle-inferred edges alone always point backwards and
    ///   cannot).
    pub(crate) fn waves(&self) -> Result<Vec<Vec<usize>>> {
        let n = self.ops.len();
        if n == 0 {
            return Err(AmbitError::EmptyBatch);
        }
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for &(later, earlier) in &self.explicit {
            deps[later].insert(earlier);
        }
        // Hazard analysis over raw handle ids, in submission order.
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let mut readers_since_write: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, op) in self.ops.iter().enumerate() {
            for r in op.reads() {
                if let Some(&w) = last_writer.get(&r.0) {
                    deps[i].insert(w); // RAW
                }
                readers_since_write.entry(r.0).or_default().push(i);
            }
            let d = op.writes();
            if let Some(&w) = last_writer.get(&d.0) {
                deps[i].insert(w); // WAW
            }
            for &r in readers_since_write.get(&d.0).map_or(&[][..], |v| v) {
                if r != i {
                    deps[i].insert(r); // WAR
                }
            }
            last_writer.insert(d.0, i);
            readers_since_write.insert(d.0, Vec::new());
        }

        // Kahn's algorithm by levels.
        let mut remaining: Vec<HashSet<usize>> = deps;
        let mut placed = vec![false; n];
        let mut waves = Vec::new();
        let mut done = 0;
        while done < n {
            let wave: Vec<usize> = (0..n)
                .filter(|&i| !placed[i] && remaining[i].is_empty())
                .collect();
            if wave.is_empty() {
                let op = (0..n).find(|&i| !placed[i]).unwrap_or(0);
                return Err(AmbitError::DependencyCycle { op });
            }
            for &i in &wave {
                placed[i] = true;
            }
            done += wave.len();
            for r in remaining.iter_mut() {
                for &i in &wave {
                    r.remove(&i);
                }
            }
            waves.push(wave);
        }
        Ok(waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(id: u64) -> BitVectorHandle {
        BitVectorHandle(id)
    }

    #[test]
    fn independent_ops_form_one_wave() {
        let mut b = BatchBuilder::new();
        for i in 0..4u64 {
            b.bitwise(
                BitwiseOp::And,
                handle(3 * i),
                Some(handle(3 * i + 1)),
                handle(3 * i + 2),
            );
        }
        assert_eq!(b.waves().unwrap(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn raw_waw_war_hazards_order_waves() {
        let mut b = BatchBuilder::new();
        // op0: t = a & b; op1: out = !t (RAW on t); op2: t = c | d (WAR
        // against op1's read, WAW against op0's write).
        b.bitwise(BitwiseOp::And, handle(0), Some(handle(1)), handle(2));
        b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        b.bitwise(BitwiseOp::Or, handle(4), Some(handle(5)), handle(2));
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn in_place_accumulation_chains() {
        let mut b = BatchBuilder::new();
        // acc = acc | p_i three times: each op both reads and writes acc.
        for i in 0..3u64 {
            b.bitwise(BitwiseOp::Or, handle(0), Some(handle(i + 1)), handle(0));
        }
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn shared_read_only_operand_does_not_serialize() {
        let mut b = BatchBuilder::new();
        b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        b.bitwise(BitwiseOp::Not, handle(0), None, handle(2));
        assert_eq!(b.waves().unwrap(), vec![vec![0, 1]]);
    }

    #[test]
    fn explicit_dependency_edges() {
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let y = b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        b.depends_on(y, x).unwrap();
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1]]);
    }

    #[test]
    fn cycle_and_bad_ids_are_typed_errors() {
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let y = b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        assert_eq!(
            b.depends_on(x, x).unwrap_err(),
            AmbitError::DependencyCycle { op: 0 }
        );
        assert_eq!(
            b.depends_on(x, OpId(7)).unwrap_err(),
            AmbitError::UnknownOp { id: 7 }
        );
        b.depends_on(y, x).unwrap();
        b.depends_on(x, y).unwrap();
        assert!(matches!(
            b.waves().unwrap_err(),
            AmbitError::DependencyCycle { .. }
        ));
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(
            BatchBuilder::new().waves().unwrap_err(),
            AmbitError::EmptyBatch
        );
    }

    #[test]
    fn maj3_and_fold_hazards_tracked() {
        let mut b = BatchBuilder::new();
        b.maj3(handle(0), handle(1), handle(2), handle(3));
        b.fold(BitwiseOp::Or, &[handle(3), handle(4)], handle(5));
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1]]);
    }
}
