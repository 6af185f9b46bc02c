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

use std::collections::HashMap;

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
    /// Handles the op reads, in operand order (the destination is listed
    /// only when it is also a source). Allocation-free: hazard analysis and
    /// plan-cache eviction call this once per op.
    pub(crate) fn reads(&self) -> impl Iterator<Item = BitVectorHandle> + '_ {
        let (fixed, rest): ([Option<BitVectorHandle>; 3], &[BitVectorHandle]) = match self {
            BatchOp::Bitwise { src1, src2, .. } => ([Some(*src1), *src2, None], &[]),
            BatchOp::Maj3 { a, b, c, .. } => ([Some(*a), Some(*b), Some(*c)], &[]),
            BatchOp::Fold { srcs, .. } => ([None; 3], srcs),
        };
        fixed.into_iter().flatten().chain(rest.iter().copied())
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
        self.writes() == handle || self.reads().any(|r| r == handle)
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
    /// Handles the op reads, in operand order (the destination appears
    /// only when it is also a source).
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
                reads: o.reads().collect(),
                writes: o.writes(),
            })
            .collect()
    }

    /// Plans the batch into dependency waves: wave 0 holds every op with no
    /// dependency, and wave k every op whose dependencies all sit in waves
    /// 0..k with at least one in wave k − 1. Ops in one wave are mutually
    /// independent, and each wave lists its ops in submission order.
    ///
    /// Runs in O(ops + edges) plus a sort per wave: hazard analysis makes
    /// one pass over the ops, and Kahn's algorithm by levels visits each
    /// dependency edge once.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::EmptyBatch`] for an empty builder.
    /// * [`AmbitError::DependencyCycle`] if the explicit edges close a
    ///   cycle (handle-inferred edges alone always point backwards and
    ///   cannot); the reported op lies on the cycle.
    pub(crate) fn waves(&self) -> Result<Vec<Vec<usize>>> {
        let n = self.ops.len();
        if n == 0 {
            return Err(AmbitError::EmptyBatch);
        }
        let preds = self.dependencies();
        let succs = preds.reversed();
        let mut indegree: Vec<usize> = (0..n).map(|i| preds.of(i).len()).collect();
        let mut wave: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut waves = Vec::new();
        let mut placed = 0;
        while !wave.is_empty() {
            placed += wave.len();
            let mut next = Vec::new();
            for &i in &wave {
                for &s in succs.of(i) {
                    indegree[s] -= 1;
                    if indegree[s] == 0 {
                        next.push(s);
                    }
                }
            }
            next.sort_unstable();
            waves.push(std::mem::replace(&mut wave, next));
        }
        if placed < n {
            return Err(AmbitError::DependencyCycle {
                op: op_on_cycle(&preds, &indegree).unwrap_or(0),
            });
        }
        Ok(waves)
    }

    /// Every op's distinct predecessors: its explicit edges, then the
    /// read-after-write, write-after-write and write-after-read hazards
    /// inferred from handle reuse in submission order.
    fn dependencies(&self) -> Adjacency {
        /// Per-handle hazard state: the last op that wrote the handle, and
        /// the head of its list of reads since that write (`NONE` if none).
        #[derive(Clone, Copy)]
        struct HandleState {
            writer: usize,
            last_read: usize,
        }
        const NONE: usize = usize::MAX;
        const UNSEEN: HandleState = HandleState { writer: NONE, last_read: NONE };
        let n = self.ops.len();
        let explicit = Adjacency::from_pairs(n, self.explicit.iter().copied());
        // Sized for one written handle per op, which spares the rehashes
        // that otherwise dominate planning a large batch.
        let mut handles: HashMap<u64, HandleState> = HashMap::with_capacity(n);
        // Reads since the last write of each handle, as linked lists of
        // `(op, previous read of the same handle)` in one arena.
        let mut reads: Vec<(usize, usize)> =
            Vec::with_capacity(self.ops.iter().map(|op| op.reads().count()).sum());
        // `recorded[p] == i` once the edge p → i is stored, so an edge that
        // is both explicit and inferred, or inferred twice, counts once.
        let mut recorded = vec![NONE; n];
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            let mut add = |p: usize| {
                if p != NONE && recorded[p] != i {
                    recorded[p] = i;
                    targets.push(p);
                }
            };
            explicit.of(i).iter().for_each(|&p| add(p));
            for r in op.reads() {
                let h = handles.entry(r.0).or_insert(UNSEEN);
                add(h.writer); // RAW
                reads.push((i, h.last_read));
                h.last_read = reads.len() - 1;
            }
            let h = handles.entry(op.writes().0).or_insert(UNSEEN);
            add(h.writer); // WAW
            let mut cursor = h.last_read;
            while cursor != NONE {
                let (reader, previous) = reads[cursor];
                if reader != i {
                    add(reader); // WAR
                }
                cursor = previous;
            }
            *h = HandleState { writer: i, last_read: NONE };
            offsets.push(targets.len());
        }
        Adjacency { offsets, targets }
    }
}

/// Per-op adjacency lists in compressed form: the neighbours of op `i` are
/// `targets[offsets[i]..offsets[i + 1]]`.
#[derive(Debug)]
struct Adjacency {
    offsets: Vec<usize>,
    targets: Vec<usize>,
}

impl Adjacency {
    /// Groups `(op, neighbour)` pairs by op, keeping their order. The pairs
    /// are walked twice (count, then fill), so nothing is buffered.
    fn from_pairs<I>(n: usize, pairs: I) -> Adjacency
    where
        I: Iterator<Item = (usize, usize)> + Clone,
    {
        let mut offsets = vec![0; n + 1];
        for (op, _) in pairs.clone() {
            offsets[op + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0; offsets[n]];
        for (op, neighbour) in pairs {
            targets[fill[op]] = neighbour;
            fill[op] += 1;
        }
        Adjacency { offsets, targets }
    }

    fn of(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The transposed lists; each list comes out in ascending op order.
    fn reversed(&self) -> Adjacency {
        let n = self.offsets.len() - 1;
        Adjacency::from_pairs(n, (0..n).flat_map(|i| self.of(i).iter().map(move |&p| (p, i))))
    }
}

/// An op on a dependency cycle, given the predecessor lists and the
/// indegrees Kahn's algorithm left behind (non-zero exactly for the ops it
/// could not place). Every unplaced op has an unplaced predecessor, so
/// walking predecessors from one must revisit an op; the walk from there
/// traces the cycle, and the lowest index on it is reported.
fn op_on_cycle(preds: &Adjacency, indegree: &[usize]) -> Option<usize> {
    let step = |i: usize| preds.of(i).iter().copied().find(|&p| indegree[p] > 0);
    let mut op = (0..indegree.len()).find(|&i| indegree[i] > 0)?;
    let mut visited = vec![false; indegree.len()];
    while !visited[op] {
        visited[op] = true;
        op = step(op)?;
    }
    let (mut lowest, mut cursor) = (op, step(op)?);
    while cursor != op {
        lowest = lowest.min(cursor);
        cursor = step(cursor)?;
    }
    Some(lowest)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn handle(id: u64) -> BitVectorHandle {
        BitVectorHandle(id)
    }

    /// Reference dependency sets: the straightforward per-op `HashSet`
    /// hazard analysis the linear planner must agree with.
    fn reference_deps(b: &BatchBuilder) -> Vec<HashSet<usize>> {
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); b.ops.len()];
        for &(later, earlier) in &b.explicit {
            deps[later].insert(earlier);
        }
        let mut last_writer: HashMap<u64, usize> = HashMap::new();
        let mut readers_since_write: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, op) in b.ops.iter().enumerate() {
            for r in op.reads() {
                if let Some(&w) = last_writer.get(&r.0) {
                    deps[i].insert(w);
                }
                readers_since_write.entry(r.0).or_default().push(i);
            }
            let d = op.writes();
            if let Some(&w) = last_writer.get(&d.0) {
                deps[i].insert(w);
            }
            for &r in readers_since_write.get(&d.0).map_or(&[][..], |v| v) {
                if r != i {
                    deps[i].insert(r);
                }
            }
            last_writer.insert(d.0, i);
            readers_since_write.insert(d.0, Vec::new());
        }
        deps
    }

    /// Reference planner: Kahn by levels that rescans every op per wave
    /// and strips each placed op from every dependency set — O(n·|wave|).
    fn reference_waves(b: &BatchBuilder) -> Result<Vec<Vec<usize>>> {
        let n = b.ops.len();
        if n == 0 {
            return Err(AmbitError::EmptyBatch);
        }
        let mut remaining = reference_deps(b);
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

    /// Whether `op` reaches itself by following dependency edges.
    fn on_cycle(deps: &[HashSet<usize>], op: usize) -> bool {
        let mut seen = vec![false; deps.len()];
        let mut stack: Vec<usize> = deps[op].iter().copied().collect();
        while let Some(i) = stack.pop() {
            if i == op {
                return true;
            }
            if !std::mem::replace(&mut seen[i], true) {
                stack.extend(deps[i].iter().copied());
            }
        }
        false
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
    fn cycle_error_names_an_op_on_the_cycle() {
        // x waits on z, and y and z wait on each other: x is blocked by
        // the {y, z} cycle without being on it.
        let mut b = BatchBuilder::new();
        let x = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let y = b.bitwise(BitwiseOp::Not, handle(2), None, handle(3));
        let z = b.bitwise(BitwiseOp::Not, handle(4), None, handle(5));
        b.depends_on(x, z).unwrap();
        b.depends_on(y, z).unwrap();
        b.depends_on(z, y).unwrap();
        let AmbitError::DependencyCycle { op } = b.waves().unwrap_err() else {
            panic!("expected a dependency cycle");
        };
        assert_eq!(op, y.index());
        assert!(on_cycle(&reference_deps(&b), op));
    }

    #[test]
    fn duplicate_edges_count_once() {
        // The explicit edge repeats the RAW hazard op1 already has on op0,
        // twice over.
        let mut b = BatchBuilder::new();
        let w = b.bitwise(BitwiseOp::Not, handle(0), None, handle(1));
        let r = b.bitwise(BitwiseOp::And, handle(1), Some(handle(1)), handle(2));
        b.depends_on(r, w).unwrap();
        b.depends_on(r, w).unwrap();
        assert_eq!(b.dependencies().of(1), &[0]);
        assert_eq!(b.waves().unwrap(), vec![vec![0], vec![1]]);
    }

    /// A single-wave batch of `len` independent ops.
    fn independent_batch(len: u64) -> BatchBuilder {
        let mut b = BatchBuilder::new();
        for i in 0..len {
            b.bitwise(
                BitwiseOp::And,
                handle(3 * i),
                Some(handle(3 * i + 1)),
                handle(3 * i + 2),
            );
        }
        b
    }

    #[test]
    fn planning_scales_linearly() {
        // 8× the ops may cost at most 3 × 8× the time; the quadratic
        // planner this replaced took about 64×. The sizes alternate over
        // five rounds, so host load hits both alike, and each keeps its
        // fastest plan.
        let (small, large) = (independent_batch(512), independent_batch(4096));
        let time = |b: &BatchBuilder| {
            let t = std::time::Instant::now();
            assert_eq!(b.waves().unwrap().len(), 1);
            t.elapsed()
        };
        let (mut t_small, mut t_large) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..5 {
            t_small = t_small.min(time(&small));
            t_large = t_large.min(time(&large));
        }
        assert!(
            t_large <= t_small * 24,
            "4096-op plan {t_large:?} vs 512-op plan {t_small:?}"
        );
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

    mod reference_equivalence {
        use super::*;
        use proptest::prelude::*;
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;

        /// A random batch of `n` ops over a small handle pool (so RAW, WAW
        /// and WAR hazards are dense) plus random explicit edges. `edges`
        /// picks none, backward-only (acyclic), or any direction (forward
        /// edges, usually closing cycles); every edge may repeat, and
        /// `i → i − 1` edges often duplicate an inferred hazard.
        fn random_batch(seed: u64, n: usize, edges: u8) -> BatchBuilder {
            const OPS: [BitwiseOp; 6] = [
                BitwiseOp::Not,
                BitwiseOp::And,
                BitwiseOp::Or,
                BitwiseOp::Xor,
                BitwiseOp::Nand,
                BitwiseOp::Copy,
            ];
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let pool = rng.gen_range(1..=n as u64 / 4 + 2);
            let h = |rng: &mut ChaCha8Rng| handle(rng.gen_range(0..pool));
            let mut b = BatchBuilder::new();
            for _ in 0..n {
                match rng.gen_range(0..3u8) {
                    0 => {
                        let op = OPS[rng.gen_range(0..OPS.len())];
                        let src1 = h(&mut rng);
                        let src2 = rng.gen_bool(0.7).then(|| h(&mut rng));
                        let dst = h(&mut rng);
                        b.bitwise(op, src1, src2, dst);
                    }
                    1 => {
                        let (a, bb, c, d) = (h(&mut rng), h(&mut rng), h(&mut rng), h(&mut rng));
                        b.maj3(a, bb, c, d);
                    }
                    _ => {
                        let k = rng.gen_range(2..=5);
                        let srcs: Vec<_> = (0..k).map(|_| h(&mut rng)).collect();
                        let dst = h(&mut rng);
                        b.fold(BitwiseOp::Or, &srcs, dst);
                    }
                }
            }
            if edges > 0 && n > 1 {
                for _ in 0..rng.gen_range(1..=n / 8 + 1) {
                    let (op, dep) = if edges == 1 {
                        let op = rng.gen_range(1..n);
                        let dep = if rng.gen_bool(0.5) {
                            op - 1
                        } else {
                            rng.gen_range(0..op)
                        };
                        (op, dep)
                    } else {
                        let op = rng.gen_range(0..n);
                        let dep = (op + rng.gen_range(1..n)) % n;
                        (op, dep)
                    };
                    for _ in 0..rng.gen_range(1..=2) {
                        b.depends_on(OpId(op), OpId(dep)).unwrap();
                    }
                }
            }
            b
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The linear planner yields exactly the reference waves, and on
            /// a cycle both error and the reported op lies on a cycle.
            #[test]
            fn linear_planner_matches_reference(
                seed in any::<u64>(),
                n in 1usize..=600,
                edges in 0u8..3,
            ) {
                let b = random_batch(seed, n, edges);
                match (b.waves(), reference_waves(&b)) {
                    (Ok(fast), Ok(reference)) => prop_assert_eq!(fast, reference),
                    (Err(AmbitError::DependencyCycle { op }), Err(AmbitError::DependencyCycle { .. })) => {
                        prop_assert!(on_cycle(&reference_deps(&b), op), "op {} is not on a cycle", op);
                    }
                    (fast, reference) => {
                        return Err(TestCaseError::fail(format!(
                            "planner {fast:?} vs reference {reference:?}"
                        )));
                    }
                }
            }
        }
    }
}
