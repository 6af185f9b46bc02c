//! The closed-loop driver shared by every workload, the simulated-time
//! accounting, and the CPU golden model for batches.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use ambit_core::{
    AmbitMemory, BatchBuilder, BatchOpView, BitVectorHandle, BitwiseOp, IssuePolicy, OpReceipt,
};
use ambit_dram::DramGeometry;
use ambit_telemetry::Registry;

use crate::trace::Tracer;
use crate::util::{percentile, timed, Calibration};

/// Simulated totals taken from receipts: makespan, energy and primitives.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sim {
    pub ps: u64,
    pub nj: f64,
    pub aaps: u64,
    pub aps: u64,
}

impl Sim {
    pub fn of(r: &OpReceipt) -> Sim {
        Sim {
            ps: r.latency_ps(),
            nj: r.energy_nj,
            aaps: r.aaps as u64,
            aps: r.aps as u64,
        }
    }

    pub fn add(&mut self, o: Sim) {
        self.ps += o.ps;
        self.nj += o.nj;
        self.aaps += o.aaps;
        self.aps += o.aps;
    }

    /// Exact text form (the energy in its round-trip representation), so two
    /// fingerprints are equal only if every simulated total is bit-identical.
    pub fn fingerprint(&self) -> String {
        format!(
            "ps={} nj={:?} aaps={} aps={}",
            self.ps, self.nj, self.aaps, self.aps
        )
    }
}

/// What one closed-loop step did.
#[derive(Debug, Default, Clone)]
pub struct Step {
    /// The workload's kind of call (template, call or op kind). With the
    /// simulated commands and API calls it makes the step's work class.
    pub kind: u32,
    /// Workload ops the step attempted.
    pub ops: u64,
    /// Of those, ops whose call failed or whose output differed from the
    /// golden model.
    pub failed_ops: u64,
    /// Host latency of the step's op-bearing public call, when it succeeded.
    pub call_ns: Option<u64>,
    /// Host time spent inside public-API calls during the step (the
    /// op-bearing call plus the step's writes, reads and recovery).
    pub api_ns: u64,
    /// Public-API calls made, and how many of them returned an error.
    pub api_calls: u64,
    pub api_errors: u64,
    pub sim: Sim,
}

impl Step {
    /// Accounts one public-API call made by the step.
    pub fn call<T, E>(&mut self, f: impl FnOnce() -> Result<T, E>) -> Result<T, E> {
        let (out, ns) = timed(f);
        self.api_ns += ns;
        self.api_calls += 1;
        if out.is_err() {
            self.api_errors += 1;
        }
        out
    }
}

/// Layer counters a workload exposes for the traced run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub word_parallel: u64,
    pub scalar: u64,
    pub warm_dispatches: u64,
    pub cold_spawns: u64,
}

impl Counters {
    pub fn add(&mut self, o: Counters) {
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.word_parallel += o.word_parallel;
        self.scalar += o.scalar;
        self.warm_dispatches += o.warm_dispatches;
        self.cold_spawns += o.cold_spawns;
    }

    pub fn of(mems: &[&AmbitMemory]) -> Counters {
        let mut c = Counters::default();
        for m in mems {
            let (plan_hits, plan_misses) = m.plan_cache_stats();
            let s = m.controller().device().stats();
            let p = m.pool_stats();
            c.add(Counters {
                plan_hits,
                plan_misses,
                word_parallel: s.word_parallel_charge_shares,
                scalar: s.scalar_charge_shares,
                warm_dispatches: p.warm_dispatches,
                cold_spawns: p.cold_spawns,
            });
        }
        c
    }
}

/// Parameters the standalone layer probes take from a workload.
#[derive(Debug, Clone)]
pub struct ProbeSpec {
    pub geometry: DramGeometry,
    /// Bits of the workload's typical vector (alloc and host I/O probes).
    pub vector_bits: usize,
    /// Op kinds the workload issues (compile probe).
    pub ops: Vec<BitwiseOp>,
    /// Whether the workload issues majority and fold programs.
    pub maj_fold: bool,
    /// Transient TRA fault rate of the workload (0 when fault-free).
    pub fault_rate: f64,
}

pub trait Workload {
    /// One closed-loop call: the next public-API call is issued only after
    /// the previous one returned and its outputs were checked.
    fn step(&mut self, tr: &mut Tracer) -> Step;
    /// Selects the issue policy of batch calls; `false` if the workload
    /// issues no batches.
    fn set_policy(&mut self, policy: IssuePolicy) -> bool;
    fn attach_telemetry(&mut self, registry: &Registry);
    fn counters(&self) -> Counters;
    fn probe_spec(&self) -> ProbeSpec;
    /// Times `execute_batch` on all-elided twins of the workload's batches:
    /// `(ops, host ns)`, or `None` if the workload issues no batches.
    fn plan_probe(&mut self) -> Option<(u64, u64)>;
    /// Workload-specific per-layer metrics from the traced loop.
    fn layer_metrics(&self, tr: &Tracer, out: &mut Vec<Metric>);
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(out: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    out.push(Metric { name, value, unit });
}

/// Totals of one closed loop.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub steps: u64,
    pub ops: u64,
    pub failed_ops: u64,
    pub api_ns: u64,
    pub api_calls: u64,
    pub api_errors: u64,
    /// Every step's work class and host times.
    pub records: Vec<StepRecord>,
    /// The calibration kernel's fastest pass during the loop.
    pub calibration_ns: u64,
    /// Simulated totals of the first `sim_calls` steps and their op count.
    pub sim: Sim,
    pub sim_ops: u64,
    pub sim_complete: bool,
}

/// Steps with equal keys did the same work: the same kind of call, the same
/// simulated AAPs and APs, and the same public-API calls and errors (so an
/// `OutOfMemory` rebuild or a fault retry is a class of its own).
type WorkClass = (u32, u64, u64, u64, u64);

/// One closed-loop step as the robust estimates see it.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    class: WorkClass,
    verified_ops: u64,
    api_ns: u64,
    call_ns: Option<u64>,
}

impl StepRecord {
    fn of(s: &Step) -> Self {
        StepRecord {
            class: (s.kind, s.sim.aaps, s.sim.aps, s.api_calls, s.api_errors),
            verified_ops: s.ops - s.failed_ops,
            api_ns: s.api_ns,
            call_ns: s.call_ns,
        }
    }
}

/// Fastest time of each work class among the steps that have one.
fn class_min(
    records: &[StepRecord],
    time: impl Fn(&StepRecord) -> Option<u64>,
) -> HashMap<WorkClass, u64> {
    let mut min: HashMap<WorkClass, u64> = HashMap::new();
    for r in records {
        if let Some(t) = time(r) {
            min.entry(r.class)
                .and_modify(|m| *m = (*m).min(t))
                .or_insert(t);
        }
    }
    min
}

impl LoopResult {
    /// Verified ops per host second spent inside public-API calls.
    pub fn mean_ops_per_s(&self) -> f64 {
        (self.ops - self.failed_ops) as f64 / (self.api_ns.max(1) as f64 * 1e-9)
    }

    /// Factor that brings host times of this loop to the reference clock:
    /// `CALIBRATION_REF_NS` over the calibration kernel's fastest pass.
    pub fn clock_scale(&self) -> f64 {
        CALIBRATION_REF_NS as f64 / self.calibration_ns as f64
    }

    /// Verified ops per host second at the reference clock, with every step
    /// timed at the fastest time of its work class. Other tenants of a
    /// shared host only ever add time to a step, so the fastest of many
    /// steps that did the same work is the estimate of its cost that host
    /// load disturbs least; the mix of classes, rare slow ones included,
    /// still weighs as the run made them.
    pub fn ops_per_s(&self) -> f64 {
        let min = class_min(&self.records, |r| Some(r.api_ns));
        let ns: u64 = self.records.iter().map(|r| min[&r.class]).sum();
        let ops: u64 = self.records.iter().map(|r| r.verified_ops).sum();
        ops as f64 / (ns.max(1) as f64 * 1e-9 * self.clock_scale())
    }

    /// Quantile `q` of op-bearing call latency in µs at the reference clock,
    /// with every call taken at the fastest latency of its work class (see
    /// `ops_per_s`).
    pub fn call_us(&self, q: f64) -> f64 {
        let min = class_min(&self.records, |r| r.call_ns);
        let lat: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.call_ns.is_some())
            .map(|r| min[&r.class] as f64)
            .collect();
        percentile(&lat, q) / 1e3 * self.clock_scale()
    }

    /// Number of distinct work classes among the steps.
    pub fn classes(&self) -> usize {
        class_min(&self.records, |r| Some(r.api_ns)).len()
    }

    /// Host latency of every successful op-bearing call, as measured.
    pub fn call_ns(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(|r| r.call_ns.map(|ns| ns as f64))
            .collect()
    }

    pub fn mean_call_us(&self) -> f64 {
        let ns = self.call_ns();
        ns.iter().sum::<f64>() / ns.len().max(1) as f64 / 1e3
    }
}

/// The calibration kernel's fastest pass, in ns, on the host the bounds were
/// set on (a shared 2-vCPU Xeon VM). Host-time metrics are reported at this
/// clock, so a host whose clock drifts with the machine's load reads the
/// same.
pub const CALIBRATION_REF_NS: u64 = 7000;

/// Hard stop for a loop that cannot finish its simulated-time prefix (keeps
/// a run inside its time limit on a very slow host).
const LOOP_CAP_S: f64 = 120.0;

/// Runs the closed loop for `seconds` of wall time, and at least until the
/// first `sim_calls` steps (the deterministic simulated-time prefix) are done.
/// With `max_steps` set, runs exactly that many steps instead.
pub fn run_loop(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    seconds: f64,
    sim_calls: u64,
    max_steps: Option<u64>,
) -> LoopResult {
    let mut r = LoopResult::default();
    let mut cal = Calibration::new();
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let done = match max_steps {
            Some(n) => r.steps >= n,
            None => elapsed >= seconds && r.steps >= sim_calls,
        };
        if done || elapsed > LOOP_CAP_S {
            break;
        }
        tr.next_call();
        let open = tr.open("workload.call");
        let s = w.step(tr);
        tr.close(open);
        if r.steps < sim_calls {
            r.sim.add(s.sim);
            r.sim_ops += s.ops;
        }
        r.steps += 1;
        r.ops += s.ops;
        r.failed_ops += s.failed_ops;
        r.api_ns += s.api_ns;
        r.api_calls += s.api_calls;
        r.api_errors += s.api_errors;
        r.records.push(StepRecord::of(&s));
        cal.tick();
    }
    r.calibration_ns = cal.min_ns;
    r.sim_complete = r.steps >= sim_calls;
    r
}

/// Applies a batch to the host-side shadow of vector contents, op by op in
/// submission order: the CPU golden model of `execute_batch`.
pub fn golden_batch(views: &[BatchOpView], shadow: &mut HashMap<BitVectorHandle, Vec<u64>>) {
    for v in views {
        let srcs: Vec<&Vec<u64>> = v
            .reads
            .iter()
            .map(|h| {
                shadow
                    .get(h)
                    .expect("every read handle has shadow contents")
            })
            .collect();
        let words = shadow
            .get(&v.writes)
            .map_or_else(|| srcs.first().map_or(0, |s| s.len()), Vec::len);
        let out: Vec<u64> = (0..words)
            .map(|i| match (v.op, srcs.len()) {
                (None, _) => {
                    let (a, b, c) = (srcs[0][i], srcs[1][i], srcs[2][i]);
                    (a & b) | (a & c) | (b & c)
                }
                (Some(op), 0) => op.apply_words(0, 0),
                (Some(op), 1) => op.apply_words(srcs[0][i], 0),
                (Some(op), 2) if !v.mnemonic.starts_with("fold") => {
                    op.apply_words(srcs[0][i], srcs[1][i])
                }
                (Some(op), _) => srcs[1..]
                    .iter()
                    .fold(srcs[0][i], |acc, s| op.apply_words(acc, s[i])),
            })
            .collect();
        shadow.insert(v.writes, out);
    }
}

/// Builds the all-elided twin of a batch: op `i` becomes a self-copy of
/// `targets[i]` (elided, so no command issues), and explicit edges reproduce
/// the original's read-after-write, write-after-write and write-after-read
/// hazards, so the twin has the same size and wave shape.
pub fn twin_batch(views: &[BatchOpView], targets: &[BitVectorHandle]) -> BatchBuilder {
    assert_eq!(views.len(), targets.len());
    let mut twin = BatchBuilder::new();
    let ids: Vec<_> = targets
        .iter()
        .map(|&t| twin.bitwise(BitwiseOp::Copy, t, None, t))
        .collect();
    let mut last_writer: HashMap<BitVectorHandle, usize> = HashMap::new();
    let mut readers: HashMap<BitVectorHandle, Vec<usize>> = HashMap::new();
    let mut edges: HashSet<(usize, usize)> = HashSet::new();
    for (i, v) in views.iter().enumerate() {
        for r in &v.reads {
            if let Some(&w) = last_writer.get(r) {
                edges.insert((i, w));
            }
            readers.entry(*r).or_default().push(i);
        }
        if let Some(&w) = last_writer.get(&v.writes) {
            edges.insert((i, w));
        }
        for &r in readers.get(&v.writes).map_or(&[][..], Vec::as_slice) {
            if r != i {
                edges.insert((i, r));
            }
        }
        last_writer.insert(v.writes, i);
        readers.insert(v.writes, Vec::new());
    }
    let mut edges: Vec<_> = edges.into_iter().collect();
    edges.sort_unstable();
    for (later, earlier) in edges {
        twin.depends_on(ids[later], ids[earlier])
            .expect("edges join ops of this batch");
    }
    twin
}

/// Runs each twin once to warm its plans, then `reps` timed passes;
/// returns `(ops, host ns)` of the timed passes.
pub fn time_twins(mem: &mut AmbitMemory, twins: &[BatchBuilder], reps: usize) -> (u64, u64) {
    for t in twins {
        let r = mem
            .execute_batch(t, IssuePolicy::default())
            .expect("elided twin batch executes");
        assert_eq!(
            r.total.aaps + r.total.aps,
            0,
            "twin batch issues no commands"
        );
    }
    let (mut ops, mut ns) = (0, 0);
    for _ in 0..reps {
        for t in twins {
            let (r, t_ns) = timed(|| mem.execute_batch(t, IssuePolicy::default()));
            r.expect("elided twin batch executes");
            ops += t.len() as u64;
            ns += t_ns;
        }
    }
    (ops, ns)
}
