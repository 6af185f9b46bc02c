//! `apps-mixed`: the paper's applications on long-lived DDR3 memories.
//! BitWeaving range scans over a bit-sliced column (Figure 11), bitvector
//! set inserts and union/intersection/difference (Figure 12), and the
//! synthesized bit-serial kernels (`add_synth`, `compare_lt_synth`,
//! `popcount_synth`). The kernels and scans allocate and free scratch on
//! every call, so the plan cache misses and compilation (including one
//! `synthesize` per kernel call) runs on every call. Op = one app call.
//!
//! Allocations are never returned to the driver's row arena, and scans do
//! not free their scratch, so the column memory runs out of rows after a
//! few hundred calls. The workload surfaces this instead of hiding it: an
//! `OutOfMemory` call is counted (`apps.oom_call_frac`,
//! `apps.scans_before_oom`), the memory is rebuilt and reloaded inside the
//! measured loop (its cost lands in `ops_per_s`), and the call is retried.

use ambit_apps::arith::BitSlicedVector;
use ambit_apps::bitweaving::{AmbitColumn, BitSlicedColumn, Predicate};
use ambit_apps::synth_arith::{add_synth, compare_lt_synth, full_adder_plan, popcount_synth};
use ambit_apps::{AmbitSetArena, AmbitSetHandle};
use ambit_core::{
    AllocGroup, AmbitError, AmbitMemory, BatchBuilder, BatchReceipt, BitwiseOp, IssuePolicy,
};
use ambit_dram::DramGeometry;
use ambit_telemetry::Registry;

use crate::common::{
    metric, time_twins, twin_batch, Counters, Metric, ProbeSpec, Sim, Step, Workload,
};
use crate::trace::Tracer;
use crate::util::{median, threads, timed, Rng};

/// Steps whose simulated totals form the deterministic prefix (ten blocks).
pub const SIM_CALLS: u64 = 200;
const COLUMN_ROWS: usize = 2 * 65_536;
const COLUMN_BITS: usize = 16;
const LANES: usize = 65_536;
const WIDTH: usize = 8;
const SET_DOMAIN: usize = 65_536;
const SETS: usize = 6;
const RESULT_SETS: usize = 3;
/// Kernel calls between fresh operand values.
const REWRITE_EVERY: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Call {
    Scan,
    Insert,
    SetOp,
    Add,
    Compare,
    Popcount,
}

/// Calls per 20-call block.
const BLOCK: [(Call, usize); 6] = [
    (Call::Scan, 8),
    (Call::Insert, 2),
    (Call::SetOp, 4),
    (Call::Add, 2),
    (Call::Compare, 2),
    (Call::Popcount, 2),
];

/// The column memory: the loaded column and the kernels' operands.
struct Engine {
    mem: AmbitMemory,
    column: AmbitColumn,
    a: BitSlicedVector,
    b: BitSlicedVector,
    scans: u64,
}

impl Engine {
    fn build(
        column: &BitSlicedColumn,
        a: &[u32],
        b: &[u32],
        registry: Option<&Registry>,
    ) -> Result<Engine, AmbitError> {
        let mut mem = AmbitMemory::ddr3_module();
        mem.set_pool_threads(threads());
        if let Some(r) = registry {
            mem.set_telemetry(r.clone());
        }
        let column = AmbitColumn::load(&mut mem, column)?;
        let va = BitSlicedVector::alloc(&mut mem, LANES, WIDTH)?;
        let vb = BitSlicedVector::alloc(&mut mem, LANES, WIDTH)?;
        va.write(&mut mem, a)?;
        vb.write(&mut mem, b)?;
        Ok(Engine {
            mem,
            column,
            a: va,
            b: vb,
            scans: 0,
        })
    }
}

pub struct AppsMixed {
    engine: Engine,
    column: BitSlicedColumn,
    a: Vec<u32>,
    b: Vec<u32>,
    arena: AmbitSetArena,
    sets: Vec<AmbitSetHandle>,
    /// Reference contents of `sets` (the first `SETS` are operands, the
    /// rest results), one bit per domain element.
    set_ref: Vec<Vec<u64>>,
    policy: IssuePolicy,
    registry: Option<Registry>,
    block: Vec<Call>,
    next: usize,
    rng: Rng,
    kernel_calls: u64,
    app_calls: u64,
    ooms: u64,
    rebuild_ns: Vec<f64>,
    scans_before_oom: Vec<f64>,
    /// Counters of memories retired by a rebuild.
    retired: Counters,
    waves: u64,
    batches: u64,
}

fn random_values(rng: &mut Rng, n: usize, bits: usize) -> Vec<u32> {
    (0..n)
        .map(|_| (rng.next_u64() & ((1 << bits) - 1)) as u32)
        .collect()
}

fn set_elements(words: &[u64]) -> Vec<usize> {
    (0..SET_DOMAIN)
        .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

impl AppsMixed {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut rng = Rng::stream(seed, 3);
        let values = random_values(&mut rng, COLUMN_ROWS, COLUMN_BITS);
        let column = BitSlicedColumn::from_values(&values, COLUMN_BITS);
        let a = random_values(&mut rng, LANES, WIDTH);
        let b = random_values(&mut rng, LANES, WIDTH);
        let engine = tr
            .span("apps.load", |_| Engine::build(&column, &a, &b, None))
            .map_err(|e| e.to_string())?;

        let mut mem = AmbitMemory::ddr3_module();
        mem.set_pool_threads(threads());
        let mut arena = AmbitSetArena::new(mem, SET_DOMAIN);
        let mut sets = Vec::new();
        let mut set_ref = Vec::new();
        for i in 0..SETS + RESULT_SETS {
            let s = arena.new_set().map_err(|e| e.to_string())?;
            let mut words = vec![0u64; SET_DOMAIN / 64];
            if i < SETS {
                // Sparse operand sets (about one element in eight).
                for w in &mut words {
                    *w = rng.next_u64() & rng.next_u64() & rng.next_u64();
                }
                tr.span("apps.set_load", |_| arena.load(s, &set_elements(&words)))
                    .map_err(|e| e.to_string())?;
            }
            sets.push(s);
            set_ref.push(words);
        }

        let mut w = AppsMixed {
            engine,
            column,
            a,
            b,
            arena,
            sets,
            set_ref,
            policy: IssuePolicy::default(),
            registry: None,
            block: Vec::new(),
            next: 0,
            rng,
            kernel_calls: 0,
            app_calls: 0,
            ooms: 0,
            rebuild_ns: Vec::new(),
            scans_before_oom: Vec::new(),
            retired: Counters::default(),
            waves: 0,
            batches: 0,
        };
        // Warm-up: one call of each kind, checked.
        for (call, _) in BLOCK {
            let mut s = Step::default();
            w.run(call, &mut s, tr);
            if s.failed_ops != 0 {
                return Err(format!("apps-mixed warm-up {call:?} failed"));
            }
        }
        Ok(w)
    }

    /// Runs `f` on the column engine and records its latency on success.
    /// On `OutOfMemory` the engine is rebuilt (counted, and timed as part of
    /// the step) and `f` retried once.
    fn on_engine<T>(
        &mut self,
        s: &mut Step,
        tr: &mut Tracer,
        f: impl Fn(&mut Engine, IssuePolicy) -> Result<T, AmbitError>,
    ) -> Result<T, AmbitError> {
        let policy = self.policy;
        let attempt = |s: &mut Step, engine: &mut Engine| {
            let before = s.api_ns;
            let r = s.call(|| f(engine, policy));
            if r.is_ok() {
                s.call_ns = Some(s.api_ns - before);
            }
            r
        };
        self.app_calls += 1;
        match attempt(s, &mut self.engine) {
            Err(AmbitError::OutOfMemory { .. }) => {
                self.ooms += 1;
                self.scans_before_oom.push(self.engine.scans as f64);
                let open = tr.open("apps.rebuild");
                self.retired.add(Counters::of(&[&self.engine.mem]));
                let (built, ns) = timed(|| {
                    s.call(|| Engine::build(&self.column, &self.a, &self.b, self.registry.as_ref()))
                });
                tr.close(open);
                self.rebuild_ns.push(ns as f64);
                self.engine = built?;
                self.app_calls += 1;
                attempt(s, &mut self.engine)
            }
            other => other,
        }
    }

    fn kernel_done(&mut self, s: &mut Step, r: &BatchReceipt) {
        s.sim = Sim::of(&r.total);
        self.waves += r.waves as u64;
        self.batches += 1;
    }

    /// Executes one app call of kind `call` and checks its output.
    fn run(&mut self, call: Call, s: &mut Step, tr: &mut Tracer) {
        s.ops = 1;
        let ok = match call {
            Call::Scan => {
                let pred = self.predicate();
                let open = tr.open("apps.scan");
                let r = self.on_engine(s, tr, |e, _| e.column.scan(&mut e.mem, pred));
                tr.close(open);
                match r {
                    Ok((count, receipt)) => {
                        s.sim = Sim::of(&receipt);
                        self.engine.scans += 1;
                        let want = tr.span("golden.check", |_| {
                            self.column
                                .scan(pred)
                                .iter()
                                .map(|w| w.count_ones() as usize)
                                .sum()
                        });
                        count == want
                    }
                    Err(_) => false,
                }
            }
            Call::Insert => {
                let set = self.rng.below(SETS);
                let v = self.rng.below(SET_DOMAIN);
                let h = self.sets[set];
                let open = tr.open("apps.insert");
                self.app_calls += 1;
                let r = s.call(|| self.arena.insert(h, v));
                tr.close(open);
                s.call_ns = r.is_ok().then_some(s.api_ns);
                self.set_ref[set][v / 64] |= 1 << (v % 64);
                let want = self.set_ref[set]
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum();
                r.is_ok()
                    && tr.span("golden.check", |_| {
                        self.arena.contains(h, v).ok() == Some(true)
                            && self.arena.len(h).ok() == Some(want)
                    })
            }
            Call::SetOp => self.set_op(s, tr),
            Call::Add | Call::Compare | Call::Popcount => self.kernel(call, s, tr),
        };
        s.failed_ops = u64::from(!ok);
    }

    fn predicate(&mut self) -> Predicate {
        let max = 1u64 << COLUMN_BITS;
        let c1 = (self.rng.next_u64() % max) as u32;
        let c2 = (self.rng.next_u64() % max) as u32;
        match self.rng.below(7) {
            0 => Predicate::Lt(c1),
            1 => Predicate::Le(c1),
            2 => Predicate::Gt(c1),
            3 => Predicate::Ge(c1),
            4 => Predicate::Eq(c1),
            5 => Predicate::Ne(c1),
            _ => Predicate::Between(c1.min(c2), c1.max(c2)),
        }
    }

    fn set_op(&mut self, s: &mut Step, tr: &mut Tracer) -> bool {
        let x = self.rng.below(SETS);
        let y = (x + 1 + self.rng.below(SETS - 1)) % SETS;
        let d = SETS + self.rng.below(RESULT_SETS);
        let (hx, hy, hd) = (self.sets[x], self.sets[y], self.sets[d]);
        let kind = self.rng.below(3);
        let open = tr.open("apps.setop");
        self.app_calls += 1;
        let r = s.call(|| match kind {
            0 => self.arena.union(hd, hx, hy),
            1 => self.arena.intersection(hd, hx, hy),
            _ => self.arena.difference(hd, hx, hy),
        });
        tr.close(open);
        let Ok(receipt) = r else {
            return false;
        };
        s.call_ns = Some(s.api_ns);
        s.sim = Sim::of(&receipt);
        let want: Vec<u64> = self.set_ref[x]
            .iter()
            .zip(&self.set_ref[y])
            .map(|(&p, &q)| match kind {
                0 => p | q,
                1 => p & q,
                _ => p & !q,
            })
            .collect();
        let ok = tr.span("golden.check", |_| {
            self.arena.elements(hd).ok() == Some(set_elements(&want))
        });
        self.set_ref[d] = want;
        ok
    }

    fn kernel(&mut self, call: Call, s: &mut Step, tr: &mut Tracer) -> bool {
        self.kernel_calls += 1;
        if self.kernel_calls.is_multiple_of(REWRITE_EVERY) {
            let a = random_values(&mut self.rng, LANES, WIDTH);
            let open = tr.open("apps.write");
            let r = s.call(|| self.engine.a.write(&mut self.engine.mem, &a));
            tr.close(open);
            if r.is_err() {
                return false;
            }
            self.a = a;
        }
        let open = tr.open("apps.kernel");
        let ok = match call {
            Call::Add => match self.on_engine(s, tr, |e, p| add_synth(&mut e.mem, &e.a, &e.b, p)) {
                Ok((sum, r)) => {
                    self.kernel_done(s, &r);
                    let got = sum.read(&self.engine.mem).ok();
                    let want: Vec<u32> = (self.a.iter().zip(&self.b))
                        .map(|(&x, &y)| (x + y) & ((1 << WIDTH) - 1))
                        .collect();
                    got == Some(want)
                }
                Err(_) => false,
            },
            Call::Compare => {
                match self.on_engine(s, tr, |e, p| compare_lt_synth(&mut e.mem, &e.a, &e.b, p)) {
                    Ok((lt, r)) => {
                        self.kernel_done(s, &r);
                        let got = self.engine.mem.peek_bits(lt).ok();
                        let ok = got.is_some_and(|bits| {
                            (0..LANES).all(|l| bits[l] == (self.a[l] < self.b[l]))
                        });
                        let _ = s.call(|| self.engine.mem.free(lt));
                        ok
                    }
                    Err(_) => false,
                }
            }
            _ => match self.on_engine(s, tr, |e, p| popcount_synth(&mut e.mem, &e.a, p)) {
                Ok((counts, r)) => {
                    self.kernel_done(s, &r);
                    let got = counts.read(&self.engine.mem).ok();
                    let want: Vec<u32> = self.a.iter().map(|x| x.count_ones()).collect();
                    got == Some(want)
                }
                Err(_) => false,
            },
        };
        tr.close(open);
        ok
    }
}

impl Workload for AppsMixed {
    fn step(&mut self, tr: &mut Tracer) -> Step {
        if self.next == self.block.len() {
            self.block = BLOCK
                .iter()
                .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
                .collect();
            self.rng.shuffle(&mut self.block);
            self.next = 0;
        }
        let call = self.block[self.next];
        self.next += 1;
        let mut s = Step {
            kind: call as u32,
            ..Step::default()
        };
        self.run(call, &mut s, tr);
        s
    }

    fn set_policy(&mut self, policy: IssuePolicy) -> bool {
        self.policy = policy;
        true
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.engine.mem.set_telemetry(registry.clone());
        self.registry = Some(registry.clone());
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::of(&[&self.engine.mem, self.arena.memory()]);
        c.add(self.retired);
        c
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            geometry: DramGeometry::ddr3_module(),
            vector_bits: COLUMN_ROWS,
            ops: vec![
                BitwiseOp::Not,
                BitwiseOp::And,
                BitwiseOp::Or,
                BitwiseOp::Nor,
                BitwiseOp::Copy,
                BitwiseOp::InitZero,
                BitwiseOp::InitOne,
            ],
            maj_fold: true,
            fault_rate: 0.0,
        }
    }

    /// The kernels build their batches internally, so the probe rebuilds
    /// the adder's batch (the synthesized full adder emitted per bit) on
    /// its own handles, and times its all-elided twin.
    fn plan_probe(&mut self) -> Option<(u64, u64)> {
        let plan = full_adder_plan().expect("adder synthesizes");
        let mut mem = AmbitMemory::ddr3_module();
        mem.set_pool_threads(1);
        let bits = mem.row_bits();
        let mut h = || mem.alloc(bits).expect("probe alloc fits");
        let (a, b, r): (Vec<_>, Vec<_>, Vec<_>) =
            (0..WIDTH)
                .map(|_| (h(), h(), h()))
                .fold(Default::default(), |mut acc, (x, y, z)| {
                    acc.0.push(x);
                    acc.1.push(y);
                    acc.2.push(z);
                    acc
                });
        let carry = h();
        let scratch: Vec<_> = (0..plan.scratch_rows()).map(|_| h()).collect();
        let mut batch = BatchBuilder::new();
        batch.bitwise(BitwiseOp::InitZero, carry, None, carry);
        for i in 0..WIDTH {
            plan.emit_into(&mut batch, &[a[i], b[i], carry], &scratch, &[r[i], carry])
                .expect("adder emits");
        }
        let views = batch.op_views();
        let targets: Vec<_> = (0..views.len())
            .map(|i| {
                mem.alloc_in_group(bits, AllocGroup(1 + i as u32 % 127))
                    .expect("probe alloc fits")
            })
            .collect();
        let twin = twin_batch(&views, &targets);
        Some(time_twins(&mut mem, &[twin], 200))
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Vec<Metric>) {
        metric(out, "apps.scan_us", tr.mean_ns("apps.scan") / 1e3, "us");
        metric(out, "apps.setop_us", tr.mean_ns("apps.setop") / 1e3, "us");
        metric(out, "apps.kernel_us", tr.mean_ns("apps.kernel") / 1e3, "us");
        metric(
            out,
            "apps.scans_before_oom",
            median(&self.scans_before_oom),
            "count",
        );
        metric(
            out,
            "apps.oom_call_frac",
            self.ooms as f64 / self.app_calls.max(1) as f64,
            "fraction",
        );
        metric(out, "apps.rebuild_ms", median(&self.rebuild_ns) / 1e6, "ms");
        metric(
            out,
            "batch.waves_per_call",
            self.waves as f64 / self.batches.max(1) as f64,
            "count",
        );
    }
}
