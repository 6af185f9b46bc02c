//! Standalone per-layer probes: each drives one layer's public functions
//! directly, at the workload's parameters, for a short fixed time budget.

use std::hint::black_box;
use std::time::Instant;

use ambit_apps::synth_arith::{compare_rung_plan, full_adder_plan, half_adder_plan};
use ambit_core::ops::{command_counts, compile, compile_majority};
use ambit_core::{
    compile_fold, AllocGroup, AmbitConfig, AmbitController, AmbitMemory, BatchBuilder, BitwiseOp,
    ExecutorPool, IssuePolicy, RowAddress,
};
use ambit_dram::{
    AapMode, BankId, BitRow, CommandTimer, DramGeometry, EnergyModel, Subarray, TimingParams,
    Wordline,
};

use crate::common::ProbeSpec;
use crate::util::Rng;

/// Host time each probe loop runs for.
const BUDGET_MS: u128 = 60;
/// Paper Table 2 TRA failure rate at ±10 % process variation, used for the
/// faulty charge-share probe of workloads that arm no faults.
pub const TABLE2_RATE: f64 = 0.0029;

/// Repeats `f` (in rounds of `batch`) until the budget is spent; returns
/// `(iterations, host ns)`.
fn budget(batch: u64, mut f: impl FnMut(u64)) -> (u64, u64) {
    let t = Instant::now();
    let mut n = 0;
    while n == 0 || t.elapsed().as_millis() < BUDGET_MS {
        for _ in 0..batch {
            f(n);
            n += 1;
        }
    }
    (n, t.elapsed().as_nanos() as u64)
}

fn geometry_memory(geometry: DramGeometry) -> AmbitMemory {
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.set_pool_threads(1);
    mem
}

pub struct SubarrayProbe {
    pub tra_ns_per_kib: f64,
    pub copy_gbps: f64,
    pub faulty_tra_ns_per_kib: f64,
    pub memcpy_gbps: f64,
}

/// `Subarray` triple-row activations and RowClone copies at the workload's
/// row width, plus a host `memcpy` of the same width as the copy baseline.
pub fn subarray(row_bytes: usize, fault_rate: f64) -> SubarrayProbe {
    const ROWS: usize = 8;
    let bits = row_bytes * 8;
    let kib = row_bytes as f64 / 1024.0;
    let mk = |rate: f64| {
        let mut rng = Rng::new(0x5AB);
        let mut sa = Subarray::new(ROWS, bits);
        for r in 0..ROWS {
            sa.poke_row(r, BitRow::from_words(bits, &rng.words(bits.div_ceil(64))));
        }
        if rate > 0.0 {
            sa.set_tra_fault_rate(rate).expect("valid fault rate");
        }
        sa
    };
    let tra = |sa: &mut Subarray, i: u64| {
        let i = i as usize;
        let wls = [
            Wordline::data(i % ROWS),
            Wordline::data((i + 2) % ROWS),
            Wordline::data((i + 5) % ROWS),
        ];
        black_box(sa.activate(&wls).expect("TRA executes"));
        sa.precharge().expect("precharge");
    };
    let mut sa = mk(0.0);
    let (n, ns) = budget(64, |i| tra(&mut sa, i));
    let tra_ns_per_kib = ns as f64 / (n as f64 * kib);

    let mut sa = mk(0.0);
    let (n, ns) = budget(64, |i| {
        let i = i as usize;
        sa.activate(&[Wordline::data(i % ROWS)])
            .expect("activate source");
        black_box(
            sa.activate(&[Wordline::data((i + 3) % ROWS)])
                .expect("copy"),
        );
        sa.precharge().expect("precharge");
    });
    let copy_gbps = n as f64 * row_bytes as f64 / ns as f64;

    let rate = if fault_rate > 0.0 {
        fault_rate
    } else {
        TABLE2_RATE
    };
    let mut sa = mk(rate);
    let (n, ns) = budget(4, |i| tra(&mut sa, i));
    let faulty_tra_ns_per_kib = ns as f64 / (n as f64 * kib);

    let src = vec![0xA5u8; row_bytes];
    let mut dst = vec![0u8; row_bytes];
    let (n, ns) = budget(256, |_| {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    SubarrayProbe {
        tra_ns_per_kib,
        copy_gbps,
        faulty_tra_ns_per_kib,
        memcpy_gbps: n as f64 * row_bytes as f64 / ns as f64,
    }
}

/// The workload's AAP/AP mix replayed on a standalone `CommandTimer`,
/// round-robin over its banks: host ns per primitive.
pub fn timer(geometry: &DramGeometry, aaps: u64, aps: u64) -> f64 {
    let mut t = CommandTimer::new(TimingParams::ddr3_1600(), AapMode::Overlapped);
    let banks = geometry.total_banks();
    let total = (aaps + aps).max(1);
    let mut acc = 0u64;
    let (n, ns) = budget(256, |i| {
        let bank = i as usize % banks;
        acc += aaps;
        if acc >= total {
            acc -= total;
            black_box(t.aap(bank, 1, 1).expect("AAP issues"));
        } else {
            black_box(t.ap(bank, 1).expect("AP issues"));
        }
    });
    ns as f64 / n as f64
}

/// `AmbitController::run_program` of an AND program round-robin over the
/// geometry's banks: host ns per AAP (timing plus functional work).
pub fn controller(geometry: &DramGeometry) -> f64 {
    let mut ctrl = AmbitController::new(*geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    let program = compile(
        BitwiseOp::And,
        RowAddress::D(0),
        Some(RowAddress::D(1)),
        RowAddress::D(2),
    )
    .expect("AND compiles");
    let (aaps, _) = command_counts(&program);
    let banks = geometry.total_banks();
    let (n, ns) = budget(8, |i| {
        let bank = BankId::from_flat_index(i as usize % banks, geometry);
        black_box(ctrl.run_program(bank, 0, &program).expect("program runs"));
    });
    ns as f64 / (n as f64 * aaps as f64)
}

/// Command-program compilation of the workload's op kinds (plus majority
/// and a 3-way fold when it issues them): host ns per compile call.
pub fn compile_ops(spec: &ProbeSpec) -> f64 {
    let d = RowAddress::D;
    let kinds = &spec.ops;
    let maj_fold = spec.maj_fold;
    let (n, ns) = budget(16, |i| {
        let k = i as usize % (kinds.len() + if maj_fold { 2 } else { 0 });
        if k < kinds.len() {
            let op = kinds[k];
            let src2 = (op.source_count() == 2).then_some(d(1));
            black_box(compile(op, d(0), src2, d(2)).expect("op compiles"));
        } else if k == kinds.len() {
            black_box(compile_majority(d(0), d(1), d(2), d(3)));
        } else {
            black_box(
                compile_fold(BitwiseOp::And, &[d(0), d(1), d(2)], d(3)).expect("fold compiles"),
            );
        }
    });
    ns as f64 / n as f64
}

pub struct SynthProbe {
    pub compile_us: f64,
    pub aaps_per_kernel: f64,
    pub maj3_steps: f64,
}

/// The boolean synthesizer on the three microprograms the arithmetic
/// kernels compile on every call.
pub fn synth() -> SynthProbe {
    let (n, ns) = budget(1, |i| match i % 3 {
        0 => drop(black_box(full_adder_plan().expect("adder synthesizes"))),
        1 => drop(black_box(compare_rung_plan().expect("rung synthesizes"))),
        _ => drop(black_box(
            half_adder_plan().expect("half adder synthesizes"),
        )),
    });
    let fa = full_adder_plan().expect("adder synthesizes");
    let cr = compare_rung_plan().expect("rung synthesizes");
    let ha = half_adder_plan().expect("half adder synthesizes");
    // Per-chunk AAPs of the width-8 kernels the apps workload calls: the
    // ripple adder, the comparison ladder and the popcount ripple (4-bit
    // counter), each with its init and copy steps.
    let width = 8.0;
    let counter = 4.0;
    let add = 1.0 + width * fa.aap_cost().0 as f64;
    let cmp = 2.0 + width * cr.aap_cost().0 as f64;
    let pop = counter + width * (1.0 + counter * ha.aap_cost().0 as f64);
    SynthProbe {
        compile_us: ns as f64 / n as f64 / 1e3,
        aaps_per_kernel: (add + cmp + pop) / 3.0,
        maj3_steps: (fa.stats().maj3_steps + cr.stats().maj3_steps + ha.stats().maj3_steps) as f64,
    }
}

/// `ExecutorPool::run_scoped` with one empty job per worker: host µs per
/// dispatch, and the warm share of the pool's dispatches.
pub fn pool(threads: usize) -> (f64, f64) {
    let pool = ExecutorPool::new(threads);
    let dispatch = || {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..threads)
            .map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>)
            .collect();
        pool.run_scoped(jobs).expect("empty jobs run");
    };
    for _ in 0..8 {
        dispatch();
    }
    let (n, ns) = budget(16, |_| dispatch());
    let s = pool.stats();
    let warm = s.warm_dispatches as f64 / (s.warm_dispatches + s.cold_spawns).max(1) as f64;
    (ns as f64 / n as f64 / 1e3, warm)
}

/// `alloc` and `free` of the workload's vector size on a fresh memory of its
/// geometry, spread over every subarray: host µs per call.
pub fn alloc_free(geometry: DramGeometry, bits: usize) -> (f64, f64) {
    let mut mem = geometry_memory(geometry);
    let slots = (geometry.total_banks() * geometry.subarrays_per_bank) as u32;
    let n = 256;
    let t = Instant::now();
    let handles: Vec<_> = (0..n)
        .map(|i| {
            mem.alloc_in_group(bits, AllocGroup(i % slots))
                .expect("probe alloc fits")
        })
        .collect();
    let alloc_ns = t.elapsed().as_nanos() as f64;
    let t = Instant::now();
    for h in handles {
        mem.free(h).expect("probe free");
    }
    let free_ns = t.elapsed().as_nanos() as f64;
    (alloc_ns / n as f64 / 1e3, free_ns / n as f64 / 1e3)
}

/// Protocol writes and reads (`write_bits` / `read_bits`) of the workload's
/// vector size: host ns per KiB moved.
pub fn host_io(geometry: DramGeometry, bits: usize) -> (f64, f64) {
    let mut mem = geometry_memory(geometry);
    let h = mem.alloc(bits).expect("probe alloc fits");
    let mut rng = Rng::new(0x10);
    let data: Vec<bool> = (0..bits).map(|_| rng.chance(0.5)).collect();
    let kib = bits as f64 / 8.0 / 1024.0;
    let (n, ns) = budget(4, |_| mem.write_bits(h, &data).expect("probe write"));
    let write = ns as f64 / (n as f64 * kib);
    let (n, ns) = budget(4, |_| {
        drop(black_box(mem.read_bits(h).expect("probe read")))
    });
    (write, ns as f64 / (n as f64 * kib))
}

/// Table 3 energy of one op over one row from the Figure 8 program shapes
/// and the energy model's coefficients, independent of the simulator.
fn analytic_nj_per_row(model: &EnergyModel, op: BitwiseOp) -> f64 {
    let aap =
        |w1: usize, w2: usize| model.activate_nj(w1) + model.activate_nj(w2) + model.precharge_nj();
    let ap = |w: usize| model.activate_nj(w) + model.precharge_nj();
    match op {
        BitwiseOp::Not => 2.0 * aap(1, 1),
        BitwiseOp::And | BitwiseOp::Or => 3.0 * aap(1, 1) + aap(3, 1),
        BitwiseOp::Nand | BitwiseOp::Nor => 4.0 * aap(1, 1) + aap(3, 1),
        BitwiseOp::Xor | BitwiseOp::Xnor => 3.0 * aap(1, 2) + 2.0 * ap(3) + aap(1, 1) + aap(3, 1),
        BitwiseOp::Copy | BitwiseOp::InitZero | BitwiseOp::InitOne => aap(1, 1),
    }
}

/// Largest relative error, over the Figure 9 ops, of simulated GOps/s and
/// nJ/KB against the analytic envelope (`AmbitConfig`, Table 3) for the
/// geometry: batches of independent single-row ops, sixteen per bank.
pub fn envelope(geometry: DramGeometry) -> f64 {
    const REPS: usize = 4;
    const PER_BANK: usize = 16;
    let mut mem = geometry_memory(geometry);
    let banks = geometry.total_banks();
    let row_bits = mem.row_bits();
    let row_kb = geometry.row_bytes as f64 / 1024.0;
    let config = AmbitConfig {
        banks: geometry.banks * geometry.ranks,
        row_bytes: geometry.row_bytes,
        timing: TimingParams::ddr3_1600(),
        mode: AapMode::Overlapped,
    };
    let model = EnergyModel::ddr3_1333();
    let mut worst: f64 = 0.0;
    let operands: Vec<_> = (0..banks as u32)
        .map(|b| {
            let mut h = || {
                mem.alloc_in_group(row_bits, AllocGroup(b))
                    .expect("envelope alloc")
            };
            (h(), h(), (0..PER_BANK).map(|_| h()).collect::<Vec<_>>())
        })
        .collect();
    for op in BitwiseOp::FIGURE9_OPS {
        // Ops issue round-robin over the banks, as a bank-parallel stream.
        let mut batch = BatchBuilder::new();
        for j in 0..PER_BANK {
            for (s1, s2, dsts) in &operands {
                batch.bitwise(op, *s1, (op.source_count() == 2).then_some(*s2), dsts[j]);
            }
        }
        let (mut ps, mut nj) = (0u64, 0.0);
        for _ in 0..REPS {
            let r = mem
                .execute_batch(&batch, IssuePolicy::default())
                .expect("envelope batch executes");
            ps += r.makespan_ps();
            nj += r.total.energy_nj;
        }
        let outputs = (REPS * banks * PER_BANK) as f64;
        let gops = outputs * geometry.row_bytes as f64 / (ps as f64 / 1e3);
        let analytic_gops =
            geometry.channels as f64 * config.throughput_gops(op).expect("op compiles");
        let nj_per_kb = nj / (outputs * row_kb);
        let analytic_nj = analytic_nj_per_row(&model, op) / row_kb;
        worst = worst
            .max((gops - analytic_gops).abs() / analytic_gops)
            .max((nj_per_kb - analytic_nj).abs() / analytic_nj);
    }
    worst
}
