//! Exhaustive truth-table conformance for the boolean synthesis pipeline.
//!
//! Every one of the 256 3-input boolean functions is compiled through
//! `ambit-core::synth`, executed on the simulated device through the batch
//! engine, and compared bit-for-bit against the truth table itself — the
//! CPU golden model. Input vectors are laid out so that bit position `p`
//! of input `j` holds `(p >> j) & 1`, which cycles through all `2^n`
//! assignments along the row, so a single 128-bit row exercises the full
//! truth table (16× over for 3 inputs). A sampled sweep extends the same
//! check to 4- and 5-input functions, and every compiled plan is pinned
//! under the tiny geometry's per-subarray data-row budget.
//!
//! The driver's allocator is a bump allocator (`free` invalidates handles
//! but never reclaims rows), so each test allocates one scratch pool sized
//! to the worst plan in its sweep and reuses it across tables.

use ambit_repro::core::{
    synthesize, AmbitMemory, BatchBuilder, BitVectorHandle, BoolFunc, IssuePolicy,
    SubarrayLayout, SynthOptions, SynthProgram,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};

fn memory(geometry: DramGeometry) -> AmbitMemory {
    AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped)
}

/// D-group rows per subarray in the strict tiny geometry — the budget
/// every generated plan must fit (inputs + output + scratch co-located).
fn tiny_data_budget() -> usize {
    SubarrayLayout::new(DramGeometry::tiny().rows_per_subarray).data_rows()
}

/// Input pattern for input `j`: bit `p` is `(p >> j) & 1`, cycling through
/// every assignment of `n` inputs along the row.
fn input_pattern(j: usize, bits: usize) -> Vec<bool> {
    (0..bits).map(|p| p >> j & 1 == 1).collect()
}

/// What the truth table says the output row must hold under the cycling
/// input pattern.
fn golden_output(table: u64, n: usize, bits: usize) -> Vec<bool> {
    (0..bits)
        .map(|p| {
            let idx = p as u64 & ((1 << n) - 1);
            table >> idx & 1 == 1
        })
        .collect()
}

/// Runs `plan` on `mem` through the batch engine under `policy` and
/// returns the device's output row. `pool` is the shared scratch pool.
fn run_on_device(
    mem: &mut AmbitMemory,
    plan: &SynthProgram,
    inputs: &[BitVectorHandle],
    pool: &[BitVectorHandle],
    out: BitVectorHandle,
    policy: IssuePolicy,
) -> Vec<bool> {
    let mut batch = BatchBuilder::new();
    plan.emit_into(&mut batch, inputs, &pool[..plan.scratch_rows()], &[out])
        .expect("emit");
    mem.execute_batch(&batch, policy).expect("execute");
    mem.read_bits(out).expect("readback")
}

/// Allocates `n` co-located input rows carrying the cycling patterns, an
/// output row, and a scratch pool of `pool_rows` rows.
fn device_rows(
    mem: &mut AmbitMemory,
    n: usize,
    pool_rows: usize,
) -> (Vec<BitVectorHandle>, BitVectorHandle, Vec<BitVectorHandle>) {
    let bits = mem.row_bits();
    let inputs: Vec<BitVectorHandle> =
        (0..n).map(|_| mem.alloc(bits).expect("input alloc")).collect();
    for (j, &h) in inputs.iter().enumerate() {
        mem.write_bits(h, &input_pattern(j, bits)).expect("input write");
    }
    let out = mem.alloc(bits).expect("output alloc");
    let pool: Vec<BitVectorHandle> =
        (0..pool_rows).map(|_| mem.alloc(bits).expect("scratch alloc")).collect();
    (inputs, out, pool)
}

#[test]
fn all_256_three_input_tables_conform_on_device() {
    let plans: Vec<SynthProgram> = (0..256u64)
        .map(|table| {
            let func = BoolFunc::from_table(3, table).expect("table");
            synthesize(&[func], &SynthOptions::default()).expect("synthesize")
        })
        .collect();
    let pool_rows = plans.iter().map(SynthProgram::scratch_rows).max().unwrap();
    // The whole working set — 3 inputs, 1 output, and the worst plan's
    // scratch — must co-locate inside one tiny subarray's data rows.
    assert!(
        pool_rows + 4 <= tiny_data_budget(),
        "{pool_rows} scratch rows blow the {}-row tiny budget",
        tiny_data_budget()
    );

    let mut mem = memory(DramGeometry::tiny());
    let bits = mem.row_bits();
    let (inputs, out, pool) = device_rows(&mut mem, 3, pool_rows);
    for (table, plan) in plans.iter().enumerate() {
        let table = table as u64;
        // Every 16th table additionally runs the serial batch path and the
        // eager driver; the rest use the bank-parallel batch engine.
        let policies: &[IssuePolicy] = if table.is_multiple_of(16) {
            &[IssuePolicy::Serial, IssuePolicy::BankParallel]
        } else {
            &[IssuePolicy::BankParallel]
        };
        let want = golden_output(table, 3, bits);
        for &policy in policies {
            let got = run_on_device(&mut mem, plan, &inputs, &pool, out, policy);
            assert_eq!(
                got, want,
                "table {table:#x} diverges from its truth table under {policy:?}"
            );
        }
        if table.is_multiple_of(16) {
            plan.run_eager(&mut mem, &inputs, &pool[..plan.scratch_rows()], &[out])
                .expect("eager run");
            assert_eq!(
                mem.read_bits(out).unwrap(),
                want,
                "table {table:#x} diverges on the eager path"
            );
        }
    }
}

#[test]
fn sampled_four_and_five_input_tables_conform_on_device() {
    // 5 inputs + output + worst-case scratch exceed one tiny subarray, so
    // this sweep runs on a taller variant; the compiled plans themselves
    // are still pinned under the tiny data-row budget.
    let mut mem = memory(DramGeometry {
        rows_per_subarray: 64,
        ..DramGeometry::tiny()
    });
    let bits = mem.row_bits();
    for n in [4usize, 5] {
        let minterms = 1u32 << n;
        assert!(bits >= 1 << n, "row too short to cover all assignments");
        // A fixed multiplicative stride gives a deterministic, spread-out
        // sample of the 2^2^n table space.
        let tables: Vec<u64> = (0..24u64)
            .map(|k| {
                k.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k)
                    & ((1u128 << minterms) - 1) as u64
            })
            .collect();
        let plans: Vec<SynthProgram> = tables
            .iter()
            .map(|&table| {
                let func = BoolFunc::from_table(n, table).expect("table");
                synthesize(&[func], &SynthOptions::default()).expect("synthesize")
            })
            .collect();
        let pool_rows = plans.iter().map(SynthProgram::scratch_rows).max().unwrap();
        for (&table, plan) in tables.iter().zip(&plans) {
            assert!(
                plan.scratch_rows() <= tiny_data_budget(),
                "{n}-input table {table:#x}: {} scratch rows blow the tiny budget",
                plan.scratch_rows()
            );
        }
        let (inputs, out, pool) = device_rows(&mut mem, n, pool_rows);
        for (&table, plan) in tables.iter().zip(&plans) {
            let got =
                run_on_device(&mut mem, plan, &inputs, &pool, out, IssuePolicy::BankParallel);
            assert_eq!(
                got,
                golden_output(table, n, bits),
                "{n}-input table {table:#x} diverges from its truth table"
            );
        }
    }
}

#[test]
fn bitwise_only_lowering_conforms_on_device() {
    // The maj-free lowering (the shape the resilient executor accepts)
    // must compute the same function as the native-Maj3 schedule.
    let opts = SynthOptions { bitwise_only: true, ..SynthOptions::default() };
    let tables: Vec<u64> = (0..256u64).step_by(7).collect();
    let plans: Vec<SynthProgram> = tables
        .iter()
        .map(|&table| {
            let func = BoolFunc::from_table(3, table).expect("table");
            synthesize(&[func], &opts).expect("synthesize")
        })
        .collect();
    let pool_rows = plans.iter().map(SynthProgram::scratch_rows).max().unwrap();

    let mut mem = memory(DramGeometry {
        rows_per_subarray: 64,
        ..DramGeometry::tiny()
    });
    let bits = mem.row_bits();
    let (inputs, out, pool) = device_rows(&mut mem, 3, pool_rows);
    for (&table, plan) in tables.iter().zip(&plans) {
        assert!(plan.is_bitwise_only(), "bitwise_only must eliminate Maj3 steps");
        let got = run_on_device(&mut mem, plan, &inputs, &pool, out, IssuePolicy::BankParallel);
        assert_eq!(
            got,
            golden_output(table, 3, bits),
            "bitwise-only table {table:#x} diverges from its truth table"
        );
    }
}
