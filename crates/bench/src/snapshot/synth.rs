//! `synth`: compiles the full 3-input truth-table space (256 functions)
//! through `ambit-core::synth`, executes a slice of the compiled programs
//! on-device against their truth tables, then A/B-measures the
//! compiler-generated arithmetic kernels
//! (`synth_arith::{add,compare_lt,popcount}_synth`) against the
//! hand-written `arith` baselines on identical data.

use ambit_apps::arith::BitSlicedVector;
use ambit_apps::synth_arith;
use ambit_core::{
    synthesize, AmbitMemory, BatchBuilder, BoolFunc, IssuePolicy, SubarrayLayout, SynthOptions,
    SynthProgram,
};
use ambit_dram::{AapMode, DramGeometry, TimingParams};
use ambit_telemetry::json::Json;

use super::{is_true, Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "synth",
    schema: "ambit-bench-synth/v1",
    config: &["tables", "scratch_ceiling"],
    rows: "kernels",
    fields: &["lanes", "width", "hand_aaps", "synth_aaps", "ratio"],
    tag: &["name"],
    gates,
    run,
};

/// Band for the synthesized-kernel AAP cost relative to the hand-written
/// baseline: the compiler may pay for generality, but not more than this
/// factor, and a ratio below the floor means the A/B measured different
/// work.
const SYNTH_RATIO_MIN: f64 = 0.2;
const SYNTH_RATIO_MAX: f64 = 4.5;

struct SynthCompileSummary {
    tables: usize,
    total_steps: usize,
    total_aaps: usize,
    total_aps: usize,
    max_scratch_rows: usize,
    cse_removed: usize,
    dead_removed: usize,
    maj3_steps: usize,
    executed: usize,
    identical: bool,
}

/// Compiles every 3-input truth table, executes a slice of them on the
/// device through the batch engine, and checks each result against the
/// table itself (inputs carry the cycling assignment pattern, so one row
/// covers the whole truth table).
fn measure_synth_compile(stride: usize) -> SynthCompileSummary {
    let plans: Vec<SynthProgram> = (0..256u64)
        .map(|t| {
            let f = BoolFunc::from_table(3, t).expect("3-input table");
            synthesize(&[f], &SynthOptions::default()).expect("table synthesizes")
        })
        .collect();
    let mut summary = SynthCompileSummary {
        tables: plans.len(),
        total_steps: 0,
        total_aaps: 0,
        total_aps: 0,
        max_scratch_rows: 0,
        cse_removed: 0,
        dead_removed: 0,
        maj3_steps: 0,
        executed: 0,
        identical: true,
    };
    for plan in &plans {
        let (aaps, aps) = plan.aap_cost();
        summary.total_steps += plan.steps().len();
        summary.total_aaps += aaps;
        summary.total_aps += aps;
        summary.max_scratch_rows = summary.max_scratch_rows.max(plan.scratch_rows());
        summary.cse_removed += plan.stats().cse_removed;
        summary.dead_removed += plan.stats().dead_removed;
        summary.maj3_steps += plan.stats().maj3_steps;
    }

    let mut mem =
        AmbitMemory::new(DramGeometry::tiny(), TimingParams::ddr3_1600(), AapMode::Overlapped);
    let bits = mem.row_bits();
    let inputs: Vec<_> = (0..3).map(|_| mem.alloc(bits).expect("input alloc")).collect();
    for (j, &h) in inputs.iter().enumerate() {
        let pattern: Vec<bool> = (0..bits).map(|p| p >> j & 1 == 1).collect();
        mem.write_bits(h, &pattern).expect("input write");
    }
    let out = mem.alloc(bits).expect("output alloc");
    let pool_rows = plans.iter().map(SynthProgram::scratch_rows).max().unwrap_or(0);
    let pool: Vec<_> = (0..pool_rows).map(|_| mem.alloc(bits).expect("scratch alloc")).collect();
    for (t, plan) in plans.iter().enumerate().step_by(stride.max(1)) {
        let mut batch = BatchBuilder::new();
        plan.emit_into(&mut batch, &inputs, &pool[..plan.scratch_rows()], &[out])
            .expect("emit");
        mem.execute_batch(&batch, IssuePolicy::BankParallel).expect("execute");
        let got = mem.read_bits(out).expect("readback");
        let want: Vec<bool> = (0..bits).map(|p| (t as u64) >> (p & 7) & 1 == 1).collect();
        summary.executed += 1;
        summary.identical &= got == want;
    }
    summary
}

/// A/B-measures one arithmetic kernel: the hand-written `arith` path and
/// the compiler-generated `synth_arith` path run the same data on one
/// module, and the receipts' AAP counts are compared (the results must be
/// byte-identical first). Prints each kernel and returns its rows.
fn measure_synth_kernels(lanes: usize, width: usize) -> Vec<Line> {
    let mut mem = AmbitMemory::new(
        DramGeometry {
            subarrays_per_bank: 4,
            rows_per_subarray: 128,
            ..DramGeometry::tiny()
        },
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    );
    let mask = (1u32 << width) - 1;
    let va: Vec<u32> = (0..lanes as u32)
        .map(|i| i.wrapping_mul(0x9e37_79b9) >> 7 & mask)
        .collect();
    let vb: Vec<u32> = (0..lanes as u32)
        .map(|i| i.wrapping_mul(0x85eb_ca6b) >> 5 & mask)
        .collect();
    let a = BitSlicedVector::alloc(&mut mem, lanes, width).expect("alloc a");
    let b = BitSlicedVector::alloc(&mut mem, lanes, width).expect("alloc b");
    a.write(&mut mem, &va).expect("write a");
    b.write(&mut mem, &vb).expect("write b");
    let policy = IssuePolicy::BankParallel;
    let result = |name: &str, hand_aaps: usize, synth_aaps: usize, identical: bool| {
        let ratio = synth_aaps as f64 / hand_aaps.max(1) as f64;
        println!(
            "  {name:>10} ({lanes} lanes x {width} bits): hand {hand_aaps:5} AAPs  synth {synth_aaps:5} AAPs  ratio {ratio:.2}  identical {identical}"
        );
        Line::default()
            .put("name", name)
            .put("lanes", lanes)
            .put("width", width)
            .put("hand_aaps", hand_aaps)
            .put("synth_aaps", synth_aaps)
            .put("ratio", ratio)
            .put("identical", identical)
    };

    let (hand, hand_receipt) = a.add(&mut mem, &b).expect("hand add");
    let (synth, synth_receipt) =
        synth_arith::add_synth(&mut mem, &a, &b, policy).expect("synth add");
    let identical = hand.read(&mem).unwrap() == synth.read(&mem).unwrap();
    let add = result("add", hand_receipt.aaps, synth_receipt.total.aaps, identical);

    let (hand, hand_receipt) = a.compare_lt(&mut mem, &b).expect("hand compare");
    let (synth, synth_receipt) =
        synth_arith::compare_lt_synth(&mut mem, &a, &b, policy).expect("synth compare");
    let identical = mem.read_bits(hand).unwrap() == mem.read_bits(synth).unwrap();
    let compare = result("compare_lt", hand_receipt.aaps, synth_receipt.total.aaps, identical);

    let (hand, hand_receipt) = a.popcount(&mut mem).expect("hand popcount");
    let (synth, synth_receipt) =
        synth_arith::popcount_synth(&mut mem, &a, policy).expect("synth popcount");
    let identical = hand.read(&mem).unwrap() == synth.read(&mem).unwrap();
    let popcount = result("popcount", hand_receipt.aaps, synth_receipt.total.aaps, identical);
    vec![add, compare, popcount]
}

fn run() -> Result<String, String> {
    let stride = if quick_mode() { 4 } else { 1 };
    let (lanes, width) = if quick_mode() { (48, 6) } else { (96, 8) };
    let compile = measure_synth_compile(stride);

    println!(
        "synth compile: {} tables -> {} steps, {} AAPs + {} APs (mean {:.1} AAPs/function), max scratch {} rows, CSE -{}, DSE -{}",
        compile.tables,
        compile.total_steps,
        compile.total_aaps,
        compile.total_aps,
        compile.total_aaps as f64 / compile.tables as f64,
        compile.max_scratch_rows,
        compile.cse_removed,
        compile.dead_removed,
    );
    println!(
        "synth execute: {} tables on-device, identical {}",
        compile.executed, compile.identical
    );
    let kernels = measure_synth_kernels(lanes, width);

    let scratch_ceiling = SubarrayLayout::new(DramGeometry::tiny().rows_per_subarray).data_rows();
    let config = Line::default()
        .put("inputs", 3u32)
        .put("tables", compile.tables)
        .put("scratch_ceiling", scratch_ceiling)
        .put("quick", quick_mode());
    let compiled = Line::default()
        .put("total_steps", compile.total_steps)
        .put("total_aaps", compile.total_aaps)
        .put("total_aps", compile.total_aps)
        .put("mean_aaps", compile.total_aaps as f64 / compile.tables.max(1) as f64)
        .put("max_scratch_rows", compile.max_scratch_rows)
        .put("cse_removed", compile.cse_removed)
        .put("dead_removed", compile.dead_removed)
        .put("maj3_steps", compile.maj3_steps);
    let executed = Line::default()
        .put("tables", compile.executed)
        .put("identical", compile.identical);
    Ok(Doc::new(MODE.schema, config)
        .put("compile", compiled)
        .put("executed", executed)
        .put("kernels", kernels)
        .to_string())
}

/// All 256 tables compiled, a non-empty on-device slice that matched its
/// truth tables, scratch under the tiny per-subarray ceiling, and every
/// kernel A/B byte-identical with an AAP ratio inside
/// [[`SYNTH_RATIO_MIN`], [`SYNTH_RATIO_MAX`]].
fn gates(doc: &Json, rows: &[Row<'_>], errors: &mut Vec<String>) {
    let int = |section: &str, key: &str| {
        doc.get(section).and_then(|s| s.get(key)).and_then(Json::as_u64)
    };
    if int("config", "tables") != Some(256) {
        errors.push("config.tables must be 256 (the full 3-input space)".into());
    }
    match (int("config", "scratch_ceiling"), int("compile", "max_scratch_rows")) {
        // 3 input rows + 1 output row share the subarray.
        (Some(ceiling), Some(rows)) if rows + 4 > ceiling => errors.push(format!(
            "max scratch {rows} rows + 3 inputs + 1 output exceed the {ceiling}-row subarray ceiling"
        )),
        (_, None) => errors.push("compile.max_scratch_rows missing or not an integer".into()),
        _ => {}
    }
    for key in ["total_steps", "total_aaps", "cse_removed", "dead_removed"] {
        if int("compile", key).is_none() {
            errors.push(format!("compile.{key} missing or not an integer"));
        }
    }
    if int("executed", "tables").unwrap_or(0) == 0 {
        errors.push("executed.tables missing or zero".into());
    }
    if !is_true(doc.get("executed").and_then(|e| e.get("identical"))) {
        errors.push("on-device execution diverged from the truth tables".into());
    }
    for row in rows {
        if !is_true(row.v.get("identical")) {
            errors.push(format!(
                "{}: synthesized result not byte-identical to the hand-written kernel",
                row.at
            ));
        }
        if let Some(ratio) = row.v.get("ratio").and_then(Json::as_f64) {
            if !(SYNTH_RATIO_MIN..=SYNTH_RATIO_MAX).contains(&ratio) {
                errors.push(format!(
                    "{}: AAP ratio {ratio:.2} outside [{SYNTH_RATIO_MIN}, {SYNTH_RATIO_MAX}]",
                    row.at
                ));
            }
        }
    }
}
