//! `batch`: a channels × banks sweep of independent `bbop_and`s through
//! [`AmbitMemory::execute_batch`], recording bank-parallel and serial
//! makespans in simulated time against the analytic [`AmbitConfig`]
//! all-banks envelope.

use ambit_core::{AllocGroup, AmbitConfig, AmbitMemory, BatchBuilder, BitwiseOp, IssuePolicy};
use ambit_dram::{DramGeometry, PS_PER_NS};
use ambit_telemetry::json::Json;

use super::{Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "batch",
    schema: "ambit-bench-batch/v4",
    config: &["row_bytes", "ops_per_bank"],
    rows: "sweep",
    fields: &[
        "channels",
        "banks",
        "ops",
        "makespan_ns_parallel",
        "makespan_ns_serial",
        "speedup",
        "measured_gops",
        "analytic_gops",
        "envelope_error_frac",
    ],
    tag: &["channels", "banks"],
    gates,
    run,
};

/// Tolerance between the measured batch throughput and the analytic
/// all-banks envelope: 10 % (command-bus issue stagger is real overhead
/// the analytic model ignores).
const BATCH_ENVELOPE_TOLERANCE: f64 = 0.10;

/// Required bank-parallel speedup over serial issue, as a fraction of the
/// ideal B×.
const BATCH_SPEEDUP_FLOOR: f64 = 0.8;

/// Queues `per_bank` independent ANDs on each of `banks` banks, submitted
/// round-robin so every bank's chain starts as early as the command bus
/// allows; the whole batch is one dependency wave.
fn build_bank_sweep_batch(mem: &mut AmbitMemory, banks: usize, per_bank: usize) -> BatchBuilder {
    let bits = mem.row_bits();
    let mut operands = Vec::with_capacity(banks);
    for g in 0..banks {
        let group = AllocGroup(g as u32);
        let mut alloc = || mem.alloc_in_group(bits, group).expect("sweep fits in one subarray");
        let a = alloc();
        let b = alloc();
        let dsts: Vec<_> = (0..per_bank).map(|_| alloc()).collect();
        operands.push((a, b, dsts));
    }
    let mut batch = BatchBuilder::new();
    for j in 0..per_bank {
        for (a, b, dsts) in &operands {
            batch.bitwise(BitwiseOp::And, *a, Some(*b), dsts[j]);
        }
    }
    batch
}

/// Measures one (channels, banks) point of the sweep: bank-parallel
/// makespan, serial baseline on an identical fresh module, and the analytic
/// envelope at the same point. Prints the point and returns its row.
fn measure_batch(channels: usize, banks: usize, per_bank: usize, config: &AmbitConfig) -> Line {
    let geometry = DramGeometry {
        channels,
        banks,
        ..DramGeometry::ddr3_module()
    };
    let total_banks = geometry.total_banks();
    let run = |policy: IssuePolicy| {
        let mut mem = AmbitMemory::new(geometry, config.timing, config.mode);
        let batch = build_bank_sweep_batch(&mut mem, total_banks, per_bank);
        mem.execute_batch(&batch, policy)
            .expect("bank sweep batch executes")
            .makespan_ps() as f64
    };
    let parallel_ps = run(IssuePolicy::BankParallel);
    let serial_ps = run(IssuePolicy::Serial);

    let ops = total_banks * per_bank;
    let speedup = serial_ps / parallel_ps;
    // Figure 9 units: billions of byte-wide operations per second. The
    // command buses are per-channel, so channels scale the analytic
    // envelope linearly on top of the per-channel bank model.
    let measured_gops = ops as f64 * config.row_bytes as f64 / (parallel_ps / 1e12) / 1e9;
    let analytic_gops = channels as f64
        * AmbitConfig { banks, ..*config }
            .throughput_gops(BitwiseOp::And)
            .expect("and compiles");
    let error_frac = (measured_gops - analytic_gops).abs() / analytic_gops;
    let (parallel_ns, serial_ns) = (parallel_ps / PS_PER_NS as f64, serial_ps / PS_PER_NS as f64);
    println!(
        "  C={channels} B={banks}: {ops:6} ops  makespan {parallel_ns:8.0} ns (serial {serial_ns:9.0} ns)  speedup {speedup:5.2}x  {measured_gops:7.1} GOps/s measured vs {analytic_gops:7.1} analytic (err {:.2}%)",
        error_frac * 100.0,
    );
    Line::default()
        .put("channels", channels)
        .put("banks", banks)
        .put("ops", ops)
        .put("makespan_ns_parallel", parallel_ns)
        .put("makespan_ns_serial", serial_ns)
        .put("speedup", speedup)
        .put("measured_gops", measured_gops)
        .put("analytic_gops", analytic_gops)
        .put("envelope_error_frac", error_frac)
}

fn run() -> Result<String, String> {
    let config = AmbitConfig::ddr3_module();
    let per_bank = if quick_mode() { 8 } else { 32 };
    println!("batch channel/bank-scaling sweep @ DDR3-1600, {per_bank} and-ops/bank:");
    let rows: Vec<Line> = [(1, 1), (1, 2), (1, 4), (1, 8), (2, 4), (2, 8)]
        .into_iter()
        .map(|(channels, banks)| measure_batch(channels, banks, per_bank, &config))
        .collect();
    let config_line = Line::default()
        .put("timing", "ddr3_1600")
        .put("mode", "overlapped")
        .put("row_bytes", config.row_bytes)
        .put("ops_per_bank", per_bank)
        .put("quick", quick_mode());
    Ok(Doc::new(MODE.schema, config_line).put("sweep", rows).to_string())
}

/// Measured throughput within [`BATCH_ENVELOPE_TOLERANCE`] of the analytic
/// envelope and speedup ≥ [`BATCH_SPEEDUP_FLOOR`]·C·B at every point.
fn gates(_: &Json, rows: &[Row<'_>], errors: &mut Vec<String>) {
    for row in rows {
        let num = |key| row.v.get(key).and_then(Json::as_f64);
        if let Some(err) = num("envelope_error_frac") {
            if err > BATCH_ENVELOPE_TOLERANCE {
                errors.push(format!(
                    "{}: measured throughput off the analytic envelope by {:.1}% (> {:.0}%)",
                    row.at,
                    err * 100.0,
                    BATCH_ENVELOPE_TOLERANCE * 100.0
                ));
            }
        }
        let int = |key| row.v.get(key).and_then(Json::as_u64);
        let Some(total_banks) = int("channels").zip(int("banks")).map(|(c, b)| c * b) else {
            errors.push(format!("{}: channels and banks must be integers", row.at));
            continue;
        };
        if let Some(speedup) = num("speedup") {
            let floor = BATCH_SPEEDUP_FLOOR * total_banks as f64;
            if speedup < floor {
                errors.push(format!(
                    "{}: bank-parallel speedup {speedup:.2}x below the {floor:.1}x floor",
                    row.at
                ));
            }
        }
    }
}
