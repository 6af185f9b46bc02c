//! `telemetry`: the Figure 9 ops on the instrumented DDR3-1600 module,
//! with energy measured through the metrics pipeline (the controller's
//! `ambit_command_energy_nj` histogram) and held to the analytic Table 3
//! model.

use ambit_core::{AmbitConfig, AmbitController, BitwiseOp, RowAddress};
use ambit_dram::{BankId, DramGeometry, EnergyModel, PS_PER_NS};
use ambit_telemetry::json::Json;
use ambit_telemetry::Registry;

use super::{Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "telemetry",
    schema: "ambit-bench-telemetry/v1",
    config: &["banks", "row_bytes", "reps"],
    rows: "ops",
    fields: &[
        "latency_ns_per_op",
        "ops_per_s",
        "energy_nj_per_op",
        "energy_nj_per_kb",
        "analytic_energy_nj_per_kb",
        "energy_error_frac",
        "throughput_gops_analytic",
    ],
    tag: &["op"],
    gates,
    run,
};

/// Energy agreement tolerance between the measured (metrics-integrated)
/// and analytic Table 3 values: 1 %.
const ENERGY_TOLERANCE: f64 = 0.01;

/// Analytic Table 3 energy of one op over one row, from the paper's
/// command-program structure (Figure 8) and the [`EnergyModel`]
/// coefficients — written independently of the simulator so the snapshot
/// genuinely cross-checks the measured path.
fn analytic_nj_per_row(model: &EnergyModel, op: BitwiseOp) -> f64 {
    let aap = |w1: usize, w2: usize| {
        model.activate_nj(w1) + model.activate_nj(w2) + model.precharge_nj()
    };
    let ap = |w: usize| model.activate_nj(w) + model.precharge_nj();
    match op {
        // copy = AAP(Di, Dk)
        BitwiseOp::Copy => aap(1, 1),
        // not = AAP(Di, B5); AAP(B4, Dk)
        BitwiseOp::Not => 2.0 * aap(1, 1),
        // and/or = 3 plain AAPs + AAP(B12 triple, Dk)
        BitwiseOp::And | BitwiseOp::Or => 3.0 * aap(1, 1) + aap(3, 1),
        // nand/nor = and + AAP(B4, Dk) through the dual-contact row
        BitwiseOp::Nand | BitwiseOp::Nor => 4.0 * aap(1, 1) + aap(3, 1),
        // xor/xnor = 3 AAPs into double-wordline B-rows, 2 triple APs,
        // AAP(C, B), AAP(B12 triple, Dk)
        BitwiseOp::Xor | BitwiseOp::Xnor => {
            3.0 * aap(1, 2) + 2.0 * ap(3) + aap(1, 1) + aap(3, 1)
        }
        // init = AAP(C, Dk)
        BitwiseOp::InitZero | BitwiseOp::InitOne => aap(1, 1),
    }
}

/// Runs `reps` repetitions of `op` on a fresh instrumented controller,
/// reads the results back out of the telemetry registry, prints them and
/// returns the snapshot row.
fn measure(op: BitwiseOp, reps: u64, config: &AmbitConfig) -> Line {
    let geometry = DramGeometry::ddr3_module();
    let mut ctrl = AmbitController::new(geometry, config.timing, config.mode);
    let registry = Registry::default();
    ctrl.set_telemetry(registry.clone());

    let src2 = (op.source_count() == 2).then_some(RowAddress::D(1));
    let mut first_start_ps = None;
    let mut last_end_ps = 0;
    for _ in 0..reps {
        let receipt = ctrl
            .execute(op, BankId::zero(), 0, RowAddress::D(0), src2, RowAddress::D(2))
            .expect("standard op program executes");
        first_start_ps.get_or_insert(receipt.start_ps);
        last_end_ps = last_end_ps.max(receipt.end_ps);
    }
    let elapsed_ns =
        (last_end_ps - first_start_ps.unwrap_or(0)) as f64 / PS_PER_NS as f64;

    // Energy through the metrics pipeline: the per-command energy
    // histogram's sum is the total nanojoules the controller observed.
    let energy = registry
        .histogram_snapshot("ambit_command_energy_nj", &[])
        .expect("controller registers the energy histogram");
    let row_kb = geometry.row_bytes as f64 / 1024.0;
    let energy_nj_per_op = energy.sum / reps as f64;
    let energy_nj_per_kb = energy_nj_per_op / row_kb;
    let analytic_nj_per_kb = analytic_nj_per_row(&EnergyModel::ddr3_1333(), op) / row_kb;
    let error_frac = (energy_nj_per_kb - analytic_nj_per_kb).abs() / analytic_nj_per_kb;
    let latency_ns_per_op = elapsed_ns / reps as f64;
    let ops_per_s = 1e9 / latency_ns_per_op;
    let gops = config.throughput_gops(op).expect("standard op compiles");
    println!(
        "  {:>8}: {:7.1} ns/op  {:9.0} ops/s  {:6.2} nJ/KB (analytic {:6.2}, err {:.3}%)  {:5.1} GOps/s analytic",
        op.mnemonic(),
        latency_ns_per_op,
        ops_per_s,
        energy_nj_per_kb,
        analytic_nj_per_kb,
        error_frac * 100.0,
        gops,
    );
    Line::default()
        .put("op", op.mnemonic())
        .put("reps", reps)
        .put("latency_ns_per_op", latency_ns_per_op)
        .put("ops_per_s", ops_per_s)
        .put("energy_nj_per_op", energy_nj_per_op)
        .put("energy_nj_per_kb", energy_nj_per_kb)
        .put("analytic_energy_nj_per_kb", analytic_nj_per_kb)
        .put("energy_error_frac", error_frac)
        .put("throughput_gops_analytic", gops)
}

fn run() -> Result<String, String> {
    let config = AmbitConfig::ddr3_module();
    let reps: u64 = if quick_mode() { 4 } else { 64 };
    println!("bench snapshot @ DDR3-1600, {reps} reps/op:");
    let ops = [BitwiseOp::Not, BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor];
    let rows: Vec<Line> = ops.iter().map(|&op| measure(op, reps, &config)).collect();
    let config_line = Line::default()
        .put("timing", "ddr3_1600")
        .put("mode", "overlapped")
        .put("banks", config.banks)
        .put("row_bytes", config.row_bytes)
        .put("reps", reps)
        .put("quick", quick_mode());
    Ok(Doc::new(MODE.schema, config_line).put("ops", rows).to_string())
}

/// Energy agreement with the analytic Table 3 model, per op.
fn gates(_: &Json, rows: &[Row<'_>], errors: &mut Vec<String>) {
    for row in rows {
        if let Some(err) = row.v.get("energy_error_frac").and_then(Json::as_f64) {
            if err > ENERGY_TOLERANCE {
                errors.push(format!(
                    "{}: energy off the analytic Table 3 model by {:.2}% (> {:.0}%)",
                    row.at,
                    err * 100.0,
                    ENERGY_TOLERANCE * 100.0
                ));
            }
        }
    }
}
