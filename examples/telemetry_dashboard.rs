//! One registry observing the whole Ambit stack: a seeded, deterministic
//! run that exercises every telemetry layer and dumps the results.
//!
//! The workload walks the resilient executor through its three regimes —
//! clean execution, a stuck-at cell that gets remapped to a spare row, and
//! a catastrophic TRA fault rate that degrades the device to CPU
//! execution — while a single [`Registry`] collects:
//!
//! * per-bank ACT/PRE/RD/WR counters and the wordlines-raised histogram
//!   from the command timer,
//! * per-command and per-operation energy/latency histograms,
//! * `ambit_resilient_*` recovery counters mirroring the
//!   [`RecoveryReport`], plus retry/remap/degrade trace events,
//! * `ambit_driver_plan_cache_{hits,misses}` from the compiled-program
//!   cache, and `ambit_charge_share_path_total{path=...}` showing which
//!   activations resolved word-parallel versus through the bit-serial
//!   scalar reference (fault-armed subarrays, like this campaign's, pin
//!   to the scalar path for replay determinism),
//! * the analytic Figure 9 envelope as gauges, for comparison on the same
//!   scrape.
//!
//! Everything downstream of the device model is denominated in *simulated*
//! DRAM time, so the metrics are bit-for-bit reproducible. Run with:
//! `cargo run --release --example telemetry_dashboard`

use ambit_repro::core::{
    AmbitConfig, AmbitError, AmbitMemory, BitwiseOp, ResilientConfig, ResilientExecutor,
};
use ambit_repro::dram::{
    AapMode, CampaignConfig, CellFault, DramGeometry, FaultCampaign, TimingParams,
};
use ambit_repro::telemetry::Registry;

fn main() -> Result<(), AmbitError> {
    let registry = Registry::default();
    let geometry = DramGeometry::tiny();

    // A seeded campaign: weak cells armed for retention decay, planted
    // deterministically. Same seed, same run, same metrics — always.
    let campaign = FaultCampaign::plan(
        CampaignConfig {
            seed: 2017,
            base_tra_rate: 0.0005,
            weak_cells_per_subarray: 2,
            decay_probability: 1.0,
            first_eligible_row: 8,
            ..CampaignConfig::default()
        },
        &geometry,
    )?;

    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.reserve_spare_rows(2)?;
    let mut exec =
        ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign)?;
    exec.set_telemetry(registry.clone());

    // Two row-sized chunks per vector, so the allocator stripes them
    // across both banks and the per-bank counters show real fan-out.
    let bits = 2 * exec.memory().row_bits();
    let a = exec.alloc(bits)?;
    let b = exec.alloc(bits)?;
    let out = exec.alloc(bits)?;
    exec.write(a, &(0..bits).map(|i| i % 2 == 0).collect::<Vec<_>>())?;
    exec.write(b, &(0..bits).map(|i| i % 3 == 0).collect::<Vec<_>>())?;

    // Phase 1: a healthy mixed workload (transient TRA faults possible at
    // the campaign's base rate, retention decay ticking underneath).
    for op in [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor, BitwiseOp::Nand] {
        for _ in 0..4 {
            exec.bitwise(op, a, Some(b), out)?;
        }
    }

    // Phase 2: a stuck-at cell on one replica of the destination — the
    // executor classifies it permanent and remaps the row to a spare.
    let victim = exec.replicas(out)?[0];
    exec.memory_mut().inject_fault(victim, 1, CellFault::StuckAtOne)?;
    exec.bitwise(BitwiseOp::And, a, Some(b), out)?;

    // Phase 3: Table 2's ±25 % process variation (26 % failures per TRA):
    // the executor must degrade to CPU execution to stay correct.
    exec.memory_mut().set_tra_fault_rate(0.26)?;
    exec.bitwise(BitwiseOp::Or, a, Some(b), out)?;
    exec.bitwise(BitwiseOp::Xor, a, Some(b), out)?;

    // Overlay the analytic Figure 9 envelope on the same registry.
    AmbitConfig::ddr3_module().export_telemetry(&registry)?;

    let report = *exec.report();
    println!("# run summary (deterministic, simulated time)");
    println!(
        "#   ops={} faults_detected={} retries={} remaps={} cpu_fallbacks={} degraded={}",
        report.ops,
        report.faults_detected,
        report.retries,
        report.remaps,
        report.cpu_fallbacks,
        report.degraded
    );
    println!();
    print!("{}", registry.render_prometheus());

    let jsonl = registry.export_jsonl();
    println!();
    println!("# trace export: {} JSONL records (spans + events), first 8:", jsonl.lines().count());
    for line in jsonl.lines().take(8) {
        println!("{line}");
    }
    Ok(())
}
