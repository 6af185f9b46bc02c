//! Differential-conformance fuzz driver and repro replayer.
//!
//! ```text
//! conformance_replay fuzz [--seed S] [--count N] [--faults] [--profiles] [--multi-channel]
//!                         [--synth]
//! conformance_replay replay <repro.json>
//! ```
//!
//! `fuzz` generates `N` seeded programs and runs each through the N-way
//! execution oracle (eager, batch serial, batch bank-parallel, forced
//! scalar, resilient, plus the CPU golden model). `--faults` arms a slice
//! of the programs with a uniform TRA fault rate; `--profiles` arms a
//! slice with a random device characterization map (variation-aware
//! placement, spare-row pre-remap, per-subarray fault campaign);
//! `--multi-channel` places a slice of the fault-free programs on the
//! two-channel geometry so per-channel command-bus timing is fuzzed under
//! the trace checker; `--synth` lets fault-free programs
//! carry random synthesized truth-table ops, compiled through the
//! `ambit-core::synth` pipeline on every execution path. The first
//! divergence is minimized and written to `CONFORMANCE_repro.json` in the
//! current directory, and the process exits 1. `AMBIT_QUICK=1` caps the
//! default count at 200 programs for CI smoke runs.
//!
//! `replay` loads a repro JSON file and re-runs it: exit 0 if the recorded
//! failure reproduces (same failing paths), exit 2 if it does not.

use std::env;
use std::fs;
use std::process::ExitCode;

use ambit_conformance::{generate, run_oracle, GeneratorConfig, ProgOp, Repro};

const REPRO_FILE: &str = "CONFORMANCE_repro.json";

fn usage() -> ExitCode {
    eprintln!(
        "usage: conformance_replay fuzz [--seed S] [--count N] [--faults] [--profiles] \
         [--multi-channel] [--synth]\n\
         \x20      conformance_replay replay <repro.json>"
    );
    ExitCode::from(64)
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("fuzz") => fuzz(&args[1..]),
        Some("replay") => match args.get(1) {
            Some(path) => replay(path),
            None => usage(),
        },
        _ => usage(),
    }
}

fn fuzz(args: &[String]) -> ExitCode {
    let mut seed: u64 = 1;
    let mut count: usize = if env::var("AMBIT_QUICK").is_ok() { 200 } else { 1000 };
    let mut faults = false;
    let mut profiles = false;
    let mut multi_channel = false;
    let mut synth = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--count" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => count = v,
                None => return usage(),
            },
            "--faults" => faults = true,
            "--profiles" => profiles = true,
            "--multi-channel" => multi_channel = true,
            "--synth" => synth = true,
            _ => return usage(),
        }
    }

    let mut cfg = GeneratorConfig::default();
    if faults {
        cfg.fault_chance = GeneratorConfig::with_faults().fault_chance;
    }
    if profiles {
        cfg.profile_chance = GeneratorConfig::with_profiles().profile_chance;
    }
    if multi_channel {
        cfg.multi_channel_chance = GeneratorConfig::with_multi_channel().multi_channel_chance;
    }
    if synth {
        cfg.synth_chance = GeneratorConfig::with_synth().synth_chance;
    }
    let mut fault_armed = 0usize;
    let mut profile_armed = 0usize;
    let mut dual_channel = 0usize;
    let mut synth_armed = 0usize;
    for i in 0..count {
        let program_seed = seed.wrapping_add(i as u64);
        let program = generate(program_seed, &cfg);
        if program.fault_tra_rate.is_some() {
            fault_armed += 1;
        }
        if program.profile_seed.is_some() {
            profile_armed += 1;
        }
        if program.geometry.geometry().channels > 1 {
            dual_channel += 1;
        }
        if program.ops.iter().any(|op| matches!(op, ProgOp::Synth { .. })) {
            synth_armed += 1;
        }
        let report = run_oracle(&program, None);
        if report.ok() {
            continue;
        }
        eprintln!("seed {program_seed}: divergence detected");
        for f in &report.failures {
            eprintln!("  [{}] {}", f.path, f.detail);
        }
        match Repro::capture(&program, None) {
            Some(repro) => {
                let text = repro.to_json().to_string();
                if let Err(e) = fs::write(REPRO_FILE, &text) {
                    eprintln!("failed to write {REPRO_FILE}: {e}");
                } else {
                    eprintln!(
                        "minimized repro ({} ops, {} vectors) written to {REPRO_FILE}",
                        repro.program.ops.len(),
                        repro.program.vectors.len()
                    );
                }
            }
            // The divergence did not survive re-execution (flaky
            // environment); still report the failure.
            None => eprintln!("divergence did not reproduce during capture"),
        }
        return ExitCode::FAILURE;
    }
    println!(
        "conformance: {count} programs from seed {seed} ({fault_armed} fault-armed, \
         {profile_armed} profile-armed, {dual_channel} dual-channel, {synth_armed} with \
         synthesized ops), 0 divergences"
    );
    ExitCode::SUCCESS
}

fn replay(path: &str) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(66);
        }
    };
    let repro = match Repro::from_json_text(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::from(65);
        }
    };
    let report = repro.replay();
    if repro.reproduces() {
        println!("repro reproduces: {} failing path(s)", report.failures.len());
        for f in &report.failures {
            println!("  [{}] {}", f.path, f.detail);
        }
        ExitCode::SUCCESS
    } else if report.ok() {
        println!("repro does NOT reproduce: all paths now conform");
        ExitCode::from(2)
    } else {
        println!("repro failure set changed:");
        for f in &report.failures {
            println!("  [{}] {}", f.path, f.detail);
        }
        ExitCode::from(2)
    }
}
