//! Writes and checks the machine-readable `BENCH_*.json` snapshots.
//!
//! ```text
//! bench_snapshot [telemetry|batch|hotpath|characterization|synth] [--out <path>]
//! bench_snapshot --validate <path>
//! ```
//!
//! Each mode writes `BENCH_<mode>.json` (or `--out`); no mode means
//! `telemetry`:
//!
//! * `telemetry`: Figure 9 ops, with metrics-measured energy against the
//!   analytic Table 3 model.
//! * `batch`: a channels × banks sweep of bank-parallel speedup and the
//!   all-banks throughput envelope, in simulated time.
//! * `hotpath`: the word-parallel data plane against the bit-serial
//!   reference in wall-clock time, plus the plan-cache hit rate.
//! * `characterization`: a V/T corner sweep and a profile-blind against
//!   variation-aware placement A/B.
//! * `synth`: the 256-function compile, on-device truth-table checks, and
//!   synthesized against hand-written arithmetic kernels.
//!
//! A snapshot is validated before it is written. `--validate` re-checks a
//! file against the gates its `schema` marker names. `AMBIT_QUICK` shrinks
//! every run without changing its code paths.

use std::process::ExitCode;

use ambit_bench::snapshot::{self, MODES};

const USAGE: &str = "usage: bench_snapshot [telemetry|batch|hotpath|characterization|synth] \
                     [--out <path>] | bench_snapshot --validate <path>";

fn run(args: &[&str]) -> Result<(), Vec<String>> {
    if let ["--validate", path] = args {
        let text =
            std::fs::read_to_string(path).map_err(|e| vec![format!("cannot read {path}: {e}")])?;
        let (mode, n) = snapshot::validate(&text).map_err(|errors| {
            errors.into_iter().map(|e| format!("{path}: {e}")).collect::<Vec<_>>()
        })?;
        println!("{path}: valid {} snapshot, {n} rows pass its gates", mode.schema);
        return Ok(());
    }
    let (name, rest) = match args {
        [name, rest @ ..] if !name.starts_with("--") => (*name, rest),
        _ => (MODES[0].name, args),
    };
    let out = match rest {
        [] => None,
        ["--out", path] => Some(*path),
        _ => return Err(vec![USAGE.into()]),
    };
    let mode = MODES
        .into_iter()
        .find(|m| m.name == name)
        .ok_or_else(|| vec![format!("unknown mode {name:?}; {USAGE}")])?;
    snapshot::publish(mode, out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(errors) => {
            for e in &errors {
                eprintln!("{e}");
            }
            ExitCode::FAILURE
        }
    }
}
