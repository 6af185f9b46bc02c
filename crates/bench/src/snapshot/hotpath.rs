//! `hotpath`: the functional data plane in host wall-clock time. Sweeps
//! row widths {1, 4, 8} KB and op mixes {tra, copy, mixed} over the
//! word-parallel charge-share fast path against the forced bit-serial
//! reference ([`ambit_dram::Subarray::set_scalar_reference`]), plus one
//! fault-armed point (which must fall back to the scalar path for replay
//! determinism) and the driver plan-cache hit rate.

use ambit_core::{AmbitMemory, BitwiseOp};
use ambit_dram::{BitRow, Subarray, Wordline};
use ambit_telemetry::json::Json;

use super::{is_true, Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "hotpath",
    schema: "ambit-bench-hotpath/v1",
    config: &["rows", "reps_tra"],
    rows: "sweep",
    fields: &[
        "row_bytes",
        "reps",
        "wall_ns_fast",
        "wall_ns_scalar",
        "ops_per_s_fast",
        "ops_per_s_scalar",
        "speedup",
    ],
    tag: &["mix", "row_bytes", "fault_armed"],
    gates,
    run,
};

/// Required wall-clock speedup of the word-parallel charge-share fast path
/// over the retained scalar reference for fault-free 3-row TRA on 8 KB
/// rows.
const TRA_SPEEDUP_FLOOR: f64 = 10.0;

/// Coarse absolute regression floor on fast-path TRA throughput at 8 KB
/// rows: three orders of magnitude below what a release build measures, so
/// it only trips on a genuine fast-path regression (e.g. falling back to
/// the bit-serial loop), not on a slow CI machine.
const HOTPATH_OPS_FLOOR: f64 = 5_000.0;

/// Required driver plan-cache hit rate for a repeated same-shape op loop.
const PLAN_CACHE_HIT_RATE_FLOOR: f64 = 0.9;

/// Deterministic pseudo-random row content (keeps the bench free of RNG
/// state while still exercising data-dependent TRA outcomes).
fn seeded_row(bits: usize, row: usize, salt: usize) -> BitRow {
    BitRow::from_fn(bits, |i| {
        let x = (i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((row as u64) << 32)
            .wrapping_add(salt as u64);
        (x ^ (x >> 29)).count_ones() % 2 == 1
    })
}

/// Runs one op-mix loop on a subarray and returns a state fingerprint
/// (every row plus the last sensed value) for the byte-identity check.
fn run_hotpath_mix(sa: &mut Subarray, mix: &str, reps: u64) -> Vec<BitRow> {
    let rows = sa.rows();
    let mut last_sense = None;
    for i in 0..reps as usize {
        match mix {
            // Rotating fault-free TRAs: each overwrites its three source
            // rows with their majority, so state evolves across reps.
            "tra" => {
                let wls = [
                    Wordline::data(i % rows),
                    Wordline::data((i + 2) % rows),
                    Wordline::data((i + 5) % rows),
                ];
                last_sense = Some(sa.activate(&wls).expect("TRA executes").clone());
                sa.precharge().expect("precharge after TRA");
            }
            // RowClone-FPM copies: ACTIVATE src, back-to-back ACTIVATE dst.
            "copy" => {
                sa.activate(&[Wordline::data(i % rows)]).expect("activate src");
                last_sense = Some(
                    sa.activate(&[Wordline::data((i + 3) % rows)])
                        .expect("copy activate")
                        .clone(),
                );
                sa.precharge().expect("precharge after copy");
            }
            // Alternating copy and TRA, the shape of a real AAP program.
            "mixed" => {
                if i % 2 == 0 {
                    sa.activate(&[Wordline::data(i % rows)]).expect("activate src");
                    sa.activate(&[Wordline::data((i + 3) % rows)]).expect("copy");
                } else {
                    let wls = [
                        Wordline::data(i % rows),
                        Wordline::data((i + 2) % rows),
                        Wordline::data((i + 5) % rows),
                    ];
                    last_sense = Some(sa.activate(&wls).expect("TRA executes").clone());
                }
                sa.precharge().expect("precharge");
            }
            other => panic!("unknown mix {other}"),
        }
    }
    let mut fingerprint: Vec<BitRow> = (0..rows).map(|r| sa.peek_row(r)).collect();
    fingerprint.extend(last_sense);
    fingerprint
}

/// Measures one (row width, op mix) point: identical seeded subarrays run
/// the same loop with the fast path enabled and forced-scalar, wall-clock
/// timed, and their final states are compared bit for bit. Prints the
/// point and returns its row.
fn measure_hotpath(row_bytes: usize, mix: &str, reps: u64, fault_rate: f64) -> Line {
    const ROWS: usize = 8;
    let bits = row_bytes * 8;
    let mk = |force_scalar: bool| {
        let mut sa = Subarray::new(ROWS, bits);
        sa.set_scalar_reference(force_scalar);
        if fault_rate > 0.0 {
            sa.set_tra_fault_rate(fault_rate).expect("valid rate");
        }
        for r in 0..ROWS {
            sa.poke_row(r, seeded_row(bits, r, row_bytes));
        }
        sa
    };

    let mut fast = mk(false);
    let t0 = std::time::Instant::now();
    let fp_fast = run_hotpath_mix(&mut fast, mix, reps);
    let wall_fast = t0.elapsed();

    let mut scalar = mk(true);
    let t1 = std::time::Instant::now();
    let fp_scalar = run_hotpath_mix(&mut scalar, mix, reps);
    let wall_scalar = t1.elapsed();

    let wall_ns_fast = wall_fast.as_nanos().max(1) as f64;
    let wall_ns_scalar = wall_scalar.as_nanos().max(1) as f64;
    let ops_per_s_fast = reps as f64 * 1e9 / wall_ns_fast;
    let ops_per_s_scalar = reps as f64 * 1e9 / wall_ns_scalar;
    let speedup = wall_ns_scalar / wall_ns_fast;
    let identical = fp_fast == fp_scalar;
    println!(
        "  {row_bytes:>5}B {mix:>5}{}: fast {ops_per_s_fast:>12.0} ops/s  scalar {ops_per_s_scalar:>10.0} ops/s  speedup {speedup:8.1}x  identical {identical}",
        if fault_rate > 0.0 { " (fault-armed)" } else { "" },
    );
    Line::default()
        .put("row_bytes", row_bytes)
        .put("mix", mix)
        .put("fault_armed", fault_rate > 0.0)
        .put("reps", reps)
        .put("wall_ns_fast", wall_ns_fast)
        .put("wall_ns_scalar", wall_ns_scalar)
        .put("ops_per_s_fast", ops_per_s_fast)
        .put("ops_per_s_scalar", ops_per_s_scalar)
        .put("speedup", speedup)
        .put("identical", identical)
}

/// Exercises the driver plan cache with a repeated same-shape query loop
/// (the bitmap-index / BitWeaving access pattern) and returns (hits,
/// misses).
fn measure_plan_cache(reps: u64) -> (u64, u64) {
    let mut mem = AmbitMemory::ddr3_module();
    let bits = mem.row_bits();
    let a = mem.alloc(bits).expect("alloc");
    let b = mem.alloc(bits).expect("alloc");
    let d = mem.alloc(bits).expect("alloc");
    mem.poke_bits(a, &vec![true; bits]).expect("poke");
    mem.poke_bits(b, &vec![false; bits]).expect("poke");
    for _ in 0..reps {
        mem.bitwise(BitwiseOp::And, a, Some(b), d).expect("and");
    }
    mem.plan_cache_stats()
}

fn run() -> Result<String, String> {
    let reps_tra: u64 = if quick_mode() { 6 } else { 24 };
    let reps_cache: u64 = if quick_mode() { 16 } else { 64 };
    println!("hotpath sweep, {reps_tra} reps/point (8-row subarrays):");
    let mut rows = Vec::new();
    for row_bytes in [1024usize, 4096, 8192] {
        for mix in ["tra", "copy", "mixed"] {
            rows.push(measure_hotpath(row_bytes, mix, reps_tra, 0.0));
        }
    }
    // A fault-armed subarray must fall back to the scalar reference so the
    // deterministic per-bit flip stream replays unchanged.
    rows.push(measure_hotpath(8192, "tra", reps_tra, 0.001));
    let (hits, misses) = measure_plan_cache(reps_cache);
    println!("  plan cache: {reps_cache} same-shape ops -> {hits} hits / {misses} misses");

    let plan_cache = Line::default()
        .put("reps", reps_cache)
        .put("hits", hits)
        .put("misses", misses)
        .put("hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    let config = Line::default()
        .put("rows", 8u32)
        .put("reps_tra", reps_tra)
        .put("quick", quick_mode());
    Ok(Doc::new(MODE.schema, config).put("sweep", rows).put("plan_cache", plan_cache).to_string())
}

/// Byte identity everywhere, the ≥[`TRA_SPEEDUP_FLOOR`] fast-path speedup
/// and the [`HOTPATH_OPS_FLOOR`] absolute floor on fault-free 8 KB TRA, and
/// the plan-cache hit rate.
fn gates(doc: &Json, rows: &[Row<'_>], errors: &mut Vec<String>) {
    let mut tra_8k_checked = false;
    for row in rows {
        let num = |key| row.v.get(key).and_then(Json::as_f64);
        if !is_true(row.v.get("identical")) {
            errors.push(format!("{}: fast and scalar paths not byte-identical", row.at));
        }
        let tra_8k = row.v.get("mix").and_then(Json::as_str) == Some("tra")
            && !is_true(row.v.get("fault_armed"))
            && row.v.get("row_bytes").and_then(Json::as_u64) == Some(8192);
        if !tra_8k {
            continue;
        }
        tra_8k_checked = true;
        if let Some(speedup) = num("speedup").filter(|&s| s < TRA_SPEEDUP_FLOOR) {
            errors.push(format!(
                "{}: fault-free 8 KB TRA speedup {speedup:.1}x below the {TRA_SPEEDUP_FLOOR:.0}x floor",
                row.at
            ));
        }
        if let Some(ops) = num("ops_per_s_fast").filter(|&o| o < HOTPATH_OPS_FLOOR) {
            errors.push(format!(
                "{}: fast-path 8 KB TRA throughput {ops:.0} ops/s below the coarse {HOTPATH_OPS_FLOOR:.0} ops/s regression floor",
                row.at
            ));
        }
    }
    if !tra_8k_checked {
        errors.push("sweep has no fault-free 8 KB TRA entry to hold to the speedup floor".into());
    }
    match doc.get("plan_cache").and_then(|p| p.get("hit_rate")).and_then(Json::as_f64) {
        Some(rate) if rate >= PLAN_CACHE_HIT_RATE_FLOOR => {}
        Some(rate) => errors.push(format!(
            "plan cache hit rate {rate:.3} below the {PLAN_CACHE_HIT_RATE_FLOOR} floor"
        )),
        None => errors.push("plan_cache.hit_rate missing or not a number".into()),
    }
}
