//! `hotpath`: the functional data plane in host wall-clock time. Sweeps
//! row widths {1, 4, 8} KB and op mixes {tra, copy, mixed} over the
//! word-parallel charge-share fast path against the forced bit-serial
//! reference ([`ambit_dram::Subarray::set_scalar_reference`]), plus one
//! fault-armed point (which must fall back to the scalar path for replay
//! determinism) and the driver plan-cache hit rate. A `host_io` section
//! gives the host data path in absolute terms: `write_bits` and `read_bits`
//! GB/s at the same row widths, next to a host `memcpy` of the same bytes.

use std::hint::black_box;
use std::time::Instant;

use ambit_core::{AmbitMemory, BitwiseOp};
use ambit_dram::{AapMode, BitRow, DramGeometry, Subarray, TimingParams, Wordline};
use ambit_telemetry::json::Json;

use super::{is_true, Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "hotpath",
    schema: "ambit-bench-hotpath/v2",
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

/// Row widths of the sweep and of the host data-path section.
const ROW_BYTES: [usize; 3] = [1024, 4096, 8192];

/// Numbers every `host_io` row must carry.
const HOST_IO_FIELDS: [&str; 5] = ["row_bytes", "reps", "write_gbps", "read_gbps", "memcpy_gbps"];

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

/// Fastest of `reps` timed calls of `f`, in host ns.
fn best_ns(reps: u64, mut f: impl FnMut()) -> f64 {
    (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos().max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the host data path at one row width: `write_bits` and
/// `read_bits` of an 8-row vector through the DRAM protocol, and a host
/// `memcpy` of the same bytes, each the fastest of `reps` warm passes, in
/// GB/s of row data. Prints the point and returns its row.
fn measure_host_io(row_bytes: usize, reps: u64) -> Line {
    const VECTOR_ROWS: usize = 8;
    let geometry = DramGeometry {
        row_bytes,
        ..DramGeometry::ddr3_module()
    };
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    let bits = VECTOR_ROWS * mem.row_bits();
    let handle = mem.alloc(bits).expect("alloc");
    let data = seeded_row(bits, 0, row_bytes);
    let mut host = vec![false; bits];
    data.unpack_bools(&mut host);
    let bytes = (bits / 8) as f64;

    let write_ns = best_ns(reps, || mem.write_bits(handle, &host).expect("write_bits"));
    let mut back = Vec::new();
    let read_ns = best_ns(reps, || back = mem.read_bits(handle).expect("read_bits"));
    let round_trip = back == host;

    let src = data.to_bytes();
    let mut dst = vec![0u8; src.len()];
    let memcpy_ns = best_ns(reps, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });

    let (write_gbps, read_gbps, memcpy_gbps) = (bytes / write_ns, bytes / read_ns, bytes / memcpy_ns);
    println!(
        "  {row_bytes:>5}B host I/O: write_bits {write_gbps:>7.3} GB/s  read_bits {read_gbps:>7.3} GB/s  memcpy {memcpy_gbps:>8.2} GB/s  round trip {round_trip}"
    );
    Line::default()
        .put("row_bytes", row_bytes)
        .put("reps", reps)
        .put("write_gbps", write_gbps)
        .put("read_gbps", read_gbps)
        .put("memcpy_gbps", memcpy_gbps)
        .put("round_trip", round_trip)
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
    for row_bytes in ROW_BYTES {
        for mix in ["tra", "copy", "mixed"] {
            rows.push(measure_hotpath(row_bytes, mix, reps_tra, 0.0));
        }
    }
    // A fault-armed subarray must fall back to the scalar reference so the
    // deterministic per-bit flip stream replays unchanged.
    rows.push(measure_hotpath(8192, "tra", reps_tra, 0.001));
    let (hits, misses) = measure_plan_cache(reps_cache);
    println!("  plan cache: {reps_cache} same-shape ops -> {hits} hits / {misses} misses");
    let reps_io: u64 = if quick_mode() { 5 } else { 50 };
    println!("host data path, best of {reps_io} passes over an 8-row vector:");
    let host_io: Vec<Line> = ROW_BYTES.iter().map(|&b| measure_host_io(b, reps_io)).collect();

    let plan_cache = Line::default()
        .put("reps", reps_cache)
        .put("hits", hits)
        .put("misses", misses)
        .put("hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    let config = Line::default()
        .put("rows", 8u32)
        .put("reps_tra", reps_tra)
        .put("quick", quick_mode());
    Ok(Doc::new(MODE.schema, config)
        .put("sweep", rows)
        .put("plan_cache", plan_cache)
        .put("host_io", host_io)
        .to_string())
}

/// Byte identity everywhere, the ≥[`TRA_SPEEDUP_FLOOR`] fast-path speedup
/// and the [`HOTPATH_OPS_FLOOR`] absolute floor on fault-free 8 KB TRA, the
/// plan-cache hit rate, and a `host_io` row with every [`HOST_IO_FIELDS`]
/// number and a clean round trip at each of [`ROW_BYTES`].
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
    let host_io = doc.get("host_io").and_then(Json::as_arr).unwrap_or_default();
    for (i, row) in host_io.iter().enumerate() {
        for key in HOST_IO_FIELDS {
            if row.get(key).and_then(Json::as_f64).is_none() {
                errors.push(format!("host_io[{i}]: {key} missing or not a number"));
            }
        }
        if !is_true(row.get("round_trip")) {
            errors.push(format!("host_io[{i}]: read_bits did not return what write_bits wrote"));
        }
    }
    for bytes in ROW_BYTES {
        if !host_io
            .iter()
            .any(|row| row.get("row_bytes").and_then(Json::as_u64) == Some(bytes as u64))
        {
            errors.push(format!("host_io has no {bytes}-byte row"));
        }
    }
}
