//! Closed-loop benchmark of the Ambit reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bulk-wide --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client in one process issues public-API calls back to back, each
//! only after the previous returned and its outputs were checked against a
//! CPU golden model. With `--trace 0` the run reports the end-to-end
//! metrics; with `--trace 1` it reports the per-layer metrics from spans
//! recorded around each layer's public calls, the standalone layer probes,
//! and the A/B probes (threaded issue, telemetry, tracing). Human-readable
//! lines come first; the last line of standard output is one JSON object.
//! Gated host times take every call at the fastest time of its work class
//! and at a reference clock, so the load of a shared host moves them little
//! (see `LoopResult::ops_per_s` and `LoopResult::clock_scale`).
//! See `WORKLOADS.md` beside this package for the workloads and layer map.

mod apps_mixed;
mod batch_narrow;
mod bulk_wide;
mod common;
mod fault_armed;
mod probes;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::Path;

use ambit_core::IssuePolicy;
use ambit_telemetry::Registry;

use crate::common::{metric, run_loop, Counters, LoopResult, Metric, Workload};
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mib, percentile, threads, timed};

const WORKLOADS: [&str; 4] = ["bulk-wide", "batch-narrow", "apps-mixed", "fault-armed"];

/// Set-ups per run: at least `SETUP_MIN_REPS`, then more while their total
/// stays under `SETUP_BUDGET_S`, up to `SETUP_MAX_REPS`. `setup_s` is the
/// fastest at the reference clock, without the time the benchmark spends
/// checking warm-up outputs. Back-to-back set-ups share the host's load of
/// the moment, so their median moved by half between ten-run sets; the
/// fastest of many is the least disturbed, as for the loop's calls.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.5;

/// Calls per side of each A/B probe (at most the simulated prefix).
const AB_STEPS: u64 = 256;

/// Every per-layer metric, in report order, with its unit. Layers a workload
/// never calls report 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("batch.plan_ns_per_op", "ns"),
    ("batch.waves_per_call", "count"),
    ("driver.plan_cache_hit_ratio", "ratio"),
    ("driver.plan_cache_lookups", "count"),
    ("driver.alloc_us", "us"),
    ("driver.free_us", "us"),
    ("driver.write_ns_per_kib", "ns/KiB"),
    ("driver.read_ns_per_kib", "ns/KiB"),
    ("ops.compile_ns_per_op", "ns"),
    ("synth.compile_us", "us"),
    ("synth.aaps_per_kernel", "count"),
    ("synth.maj3_steps", "count"),
    ("timer.ns_per_cmd", "ns"),
    ("timer.cmds_per_op", "count"),
    ("controller.ns_per_aap", "ns"),
    ("subarray.tra_ns_per_kib", "ns/KiB"),
    ("subarray.copy_gbps", "GB/s"),
    ("host.memcpy_gbps", "GB/s"),
    ("subarray.word_parallel_ratio", "ratio"),
    ("subarray.charge_shares", "count"),
    ("subarray.faulty_tra_ns_per_kib", "ns/KiB"),
    ("pool.dispatch_us", "us"),
    ("pool.warm_dispatch_ratio", "ratio"),
    ("pool.threaded_speedup", "ratio"),
    ("pool.bank_parallel_us_per_call", "us"),
    ("pool.threaded_us_per_call", "us"),
    ("resilient.ns_per_op", "ns"),
    ("resilient.retries_per_op", "count"),
    ("resilient.faults_detected_per_op", "count"),
    ("resilient.scrubs_per_op", "count"),
    ("resilient.cpu_fallback_frac", "fraction"),
    ("resilient.xor_calls_to_degrade", "count"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.detached_us_per_op", "us"),
    ("telemetry.attached_us_per_op", "us"),
    ("apps.scan_us", "us"),
    ("apps.setop_us", "us"),
    ("apps.kernel_us", "us"),
    ("apps.scans_before_oom", "count"),
    ("apps.oom_call_frac", "fraction"),
    ("apps.rebuild_ms", "ms"),
    ("trace.overhead_frac", "fraction"),
    ("trace.untraced_ops_per_s", "ops/s"),
    ("trace.traced_ops_per_s", "ops/s"),
    ("sim.envelope_err_frac", "fraction"),
    ("sim.fingerprint_match", "count"),
];

/// Reference simulated-time fingerprints: `<workload> seed=<n> calls=<k>
/// <totals>` per line. A traced run replays the reference seed's prefix and
/// reports whether it still matches.
const FINGERPRINTS: &str = include_str!("../sim_fingerprint.txt");

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| **w == name).ok_or(format!(
        "unknown workload {name}; expected one of {WORKLOADS:?}"
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Builds the workload: memory, allocations, loaded data and warm-up calls.
/// Returns it with its simulated-prefix length.
fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Result<(Box<dyn Workload>, u64), String> {
    let open = tr.open("workload.setup");
    let out: Result<(Box<dyn Workload>, u64), String> = match name {
        "bulk-wide" => Ok((
            Box::new(bulk_wide::BulkWide::setup(seed, tr)?),
            bulk_wide::SIM_CALLS,
        )),
        "batch-narrow" => Ok((
            Box::new(batch_narrow::BatchNarrow::setup(seed, tr)?),
            batch_narrow::SIM_CALLS,
        )),
        "apps-mixed" => Ok((
            Box::new(apps_mixed::AppsMixed::setup(seed, tr)?),
            apps_mixed::SIM_CALLS,
        )),
        "fault-armed" => Ok((
            Box::new(fault_armed::FaultArmed::setup(seed, tr)?),
            fault_armed::SIM_CALLS,
        )),
        other => Err(format!("unknown workload {other}")),
    };
    tr.close(open);
    out
}

fn main() {
    match run() {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads()
    );
    if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn fingerprint_line(workload: &str, seed: u64, calls: u64, lr: &LoopResult) -> String {
    format!(
        "{workload} seed={seed} calls={calls} {}",
        lr.sim.fingerprint()
    )
}

fn end_to_end(args: &Args) -> Result<(), String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_BUDGET_S && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(built.take());
        let mut tr = Tracer::new(false);
        let (w, ns) = timed(|| setup(args.workload, args.seed, &mut tr));
        built = Some(w?);
        setup_s.push(ns.saturating_sub(tr.golden_ns()) as f64 * 1e-9);
    }
    let (mut w, sim_calls) = built.expect("at least one set-up");
    let mut tr = Tracer::new(false);
    let lr = run_loop(w.as_mut(), &mut tr, args.seconds, sim_calls, None);

    let good = lr.ops - lr.failed_ops;
    let sim_ops = lr.sim_ops.max(1) as f64;
    let mut metrics = Vec::new();
    metric(&mut metrics, "ops_per_s", lr.ops_per_s(), "ops/s");
    metric(&mut metrics, "call_us_p50", lr.call_us(0.50), "us");
    metric(&mut metrics, "call_us_p99", lr.call_us(0.99), "us");
    metric(
        &mut metrics,
        "sim_ns_per_op",
        lr.sim.ps as f64 / 1e3 / sim_ops,
        "ns",
    );
    metric(&mut metrics, "sim_nj_per_op", lr.sim.nj / sim_ops, "nJ");
    metric(
        &mut metrics,
        "setup_s",
        setup_s.iter().copied().fold(f64::INFINITY, f64::min) * lr.clock_scale(),
        "s",
    );
    metric(&mut metrics, "peak_rss_mib", peak_rss_mib(), "MiB");

    // Reported but not gated: both read zero on most workloads, and the
    // envelope error is only meaningful on the Figure 9 geometry.
    let failed_frac = lr.api_errors as f64 / lr.api_calls.max(1) as f64;
    println!(
        "ops attempted={} verified={} failed={}",
        lr.ops, good, lr.failed_ops
    );
    println!(
        "public-API calls={} errors={} failed_frac={failed_frac:?} fraction",
        lr.api_calls, lr.api_errors
    );
    let samples = &lr.call_ns();
    println!("set-ups: {} (fastest is setup_s)", setup_s.len());
    println!(
        "latency samples={} (p99 has {} beyond it) in {} work classes",
        samples.len(),
        samples.len() / 100,
        lr.classes()
    );
    println!(
        "calibration: fastest pass {} ns over reference {} ns; host times scaled by {:?}",
        lr.calibration_ns,
        common::CALIBRATION_REF_NS,
        lr.clock_scale()
    );
    // The plain wall-clock figures, which follow the host's load as much as
    // the program; printed for reference, not gated.
    println!(
        "wall-clock: mean ops_per_s={:?} ops/s, call p50={:?} us, p99={:?} us, setup median={:?} s",
        lr.mean_ops_per_s(),
        percentile(samples, 0.50) / 1e3,
        percentile(samples, 0.99) / 1e3,
        median(&setup_s)
    );
    if args.workload == "bulk-wide" {
        let err = probes::envelope(w.probe_spec().geometry);
        println!("sim_envelope_err_frac={err:?} fraction");
    }
    println!(
        "sim fingerprint: {}",
        fingerprint_line(args.workload, args.seed, sim_calls, &lr)
    );
    for m in &metrics {
        println!("{} = {:?} {}", m.name, m.value, m.unit);
    }
    let correct = lr.failed_ops == 0 && lr.sim_complete;
    print_result(correct, lr.ops, lr.failed_ops, &metrics);
    Ok(())
}

/// Runs `steps` steps of a fresh set-up; used by the A/B probes.
fn ab_side(
    args: &Args,
    steps: u64,
    configure: &dyn Fn(&mut dyn Workload) -> bool,
) -> Result<Option<(LoopResult, Counters)>, String> {
    let mut tr = Tracer::new(false);
    let (mut w, _) = setup(args.workload, args.seed, &mut tr)?;
    if !configure(w.as_mut()) {
        return Ok(None);
    }
    let lr = run_loop(w.as_mut(), &mut tr, 0.0, steps, Some(steps));
    Ok(Some((lr, w.counters())))
}

/// Both sides' loops of an A/B probe, and the `b` side's last counters.
type AbRuns = (Vec<LoopResult>, Vec<LoopResult>, Counters);

/// Runs sides `a` and `b` in A-B-B-A order, so drift in host speed during
/// the probe cancels; `None` if the workload cannot take a configuration.
fn ab_probe(
    args: &Args,
    steps: u64,
    a: &dyn Fn(&mut dyn Workload) -> bool,
    b: &dyn Fn(&mut dyn Workload) -> bool,
) -> Result<Option<AbRuns>, String> {
    let (mut runs_a, mut runs_b, mut counters) = (Vec::new(), Vec::new(), Counters::default());
    for is_a in [true, false, false, true] {
        let configure = if is_a { a } else { b };
        let Some((lr, c)) = ab_side(args, steps, configure)? else {
            return Ok(None);
        };
        if is_a {
            runs_a.push(lr);
        } else {
            runs_b.push(lr);
            counters = c;
        }
    }
    Ok(Some((runs_a, runs_b, counters)))
}

fn mean_of(runs: &[LoopResult], f: impl Fn(&LoopResult) -> f64) -> f64 {
    runs.iter().map(f).sum::<f64>() / runs.len().max(1) as f64
}

fn traced(args: &Args) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Untraced half, then a traced half on a fresh set-up of the same seed.
    let mut off = Tracer::new(false);
    let (mut w, sim_calls) = setup(args.workload, args.seed, &mut off)?;
    let untraced = run_loop(w.as_mut(), &mut off, half, sim_calls, None);
    drop(w);
    let mut tr = Tracer::new(true);
    let (mut w, _) = setup(args.workload, args.seed, &mut tr)?;
    let before = w.counters();
    let traced = run_loop(w.as_mut(), &mut tr, half, sim_calls, None);
    let after = w.counters();
    let identical = untraced.sim == traced.sim && untraced.sim_ops == traced.sim_ops;
    println!(
        "sim identity traced vs untraced: {} ({})",
        if identical { "identical" } else { "DIFFERENT" },
        fingerprint_line(args.workload, args.seed, sim_calls, &traced)
    );

    let mut ms = Vec::new();
    w.layer_metrics(&tr, &mut ms);
    values.extend(ms.into_iter().map(|m| (m.name, m.value)));
    let spec = w.probe_spec();
    let lookups = (after.plan_hits + after.plan_misses) - (before.plan_hits + before.plan_misses);
    values.insert(
        "driver.plan_cache_hit_ratio",
        (after.plan_hits - before.plan_hits) as f64 / lookups.max(1) as f64,
    );
    values.insert("driver.plan_cache_lookups", lookups as f64);
    let shares = (after.word_parallel + after.scalar) - (before.word_parallel + before.scalar);
    values.insert(
        "subarray.word_parallel_ratio",
        (after.word_parallel - before.word_parallel) as f64 / shares.max(1) as f64,
    );
    values.insert("subarray.charge_shares", shares as f64);
    let sim_ops = traced.sim_ops.max(1) as f64;
    values.insert(
        "timer.cmds_per_op",
        (traced.sim.aaps + traced.sim.aps) as f64 / sim_ops,
    );
    values.insert("trace.untraced_ops_per_s", untraced.ops_per_s());
    values.insert("trace.traced_ops_per_s", traced.ops_per_s());
    values.insert(
        "trace.overhead_frac",
        untraced.ops_per_s() / traced.ops_per_s().max(1e-9) - 1.0,
    );
    if let Some((ops, ns)) = tr.span("probe.plan", |_| w.plan_probe()) {
        values.insert("batch.plan_ns_per_op", ns as f64 / ops.max(1) as f64);
    }
    drop(w);

    // Standalone layer probes at the workload's parameters.
    let geometry = spec.geometry;
    let row_bytes = geometry.row_bytes;
    let sp = tr.span("probe.subarray", |_| {
        probes::subarray(row_bytes, spec.fault_rate)
    });
    values.insert("subarray.tra_ns_per_kib", sp.tra_ns_per_kib);
    values.insert("subarray.copy_gbps", sp.copy_gbps);
    values.insert("subarray.faulty_tra_ns_per_kib", sp.faulty_tra_ns_per_kib);
    values.insert("host.memcpy_gbps", sp.memcpy_gbps);
    let t = tr.span("probe.timer", |_| {
        probes::timer(&geometry, traced.sim.aaps, traced.sim.aps)
    });
    values.insert("timer.ns_per_cmd", t);
    let c = tr.span("probe.controller", |_| probes::controller(&geometry));
    values.insert("controller.ns_per_aap", c);
    let c = tr.span("probe.compile", |_| probes::compile_ops(&spec));
    values.insert("ops.compile_ns_per_op", c);
    let s = tr.span("probe.synth", |_| probes::synth());
    values.insert("synth.compile_us", s.compile_us);
    values.insert("synth.aaps_per_kernel", s.aaps_per_kernel);
    values.insert("synth.maj3_steps", s.maj3_steps);
    let (dispatch, warm) = tr.span("probe.pool", |_| probes::pool(threads()));
    values.insert("pool.dispatch_us", dispatch);
    values.insert("pool.warm_dispatch_ratio", warm);
    let (a, f) = tr.span("probe.alloc_free", |_| {
        probes::alloc_free(geometry, spec.vector_bits)
    });
    values.insert("driver.alloc_us", a);
    values.insert("driver.free_us", f);
    let (wr, rd) = tr.span("probe.host_io", |_| {
        probes::host_io(geometry, spec.vector_bits)
    });
    values.insert("driver.write_ns_per_kib", wr);
    values.insert("driver.read_ns_per_kib", rd);
    let e = tr.span("probe.envelope", |_| probes::envelope(geometry));
    values.insert("sim.envelope_err_frac", e);

    // A/B probes on fresh set-ups of the same seed, over the first calls:
    // default issue policy vs threaded, telemetry off vs on.
    let mut ab_ok = true;
    let steps = sim_calls.min(AB_STEPS);
    let default_policy = |w: &mut dyn Workload| w.set_policy(IssuePolicy::default());
    let threaded_policy = |w: &mut dyn Workload| w.set_policy(IssuePolicy::BankParallelThreaded);
    if let Some((d, t, tc)) = ab_probe(args, steps, &default_policy, &threaded_policy)? {
        let same = d
            .iter()
            .chain(&t)
            .all(|lr| lr.sim == d[0].sim && lr.failed_ops == 0);
        ab_ok &= same;
        println!(
            "threaded vs {:?}: receipts {} and outputs checked",
            IssuePolicy::default(),
            if same { "identical" } else { "DIFFERENT" }
        );
        let (d_us, t_us) = (
            mean_of(&d, LoopResult::mean_call_us),
            mean_of(&t, LoopResult::mean_call_us),
        );
        values.insert("pool.bank_parallel_us_per_call", d_us);
        values.insert("pool.threaded_us_per_call", t_us);
        values.insert("pool.threaded_speedup", d_us / t_us.max(1e-9));
        let dispatches = tc.warm_dispatches + tc.cold_spawns;
        if dispatches > 0 {
            values.insert(
                "pool.warm_dispatch_ratio",
                tc.warm_dispatches as f64 / dispatches as f64,
            );
        }
    }
    let detach = |_: &mut dyn Workload| true;
    let attach = |w: &mut dyn Workload| {
        w.attach_telemetry(&Registry::default());
        true
    };
    let (off, on, _) = ab_probe(args, steps, &detach, &attach)?.expect("telemetry sides run");
    ab_ok &= off
        .iter()
        .chain(&on)
        .all(|lr| lr.sim == off[0].sim && lr.failed_ops == 0);
    let per_op = |lr: &LoopResult| lr.api_ns as f64 / lr.ops.max(1) as f64 / 1e3;
    let (off_us, on_us) = (mean_of(&off, per_op), mean_of(&on, per_op));
    values.insert("telemetry.detached_us_per_op", off_us);
    values.insert("telemetry.attached_us_per_op", on_us);
    values.insert("telemetry.overhead_frac", on_us / off_us.max(1e-9) - 1.0);

    // Reference fingerprint: replay the stored seed's prefix.
    let reference = FINGERPRINTS
        .lines()
        .find(|l| l.split_whitespace().next() == Some(args.workload));
    let matched = match reference {
        Some(line) => {
            let field = |k: &str| {
                line.split_whitespace()
                    .find_map(|f| f.strip_prefix(k))
                    .and_then(|v| v.parse::<u64>().ok())
            };
            let (seed, calls) = (
                field("seed=").unwrap_or(1),
                field("calls=").unwrap_or(sim_calls),
            );
            let mut off = Tracer::new(false);
            let (mut w, _) = setup(args.workload, seed, &mut off)?;
            let lr = run_loop(w.as_mut(), &mut off, 0.0, calls, Some(calls));
            let now = fingerprint_line(args.workload, seed, calls, &lr);
            println!("reference fingerprint: stored `{line}`, now `{now}`");
            now == line.trim()
        }
        None => {
            println!("reference fingerprint: none stored for {}", args.workload);
            false
        }
    };
    values.insert("sim.fingerprint_match", f64::from(u8::from(matched)));

    let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
    tr.write(Path::new(&path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("spans written to {path}");
    for (name, self_ns) in tr.self_times() {
        println!("span self time {name}: {:.3} ms", self_ns as f64 / 1e6);
    }

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let v = values.remove(name).unwrap_or(0.0);
        println!("{name} = {v:?} {unit}");
        metric(&mut metrics, name, v, unit);
    }
    assert!(values.is_empty(), "unlisted per-layer metrics: {values:?}");
    let correct = traced.failed_ops == 0 && untraced.failed_ops == 0 && identical && ab_ok;
    print_result(
        correct,
        traced.ops + untraced.ops,
        traced.failed_ops + untraced.failed_ops,
        &metrics,
    );
    Ok(())
}
