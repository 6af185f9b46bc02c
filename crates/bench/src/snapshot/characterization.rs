//! `characterization`: characterizes one seeded chip ([`ChipProfile`])
//! across a voltage/temperature corner sweep, checks the profile's
//! byte-stable JSON round trip, then A/B-compares the resilient executor at
//! the worst-case corner: profile-blind placement against variation-aware
//! placement (profile-steered allocation, alloc-time weak-row pre-remap,
//! per-bin retry de-rating) on the same `FaultCampaign::from_profile` load.

use ambit_circuit::{CharacterizationConfig, ChipProfile, CircuitParams};
use ambit_core::{
    AmbitMemory, BitwiseOp, PlacementProfile, ResilienceConfig, ResilientExecutor, SubarrayLayout,
};
use ambit_dram::{AapMode, CampaignConfig, DramGeometry, FaultCampaign, TimingParams};
use ambit_telemetry::json::Json;
use ambit_telemetry::Registry;

use super::{is_true, Doc, Line, Mode, Row};
use crate::quick_mode;

pub(super) const MODE: Mode = Mode {
    name: "characterization",
    schema: "ambit-bench-characterization/v1",
    config: &[
        "banks",
        "subarrays_per_bank",
        "rows_per_subarray",
        "row_bits",
        "trials_per_subarray",
    ],
    rows: "sweep",
    fields: &["voltage", "temperature_c", "effective_level", "min_rate", "max_rate"],
    tag: &["voltage", "temperature_c"],
    gates,
    run,
};

/// Required factor between the profile-blind and variation-aware recovery
/// action counts (retries + remaps + degrades + pre-remaps).
const ACTION_REDUCTION_FLOOR: f64 = 2.0;

/// The blind run must do real recovery work for the comparison to mean
/// anything; below this the A/B is vacuous and the snapshot is rejected.
const MIN_BLIND_ACTIONS: u64 = 4;

/// Base process-variation level of the simulated chip: inside the paper's
/// ±6 % reliable envelope at the nominal corner, marginal once undervolted
/// and heated.
const BASE_VARIATION_LEVEL: f64 = 0.06;

/// The Table 2 worst-case corner the A/B runs at: deepest undervolt and
/// hottest temperature of the sweep.
const AB_VOLTAGE: f64 = 0.8;
const AB_TEMP_C: f64 = 85.0;

/// Target band for the default-placement subarray's TRA failure rate at
/// the worst-case corner: high enough that profile-blind placement pays
/// steady retries, low enough that it stays under the degrade bound (the
/// regime where placement, not abandonment, decides the recovery bill).
const AB_RATE_BAND: (f64, f64) = (0.004, 0.012);

/// The strongest subarray must be genuinely strong at the corner, and not
/// the one blind placement happens to use.
const AB_STRONG_MAX: f64 = 1e-3;

/// Chip-seed scan range: the first seed whose profile puts the blind
/// placement target in [`AB_RATE_BAND`] with a strong alternative is the
/// benchmark chip. Deterministic — the scan order never changes.
const SEED_SCAN_BASE: u64 = 0xC0FF_EE00;
const SEED_SCAN_WIDTH: u64 = 64;

/// Characterization config for the bench geometry at one V/T corner.
fn corner_config(
    geometry: &DramGeometry,
    first_data_row: usize,
    seed: u64,
    trials: u64,
    voltage: f64,
    temperature_c: f64,
) -> CharacterizationConfig {
    let mut cfg = CharacterizationConfig::for_geometry(
        geometry.total_banks(),
        geometry.subarrays_per_bank,
        geometry.rows_per_subarray,
        geometry.row_bits(),
    );
    cfg.seed = seed;
    cfg.first_eligible_row = first_data_row;
    cfg.variation_level = BASE_VARIATION_LEVEL;
    cfg.trials_per_subarray = trials;
    cfg.voltage_scale = voltage;
    cfg.temperature_c = temperature_c;
    cfg
}

/// Scans chip seeds at the worst-case corner for one where profile-blind
/// placement (always subarray flat 0) lands on a marginal subarray while a
/// genuinely strong one exists — the chip for which characterization pays.
fn pick_ab_chip(
    params: &CircuitParams,
    geometry: &DramGeometry,
    first_data_row: usize,
    trials: u64,
) -> Option<ChipProfile> {
    for k in 0..SEED_SCAN_WIDTH {
        let cfg = corner_config(
            geometry,
            first_data_row,
            SEED_SCAN_BASE + k,
            trials,
            AB_VOLTAGE,
            AB_TEMP_C,
        );
        let chip = ChipProfile::characterize(params, &cfg).expect("corner config is valid");
        let rates = chip.rates();
        let blind_rate = rates[0];
        let strongest = rates.iter().copied().fold(f64::INFINITY, f64::min);
        if (AB_RATE_BAND.0..=AB_RATE_BAND.1).contains(&blind_rate)
            && strongest <= AB_STRONG_MAX
            && strongest < blind_rate
        {
            return Some(chip);
        }
    }
    None
}

/// Characterizes the chip seed at one corner, prints a summary of the map
/// and returns its row.
fn measure_corner(
    params: &CircuitParams,
    geometry: &DramGeometry,
    first_data_row: usize,
    seed: u64,
    trials: u64,
    voltage: f64,
    temperature_c: f64,
) -> Line {
    let cfg = corner_config(geometry, first_data_row, seed, trials, voltage, temperature_c);
    let chip = ChipProfile::characterize(params, &cfg).expect("corner config is valid");
    let rates = chip.rates();
    let level = cfg.effective_level();
    let min_rate = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let max_rate = rates.iter().copied().fold(0.0, f64::max);
    let weak_subarrays = chip.weak_subarray_count();
    let weak_cells: usize = chip.weak_cells().iter().map(Vec::len).sum();
    println!(
        "  {voltage:.1} V {temperature_c:>3.0} C: level {level:.3}  rates [{min_rate:.4}, {max_rate:.4}]  weak subarrays {weak_subarrays}  weak cells {weak_cells}"
    );
    Line::default()
        .put("voltage", voltage)
        .put("temperature_c", temperature_c)
        .put("effective_level", level)
        .put("min_rate", min_rate)
        .put("max_rate", max_rate)
        .put("weak_subarrays", weak_subarrays)
        .put("weak_cells", weak_cells)
}

/// Deterministic operand bits (keeps the A/B free of RNG state).
fn seeded_bits(bits: usize, salt: u64) -> Vec<bool> {
    (0..bits)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt);
            (x ^ (x >> 31)).count_ones() % 2 == 1
        })
        .collect()
}

struct AbSide {
    retries: u64,
    remaps: u64,
    degrades: u64,
    preremaps: u64,
    cpu_fallbacks: u64,
    actions: u64,
    finals: Vec<Vec<bool>>,
}

impl AbSide {
    fn line(&self) -> Line {
        Line::default()
            .put("retries", self.retries)
            .put("remaps", self.remaps)
            .put("degrades", self.degrades)
            .put("preremaps", self.preremaps)
            .put("cpu_fallbacks", self.cpu_fallbacks)
            .put("actions", self.actions)
    }
}

/// Runs the A/B workload on one side: same chip, same
/// [`FaultCampaign::from_profile`] fault load, with or without the
/// variation-aware stack (profile-steered placement, alloc-time weak-row
/// pre-remap, per-bin retry de-rating).
fn run_ab_side(chip: &ChipProfile, aware: bool, ops: usize) -> AbSide {
    let geometry = DramGeometry::tiny();
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    if aware {
        mem.install_profile(PlacementProfile {
            order: chip.strength_order(),
            weak_cells: chip.weak_cells(),
            bins: chip.bin_codes(),
        })
        .expect("profile matches the bench geometry");
    }
    mem.reserve_spare_rows(3).expect("spares fit in the subarray");
    let campaign = FaultCampaign::from_profile(
        CampaignConfig {
            seed: 0xBE9C_0001,
            base_tra_rate: 0.0,
            stuck_cells_per_subarray: 0,
            weak_cells_per_subarray: 0,
            decay_probability: 0.0,
            first_eligible_row: chip.config.first_eligible_row,
            ..CampaignConfig::default()
        },
        &geometry,
        &chip.rates(),
        &chip.weak_cells(),
    )
    .expect("profile shape matches the geometry");
    let cfg = if aware {
        ResilienceConfig {
            bin_retry_multipliers: [0.5, 1.0, 2.0],
            ..ResilienceConfig::default()
        }
    } else {
        ResilienceConfig::default()
    };
    let mut exec = ResilientExecutor::with_campaign(mem, cfg, campaign)
        .expect("campaign applies to the bench geometry");
    let registry = Registry::default();
    exec.set_telemetry(registry.clone());

    let bits = exec.memory().row_bits();
    let a = exec.alloc(bits).expect("alloc a");
    let b = exec.alloc(bits).expect("alloc b");
    let out = exec.alloc(bits).expect("alloc out");
    let da = seeded_bits(bits, 0x51);
    let db = seeded_bits(bits, 0xA7);
    exec.write(a, &da).expect("write a");
    exec.write(b, &db).expect("write b");
    let cycle = [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor];
    for k in 0..ops {
        exec.bitwise(cycle[k % cycle.len()], a, Some(b), out)
            .expect("resilient op completes");
    }
    let finals = vec![
        exec.read(a).expect("read a"),
        exec.read(b).expect("read b"),
        exec.read(out).expect("read out"),
    ];
    let report = *exec.report();
    let preremaps = registry
        .counter_value("ambit_characterization_preremaps_total", &[])
        .unwrap_or(0);
    let degrades = u64::from(report.degraded);
    AbSide {
        retries: report.retries,
        remaps: report.remaps,
        degrades,
        preremaps,
        cpu_fallbacks: report.cpu_fallbacks,
        actions: report.retries + report.remaps + degrades + preremaps,
        finals,
    }
}

/// CPU ground truth for the A/B workload's final vector contents.
fn ab_truth(bits: usize, ops: usize) -> Vec<Vec<bool>> {
    let da = seeded_bits(bits, 0x51);
    let db = seeded_bits(bits, 0xA7);
    let cycle = [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor];
    let last = cycle[(ops - 1) % cycle.len()];
    let out = (0..bits)
        .map(|i| last.apply_words(da[i] as u64, db[i] as u64) & 1 == 1)
        .collect();
    vec![da, db, out]
}

fn run() -> Result<String, String> {
    let params = CircuitParams::ddr3_55nm();
    let geometry = DramGeometry::tiny();
    let first_data_row = SubarrayLayout::new(geometry.rows_per_subarray)
        .data_row(0)
        .expect("tiny geometry has data rows");
    let trials: u64 = if quick_mode() { 600 } else { 2_500 };
    let ops: usize = if quick_mode() { 12 } else { 24 };

    let chip = pick_ab_chip(&params, &geometry, first_data_row, trials).ok_or_else(|| {
        format!(
            "no chip seed in [{SEED_SCAN_BASE:#x}, +{SEED_SCAN_WIDTH}) puts blind placement in the {AB_RATE_BAND:?} band with a strong alternative"
        )
    })?;

    // Acceptance: persist -> load -> re-persist must be byte-identical.
    let json_once = chip.to_json();
    let roundtrip_identical = ChipProfile::from_json(&json_once)
        .map(|reloaded| reloaded.to_json() == json_once)
        .unwrap_or(false);

    let corners: &[(f64, f64)] = if quick_mode() {
        &[(1.0, 45.0), (AB_VOLTAGE, AB_TEMP_C)]
    } else {
        &[
            (1.0, 45.0),
            (1.0, 85.0),
            (0.9, 45.0),
            (0.9, 85.0),
            (0.8, 45.0),
            (AB_VOLTAGE, AB_TEMP_C),
        ]
    };
    println!(
        "characterization sweep, chip seed {:#x}, {trials} trials/subarray:",
        chip.config.seed
    );
    let rows: Vec<Line> = corners
        .iter()
        .map(|&(v, t)| {
            measure_corner(&params, &geometry, first_data_row, chip.config.seed, trials, v, t)
        })
        .collect();

    let blind = run_ab_side(&chip, false, ops);
    let aware = run_ab_side(&chip, true, ops);
    let truth = ab_truth(geometry.row_bits(), ops);
    let identical = blind.finals == aware.finals && blind.finals == truth;
    println!(
        "A/B at {AB_VOLTAGE} V {AB_TEMP_C} C, {ops} ops: blind {} actions ({} retries, {} remaps, {} degrades) vs aware {} actions ({} retries, {} remaps, {} preremaps); identical {identical}",
        blind.actions, blind.retries, blind.remaps, blind.degrades,
        aware.actions, aware.retries, aware.remaps, aware.preremaps,
    );

    let cfg = &chip.config;
    let config = Line::default()
        .put("seed", cfg.seed.to_string().as_str())
        .put("banks", cfg.banks)
        .put("subarrays_per_bank", cfg.subarrays_per_bank)
        .put("rows_per_subarray", cfg.rows_per_subarray)
        .put("row_bits", cfg.row_bits)
        .put("trials_per_subarray", cfg.trials_per_subarray)
        .put("base_variation_level", BASE_VARIATION_LEVEL)
        .put("quick", quick_mode());
    let ab = Line::default()
        .put("voltage", AB_VOLTAGE)
        .put("temperature_c", AB_TEMP_C)
        .put("ops", ops)
        .put("blind", blind.line())
        .put("aware", aware.line())
        .put("action_ratio", blind.actions as f64 / aware.actions.max(1) as f64)
        .put("identical", identical);
    Ok(Doc::new(MODE.schema, config)
        .put("profile_roundtrip_identical", roundtrip_identical)
        .put("sweep", rows)
        .put("ab", ab)
        .to_string())
}

/// Byte-stable profile round trip, byte-identical A/B results, and the
/// ≥[`ACTION_REDUCTION_FLOOR`]× recovery-action reduction from
/// variation-aware placement.
fn gates(doc: &Json, _: &[Row<'_>], errors: &mut Vec<String>) {
    if !is_true(doc.get("profile_roundtrip_identical")) {
        errors.push("profile JSON round trip was not byte-identical".into());
    }
    let Some(ab) = doc.get("ab") else {
        errors.push("\"ab\" section missing".into());
        return;
    };
    let actions = |who: &str| ab.get(who).and_then(|s| s.get("actions")).and_then(Json::as_u64);
    match (actions("blind"), actions("aware")) {
        (Some(blind), Some(aware)) => {
            if blind < MIN_BLIND_ACTIONS {
                errors.push(format!(
                    "blind placement saw only {blind} recovery actions (< {MIN_BLIND_ACTIONS}); the A/B is vacuous"
                ));
            }
            if (blind as f64) < ACTION_REDUCTION_FLOOR * aware as f64 {
                errors.push(format!(
                    "variation-aware placement reduced recovery actions only {blind} -> {aware}, below the {ACTION_REDUCTION_FLOOR}x floor"
                ));
            }
        }
        _ => errors.push("ab.blind.actions / ab.aware.actions missing or not integers".into()),
    }
    if !is_true(ab.get("identical")) {
        errors.push("blind and aware final vector contents were not byte-identical".into());
    }
}
