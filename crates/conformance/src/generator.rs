//! The seeded program generator.
//!
//! `generate(seed, &cfg)` deterministically expands a 64-bit seed into a
//! valid [`Program`]: a random environment (timing set, AAP mode, tie-break
//! policy), a random allocation plan partitioned into co-location
//! *families* (vectors sharing a bit length and a driver allocation group —
//! the only operand combinations the driver accepts), and a random DAG of
//! bulk operations over those families. A slice of the seed space is
//! fault-armed: those programs get a TRA fault rate and are restricted to
//! the plain bitwise ops the resilient executor exposes.

use ambit_core::BitwiseOp;
use ambit_dram::{AapMode, TieBreak};

use crate::program::{GeometryKind, ProgOp, Program, TimingKind, VectorSpec};
use crate::refrng::ReferenceRng;

/// Knobs bounding the generated programs.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of co-location families (inclusive range, each ≥ 1).
    pub families: (usize, usize),
    /// Vectors per family (inclusive range; ≥ 2 so binary ops are
    /// expressible).
    pub vectors_per_family: (usize, usize),
    /// Vector length bound in *rows* of the tiny geometry (lengths are
    /// drawn in bits, so odd tails below a row boundary are common).
    pub max_rows_per_vector: usize,
    /// Operation count (inclusive range, each ≥ 1).
    pub ops: (usize, usize),
    /// Probability that a program is fault-armed (0 disables arming;
    /// fault-armed programs are all-bitwise and single-family so the
    /// resilient executor can run them).
    pub fault_chance: f64,
    /// Probability that a program is profile-armed (0 disables): it gets a
    /// random device-characterization seed, and the oracle's resilient
    /// path regenerates that [`ChipProfile`](ambit_circuit::ChipProfile),
    /// installs variation-aware placement, and arms the derived fault
    /// campaign. Profile-armed programs share the fault-armed shape
    /// restrictions (all-bitwise, single-family) and never also carry a
    /// uniform TRA fault rate.
    pub profile_chance: f64,
    /// Probability that a fault-free program targets the two-channel
    /// [`tiny_dual_channel`](ambit_dram::DramGeometry::tiny_dual_channel)
    /// geometry instead of the single-channel tiny one (0 disables). The
    /// draw is gated on the knob being nonzero, so existing configurations
    /// keep their exact draw streams. Armed programs stay single-channel:
    /// the knob exists to fuzz per-channel command-bus timing (per-lane
    /// clocks, column buses and tRRD/tFAW windows) under the
    /// [`TraceChecker`](crate::TraceChecker), which the armed programs'
    /// resilient path does not aim at.
    pub multi_channel_chance: f64,
    /// Probability that a fault-free program is synth-armed (0 disables):
    /// a slice of its ops become random-truth-table [`ProgOp::Synth`] ops,
    /// compiled to MAJ/NOT microprograms by the oracle at execution time.
    /// Gated like `multi_channel_chance`, so existing configurations keep
    /// their exact draw streams. Synth-armed programs get tighter shape
    /// bounds: each synthesized op needs a scratch-row pool co-located
    /// with its family, and the tiny geometry only has 14 data rows per
    /// subarray to hold vectors and scratch together.
    pub synth_chance: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            families: (1, 3),
            vectors_per_family: (2, 4),
            max_rows_per_vector: 3,
            ops: (1, 12),
            fault_chance: 0.0,
            profile_chance: 0.0,
            multi_channel_chance: 0.0,
            synth_chance: 0.0,
        }
    }
}

impl GeneratorConfig {
    /// The default configuration with fault arming enabled for roughly one
    /// program in four.
    pub fn with_faults() -> Self {
        GeneratorConfig { fault_chance: 0.25, ..GeneratorConfig::default() }
    }

    /// The default configuration with profile arming enabled for roughly
    /// one program in four.
    pub fn with_profiles() -> Self {
        GeneratorConfig { profile_chance: 0.25, ..GeneratorConfig::default() }
    }

    /// The default configuration with roughly one fault-free program in
    /// four placed on the two-channel geometry.
    pub fn with_multi_channel() -> Self {
        GeneratorConfig { multi_channel_chance: 0.25, ..GeneratorConfig::default() }
    }

    /// The default configuration with roughly one fault-free program in
    /// four carrying synthesized-function ops.
    pub fn with_synth() -> Self {
        GeneratorConfig { synth_chance: 0.25, ..GeneratorConfig::default() }
    }
}

/// All ten bulk ops (the seven Figure 9 ops plus copy and the two inits).
const BITWISE_OPS: [BitwiseOp; 10] = [
    BitwiseOp::Not,
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Xor,
    BitwiseOp::Xnor,
    BitwiseOp::Copy,
    BitwiseOp::InitZero,
    BitwiseOp::InitOne,
];

fn range(rng: &mut ReferenceRng, (lo, hi): (usize, usize)) -> usize {
    debug_assert!(lo >= 1 && hi >= lo);
    lo + rng.below((hi - lo + 1) as u64) as usize
}

/// Deterministically expands `seed` into a valid program.
///
/// The same `(seed, config)` pair always yields the same program, across
/// runs and machines; the program always passes [`Program::validate`].
pub fn generate(seed: u64, cfg: &GeneratorConfig) -> Program {
    let mut rng = ReferenceRng::with_seed(seed);

    let fault_armed = cfg.fault_chance > 0.0 && rng.chance(cfg.fault_chance);
    // The profile draw is gated on the knob being nonzero so existing
    // fault-only configurations keep their exact draw streams.
    let profile_armed = !fault_armed && cfg.profile_chance > 0.0 && rng.chance(cfg.profile_chance);
    let armed = fault_armed || profile_armed;
    // Same gating for the geometry draw. Armed programs stay on the
    // single-channel tiny geometry (they run the serial resilient path,
    // which the knob is not aimed at). Both tiny variants share a row
    // width, so the choice does not perturb the length draws below.
    let multi_channel =
        !armed && cfg.multi_channel_chance > 0.0 && rng.chance(cfg.multi_channel_chance);
    // Synth arming uses the same gating pattern, and composes freely with
    // the multi-channel draw (synthesized batches on per-channel timing
    // lanes are exactly what we want fuzzed).
    let synth_armed = !armed && cfg.synth_chance > 0.0 && rng.chance(cfg.synth_chance);
    let geometry = if multi_channel { GeometryKind::TinyDual } else { GeometryKind::Tiny };
    let row_bits = geometry.geometry().row_bytes * 8;
    // Fault- and profile-armed programs run through the TMR-replicated
    // resilient executor (3× the footprint plus retry scratch), so keep
    // them small. Synth-armed programs carry per-family scratch pools for
    // their compiled microprograms, so they also get tighter bounds: the
    // tiny subarray's 14 data rows must hold operands and scratch at once.
    let n_families = if armed {
        1
    } else if synth_armed {
        range(&mut rng, (cfg.families.0, cfg.families.1.min(2)))
    } else {
        range(&mut rng, cfg.families)
    };
    let max_rows = if armed || synth_armed {
        cfg.max_rows_per_vector.min(2)
    } else {
        cfg.max_rows_per_vector
    };

    let mut vectors = Vec::new();
    let mut families: Vec<Vec<usize>> = Vec::new();
    for family in 0..n_families {
        let n_vectors = if armed || synth_armed {
            range(&mut rng, (2, cfg.vectors_per_family.1.min(3)))
        } else {
            range(&mut rng, cfg.vectors_per_family)
        };
        // Lengths in bits, biased to land off row boundaries so tail-bit
        // handling stays under test.
        let bits = 1 + rng.below((max_rows * row_bits) as u64) as usize;
        let members = (0..n_vectors)
            .map(|_| {
                vectors.push(VectorSpec {
                    bits,
                    group: family as u32,
                    data_seed: rng.next(),
                });
                vectors.len() - 1
            })
            .collect();
        families.push(members);
    }

    let n_ops = if armed {
        range(&mut rng, (1, 4))
    } else if synth_armed {
        range(&mut rng, (cfg.ops.0, cfg.ops.1.min(8)))
    } else {
        range(&mut rng, cfg.ops)
    };
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let family = &families[rng.below(families.len() as u64) as usize];
        let pick = |rng: &mut ReferenceRng| family[rng.below(family.len() as u64) as usize];
        // Synth-armed programs convert a slice of their ops into random
        // truth tables; the draw is gated on arming so un-armed programs
        // keep their exact op streams.
        if synth_armed && rng.chance(0.35) {
            let n_inputs = 1 + rng.below(3) as usize;
            let table = rng.below(1 << (1u64 << n_inputs));
            let inputs = (0..n_inputs).map(|_| pick(&mut rng)).collect();
            ops.push(ProgOp::Synth { table, inputs, dst: pick(&mut rng) });
            continue;
        }
        let kind = rng.below(100);
        let op = if armed || kind < 70 {
            let op = *rng.pick(&BITWISE_OPS);
            let src1 = pick(&mut rng);
            let src2 = (op.source_count() == 2).then(|| pick(&mut rng));
            ProgOp::Bitwise { op, src1, src2, dst: pick(&mut rng) }
        } else if kind < 85 {
            ProgOp::Maj3 {
                a: pick(&mut rng),
                b: pick(&mut rng),
                c: pick(&mut rng),
                dst: pick(&mut rng),
            }
        } else {
            let op = if rng.below(2) == 0 { BitwiseOp::And } else { BitwiseOp::Or };
            let srcs = (0..range(&mut rng, (2, 4))).map(|_| pick(&mut rng)).collect();
            ProgOp::Fold { op, srcs, dst: pick(&mut rng) }
        };
        ops.push(op);
    }

    let program = Program {
        seed,
        geometry,
        timing: *rng.pick(&TimingKind::ALL),
        aap_mode: if rng.below(2) == 0 { AapMode::Naive } else { AapMode::Overlapped },
        tie_break: *rng.pick(&[TieBreak::Error, TieBreak::Zero, TieBreak::One, TieBreak::Random]),
        fault_tra_rate: fault_armed.then(|| 0.001 * (1 + rng.below(5)) as f64),
        profile_seed: profile_armed.then(|| rng.next()),
        vectors,
        ops,
    };
    debug_assert_eq!(program.validate(), Ok(()));
    program
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = GeneratorConfig::with_faults();
        for seed in 1..50 {
            assert_eq!(generate(seed, &cfg), generate(seed, &cfg));
        }
    }

    #[test]
    fn generated_programs_validate() {
        let cfg = GeneratorConfig::with_faults();
        for seed in 1..500 {
            let p = generate(seed, &cfg);
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn seed_space_covers_all_shapes() {
        let cfg = GeneratorConfig::with_faults();
        let programs: Vec<Program> = (1..400).map(|s| generate(s, &cfg)).collect();
        let any = |f: &dyn Fn(&Program) -> bool| programs.iter().any(f);
        assert!(any(&|p| p.fault_tra_rate.is_some()));
        assert!(any(&|p| p.fault_tra_rate.is_none()));
        assert!(any(&|p| p.ops.iter().any(|o| matches!(o, ProgOp::Maj3 { .. }))));
        assert!(any(&|p| p.ops.iter().any(|o| matches!(o, ProgOp::Fold { .. }))));
        assert!(any(&|p| p.aap_mode == AapMode::Naive));
        assert!(any(&|p| p.timing == TimingKind::Ddr4_2400));
        assert!(any(&|p| p.vectors[0].bits % (p.geometry.geometry().row_bytes * 8) != 0));
        assert!(any(&|p| p.vectors.len() > 4));
        // Fault-armed programs stay resilient-compatible.
        assert!(programs
            .iter()
            .filter(|p| p.fault_tra_rate.is_some())
            .all(Program::resilient_compatible));
        // The fault-only configuration never arms profiles, so its draw
        // streams are untouched by the profile knob.
        assert!(programs.iter().all(|p| p.profile_seed.is_none()));
        // ... and never draws the multi-channel geometry.
        assert!(programs.iter().all(|p| p.geometry == GeometryKind::Tiny));
    }

    #[test]
    fn multi_channel_knob_selects_dual_channel_and_skips_armed_programs() {
        let cfg = GeneratorConfig {
            fault_chance: 0.25,
            multi_channel_chance: 0.5,
            ..GeneratorConfig::default()
        };
        let programs: Vec<Program> = (1..300).map(|s| generate(s, &cfg)).collect();
        for (seed, p) in (1..300u64).zip(&programs) {
            assert_eq!(p, &generate(seed, &cfg), "seed {seed} not deterministic");
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        let dual: Vec<&Program> =
            programs.iter().filter(|p| p.geometry == GeometryKind::TinyDual).collect();
        assert!(!dual.is_empty(), "multi_channel_chance 0.5 drew nothing in 300 seeds");
        assert!(dual.len() < programs.len());
        // Armed programs stay on the single-channel geometry.
        assert!(dual.iter().all(|p| p.fault_tra_rate.is_none() && p.profile_seed.is_none()));
        // The dual-channel name round-trips through the repro format.
        assert_eq!(GeometryKind::from_name("tiny2ch"), Some(GeometryKind::TinyDual));
    }

    #[test]
    fn synth_knob_emits_synth_ops_and_preserves_other_streams() {
        let cfg = GeneratorConfig::with_synth();
        let programs: Vec<Program> = (1..300).map(|s| generate(s, &cfg)).collect();
        for (seed, p) in (1..300u64).zip(&programs) {
            assert_eq!(p, &generate(seed, &cfg), "seed {seed} not deterministic");
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        let synth: Vec<&Program> = programs
            .iter()
            .filter(|p| p.ops.iter().any(|o| matches!(o, ProgOp::Synth { .. })))
            .collect();
        assert!(!synth.is_empty(), "synth_chance 0.25 emitted nothing in 300 seeds");
        assert!(synth.len() < programs.len());
        // Synth ops never land in armed programs (they cannot run the
        // resilient-only path).
        for p in &synth {
            assert!(p.fault_tra_rate.is_none() && p.profile_seed.is_none());
        }
        // The input-arity and table spaces both get explored.
        let arities: std::collections::HashSet<usize> = synth
            .iter()
            .flat_map(|p| p.ops.iter())
            .filter_map(|o| match o {
                ProgOp::Synth { inputs, .. } => Some(inputs.len()),
                _ => None,
            })
            .collect();
        assert!(arities.len() >= 2, "only arities {arities:?} drawn");
        // A zero knob takes no draws at all: the default configuration
        // emits no synth ops and its programs keep the pre-knob shapes
        // (the gating idiom shared with multi_channel_chance).
        let plain: Vec<Program> =
            (1..100).map(|s| generate(s, &GeneratorConfig::default())).collect();
        assert!(plain
            .iter()
            .all(|p| !p.ops.iter().any(|o| matches!(o, ProgOp::Synth { .. }))));
    }

    #[test]
    fn synth_and_multi_channel_knobs_compose() {
        let cfg = GeneratorConfig {
            synth_chance: 0.5,
            multi_channel_chance: 0.5,
            ..GeneratorConfig::default()
        };
        let programs: Vec<Program> = (1..400).map(|s| generate(s, &cfg)).collect();
        // Some dual-channel programs carry synth ops: compiled
        // microprograms issue on per-channel timing lanes.
        assert!(programs.iter().any(|p| {
            p.geometry == GeometryKind::TinyDual
                && p.ops.iter().any(|o| matches!(o, ProgOp::Synth { .. }))
        }));
    }

    #[test]
    fn profile_arming_is_deterministic_exclusive_and_resilient_compatible() {
        let cfg = GeneratorConfig::with_profiles();
        let programs: Vec<Program> = (1..200).map(|s| generate(s, &cfg)).collect();
        for (seed, p) in (1..200u64).zip(&programs) {
            assert_eq!(p, &generate(seed, &cfg), "seed {seed} not deterministic");
            p.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
        let armed: Vec<&Program> =
            programs.iter().filter(|p| p.profile_seed.is_some()).collect();
        assert!(!armed.is_empty(), "profile_chance 0.25 armed nothing in 200 seeds");
        assert!(armed.len() < programs.len());
        for p in &armed {
            // Profile arming is exclusive with uniform fault arming and
            // keeps the resilient-only shape restrictions.
            assert!(p.fault_tra_rate.is_none());
            assert!(p.resilient_compatible());
            assert!(p.vectors.iter().all(|v| v.group == 0));
        }
    }
}
