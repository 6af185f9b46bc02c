//! Property-based equivalence of the compiler-generated bit-serial
//! arithmetic kernels: for random lane counts, widths, and data, the
//! synthesized add/sub/compare/popcount paths must agree with the
//! hand-written `arith` kernels and with a scalar CPU reference, and a
//! bitwise-only synthesized full adder must survive fault-armed execution
//! through the resilient executor (golden equality unless the executor
//! declares the run degraded).

use ambit_repro::apps::arith::BitSlicedVector;
use ambit_repro::apps::synth_arith;
use ambit_repro::core::{
    synthesize, AmbitMemory, BoolFunc, IssuePolicy, ResilientConfig, ResilientExecutor,
    SlotRef, SynthOptions, SynthStep,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
use proptest::prelude::*;

/// Taller-than-tiny geometry: the driver's bump allocator never reclaims
/// rows, and each equivalence case allocates both the hand-written and the
/// synthesized kernel's working sets.
fn memory() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry {
            subarrays_per_bank: 4,
            rows_per_subarray: 128,
            ..DramGeometry::tiny()
        },
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

fn values(lanes: usize, width: usize, seed: u64) -> Vec<u32> {
    let mask = if width >= 32 { u32::MAX } else { (1u32 << width) - 1 };
    let mut x = seed | 1;
    (0..lanes)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32 & mask
        })
        .collect()
}

fn policy_strategy() -> impl Strategy<Value = IssuePolicy> {
    prop_oneof![Just(IssuePolicy::Serial), Just(IssuePolicy::BankParallel)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Synthesized ripple add ≡ hand-written add ≡ scalar add mod 2^width.
    #[test]
    fn synth_add_matches_hand_written_and_scalar(
        lanes in 1usize..40,
        width in 1usize..9,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let a = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        let b = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        a.write(&mut mem, &va).unwrap();
        b.write(&mut mem, &vb).unwrap();

        let (hand, _) = a.add(&mut mem, &b).unwrap();
        let (synth, _) = synth_arith::add_synth(&mut mem, &a, &b, policy).unwrap();
        let hand = hand.read(&mem).unwrap();
        let synth = synth.read(&mem).unwrap();
        let mask = (1u32 << width) - 1;
        for i in 0..lanes {
            let scalar = va[i].wrapping_add(vb[i]) & mask;
            prop_assert_eq!(hand[i], scalar, "hand-written add, lane {}", i);
            prop_assert_eq!(synth[i], scalar, "synthesized add, lane {}", i);
        }
    }

    /// Synthesized subtract ≡ hand-written subtract ≡ scalar mod 2^width.
    #[test]
    fn synth_sub_matches_hand_written_and_scalar(
        lanes in 1usize..40,
        width in 1usize..9,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let a = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        let b = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        a.write(&mut mem, &va).unwrap();
        b.write(&mut mem, &vb).unwrap();

        let (hand, _) = a.sub(&mut mem, &b).unwrap();
        let (synth, _) = synth_arith::sub_synth(&mut mem, &a, &b, policy).unwrap();
        let hand = hand.read(&mem).unwrap();
        let synth = synth.read(&mem).unwrap();
        let mask = (1u32 << width) - 1;
        for i in 0..lanes {
            let scalar = va[i].wrapping_sub(vb[i]) & mask;
            prop_assert_eq!(hand[i], scalar, "hand-written sub, lane {}", i);
            prop_assert_eq!(synth[i], scalar, "synthesized sub, lane {}", i);
        }
    }

    /// Synthesized compare ≡ hand-written compare ≡ scalar `<` mask.
    #[test]
    fn synth_compare_matches_hand_written_and_scalar(
        lanes in 1usize..40,
        width in 1usize..9,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed_a);
        // Nudge some lanes into equality so the eq-chain path is exercised.
        let mut vb = values(lanes, width, seed_b);
        for i in (0..lanes).step_by(3) {
            vb[i] = va[i];
        }
        let a = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        let b = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        a.write(&mut mem, &va).unwrap();
        b.write(&mut mem, &vb).unwrap();

        let (hand, _) = a.compare_lt(&mut mem, &b).unwrap();
        let (synth, _) = synth_arith::compare_lt_synth(&mut mem, &a, &b, policy).unwrap();
        let hand = mem.read_bits(hand).unwrap();
        let synth = mem.read_bits(synth).unwrap();
        for i in 0..lanes {
            let scalar = va[i] < vb[i];
            prop_assert_eq!(hand[i], scalar, "hand-written compare, lane {}", i);
            prop_assert_eq!(synth[i], scalar, "synthesized compare, lane {}", i);
        }
    }

    /// Synthesized popcount ≡ hand-written popcount ≡ scalar count_ones.
    #[test]
    fn synth_popcount_matches_hand_written_and_scalar(
        lanes in 1usize..40,
        width in 1usize..9,
        seed in any::<u64>(),
        policy in policy_strategy(),
    ) {
        let mut mem = memory();
        let va = values(lanes, width, seed);
        let a = BitSlicedVector::alloc(&mut mem, lanes, width).unwrap();
        a.write(&mut mem, &va).unwrap();

        let (hand, _) = a.popcount(&mut mem).unwrap();
        let (synth, _) = synth_arith::popcount_synth(&mut mem, &a, policy).unwrap();
        let hand = hand.read(&mem).unwrap();
        let synth = synth.read(&mem).unwrap();
        for i in 0..lanes {
            let scalar = va[i].count_ones();
            prop_assert_eq!(hand[i], scalar, "hand-written popcount, lane {}", i);
            prop_assert_eq!(synth[i], scalar, "synthesized popcount, lane {}", i);
        }
    }

    /// A bitwise-only synthesized full adder, rippled step-by-step through
    /// the fault-armed resilient executor, still produces the scalar sum
    /// unless the executor declares the run degraded.
    #[test]
    fn fault_armed_resilient_runs_recover_the_synthesized_adder(
        width in 1usize..5,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        fault_per_mille in 0u32..50,
    ) {
        // sum = a ^ b ^ cin, carry-out = maj(a, b, cin); bitwise_only
        // lowers away Maj3, the one step shape the resilient front end
        // rejects.
        let sum = BoolFunc::from_table(3, 0x96).unwrap();
        let carry = BoolFunc::from_table(3, 0xE8).unwrap();
        let opts = SynthOptions { bitwise_only: true, ..SynthOptions::default() };
        let plan = synthesize(&[sum, carry], &opts).unwrap();
        prop_assert!(plan.is_bitwise_only());

        let fault_rate = f64::from(fault_per_mille) / 1000.0;
        let mut mem = memory();
        if fault_rate > 0.0 {
            mem.set_tra_fault_rate(fault_rate).unwrap();
        }
        let mut exec = ResilientExecutor::new(mem, ResilientConfig::default());
        let bits = exec.memory().row_bits();
        let lanes = bits;
        let va = values(lanes, width, seed_a);
        let vb = values(lanes, width, seed_b);
        let slice = |vals: &[u32], j: usize| -> Vec<bool> {
            vals.iter().map(|&v| v >> j & 1 == 1).collect()
        };

        // Vertical layout by hand: one resilient row per bit position.
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut r = Vec::new();
        for j in 0..width {
            let (ha, hb, hr) =
                (exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap(), exec.alloc(bits).unwrap());
            exec.write(ha, &slice(&va, j)).unwrap();
            exec.write(hb, &slice(&vb, j)).unwrap();
            a.push(ha);
            b.push(hb);
            r.push(hr);
        }
        let carry = exec.alloc(bits).unwrap();
        exec.write(carry, &vec![false; bits]).unwrap();
        let scratch: Vec<_> =
            (0..plan.scratch_rows()).map(|_| exec.alloc(bits).unwrap()).collect();

        for j in 0..width {
            let resolve = |slot: SlotRef| match slot {
                SlotRef::Input(0) => a[j],
                SlotRef::Input(1) => b[j],
                SlotRef::Input(2) => carry,
                SlotRef::Input(_) => unreachable!("full adder reads 3 inputs"),
                SlotRef::Scratch(s) => scratch[s],
                SlotRef::Output(0) => r[j],
                SlotRef::Output(1) => carry,
                SlotRef::Output(_) => unreachable!("full adder writes 2 outputs"),
            };
            for step in plan.steps() {
                let SynthStep::Bitwise { op, src1, src2, dst } = *step else {
                    panic!("bitwise-only plan contains a Maj3 step");
                };
                exec.bitwise(op, resolve(src1), src2.map(resolve), resolve(dst)).unwrap();
            }
        }

        if !exec.is_degraded() {
            let mask = (1u32 << width) - 1;
            let mut got = vec![0u32; lanes];
            for (j, &rj) in r.iter().enumerate() {
                let bits = exec.read(rj).unwrap();
                for (i, &bit) in bits.iter().enumerate() {
                    got[i] |= u32::from(bit) << j;
                }
            }
            for i in 0..lanes {
                let scalar = va[i].wrapping_add(vb[i]) & mask;
                prop_assert_eq!(got[i], scalar, "recovered adder, lane {}", i);
            }
        }
        // Internal consistency: any detected fault must be accounted for.
        let report = *exec.report();
        if report.faults_detected > 0 {
            prop_assert!(
                report.retries + report.cpu_fallbacks + u64::from(report.corrected_bits > 0) > 0,
                "faults detected but no recovery recorded"
            );
        }
    }
}
