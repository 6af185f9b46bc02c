//! Integration tests for the `Send + Sync` data plane: concurrent
//! submitters over disjoint handle sets must leave the memory in the same
//! state as a serial run, and shared references must be readable from many
//! threads at once. Also pins the contract of the
//! `IssuePolicy::BankParallelThreaded` alias: it issues exactly as
//! `BankParallel` (receipts, command traces, memory image, device stats)
//! on single- and two-channel geometries.

use std::sync::Mutex;

use ambit_repro::core::{
    AllocGroup, AmbitMemory, BatchBuilder, BitVectorHandle, BitwiseOp, IssuePolicy,
};
use ambit_repro::dram::{AapMode, DramGeometry, TimingParams};
use ambit_repro::telemetry::Registry;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn tiny() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry::tiny(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

fn tiny_dual_channel() -> AmbitMemory {
    AmbitMemory::new(
        DramGeometry::tiny_dual_channel(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    )
}

const OPS: [BitwiseOp; 7] = [
    BitwiseOp::Not,
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Xor,
    BitwiseOp::Xnor,
];

/// Builds two identical memories with a shared handle pool of `chunks`-row
/// vectors and random contents; handles are identical because allocation
/// order is.
fn mirrored_pools_on(
    seed: u64,
    pool: usize,
    make: fn() -> AmbitMemory,
    chunks: usize,
) -> (AmbitMemory, AmbitMemory, Vec<BitVectorHandle>) {
    let mut a = make();
    let mut b = make();
    let bits = chunks * a.row_bits();
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
    let handles: Vec<BitVectorHandle> = (0..pool)
        .map(|_| {
            let ha = a.alloc(bits).unwrap();
            let hb = b.alloc(bits).unwrap();
            assert_eq!(ha, hb, "mirrored allocation order");
            let data: Vec<bool> = (0..bits).map(|_| rng.gen()).collect();
            a.poke_bits(ha, &data).unwrap();
            b.poke_bits(hb, &data).unwrap();
            ha
        })
        .collect();
    (a, b, handles)
}

/// Draws a random batch over the pool: two-source ops, maj3, and folds,
/// with shared sources and in-place destinations all allowed.
fn random_batch(rng: &mut ChaCha8Rng, h: &[BitVectorHandle], len: usize) -> BatchBuilder {
    let mut batch = BatchBuilder::new();
    for _ in 0..len {
        match rng.gen_range(0u32..8) {
            6 => batch.maj3(
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
                h[rng.gen_range(0..h.len())],
            ),
            7 => {
                let k = rng.gen_range(2..4usize);
                let srcs: Vec<_> = (0..k).map(|_| h[rng.gen_range(0..h.len())]).collect();
                batch.fold(
                    if rng.gen() { BitwiseOp::And } else { BitwiseOp::Or },
                    &srcs,
                    h[rng.gen_range(0..h.len())],
                )
            }
            _ => {
                let op = OPS[rng.gen_range(0..OPS.len())];
                let src2 = (op.source_count() == 2).then(|| h[rng.gen_range(0..h.len())]);
                batch.bitwise(op, h[rng.gen_range(0..h.len())], src2, h[rng.gen_range(0..h.len())])
            }
        };
    }
    batch
}

/// Runs one random batch of `len` ops through `BankParallelThreaded` on
/// one of two mirrored memories and through `BankParallel` on the other,
/// and checks the alias contract: same receipt (timing, energy, busy
/// attribution), same command trace, same timer and device activation
/// stats, same final memory image.
fn check_alias_contract(
    seed: u64,
    len: usize,
    (mut threaded, mut reference, h): (AmbitMemory, AmbitMemory, Vec<BitVectorHandle>),
) -> Result<(), TestCaseError> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    threaded.controller_mut().timer_mut().set_tracing(true);
    reference.controller_mut().timer_mut().set_tracing(true);
    let batch = random_batch(&mut rng, &h, len);

    let rt = threaded.execute_batch(&batch, IssuePolicy::BankParallelThreaded).unwrap();
    let rr = reference.execute_batch(&batch, IssuePolicy::BankParallel).unwrap();

    prop_assert_eq!(&rt, &rr, "receipts diverge");
    prop_assert_eq!(
        threaded.controller().timer().trace().unwrap(),
        reference.controller().timer().trace().unwrap(),
        "command traces diverge"
    );
    prop_assert_eq!(
        threaded.controller().timer().stats(),
        reference.controller().timer().stats()
    );
    prop_assert_eq!(
        threaded.controller().device().stats(),
        reference.controller().device().stats()
    );
    for (i, &handle) in h.iter().enumerate() {
        prop_assert_eq!(
            threaded.peek_bits(handle).unwrap(),
            reference.peek_bits(handle).unwrap(),
            "vector {} diverged", i
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The alias contract: `BankParallelThreaded` is indistinguishable
    /// from `BankParallel` on the single-channel tiny geometry.
    #[test]
    fn threaded_batch_is_byte_identical_to_bank_parallel(seed in any::<u64>(), len in 1usize..10) {
        check_alias_contract(seed, len, mirrored_pools_on(seed, 6, tiny, 2))?;
    }

    /// The same contract on a two-channel geometry, where allocations span
    /// both channels (4 row-chunks across 4 flat banks) and per-channel
    /// bus timing applies.
    #[test]
    fn threaded_batch_is_byte_identical_across_channels(seed in any::<u64>(), len in 1usize..10) {
        check_alias_contract(seed, len, mirrored_pools_on(seed, 4, tiny_dual_channel, 4))?;
    }
}

/// Allocates `a AND b -> d` chains in each of `groups`, mirrored across
/// both memories so handles line up, and returns one batch per group plus
/// every destination handle.
#[allow(clippy::type_complexity)]
fn mirrored_group_batches(
    shared: &mut AmbitMemory,
    serial: &mut AmbitMemory,
    groups: usize,
    per_group: usize,
) -> (Vec<BatchBuilder>, Vec<BitVectorHandle>) {
    let bits = shared.row_bits();
    let mut batches = Vec::new();
    let mut dsts = Vec::new();
    for g in 0..groups {
        let group = AllocGroup(g as u32);
        let mut alloc = |bits| {
            let ha = shared.alloc_in_group(bits, group).unwrap();
            let hb = serial.alloc_in_group(bits, group).unwrap();
            assert_eq!(ha, hb, "mirrored allocation order");
            ha
        };
        let a = alloc(bits);
        let b = alloc(bits);
        let group_dsts: Vec<_> = (0..per_group).map(|_| alloc(bits)).collect();
        let pa: Vec<bool> = (0..bits).map(|i| (i + g) % 2 == 0).collect();
        let pb: Vec<bool> = (0..bits).map(|i| (i + g) % 3 == 0).collect();
        shared.poke_bits(a, &pa).unwrap();
        serial.poke_bits(a, &pa).unwrap();
        shared.poke_bits(b, &pb).unwrap();
        serial.poke_bits(b, &pb).unwrap();
        let mut batch = BatchBuilder::new();
        for &d in &group_dsts {
            batch.bitwise(BitwiseOp::And, a, Some(b), d);
        }
        batches.push(batch);
        dsts.extend(group_dsts);
    }
    (batches, dsts)
}

/// The stress test: N OS threads concurrently submit batches
/// over disjoint handle sets (one bank group each) against one shared
/// memory. Whatever order the scheduler picks, the final memory bytes and
/// the telemetry op counters must be identical to the same programs run
/// serially on a mirrored module.
#[test]
fn concurrent_submitters_over_disjoint_handles_match_serial() {
    let groups = 4;
    let per_group = 8;
    let mut concurrent = AmbitMemory::ddr3_module();
    let mut serial = AmbitMemory::ddr3_module();
    concurrent.set_telemetry(Registry::new());
    serial.set_telemetry(Registry::new());
    let (batches, dsts) = mirrored_group_batches(&mut concurrent, &mut serial, groups, per_group);

    // Concurrent submission: each thread owns one batch and races to
    // lock-and-execute it with bank-parallel issue.
    let shared = Mutex::new(concurrent);
    std::thread::scope(|scope| {
        for batch in &batches {
            scope.spawn(|| {
                let mut mem = shared.lock().unwrap();
                mem.execute_batch(batch, IssuePolicy::BankParallel).unwrap();
            });
        }
    });
    let concurrent = shared.into_inner().unwrap();

    // Serial reference: same batches, fixed order, serial issue.
    for batch in &batches {
        serial.execute_batch(batch, IssuePolicy::Serial).unwrap();
    }

    for (i, &d) in dsts.iter().enumerate() {
        assert_eq!(
            concurrent.peek_bits(d).unwrap(),
            serial.peek_bits(d).unwrap(),
            "destination {i} diverged from the serial reference"
        );
    }
    let ops = |mem: &AmbitMemory| {
        mem.telemetry()
            .unwrap()
            .counter_value("ambit_ops_total", &[("op", "bbop_and")])
    };
    assert_eq!(ops(&concurrent), Some((groups * per_group) as u64));
    assert_eq!(ops(&concurrent), ops(&serial), "telemetry counters diverged");
    assert_eq!(
        concurrent.controller().device().stats(),
        serial.controller().device().stats(),
        "device activation stats diverged"
    );
}

/// `AmbitMemory` is `Sync`: many threads may hold `&AmbitMemory` and read
/// concurrently (the paper's multi-tenant serving story needs shared
/// read-side access between submissions).
#[test]
fn shared_references_read_from_many_threads() {
    let mut mem = tiny();
    let bits = mem.row_bits();
    let h = mem.alloc(bits).unwrap();
    let data: Vec<bool> = (0..bits).map(|i| i % 5 == 0).collect();
    mem.poke_bits(h, &data).unwrap();

    let mem = &mem;
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || mem.peek_bits(h).unwrap()))
            .collect();
        for reader in readers {
            assert_eq!(reader.join().unwrap(), data);
        }
    });
}
