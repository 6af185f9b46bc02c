//! Verifies the exact DRAM command sequences Ambit programs emit, against
//! the paper's Figure 8 — at the command-trace level, the way a logic
//! analyzer on the DDR bus would see them.

use ambit_conformance::TraceChecker;
use ambit_repro::core::{AmbitController, AmbitMemory, BitwiseOp, RowAddress};
use ambit_repro::dram::{AapMode, BankId, DramGeometry, TimerStats, TimingParams, TraceCommand};

fn traced_controller() -> AmbitController {
    let mut ctrl = AmbitController::new(
        DramGeometry::tiny(),
        TimingParams::ddr3_1600(),
        AapMode::Overlapped,
    );
    ctrl.timer_mut().set_tracing(true);
    ctrl
}

fn wordline_counts(ctrl: &AmbitController) -> Vec<(usize, &'static str)> {
    ctrl.timer()
        .trace()
        .expect("tracing enabled")
        .iter()
        .map(|e| match e.command {
            TraceCommand::Activate { wordlines, .. } => (wordlines, "ACT"),
            TraceCommand::Precharge => (0, "PRE"),
            TraceCommand::Read => (0, "RD"),
            TraceCommand::Write => (0, "WR"),
        })
        .collect()
}

/// Every trace in this file must also satisfy the generic DDR sequencing
/// invariants enforced by the conformance checker.
fn assert_trace_clean(ctrl: &AmbitController) {
    let checker = TraceChecker::new(TimingParams::ddr3_1600(), AapMode::Overlapped);
    checker
        .assert_clean(ctrl.timer().trace().expect("tracing enabled"))
        .unwrap();
}

#[test]
fn and_trace_matches_figure_8a() {
    let mut ctrl = traced_controller();
    ctrl.execute(
        BitwiseOp::And,
        BankId::zero(),
        0,
        RowAddress::D(0),
        Some(RowAddress::D(1)),
        RowAddress::D(2),
    )
    .unwrap();
    // Figure 8a: AAP(Di,B0); AAP(Dj,B1); AAP(C0,B2); AAP(B12,Dk).
    // On the bus: three plain AAPs then ACT(3 wordlines), ACT, PRE.
    let expect = vec![
        (1, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(Di, B0)
        (1, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(Dj, B1)
        (1, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(C0, B2)
        (3, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(B12 → TRA, Dk)
    ];
    assert_eq!(wordline_counts(&ctrl), expect);
    assert_trace_clean(&ctrl);
}

#[test]
fn not_trace_matches_section_5_2() {
    let mut ctrl = traced_controller();
    ctrl.execute(
        BitwiseOp::Not,
        BankId::zero(),
        0,
        RowAddress::D(0),
        None,
        RowAddress::D(1),
    )
    .unwrap();
    // Section 5.2: ACTIVATE Di; ACTIVATE B5; PRECHARGE;
    //              ACTIVATE B4; ACTIVATE Dk; PRECHARGE.
    let expect = vec![
        (1, "ACT"), (1, "ACT"), (0, "PRE"),
        (1, "ACT"), (1, "ACT"), (0, "PRE"),
    ];
    assert_eq!(wordline_counts(&ctrl), expect);
    assert_trace_clean(&ctrl);
}

#[test]
fn xor_trace_matches_figure_8c() {
    let mut ctrl = traced_controller();
    ctrl.execute(
        BitwiseOp::Xor,
        BankId::zero(),
        0,
        RowAddress::D(0),
        Some(RowAddress::D(1)),
        RowAddress::D(2),
    )
    .unwrap();
    // Figure 8c: AAP(Di,B8); AAP(Dj,B9); AAP(C0,B10); AP(B14); AP(B15);
    //            AAP(C1,B2); AAP(B12,Dk).
    // B8/B9/B10 raise two wordlines; B14/B15/B12 raise three.
    let expect = vec![
        (1, "ACT"), (2, "ACT"), (0, "PRE"), // AAP(Di, B8)
        (1, "ACT"), (2, "ACT"), (0, "PRE"), // AAP(Dj, B9)
        (1, "ACT"), (2, "ACT"), (0, "PRE"), // AAP(C0, B10)
        (3, "ACT"), (0, "PRE"),             // AP(B14)
        (3, "ACT"), (0, "PRE"),             // AP(B15)
        (1, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(C1, B2)
        (3, "ACT"), (1, "ACT"), (0, "PRE"), // AAP(B12, Dk)
    ];
    assert_eq!(wordline_counts(&ctrl), expect);
    assert_trace_clean(&ctrl);
}

#[test]
fn trace_timing_matches_receipt() {
    let mut ctrl = traced_controller();
    let receipt = ctrl
        .execute(
            BitwiseOp::And,
            BankId::zero(),
            0,
            RowAddress::D(0),
            Some(RowAddress::D(1)),
            RowAddress::D(2),
        )
        .unwrap();
    let trace = ctrl.timer().trace().unwrap();
    assert_eq!(trace.first().unwrap().at_ps, receipt.start_ps);
    // The receipt's end is tRP after the final PRECHARGE's issue.
    let last_pre = trace.last().unwrap();
    assert_eq!(last_pre.at_ps + 10_000, receipt.end_ps);
    assert_trace_clean(&ctrl);
}

/// A host write and read through the DRAM protocol: three 256-byte chunks
/// (the last one partial), four column bursts per row. The command counts,
/// the issue time of every command, the column accesses the subarrays saw
/// and the receipt of a following op are pinned, so a change to how host
/// data is packed cannot move simulated time.
#[test]
fn host_write_and_read_trace_is_clean_with_pinned_timing() {
    let geometry = DramGeometry {
        row_bytes: 256,
        ..DramGeometry::tiny()
    };
    let mut mem = AmbitMemory::new(geometry, TimingParams::ddr3_1600(), AapMode::Overlapped);
    mem.controller_mut().timer_mut().set_tracing(true);
    let bits = 2 * mem.row_bits() + 37;
    let (a, b, out) = (
        mem.alloc(bits).unwrap(),
        mem.alloc(bits).unwrap(),
        mem.alloc(bits).unwrap(),
    );
    let data: Vec<bool> = (0..bits).map(|i| i % 3 == 0 || i % 7 == 1).collect();
    mem.write_bits(a, &data).unwrap();
    let after_write = mem.now_ps();
    assert_eq!(mem.read_bits(a).unwrap(), data);
    let after_read = mem.now_ps();

    assert_trace_clean(mem.controller());
    let issue_ps: Vec<u64> = mem.controller().timer().trace().unwrap().iter().map(|e| e.at_ps).collect();
    assert_eq!(issue_ps, PINNED_ISSUE_PS);
    assert_eq!(
        mem.controller().timer().stats(),
        TimerStats { activates: 6, precharges: 6, reads: 12, writes: 12, aaps: 0, aps: 0 }
    );
    // One column write per row; the protocol read takes the row from the
    // sense amplifiers without a column access on the functional model.
    let sa = mem.controller().device().stats();
    assert_eq!((sa.column_reads, sa.column_writes), (0, 3));
    assert_eq!((after_write, after_read), PINNED_NOW_PS);

    mem.poke_bits(b, &vec![true; bits]).unwrap();
    let receipt = mem.bitwise(BitwiseOp::And, a, Some(b), out).unwrap();
    assert_eq!((receipt.start_ps, receipt.end_ps), PINNED_RECEIPT_PS);
    assert_eq!(mem.read_bits(out).unwrap(), data);
}

/// Per chunk: ACTIVATE, four column bursts 5 ns (tCCD) apart, PRECHARGE.
const PINNED_ISSUE_PS: [u64; 36] = [
    0, 10_000, 15_000, 20_000, 25_000, 50_000, // write, chunk 0 (bank 0)
    41_250, 51_250, 56_250, 61_250, 66_250, 91_250, // write, chunk 1 (bank 1)
    82_500, 92_500, 97_500, 102_500, 107_500, 132_500, // write, chunk 2 (bank 0)
    142_500, 152_500, 157_500, 162_500, 167_500, 182_500, // read, chunk 0
    183_750, 193_750, 198_750, 203_750, 208_750, 223_750, // read, chunk 1
    225_000, 235_000, 240_000, 245_000, 250_000, 265_000, // read, chunk 2
];
const PINNED_NOW_PS: (u64, u64) = (123_750, 266_250);
const PINNED_RECEIPT_PS: (u64, u64) = (275_000, 667_000);
