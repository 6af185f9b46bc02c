//! The Ambit controller: executes AAP/AP command programs against the
//! functional DRAM model while accounting timing and energy
//! (paper Sections 5.2–5.5).

use std::collections::HashSet;

use ambit_dram::{
    AapMode, BankId, BitRow, CampaignTick, CommandTimer, DramDevice, DramError, DramGeometry,
    EnergyModel, FaultCampaign, RefreshScheduler, TimingParams,
};
use ambit_telemetry::Registry;

use crate::addressing::{RowAddress, SubarrayLayout};
use crate::error::{AmbitError, Result};
use crate::ops::{compile, AmbitCmd, BitwiseOp};

/// Timing/energy receipt for one executed command program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpReceipt {
    /// Issue time of the program's first command, picoseconds.
    pub start_ps: u64,
    /// Time the bank is ready after the program's last precharge.
    pub end_ps: u64,
    /// Energy consumed by the program, nanojoules.
    pub energy_nj: f64,
    /// AAP primitives executed.
    pub aaps: usize,
    /// AP primitives executed.
    pub aps: usize,
}

impl OpReceipt {
    /// Program latency in picoseconds.
    pub fn latency_ps(&self) -> u64 {
        self.end_ps - self.start_ps
    }

    /// Merges another receipt executed on the same timeline (e.g. the next
    /// chunk of a multi-row operation): extends the window and sums energy.
    pub fn absorb(&mut self, other: &OpReceipt) {
        self.start_ps = self.start_ps.min(other.start_ps);
        self.end_ps = self.end_ps.max(other.end_ps);
        self.energy_nj += other.energy_nj;
        self.aaps += other.aaps;
        self.aps += other.aps;
    }
}

/// The Ambit memory controller plus the Ambit DRAM device it drives.
///
/// Owns the functional device, the command-timing engine, and the subarray
/// layout. Higher layers (`driver`, `isa`) allocate data rows and translate
/// bitvector operations into per-subarray programs executed here.
///
/// # Examples
///
/// ```
/// use ambit_core::{AmbitController, BitwiseOp, RowAddress};
/// use ambit_dram::{AapMode, BankId, BitRow, DramGeometry, TimingParams};
///
/// let mut ctrl = AmbitController::new(
///     DramGeometry::tiny(),
///     TimingParams::ddr3_1600(),
///     AapMode::Overlapped,
/// );
/// let bank = BankId::zero();
/// let bits = ctrl.row_bits();
/// ctrl.poke_data(bank, 0, 0, &BitRow::ones(bits))?;
/// ctrl.poke_data(bank, 0, 1, &BitRow::zeros(bits))?;
/// let receipt = ctrl.execute(
///     BitwiseOp::Or,
///     bank,
///     0,
///     RowAddress::D(0),
///     Some(RowAddress::D(1)),
///     RowAddress::D(2),
/// )?;
/// assert_eq!(ctrl.peek_data(bank, 0, 2)?.count_ones(), bits);
/// assert_eq!(receipt.aaps, 4); // Figure 8a: and/or is four AAPs
/// # Ok::<(), ambit_core::AmbitError>(())
/// ```
#[derive(Debug)]
pub struct AmbitController {
    device: DramDevice,
    timer: CommandTimer,
    layout: SubarrayLayout,
    /// Subarrays whose control rows have been initialized.
    control_ready: HashSet<(usize, usize)>,
    /// Subarray-level parallelism: each (bank, subarray) pair gets its own
    /// timing pipeline and per-subarray precharges.
    salp: bool,
}

impl AmbitController {
    /// Creates a controller over a fresh device of the given geometry.
    pub fn new(geometry: DramGeometry, timing: TimingParams, mode: AapMode) -> Self {
        let mut timer = CommandTimer::new(timing, mode);
        // The DDR command/data bus is a per-channel resource: timing
        // pipelines [c·stride, (c+1)·stride) belong to channel c and share
        // one bus lane. For single-channel geometries every pipeline lands
        // on lane 0, which is exactly the historical single-global-bus
        // behavior.
        timer.set_channel_stride(geometry.ranks * geometry.banks);
        AmbitController {
            device: DramDevice::new(geometry),
            timer,
            layout: SubarrayLayout::new(geometry.rows_per_subarray),
            control_ready: HashSet::new(),
            salp: false,
        }
    }

    /// Enables subarray-level parallelism (SALP, Kim et al. ISCA'12):
    /// different subarrays of the same bank run their AAP pipelines
    /// concurrently — the second memory-level-parallelism axis the paper's
    /// introduction points at ("number of banks or subarrays", citing SALP).
    ///
    /// # Panics
    ///
    /// Panics if any bank currently has an open row.
    pub fn set_salp(&mut self, salp: bool) {
        self.salp = salp;
        let geometry = *self.device.geometry();
        // SALP multiplies the timing-pipeline space per bank, so the
        // per-channel lane boundary moves with it.
        let per_bank = if salp { geometry.subarrays_per_bank } else { 1 };
        self.timer
            .set_channel_stride(geometry.ranks * geometry.banks * per_bank);
        for flat in 0..geometry.total_banks() {
            let id = BankId::from_flat_index(flat, &geometry);
            self.device.bank_mut(id).set_salp(salp);
        }
    }

    /// Whether SALP is enabled.
    pub fn salp(&self) -> bool {
        self.salp
    }

    /// Timing-pipeline index for a (bank, subarray) pair: per-bank without
    /// SALP, per-subarray with it.
    fn timer_index(&self, flat_bank: usize, subarray: usize) -> usize {
        if self.salp {
            flat_bank * self.device.geometry().subarrays_per_bank + subarray
        } else {
            flat_bank
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DramGeometry {
        self.device.geometry()
    }

    /// Row width in bits.
    pub fn row_bits(&self) -> usize {
        self.device.geometry().row_bits()
    }

    /// The subarray layout (reserved-row placement and B-group decode).
    pub fn layout(&self) -> &SubarrayLayout {
        &self.layout
    }

    /// The underlying functional device (read-only).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Mutable access to the functional device, for fault-injection
    /// campaigns and tests. Production code paths never need this.
    pub fn device_mut(&mut self) -> &mut DramDevice {
        &mut self.device
    }

    /// The command-timing engine (read-only; exposes time/energy/stats).
    pub fn timer(&self) -> &CommandTimer {
        &self.timer
    }

    /// Mutable access to the timing engine — e.g. to enable command
    /// tracing (`set_tracing`) or inter-bank constraint enforcement.
    pub fn timer_mut(&mut self) -> &mut CommandTimer {
        &mut self.timer
    }

    /// Advances a fault campaign's clock: catches the refresh scheduler up
    /// to the controller's current time and arms any retention-decay faults
    /// for the refresh windows that elapsed. This lives on the controller
    /// because the campaign needs the timer and the device simultaneously.
    pub fn campaign_tick(
        &mut self,
        campaign: &mut FaultCampaign,
        scheduler: &mut RefreshScheduler,
    ) -> CampaignTick {
        campaign.catch_up(scheduler, &mut self.timer, &mut self.device)
    }

    /// Replaces the energy model used for accounting.
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.timer.set_energy_model(model);
    }

    /// Attaches a telemetry registry to the command timer and the device:
    /// every issued command updates per-bank ACT/PRE/RD/WR counters, the
    /// wordlines-raised histogram, and the per-command energy histogram, and
    /// every multi-row charge share increments the word-parallel vs scalar
    /// path-split counter.
    pub fn set_telemetry(&mut self, registry: Registry) {
        self.device.set_telemetry(&registry);
        self.timer.set_telemetry(registry);
    }

    /// Enables cross-bank tRRD/tFAW enforcement (ablation; default off).
    pub fn set_enforce_inter_bank(&mut self, enforce: bool) {
        self.timer.set_enforce_inter_bank(enforce);
    }

    /// Closes any row the command timer has open on the timing pipeline
    /// that runs programs for `(bank, subarray)`. Required before AAP
    /// programs when regular read/write traffic shares the timer: traffic
    /// leaves rows open for row-buffer locality, but AAP/AP must start from
    /// the precharged state.
    ///
    /// # Errors
    ///
    /// Propagates protocol errors from the precharge.
    pub fn close_open_row(&mut self, bank: BankId, subarray: usize) -> Result<()> {
        let flat = self.timer_index(bank.flat_index(self.device.geometry()), subarray);
        if self.timer.bank_active(flat) {
            self.timer.issue_precharge(flat)?;
        }
        Ok(())
    }

    /// Executes one bulk bitwise operation on a single row triple within
    /// `(bank, subarray)`: `dst = op(src1, src2)`, all addresses in that
    /// subarray's address space.
    ///
    /// # Errors
    ///
    /// * [`AmbitError::ControlRowWrite`] if `dst` is a control row.
    /// * [`AmbitError::WrongOperandCount`] on arity mismatch.
    /// * Address and DRAM protocol errors from the underlying layers.
    pub fn execute(
        &mut self,
        op: BitwiseOp,
        bank: BankId,
        subarray: usize,
        src1: RowAddress,
        src2: Option<RowAddress>,
        dst: RowAddress,
    ) -> Result<OpReceipt> {
        if matches!(dst, RowAddress::C(_)) {
            return Err(AmbitError::ControlRowWrite);
        }
        let program = compile(op, src1, src2, dst)?;
        self.run_program(bank, subarray, &program)
    }

    /// Executes an arbitrary AAP/AP command program within one subarray.
    /// This is the extension point for multi-step accelerated kernels that
    /// keep intermediates in the designated rows (e.g. BitWeaving's
    /// predicate evaluation).
    ///
    /// # Errors
    ///
    /// Propagates address-decode and DRAM protocol errors.
    pub fn run_program(
        &mut self,
        bank: BankId,
        subarray: usize,
        program: &[AmbitCmd],
    ) -> Result<OpReceipt> {
        let flat = self.timer_index(bank.flat_index(self.device.geometry()), subarray);
        self.ensure_control_rows(bank, subarray);
        let salp = self.salp;

        // Receipts account the *channel lane's* energy delta, not the
        // device total: with per-channel energy accumulators a program's
        // delta is a pure function of its own lane's command sequence. On
        // single-channel geometries lane 0 is the device total anyway.
        let energy_before = self.timer.bank_energy_nj(flat);
        let mut start_ps = None;
        let mut end_ps = 0;
        let mut aaps = 0;
        let mut aps = 0;

        for cmd in program {
            match *cmd {
                AmbitCmd::Aap(a1, a2) => {
                    let wl1 = self.layout.decode(a1)?;
                    let wl2 = self.layout.decode(a2)?;
                    {
                        let b = self.device.bank_mut(bank);
                        b.activate(subarray, &wl1)?;
                        b.activate(subarray, &wl2)?;
                        if salp {
                            b.precharge_subarray(subarray)?;
                        } else {
                            b.precharge()?;
                        }
                    }
                    let (s, e) = self.timer.aap_tagged(
                        flat,
                        (wl1.len(), wl1.first().map(|w| w.row)),
                        (wl2.len(), wl2.first().map(|w| w.row)),
                    )?;
                    start_ps.get_or_insert(s);
                    end_ps = e;
                    aaps += 1;
                }
                AmbitCmd::Ap(a) => {
                    let wl = self.layout.decode(a)?;
                    {
                        let b = self.device.bank_mut(bank);
                        b.activate(subarray, &wl)?;
                        if salp {
                            b.precharge_subarray(subarray)?;
                        } else {
                            b.precharge()?;
                        }
                    }
                    let (s, e) = self.timer.ap_tagged(flat, (wl.len(), wl.first().map(|w| w.row)))?;
                    start_ps.get_or_insert(s);
                    end_ps = e;
                    aps += 1;
                }
            }
        }

        Ok(OpReceipt {
            start_ps: start_ps.unwrap_or(self.timer.bank_now_ps(flat)),
            end_ps: end_ps.max(start_ps.unwrap_or(0)),
            energy_nj: self.timer.bank_energy_nj(flat) - energy_before,
            aaps,
            aps,
        })
    }

    /// Reads data row `Dk` through the DRAM protocol (ACTIVATE, column
    /// reads, PRECHARGE), accounting channel time and energy.
    ///
    /// # Errors
    ///
    /// Propagates address and protocol errors.
    pub fn read_data(&mut self, bank: BankId, subarray: usize, k: usize) -> Result<BitRow> {
        let row = self.layout.data_row(k)?;
        let flat = bank.flat_index(self.device.geometry());
        let lines = self.device.geometry().row_bytes.div_ceil(64);
        self.timer.issue_activate_tagged(flat, 1, Some(row))?;
        let mut last = self.timer.now_ps();
        for _ in 0..lines {
            last = self.timer.issue_read(flat)?;
        }
        self.timer.advance_to(last);
        self.timer.issue_precharge(flat)?;

        let b = self.device.bank_mut(bank);
        b.activate(subarray, &[ambit_dram::Wordline::data(row)])?;
        let data = b
            .sense()
            .ok_or(AmbitError::Dram(DramError::BankNotActivated))?
            .clone();
        b.precharge()?;
        Ok(data)
    }

    /// Writes data row `Dk` through the DRAM protocol, accounting channel
    /// time and energy.
    ///
    /// # Errors
    ///
    /// Returns [`AmbitError::SizeMismatch`] if `data` does not match the
    /// row width; propagates address and protocol errors.
    pub fn write_data(
        &mut self,
        bank: BankId,
        subarray: usize,
        k: usize,
        data: &BitRow,
    ) -> Result<()> {
        if data.len() != self.row_bits() {
            return Err(AmbitError::SizeMismatch {
                left_bits: data.len(),
                right_bits: self.row_bits(),
            });
        }
        let row = self.layout.data_row(k)?;
        let flat = bank.flat_index(self.device.geometry());
        let lines = self.device.geometry().row_bytes.div_ceil(64);
        self.timer.issue_activate_tagged(flat, 1, Some(row))?;
        let mut last = self.timer.now_ps();
        for _ in 0..lines {
            last = self.timer.issue_write(flat)?;
        }
        self.timer.advance_to(last);
        self.timer.issue_precharge(flat)?;

        let b = self.device.bank_mut(bank);
        b.activate(subarray, &[ambit_dram::Wordline::data(row)])?;
        b.write_bytes(0, &data.to_bytes())?;
        b.precharge()?;
        Ok(())
    }

    /// Backdoor write of data row `Dk` (no protocol, no timing): used for
    /// bulk test setup and workload initialization where load time is not
    /// part of the measured experiment.
    ///
    /// # Errors
    ///
    /// Returns an address error if `k` is out of the D-group.
    pub fn poke_data(
        &mut self,
        bank: BankId,
        subarray: usize,
        k: usize,
        data: &BitRow,
    ) -> Result<()> {
        let row = self.layout.data_row(k)?;
        self.device.bank_mut(bank).subarray_mut(subarray).poke_row(row, data.clone());
        Ok(())
    }

    /// Backdoor read of data row `Dk` (no protocol, no timing).
    ///
    /// # Errors
    ///
    /// Returns an address error if `k` is out of the D-group.
    pub fn peek_data(&self, bank: BankId, subarray: usize, k: usize) -> Result<BitRow> {
        let row = self.layout.data_row(k)?;
        Ok(self.device.bank(bank).subarray(subarray).peek_row(row))
    }

    /// Ensures C0/C1 hold their constants in the given subarray (the
    /// manufacturer initializes these once; we do it lazily).
    fn ensure_control_rows(&mut self, bank: BankId, subarray: usize) {
        let flat = bank.flat_index(self.device.geometry());
        if !self.control_ready.insert((flat, subarray)) {
            return;
        }
        let bits = self.row_bits();
        let sa = self.device.bank_mut(bank).subarray_mut(subarray);
        sa.poke_row(crate::addressing::ROW_C0, BitRow::zeros(bits));
        sa.poke_row(crate::addressing::ROW_C1, BitRow::ones(bits));
    }
}

// The controller owns only plain data plus the already-thread-safe
// telemetry handles, so it is `Send + Sync` by construction — the property
// callers running separate memories on their own threads rely on. Keep this
// assertion next to the struct so a regression fails to compile rather than
// failing at a distant use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<AmbitController>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn controller() -> AmbitController {
        AmbitController::new(
            DramGeometry::tiny(),
            TimingParams::ddr3_1600(),
            AapMode::Overlapped,
        )
    }

    fn rows(bits: usize, seed: u64) -> (BitRow, BitRow) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (BitRow::random(bits, &mut rng), BitRow::random(bits, &mut rng))
    }

    #[test]
    fn all_ops_produce_correct_results() {
        for op in BitwiseOp::FIGURE9_OPS {
            let mut ctrl = controller();
            let bank = BankId::zero();
            let bits = ctrl.row_bits();
            let (a, b) = rows(bits, 11);
            ctrl.poke_data(bank, 0, 0, &a).unwrap();
            ctrl.poke_data(bank, 0, 1, &b).unwrap();
            let src2 = (op.source_count() == 2).then_some(RowAddress::D(1));
            ctrl.execute(op, bank, 0, RowAddress::D(0), src2, RowAddress::D(2))
                .unwrap();
            let got = ctrl.peek_data(bank, 0, 2).unwrap();
            let expect = BitRow::from_fn(bits, |i| {
                let x = a.get(i) as u64;
                let y = b.get(i) as u64;
                op.apply_words(x, y) & 1 == 1
            });
            assert_eq!(got, expect, "{op} mismatch");
        }
    }

    #[test]
    fn sources_survive_two_operand_ops() {
        // Section 3.3: the implementation copies operands to designated rows
        // precisely so the TRA does not destroy the sources.
        let mut ctrl = controller();
        let bank = BankId::zero();
        let bits = ctrl.row_bits();
        let (a, b) = rows(bits, 13);
        ctrl.poke_data(bank, 0, 0, &a).unwrap();
        ctrl.poke_data(bank, 0, 1, &b).unwrap();
        ctrl.execute(
            BitwiseOp::Xor,
            bank,
            0,
            RowAddress::D(0),
            Some(RowAddress::D(1)),
            RowAddress::D(2),
        )
        .unwrap();
        assert_eq!(ctrl.peek_data(bank, 0, 0).unwrap(), a);
        assert_eq!(ctrl.peek_data(bank, 0, 1).unwrap(), b);
    }

    #[test]
    fn and_latency_is_four_aaps() {
        let mut ctrl = controller();
        let bank = BankId::zero();
        let receipt = ctrl
            .execute(
                BitwiseOp::And,
                bank,
                0,
                RowAddress::D(0),
                Some(RowAddress::D(1)),
                RowAddress::D(2),
            )
            .unwrap();
        assert_eq!(receipt.aaps, 4);
        assert_eq!(receipt.aps, 0);
        assert_eq!(receipt.latency_ps(), 4 * 49_000, "4 × 49 ns overlapped AAPs");
    }

    #[test]
    fn xor_latency_is_five_aaps_two_aps() {
        let mut ctrl = controller();
        let receipt = ctrl
            .execute(
                BitwiseOp::Xor,
                BankId::zero(),
                0,
                RowAddress::D(0),
                Some(RowAddress::D(1)),
                RowAddress::D(2),
            )
            .unwrap();
        assert_eq!((receipt.aaps, receipt.aps), (5, 2));
        assert_eq!(receipt.latency_ps(), 5 * 49_000 + 2 * 45_000);
    }

    #[test]
    fn not_uses_dcc_and_is_two_aaps() {
        let mut ctrl = controller();
        let bank = BankId::zero();
        let bits = ctrl.row_bits();
        let (a, _) = rows(bits, 17);
        ctrl.poke_data(bank, 0, 5, &a).unwrap();
        let receipt = ctrl
            .execute(BitwiseOp::Not, bank, 0, RowAddress::D(5), None, RowAddress::D(6))
            .unwrap();
        assert_eq!(ctrl.peek_data(bank, 0, 6).unwrap(), a.not());
        assert_eq!(receipt.aaps, 2);
    }

    #[test]
    fn copy_and_init_ops() {
        let mut ctrl = controller();
        let bank = BankId::zero();
        let bits = ctrl.row_bits();
        let (a, _) = rows(bits, 19);
        ctrl.poke_data(bank, 0, 0, &a).unwrap();
        ctrl.execute(BitwiseOp::Copy, bank, 0, RowAddress::D(0), None, RowAddress::D(3))
            .unwrap();
        assert_eq!(ctrl.peek_data(bank, 0, 3).unwrap(), a);
        ctrl.execute(BitwiseOp::InitOne, bank, 0, RowAddress::D(0), None, RowAddress::D(4))
            .unwrap();
        assert_eq!(ctrl.peek_data(bank, 0, 4).unwrap().count_ones(), bits);
        ctrl.execute(BitwiseOp::InitZero, bank, 0, RowAddress::D(0), None, RowAddress::D(4))
            .unwrap();
        assert_eq!(ctrl.peek_data(bank, 0, 4).unwrap().count_ones(), 0);
    }

    #[test]
    fn control_rows_are_write_protected() {
        let mut ctrl = controller();
        let err = ctrl
            .execute(
                BitwiseOp::And,
                BankId::zero(),
                0,
                RowAddress::D(0),
                Some(RowAddress::D(1)),
                RowAddress::C(0),
            )
            .unwrap_err();
        assert_eq!(err, AmbitError::ControlRowWrite);
    }

    #[test]
    fn energy_accounting_matches_table3_shape() {
        // One AND on one row pair: 4 AAPs with a triple-row activation.
        let mut ctrl = controller();
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
        let m = EnergyModel::ddr3_1333();
        let expect = 3.0 * (2.0 * m.activate_nj(1) + m.precharge_nj())
            + (m.activate_nj(3) + m.activate_nj(1) + m.precharge_nj());
        assert!((receipt.energy_nj - expect).abs() < 1e-9);
    }

    #[test]
    fn protocol_read_write_roundtrip_with_timing() {
        let mut ctrl = controller();
        let bank = BankId::zero();
        let bits = ctrl.row_bits();
        let (a, _) = rows(bits, 23);
        let before = ctrl.timer().now_ps();
        ctrl.write_data(bank, 1, 7, &a).unwrap();
        let got = ctrl.read_data(bank, 1, 7).unwrap();
        assert_eq!(got, a);
        assert!(ctrl.timer().now_ps() > before, "protocol access takes time");
        assert!(ctrl.timer().energy().bytes_transferred > 0);
    }

    #[test]
    fn write_data_rejects_wrong_width_as_typed_error() {
        let mut ctrl = controller();
        let narrow = BitRow::zeros(ctrl.row_bits() - 1);
        let err = ctrl.write_data(BankId::zero(), 0, 0, &narrow).unwrap_err();
        assert!(matches!(err, AmbitError::SizeMismatch { .. }), "{err}");
    }

    #[test]
    fn ops_in_different_banks_share_one_timeline() {
        let mut ctrl = controller();
        let b0 = BankId::zero();
        let b1 = BankId { channel: 0, rank: 0, bank: 1 };
        let r0 = ctrl
            .execute(BitwiseOp::And, b0, 0, RowAddress::D(0), Some(RowAddress::D(1)), RowAddress::D(2))
            .unwrap();
        let r1 = ctrl
            .execute(BitwiseOp::And, b1, 0, RowAddress::D(0), Some(RowAddress::D(1)), RowAddress::D(2))
            .unwrap();
        // Bank-level parallelism: the second op overlaps the first almost
        // entirely instead of starting after it.
        assert!(r1.start_ps < r0.end_ps, "banks overlap");
    }

    #[test]
    fn receipt_absorb_merges_windows() {
        let mut a = OpReceipt { start_ps: 100, end_ps: 200, energy_nj: 1.0, aaps: 2, aps: 0 };
        let b = OpReceipt { start_ps: 150, end_ps: 400, energy_nj: 2.0, aaps: 4, aps: 1 };
        a.absorb(&b);
        assert_eq!(a.start_ps, 100);
        assert_eq!(a.end_ps, 400);
        assert_eq!(a.aaps, 6);
        assert_eq!(a.aps, 1);
        assert!((a.energy_nj - 3.0).abs() < 1e-12);
    }
}
