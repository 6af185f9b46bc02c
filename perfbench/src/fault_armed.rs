//! `fault-armed`: TMR-voted `ResilientExecutor::bitwise` calls with retry
//! and scrub on a device armed with transient TRA faults, on 1 KB rows. The
//! only workload where the bit-serial charge share, per-bit fault draws and
//! recovery do the work. Op = one resilient bitwise call.
//!
//! The rate sits just under the paper's Table 2 ±10 % point (0.29 %). At
//! 0.29 % the executor's documented silent-error bound (all three replicas
//! flipping one bit: about `bits × rate³` per call) yields roughly one wrong
//! output per 4,700 calls, i.e. about one per run, which a run that must
//! check every output cannot absorb. At 0.01 % a call still detects about
//! seven suspect bits and retries about twice on average, and a wrong output
//! is expected about once per 10^8 calls.

use ambit_core::{
    AmbitMemory, BitwiseOp, IssuePolicy, RecoveryReport, ResilientConfig, ResilientExecutor,
    ResilientHandle,
};
use ambit_dram::{AapMode, CampaignConfig, DramGeometry, FaultCampaign, TimingParams};
use ambit_telemetry::Registry;

use crate::common::{metric, Counters, Metric, ProbeSpec, Sim, Step, Workload};
use crate::probes::TABLE2_RATE;
use crate::trace::Tracer;
use crate::util::{bools_to_words, threads, words_to_bools, Rng};

/// Steps whose simulated totals form the deterministic prefix.
pub const SIM_CALLS: u64 = 1024;

pub const GEOMETRY: DramGeometry = DramGeometry {
    channels: 1,
    ranks: 1,
    banks: 8,
    subarrays_per_bank: 4,
    rows_per_subarray: 128,
    row_bytes: 1024,
};
/// Transient TRA failure rate per bitline (0.01 %).
pub const TRA_RATE: f64 = 0.0001;
const INPUTS: usize = 4;
const OUTPUTS: usize = 4;
/// Calls between fresh operand data.
const REWRITE_EVERY: u64 = 8;
const XOR_PROBE_CALLS: u64 = 64;
const WARMUP_CALLS: usize = 8;
/// Single-TRA ops and NOT. XOR/XNOR run three TRAs per op, and at the
/// Table 2 rate their per-op suspect count trips the executor's sticky CPU
/// degradation within a few calls; `resilient.xor_calls_to_degrade`
/// measures that on its own executor.
const KINDS: [BitwiseOp; 5] = [
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Not,
];

pub struct FaultArmed {
    exec: ResilientExecutor,
    inputs: Vec<(ResilientHandle, Vec<u64>)>,
    outputs: Vec<ResilientHandle>,
    bits: usize,
    seed: u64,
    rng: Rng,
    calls: u64,
    /// Recovery accounting at the end of set-up.
    base: RecoveryReport,
}

fn sim_now(mem: &AmbitMemory) -> Sim {
    let stats = mem.controller().timer().stats();
    Sim {
        ps: mem.now_ps(),
        nj: mem.energy_nj(),
        aaps: stats.aaps,
        aps: stats.aps,
    }
}

/// A resilient executor on a fresh device armed with the seed's campaign at
/// transient TRA rate `rate`.
fn executor(seed: u64, rate: f64, tr: &mut Tracer) -> Result<ResilientExecutor, String> {
    let err = |e: ambit_core::AmbitError| e.to_string();
    let mut mem = tr.span("driver.new", |_| {
        AmbitMemory::new(GEOMETRY, TimingParams::ddr3_1600(), AapMode::Overlapped)
    });
    mem.set_pool_threads(threads());
    mem.reserve_spare_rows(2).map_err(err)?;
    let campaign = FaultCampaign::plan(
        CampaignConfig {
            seed: seed ^ 0xFA17_0000,
            base_tra_rate: rate,
            // One rate everywhere: seeds differ in which bits flip, not in
            // how faulty the subarray holding the vectors is.
            tra_rate_spread: 0.0,
            first_eligible_row: 16,
            ..CampaignConfig::default()
        },
        &GEOMETRY,
    )
    .map_err(|e| e.to_string())?;
    ResilientExecutor::with_campaign(mem, ResilientConfig::default(), campaign).map_err(err)
}

/// Calls before XOR-only resilient execution at the paper's Table 2 ±10 %
/// rate degrades the device to the CPU for good (`XOR_PROBE_CALLS` if it
/// never does).
fn xor_calls_to_degrade(seed: u64) -> Result<u64, String> {
    let err = |e: ambit_core::AmbitError| e.to_string();
    let mut exec = executor(seed, TABLE2_RATE, &mut Tracer::new(false))?;
    let bits = exec.memory().row_bits();
    let mut rng = Rng::stream(seed, 5);
    let mut h = || -> Result<ResilientHandle, String> {
        let h = exec.alloc(bits).map_err(err)?;
        exec.write(h, &words_to_bools(&rng.words(bits / 64), bits))
            .map_err(err)?;
        Ok(h)
    };
    let (a, b, d) = (h()?, h()?, h()?);
    for call in 0..XOR_PROBE_CALLS {
        if exec.is_degraded() {
            return Ok(call);
        }
        exec.bitwise(BitwiseOp::Xor, a, Some(b), d).map_err(err)?;
    }
    Ok(XOR_PROBE_CALLS)
}

impl FaultArmed {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let err = |e: ambit_core::AmbitError| e.to_string();
        let mut exec = executor(seed, TRA_RATE, tr)?;
        let bits = exec.memory().row_bits();
        let mut rng = Rng::stream(seed, 4);
        let mut inputs = Vec::new();
        for _ in 0..INPUTS {
            let h = tr
                .span("resilient.alloc", |_| exec.alloc(bits))
                .map_err(err)?;
            let words = rng.words(bits / 64);
            tr.span("resilient.write", |_| {
                exec.write(h, &words_to_bools(&words, bits))
            })
            .map_err(err)?;
            inputs.push((h, words));
        }
        let outputs = (0..OUTPUTS)
            .map(|_| tr.span("resilient.alloc", |_| exec.alloc(bits)))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let mut w = FaultArmed {
            exec,
            inputs,
            outputs,
            bits,
            seed,
            rng,
            calls: 0,
            base: RecoveryReport::default(),
        };
        // Warm-up: a few checked calls (one call's cost depends on how
        // many retries its faults force).
        for _ in 0..WARMUP_CALLS {
            if w.step(tr).failed_ops != 0 {
                return Err("fault-armed warm-up output differs from the golden model".into());
            }
        }
        w.base = *w.exec.report();
        Ok(w)
    }
}

impl Workload for FaultArmed {
    fn step(&mut self, tr: &mut Tracer) -> Step {
        let mut s = Step {
            ops: 1,
            ..Step::default()
        };
        self.calls += 1;
        if self.calls.is_multiple_of(REWRITE_EVERY) {
            let i = self.rng.below(INPUTS);
            let words = self.rng.words(self.bits / 64);
            let bits = words_to_bools(&words, self.bits);
            let h = self.inputs[i].0;
            let open = tr.open("resilient.write");
            if s.call(|| self.exec.write(h, &bits)).is_ok() {
                self.inputs[i].1 = words;
            }
            tr.close(open);
        }
        s.kind = self.rng.below(KINDS.len()) as u32;
        let op = KINDS[s.kind as usize];
        let x = self.rng.below(INPUTS);
        let y = (x + 1 + self.rng.below(INPUTS - 1)) % INPUTS;
        let dst = self.outputs[self.rng.below(OUTPUTS)];
        let (a, b) = (self.inputs[x].0, self.inputs[y].0);
        let b = (op.source_count() == 2).then_some(b);

        let before = sim_now(self.exec.memory());
        let open = tr.open("resilient.bitwise");
        let r = s.call(|| self.exec.bitwise(op, a, b, dst));
        tr.close(open);
        if r.is_err() {
            s.failed_ops = 1;
            return s;
        }
        s.call_ns = Some(s.api_ns);
        let after = sim_now(self.exec.memory());
        s.sim = Sim {
            ps: after.ps - before.ps,
            nj: after.nj - before.nj,
            aaps: after.aaps - before.aaps,
            aps: after.aps - before.aps,
        };

        let open = tr.open("resilient.read");
        let got = s.call(|| self.exec.read(dst));
        tr.close(open);
        let want: Vec<u64> = self.inputs[x]
            .1
            .iter()
            .zip(&self.inputs[y].1)
            .map(|(&p, &q)| op.apply_words(p, q))
            .collect();
        s.failed_ops = u64::from(got.map(|g| bools_to_words(&g)).ok() != Some(want));
        s
    }

    fn set_policy(&mut self, _policy: IssuePolicy) -> bool {
        false
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.exec.set_telemetry(registry.clone());
    }

    fn counters(&self) -> Counters {
        Counters::of(&[self.exec.memory()])
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            geometry: GEOMETRY,
            vector_bits: self.bits,
            ops: KINDS.to_vec(),
            maj_fold: false,
            fault_rate: TRA_RATE,
        }
    }

    fn plan_probe(&mut self) -> Option<(u64, u64)> {
        None
    }

    fn layer_metrics(&self, tr: &Tracer, out: &mut Vec<Metric>) {
        let r = self.exec.report();
        let ops = (r.ops - self.base.ops).max(1) as f64;
        metric(
            out,
            "resilient.ns_per_op",
            tr.mean_ns("resilient.bitwise"),
            "ns",
        );
        let xor = xor_calls_to_degrade(self.seed).expect("XOR probe runs");
        metric(out, "resilient.xor_calls_to_degrade", xor as f64, "count");
        metric(
            out,
            "resilient.retries_per_op",
            (r.retries - self.base.retries) as f64 / ops,
            "count",
        );
        metric(
            out,
            "resilient.faults_detected_per_op",
            (r.faults_detected - self.base.faults_detected) as f64 / ops,
            "count",
        );
        metric(
            out,
            "resilient.scrubs_per_op",
            (r.scrubs - self.base.scrubs) as f64 / ops,
            "count",
        );
        metric(
            out,
            "resilient.cpu_fallback_frac",
            (r.cpu_fallbacks - self.base.cpu_fallbacks) as f64 / ops,
            "fraction",
        );
    }
}
