//! `batch-narrow`: batches of 64, 512 and 4096 single-row ops on 8-byte
//! rows, 2 channels × 4 banks. Most ops sit in one wave; the rest form
//! dependency chains. Functional work is about zero, so wave planning, the
//! command timer and receipt assembly dominate. Op = one `BatchOp`.

use std::collections::HashMap;

use ambit_core::{
    AllocGroup, AmbitMemory, BatchBuilder, BatchOpView, BitVectorHandle, BitwiseOp, IssuePolicy,
};
use ambit_dram::{AapMode, DramGeometry, TimingParams};
use ambit_telemetry::Registry;

use crate::common::{
    golden_batch, metric, time_twins, twin_batch, Counters, Metric, ProbeSpec, Sim, Step, Workload,
};
use crate::trace::Tracer;
use crate::util::{bools_to_words, threads, words_to_bools, Rng};

/// Steps whose simulated totals form the deterministic prefix (two blocks).
pub const SIM_CALLS: u64 = 306;

pub const GEOMETRY: DramGeometry = DramGeometry {
    channels: 2,
    ranks: 1,
    banks: 4,
    subarrays_per_bank: 16,
    rows_per_subarray: 128,
    row_bytes: 8,
};
/// (bank, subarray) slots; allocation group `g` places its row in slot `g`.
const SLOTS: usize = 128;
const INPUTS_PER_SLOT: usize = 3;
/// Batch sizes with their template count and calls per 153-call block. A
/// 4096-op call takes about 0.2 s, longer than most stretches in which a
/// shared host runs at full speed, so even its fastest time carries some
/// load; at under 1 % of calls it stays out of `call_us_p99`, which then
/// reads the 512-op calls, and it is under half of `ops_per_s` time.
const SIZES: [(usize, usize, usize); 3] = [(64, 4, 96), (512, 2, 56), (4096, 1, 1)];
/// Ops per warm-up batch. Set-up compiles the plan of every template op
/// through batches of at most this size, so it pays little wave planning,
/// which is per-call work of the loop (0.2 s for one 4096-op batch).
const WARM_OPS: usize = 64;
const CHAIN_SHARE: f64 = 0.15;
const WRITES_PER_CALL: usize = 8;

const KINDS: [BitwiseOp; 8] = [
    BitwiseOp::And,
    BitwiseOp::Or,
    BitwiseOp::Xor,
    BitwiseOp::Not,
    BitwiseOp::Nand,
    BitwiseOp::Nor,
    BitwiseOp::Xnor,
    BitwiseOp::Copy,
];

struct Template {
    batch: BatchBuilder,
    views: Vec<BatchOpView>,
    /// The same ops in submission order, in batches of at most `WARM_OPS`.
    warm: Vec<BatchBuilder>,
}

pub struct BatchNarrow {
    mem: AmbitMemory,
    policy: IssuePolicy,
    inputs: Vec<BitVectorHandle>,
    shadow: HashMap<BitVectorHandle, Vec<u64>>,
    /// Templates per batch size.
    templates: Vec<Vec<Template>>,
    /// Size index of each call of the current block, and the next call.
    block: Vec<usize>,
    next: usize,
    rotation: [usize; 3],
    rng: Rng,
    waves: u64,
    batches: u64,
}

/// One op of a template before it is queued: its slot, and whether it
/// reads the previous chain step's result.
struct Pending {
    slot: usize,
    chain_prev: bool,
}

impl BatchNarrow {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut mem = tr.span("driver.new", |_| {
            AmbitMemory::new(GEOMETRY, TimingParams::ddr3_1600(), AapMode::Overlapped)
        });
        mem.set_pool_threads(threads());
        let bits = mem.row_bits();
        let mut rng = Rng::stream(seed, 2);
        let mut shadow = HashMap::new();
        let mut inputs = Vec::new();
        for slot in 0..SLOTS {
            for _ in 0..INPUTS_PER_SLOT {
                let h = alloc(&mut mem, tr, bits, slot)?;
                let words = rng.words(1);
                mem.poke_bits(h, &words_to_bools(&words, bits))
                    .map_err(|e| e.to_string())?;
                shadow.insert(h, words);
                inputs.push(h);
            }
        }

        let mut outputs: Vec<Vec<BitVectorHandle>> = vec![Vec::new(); SLOTS];
        let mut templates = Vec::new();
        for &(n, count, _) in &SIZES {
            let mut per_size = Vec::new();
            for _ in 0..count {
                per_size.push(Self::template(
                    &mut mem,
                    tr,
                    &mut rng,
                    &inputs,
                    &mut outputs,
                    n,
                )?);
            }
            templates.push(per_size);
        }

        let mut w = BatchNarrow {
            mem,
            policy: IssuePolicy::default(),
            inputs,
            shadow,
            templates,
            block: Vec::new(),
            next: 0,
            rotation: [0; 3],
            rng,
            waves: 0,
            batches: 0,
        };
        // Warm-up: every template's ops once, fully checked.
        for size in 0..SIZES.len() {
            for t in 0..w.templates[size].len() {
                let tpl = &w.templates[size][t];
                for b in &tpl.warm {
                    tr.span("driver.execute_batch", |_| w.mem.execute_batch(b, w.policy))
                        .map_err(|e| e.to_string())?;
                }
                golden_batch(&tpl.views, &mut w.shadow);
                if w.check_outputs(size, t, tr) != 0 {
                    return Err("batch-narrow warm-up output differs from the golden model".into());
                }
            }
        }
        Ok(w)
    }

    /// A template of `n` ops: `1 - CHAIN_SHARE` independent ops, the rest in
    /// dependency chains of 3–5 ops within one slot, interleaved at random.
    fn template(
        mem: &mut AmbitMemory,
        tr: &mut Tracer,
        rng: &mut Rng,
        inputs: &[BitVectorHandle],
        outputs: &mut [Vec<BitVectorHandle>],
        n: usize,
    ) -> Result<Template, String> {
        let bits = mem.row_bits();
        let chained = (n as f64 * CHAIN_SHARE) as usize;
        let mut indep = n - chained;
        let mut chains: Vec<Vec<Pending>> = Vec::new();
        let mut left = chained;
        // Chain lengths cycle 3, 4, 5, so every template of a size has the
        // same wave count.
        while left > 0 {
            let len = (3 + chains.len() % 3).min(left);
            let slot = rng.below(SLOTS);
            chains.push(
                (0..len)
                    .map(|i| Pending {
                        slot,
                        chain_prev: i > 0,
                    })
                    .collect(),
            );
            left -= len;
        }
        for c in &mut chains {
            c.reverse(); // pop() yields steps in order
        }
        let mut used = vec![0usize; SLOTS];
        let mut prev: Vec<Option<BitVectorHandle>> = vec![None; chains.len()];
        // Every kind equally often, in a seeded order.
        let mut kinds: Vec<BitwiseOp> = KINDS.to_vec();
        rng.shuffle(&mut kinds);
        let mut batch = BatchBuilder::new();
        let mut remaining = n;
        while remaining > 0 {
            let r = rng.below(remaining);
            let (p, chain) = if r < indep {
                indep -= 1;
                (
                    Pending {
                        slot: rng.below(SLOTS),
                        chain_prev: false,
                    },
                    None,
                )
            } else {
                let mut k = r - indep;
                let c = chains
                    .iter()
                    .position(|c| {
                        if k < c.len() {
                            true
                        } else {
                            k -= c.len();
                            false
                        }
                    })
                    .expect("r indexes a remaining chain step");
                (chains[c].pop().expect("chain has steps"), Some(c))
            };
            remaining -= 1;
            let slot_inputs = &inputs[p.slot * INPUTS_PER_SLOT..(p.slot + 1) * INPUTS_PER_SLOT];
            let a = match (p.chain_prev, chain) {
                (true, Some(c)) => prev[c].expect("chain step follows its predecessor"),
                _ => slot_inputs[rng.below(INPUTS_PER_SLOT)],
            };
            let b = slot_inputs[rng.below(INPUTS_PER_SLOT)];
            if outputs[p.slot].len() == used[p.slot] {
                outputs[p.slot].push(alloc(mem, tr, bits, p.slot)?);
            }
            let dst = outputs[p.slot][used[p.slot]];
            used[p.slot] += 1;
            let op = kinds[remaining % KINDS.len()];
            batch.bitwise(op, a, (op.source_count() == 2).then_some(b), dst);
            if let Some(c) = chain {
                prev[c] = Some(dst);
            }
        }
        let views = batch.op_views();
        let warm = views
            .chunks(WARM_OPS)
            .map(|chunk| {
                let mut b = BatchBuilder::new();
                for v in chunk {
                    let op = v.op.expect("batch-narrow issues plain bitwise ops");
                    b.bitwise(op, v.reads[0], v.reads.get(1).copied(), v.writes);
                }
                b
            })
            .collect();
        Ok(Template { batch, views, warm })
    }

    /// Bit-compares every output of a template with the shadow; returns the
    /// number of mismatching ops.
    fn check_outputs(&self, size: usize, t: usize, tr: &mut Tracer) -> u64 {
        tr.span("golden.check", |_| {
            self.templates[size][t]
                .views
                .iter()
                .filter(|v| {
                    self.mem
                        .peek_bits(v.writes)
                        .map(|b| bools_to_words(&b))
                        .ok()
                        .as_ref()
                        != self.shadow.get(&v.writes)
                })
                .count() as u64
        })
    }
}

fn alloc(
    mem: &mut AmbitMemory,
    tr: &mut Tracer,
    bits: usize,
    slot: usize,
) -> Result<BitVectorHandle, String> {
    tr.span("driver.alloc", |_| {
        mem.alloc_in_group(bits, AllocGroup(slot as u32))
    })
    .map_err(|e| e.to_string())
}

impl Workload for BatchNarrow {
    fn step(&mut self, tr: &mut Tracer) -> Step {
        if self.next == self.block.len() {
            // A new block: every size its fixed number of calls, in a
            // seeded order.
            self.block = SIZES
                .iter()
                .enumerate()
                .flat_map(|(i, &(_, _, calls))| std::iter::repeat_n(i, calls))
                .collect();
            self.rng.shuffle(&mut self.block);
            self.next = 0;
        }
        let size = self.block[self.next];
        self.next += 1;
        let t = self.rotation[size] % self.templates[size].len();
        self.rotation[size] += 1;

        let mut s = Step {
            kind: (size * 16 + t) as u32,
            ops: self.templates[size][t].batch.len() as u64,
            ..Step::default()
        };
        for _ in 0..WRITES_PER_CALL {
            let h = self.inputs[self.rng.below(self.inputs.len())];
            let words = self.rng.words(1);
            let bits = words_to_bools(&words, 64);
            let open = tr.open("driver.poke_bits");
            let ok = s.call(|| self.mem.poke_bits(h, &bits)).is_ok();
            tr.close(open);
            if ok {
                self.shadow.insert(h, words);
            }
        }

        let tpl = &self.templates[size][t];
        let open = tr.open("driver.execute_batch");
        let api_before = s.api_ns;
        let receipt = s.call(|| self.mem.execute_batch(&tpl.batch, self.policy));
        tr.close(open);
        let Ok(receipt) = receipt else {
            s.failed_ops = s.ops;
            return s;
        };
        s.call_ns = Some(s.api_ns - api_before);
        s.sim = Sim::of(&receipt.total);
        self.waves += receipt.waves as u64;
        self.batches += 1;
        tr.span("golden.model", |_| {
            golden_batch(&tpl.views, &mut self.shadow)
        });
        s.failed_ops = self.check_outputs(size, t, tr);
        s
    }

    fn set_policy(&mut self, policy: IssuePolicy) -> bool {
        self.policy = policy;
        true
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        self.mem.set_telemetry(registry.clone());
    }

    fn counters(&self) -> Counters {
        Counters::of(&[&self.mem])
    }

    fn probe_spec(&self) -> ProbeSpec {
        ProbeSpec {
            geometry: GEOMETRY,
            vector_bits: self.mem.row_bits(),
            ops: KINDS.to_vec(),
            maj_fold: false,
            fault_rate: 0.0,
        }
    }

    fn plan_probe(&mut self) -> Option<(u64, u64)> {
        let twins: Vec<BatchBuilder> = self
            .templates
            .iter()
            .flatten()
            .map(|t| {
                let targets: Vec<_> = t.views.iter().map(|v| v.writes).collect();
                twin_batch(&t.views, &targets)
            })
            .collect();
        Some(time_twins(&mut self.mem, &twins, 3))
    }

    fn layer_metrics(&self, _tr: &Tracer, out: &mut Vec<Metric>) {
        metric(
            out,
            "batch.waves_per_call",
            self.waves as f64 / self.batches.max(1) as f64,
            "count",
        );
    }
}
