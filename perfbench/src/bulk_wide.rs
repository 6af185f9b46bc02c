//! `bulk-wide`: Figure 9-style batches on the paper's DDR3 module (8 banks,
//! 8 KB rows). Each call writes fresh operand data into a few input
//! vectors, executes one 64-op batch (55 independent multi-row ops of every
//! kind spread over all banks, plus a dependent second wave of 9), and reads
//! results back. Op = one `BatchOp`.

use std::collections::{HashMap, HashSet};

use ambit_core::{
    AllocGroup, AmbitMemory, BatchBuilder, BatchOpView, BitVectorHandle, BitwiseOp, IssuePolicy,
};
use ambit_dram::DramGeometry;
use ambit_telemetry::Registry;

use crate::common::{
    golden_batch, metric, time_twins, twin_batch, Counters, Metric, ProbeSpec, Sim, Step, Workload,
};
use crate::trace::Tracer;
use crate::util::{bools_to_words, threads, words_to_bools, Rng};

/// Steps whose simulated totals form the deterministic prefix.
pub const SIM_CALLS: u64 = 64;
/// Allocation groups: group `g` places chunk `k` in bank `(g + k) % 8`.
const GROUPS: u32 = 8;
/// Vector sizes in rows (chunks).
const SIZES: [usize; 2] = [1, 2];
const INPUTS_PER_CLASS: usize = 3;
const TEMPLATES: usize = 8;
/// First-wave ops: five of each kind.
const WAVE1: usize = 55;
const WAVE2: usize = 9;
const WRITES_PER_CALL: usize = 2;
const READS_PER_CALL: usize = 2;
/// Outputs bit-compared per call; the rest are checked by popcount.
const FULL_CHECKS_PER_CALL: usize = 4;

struct Template {
    batch: BatchBuilder,
    views: Vec<BatchOpView>,
    inputs: Vec<BitVectorHandle>,
}

pub struct BulkWide {
    mem: AmbitMemory,
    policy: IssuePolicy,
    row_bits: usize,
    shadow: HashMap<BitVectorHandle, Vec<u64>>,
    templates: Vec<Template>,
    order: Vec<usize>,
    next: usize,
    rng: Rng,
    waves: u64,
    batches: u64,
    next_full: usize,
}

const WAVE1_KINDS: [&str; 11] = [
    "and", "or", "xor", "not", "nand", "nor", "xnor", "maj3", "fold_and", "fold_or", "copy",
];

fn bitwise_kind(kind: &str) -> BitwiseOp {
    match kind {
        "and" => BitwiseOp::And,
        "or" => BitwiseOp::Or,
        "xor" => BitwiseOp::Xor,
        "not" => BitwiseOp::Not,
        "nand" => BitwiseOp::Nand,
        "nor" => BitwiseOp::Nor,
        "xnor" => BitwiseOp::Xnor,
        "copy" => BitwiseOp::Copy,
        other => unreachable!("not a plain bitwise kind: {other}"),
    }
}

impl BulkWide {
    pub fn setup(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let mut mem = tr.span("driver.new", |_| AmbitMemory::ddr3_module());
        mem.set_pool_threads(threads());
        let row_bits = mem.row_bits();
        let mut rng = Rng::stream(seed, 1);
        let mut shadow = HashMap::new();

        // Inputs per (group, size) class, loaded with seeded data.
        let classes: Vec<(u32, usize)> = (0..GROUPS)
            .flat_map(|g| SIZES.iter().map(move |&s| (g, s)))
            .collect();
        let mut inputs: Vec<Vec<BitVectorHandle>> = Vec::new();
        for &(g, size) in &classes {
            let mut v = Vec::new();
            for _ in 0..INPUTS_PER_CLASS {
                let h = alloc(&mut mem, tr, size * row_bits, g)?;
                let words = rng.words(size * row_bits / 64);
                tr.span("driver.poke_bits", |_| {
                    mem.poke_bits(h, &words_to_bools(&words, size * row_bits))
                })
                .map_err(|e| e.to_string())?;
                shadow.insert(h, words);
                v.push(h);
            }
            inputs.push(v);
        }

        // Batch templates: a fixed set of op shapes, so after warm-up every
        // plan lookup hits the driver's cache.
        let mut outputs: Vec<Vec<BitVectorHandle>> = vec![Vec::new(); classes.len()];
        let mut templates = Vec::new();
        for _ in 0..TEMPLATES {
            let mut used = vec![0usize; classes.len()];
            let mut batch = BatchBuilder::new();
            let mut wave1: Vec<(usize, BitVectorHandle)> = Vec::new();
            let mut read_inputs = Vec::new();
            let mut next_out = |mem: &mut AmbitMemory,
                                tr: &mut Tracer,
                                c: usize,
                                used: &mut Vec<usize>|
             -> Result<BitVectorHandle, String> {
                if outputs[c].len() == used[c] {
                    let (g, size) = classes[c];
                    outputs[c].push(alloc(mem, tr, size * row_bits, g)?);
                }
                used[c] += 1;
                Ok(outputs[c][used[c] - 1])
            };
            // Every template holds the same multiset of (kind, size),
            // spread evenly over the groups; the seed picks the operands
            // and the order.
            let mut shapes: Vec<(&str, usize)> = (0..WAVE1)
                .map(|i| {
                    let kinds = WAVE1_KINDS.len();
                    (WAVE1_KINDS[i % kinds], SIZES[(i / kinds) % SIZES.len()])
                })
                .collect();
            rng.shuffle(&mut shapes);
            for (j, &(kind, size)) in shapes.iter().enumerate() {
                let g = j as u32 % GROUPS;
                let c = classes
                    .iter()
                    .position(|&cl| cl == (g, size))
                    .expect("every (group, size) is a class");
                let mut srcs = inputs[c].clone();
                rng.shuffle(&mut srcs);
                let dst = next_out(&mut mem, tr, c, &mut used)?;
                let n_src = match kind {
                    "maj3" | "fold_and" | "fold_or" => 3,
                    "not" | "copy" => 1,
                    _ => 2,
                };
                match kind {
                    "maj3" => batch.maj3(srcs[0], srcs[1], srcs[2], dst),
                    "fold_and" => batch.fold(BitwiseOp::And, &srcs[..3], dst),
                    "fold_or" => batch.fold(BitwiseOp::Or, &srcs[..3], dst),
                    k if n_src == 1 => batch.bitwise(bitwise_kind(k), srcs[0], None, dst),
                    k => batch.bitwise(bitwise_kind(k), srcs[0], Some(srcs[1]), dst),
                };
                read_inputs.extend_from_slice(&srcs[..n_src]);
                wave1.push((c, dst));
            }
            // Second wave: reads first-wave results (read-after-write).
            let wave2_ops = [BitwiseOp::And, BitwiseOp::Or, BitwiseOp::Xor];
            for j in 0..WAVE2 {
                let (c, a) = wave1[rng.below(wave1.len())];
                let partner = wave1.iter().find(|&&(c2, h)| c2 == c && h != a);
                let dst = next_out(&mut mem, tr, c, &mut used)?;
                match partner {
                    Some(&(_, b)) => batch.bitwise(wave2_ops[j % 3], a, Some(b), dst),
                    None => batch.bitwise(BitwiseOp::Not, a, None, dst),
                };
            }
            let mut seen = HashSet::new();
            read_inputs.retain(|h| seen.insert(*h));
            let views = batch.op_views();
            templates.push(Template {
                batch,
                views,
                inputs: read_inputs,
            });
        }
        let mut order: Vec<usize> = (0..TEMPLATES).collect();
        rng.shuffle(&mut order);

        let mut w = BulkWide {
            mem,
            policy: IssuePolicy::default(),
            row_bits,
            shadow,
            templates,
            order,
            next: 0,
            rng,
            waves: 0,
            batches: 0,
            next_full: 0,
        };
        // Warm-up: every template once, checked, so the timed loop starts
        // with compiled plans and a started pool.
        for t in 0..TEMPLATES {
            tr.span("driver.execute_batch", |_| {
                w.mem.execute_batch(&w.templates[t].batch, w.policy)
            })
            .map_err(|e| e.to_string())?;
            golden_batch(&w.templates[t].views, &mut w.shadow);
            if w.check_outputs(t, WAVE1 + WAVE2, tr) != 0 {
                return Err("bulk-wide warm-up output differs from the golden model".into());
            }
        }
        Ok(w)
    }

    /// Checks every output of template `t` against the shadow: a popcount
    /// of each, and a full bit comparison of `full` of them, rotating so
    /// every output is fully compared over successive calls (all of them
    /// when `full` covers the batch). Returns the number of mismatching ops.
    fn check_outputs(&mut self, t: usize, full: usize, tr: &mut Tracer) -> u64 {
        let views = &self.templates[t].views;
        let first = self.next_full;
        self.next_full = (first + full) % views.len();
        tr.span("golden.check", |_| {
            let mut bad = 0;
            for (i, v) in views.iter().enumerate() {
                let want = &self.shadow[&v.writes];
                let ok = if (i + views.len() - first) % views.len() < full {
                    self.mem
                        .peek_bits(v.writes)
                        .map(|b| bools_to_words(&b))
                        .ok()
                        .as_ref()
                        == Some(want)
                } else {
                    let ones = want.iter().map(|w| w.count_ones() as usize).sum::<usize>();
                    self.mem.popcount(v.writes).ok() == Some(ones)
                };
                bad += u64::from(!ok);
            }
            bad
        })
    }
}

fn alloc(
    mem: &mut AmbitMemory,
    tr: &mut Tracer,
    bits: usize,
    group: u32,
) -> Result<BitVectorHandle, String> {
    tr.span("driver.alloc", |_| {
        mem.alloc_in_group(bits, AllocGroup(group))
    })
    .map_err(|e| e.to_string())
}

impl Workload for BulkWide {
    fn step(&mut self, tr: &mut Tracer) -> Step {
        let t = self.order[self.next % TEMPLATES];
        self.next += 1;
        let mut s = Step {
            kind: t as u32,
            ops: self.templates[t].batch.len() as u64,
            ..Step::default()
        };

        // Fresh operand data for a few of the template's inputs.
        for _ in 0..WRITES_PER_CALL {
            let ins = &self.templates[t].inputs;
            let h = ins[self.rng.below(ins.len())];
            let words = self.rng.words(self.shadow[&h].len());
            let bits = words_to_bools(&words, words.len() * 64);
            let open = tr.open("driver.write_bits");
            let ok = s.call(|| self.mem.write_bits(h, &bits)).is_ok();
            tr.close(open);
            if ok {
                self.shadow.insert(h, words);
            }
        }

        let open = tr.open("driver.execute_batch");
        let api_before = s.api_ns;
        let receipt = s.call(|| {
            self.mem
                .execute_batch(&self.templates[t].batch, self.policy)
        });
        tr.close(open);
        let receipt = match receipt {
            Ok(r) => r,
            Err(_) => {
                s.failed_ops = s.ops;
                return s;
            }
        };
        s.call_ns = Some(s.api_ns - api_before);
        s.sim = Sim::of(&receipt.total);
        self.waves += receipt.waves as u64;
        self.batches += 1;
        tr.span("golden.model", |_| {
            golden_batch(&self.templates[t].views, &mut self.shadow)
        });

        // Read a few results back through the DRAM protocol.
        for _ in 0..READS_PER_CALL {
            let views = &self.templates[t].views;
            let h = views[self.rng.below(views.len())].writes;
            let open = tr.open("driver.read_bits");
            let got = s.call(|| self.mem.read_bits(h));
            tr.close(open);
            if got.map(|b| bools_to_words(&b)).ok().as_ref() != self.shadow.get(&h) {
                s.failed_ops += 1;
            }
        }
        s.failed_ops = (s.failed_ops + self.check_outputs(t, FULL_CHECKS_PER_CALL, tr)).min(s.ops);
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
            geometry: DramGeometry::ddr3_module(),
            vector_bits: self.row_bits,
            ops: WAVE1_KINDS
                .iter()
                .filter(|k| !matches!(**k, "maj3" | "fold_and" | "fold_or"))
                .map(|k| bitwise_kind(k))
                .collect(),
            maj_fold: true,
            fault_rate: 0.0,
        }
    }

    fn plan_probe(&mut self) -> Option<(u64, u64)> {
        let twins: Vec<BatchBuilder> = self
            .templates
            .iter()
            .map(|t| {
                let targets: Vec<_> = t.views.iter().map(|v| v.writes).collect();
                twin_batch(&t.views, &targets)
            })
            .collect();
        Some(time_twins(&mut self.mem, &twins, 20))
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
