//! Small helpers shared by the workloads: a seeded generator, bit packing,
//! order statistics and host-memory accounting.

use std::time::Instant;

/// SplitMix64: a tiny, fully deterministic generator. The benchmark owns its
/// input generation so the library only ever sees the generated data.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// A generator for one named stream of this seed, so adding draws to one
    /// stream never shifts another.
    pub fn stream(seed: u64, salt: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    pub fn words(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub fn bools_to_words(bits: &[bool]) -> Vec<u64> {
    let mut out = vec![0u64; bits.len().div_ceil(64)];
    for (i, &b) in bits.iter().enumerate() {
        out[i / 64] |= u64::from(b) << (i % 64);
    }
    out
}

pub fn words_to_bools(words: &[u64], bits: usize) -> Vec<bool> {
    (0..bits)
        .map(|i| words[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

/// A fixed, CPU-bound kernel timed now and then through a run. Its fastest
/// time follows the host's clock speed, which on a shared host drifts over
/// minutes with the load of the whole machine.
#[derive(Debug)]
pub struct Calibration {
    buf: Vec<u64>,
    last: Option<Instant>,
    /// Fastest time of one pass, in host ns.
    pub min_ns: u64,
}

impl Calibration {
    /// Time between samples: the kernel takes under 0.2 % of a run.
    const EVERY_MS: u128 = 10;

    pub fn new() -> Self {
        let mut rng = Rng::new(0);
        Calibration {
            buf: rng.words(4096),
            last: None,
            min_ns: u64::MAX,
        }
    }

    /// Samples at the first call, then whenever the last sample is at
    /// least `EVERY_MS` old. Only the second of two back-to-back passes is
    /// timed, so the buffer is in L1 and the program's use of the caches
    /// does not reach the kernel: a dependent multiply chain that only the
    /// clock speed and the sharing of the core move.
    pub fn tick(&mut self) {
        if self
            .last
            .is_some_and(|t| t.elapsed().as_millis() < Self::EVERY_MS)
        {
            return;
        }
        let mut pass = || {
            let mut x = 0u64;
            for w in self.buf.iter_mut() {
                x = (x ^ *w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
                *w = x;
            }
            std::hint::black_box(x)
        };
        pass();
        let (_, ns) = timed(pass);
        self.min_ns = self.min_ns.min(ns);
        self.last = Some(Instant::now());
    }
}

/// Runs `f` and returns its result with the elapsed host nanoseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as u64)
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host memory high-water mark of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads the benchmark may use (the executor pool's size): the
/// host's available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
