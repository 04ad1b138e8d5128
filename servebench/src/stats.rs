//! Seeded randomness, order statistics and a replay timer.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// SplitMix64 stream: the benchmark's only source of randomness, so one
/// seed fixes every input it generates.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent streams drawn
    /// from the same seed (schedule, request contents, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential gap between arrivals of a Poisson process at `rate`
    /// per second.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        // Uniform in (0, 1], so the logarithm is finite.
        let u = ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64(-u.ln() / rate)
    }
}

/// Nearest-rank quantile (`q` in `[0, 1]`); 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half of `values` (the interquartile mean); 0 for
/// no values. Unlike the median it moves smoothly when the values fall
/// into two clusters whose shares change from run to run.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quarter = v.len() / 4;
    mean(&v[quarter..v.len() - quarter])
}

/// Arithmetic mean; 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Calls per timed sample so that one sample of `f` takes about two
/// milliseconds.
fn calibrate<R>(f: &mut impl FnMut() -> R) -> u32 {
    const SAMPLE: Duration = Duration::from_millis(2);
    black_box(f());
    let mut iters: u32 = 1;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        if t.elapsed() >= SAMPLE / 4 || iters >= 1 << 20 {
            return iters * 4;
        }
        iters *= 2;
    }
}

fn sample_ns<R>(f: &mut impl FnMut() -> R, iters: u32) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    t.elapsed().as_secs_f64() * 1e9 / f64::from(iters)
}

/// Median nanoseconds per call of `f` over five timed samples.
pub fn time_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let iters = calibrate(&mut f);
    let samples: Vec<f64> = (0..5).map(|_| sample_ns(&mut f, iters)).collect();
    median(&samples)
}

/// Median over nine alternating sample pairs of the nanoseconds per call
/// `f` takes beyond `g`; alternating keeps drift out of the difference.
pub fn time_excess_ns<R, S>(mut f: impl FnMut() -> R, mut g: impl FnMut() -> S) -> f64 {
    let (fi, gi) = (calibrate(&mut f), calibrate(&mut g));
    let diffs: Vec<f64> = (0..9)
        .map(|_| sample_ns(&mut f, fi) - sample_ns(&mut g, gi))
        .collect();
    median(&diffs)
}
