//! Order statistics, the interleaved round scheduler and the input
//! generator — everything the measurements share that is not a workload.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Nanoseconds since the first call: the one clock every stamp and span
/// of a run is read from.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// `p`-th percentile (0..=100) of an ascending slice, linearly
/// interpolated between neighbours so the value keeps sub-sample digits.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The highest of p90 / p99 / p99.9 that still has ten samples beyond
/// it, or `None` when even p90 has fewer (n < 100): the tail a run of
/// `n` samples may report besides its median.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [(99.9, 10_000), (99.0, 1_000), (90.0, 100)]
        .into_iter()
        .find(|&(_, need)| n >= need)
        .map(|(p, _)| p)
}

/// A set of timing samples; sorted once on first query.
#[derive(Default, Clone)]
pub struct Samples {
    v: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            v: Vec::with_capacity(n),
            sorted: false,
        }
    }

    pub fn push(&mut self, x: f64) {
        self.v.push(x);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Percentile of the samples; 0.0 when there are none, so a probe
    /// that could not run (one worker, no thief) still prints a number.
    pub fn p(&mut self, p: f64) -> f64 {
        if self.v.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.v.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.v, p)
    }

    pub fn p50(&mut self) -> f64 {
        self.p(50.0)
    }
}

/// Run interleaved rounds for `window`: every round calls `sample(v)`
/// once for each `v` in `0..variants`, in turn, so slow drift of the host
/// lands on every variant alike. At least one round runs. Returns the
/// number of complete rounds — every variant has exactly that many
/// samples.
pub fn interleaved_rounds(
    window: Duration,
    variants: usize,
    mut sample: impl FnMut(usize, usize),
) -> usize {
    let t0 = Instant::now();
    let mut rounds = 0;
    loop {
        for v in 0..variants {
            sample(rounds, v);
        }
        rounds += 1;
        if t0.elapsed() >= window {
            return rounds;
        }
    }
}

/// splitmix64: the bench's own input generator, so inputs depend on the
/// seed alone and not on a library's stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// ~`iters` ns of work the optimizer cannot remove (an LCG chain). Copied
/// from the legacy harness on purpose: the benchmark imports nothing from
/// it, so it can be restructured freely.
#[inline]
pub fn busy_work(tag: u64, iters: u64) -> u64 {
    let mut acc = tag;
    for i in 0..iters {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    std::hint::black_box(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_interpolation() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // p90 of 1..=100 sits between the 90th and 91st sample: ten
        // samples (91..=100) lie at or beyond it.
        let p90 = percentile(&v, 90.0);
        assert!((90.0..=91.0).contains(&p90), "{p90}");
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [100usize, 1_000, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9);
        }
    }

    #[test]
    fn interleaving_gives_every_variant_the_same_count() {
        let mut counts = [0usize; 3];
        let mut order = Vec::new();
        let rounds = interleaved_rounds(Duration::from_millis(20), 3, |_, v| {
            counts[v] += 1;
            order.push(v);
            std::thread::sleep(Duration::from_millis(1));
        });
        assert!(rounds >= 2);
        assert_eq!(counts, [rounds; 3]);
        assert!(order.chunks(3).all(|c| c == [0, 1, 2]));
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        let x = Rng::new(1).next_f64();
        assert!((0.0..1.0).contains(&x));
    }
}
