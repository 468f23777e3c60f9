//! Measurement primitives shared by every workload: a seeded generator,
//! a Zipf sampler, percentile pickers, the answers digest and the
//! process's peak resident size. All of them are pure functions of their
//! arguments so that the same `--seed` replays the same run.

/// splitmix64: small, seedable, and stable across platforms and toolchain
/// versions — the benchmark's op sequences must not change when a
/// dependency's generator does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run: different `stream` tags
    /// give independent sequences from the same `--seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `r` is drawn with probability
/// proportional to `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice; `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps 0.9 * 100 = 90.00000000000001 at rank 90.
    let rank = (p * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 0.5)
}

/// The highest of the usual tail percentiles that still has at least
/// `beyond` samples above it in a sample of `n` — a p99 of 200 samples is
/// two observations, not a percentile.
pub fn highest_percentile(n: usize, beyond: usize) -> Option<f64> {
    [(999, 1000), (99, 100), (95, 100), (9, 10), (3, 4)]
        .into_iter()
        .find(|&(num, den)| n - (n * num).div_ceil(den) >= beyond)
        .map(|(num, den)| num as f64 / den as f64)
}

/// Quartile spread of a sample as a share of its median — the steadiness
/// measure `compare` and the acceptance check use. `None` below four
/// values, where quartiles mean nothing.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let s = sorted(values.to_vec());
    // Python's statistics.quantiles(n=4), exclusive method.
    let q = |k: f64| {
        let pos = k * (s.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        s[lo - 1] + (pos - lo as f64) * (s[lo] - s[lo - 1])
    };
    let med = (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0;
    (med != 0.0).then(|| (q(3.0) - q(1.0)).abs() / med.abs())
}

/// FNV-1a over the answer fingerprints in op order. Order-sensitive on
/// purpose: the digest pins the op sequence as well as the answers.
#[derive(Debug, Clone)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, fingerprint: &str) {
        for b in fingerprint.bytes().chain([0xff]) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn highest_percentile_needs_ten_beyond() {
        assert_eq!(highest_percentile(50, 10), Some(0.75));
        assert_eq!(highest_percentile(100, 10), Some(0.9));
        assert_eq!(highest_percentile(101, 10), Some(0.9));
        assert_eq!(highest_percentile(250, 10), Some(0.95));
        assert_eq!(highest_percentile(1_000, 10), Some(0.99));
        assert_eq!(highest_percentile(24_000, 10), Some(0.999));
        assert_eq!(highest_percentile(20, 10), None);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn rng_and_zipf_are_pure_functions_of_the_seed() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            let z = Zipf::new(200, 1.0);
            (0..500).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 2);
        assert_ne!(a.next_u64(), b.next_u64(), "streams are independent");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(1, 0);
        let mut hits = [0usize; 100];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        assert!(hits[0] > hits[9] && hits[9] > hits[99]);
        // H(100) ≈ 5.187: rank 0 carries ≈ 19% of the mass.
        assert!((hits[0] as f64 / 20_000.0 - 0.193).abs() < 0.02);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.push("x");
        a.push("y");
        let mut b = Digest::default();
        b.push("y");
        b.push("x");
        assert_ne!(a.hex(), b.hex());
        let mut c = Digest::default();
        c.push("xy");
        assert_ne!(a.hex(), c.hex(), "boundaries are part of the digest");
    }
}
