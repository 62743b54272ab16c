//! Small numeric helpers: the seeded generator, the output digest, the
//! latency floors the latency metrics are built from, and the percentile
//! rule of the percentiles printed beside them.

/// SplitMix64: a tiny deterministic generator, so an op stream is a pure
/// function of the `--seed` argument.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fbe_7c4a_11aa)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over the bytes of a response: the digest outputs are compared by.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// 1-based nearest rank of the `p`-quantile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64) - 1e-9).ceil().clamp(1.0, n as f64) as usize
}

/// Nearest-rank `p`-quantile of `xs` (`None` when empty).
pub fn quantile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    Some(v[rank(v.len(), p) - 1])
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// The latency floor of a set of samples: the fastest sample that is at
/// least half their median.
///
/// The other tenants of the host only ever add time, and their slow
/// phases last seconds, up to a whole run, stretching every sample in
/// them (by up to 2x as measured); so a run's median moves with the
/// share of it that fell in slow phases, while its fastest samples stay
/// put. Samples under half the median are a rare fast path instead, not
/// the typical request: the served write stall lets between one response
/// in a hundred and one in eight through at once.
pub fn floor(xs: &[f64]) -> Option<f64> {
    let half = median(xs)? / 2.0;
    xs.iter().copied().filter(|&x| x >= half).reduce(f64::min)
}

/// Each group's latency floor, in group order.
pub fn floors(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut groups: std::collections::BTreeMap<usize, Vec<f64>> = Default::default();
    for &(g, x) in samples {
        groups.entry(g).or_default().push(x);
    }
    groups.values().filter_map(|xs| floor(xs)).collect()
}

/// Geometric mean over groups of each group's latency floor: every group
/// weighs the same, so halving any one of them moves it by the same
/// share.
pub fn geomean_of_floors(samples: &[(usize, f64)]) -> Option<f64> {
    let f = floors(samples);
    if f.is_empty() {
        return None;
    }
    Some((f.iter().map(|x| x.ln()).sum::<f64>() / f.len() as f64).exp())
}

/// Samples strictly above the nearest-rank `p`-quantile of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The reporting rule: a percentile is trustworthy only when at least
/// ten samples lie beyond it.
pub fn reportable(n: usize, p: f64) -> bool {
    beyond(n, p) >= 10
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), Some(50.0));
        assert_eq!(quantile(&xs, 0.9), Some(90.0));
        assert_eq!(quantile(&xs, 1.0), Some(100.0));
        assert_eq!(quantile(&[7.0], 0.9), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(quantile(&rev, 0.9), Some(90.0));
    }

    #[test]
    fn latency_floors() {
        // The fast path under half the median (4.0) is left out.
        assert_eq!(floor(&[44.0, 4.0, 43.0, 47.0, 45.0]), Some(43.0));
        assert_eq!(floor(&[3.0, 2.0, 9.0]), Some(2.0));
        assert_eq!(floor(&[]), None);
        let xs = [(2, 6.0), (0, 3.0), (0, 1.0), (1, 40.0), (0, 2.0), (1, 42.0)];
        assert_eq!(floors(&xs), vec![1.0, 40.0, 6.0]);
        let g = geomean_of_floors(&xs).unwrap();
        assert!((g - 240f64.cbrt()).abs() < 1e-9, "{g}");
        assert_eq!(geomean_of_floors(&[]), None);
    }

    #[test]
    fn sample_count_rule() {
        assert_eq!(beyond(100, 0.9), 10);
        assert!(reportable(100, 0.9));
        assert!(!reportable(99, 0.9));
        assert!(reportable(20, 0.5));
        assert!(!reportable(19, 0.5));
        assert_eq!(beyond(0, 0.9), 0);
    }

    #[test]
    fn generator_is_deterministic() {
        let a: Vec<u64> = (0..5)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..5)
            .scan(Rng::new(3), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..5)
            .scan(Rng::new(4), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(9);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }
}
