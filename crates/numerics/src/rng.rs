//! Deterministic RNG plumbing.
//!
//! Every stochastic piece of the workspace (schedule generators, problem
//! instances, virtual network delays) takes an explicit `u64` seed and
//! derives a [`StdRng`] through these helpers, so each experiment is exactly
//! reproducible and sub-streams are decorrelated by construction.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Creates a seeded RNG.
#[inline]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a decorrelated child seed from a base seed and a stream index
/// (SplitMix64 finaliser — the same mixer `StdRng::seed_from_u64` uses
/// internally, applied to the combined word).
#[inline]
pub fn child_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Vector of `n` i.i.d. uniform samples in `[lo, hi)`.
///
/// # Panics
/// Panics if `lo >= hi`.
pub fn uniform_vec(r: &mut StdRng, n: usize, lo: f64, hi: f64) -> Vec<f64> {
    assert!(lo < hi, "uniform_vec: empty range");
    (0..n).map(|_| r.random_range(lo..hi)).collect()
}

/// Vector of `n` i.i.d. standard normal samples (Box–Muller; no external
/// distribution crate needed).
pub fn normal_vec(r: &mut StdRng, n: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let u1: f64 = r.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = r.random_range(0.0..1.0);
        let rad = (-2.0 * u1.ln()).sqrt();
        let ang = 2.0 * std::f64::consts::PI * u2;
        out.push(rad * ang.cos());
        if out.len() < n {
            out.push(rad * ang.sin());
        }
    }
    out
}

/// One standard normal sample.
pub fn normal(r: &mut StdRng) -> f64 {
    let u1: f64 = r.random_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = r.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Pareto-distributed sample with scale `xm > 0` and shape `alpha > 0`
/// (heavy-tailed delays: infinite variance for `alpha ≤ 2`).
///
/// # Panics
/// Panics on nonpositive parameters.
pub fn pareto(r: &mut StdRng, xm: f64, alpha: f64) -> f64 {
    assert!(xm > 0.0 && alpha > 0.0, "pareto: nonpositive parameter");
    let u: f64 = r.random_range(f64::MIN_POSITIVE..1.0);
    xm / u.powf(1.0 / alpha)
}

/// Exact `⌈pareto(r, 1.0, alpha)⌉` without the `powf` in the common case.
///
/// `⌈1 / u^(1/α)⌉ = k` exactly when `T_k ≤ u < T_(k−1)` with
/// `T_k = k^(−α)`, so one uniform draw `u` is resolved against the
/// thresholds `T_1 > T_2 > … > T_64`. Each threshold carries a relative
/// guard band of ±[`ParetoCeil::GUARD`], far wider than the few-ulp
/// rounding of `powf`: a `u` clear of every band gets the table's `k`,
/// and a `u` inside a band (or past `T_64`) falls back to the literal
/// `1.0 / u.powf(1.0 / alpha)` on the same draw. Either way the result
/// is bitwise what [`pareto`] followed by `ceil` returns, from the same
/// single draw, so streams built on it do not change.
///
/// Most draws never scan the thresholds: `[0, 1)` is cut into
/// [`ParetoCeil::BUCKETS`] equal slices, and a slice lying wholly
/// between two guard bands stores its delay directly.
#[derive(Debug, Clone)]
pub struct ParetoCeil {
    inv_alpha: f64,
    /// `(T_k·(1 − GUARD), T_k·(1 + GUARD))` for `k = 1..=len`.
    bands: [(f64, f64); ParetoCeil::TABLE],
    len: usize,
    /// Per slice `[b, b + 1) / BUCKETS`: the delay of every `u` in it, or
    /// 0 when a band or several delays meet there.
    buckets: [u8; ParetoCeil::BUCKETS],
}

impl ParetoCeil {
    /// Largest delay resolved by the table.
    pub const TABLE: usize = 64;
    /// Relative half-width of each threshold's guard band.
    pub const GUARD: f64 = 1e-9;
    /// Number of equal slices of `[0, 1)` with a precomputed delay.
    pub const BUCKETS: usize = 1024;

    /// Table for shape `alpha`.
    ///
    /// # Panics
    /// Panics on a nonpositive `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0, "ParetoCeil: nonpositive alpha");
        let mut bands = [(0.0, 0.0); Self::TABLE];
        let mut len = 0;
        // The literal path's rounding moves its effective thresholds by
        // about α·1.4e-15 relative. The table ends where a threshold
        // leaves the normal range (and would lose relative precision),
        // which for every k ≥ 2 happens before α reaches 1022: the shift
        // stays below 1.5e-12, far inside the guard band.
        for (k, band) in bands.iter_mut().enumerate() {
            let t = ((k + 1) as f64).powf(-alpha);
            let lo = t * (1.0 - Self::GUARD);
            if lo < f64::MIN_POSITIVE {
                break;
            }
            *band = (lo, t * (1.0 + Self::GUARD));
            len += 1;
        }
        let mut buckets = [0u8; Self::BUCKETS];
        for (b, slot) in buckets.iter_mut().enumerate() {
            let (from, to) = (
                b as f64 / Self::BUCKETS as f64,
                (b + 1) as f64 / Self::BUCKETS as f64,
            );
            // The first threshold band wholly below the slice, and the
            // band before it wholly above: then every `u` in the slice
            // has the same exact delay.
            if let Some(k) = bands[..len].iter().position(|&(_, hi)| hi <= from) {
                if k > 0 && to <= bands[k - 1].0 {
                    *slot = (k + 1) as u8;
                }
            }
        }
        Self {
            inv_alpha: 1.0 / alpha,
            bands,
            len,
            buckets,
        }
    }

    /// `⌈1 / u^(1/α)⌉` for `u ∈ (0, 1)`, saturating like `as u64`.
    #[inline]
    pub fn ceil_at(&self, u: f64) -> u64 {
        match self.buckets.get((u * Self::BUCKETS as f64) as usize) {
            Some(&d) if d > 0 => u64::from(d),
            _ => self.scan(u),
        }
    }

    /// The threshold scan behind [`ParetoCeil::ceil_at`].
    fn scan(&self, u: f64) -> u64 {
        for (k, &(lo, hi)) in self.bands[..self.len].iter().enumerate() {
            if u >= hi {
                return k as u64 + 1;
            }
            if u >= lo {
                break;
            }
        }
        (1.0 / u.powf(self.inv_alpha)).ceil() as u64
    }

    /// One draw: the same value and the same stream advance as
    /// `pareto(r, 1.0, alpha).ceil() as u64`.
    #[inline]
    pub fn sample(&self, r: &mut StdRng) -> u64 {
        self.ceil_at(r.random_range(f64::MIN_POSITIVE..1.0))
    }
}

/// In-place Fisher–Yates shuffle.
pub fn shuffle<T>(r: &mut StdRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = r.random_range(0..=i);
        xs.swap(i, j);
    }
}

/// Samples `k` distinct indices from `0..n` (partial Fisher–Yates on an
/// index buffer).
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_indices(r: &mut StdRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx = Vec::with_capacity(n);
    sample_indices_into(r, n, k, &mut idx);
    idx
}

/// [`sample_indices`] into a caller-owned buffer: the same draws and the
/// same result, without allocating once `buf` has capacity `n`.
///
/// # Panics
/// Panics if `k > n`.
pub fn sample_indices_into(r: &mut StdRng, n: usize, k: usize, buf: &mut Vec<usize>) {
    assert!(k <= n, "sample_indices: k > n");
    buf.clear();
    buf.extend(0..n);
    for i in 0..k {
        let j = r.random_range(i..n);
        buf.swap(i, j);
    }
    buf.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(42);
        let mut b = rng(42);
        for _ in 0..10 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = rng(1);
        let mut b = rng(2);
        let va: Vec<u64> = (0..4).map(|_| a.random()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.random()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn child_seed_decorrelates_streams() {
        let s0 = child_seed(7, 0);
        let s1 = child_seed(7, 1);
        assert_ne!(s0, s1);
        // And is itself deterministic.
        assert_eq!(child_seed(7, 1), s1);
    }

    #[test]
    fn uniform_vec_in_range() {
        let mut r = rng(3);
        let v = uniform_vec(&mut r, 1000, -2.0, 5.0);
        assert_eq!(v.len(), 1000);
        assert!(v.iter().all(|&x| (-2.0..5.0).contains(&x)));
        // Mean near midpoint 1.5.
        let mean = v.iter().sum::<f64>() / 1000.0;
        assert!((mean - 1.5).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn normal_vec_moments() {
        let mut r = rng(4);
        let v = normal_vec(&mut r, 20_000);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_vec_odd_length() {
        let mut r = rng(5);
        assert_eq!(normal_vec(&mut r, 7).len(), 7);
    }

    #[test]
    fn pareto_exceeds_scale() {
        let mut r = rng(6);
        for _ in 0..100 {
            assert!(pareto(&mut r, 2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn pareto_is_heavy_tailed() {
        // With alpha = 1.1 the sample max over 10k draws should exceed the
        // scale by a large factor with overwhelming probability.
        let mut r = rng(7);
        let max = (0..10_000)
            .map(|_| pareto(&mut r, 1.0, 1.1))
            .fold(0.0_f64, f64::max);
        assert!(max > 50.0, "max {max}");
    }

    #[test]
    fn pareto_ceil_replays_the_pareto_stream() {
        for alpha in [0.3, 1.1, 1.5, 4.0] {
            let table = ParetoCeil::new(alpha);
            let (mut a, mut b) = (rng(11), rng(11));
            for _ in 0..20_000 {
                assert_eq!(
                    table.sample(&mut a),
                    pareto(&mut b, 1.0, alpha).ceil() as u64
                );
            }
        }
    }

    #[test]
    fn pareto_ceil_buckets_agree_with_the_scan_at_their_edges() {
        for alpha in [0.3, 1.1, 1.5, 4.0] {
            let table = ParetoCeil::new(alpha);
            let literal = |u: f64| (1.0 / u.powf(1.0 / alpha)).ceil() as u64;
            let mut direct = 0;
            for (b, &d) in table.buckets.iter().enumerate() {
                if d == 0 {
                    continue;
                }
                direct += 1;
                let from = b as f64 / ParetoCeil::BUCKETS as f64;
                let to = (b + 1) as f64 / ParetoCeil::BUCKETS as f64;
                for u in [from, from.next_up(), to.next_down()] {
                    assert_eq!(u64::from(d), literal(u), "alpha {alpha}, u {u:e}");
                    assert_eq!(table.scan(u), literal(u), "alpha {alpha}, u {u:e}");
                }
            }
            assert!(
                direct > ParetoCeil::BUCKETS / 2,
                "alpha {alpha}: {direct} direct slices"
            );
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = rng(8);
        let mut xs: Vec<usize> = (0..50).collect();
        shuffle(&mut r, &mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut r = rng(9);
        for _ in 0..20 {
            let s = sample_indices(&mut r, 10, 4);
            assert_eq!(s.len(), 4);
            let mut d = s.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 4);
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_indices_full_draw() {
        let mut r = rng(10);
        let mut s = sample_indices(&mut r, 5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }
}
