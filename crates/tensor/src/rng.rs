//! Deterministic random-number generation.
//!
//! Every stochastic component in the workspace — weight initialization,
//! synthetic corpora, routing traces, placement baselines — draws from a
//! [`DetRng`] seeded with an explicit `u64`, making all experiments
//! reproducible bit-for-bit across runs and machines.
//!
//! The generator is an in-tree xoshiro256++ seeded through SplitMix64
//! (the reference seeding procedure), so the crate builds with zero
//! external dependencies — the build environment has no crates.io access.

/// A deterministic, seedable random-number generator.
///
/// Implements xoshiro256++ with SplitMix64 seed expansion and adds the
/// distributions this workspace needs (uniform, normal via Box–Muller,
/// categorical, permutation) behind a small stable API.
///
/// # Example
/// ```
/// use vela_tensor::rng::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second sample from the Box–Muller transform.
    spare_normal: Option<f32>,
}

/// One step of SplitMix64: the recommended way to expand a single `u64`
/// seed into the 256-bit xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng {
            state,
            spare_normal: None,
        }
    }

    /// Derives an independent child generator. Used to hand each worker or
    /// data stream its own reproducible stream.
    pub fn fork(&mut self, tag: u64) -> DetRng {
        let seed = self.next_u64() ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        DetRng::new(seed)
    }

    /// A uniform `u64` (one xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// The top 24 bits of one [`next_u64`](Self::next_u64): the draw
    /// [`unit`](Self::unit) scales and a [`CategoricalTable`] looks up.
    #[inline]
    fn next_bits(&mut self) -> u32 {
        (self.next_u64() >> 40) as u32
    }

    /// A standard-uniform sample from `[0, 1)` with 24 bits of mantissa.
    pub fn unit(&mut self) -> f32 {
        unit_from_bits(self.next_bits())
    }

    /// A uniform sample from `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        assert!(lo < hi, "uniform requires lo < hi, got [{lo}, {hi})");
        loop {
            let x = lo + (hi - lo) * self.unit();
            // Rounding at the top of a wide range can land exactly on
            // `hi`; redraw (probability ~2^-24) to keep the half-open
            // contract.
            if x < hi {
                return x;
            }
        }
    }

    /// A normal sample with the given mean and standard deviation
    /// (Box–Muller transform).
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        let z = match self.spare_normal.take() {
            Some(z) => z,
            None => {
                // Box–Muller: two uniforms -> two independent normals.
                let u1 = loop {
                    let u = self.unit();
                    if u > f32::MIN_POSITIVE {
                        break u;
                    }
                };
                let u2 = self.unit();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f32::consts::PI * u2;
                self.spare_normal = Some(r * theta.sin());
                r * theta.cos()
            }
        };
        mean + std * z
    }

    /// A uniform integer from `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below requires n > 0");
        // Rejection sampling over the largest multiple of `n` keeps the
        // distribution exactly uniform.
        let n = n as u64;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Samples an index from an unnormalized weight vector.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to a non-positive value.
    pub fn categorical(&mut self, weights: &[f32]) -> usize {
        let total = categorical_total(weights);
        loop {
            if let Some(i) = categorical_index(weights, total, self.next_bits()) {
                return i;
            }
        }
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        self.shuffle(&mut p);
        p
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }
}

/// The number of distinct [`DetRng::next_bits`] draws, `2^24`.
const BITS_RANGE: u32 = 1 << 24;

/// The uniform in `[0, 1)` that the 24 bits `m` stand for.
fn unit_from_bits(m: u32) -> f32 {
    (m as f32) * (1.0 / BITS_RANGE as f32)
}

/// The total weight [`DetRng::categorical`] scales its draw by.
///
/// # Panics
/// Panics if `weights` is empty or sums to a non-positive value.
fn categorical_total(weights: &[f32]) -> f32 {
    assert!(!weights.is_empty(), "categorical requires weights");
    let total: f32 = weights.iter().sum();
    assert!(
        total > 0.0 && total.is_finite(),
        "categorical requires positive finite total weight, got {total}"
    );
    total
}

/// The index one 24-bit draw `m` selects from `weights`, or `None` when
/// the draw is redrawn. This is the one definition of the mapping:
/// [`DetRng::categorical`] applies it per draw and [`CategoricalTable`]
/// tabulates it.
///
/// It is `uniform(0, total)` followed by a scan that subtracts each
/// weight in turn. The product and every subtraction are rounded, but
/// rounding is monotone, so the index never decreases as `m` grows and
/// the redrawn draws form a suffix of `[0, 2^24)`.
fn categorical_index(weights: &[f32], total: f32, m: u32) -> Option<usize> {
    // `uniform(0.0, total)` computes `0.0 + (total - 0.0) · u`, which is
    // `total · u` exactly.
    let mut target = total * unit_from_bits(m);
    if target >= total {
        return None;
    }
    for (i, &w) in weights.iter().enumerate() {
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Rounding can leave the target past the last weight, even when that
    // weight is zero.
    Some(weights.len() - 1)
}

/// The least `m` in `[0, 2^24]` for which `holds(m)`, where `holds` is
/// monotone in `m` and taken to hold at `2^24`. Gallops outwards from
/// `guess`, then bisects, so a guess within a few draws of the answer
/// costs a handful of evaluations.
fn least_bits(guess: u32, holds: impl Fn(u32) -> bool) -> u32 {
    let top = i64::from(BITS_RANGE);
    let holds = |m: i64| m >= top || holds(m as u32);
    // Invariant once bracketed: `holds(hi)`, and `lo == -1` or `!holds(lo)`.
    let guess = i64::from(guess.min(BITS_RANGE));
    let mut step = 8;
    let (mut lo, mut hi): (i64, i64);
    if holds(guess) {
        hi = guess;
        loop {
            lo = hi - step;
            if lo < 0 || !holds(lo) {
                break;
            }
            hi = lo;
            step *= 2;
        }
        lo = lo.max(-1);
    } else {
        lo = guess;
        loop {
            hi = (lo + step).min(top);
            if holds(hi) {
                break;
            }
            lo = hi;
            step *= 2;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as u32
}

/// [`DetRng::categorical`] over one fixed weight vector, as a lookup
/// table.
///
/// A categorical draw consumes 24 bits `m` per attempt, and its index is
/// a non-decreasing function of `m` up to a bound past which `m` is
/// redrawn (see `categorical_index`). So `E − 1` cut points and that bound
/// describe every draw exactly. [`draw`](Self::draw) consumes the same
/// `next_u64` stream as `categorical(weights)` and returns the same index,
/// without summing or scanning the weights.
///
/// # Example
/// ```
/// use vela_tensor::rng::{CategoricalTable, DetRng};
///
/// let weights = [0.5, 0.0, 1.5, 2.0];
/// let table = CategoricalTable::new(&weights);
/// let (mut a, mut b) = (DetRng::new(3), DetRng::new(3));
/// for _ in 0..100 {
///     assert_eq!(table.draw(&mut a), b.categorical(&weights));
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalTable {
    /// `cuts[i]`: the least `m` that selects an index past `i` or is
    /// redrawn.
    cuts: Vec<u32>,
    /// The least `m` that is redrawn; `2^24` when none is.
    redraw: u32,
}

impl CategoricalTable {
    /// Tabulates `categorical(weights)`: each cut is found by a search
    /// that starts at its analytic position, the cumulative weight.
    ///
    /// # Panics
    /// Panics if `weights` is empty or sums to a non-positive value, as
    /// [`DetRng::categorical`] does.
    pub fn new(weights: &[f32]) -> Self {
        let total = categorical_total(weights);
        let index = |m| categorical_index(weights, total, m);
        let mut cumulative = 0.0f64;
        let cuts = (0..weights.len() - 1)
            .map(|i| {
                cumulative += f64::from(weights[i]);
                let guess = (cumulative / f64::from(total) * f64::from(BITS_RANGE)) as u32;
                least_bits(guess, |m| index(m).is_none_or(|j| j > i))
            })
            .collect();
        let redraw = least_bits(BITS_RANGE - 1, |m| index(m).is_none());
        CategoricalTable { cuts, redraw }
    }

    /// The index the 24 bits `m` select, or `None` when they are redrawn.
    #[inline]
    fn index(&self, m: u32) -> Option<usize> {
        (m < self.redraw).then(|| self.cuts.iter().filter(|&&c| c <= m).count())
    }

    /// One draw, equal to `rng.categorical(weights)` and leaving `rng` in
    /// the same state.
    #[inline]
    pub fn draw(&self, rng: &mut DetRng) -> usize {
        loop {
            if let Some(i) = self.index(rng.next_bits()) {
                return i;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn matches_xoshiro256pp_reference_vector() {
        // First outputs of xoshiro256++ with state seeded by SplitMix64(0):
        // state = [e220a8397b1dcdaf, 6e789e6aa1b965f4,
        //          06c45d188009454f, f88bb8a8724c81ec].
        let mut rng = DetRng::new(0);
        assert_eq!(rng.next_u64(), 0x53175d61490b23df);
    }

    #[test]
    fn fork_streams_are_independent_and_deterministic() {
        let mut root1 = DetRng::new(9);
        let mut root2 = DetRng::new(9);
        let mut c1 = root1.fork(5);
        let mut c2 = root2.fork(5);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = root1.fork(6);
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn uniform_in_range() {
        let mut rng = DetRng::new(4);
        for _ in 0..1000 {
            let x = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut rng = DetRng::new(11);
        for _ in 0..10_000 {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = DetRng::new(5);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal(1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = DetRng::new(12);
        let mut counts = [0usize; 5];
        for _ in 0..50_000 {
            counts[rng.below(5)] += 1;
        }
        for &c in &counts {
            assert!((c as f32 / 50_000.0 - 0.2).abs() < 0.01, "{counts:?}");
        }
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = DetRng::new(6);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.categorical(&[1.0, 2.0, 7.0])] += 1;
        }
        let f2 = counts[2] as f32 / 30_000.0;
        assert!((f2 - 0.7).abs() < 0.02, "freq {f2}");
        assert!(counts[0] < counts[1] && counts[1] < counts[2]);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = DetRng::new(7);
        let mut p = rng.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_bad_range_panics() {
        DetRng::new(0).uniform(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn categorical_zero_total_panics() {
        DetRng::new(0).categorical(&[0.0, 0.0]);
    }

    /// Weight vectors at the edges of the bits → index mapping.
    fn edge_weights() -> Vec<Vec<f32>> {
        vec![
            // An interior zero.
            vec![
                0.541_813_7,
                0.539_487_9,
                0.0,
                0.085_665_71,
                0.149_563_57,
                0.310_705_84,
            ],
            // A leading zero.
            vec![0.0, 0.604_148_3, 0.665_133_5, 0.308_133_3],
            // A sum that rounds: the scan falls through at the top draws and
            // selects the last index, whose weight is zero.
            vec![0.327_112_38, 0.426_671_03, 0.822_098_73, 0.0],
            // A subnormal total: the top draws round up to the total and
            // are redrawn.
            vec![f32::from_bits(1), f32::from_bits(2), 0.0],
            // A Zipf-1.2 row over 8 experts, as the routing profiles hold.
            (1..=8).map(|r| 1.0 / (r as f32).powf(1.2)).collect(),
        ]
    }

    /// `categorical` as it was written before it shared its mapping with
    /// [`CategoricalTable`].
    fn categorical_by_uniform(rng: &mut DetRng, weights: &[f32]) -> usize {
        let total: f32 = weights.iter().sum();
        let mut target = rng.uniform(0.0, total);
        for (i, &w) in weights.iter().enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        weights.len() - 1
    }

    #[test]
    fn categorical_table_matches_every_draw() {
        let mut fell_through = false;
        let mut redrew = false;
        for weights in edge_weights() {
            let total = categorical_total(&weights);
            let table = CategoricalTable::new(&weights);
            for m in 0..BITS_RANGE {
                let expected = categorical_index(&weights, total, m);
                assert_eq!(table.index(m), expected, "{weights:?} at m = {m}");
                fell_through |= expected.is_some_and(|i| weights[i] == 0.0);
                redrew |= expected.is_none();
            }
        }
        assert!(fell_through, "no vector reached the scan's fall-through");
        assert!(redrew, "no vector reached the redraw");
    }

    #[test]
    fn categorical_table_draws_the_categorical_stream() {
        for (seed, weights) in edge_weights().into_iter().enumerate() {
            let table = CategoricalTable::new(&weights);
            let mut by_table = DetRng::new(seed as u64);
            let mut by_scan = DetRng::new(seed as u64);
            let mut by_uniform = DetRng::new(seed as u64);
            for _ in 0..20_000 {
                let i = table.draw(&mut by_table);
                assert_eq!(i, by_scan.categorical(&weights), "{weights:?}");
                assert_eq!(i, categorical_by_uniform(&mut by_uniform, &weights));
            }
            let next = by_table.next_u64();
            assert_eq!(next, by_scan.next_u64(), "streams left in step");
            assert_eq!(next, by_uniform.next_u64(), "streams left in step");
        }
    }
}
