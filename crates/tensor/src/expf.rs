//! A sixteen-lane `expf` that reproduces the host's libm bit for bit, and
//! the two element-wise passes [`ops`](crate::ops) builds on it: the
//! logistic sigmoid of SwiGLU's gate ([`ops::sigmoid_into`]) and the
//! `exp(x − max)` of a softmax row.
//!
//! # Algorithm
//!
//! glibc (2.27 and later) computes `expf` with the table-driven method of
//! ARM's optimized-routines (`math/expf.c`, MIT OR Apache-2.0 WITH
//! LLVM-exception), all of it in `f64`:
//!
//! - `x·N/ln 2 = k + r`, with `N = 32`, `k` the nearest integer (ties to
//!   even, by adding and subtracting `SHIFT = 1.5·2^52`) and `|r| ≤ 1/2`;
//! - `2^(k/N) = 2^(k div N) · 2^((k mod N)/N)`: the second factor is a
//!   32-entry table stored as `bits(2^(i/N)) − (i << 47)`, so adding
//!   `k << 47` to an entry's bits also moves `k div N` into the exponent;
//! - `2^(r/N) ≈ C0·r³ + C1·r² + C2·r + 1`;
//! - the `f64` product `2^(k/N) · 2^(r/N)`, rounded once to `f32`.
//!
//! On x86-64, glibc compiles that C a second time with FMA enabled and picks
//! that build at load time on a CPU that has FMA; the compiler contracts both
//! reduction steps and all three polynomial steps into fused multiply-adds.
//! `exp8` below issues the same operations, fused the same way, on eight
//! `f64` lanes: `vfmadd` for `k + SHIFT`, `vfmsub` for `r`, and `vfmadd` for
//! the three polynomial steps. Fusion is not optional: the same port with
//! separate multiplies and adds differs from the FMA build at two `f32`
//! inputs, 32.564632 and −63.09946.
//!
//! Special cases are glibc's: below `log(2^-150)` (`-0x1.9fe368p6`) the
//! result is `+0`, which covers `−∞` and a causal mask; above
//! `log(2^128)` (`0x1.62e42ep6`) it is `+∞`; a NaN returns `x + x`.
//!
//! # Proof
//!
//! The tests below compare `to_bits()` with the scalar formulas — which call
//! the host's `f32::exp` — on a stride of about a million bit patterns across
//! all of `u32`, on a boundary list, and at lengths that run every tail; the
//! `#[ignore]`d `exhaustive_over_all_2_32_inputs` covers every input
//! (`cargo test --release -p vela-tensor -- --ignored`). The table is checked
//! against the maths: each entry is the correctly rounded `2^(i/32)`, proved
//! with exact integer arithmetic.

// Off x86-64 only the tests read the constants.
#![cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]

/// `N / ln 2` with `N = 32`.
const INV_LN2_N: u64 = 0x4047_1547_652b_82fe;
/// `1.5·2^52`: adding it rounds to an integer held in the low mantissa bits.
const SHIFT: u64 = 0x4338_0000_0000_0000;
/// The polynomial's coefficients, scaled by powers of `1/N`.
const C: [u64; 3] = [
    0x3ebc_6af8_4b91_2394,
    0x3f2e_bfce_50fa_c4f3,
    0x3f96_2e42_ff0c_52d6,
];
/// Inputs below this give `+0`.
const UNDERFLOW: u32 = 0xc2cf_f1b4;
/// Inputs above this give `+∞`.
const OVERFLOW: u32 = 0x42b1_7217;

/// `bits(2^(i/32)) − (i << 47)`, each `2^(i/32)` the correctly rounded
/// double (`tests::table_holds_correctly_rounded_powers` proves it).
#[rustfmt::skip]
const TABLE: [u64; 32] = [
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
];

#[cfg(target_arch = "x86_64")]
pub(crate) use avx512::{exp_shifted_avx512, sigmoid_avx512};

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use super::{C, INV_LN2_N, OVERFLOW, SHIFT, TABLE, UNDERFLOW};

    const LANES: usize = 16;

    /// `exp` of eight `f64` lanes, each an `f32` widened: everything but
    /// the special cases, which [`exp16`] overrides.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn exp8(x: __m512d) -> __m512d {
        let inv_ln2_n = _mm512_set1_pd(f64::from_bits(INV_LN2_N));
        let shift = _mm512_set1_pd(f64::from_bits(SHIFT));
        let [c0, c1, c2] = C.map(|c| _mm512_set1_pd(f64::from_bits(c)));
        // SAFETY: each load reads eight of TABLE's 32 u64, in bounds.
        let [t0, t1, t2, t3] =
            [0, 8, 16, 24].map(|i| unsafe { _mm512_loadu_si512(TABLE[i..i + 8].as_ptr().cast()) });

        // k + SHIFT, then r = x·N/ln 2 − k, each rounded once.
        let k_shifted = _mm512_fmadd_pd(inv_ln2_n, x, shift);
        let ki = _mm512_castpd_si512(k_shifted);
        let kd = _mm512_sub_pd(k_shifted, shift);
        let r = _mm512_fmsub_pd(inv_ln2_n, x, kd);
        // TABLE[k mod 32]: bits 0..=3 of `ki` pick one of sixteen entries,
        // bit 4 which sixteen.
        let low_half = _mm512_permutex2var_epi64(t0, ki, t1);
        let high_half = _mm512_permutex2var_epi64(t2, ki, t3);
        let upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
        let t = _mm512_mask_blend_epi64(upper, low_half, high_half);
        let s = _mm512_castsi512_pd(_mm512_add_epi64(t, _mm512_slli_epi64::<47>(ki)));
        // s · (C0·r³ + C1·r² + C2·r + 1), in glibc's order.
        let z = _mm512_fmadd_pd(c0, r, c1);
        let r2 = _mm512_mul_pd(r, r);
        let y = _mm512_fmadd_pd(c2, r, _mm512_set1_pd(1.0));
        let y = _mm512_fmadd_pd(z, r2, y);
        _mm512_mul_pd(y, s)
    }

    /// `f32::exp` of sixteen lanes, bit for bit.
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn exp16(x: __m512) -> __m512 {
        let lo = _mm512_castps512_ps256(x);
        let hi = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(x)));
        let lo = _mm512_cvtpd_ps(exp8(_mm512_cvtps_pd(lo)));
        let hi = _mm512_cvtpd_ps(exp8(_mm512_cvtps_pd(hi)));
        let y = _mm512_castpd_ps(_mm512_insertf64x4::<1>(
            _mm512_castps_pd(_mm512_castps256_ps512(lo)),
            _mm256_castps_pd(hi),
        ));
        let under = _mm512_cmp_ps_mask::<_CMP_LT_OQ>(x, _mm512_set1_ps(f32::from_bits(UNDERFLOW)));
        let over = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(x, _mm512_set1_ps(f32::from_bits(OVERFLOW)));
        let nan = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
        let y = _mm512_mask_mov_ps(y, under, _mm512_setzero_ps());
        let y = _mm512_mask_mov_ps(y, over, _mm512_set1_ps(f32::INFINITY));
        _mm512_mask_add_ps(y, nan, x, x)
    }

    /// The lanes of a chunk starting `done` elements into an `n`-element
    /// slice: all sixteen, or the tail's.
    fn lanes(n: usize, done: usize) -> __mmask16 {
        let left = n - done;
        if left >= LANES {
            !0
        } else {
            (1 << left) - 1
        }
    }

    /// `dst[i] = ops::sigmoid(src[i])`, bit for bit: with `e = exp(−|x|)`,
    /// `1/(1+e)` for `x ≥ 0` and `e/(1+e)` otherwise, each branch of the
    /// scalar formula exactly, since `(−x).exp()` and `x.exp()` are each
    /// `exp(−|x|)` on their own branch.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn sigmoid_avx512(src: &[f32], dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "sigmoid length mismatch");
        let sign = _mm512_set1_epi32(i32::MIN);
        let one = _mm512_set1_ps(1.0);
        for done in (0..src.len()).step_by(LANES) {
            let m = lanes(src.len(), done);
            // SAFETY: `m` covers only elements `done..` that exist.
            let x = unsafe { _mm512_maskz_loadu_ps(m, src.as_ptr().add(done)) };
            // −|x|; a NaN lane keeps `x`, as `vminps` returns its second
            // operand when either is NaN, so `e` is `x + x` there, as the
            // scalar formula's is.
            let neg = _mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(x), sign));
            let e = exp16(_mm512_min_ps(neg, x));
            let non_negative = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_setzero_ps());
            let y = _mm512_div_ps(
                _mm512_mask_mov_ps(e, non_negative, one),
                _mm512_add_ps(one, e),
            );
            // SAFETY: as the load.
            unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr().add(done), m, y) };
        }
    }

    /// `dst[i] = (src[i] − shift).exp()`, bit for bit.
    ///
    /// # Safety
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn exp_shifted_avx512(src: &[f32], shift: f32, dst: &mut [f32]) {
        assert_eq!(src.len(), dst.len(), "exp length mismatch");
        let shift = _mm512_set1_ps(shift);
        for done in (0..src.len()).step_by(LANES) {
            let m = lanes(src.len(), done);
            // SAFETY: `m` covers only elements `done..` that exist.
            let x = unsafe { _mm512_maskz_loadu_ps(m, src.as_ptr().add(done)) };
            let y = exp16(_mm512_sub_ps(x, shift));
            // SAFETY: as the load.
            unsafe { _mm512_mask_storeu_ps(dst.as_mut_ptr().add(done), m, y) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::TABLE;
    use crate::ops::{self, exp_shifted_into, sigmoid_into};

    /// Runs both passes over `inputs` and returns the first input whose
    /// bits differ from the scalar formulas', with what each side gave.
    fn first_mismatch(inputs: &[f32], shift: f32) -> Option<(u32, &'static str, u32, u32)> {
        let mut got = vec![0.0; inputs.len()];
        sigmoid_into(inputs, &mut got);
        for (&x, &y) in inputs.iter().zip(&got) {
            let want = ops::sigmoid(x);
            if y.to_bits() != want.to_bits() {
                return Some((x.to_bits(), "sigmoid", y.to_bits(), want.to_bits()));
            }
        }
        exp_shifted_into(inputs, shift, &mut got);
        for (&x, &y) in inputs.iter().zip(&got) {
            let want = (x - shift).exp();
            if y.to_bits() != want.to_bits() {
                return Some((x.to_bits(), "exp", y.to_bits(), want.to_bits()));
            }
        }
        None
    }

    /// Says when a test can only compare the scalar path with itself.
    fn note_dispatch() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return;
        }
        eprintln!("skip: no AVX-512F on this host, so the scalar path is compared with itself");
    }

    fn assert_matches(inputs: &[f32], shift: f32) {
        if let Some((x, pass, got, want)) = first_mismatch(inputs, shift) {
            panic!(
                "{pass}({:e} = {x:#010x}, shift {shift}): {got:#010x}, scalar {want:#010x}",
                f32::from_bits(x)
            );
        }
    }

    #[test]
    fn matches_the_scalar_formulas_on_a_stride_across_u32() {
        // 4093 is prime, so the ~1.05 M patterns walk every exponent and
        // sign with varied low mantissa bits.
        let inputs: Vec<f32> = (0..=u32::MAX / 4093)
            .map(|i| f32::from_bits(i.wrapping_mul(4093).wrapping_add(i >> 7)))
            .collect();
        assert!(inputs.len() >= 1 << 20);
        note_dispatch();
        assert_matches(&inputs, 0.0);
        assert_matches(&inputs, -1.75);
    }

    #[test]
    fn matches_the_scalar_formulas_at_the_boundaries() {
        let mut bits = vec![
            0x0000_0000, // +0
            0x8000_0000, // −0
            0x7f80_0000, // +∞
            0xff80_0000, // −∞
            0x7fc0_0000, // quiet NaN
            0xffc0_0000, // quiet NaN, sign set
            0x7fa0_0001, // signalling NaN with a payload
            0xff80_0001, // signalling NaN, sign set
            0x7fff_ffff,
            0x0000_0001, // smallest subnormals
            0x8000_0001,
            0x007f_ffff, // largest subnormals
            0x807f_ffff,
            0x0080_0000, // smallest normals
            0x8080_0000,
        ];
        // ±1 ulp around −88 (where glibc's special-case test begins), the
        // underflow and overflow thresholds, their mirrors, and ±1.
        for centre in [
            (-88.0f32).to_bits(),
            super::UNDERFLOW,
            super::OVERFLOW,
            88.0f32.to_bits(),
            super::UNDERFLOW & 0x7fff_ffff,
            super::OVERFLOW | 0x8000_0000,
            1.0f32.to_bits(),
            (-1.0f32).to_bits(),
        ] {
            bits.extend([centre - 1, centre, centre + 1]);
        }
        // The two inputs where an unfused port differs from glibc's FMA build.
        bits.extend([32.564632f32.to_bits(), (-63.09946f32).to_bits()]);
        let inputs: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        for shift in [0.0, 2.5, -3.0] {
            assert_matches(&inputs, shift);
            // One element at a time: every boundary also runs as a tail lane.
            for x in &inputs {
                assert_matches(std::slice::from_ref(x), shift);
            }
        }
    }

    #[test]
    fn every_tail_length_matches_and_writes_only_its_slice() {
        let mut rng = crate::rng::DetRng::new(5);
        for n in [0, 1, 15, 16, 17, 1027] {
            let inputs: Vec<f32> = (0..n).map(|_| rng.uniform(-120.0, 120.0)).collect();
            assert_matches(&inputs, 0.0);
            // The element past the slice is not touched.
            let mut out = vec![7.0f32; n + 1];
            sigmoid_into(&inputs, &mut out[..n]);
            exp_shifted_into(&inputs, 0.0, &mut out[..n]);
            assert_eq!(out[n], 7.0, "length {n}");
        }
    }

    /// Every `f32` input, NaN bit patterns included (≈40 s in release on a
    /// 2-core AVX-512 host).
    #[test]
    #[ignore = "all 2^32 inputs; run in release with --ignored"]
    fn exhaustive_over_all_2_32_inputs() {
        note_dispatch();
        const CHUNK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        let chunks = (1u64 << 32) / CHUNK;
        let mismatches: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut inputs = vec![0.0f32; CHUNK as usize];
                        let mut bad = 0;
                        for c in (t..chunks).step_by(threads as usize) {
                            for (i, x) in inputs.iter_mut().enumerate() {
                                *x = f32::from_bits((c * CHUNK) as u32 + i as u32);
                            }
                            if let Some((x, pass, got, want)) = first_mismatch(&inputs, 0.0) {
                                eprintln!("{pass}({x:#010x}): {got:#010x}, scalar {want:#010x}");
                                bad += 1;
                            }
                        }
                        bad
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(mismatches, 0, "chunks of 2^16 inputs with a mismatch");
    }

    /// A little-endian `u32`-limb natural number, for exact powers.
    fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0;
            for (j, &y) in b.iter().enumerate() {
                let t = out[i + j] + x * y + carry;
                out[i + j] = t & 0xffff_ffff;
                carry = t >> 32;
            }
            out[i + b.len()] = carry;
        }
        while out.len() > 1 && out.last() == Some(&0) {
            out.pop();
        }
        out
    }

    fn pow32(x: u64) -> Vec<u64> {
        let mut v = vec![x & 0xffff_ffff, x >> 32];
        for _ in 0..5 {
            v = mul(&v, &v);
        }
        v
    }

    fn less(a: &[u64], b: &[u64]) -> bool {
        let limb = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let n = a.len().max(b.len());
        (0..n)
            .rev()
            .map(|i| limb(a, i).cmp(&limb(b, i)))
            .find(|o| o.is_ne())
            .is_some_and(|o| o.is_lt())
    }

    #[test]
    fn table_holds_correctly_rounded_powers() {
        for (i, &t) in TABLE.iter().enumerate() {
            // The entry's double, 2^(i/32) ∈ [1, 2), has significand m/2^52:
            // it is correctly rounded iff m − 1/2 < 2^(52 + i/32) < m + 1/2,
            // i.e. (2m − 1)^32 < 2^(53·32 + i) < (2m + 1)^32.
            let bits = t.wrapping_add((i as u64) << 47);
            assert_eq!(bits >> 52, 0x3ff, "entry {i} is not in [1, 2)");
            let m = (bits & ((1 << 52) - 1)) | (1 << 52);
            let e = 53 * 32 + i;
            let mut power = vec![0u64; e / 32 + 1];
            power[e / 32] = 1 << (e % 32);
            assert!(less(&pow32(2 * m - 1), &power), "entry {i} is too large");
            assert!(less(&power, &pow32(2 * m + 1)), "entry {i} is too small");
        }
    }
}
