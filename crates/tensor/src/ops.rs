//! Row-wise kernels shared across the workspace.
//!
//! These free functions operate on the 2-D view of a [`Tensor`]
//! (`[tokens, features]`) and implement the numerically careful pieces —
//! softmax, log-softmax, top-k selection — together with small reduction
//! helpers used by layers and the locality toolkit.

#[cfg(target_arch = "x86_64")]
use crate::expf;
use crate::{workspace, Tensor};

/// Fused `dst[i] += scale * src[i]` over two equal-length slices — the
/// row-level AXPY behind the MoE weighted combine and gradient folds.
///
/// Unrolled four lanes wide; elements are independent, so the result is
/// bit-identical to the naive loop at any width.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn scaled_add(dst: &mut [f32], scale: f32, src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "scaled_add length mismatch");
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] += scale * sc[0];
        dc[1] += scale * sc[1];
        dc[2] += scale * sc[2];
        dc[3] += scale * sc[3];
    }
    for (a, &b) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *a += scale * b;
    }
}

/// Numerically stable row-wise softmax.
///
/// Each row of the 2-D view is shifted by its maximum before
/// exponentiation, so arbitrarily large logits do not overflow.
///
/// # Example
/// ```
/// use vela_tensor::{ops, Tensor};
/// let t = Tensor::from_rows(&[&[0.0, 0.0]]);
/// let s = ops::softmax_rows(&t);
/// assert!((s.at2(0, 0) - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(logits: &Tensor) -> Tensor {
    let (r, c) = logits.shape().as_2d();
    let mut out = workspace::take_uninit((r, c));
    for i in 0..r {
        let (src, row) = (logits.row(i), out.row_mut(i));
        let max = src.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        exp_shifted_into(src, max, row);
        let sum = row.iter().sum::<f32>();
        for x in row.iter_mut() {
            *x /= sum;
        }
    }
    out
}

/// Numerically stable row-wise log-softmax.
pub fn log_softmax_rows(logits: &Tensor) -> Tensor {
    let (r, c) = logits.shape().as_2d();
    let mut out = logits.clone();
    let mut exps = workspace::take_uninit(c);
    for i in 0..r {
        let row = out.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        exp_shifted_into(row, max, exps.as_mut_slice());
        let log_sum = exps.as_slice().iter().sum::<f32>().ln() + max;
        for x in row.iter_mut() {
            *x -= log_sum;
        }
    }
    out
}

/// `dst[i] = (src[i] − shift).exp()`, bit for bit, on sixteen lanes at a
/// time where the CPU has AVX-512F. A softmax passes its row's maximum, so
/// every argument is `≤ 0` or NaN, but any `shift` gives the scalar bits.
pub(crate) fn exp_shifted_into(src: &[f32], shift: f32, dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "exp_shifted_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU just reported AVX-512F.
        unsafe { expf::exp_shifted_avx512(src, shift, dst) };
        return;
    }
    for (y, &x) in dst.iter_mut().zip(src) {
        *y = (x - shift).exp();
    }
}

/// Backward pass of row-wise softmax: given the softmax output `probs` and
/// the upstream gradient `grad_out`, returns the gradient with respect to
/// the logits: `p ⊙ (g − (g·p) 1)` per row.
///
/// # Panics
/// Panics if the shapes differ.
pub fn softmax_rows_backward(probs: &Tensor, grad_out: &Tensor) -> Tensor {
    assert_eq!(
        probs.shape(),
        grad_out.shape(),
        "softmax backward shape mismatch"
    );
    let (r, c) = probs.shape().as_2d();
    let mut out = Tensor::zeros((r, c));
    for i in 0..r {
        let p = probs.row(i);
        let g = grad_out.row(i);
        let dot: f32 = p.iter().zip(g).map(|(&pi, &gi)| pi * gi).sum();
        let o = out.row_mut(i);
        for j in 0..c {
            o[j] = p[j] * (g[j] - dot);
        }
    }
    out
}

/// Indices and values of the `k` largest entries of each row, sorted by
/// descending value (ties broken by lower index, matching deterministic
/// top-k routing).
///
/// Returns `(indices, values)`, each of length `rows * k` in row-major order.
///
/// # Panics
/// Panics if `k` is zero or exceeds the number of columns.
pub fn topk_rows(t: &Tensor, k: usize) -> (Vec<usize>, Vec<f32>) {
    let mut indices = Vec::new();
    let mut values = Vec::new();
    topk_rows_into(t, k, &mut indices, &mut values);
    (indices, values)
}

/// Allocation-free [`topk_rows`]: clears and refills the caller's buffers,
/// reusing their capacity. `k` successive argmax scans per row keep the
/// selection order bitwise-identical to the sorting formulation: strictly
/// greater wins, so ties keep the lower index.
///
/// # Panics
/// Panics if `k` is zero or exceeds the number of columns.
pub fn topk_rows_into(t: &Tensor, k: usize, indices: &mut Vec<usize>, values: &mut Vec<f32>) {
    let (r, c) = t.shape().as_2d();
    assert!(k >= 1 && k <= c, "topk k={k} out of 1..={c}");
    indices.clear();
    values.clear();
    indices.reserve(r * k);
    values.reserve(r * k);
    for i in 0..r {
        let row = t.row(i);
        let picked_start = indices.len();
        for _ in 0..k {
            let picked = &indices[picked_start..];
            let mut best: Option<usize> = None;
            for (j, &v) in row.iter().enumerate() {
                if picked.contains(&j) {
                    continue;
                }
                match best {
                    // `!(v > row[b])`, spelled out: a NaN on either side
                    // never displaces the current pick.
                    Some(b) if v.partial_cmp(&row[b]) != Some(std::cmp::Ordering::Greater) => {}
                    _ => best = Some(j),
                }
            }
            let j = best.expect("k <= cols leaves a candidate");
            indices.push(j);
            values.push(row[j]);
        }
    }
}

/// SiLU (a.k.a. swish) activation `x * sigmoid(x)`, element-wise.
pub fn silu(t: &Tensor) -> Tensor {
    t.map(|x| x * sigmoid(x))
}

/// The logistic function `1 / (1 + e^{-x})`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// `dst[i] = sigmoid(src[i])`, bit for bit. Where the CPU has AVX-512F
/// (detected per call, as [`gemm`](crate::gemm) does; no knob) sixteen
/// lanes at a time, through a vector `exp` that reproduces the host libm's
/// `expf` on every input; elsewhere [`sigmoid`] per element.
///
/// # Panics
/// Panics if the slice lengths differ.
pub fn sigmoid_into(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "sigmoid_into length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        // SAFETY: the CPU just reported AVX-512F.
        unsafe { expf::sigmoid_avx512(src, dst) };
        return;
    }
    for (y, &x) in dst.iter_mut().zip(src) {
        *y = sigmoid(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::rng::DetRng;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = DetRng::new(11);
        let t = Tensor::uniform((7, 5), -4.0, 4.0, &mut rng);
        let s = softmax_rows(&t);
        for i in 0..7 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(s.row(i).iter().all(|&p| p > 0.0));
        }
    }

    /// Both softmaxes as they were before their exps were vectorized: the
    /// reference they are pinned against, bit for bit.
    fn reference_softmaxes(t: &Tensor) -> (Vec<u32>, Vec<u32>) {
        let (mut soft, mut log) = (Vec::new(), Vec::new());
        for i in 0..t.rows() {
            let row = t.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0;
            let exps: Vec<f32> = row
                .iter()
                .map(|x| {
                    let e = (x - max).exp();
                    sum += e;
                    e
                })
                .collect();
            soft.extend(exps.iter().map(|e| (e / sum).to_bits()));
            let log_sum = row.iter().map(|x| (x - max).exp()).sum::<f32>().ln() + max;
            log.extend(row.iter().map(|x| (x - log_sum).to_bits()));
        }
        (soft, log)
    }

    #[test]
    fn softmaxes_are_bitwise_the_scalar_formulas() {
        let bits = |t: Tensor| -> Vec<u32> { t.as_slice().iter().map(|v| v.to_bits()).collect() };
        let mut rng = DetRng::new(14);
        // Widths around the 16-lane chunks; a causal mask's −∞ in some rows.
        for cols in [1, 15, 16, 17, 64, 100] {
            let mut t = Tensor::uniform((6, cols), -30.0, 30.0, &mut rng);
            for i in 0..6 {
                for x in &mut t.row_mut(i)[(i + 1).min(cols)..] {
                    if i % 2 == 0 {
                        *x = f32::NEG_INFINITY;
                    }
                }
            }
            let (soft, log) = reference_softmaxes(&t);
            assert_eq!(bits(softmax_rows(&t)), soft, "softmax, {cols} columns");
            assert_eq!(
                bits(log_softmax_rows(&t)),
                log,
                "log-softmax, {cols} columns"
            );
        }
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let t = Tensor::from_rows(&[&[1000.0, 1000.0, 999.0]]);
        let s = softmax_rows(&t);
        assert!(s.as_slice().iter().all(|p| p.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(s.at2(0, 0) > s.at2(0, 2));
    }

    #[test]
    fn log_softmax_consistent_with_softmax() {
        let mut rng = DetRng::new(12);
        let t = Tensor::uniform((4, 6), -3.0, 3.0, &mut rng);
        let ls = log_softmax_rows(&t);
        let s = softmax_rows(&t);
        let exp_ls = ls.map(f32::exp);
        assert!(approx_eq(exp_ls.as_slice(), s.as_slice(), 1e-5));
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let mut rng = DetRng::new(13);
        let logits = Tensor::uniform((2, 4), -1.0, 1.0, &mut rng);
        let grad_out = Tensor::uniform((2, 4), -1.0, 1.0, &mut rng);
        let probs = softmax_rows(&logits);
        let analytic = softmax_rows_backward(&probs, &grad_out);
        let eps = 1e-3f32;
        for idx in 0..logits.len() {
            let mut plus = logits.clone();
            plus.as_mut_slice()[idx] += eps;
            let mut minus = logits.clone();
            minus.as_mut_slice()[idx] -= eps;
            let fp: f32 = softmax_rows(&plus)
                .as_slice()
                .iter()
                .zip(grad_out.as_slice())
                .map(|(&p, &g)| p * g)
                .sum();
            let fm: f32 = softmax_rows(&minus)
                .as_slice()
                .iter()
                .zip(grad_out.as_slice())
                .map(|(&p, &g)| p * g)
                .sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - analytic.at(idx)).abs() < 2e-2,
                "idx {idx}: numeric {numeric} vs analytic {}",
                analytic.at(idx)
            );
        }
    }

    #[test]
    fn topk_orders_by_value() {
        let t = Tensor::from_rows(&[&[0.1, 0.9, 0.5], &[3.0, 1.0, 2.0]]);
        let (idx, val) = topk_rows(&t, 2);
        assert_eq!(idx, vec![1, 2, 0, 2]);
        assert_eq!(val, vec![0.9, 0.5, 3.0, 2.0]);
    }

    #[test]
    fn topk_ties_prefer_lower_index() {
        let t = Tensor::from_rows(&[&[0.5, 0.5, 0.5]]);
        let (idx, _) = topk_rows(&t, 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn topk_into_reuses_buffers_and_matches_sort_order() {
        let mut rng = DetRng::new(23);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for case in 0..50 {
            let rows = 1 + case % 5;
            let cols = 2 + case % 7;
            let k = 1 + case % cols;
            // Quantized entries force frequent ties.
            let mut t = Tensor::uniform((rows, cols), -1.0, 1.0, &mut rng);
            for v in t.as_mut_slice() {
                *v = (*v * 4.0).round() / 4.0;
            }
            topk_rows_into(&t, k, &mut indices, &mut values);
            // Reference: full descending sort, ties by lower index.
            let mut want_idx = Vec::new();
            let mut want_val = Vec::new();
            for i in 0..rows {
                let row = t.row(i);
                let mut order: Vec<usize> = (0..cols).collect();
                order.sort_by(|&a, &b| {
                    row[b]
                        .partial_cmp(&row[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
                for &j in order.iter().take(k) {
                    want_idx.push(j);
                    want_val.push(row[j]);
                }
            }
            assert_eq!(indices, want_idx, "case {case}");
            assert_eq!(values, want_val, "case {case}");
        }
    }

    #[test]
    fn silu_matches_definition() {
        let t = Tensor::from_vec(3usize, vec![-2.0, 0.0, 2.0]);
        let s = silu(&t);
        assert!((s.at(1)).abs() < 1e-7);
        assert!((s.at(2) - 2.0 * sigmoid(2.0)).abs() < 1e-6);
        assert!(s.at(0) < 0.0);
    }

    #[test]
    fn sigmoid_symmetry() {
        for &x in &[-5.0f32, -1.0, 0.0, 1.0, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "topk k=")]
    fn topk_rejects_oversized_k() {
        topk_rows(&Tensor::zeros((1, 2)), 3);
    }
}
