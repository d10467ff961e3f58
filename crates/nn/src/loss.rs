//! Cross-entropy loss for language modelling.

use vela_tensor::{ops, Tensor};

/// Mean token-level cross-entropy between `logits` (`[tokens, vocab]`) and
/// integer `targets`, together with the gradient with respect to the logits.
///
/// Returns `(loss, grad_logits)` where
/// `grad_logits = (softmax(logits) − onehot(targets)) / tokens` — i.e. the
/// gradient of the *mean* loss, ready to feed into the model's backward
/// pass.
///
/// # Panics
/// Panics if `targets.len()` differs from the number of logit rows or any
/// target id is out of the vocabulary.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let (rows, vocab) = logits.shape().as_2d();
    assert_eq!(rows, targets.len(), "one target per logit row");
    let log_probs = ops::log_softmax_rows(logits);
    let mut loss = 0.0f32;
    for (i, &t) in targets.iter().enumerate() {
        assert!(t < vocab, "target {t} out of vocab {vocab}");
        loss -= log_probs.at2(i, t);
    }
    loss /= rows as f32;

    let mut grad = ops::softmax_rows(logits);
    let inv = 1.0 / rows as f32;
    for (i, &t) in targets.iter().enumerate() {
        let row = grad.row_mut(i);
        row[t] -= 1.0;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vela_tensor::rng::DetRng;

    #[test]
    fn uniform_logits_give_log_vocab_loss() {
        let logits = Tensor::zeros((4, 8));
        let (loss, _) = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((loss - (8.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_gives_low_loss() {
        let mut logits = Tensor::zeros((1, 4));
        logits.set2(0, 2, 20.0);
        let (loss, _) = cross_entropy(&logits, &[2]);
        assert!(loss < 1e-3, "loss {loss}");
    }

    #[test]
    fn confident_wrong_prediction_gives_high_loss() {
        let mut logits = Tensor::zeros((1, 4));
        logits.set2(0, 2, 20.0);
        let (loss, _) = cross_entropy(&logits, &[0]);
        assert!(loss > 10.0, "loss {loss}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = DetRng::new(1);
        let logits = Tensor::uniform((3, 5), -2.0, 2.0, &mut rng);
        let targets = [4usize, 0, 2];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-2f32;
        for idx in 0..logits.len() {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let (fp, _) = cross_entropy(&lp, &targets);
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let (fm, _) = cross_entropy(&lm, &targets);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - grad.at(idx)).abs() < 1e-3,
                "idx {idx}: {numeric} vs {}",
                grad.at(idx)
            );
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = DetRng::new(2);
        let logits = Tensor::uniform((4, 6), -1.0, 1.0, &mut rng);
        let (_, grad) = cross_entropy(&logits, &[0, 1, 2, 3]);
        for i in 0..4 {
            let s: f32 = grad.row(i).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "one target per logit row")]
    fn mismatched_targets_panic() {
        cross_entropy(&Tensor::zeros((2, 3)), &[0]);
    }
}
