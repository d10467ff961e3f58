//! Optimizers: SGD and AdamW.
//!
//! Optimizers walk a [`Module`]'s parameters through the visitor API and
//! keep any per-parameter state keyed by parameter name, so layers retain
//! ownership of their weights. Frozen parameters are skipped.
//!
//! The default AdamW hyper-parameters mirror the paper's fine-tuning setup:
//! learning rate `3e-5`, betas `[0.8, 0.999]`, `ε = 1e-8`, weight decay
//! `3e-7`.

use std::collections::HashMap;

use vela_tensor::Tensor;

use crate::param::Module;

/// Plain stochastic gradient descent: `w ← w − lr · g`.
///
/// Used by the Theorem 1 analysis, which assumes SGD updates.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with the given learning rate.
    ///
    /// # Panics
    /// Panics if `lr` is not positive and finite.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0 && lr.is_finite(), "lr must be positive, got {lr}");
        Sgd { lr }
    }

    /// The learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Applies one descent step to every trainable parameter.
    pub fn step(&mut self, module: &mut dyn Module) {
        let lr = self.lr;
        module.visit_params(&mut |p| {
            if p.is_trainable() {
                p.value.axpy(-lr, &p.grad);
            }
        });
    }
}

/// Hyper-parameters for [`AdamW`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamWConfig {
    /// Learning rate.
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for AdamWConfig {
    /// The paper's fine-tuning hyper-parameters (§V-A).
    fn default() -> Self {
        AdamWConfig {
            lr: 3e-5,
            beta1: 0.8,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 3e-7,
        }
    }
}

/// AdamW (Adam with decoupled weight decay).
#[derive(Debug, Clone)]
pub struct AdamW {
    cfg: AdamWConfig,
    /// First/second moment estimates keyed by parameter name.
    state: HashMap<String, (Tensor, Tensor)>,
    /// Global step counter (for bias correction).
    t: u64,
}

impl AdamW {
    /// Creates an AdamW optimizer.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (non-positive `lr`, betas
    /// outside `[0, 1)`).
    pub fn new(cfg: AdamWConfig) -> Self {
        assert!(cfg.lr > 0.0 && cfg.lr.is_finite(), "invalid lr {}", cfg.lr);
        assert!(
            (0.0..1.0).contains(&cfg.beta1),
            "invalid beta1 {}",
            cfg.beta1
        );
        assert!(
            (0.0..1.0).contains(&cfg.beta2),
            "invalid beta2 {}",
            cfg.beta2
        );
        AdamW {
            cfg,
            state: HashMap::new(),
            t: 0,
        }
    }

    /// The optimizer configuration.
    pub fn config(&self) -> &AdamWConfig {
        &self.cfg
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one AdamW step to every trainable parameter.
    pub fn step(&mut self, module: &mut dyn Module) {
        self.t += 1;
        let t = self.t as i32;
        let cfg = self.cfg;
        let bc1 = 1.0 - cfg.beta1.powi(t);
        let bc2 = 1.0 - cfg.beta2.powi(t);
        let state = &mut self.state;
        module.visit_params(&mut |p| {
            if !p.is_trainable() {
                return;
            }
            // Looked up by `&str`: the name is copied only on the first step
            // a parameter takes.
            if !state.contains_key(p.name()) {
                let zeros = || Tensor::zeros(*p.value.shape());
                state.insert(p.name().to_string(), (zeros(), zeros()));
            }
            let (m, v) = state.get_mut(p.name()).expect("inserted above");
            let (m, v) = (m.as_mut_slice(), v.as_mut_slice());
            let g = p.grad.as_slice();
            let w = p.value.as_mut_slice();
            for i in 0..g.len() {
                let gi = g[i];
                let mi = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * gi;
                let vi = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * gi * gi;
                m[i] = mi;
                v[i] = vi;
                let m_hat = mi / bc1;
                let v_hat = vi / bc2;
                // Decoupled weight decay, then the Adam update.
                w[i] -= cfg.lr * cfg.weight_decay * w[i];
                w[i] -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
            }
        });
    }

    /// The stored moment pair for a parameter, if one exists. Parameters
    /// get moment entries lazily on their first [`AdamW::step`].
    pub fn moments(&self, name: &str) -> Option<(&Tensor, &Tensor)> {
        self.state.get(name).map(|(m, v)| (m, v))
    }

    /// Removes and returns the stored moment pair for a parameter, if any.
    /// After removal the parameter behaves like a fresh one: its moments
    /// re-initialize to zero on the next step.
    pub fn take_moments(&mut self, name: &str) -> Option<(Tensor, Tensor)> {
        self.state.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    fn quadratic_grad(p: &mut Param) {
        // loss = 0.5 * ||w||², grad = w.
        let g = p.value.clone();
        p.zero_grad();
        p.accumulate(&g);
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut params = vec![Param::new("w", Tensor::from_vec(2usize, vec![4.0, -2.0]))];
        let mut opt = Sgd::new(0.1);
        for _ in 0..100 {
            quadratic_grad(&mut params[0]);
            opt.step(&mut params);
        }
        assert!(params[0].value.norm() < 1e-3);
    }

    #[test]
    fn sgd_single_step_formula() {
        let mut params = vec![Param::new("w", Tensor::from_vec(1usize, vec![1.0]))];
        params[0].accumulate(&Tensor::from_vec(1usize, vec![0.5]));
        Sgd::new(0.2).step(&mut params);
        assert!((params[0].value.at(0) - 0.9).abs() < 1e-6);
    }

    #[test]
    fn sgd_skips_frozen() {
        let mut params = vec![Param::frozen("w", Tensor::ones(1usize))];
        params[0].accumulate(&Tensor::ones(1usize));
        Sgd::new(1.0).step(&mut params);
        assert_eq!(params[0].value.at(0), 1.0);
    }

    #[test]
    fn adamw_descends_quadratic() {
        let mut params = vec![Param::new(
            "w",
            Tensor::from_vec(3usize, vec![5.0, -3.0, 1.0]),
        )];
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.05,
            ..AdamWConfig::default()
        });
        for _ in 0..500 {
            quadratic_grad(&mut params[0]);
            opt.step(&mut params);
        }
        assert!(
            params[0].value.norm() < 0.05,
            "norm {}",
            params[0].value.norm()
        );
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn adamw_first_step_size_is_about_lr() {
        // With bias correction the first Adam step has magnitude ≈ lr.
        let mut params = vec![Param::new("w", Tensor::from_vec(1usize, vec![0.0]))];
        params[0].accumulate(&Tensor::from_vec(1usize, vec![3.0]));
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.01,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        });
        opt.step(&mut params);
        assert!((params[0].value.at(0) + 0.01).abs() < 1e-4);
    }

    #[test]
    fn adamw_weight_decay_shrinks_without_gradient() {
        let mut params = vec![Param::new("w", Tensor::from_vec(1usize, vec![1.0]))];
        let mut opt = AdamW::new(AdamWConfig {
            lr: 0.1,
            weight_decay: 0.5,
            ..AdamWConfig::default()
        });
        opt.step(&mut params);
        // grad = 0, so only decay acts: w *= (1 - lr*wd) = 0.95.
        assert!((params[0].value.at(0) - 0.95).abs() < 1e-5);
    }

    #[test]
    fn adamw_state_tracks_params_independently() {
        let mut params = vec![
            Param::new("a", Tensor::from_vec(1usize, vec![1.0])),
            Param::new("b", Tensor::from_vec(1usize, vec![1.0])),
        ];
        let mut opt = AdamW::new(AdamWConfig::default());
        params[0].accumulate(&Tensor::ones(1usize));
        opt.step(&mut params);
        assert_eq!(opt.state.len(), 2);
        // "a" moved; "b" (zero grad, tiny decay) barely moved.
        assert!(params[0].value.at(0) < params[1].value.at(0));
    }

    #[test]
    fn taken_moments_leave_the_parameter_fresh() {
        // What a worker does when an expert leaves it: once the entry is
        // taken, the parameter's next step starts from zero moments again.
        let mut params = vec![Param::new("w", Tensor::from_vec(1usize, vec![2.0]))];
        let mut opt = AdamW::new(AdamWConfig::default());
        params[0].accumulate(&Tensor::ones(1usize));
        opt.step(&mut params);
        let (m, v) = opt.take_moments("w").unwrap();
        assert!(m.at(0) > 0.0 && v.at(0) > 0.0);
        assert!(opt.moments("w").is_none());
        assert!(opt.take_moments("w").is_none());

        params[0].zero_grad();
        opt.step(&mut params);
        let (m, v) = opt.moments("w").unwrap();
        assert_eq!((m.at(0), v.at(0)), (0.0, 0.0), "restarted from zero");
    }

    #[test]
    fn default_config_matches_paper() {
        let cfg = AdamWConfig::default();
        assert_eq!(cfg.lr, 3e-5);
        assert_eq!(cfg.beta1, 0.8);
        assert_eq!(cfg.beta2, 0.999);
        assert_eq!(cfg.eps, 1e-8);
        assert_eq!(cfg.weight_decay, 3e-7);
    }

    #[test]
    #[should_panic(expected = "lr must be positive")]
    fn sgd_rejects_bad_lr() {
        Sgd::new(0.0);
    }

    #[test]
    #[should_panic(expected = "invalid beta1")]
    fn adamw_rejects_bad_beta() {
        AdamW::new(AdamWConfig {
            beta1: 1.0,
            ..AdamWConfig::default()
        });
    }
}
