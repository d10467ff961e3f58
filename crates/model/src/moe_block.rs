//! The MoE block: gate, dispatch, expert evaluation, weighted combine.
//!
//! Mirrors Fig. 1 of the paper. The block computes the gating decision
//! locally (the gate is part of the backbone) and delegates expert FFN
//! evaluation to an [`ExpertProvider`] — the broker seam that lets the same
//! backbone run single-process or distributed.

use vela_nn::param::{Module, Param};
use vela_obs::{LazyCounter, LazyHistogram};
use vela_tensor::rng::DetRng;
use vela_tensor::{workspace, Tensor};

/// Token-slot assignments dispatched to an expert.
static MOE_TOKENS: LazyCounter = LazyCounter::new("model.moe.assigned");
/// Experts that received at least one token (dispatch occupancy).
static MOE_ACTIVE: LazyCounter = LazyCounter::new("model.moe.active_experts");
/// Distribution of per-expert group sizes (rows per dispatch group).
static MOE_GROUP_ROWS: LazyHistogram = LazyHistogram::new("model.moe.group_rows");
/// Assignments that landed on an expert with ≥ 2 live replicas (only
/// incremented when the provider actually replicates, so single-owner
/// traces carry no trace of this counter).
static MOE_REPLICATED_ROWS: LazyCounter = LazyCounter::new("model.moe.replicated_rows");

use crate::provider::{ExpertBatch, ExpertProvider};
use crate::router::Router;

/// What the gate decided for one batch at one block — the routing metadata
/// that locality measurement and traffic accounting consume.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingInfo {
    /// Selected expert ids, `[tokens · k]`, row-major.
    pub selected: Vec<usize>,
    /// Softmax scores of the selected experts, `[tokens · k]`.
    pub selected_probs: Vec<f32>,
    /// Tokens routed to each expert (length = experts); they sum to
    /// `tokens · k`, since every selected slot reaches its expert.
    pub counts: Vec<usize>,
    /// Number of tokens in the batch.
    pub tokens: usize,
    /// Experts per token.
    pub k: usize,
}

impl RoutingInfo {
    /// Per-expert access frequency: `counts[e] / (tokens · k)`.
    pub fn frequencies(&self) -> Vec<f32> {
        let total = (self.tokens * self.k).max(1) as f32;
        self.counts.iter().map(|&c| c as f32 / total).collect()
    }

    /// Sum of the selected softmax scores per token (the Fig. 3(b) metric).
    pub fn selected_score_sums(&self) -> Vec<f32> {
        (0..self.tokens)
            .map(|t| {
                self.selected_probs[t * self.k..(t + 1) * self.k]
                    .iter()
                    .sum()
            })
            .collect()
    }
}

/// One MoE block: a [`Router`] plus provider-mediated expert dispatch.
#[derive(Debug)]
pub struct MoeBlock {
    router: Router,
    block: usize,
    experts: usize,
    dim: usize,
    last_routing: Option<RoutingInfo>,
    state: DispatchState,
}

/// Persistent dispatch scratch, reused across training steps so the
/// gather → compute → scatter hot path stays allocation-free.
///
/// Token groups are stored CSR-style: group `gi` serves expert
/// `experts[gi]` and owns `toks[offsets[gi]..offsets[gi + 1]]` (token row
/// indices, batch order) with the matching `(t·k + j)` slot indices in
/// `slots`.
#[derive(Debug, Default)]
struct DispatchState {
    /// Dispatched (non-empty) expert ids, ascending.
    experts: Vec<usize>,
    /// CSR group boundaries into `toks` / `slots`, length `experts.len()+1`.
    offsets: Vec<usize>,
    /// Token row indices grouped by expert, batch order within each group.
    toks: Vec<usize>,
    /// Slot index (`t·k + j`) for each grouped token, aligned with `toks`.
    slots: Vec<usize>,
    /// Expert input batches; tensor buffers are reused across steps.
    batches: Vec<ExpertBatch>,
    /// Gradient batches for the backward dispatch, likewise reused.
    grad_batches: Vec<ExpertBatch>,
    /// Expert outputs from the last forward, aligned with `experts`.
    outputs: Vec<Tensor>,
    /// Mixture weights `[tokens · k]` from the last forward.
    weights: Vec<f32>,
    /// Per-(token, slot) weight gradients, reused by backward.
    grad_weights: Vec<f32>,
    /// Per-expert scratch for the grouping pass (counts, then group ids).
    counts: Vec<usize>,
    /// Per-group fill cursors for the grouping pass.
    cursor: Vec<usize>,
    tokens: usize,
    /// Set by `forward`, consumed by `backward`.
    ready: bool,
}

impl MoeBlock {
    /// Creates block `block` with `experts` experts and top-`k` routing.
    pub fn new(
        block: usize,
        dim: usize,
        experts: usize,
        k: usize,
        aux_weight: f32,
        rng: &mut DetRng,
    ) -> Self {
        MoeBlock {
            router: Router::new(format!("block{block}"), dim, experts, k, aux_weight, rng),
            block,
            experts,
            dim,
            last_routing: None,
            state: DispatchState::default(),
        }
    }

    /// The block index within the model.
    pub fn index(&self) -> usize {
        self.block
    }

    /// The router (gate) of this block.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Mutable router access (used to freeze the gate for fine-tuning).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// Routing metadata from the most recent forward pass.
    pub fn last_routing(&self) -> Option<&RoutingInfo> {
        self.last_routing.as_ref()
    }

    /// Forward pass over `[tokens, dim]`, evaluating experts through
    /// `provider`.
    pub fn forward(&mut self, x: &Tensor, provider: &mut dyn ExpertProvider) -> Tensor {
        let _span = vela_obs::span("model.moe.fwd");
        let tokens = x.rows();
        let rout = self.router.forward(x);
        let state = &mut self.state;

        // Pass 1: per-expert assignment counts. Every selected slot
        // reaches its expert.
        state.counts.clear();
        state.counts.resize(self.experts, 0);
        for &e in &rout.selected {
            state.counts[e] += 1;
        }

        // Pass 2: CSR offsets over the non-empty experts, then a stable
        // fill of the grouped token / slot index arrays.
        state.experts.clear();
        state.offsets.clear();
        state.offsets.push(0);
        for e in 0..self.experts {
            if state.counts[e] > 0 {
                state.experts.push(e);
                state
                    .offsets
                    .push(state.offsets.last().unwrap() + state.counts[e]);
            }
        }
        let ngroups = state.experts.len();
        let assigned = *state.offsets.last().unwrap();
        if vela_obs::enabled() {
            MOE_TOKENS.add(assigned as u64);
            MOE_ACTIVE.add(ngroups as u64);
            for gi in 0..ngroups {
                MOE_GROUP_ROWS.record((state.offsets[gi + 1] - state.offsets[gi]) as u64);
            }
            let replicated: u64 = state
                .experts
                .iter()
                .enumerate()
                .filter(|&(_, &e)| provider.replica_degree(self.block, e) > 1)
                .map(|(gi, _)| (state.offsets[gi + 1] - state.offsets[gi]) as u64)
                .sum();
            if replicated > 0 {
                MOE_REPLICATED_ROWS.add(replicated);
            }
            if vela_obs::tracing() {
                let rows: Vec<(usize, usize)> = state
                    .experts
                    .iter()
                    .enumerate()
                    .map(|(gi, &e)| (e, state.offsets[gi + 1] - state.offsets[gi]))
                    .collect();
                vela_obs::expert_rows("model", "fwd", self.block, &rows);
            }
        }
        state.toks.clear();
        state.toks.resize(assigned, 0);
        state.slots.clear();
        state.slots.resize(assigned, 0);
        // Reuse `counts` as expert → group index; every selected expert
        // has a group.
        for (gi, &e) in state.experts.iter().enumerate() {
            state.counts[e] = gi;
        }
        state.cursor.clear();
        state
            .cursor
            .extend(state.offsets[..ngroups].iter().copied());
        for t in 0..tokens {
            for j in 0..rout.k {
                let slot = t * rout.k + j;
                let gi = state.counts[rout.selected[slot]];
                let pos = state.cursor[gi];
                state.toks[pos] = t;
                state.slots[pos] = slot;
                state.cursor[gi] += 1;
            }
        }

        // Gather each group's rows into reused batch tensors.
        while state.batches.len() < ngroups {
            state.batches.push(ExpertBatch {
                expert: 0,
                xs: Tensor::zeros(1usize),
            });
        }
        state.batches.truncate(ngroups);
        for gi in 0..ngroups {
            let range = state.offsets[gi]..state.offsets[gi + 1];
            state.batches[gi].expert = state.experts[gi];
            x.gather_rows_into(&state.toks[range], &mut state.batches[gi].xs);
        }

        // Weighted combine (Eq. (1)), streamed: scatter each expert output
        // row back to its token, scaled by the mixture weight, as soon as the
        // provider delivers that group — a remote provider keeps other workers'
        // replies in flight while earlier ones combine. The provider contract
        // (ascending group index, exactly once) makes this visit groups in
        // ascending expert order, reproducing the pre-CSR accumulation order
        // bit for bit.
        let mut y = workspace::take((tokens, self.dim));
        {
            let DispatchState {
                offsets,
                toks,
                slots,
                batches,
                outputs,
                ..
            } = &mut *state;
            outputs.clear();
            let weights = &rout.weights;
            provider.forward_block_streamed(self.block, batches, &mut |gi, out| {
                assert_eq!(gi, outputs.len(), "streamed group out of order");
                for (pos, p) in (offsets[gi]..offsets[gi + 1]).enumerate() {
                    let w = weights[slots[p]];
                    vela_tensor::ops::scaled_add(y.row_mut(toks[p]), w, out.row(pos));
                }
                outputs.push(out);
            });
        }
        assert_eq!(
            state.outputs.len(),
            ngroups,
            "provider returned wrong count"
        );

        // Rebuild per-expert counts for the routing info (cursor pass
        // overwrote them with group indices).
        let info = self.last_routing.get_or_insert_with(|| RoutingInfo {
            selected: Vec::new(),
            selected_probs: Vec::new(),
            counts: Vec::new(),
            tokens: 0,
            k: rout.k,
        });
        info.selected.clear();
        info.selected.extend_from_slice(&rout.selected);
        info.selected_probs.clear();
        info.selected_probs.extend_from_slice(&rout.selected_probs);
        info.counts.clear();
        info.counts.resize(self.experts, 0);
        for (gi, &e) in state.experts.iter().enumerate() {
            info.counts[e] = state.offsets[gi + 1] - state.offsets[gi];
        }
        info.tokens = tokens;
        info.k = rout.k;

        state.weights.clear();
        state.weights.extend_from_slice(&rout.weights);
        state.tokens = tokens;
        state.ready = true;
        y
    }

    /// Backward pass; accumulates router gradients, sends expert gradients
    /// through `provider`, and returns the input gradient.
    ///
    /// # Panics
    /// Panics if called before [`forward`](Self::forward).
    pub fn backward(&mut self, grad_out: &Tensor, provider: &mut dyn ExpertProvider) -> Tensor {
        let _span = vela_obs::span("model.moe.bwd");
        assert!(self.state.ready, "MoeBlock::backward before forward");
        let state = &mut self.state;
        state.ready = false;
        let k = self.router.k();
        let ngroups = state.experts.len();

        // Per-group gradient batches (w · grad_out_t per token) and
        // mixture-weight gradients ⟨grad_out_t, y_expert_t⟩, built into
        // reused buffers: gather the grad rows, then scale each by its
        // mixture weight.
        state.grad_weights.clear();
        state.grad_weights.resize(state.tokens * k, 0.0);
        while state.grad_batches.len() < ngroups {
            state.grad_batches.push(ExpertBatch {
                expert: 0,
                xs: Tensor::zeros(1usize),
            });
        }
        state.grad_batches.truncate(ngroups);
        for gi in 0..ngroups {
            let range = state.offsets[gi]..state.offsets[gi + 1];
            let gb = &mut state.grad_batches[gi];
            gb.expert = state.experts[gi];
            grad_out.gather_rows_into(&state.toks[range.clone()], &mut gb.xs);
            let out = &state.outputs[gi];
            for (pos, p) in range.enumerate() {
                let slot = state.slots[p];
                let w = state.weights[slot];
                let row = gb.xs.row_mut(pos);
                let gw = row.iter().zip(out.row(pos)).map(|(&a, &b)| a * b).sum();
                state.grad_weights[slot] = gw;
                for d in row.iter_mut() {
                    *d *= w;
                }
            }
        }

        // Streamed gradient scatter: fold each group's input gradient into
        // `gx` as it arrives; ascending-prefix delivery keeps the
        // accumulation order identical to the collect-then-scatter path.
        let mut gx = workspace::take((state.tokens, self.dim));
        let mut emitted = 0usize;
        {
            let DispatchState {
                offsets,
                toks,
                grad_batches,
                ..
            } = &mut *state;
            provider.backward_block_streamed(self.block, grad_batches, &mut |gi, grads| {
                assert_eq!(gi, emitted, "streamed group out of order");
                gx.scatter_add_rows(&toks[offsets[gi]..offsets[gi + 1]], &grads);
                emitted += 1;
            });
        }
        assert_eq!(emitted, ngroups, "provider returned wrong gradient count");
        gx.add_assign(&self.router.backward(&state.grad_weights));
        gx
    }
}

impl Module for MoeBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.router.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::LocalExpertStore;
    use crate::ModelConfig;

    fn setup() -> (MoeBlock, LocalExpertStore, ModelConfig) {
        let cfg = ModelConfig::test_small();
        let mut rng = DetRng::new(10);
        let store = LocalExpertStore::new(&cfg, &mut rng);
        let block = MoeBlock::new(0, cfg.dim, cfg.experts, cfg.top_k, 0.0, &mut rng);
        (block, store, cfg)
    }

    #[test]
    fn forward_shape_and_routing_info() {
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(1);
        let x = Tensor::uniform((9, cfg.dim), -1.0, 1.0, &mut rng);
        let y = block.forward(&x, &mut store);
        assert_eq!(y.shape().as_2d(), (9, cfg.dim));
        let info = block.last_routing().unwrap();
        assert_eq!(info.tokens, 9);
        assert_eq!(info.counts.iter().sum::<usize>(), 9 * cfg.top_k);
        let freq_sum: f32 = info.frequencies().iter().sum();
        assert!((freq_sum - 1.0).abs() < 1e-5);
        assert_eq!(info.selected_score_sums().len(), 9);
    }

    #[test]
    fn output_is_convex_combination_of_expert_outputs() {
        // With k = experts = 1-expert selection impossible here, instead
        // verify against a manual recomputation.
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(2);
        let x = Tensor::uniform((4, cfg.dim), -1.0, 1.0, &mut rng);
        let y = block.forward(&x, &mut store);
        let info = block.last_routing().unwrap().clone();

        // Manual: for token 0, recompute w0·E_a(x0) + w1·E_b(x0).
        let e0 = info.selected[0];
        let e1 = info.selected[1];
        let p0 = info.selected_probs[0];
        let p1 = info.selected_probs[1];
        let (w0, w1) = (p0 / (p0 + p1), p1 / (p0 + p1));
        let x0 = x.gather_rows(&[0]);
        let y0a = store.expert_mut(0, e0).forward(&x0);
        let y0b = store.expert_mut(0, e1).forward(&x0);
        let manual = y0a.scale(w0).add(&y0b.scale(w1));
        assert!(vela_tensor::approx_eq(y.row(0), manual.as_slice(), 1e-4));
    }

    #[test]
    fn backward_produces_full_input_gradient() {
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(3);
        let x = Tensor::uniform((6, cfg.dim), -1.0, 1.0, &mut rng);
        block.forward(&x, &mut store);
        let g = Tensor::uniform((6, cfg.dim), -1.0, 1.0, &mut rng);
        let gx = block.backward(&g, &mut store);
        assert_eq!(gx.shape().as_2d(), (6, cfg.dim));
        assert!(gx.norm() > 0.0);
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(4);
        let x = Tensor::uniform((3, cfg.dim), -0.5, 0.5, &mut rng);
        let gout = Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng);

        block.forward(&x, &mut store);
        let gx = block.backward(&gout, &mut store);

        let probe = |block: &mut MoeBlock, store: &mut LocalExpertStore, x: &Tensor| -> f32 {
            block
                .forward(x, store)
                .as_slice()
                .iter()
                .zip(gout.as_slice())
                .map(|(&y, &g)| y * g)
                .sum()
        };
        let eps = 1e-2f32;
        let mut checked = 0;
        for idx in (0..x.len()).step_by(7) {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            // Skip points where the perturbation flips the routing decision
            // (the function is only piecewise smooth).
            let fp = probe(&mut block, &mut store, &xp);
            let sel_p = block.last_routing().unwrap().selected.clone();
            let fm = probe(&mut block, &mut store, &xm);
            let sel_m = block.last_routing().unwrap().selected.clone();
            if sel_p != sel_m {
                continue;
            }
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gx.at(idx)).abs() < 5e-2 * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {}",
                gx.at(idx)
            );
            checked += 1;
        }
        assert!(checked >= 3, "too few smooth points checked");
    }

    #[test]
    fn expert_gradients_flow_only_to_selected_experts() {
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(5);
        let x = Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng);
        block.forward(&x, &mut store);
        let selected: std::collections::HashSet<usize> = block
            .last_routing()
            .unwrap()
            .selected
            .iter()
            .copied()
            .collect();
        block.backward(&Tensor::ones((2, cfg.dim)), &mut store);
        for e in 0..cfg.experts {
            let mut grad_norm = 0.0f32;
            store
                .expert_mut(0, e)
                .visit_params(&mut |p| grad_norm += p.grad.norm());
            if selected.contains(&e) {
                assert!(grad_norm > 0.0, "selected expert {e} got no gradient");
            } else {
                assert_eq!(grad_norm, 0.0, "unselected expert {e} got gradient");
            }
        }
    }

    #[test]
    fn every_selected_slot_reaches_its_expert() {
        let (mut block, mut store, cfg) = setup();
        let mut rng = DetRng::new(22);
        let x = Tensor::uniform((8, cfg.dim), -1.0, 1.0, &mut rng);
        block.forward(&x, &mut store);
        let info = block.last_routing().unwrap();
        assert_eq!(info.counts.iter().sum::<usize>(), 8 * cfg.top_k);
        for (e, &c) in info.counts.iter().enumerate() {
            assert_eq!(c, info.selected.iter().filter(|&&s| s == e).count());
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_before_forward_panics() {
        let (mut block, mut store, cfg) = setup();
        block.backward(&Tensor::zeros((1, cfg.dim)), &mut store);
    }
}
