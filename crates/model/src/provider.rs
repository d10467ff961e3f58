//! The Expert Broker seam: providers evaluate experts on the backbone's
//! behalf.
//!
//! VELA's framework contribution is the separation of expert layers from the
//! model backbone (§IV-A). In this codebase that separation is the
//! [`ExpertProvider`] trait: the backbone's MoE blocks group tokens by
//! selected expert and hand the groups to a provider, never touching expert
//! weights themselves. [`LocalExpertStore`] is the single-process provider;
//! the distributed runtime implements the same trait with a broker that
//! ships the groups to worker processes over the network.

use vela_nn::param::{Module, Param};
use vela_nn::swiglu::SwiGlu;
use vela_tensor::parallel;
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

use crate::ModelConfig;

/// A group of token activations bound for one expert.
#[derive(Debug, Clone)]
pub struct ExpertBatch {
    /// Expert index within the block.
    pub expert: usize,
    /// Token features, `[tokens_for_this_expert, dim]`.
    pub xs: Tensor,
}

/// Evaluates expert FFNs for the backbone.
///
/// For every block, a training step calls [`forward_block`] exactly once and
/// then [`backward_block`] exactly once with gradients in the *same order*
/// as the forward batches. Providers may rely on that protocol (the
/// distributed broker does, to match gradient messages to cached
/// activations).
///
/// [`forward_block`]: ExpertProvider::forward_block
/// [`backward_block`]: ExpertProvider::backward_block
pub trait ExpertProvider {
    /// Live replica count serving `(block, expert)`. Providers with
    /// single-owner experts — the default — report 1; the distributed
    /// broker overrides this with its placement's replica-set size so the
    /// backbone can observe which token groups ride a replicated expert.
    /// Purely informational: dispatch semantics never depend on it.
    fn replica_degree(&self, _block: usize, _expert: usize) -> usize {
        1
    }

    /// Runs each batch through its expert; returns outputs in input order.
    fn forward_block(&mut self, block: usize, batches: &[ExpertBatch]) -> Vec<Tensor>;

    /// Backward pass for the batches of the last `forward_block(block, ..)`
    /// call; `grads[i]` corresponds to that call's `batches[i]`. Returns the
    /// gradients with respect to each batch's input.
    fn backward_block(&mut self, block: usize, grads: &[ExpertBatch]) -> Vec<Tensor>;

    /// Streamed [`forward_block`](Self::forward_block): calls
    /// `emit(i, output_i)` exactly once per batch, in **ascending batch
    /// index order** (`i = 0, 1, …, batches.len() − 1`). That contract is
    /// what lets callers fold results into an accumulator as they arrive
    /// and still reproduce the collect-then-combine path bit for bit.
    ///
    /// The default collects then emits; pipelined providers override it to
    /// emit each completed prefix while later batches are still in flight.
    fn forward_block_streamed(
        &mut self,
        block: usize,
        batches: &[ExpertBatch],
        emit: &mut dyn FnMut(usize, Tensor),
    ) {
        for (i, out) in self.forward_block(block, batches).into_iter().enumerate() {
            emit(i, out);
        }
    }

    /// Streamed [`backward_block`](Self::backward_block), same delivery
    /// contract as [`forward_block_streamed`](Self::forward_block_streamed).
    fn backward_block_streamed(
        &mut self,
        block: usize,
        grads: &[ExpertBatch],
        emit: &mut dyn FnMut(usize, Tensor),
    ) {
        for (i, out) in self.backward_block(block, grads).into_iter().enumerate() {
            emit(i, out);
        }
    }
}

/// All experts of a model, held in-process.
///
/// Slots are optional so experts can be *taken out* and shipped to worker
/// processes — after distribution, the master-side store is empty and the
/// worker-side stores hold disjoint shards.
#[derive(Debug, Default)]
pub struct LocalExpertStore {
    slots: Vec<Vec<Option<SwiGlu>>>,
    /// Persistent dispatch buffer: experts move out of their slots for the
    /// duration of one block call, keeping the hot path allocation-free.
    scratch: Vec<SwiGlu>,
    /// Persistent batch descriptors for the packed-rows path.
    packed_batches: Vec<ExpertBatch>,
    /// Recycled input buffers for the packed-rows path: serving a packed
    /// region allocates no input-side memory after warmup.
    packed_pool: Vec<Vec<f32>>,
}

impl LocalExpertStore {
    /// Creates the full expert population for a model configuration.
    pub fn new(cfg: &ModelConfig, rng: &mut DetRng) -> Self {
        let mut slots = Vec::with_capacity(cfg.blocks);
        for l in 0..cfg.blocks {
            let mut row = Vec::with_capacity(cfg.experts);
            for e in 0..cfg.experts {
                row.push(Some(SwiGlu::new(
                    format!("block{l}.expert{e}"),
                    cfg.dim,
                    cfg.ffn_hidden,
                    rng,
                )));
            }
            slots.push(row);
        }
        LocalExpertStore {
            slots,
            ..LocalExpertStore::default()
        }
    }

    /// An empty store with slots for `blocks × experts` experts (a worker
    /// shard before experts arrive).
    pub fn empty(blocks: usize, experts: usize) -> Self {
        LocalExpertStore {
            slots: vec![std::iter::repeat_with(|| None).take(experts).collect(); blocks],
            ..LocalExpertStore::default()
        }
    }

    /// Number of blocks.
    pub fn blocks(&self) -> usize {
        self.slots.len()
    }

    /// Number of expert slots per block.
    pub fn experts_per_block(&self) -> usize {
        self.slots.first().map_or(0, Vec::len)
    }

    /// Number of experts currently present.
    pub fn present_count(&self) -> usize {
        self.slots.iter().flatten().filter(|s| s.is_some()).count()
    }

    /// Whether expert `(block, expert)` is present.
    pub fn contains(&self, block: usize, expert: usize) -> bool {
        self.slots
            .get(block)
            .and_then(|r| r.get(expert))
            .is_some_and(Option::is_some)
    }

    /// Removes and returns an expert (to ship it elsewhere).
    ///
    /// # Panics
    /// Panics if the slot is out of range or empty.
    pub fn take(&mut self, block: usize, expert: usize) -> SwiGlu {
        self.slots[block][expert]
            .take()
            .unwrap_or_else(|| panic!("expert ({block},{expert}) not present"))
    }

    /// Installs an expert into an empty slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range or already occupied.
    pub fn insert(&mut self, block: usize, expert: usize, ffn: SwiGlu) {
        let slot = &mut self.slots[block][expert];
        assert!(slot.is_none(), "slot ({block},{expert}) already occupied");
        *slot = Some(ffn);
    }

    /// Mutable access to one expert.
    ///
    /// # Panics
    /// Panics if the slot is out of range or empty.
    pub fn expert_mut(&mut self, block: usize, expert: usize) -> &mut SwiGlu {
        self.slots[block][expert]
            .as_mut()
            .unwrap_or_else(|| panic!("expert ({block},{expert}) not present"))
    }

    /// Freezes all base projections of all present experts.
    pub fn freeze_base(&mut self) {
        for row in &mut self.slots {
            for ffn in row.iter_mut().flatten() {
                ffn.freeze_base();
            }
        }
    }

    /// Attaches LoRA adapters to all present experts.
    pub fn attach_lora(&mut self, rank: usize, alpha: f32, rng: &mut DetRng) {
        for row in &mut self.slots {
            for ffn in row.iter_mut().flatten() {
                ffn.attach_lora(rank, alpha, rng);
            }
        }
    }
}

impl LocalExpertStore {
    /// Moves each batch's expert out of its slot into the persistent
    /// `scratch` buffer (batch order) so the batches can be evaluated
    /// concurrently without per-call allocation. Token groups are formed
    /// per expert, so a well-formed call never names the same expert
    /// twice. Paired with [`return_experts`](Self::return_experts).
    fn take_experts(&mut self, block: usize, batches: &[ExpertBatch]) {
        self.scratch.clear();
        let row = &mut self.slots[block];
        for b in batches {
            let ffn = row
                .get_mut(b.expert)
                .and_then(Option::take)
                .unwrap_or_else(|| {
                    panic!("expert ({block},{}) not present or batched twice", b.expert)
                });
            self.scratch.push(ffn);
        }
    }

    /// Puts the experts taken by [`take_experts`](Self::take_experts) back
    /// into their slots.
    fn return_experts(&mut self, block: usize, batches: &[ExpertBatch]) {
        let row = &mut self.slots[block];
        for (b, ffn) in batches.iter().zip(self.scratch.drain(..)) {
            row[b.expert] = Some(ffn);
        }
    }

    /// Forward pass over one packed dispatch region — see
    /// `run_rows` for the contract.
    pub fn forward_rows(
        &mut self,
        block: usize,
        width: usize,
        parts: &[(usize, usize)],
        region: &[f32],
        out: &mut Vec<f32>,
    ) {
        self.run_rows(block, false, width, parts, region, out);
    }

    /// Backward pass over one packed gradient region — see
    /// `run_rows` for the contract.
    pub fn backward_rows(
        &mut self,
        block: usize,
        width: usize,
        parts: &[(usize, usize)],
        region: &[f32],
        out: &mut Vec<f32>,
    ) {
        self.run_rows(block, true, width, parts, region, out);
    }

    /// Runs one packed region through the same per-expert kernels and
    /// grouping as [`ExpertProvider::forward_block`]/`backward_block`, so
    /// results are bit-identical to the batch API on equivalent inputs.
    /// `region` is a single contiguous row-major block of `Σ rows · width`
    /// values laid out densely in `parts` order (`parts[i] = (expert,
    /// rows)`); each part's output rows are appended to `out` in the same
    /// order, so the reply is again one region with no per-item framing.
    /// Input buffers are recycled through a persistent pool — slicing the
    /// region into expert batches allocates nothing after warmup.
    ///
    /// # Panics
    /// Panics if `region` does not match the `parts` layout, or on the
    /// same conditions as the batch API (absent/duplicated experts).
    fn run_rows(
        &mut self,
        block: usize,
        backward: bool,
        width: usize,
        parts: &[(usize, usize)],
        region: &[f32],
        out: &mut Vec<f32>,
    ) {
        let total: usize = parts.iter().map(|&(_, rows)| rows * width).sum();
        assert_eq!(
            region.len(),
            total,
            "packed region does not match its span layout"
        );
        let mut batches = std::mem::take(&mut self.packed_batches);
        batches.clear();
        let mut lo = 0usize;
        for &(expert, rows) in parts {
            let mut buf = self.packed_pool.pop().unwrap_or_default();
            buf.clear();
            buf.extend_from_slice(&region[lo..lo + rows * width]);
            lo += rows * width;
            batches.push(ExpertBatch {
                expert,
                xs: Tensor::from_vec((rows, width), buf),
            });
        }
        let outs = if batches.is_empty() {
            Vec::new()
        } else if backward {
            self.backward_block(block, &batches)
        } else {
            self.forward_block(block, &batches)
        };
        out.reserve(total);
        for t in &outs {
            out.extend_from_slice(t.as_slice());
        }
        for b in batches.drain(..) {
            self.packed_pool.push(b.xs.into_vec());
        }
        self.packed_batches = batches;
    }
}

/// Estimated flop-ish work for dispatching `batches` across experts: each
/// token row drives six `dim × hidden` mat-vec products (three projections,
/// forward and backward are comparable).
fn dispatch_work(batches: &[ExpertBatch], hidden: usize) -> usize {
    let rows: usize = batches.iter().map(|b| b.xs.rows()).sum();
    let dim = batches.first().map_or(0, |b| b.xs.cols());
    rows * dim * hidden * 6
}

impl ExpertProvider for LocalExpertStore {
    fn forward_block(&mut self, block: usize, batches: &[ExpertBatch]) -> Vec<Tensor> {
        self.take_experts(block, batches);
        let work = dispatch_work(batches, self.scratch.first().map_or(0, |f| f.hidden()));
        let out = parallel::par_map_mut_hinted(&mut self.scratch, work, |i, ffn| {
            ffn.forward(&batches[i].xs)
        });
        self.return_experts(block, batches);
        out
    }

    fn backward_block(&mut self, block: usize, grads: &[ExpertBatch]) -> Vec<Tensor> {
        self.take_experts(block, grads);
        let work = dispatch_work(grads, self.scratch.first().map_or(0, |f| f.hidden()));
        let out = parallel::par_map_mut_hinted(&mut self.scratch, work, |i, ffn| {
            ffn.backward(&grads[i].xs)
        });
        self.return_experts(block, grads);
        out
    }
}

impl Module for LocalExpertStore {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for row in &mut self.slots {
            for ffn in row.iter_mut().flatten() {
                ffn.visit_params(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> LocalExpertStore {
        LocalExpertStore::new(&ModelConfig::test_small(), &mut DetRng::new(1))
    }

    #[test]
    fn new_store_is_fully_populated() {
        let cfg = ModelConfig::test_small();
        let s = store();
        assert_eq!(s.blocks(), cfg.blocks);
        assert_eq!(s.experts_per_block(), cfg.experts);
        assert_eq!(s.present_count(), cfg.blocks * cfg.experts);
        assert!(s.contains(0, 0));
    }

    #[test]
    fn local_store_reports_single_owner_experts() {
        let s = store();
        for e in 0..s.experts_per_block() {
            assert_eq!(s.replica_degree(0, e), 1);
        }
    }

    #[test]
    fn take_and_insert_move_experts() {
        let mut s = store();
        let ffn = s.take(1, 2);
        assert!(!s.contains(1, 2));
        let mut other = LocalExpertStore::empty(s.blocks(), s.experts_per_block());
        other.insert(1, 2, ffn);
        assert!(other.contains(1, 2));
        assert_eq!(other.present_count(), 1);
    }

    #[test]
    fn forward_block_routes_to_right_expert() {
        let mut s = store();
        let cfg = ModelConfig::test_small();
        let mut rng = DetRng::new(2);
        let xs = Tensor::uniform((3, cfg.dim), -1.0, 1.0, &mut rng);
        let via_provider = s.forward_block(
            0,
            &[ExpertBatch {
                expert: 1,
                xs: xs.clone(),
            }],
        );
        let direct = s.expert_mut(0, 1).forward(&xs);
        assert_eq!(via_provider[0], direct);
    }

    #[test]
    fn backward_block_returns_input_grads() {
        let mut s = store();
        let cfg = ModelConfig::test_small();
        let mut rng = DetRng::new(3);
        let xs = Tensor::uniform((2, cfg.dim), -1.0, 1.0, &mut rng);
        s.forward_block(
            0,
            &[ExpertBatch {
                expert: 0,
                xs: xs.clone(),
            }],
        );
        let gin = s.backward_block(
            0,
            &[ExpertBatch {
                expert: 0,
                xs: Tensor::ones((2, cfg.dim)),
            }],
        );
        assert_eq!(gin[0].shape().as_2d(), (2, cfg.dim));
    }

    #[test]
    fn module_visits_all_expert_params() {
        let mut s = store();
        let cfg = ModelConfig::test_small();
        let mut names = std::collections::HashSet::new();
        s.visit_params(&mut |p| {
            assert!(names.insert(p.name().to_string()), "duplicate {}", p.name());
        });
        // 3 projections × 1 weight each per expert.
        assert_eq!(names.len(), cfg.blocks * cfg.experts * 3);
    }

    #[test]
    fn packed_rows_match_batch_api_bitwise() {
        // One contiguous region through the rows API must reproduce the
        // batch API bit for bit — same expert grouping, same kernels.
        let cfg = ModelConfig::test_small();
        let mut s = store();
        let mut rng = DetRng::new(7);
        let batches: Vec<ExpertBatch> = (0..3)
            .map(|e| ExpertBatch {
                expert: e,
                xs: Tensor::uniform((e + 1, cfg.dim), -1.0, 1.0, &mut rng),
            })
            .collect();
        let parts: Vec<(usize, usize)> = batches.iter().map(|b| (b.expert, b.xs.rows())).collect();
        let region: Vec<f32> = batches
            .iter()
            .flat_map(|b| b.xs.as_slice().iter().copied())
            .collect();
        let bits = |vals: &[f32]| vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let expect_fwd: Vec<f32> = s
            .forward_block(0, &batches)
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();
        let expect_bwd: Vec<f32> = s
            .backward_block(0, &batches)
            .iter()
            .flat_map(|t| t.as_slice().iter().copied())
            .collect();

        let mut out = Vec::new();
        s.forward_rows(0, cfg.dim, &parts, &region, &mut out);
        assert_eq!(bits(&out), bits(&expect_fwd));
        out.clear();
        s.backward_rows(0, cfg.dim, &parts, &region, &mut out);
        assert_eq!(bits(&out), bits(&expect_bwd));

        // A second call draws its input buffers from the recycled pool.
        assert_eq!(s.packed_pool.len(), parts.len());
        out.clear();
        s.forward_rows(0, cfg.dim, &parts, &region, &mut out);
        assert_eq!(bits(&out), bits(&expect_fwd));
    }

    #[test]
    #[should_panic(expected = "packed region does not match")]
    fn ragged_packed_region_panics() {
        let mut s = store();
        let cfg = ModelConfig::test_small();
        let mut out = Vec::new();
        s.forward_rows(0, cfg.dim, &[(0, 2)], &[0.0; 3], &mut out);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn taking_twice_panics() {
        let mut s = store();
        s.take(0, 0);
        s.take(0, 0);
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_insert_panics() {
        let mut s = store();
        let ffn = s.take(0, 1);
        s.insert(0, 0, ffn);
    }
}
