//! Bitwise parity for the concurrent per-expert dispatch in `MoeBlock`.
//!
//! Forward and backward group tokens by expert and run the expert FFNs in
//! parallel; the weighted combine back into token rows stays serial in
//! slot order. The block must therefore produce identical outputs,
//! identical gradients, and identical routing decisions at any thread
//! count.

use vela_model::{LocalExpertStore, ModelConfig, MoeBlock, RoutingInfo};
use vela_tensor::parallel::{with_pool, ThreadPool};
use vela_tensor::rng::DetRng;
use vela_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Many experts + enough tokens that the parallel dispatch sees several
/// non-trivial groups per pass.
fn wide_config() -> ModelConfig {
    ModelConfig {
        vocab: 64,
        dim: 32,
        heads: 4,
        kv_heads: 4,
        ffn_hidden: 48,
        blocks: 1,
        experts: 8,
        top_k: 2,
        seq_len: 64,
        aux_loss_weight: 1e-2,
    }
}

struct Pass {
    out: Vec<u32>,
    grad_in: Vec<u32>,
    routing: RoutingInfo,
}

/// One forward+backward pass on a freshly seeded block/store pair under a
/// `threads`-lane pool.
fn run(cfg: &ModelConfig, tokens: usize, threads: usize, seed: u64) -> Pass {
    let mut rng = DetRng::new(seed);
    let mut store = LocalExpertStore::new(cfg, &mut rng);
    let mut block = MoeBlock::new(
        0,
        cfg.dim,
        cfg.experts,
        cfg.top_k,
        cfg.aux_loss_weight,
        &mut rng,
    );
    let x = Tensor::uniform((tokens, cfg.dim), -1.0, 1.0, &mut rng);
    let g = Tensor::uniform((tokens, cfg.dim), -1.0, 1.0, &mut rng);
    let pool = ThreadPool::new(threads);
    with_pool(&pool, || {
        let y = block.forward(&x, &mut store);
        let gx = block.backward(&g, &mut store);
        Pass {
            out: bits(&y),
            grad_in: bits(&gx),
            routing: block.last_routing().expect("routing info").clone(),
        }
    })
}

fn assert_same(a: &Pass, b: &Pass, what: &str) {
    assert_eq!(a.out, b.out, "{what}: forward output");
    assert_eq!(a.grad_in, b.grad_in, "{what}: input gradient");
    assert_eq!(
        a.routing.selected, b.routing.selected,
        "{what}: selected experts"
    );
    assert_eq!(
        a.routing
            .selected_probs
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        b.routing
            .selected_probs
            .iter()
            .map(|p| p.to_bits())
            .collect::<Vec<_>>(),
        "{what}: routing probs"
    );
    assert_eq!(
        a.routing.counts, b.routing.counts,
        "{what}: per-expert counts"
    );
}

#[test]
fn moe_block_is_bitwise_identical_at_any_thread_count() {
    let cfg = wide_config();
    let reference = run(&cfg, 64, 1, 5);
    for threads in [2, 3, 4, 8] {
        let got = run(&cfg, 64, threads, 5);
        assert_same(&got, &reference, &format!("{threads} threads"));
    }
}

#[test]
fn moe_block_parity_holds_on_the_small_test_config() {
    let cfg = ModelConfig::test_small();
    let reference = run(&cfg, 9, 1, 17);
    for threads in [2, 6] {
        let got = run(&cfg, 9, threads, 17);
        assert_same(&got, &reference, &format!("{threads} threads"));
    }
}

#[test]
fn repeated_parallel_passes_are_self_consistent() {
    // The same pool reused across passes must not leak state between
    // parallel sections: two identical runs under the same thread count
    // agree with each other bit-for-bit.
    let cfg = wide_config();
    let a = run(&cfg, 48, 4, 29);
    let b = run(&cfg, 48, 4, 29);
    assert_same(&a, &b, "repeat @ 4 threads");
}
