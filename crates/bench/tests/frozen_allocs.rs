//! A LoRA fine-tune packs its frozen base weights for the GEMM once: an
//! expert's second forward and backward allocate nothing and re-pack none
//! of them. Process-wide counting, so this file holds one test.

use vela::nn::swiglu::SwiGlu;
use vela::nn::Module;
use vela::tensor::parallel::{self, ThreadPool};
use vela::tensor::rng::DetRng;
use vela::tensor::Tensor;
use vela_bench::alloc::{count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn step(ffn: &mut SwiGlu, x: &Tensor, g: &Tensor) {
    ffn.forward(x);
    ffn.backward(g);
}

/// Where each frozen weight's kept panels are, in `visit_params` order.
fn frozen_panels(ffn: &mut SwiGlu) -> Vec<Option<usize>> {
    let mut at = Vec::new();
    ffn.visit_params(&mut |p| {
        if !p.is_trainable() {
            at.push(p.value.kept_panels().map(|s| s.as_ptr() as usize));
        }
    });
    at
}

#[test]
fn a_second_lora_step_allocates_nothing_and_repacks_no_frozen_weight() {
    // One expert of the `ffn-heavy` workload: dim 64, hidden 1024, LoRA r=8,
    // on one compute thread as the benchmark runs it (a pool hand-off
    // allocates).
    let mut rng = DetRng::new(9);
    let mut ffn = SwiGlu::new("e", 64, 1024, &mut rng);
    ffn.freeze_base();
    ffn.attach_lora(8, 16.0, &mut rng);
    let x = Tensor::uniform((64, 64), -1.0, 1.0, &mut rng);
    let g = Tensor::uniform((64, 64), -1.0, 1.0, &mut rng);

    parallel::with_pool(&ThreadPool::new(1), || {
        step(&mut ffn, &x, &g);
        let packed = frozen_panels(&mut ffn);
        assert_eq!(packed.len(), 3, "gate, up and down are frozen");
        assert!(packed.iter().all(Option::is_some), "{packed:?}");

        let (allocs, ()) = count_allocations(|| step(&mut ffn, &x, &g));
        assert_eq!(allocs, 0, "allocations in the second forward+backward");
        assert_eq!(
            frozen_panels(&mut ffn),
            packed,
            "a frozen weight was re-packed"
        );
    });
}
