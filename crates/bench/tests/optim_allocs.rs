//! The optimizers allocate when a parameter takes its first step — AdamW's
//! moment pair and its key — and never again. Process-wide counting, so this
//! file holds one test.

use vela::nn::optim::{AdamW, AdamWConfig, Sgd};
use vela::nn::{Module, Param};
use vela::tensor::Tensor;
use vela_bench::alloc::{count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn a_second_step_allocates_nothing() {
    let mut params: Vec<Param> = (0..64)
        .map(|i| Param::new(format!("block{i}.expert.gate.lora_a"), Tensor::ones((8, 4))))
        .collect();
    params.push(Param::frozen(
        "block0.expert.gate.weight",
        Tensor::ones((8, 4)),
    ));
    params.visit_params(&mut |p| p.accumulate(&Tensor::ones((8, 4))));

    let mut adamw = AdamW::new(AdamWConfig::default());
    let (first, ()) = count_allocations(|| adamw.step(&mut params));
    assert!(first >= 64, "{first} allocations in the first AdamW step");
    let (second, ()) = count_allocations(|| adamw.step(&mut params));
    assert_eq!(second, 0, "allocations in the second AdamW step");

    let mut sgd = Sgd::new(0.1);
    let (sgd_step, ()) = count_allocations(|| sgd.step(&mut params));
    assert_eq!(sgd_step, 0, "allocations in an SGD step");
}
