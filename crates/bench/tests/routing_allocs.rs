//! The simulated gate allocates per block, never per token: sampling a
//! block's top-2 routing allocates as often for 16 tokens as for 4 096.
//! Process-wide counting, so this file holds one test.

use vela::locality::LocalityProfile;
use vela::runtime::routing::{sample_expert_counts, sample_sharded_counts, shard_tokens};
use vela::tensor::rng::DetRng;
use vela_bench::alloc::{count_allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn routing_allocations_do_not_grow_with_tokens() {
    let profile = LocalityProfile::synthetic("zipf", 32, 8, 1.2, 7);
    let mut rng = DetRng::new(7);
    let block = |tokens: usize, rng: &mut DetRng| {
        count_allocations(|| sample_expert_counts(&profile, 3, tokens, 2, rng)).0
    };
    let few = block(16, &mut rng);
    let many = block(4096, &mut rng);
    assert_eq!(few, many, "allocations for 16 vs 4096 tokens of one block");

    let sharded = |tokens: usize, rng: &mut DetRng| {
        let shards = shard_tokens(tokens, 6);
        count_allocations(|| sample_sharded_counts(&profile, 3, &shards, 2, rng)).0
    };
    let few = sharded(96, &mut rng);
    let many = sharded(4096, &mut rng);
    assert_eq!(few, many, "allocations for 96 vs 4096 sharded tokens");
}
