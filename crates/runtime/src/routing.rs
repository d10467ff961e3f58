//! Routing-trace sampling for the scale-virtual engines.
//!
//! The evaluation replays *measured* locality profiles at Mixtral scale:
//! for each step and block, every token draws `k` distinct experts from the
//! profile's distribution (exactly how the gate behaves in expectation).
//!
//! [`LocalityProfile::sample_topk`] is the reference draw. The engines
//! sample through a `BlockSampler`, which returns the same counts from the
//! same [`DetRng`] stream through [`CategoricalTable`]s instead of a weight
//! sum and scan per pick, and allocates nothing per token.

use vela_locality::LocalityProfile;
use vela_tensor::rng::{CategoricalTable, DetRng};

/// Top-`k` routing for one block of one step: the same picks, from the
/// same `rng` stream, as one [`LocalityProfile::sample_topk`] call per
/// token.
///
/// `sample_topk` zeroes each pick's weight before the next pick, so the
/// distribution of a pick depends only on the picks before it. The sampler
/// keeps one table per such prefix in a trie: the root zeroes nothing, and
/// a node's children, one per expert, are built together the first time a
/// token passes through it. For top-2 that is the root and its `E`
/// children, all built by the first token. The profile sharpens between
/// steps, so a sampler lives for one block of one step.
#[derive(Debug)]
pub(crate) struct BlockSampler {
    k: usize,
    /// The block's profile row, as the `f32` weights `sample_topk` draws from.
    row: Vec<f32>,
    /// The experts the current token has picked so far.
    picked: Vec<usize>,
    root: Node,
}

#[derive(Debug)]
struct Node {
    table: CategoricalTable,
    /// Indexed by the next pick; empty until a token first passes through.
    children: Vec<Node>,
}

impl BlockSampler {
    /// A sampler for `k` picks per token from `profile`'s row for `block`.
    ///
    /// # Panics
    /// Panics if `k > experts`, as `sample_topk` does.
    pub(crate) fn new(profile: &LocalityProfile, block: usize, k: usize) -> Self {
        let experts = profile.experts();
        assert!(k <= experts, "k {k} > experts {experts}");
        let row: Vec<f32> = profile.row(block).iter().map(|&p| p as f32).collect();
        BlockSampler {
            k,
            root: Node {
                table: CategoricalTable::new(&row),
                children: Vec::new(),
            },
            picked: Vec::with_capacity(k),
            row,
        }
    }

    /// Draws `tokens` tokens' picks and adds them to `counts` (one slot per
    /// expert).
    pub(crate) fn add_counts(&mut self, tokens: usize, rng: &mut DetRng, counts: &mut [usize]) {
        let BlockSampler {
            k,
            row,
            picked,
            root,
        } = self;
        for _ in 0..tokens {
            picked.clear();
            let mut node = &mut *root;
            for depth in 0..*k {
                let e = node.table.draw(rng);
                counts[e] += 1;
                if depth + 1 == *k {
                    break;
                }
                picked.push(e);
                if node.children.is_empty() {
                    node.children = children(row, &picked[..depth]);
                }
                node = &mut node.children[e];
            }
        }
    }
}

/// The children of the node reached by picking `prefix`: child `e` draws
/// from `row` with `prefix` and `e` zeroed. An `e` already in `prefix` is
/// zeroed twice, as `sample_topk` does when the scan's fall-through
/// repeats a pick.
fn children(row: &[f32], prefix: &[usize]) -> Vec<Node> {
    let mut weights = row.to_vec();
    for &e in prefix {
        weights[e] = 0.0;
    }
    (0..row.len())
        .map(|e| {
            let kept = std::mem::replace(&mut weights[e], 0.0);
            let table = CategoricalTable::new(&weights);
            weights[e] = kept;
            Node {
                table,
                children: Vec::new(),
            }
        })
        .collect()
}

/// Samples per-expert assignment counts for `tokens` tokens of one block.
///
/// Each token picks `k` distinct experts weighted by the profile, so the
/// returned counts sum to `tokens · k`.
pub fn sample_expert_counts(
    profile: &LocalityProfile,
    block: usize,
    tokens: usize,
    k: usize,
    rng: &mut DetRng,
) -> Vec<usize> {
    let mut counts = vec![0usize; profile.experts()];
    BlockSampler::new(profile, block, k).add_counts(tokens, rng, &mut counts);
    counts
}

/// Samples per-device, per-expert counts for expert parallelism's sharded
/// inputs: `tokens_per_device[d]` tokens originate on device `d`. One
/// `BlockSampler` serves every shard.
pub fn sample_sharded_counts(
    profile: &LocalityProfile,
    block: usize,
    tokens_per_device: &[usize],
    k: usize,
    rng: &mut DetRng,
) -> Vec<Vec<usize>> {
    let mut sampler = BlockSampler::new(profile, block, k);
    tokens_per_device
        .iter()
        .map(|&t| {
            let mut counts = vec![0usize; profile.experts()];
            sampler.add_counts(t, rng, &mut counts);
            counts
        })
        .collect()
}

/// Splits `tokens` as evenly as possible across `devices` (data-parallel
/// input sharding).
pub fn shard_tokens(tokens: usize, devices: usize) -> Vec<usize> {
    let base = tokens / devices;
    let extra = tokens % devices;
    (0..devices)
        .map(|d| base + usize::from(d < extra))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`sample_expert_counts`] returned before the sampler: one
    /// `sample_topk` reference draw per token.
    fn reference_counts(
        profile: &LocalityProfile,
        block: usize,
        tokens: usize,
        k: usize,
        rng: &mut DetRng,
    ) -> Vec<usize> {
        let mut counts = vec![0usize; profile.experts()];
        for _ in 0..tokens {
            for e in profile.sample_topk(block, k, rng) {
                counts[e] += 1;
            }
        }
        counts
    }

    #[test]
    fn block_sampler_matches_the_reference_draws() {
        let profile = LocalityProfile::synthetic("zipf", 32, 8, 1.2, 11);
        for k in [1, 2, 4] {
            let mut by_sampler = DetRng::new(7 + k as u64);
            let mut by_reference = DetRng::new(7 + k as u64);
            for block in 0..profile.blocks() {
                let counts = sample_expert_counts(&profile, block, 2048, k, &mut by_sampler);
                let expected = reference_counts(&profile, block, 2048, k, &mut by_reference);
                assert_eq!(counts, expected, "k = {k}, block {block}");
            }
            assert_eq!(
                by_sampler.next_u64(),
                by_reference.next_u64(),
                "k = {k}: streams left in step"
            );
        }
    }

    #[test]
    fn sharded_counts_match_per_shard_reference_draws() {
        let profile = LocalityProfile::synthetic("zipf", 4, 8, 1.2, 5);
        let shards = shard_tokens(2048, 6);
        let mut by_sampler = DetRng::new(3);
        let mut by_reference = DetRng::new(3);
        for block in 0..profile.blocks() {
            let counts = sample_sharded_counts(&profile, block, &shards, 2, &mut by_sampler);
            let expected: Vec<Vec<usize>> = shards
                .iter()
                .map(|&t| reference_counts(&profile, block, t, 2, &mut by_reference))
                .collect();
            assert_eq!(counts, expected, "block {block}");
        }
    }

    #[test]
    fn counts_sum_to_token_slots() {
        let profile = LocalityProfile::synthetic("p", 2, 8, 1.2, 3);
        let mut rng = DetRng::new(1);
        let counts = sample_expert_counts(&profile, 0, 500, 2, &mut rng);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert_eq!(counts.len(), 8);
    }

    #[test]
    fn sampling_tracks_the_profile() {
        let profile = LocalityProfile::synthetic("p", 1, 6, 2.0, 7);
        let mut rng = DetRng::new(2);
        let counts = sample_expert_counts(&profile, 0, 20_000, 1, &mut rng);
        let hottest_by_profile = (0..6)
            .max_by(|&a, &b| profile.prob(0, a).partial_cmp(&profile.prob(0, b)).unwrap())
            .unwrap();
        let hottest_by_sample = (0..6).max_by_key(|&e| counts[e]).unwrap();
        assert_eq!(hottest_by_profile, hottest_by_sample);
    }

    #[test]
    fn sharded_counts_shape() {
        let profile = LocalityProfile::synthetic("p", 1, 4, 1.0, 5);
        let mut rng = DetRng::new(3);
        let shards = shard_tokens(100, 6);
        let counts = sample_sharded_counts(&profile, 0, &shards, 2, &mut rng);
        assert_eq!(counts.len(), 6);
        let total: usize = counts.iter().flatten().sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn shard_tokens_is_balanced_and_complete() {
        assert_eq!(shard_tokens(10, 3), vec![4, 3, 3]);
        assert_eq!(shard_tokens(6, 6), vec![1; 6]);
        assert_eq!(shard_tokens(4096, 6).iter().sum::<usize>(), 4096);
        let shards = shard_tokens(4096, 6);
        assert!(shards.iter().max().unwrap() - shards.iter().min().unwrap() <= 1);
    }

    #[test]
    fn sampling_is_deterministic() {
        let profile = LocalityProfile::synthetic("p", 1, 5, 1.5, 9);
        let a = sample_expert_counts(&profile, 0, 100, 2, &mut DetRng::new(4));
        let b = sample_expert_counts(&profile, 0, 100, 2, &mut DetRng::new(4));
        assert_eq!(a, b);
    }
}
