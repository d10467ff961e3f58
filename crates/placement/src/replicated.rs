//! Expert→worker mapping as a *relation*.
//!
//! The paper's LP (§IV-B) assigns each expert to exactly one device, so a
//! hot expert makes its worker the straggler. [`ReplicatedPlacement`]
//! generalises [`Placement`] to a per-`(block, expert)` *replica set*: the
//! first entry is the **primary** (the seed owner — checkpoints, migration
//! and bootstrap still root there) and any further entries are extra live
//! copies the runtime may route token batches to. The caller writes the
//! relation ([`ReplicatedPlacement::add_replica`]); no policy here chooses
//! degrees.
//!
//! Degree 1 everywhere is the identity refactor: a `ReplicatedPlacement`
//! built [`From`] a `Placement` routes, accounts and trains bit-for-bit
//! identically to the single-owner code it replaced.

use crate::problem::Placement;

/// A per-`(block, expert)` replica set over `workers` workers.
///
/// Invariants (checked by [`ReplicatedPlacement::new`]):
/// * every replica list is non-empty and every worker index is in range;
/// * no worker appears twice in one list;
/// * entry 0 is the primary; the remaining entries are sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedPlacement {
    /// `replicas[block][expert]` = primary-first replica list.
    replicas: Vec<Vec<Vec<usize>>>,
    workers: usize,
}

impl ReplicatedPlacement {
    /// Builds a replicated placement from explicit replica lists.
    ///
    /// # Panics
    /// Panics if any list is empty, any worker index is out of range, a
    /// worker is listed twice for one `(block, expert)`, or the non-primary
    /// tail is not sorted ascending.
    pub fn new(replicas: Vec<Vec<Vec<usize>>>, workers: usize) -> Self {
        for (l, row) in replicas.iter().enumerate() {
            for (e, reps) in row.iter().enumerate() {
                check_replicas(l, e, reps, workers);
            }
        }
        Self { replicas, workers }
    }

    /// Number of MoE blocks.
    pub fn blocks(&self) -> usize {
        self.replicas.len()
    }

    /// Number of experts per block.
    pub fn experts(&self) -> usize {
        self.replicas.first().map_or(0, Vec::len)
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The replica set for `(block, expert)`, primary first.
    pub fn replicas_of(&self, block: usize, expert: usize) -> &[usize] {
        &self.replicas[block][expert]
    }

    /// The primary (seed-owner) worker — the single owner of the degree-1
    /// world; checkpoints and migration root here.
    pub fn primary(&self, block: usize, expert: usize) -> usize {
        self.replicas[block][expert][0]
    }

    /// Replica count for `(block, expert)`.
    pub fn degree(&self, block: usize, expert: usize) -> usize {
        self.replicas[block][expert].len()
    }

    /// The largest replica count across all `(block, expert)` pairs.
    pub fn max_degree(&self) -> usize {
        self.replicas
            .iter()
            .flat_map(|row| row.iter().map(Vec::len))
            .max()
            .unwrap_or(0)
    }

    /// `true` iff every `(block, expert)` has exactly one replica — the
    /// configuration that must be bitwise-identical to [`Placement`].
    pub fn is_degree_one(&self) -> bool {
        self.replicas
            .iter()
            .all(|row| row.iter().all(|r| r.len() == 1))
    }

    /// All `(block, expert)` pairs with more than one replica, ascending.
    pub fn replicated_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (l, row) in self.replicas.iter().enumerate() {
            for (e, reps) in row.iter().enumerate() {
                if reps.len() > 1 {
                    out.push((l, e));
                }
            }
        }
        out
    }

    /// Adds `worker` as a replica of `(block, expert)`; no-op if already
    /// one.
    ///
    /// # Panics
    /// Panics if `worker` is out of range.
    pub fn add_replica(&mut self, block: usize, expert: usize, worker: usize) {
        assert!(
            worker < self.workers,
            "worker index {worker} out of {}",
            self.workers
        );
        let reps = &mut self.replicas[block][expert];
        if reps.contains(&worker) {
            return;
        }
        reps.push(worker);
        reps[1..].sort_unstable();
    }

    /// Replaces the replica set of `(block, expert)` — how the mover
    /// settles an expert onto its target.
    ///
    /// # Panics
    /// Panics if `replicas` breaks an invariant of [`Self::new`].
    pub fn set_replicas(&mut self, block: usize, expert: usize, replicas: &[usize]) {
        check_replicas(block, expert, replicas, self.workers);
        self.replicas[block][expert] = replicas.to_vec();
    }

    /// This relation re-rooted on `target`'s owners: where the owner
    /// changes, it goes first, the old primary's copy is dropped and the
    /// other copies stay. This is how a single-owner re-placement reads as
    /// a relation.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn with_primaries(&self, target: &Placement) -> ReplicatedPlacement {
        let shape = (target.blocks(), target.experts(), target.workers());
        assert_eq!(shape, (self.blocks(), self.experts(), self.workers));
        let mut out = self.clone();
        for (l, row) in out.replicas.iter_mut().enumerate() {
            for (e, reps) in row.iter_mut().enumerate() {
                let to = target.worker_of(l, e);
                if reps[0] != to {
                    reps.remove(0);
                    reps.retain(|&w| w != to);
                    reps.insert(0, to);
                }
            }
        }
        out
    }

    /// The degree-1 projection: each expert mapped to its primary. This is
    /// what checkpointing and capacity baselines operate on, and what
    /// [`Self::with_primaries`] re-roots.
    pub fn primaries(&self) -> Placement {
        let assign = self
            .replicas
            .iter()
            .map(|row| row.iter().map(|reps| reps[0]).collect())
            .collect();
        Placement::new(assign, self.workers)
    }
}

impl From<Placement> for ReplicatedPlacement {
    fn from(p: Placement) -> Self {
        Self::from(&p)
    }
}

impl From<&Placement> for ReplicatedPlacement {
    fn from(p: &Placement) -> Self {
        let replicas = (0..p.blocks())
            .map(|l| (0..p.experts()).map(|e| vec![p.worker_of(l, e)]).collect())
            .collect();
        Self {
            replicas,
            workers: p.workers(),
        }
    }
}

/// Asserts the invariants of one replica list: non-empty, in range, no
/// duplicate, tail sorted ascending.
fn check_replicas(l: usize, e: usize, reps: &[usize], workers: usize) {
    assert!(!reps.is_empty(), "empty replica set for ({l}, {e})");
    for &w in reps {
        assert!(w < workers, "worker index {w} out of {workers}");
    }
    let tail = &reps[1..];
    assert!(
        tail.windows(2).all(|p| p[0] < p[1]),
        "replica tail for ({l}, {e}) must be sorted ascending"
    );
    assert!(
        !tail.contains(&reps[0]),
        "duplicate replica {} for ({l}, {e})",
        reps[0]
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 blocks × 4 experts over 2 workers.
    fn base() -> Placement {
        Placement::new(vec![vec![0, 1, 0, 1], vec![1, 0, 1, 0]], 2)
    }

    #[test]
    fn degree_one_roundtrips_the_placement() {
        let base = base();
        let rep = ReplicatedPlacement::from(&base);
        assert!(rep.is_degree_one());
        assert_eq!(rep.max_degree(), 1);
        assert_eq!(rep.primaries(), base);
        for l in 0..base.blocks() {
            for e in 0..base.experts() {
                assert_eq!(rep.primary(l, e), base.worker_of(l, e));
                assert_eq!(rep.replicas_of(l, e), &[base.worker_of(l, e)]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty replica set")]
    fn empty_replica_set_is_rejected() {
        ReplicatedPlacement::new(vec![vec![vec![]]], 2);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_worker_is_rejected() {
        ReplicatedPlacement::new(vec![vec![vec![2]]], 2);
    }

    #[test]
    #[should_panic(expected = "duplicate replica")]
    fn duplicate_replica_is_rejected() {
        ReplicatedPlacement::new(vec![vec![vec![1, 1]]], 2);
    }

    #[test]
    fn add_replica_keeps_primary_first_and_tail_sorted() {
        let base = base();
        let mut rep = ReplicatedPlacement::from(&base);
        rep.add_replica(0, 2, 1);
        assert_eq!(rep.replicas_of(0, 2), &[0, 1]);
        rep.add_replica(0, 2, 1); // no-op
        assert_eq!(rep.degree(0, 2), 2);
        assert!(!rep.is_degree_one());
        assert_eq!(rep.replicated_pairs(), vec![(0, 2)]);
    }

    #[test]
    fn with_primaries_drops_the_old_primary_and_keeps_the_rest() {
        let base = base();
        let mut rep = ReplicatedPlacement::from(&base);
        rep.add_replica(0, 0, 1);
        rep.add_replica(1, 1, 1);
        let mut target = base.clone();
        // Degree 1: plain move, [0] → [1].
        target.set_worker(0, 2, 1);
        // Degree 2 onto the tail replica: [0, 1] → [1].
        target.set_worker(0, 0, 1);
        let moved = rep.with_primaries(&target);
        assert_eq!(moved.replicas_of(0, 2), &[1]);
        assert_eq!(moved.replicas_of(0, 0), &[1]);
        // An unmoved replicated expert keeps its copies.
        assert_eq!(moved.replicas_of(1, 1), rep.replicas_of(1, 1));
        assert_eq!(moved.primaries(), target);
        assert_eq!(rep.with_primaries(&base), rep);
    }

    #[test]
    #[should_panic(expected = "must be sorted")]
    fn set_replicas_checks_the_invariants() {
        let base = base();
        ReplicatedPlacement::from(&base).set_replicas(0, 0, &[0, 1, 0]);
    }
}
