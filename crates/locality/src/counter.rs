//! Per-expert access counters.

use vela_model::RoutingInfo;

/// Accumulates expert-access counts across batches.
///
/// Feed it one [`RoutingInfo`] per block after each forward pass (from
/// [`MoeModel::routing_snapshot`](vela_model::MoeModel::routing_snapshot));
/// frequencies are the Fig. 3(a)/Fig. 7 quantity: the fraction of
/// (token, slot) assignments each expert received.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessTracker {
    counts: Vec<Vec<u64>>,
    assignments: Vec<u64>,
}

impl AccessTracker {
    /// Creates a tracker for `blocks × experts` counters.
    pub fn new(blocks: usize, experts: usize) -> Self {
        AccessTracker {
            counts: vec![vec![0; experts]; blocks],
            assignments: vec![0; blocks],
        }
    }

    /// Number of blocks tracked.
    pub fn blocks(&self) -> usize {
        self.counts.len()
    }

    /// Number of experts per block.
    pub fn experts(&self) -> usize {
        self.counts.first().map_or(0, Vec::len)
    }

    /// Records one forward pass's routing decisions (one entry per block).
    ///
    /// # Panics
    /// Panics if the snapshot's block count or expert count disagrees with
    /// the tracker.
    pub fn record(&mut self, snapshot: &[RoutingInfo]) {
        assert_eq!(snapshot.len(), self.counts.len(), "block count mismatch");
        for (l, info) in snapshot.iter().enumerate() {
            assert_eq!(info.counts.len(), self.experts(), "expert count mismatch");
            for (e, &c) in info.counts.iter().enumerate() {
                self.counts[l][e] += c as u64;
            }
            self.assignments[l] += (info.tokens * info.k) as u64;
        }
    }

    /// Raw counts for one block.
    ///
    /// # Panics
    /// Panics if `block` is out of range.
    pub fn counts(&self, block: usize) -> &[u64] {
        &self.counts[block]
    }

    /// Access frequencies for one block (sums to 1 once anything was
    /// recorded).
    pub fn frequencies(&self, block: usize) -> Vec<f64> {
        let total = self.assignments[block].max(1) as f64;
        self.counts[block]
            .iter()
            .map(|&c| c as f64 / total)
            .collect()
    }

    /// The full `blocks × experts` frequency matrix.
    pub fn frequency_matrix(&self) -> Vec<Vec<f64>> {
        (0..self.blocks()).map(|l| self.frequencies(l)).collect()
    }

    /// Merges another tracker's counts into this one.
    ///
    /// # Panics
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &AccessTracker) {
        assert_eq!(self.blocks(), other.blocks(), "block count mismatch");
        assert_eq!(self.experts(), other.experts(), "expert count mismatch");
        for l in 0..self.blocks() {
            for e in 0..self.experts() {
                self.counts[l][e] += other.counts[l][e];
            }
            self.assignments[l] += other.assignments[l];
        }
    }

    /// Largest single-expert share in a block — a quick concentration
    /// indicator.
    pub fn peak_share(&self, block: usize) -> f64 {
        self.frequencies(block).into_iter().fold(0.0f64, f64::max)
    }

    /// Serializes the per-`(block, expert)` access histogram as JSON —
    /// the `results/expert_access.json` artifact. Raw counts are exact;
    /// frequencies are rounded to six decimals for a stable, diffable
    /// file. This is the Fig. 3 measurement a caller reads to decide
    /// which experts to replicate.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"blocks\": {},\n", self.blocks()));
        out.push_str(&format!("  \"experts\": {},\n", self.experts()));
        out.push_str("  \"access\": [\n");
        for l in 0..self.blocks() {
            let counts: Vec<String> = self.counts[l].iter().map(u64::to_string).collect();
            let freqs: Vec<String> = self
                .frequencies(l)
                .iter()
                .map(|f| format!("{f:.6}"))
                .collect();
            out.push_str(&format!(
                "    {{\"block\": {l}, \"assignments\": {}, \"counts\": [{}], \"frequencies\": [{}]}}{}\n",
                self.assignments[l],
                counts.join(", "),
                freqs.join(", "),
                if l + 1 == self.blocks() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(counts: Vec<usize>, tokens: usize, k: usize) -> RoutingInfo {
        RoutingInfo {
            selected: Vec::new(),
            selected_probs: Vec::new(),
            counts,
            tokens,
            k,
        }
    }

    #[test]
    fn frequencies_normalize_to_one() {
        let mut t = AccessTracker::new(2, 3);
        t.record(&[info(vec![4, 2, 2], 4, 2), info(vec![8, 0, 0], 4, 2)]);
        let f0 = t.frequencies(0);
        assert!((f0.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(f0, vec![0.5, 0.25, 0.25]);
        assert_eq!(t.frequencies(1), vec![1.0, 0.0, 0.0]);
        assert_eq!(t.peak_share(1), 1.0);
    }

    #[test]
    fn record_accumulates_over_batches() {
        let mut t = AccessTracker::new(1, 2);
        t.record(&[info(vec![2, 0], 1, 2)]);
        t.record(&[info(vec![0, 2], 1, 2)]);
        assert_eq!(t.counts(0), &[2, 2]);
        assert_eq!(t.frequencies(0), vec![0.5, 0.5]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = AccessTracker::new(1, 2);
        a.record(&[info(vec![2, 0], 1, 2)]);
        let mut b = AccessTracker::new(1, 2);
        b.record(&[info(vec![0, 2], 1, 2)]);
        a.merge(&b);
        assert_eq!(a.frequencies(0), vec![0.5, 0.5]);
    }

    #[test]
    fn frequency_matrix_shape() {
        let t = AccessTracker::new(3, 4);
        let m = t.frequency_matrix();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 4);
        assert_eq!(t.blocks(), 3);
        assert_eq!(t.experts(), 4);
    }

    #[test]
    fn json_export_carries_counts_and_frequencies() {
        let mut t = AccessTracker::new(2, 3);
        t.record(&[info(vec![4, 2, 2], 4, 2), info(vec![8, 0, 0], 4, 2)]);
        let json = t.to_json();
        assert!(json.contains("\"blocks\": 2"));
        assert!(json.contains("\"experts\": 3"));
        assert!(json.contains("\"block\": 0, \"assignments\": 8, \"counts\": [4, 2, 2]"));
        assert!(json.contains("\"frequencies\": [0.500000, 0.250000, 0.250000]"));
        assert!(json.contains("\"counts\": [8, 0, 0]"));
        // Balanced braces/brackets — a cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // The last array element must not have a trailing comma.
        assert!(!json.contains("},\n  ]"));
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn wrong_snapshot_size_panics() {
        AccessTracker::new(2, 2).record(&[info(vec![0, 0], 0, 2)]);
    }
}
