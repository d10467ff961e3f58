//! Virtual time accounting.

use std::fmt;

/// Simulated seconds spent per activity category within a window (usually
/// one fine-tuning step).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeBreakdown {
    /// Token/gradient transfer time.
    pub comm_s: f64,
    /// Expert + backbone compute time.
    pub compute_s: f64,
    /// Synchronization overhead (e.g. the all-to-all status round of
    /// conventional expert parallelism).
    pub sync_s: f64,
}

impl TimeBreakdown {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.comm_s + self.compute_s + self.sync_s
    }

    /// Component-wise sum.
    pub fn merged(&self, other: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            comm_s: self.comm_s + other.comm_s,
            compute_s: self.compute_s + other.compute_s,
            sync_s: self.sync_s + other.sync_s,
        }
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4}s (comm {:.4}s, compute {:.4}s, sync {:.4}s)",
            self.total(),
            self.comm_s,
            self.compute_s,
            self.sync_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_adds_componentwise() {
        let a = TimeBreakdown {
            comm_s: 1.0,
            compute_s: 2.0,
            sync_s: 3.0,
        };
        let b = a.merged(&a);
        assert_eq!(b.total(), 12.0);
    }

    #[test]
    fn display_is_informative() {
        let t = TimeBreakdown {
            comm_s: 0.1,
            compute_s: 0.2,
            sync_s: 0.0,
        };
        let s = t.to_string();
        assert!(s.contains("comm"));
        assert!(s.contains("0.3"));
    }
}
