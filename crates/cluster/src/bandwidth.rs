//! Bandwidth as a typed quantity.

use std::fmt;

/// A link bandwidth in bytes per second.
///
/// Newtype so GB/s (the paper's unit) and Gbit/s (iperf's unit) cannot be
/// confused.
///
/// # Example
/// ```
/// use vela_cluster::Bandwidth;
/// let b = Bandwidth::from_gbytes_per_sec(1.17);
/// assert!((b.gbytes_per_sec() - 1.17).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// From raw bytes per second.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is not positive and finite.
    pub fn from_bytes_per_sec(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec > 0.0 && bytes_per_sec.is_finite(),
            "bandwidth must be positive, got {bytes_per_sec}"
        );
        Bandwidth(bytes_per_sec)
    }

    /// From gigabytes per second (the paper reports 18.3 GB/s intra-node).
    pub fn from_gbytes_per_sec(gb: f64) -> Self {
        Bandwidth::from_bytes_per_sec(gb * 1e9)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Gigabytes per second.
    pub fn gbytes_per_sec(self) -> f64 {
        self.0 / 1e9
    }

    /// Seconds to move `bytes` at this bandwidth (excluding latency).
    pub fn transfer_secs(self, bytes: u64) -> f64 {
        bytes as f64 / self.0
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.gbytes_per_sec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Bandwidth::from_gbytes_per_sec(1.0).bytes_per_sec(), 1e9);
    }

    #[test]
    fn transfer_time() {
        let b = Bandwidth::from_bytes_per_sec(1000.0);
        assert_eq!(b.transfer_secs(2000), 2.0);
        assert_eq!(b.transfer_secs(0), 0.0);
    }

    #[test]
    fn display_in_gb() {
        assert_eq!(
            Bandwidth::from_gbytes_per_sec(18.3).to_string(),
            "18.30 GB/s"
        );
    }

    #[test]
    fn ordering() {
        assert!(Bandwidth::from_gbytes_per_sec(18.3) > Bandwidth::from_gbytes_per_sec(1.17));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_bandwidth_panics() {
        Bandwidth::from_bytes_per_sec(0.0);
    }
}
