//! Named process-global counters and fixed-bucket histograms.
//!
//! Registration goes through a mutex-protected map, but the returned
//! handles point at leaked atomics, so the hot path — [`Counter::add`]
//! / [`Histogram::record`] — is a relaxed `fetch_add` with no lock.
//! Hot call sites cache the handle in a [`LazyCounter`] /
//! [`LazyHistogram`] static so the map is consulted once per site.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

fn counter_registry() -> &'static Mutex<BTreeMap<String, &'static AtomicU64>> {
    static R: OnceLock<Mutex<BTreeMap<String, &'static AtomicU64>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Handle to a named monotonic counter.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    #[inline]
    pub fn add(self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Look up (or create) the counter with the given name. Callers on hot
/// paths should hold the handle in a [`LazyCounter`] instead of calling
/// this per event.
pub fn counter(name: &str) -> Counter {
    let mut reg = counter_registry().lock().unwrap();
    if let Some(c) = reg.get(name) {
        return Counter(c);
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    reg.insert(name.to_string(), cell);
    Counter(cell)
}

/// All counters with a non-zero value, sorted by name.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    counter_registry()
        .lock()
        .unwrap()
        .iter()
        .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
        .filter(|&(_, v)| v != 0)
        .collect()
}

/// Zero every registered counter and histogram (tests/harnesses only;
/// handles stay valid).
pub fn reset_counters() {
    for c in counter_registry().lock().unwrap().values() {
        c.store(0, Ordering::Relaxed);
    }
    for h in histogram_registry().lock().unwrap().values() {
        for b in h.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        h.total.store(0, Ordering::Relaxed);
    }
}

/// A counter handle resolved on first use and gated on
/// [`crate::enabled`], for `static` placement at hot call sites.
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Counter>,
}

impl LazyCounter {
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    /// One relaxed load + branch when observability is disabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if crate::enabled() {
            self.cell.get_or_init(|| counter(self.name)).add(n);
        }
    }
}

/// Power-of-two bucket histogram: bucket `i` counts values whose bit
/// length is `i` (bucket 0 holds zeros), i.e. value `v` lands in the
/// bucket whose lower bound is the largest power of two `<= v`. `total`
/// is the sum of every recorded value, so a span's histogram carries its
/// count *and* its total µs.
struct HistSlot {
    buckets: [AtomicU64; 65],
    total: AtomicU64,
}

fn histogram_registry() -> &'static Mutex<BTreeMap<String, &'static HistSlot>> {
    static R: OnceLock<Mutex<BTreeMap<String, &'static HistSlot>>> = OnceLock::new();
    R.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Handle to a named fixed-bucket histogram.
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistSlot);

impl Histogram {
    #[inline]
    pub fn record(self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.total.fetch_add(v, Ordering::Relaxed);
    }
}

/// Look up (or create) the histogram with the given name.
pub fn histogram(name: &str) -> Histogram {
    let mut reg = histogram_registry().lock().unwrap();
    if let Some(h) = reg.get(name) {
        return Histogram(h);
    }
    let slot: &'static HistSlot = Box::leak(Box::new(HistSlot {
        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        total: AtomicU64::new(0),
    }));
    reg.insert(name.to_string(), slot);
    Histogram(slot)
}

/// One histogram in a snapshot: `(name, total, [(bucket lower bound,
/// count)])`; its count is the sum of the bucket counts.
pub type HistogramEntry = (String, u64, Vec<(u64, u64)>);

/// Every non-empty histogram, sorted by name.
pub fn histogram_snapshot() -> Vec<HistogramEntry> {
    histogram_registry()
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(n, h)| {
            let buckets: Vec<(u64, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let count = b.load(Ordering::Relaxed);
                    if count == 0 {
                        return None;
                    }
                    let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                    Some((lo, count))
                })
                .collect();
            if buckets.is_empty() {
                None
            } else {
                Some((n.clone(), h.total.load(Ordering::Relaxed), buckets))
            }
        })
        .collect()
}

/// A histogram handle resolved on first use and gated on
/// [`crate::enabled`], for `static` placement at hot call sites.
pub struct LazyHistogram {
    name: &'static str,
    cell: OnceLock<Histogram>,
}

impl LazyHistogram {
    pub const fn new(name: &'static str) -> Self {
        LazyHistogram {
            name,
            cell: OnceLock::new(),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        if crate::enabled() {
            self.cell.get_or_init(|| histogram(self.name)).record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registries are process-global and shared with other tests, so
    // these use distinctive name prefixes and only assert about them.

    #[test]
    fn counter_snapshot_is_sorted_and_skips_zeros() {
        counter("snaptest.zz").add(2);
        counter("snaptest.aa").add(1);
        counter("snaptest.mm").add(3);
        counter("snaptest.zero"); // registered but never incremented
        let snap: Vec<(String, u64)> = counter_snapshot()
            .into_iter()
            .filter(|(n, _)| n.starts_with("snaptest."))
            .collect();
        assert_eq!(
            snap,
            vec![
                ("snaptest.aa".to_string(), 1),
                ("snaptest.mm".to_string(), 3),
                ("snaptest.zz".to_string(), 2),
            ],
            "snapshot must be name-sorted with zero counters dropped"
        );
    }

    #[test]
    fn histogram_snapshot_is_sorted_by_name_and_bucket() {
        histogram("hsnaptest.b").record(17); // bucket ≥16
        histogram("hsnaptest.a").record(0); // bucket ≥0
        histogram("hsnaptest.a").record(5); // bucket ≥4
        let snap: Vec<HistogramEntry> = histogram_snapshot()
            .into_iter()
            .filter(|(n, _, _)| n.starts_with("hsnaptest."))
            .collect();
        assert_eq!(
            snap,
            vec![
                ("hsnaptest.a".to_string(), 5, vec![(0, 1), (4, 1)]),
                ("hsnaptest.b".to_string(), 17, vec![(16, 1)]),
            ],
            "snapshot must be name-sorted with ascending bucket bounds"
        );
    }
}
