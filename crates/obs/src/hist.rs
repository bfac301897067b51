//! Log-bucketed latency histograms.
//!
//! Wall-clock means hide exactly what a serving tier needs to see: the
//! tail. A [`Histogram`] is an HDR-style fixed-size log₂ histogram — 64
//! `u64` buckets, bucket `i` holding every value whose bit length is
//! `i + 1` (so bucket 0 is `{0, 1}`, bucket 9 is `[512, 1024)`, …) —
//! from which p50/p90/p99/p999 are extracted with bounded relative
//! error (a value and its reported percentile always share a bucket,
//! i.e. they agree within a factor of two).
//!
//! Two flavours:
//!
//! * [`Histogram`] — plain owned buckets. Cheap to record into from one
//!   thread, mergeable across threads with [`Histogram::merge`] (the
//!   same drain/merge discipline the counters use: workers record
//!   locally, the aggregator merges bundles). Merging is associative
//!   and commutative, so aggregation order never changes a percentile.
//! * [`AtomicHistogram`] — the same buckets behind relaxed atomics, for
//!   process-lifetime series shared by many threads (the
//!   [`MetricsRegistry`](crate::metrics::MetricsRegistry) stores
//!   these). [`AtomicHistogram::load`] materialises a point-in-time
//!   [`Histogram`] view.
//!
//! Recording is feature-gated like every other probe in this crate:
//! without `enabled`, [`Histogram::record`] and
//! [`AtomicHistogram::record`] are empty inline functions and every
//! view is all-zero.

use crate::json::Json;
use std::sync::atomic::AtomicU64;
#[cfg(feature = "enabled")]
use std::sync::atomic::Ordering;

/// Number of log₂ buckets — one per possible `u64` bit length.
pub const N_BUCKETS: usize = 64;

/// The bucket a value lands in: its bit length minus one (0 for 0).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() - 1) as usize
}

/// The largest value bucket `i` can hold (`2^(i+1) - 1`, saturating).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 63 {
        u64::MAX
    } else {
        (1u64 << (i + 1)) - 1
    }
}

/// The standard percentile set exported everywhere: p50/p90/p99/p999.
pub const QUANTILES: [(f64, &str); 4] =
    [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")];

/// A fixed-size log₂ histogram (see the [module docs](self)).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; N_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [0; N_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one value. No-op without the `enabled` feature.
    #[inline(always)]
    pub fn record(&mut self, v: u64) {
        #[cfg(feature = "enabled")]
        {
            self.buckets[bucket_of(v)] += 1;
            self.count += 1;
            self.sum = self.sum.saturating_add(v);
            self.max = self.max.max(v);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = v;
        }
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts, index = bit length − 1.
    pub fn buckets(&self) -> &[u64; N_BUCKETS] {
        &self.buckets
    }

    /// Bucket-wise sum — the cross-thread aggregation primitive.
    /// Associative and commutative (up to `sum` saturation).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `p` (clamped to `[0, 1]`): an upper bound
    /// of the bucket holding the `⌈p·count⌉`-th smallest recorded
    /// value, capped at the observed maximum. Guaranteed to land in
    /// the same bucket as the true quantile, and monotone in `p`.
    /// Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// `(name, value)` pairs for the standard [`QUANTILES`] set.
    pub fn quantiles(&self) -> [(&'static str, u64); QUANTILES.len()] {
        QUANTILES.map(|(p, name)| (name, self.percentile(p)))
    }

    /// A JSON summary: count, sum, mean, max, and the standard
    /// percentile set.
    pub fn to_json(&self) -> Json {
        let mut obj = Json::obj()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("mean", self.mean())
            .field("max", self.max);
        for (name, v) in self.quantiles() {
            obj = obj.field(name, v);
        }
        obj
    }
}

/// A [`Histogram`] with relaxed-atomic buckets, shareable across
/// threads without locks (see the [module docs](self)).
///
/// `max` is maintained with a compare-exchange loop; all other slots
/// are plain relaxed adds, so a concurrent [`load`](Self::load) may
/// observe a value in `count` before its bucket (or vice versa) — the
/// skew is at most the handful of in-flight recordings, which is
/// irrelevant for a latency series and avoids any synchronisation on
/// the record path.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; N_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

// `[AtomicU64; 64]: Default` doesn't hold (arrays cap at 32), so spell
// it out.
impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram::new()
    }
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value. No-op without the `enabled` feature.
    #[inline(always)]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `v` as `n` observations (a sample standing for `n`
    /// calls, see [`Sample`](crate::Sample)). No-op without the
    /// `enabled` feature.
    #[inline(always)]
    pub fn record_n(&self, v: u64, n: u64) {
        #[cfg(feature = "enabled")]
        {
            self.buckets[bucket_of(v)].fetch_add(n, Ordering::Relaxed);
            self.count.fetch_add(n, Ordering::Relaxed);
            self.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
            self.max.fetch_max(v, Ordering::Relaxed);
        }
        #[cfg(not(feature = "enabled"))]
        {
            let _ = (v, n);
        }
    }

    /// A point-in-time owned view (all-zero when recording is
    /// disabled, since nothing ever stores).
    pub fn load(&self) -> Histogram {
        use std::sync::atomic::Ordering::Relaxed;
        Histogram {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Relaxed)),
            count: self.count.load(Relaxed),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;

    #[test]
    fn buckets_follow_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn percentiles_share_a_bucket_with_the_true_quantile() {
        let mut h = Histogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| i * i % 7919 + 1).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for (p, _) in QUANTILES {
            let rank = ((p * values.len() as f64).ceil() as usize).max(1) - 1;
            let truth = values[rank];
            let got = h.percentile(p);
            assert_eq!(
                bucket_of(truth),
                bucket_of(got),
                "p{p}: true {truth} vs reported {got} in different buckets"
            );
            assert!(got >= truth, "reported percentile below the true quantile");
            assert!(got <= h.max());
        }
    }

    #[test]
    fn percentile_edge_cases() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        h.record(42);
        assert_eq!(h.percentile(0.0), 42);
        assert_eq!(h.percentile(1.0), 42);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn merge_is_bucketwise() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 100, 10_000] {
            a.record(v);
        }
        for v in [5u64, 1_000_000] {
            b.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.count(), 5);
        assert_eq!(merged.sum(), a.sum() + b.sum());
        assert_eq!(merged.max(), 1_000_000);
        let mut both = Histogram::new();
        for v in [1u64, 100, 10_000, 5, 1_000_000] {
            both.record(v);
        }
        assert_eq!(merged, both, "merge equals recording the union");
    }

    #[test]
    fn atomic_histogram_matches_owned() {
        let atomic = AtomicHistogram::new();
        let mut owned = Histogram::new();
        for v in [3u64, 17, 17, 250_000] {
            atomic.record(v);
            owned.record(v);
        }
        assert_eq!(atomic.load(), owned);
    }

    #[test]
    fn weighted_records_equal_repeated_ones() {
        let weighted = AtomicHistogram::new();
        let repeated = AtomicHistogram::new();
        for (v, n) in [(3u64, 1u64), (700, 5), (250_000, 64)] {
            weighted.record_n(v, n);
            for _ in 0..n {
                repeated.record(v);
            }
        }
        assert_eq!(weighted.load(), repeated.load());
    }

    #[test]
    fn json_summary_has_the_standard_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let rendered = h.to_json().render();
        for key in ["count", "mean", "max", "p50", "p90", "p99", "p999"] {
            assert!(rendered.contains(key), "missing {key} in {rendered}");
        }
    }
}

#[cfg(all(test, not(feature = "enabled")))]
mod disabled_tests {
    use super::*;

    #[test]
    fn disabled_recording_is_silent() {
        let mut h = Histogram::new();
        h.record(42);
        assert!(h.is_empty());
        let a = AtomicHistogram::new();
        a.record(42);
        assert!(a.load().is_empty());
    }
}
