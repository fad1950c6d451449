//! Service observability: lock-free counters plus fixed-bucket
//! per-priority latency histograms, snapshotted into a plain
//! [`MetricsSnapshot`] with a stable JSON rendering
//! (`csag-service-metrics-v1`).

use crate::json::Writer;
use crate::service::request::Priority;
use std::sync::atomic::{AtomicU64, Ordering};

/// Upper bounds (milliseconds) of the latency histogram buckets; one
/// extra overflow bucket catches everything beyond the last bound.
/// Roughly log-spaced: fine resolution where interactive deadlines
/// live, coarse where batch work lands.
pub const BUCKET_BOUNDS_MS: [f64; 12] = [
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 5000.0,
];

const BUCKETS: usize = BUCKET_BOUNDS_MS.len() + 1;

/// A fixed-bucket latency histogram (recorded in milliseconds).
/// Recording is one relaxed atomic increment; quantiles are estimated
/// at snapshot time as the upper bound of the bucket where the
/// cumulative count crosses the rank.
#[derive(Default)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum in microseconds (integer, so the mean needs no float atomics).
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    pub(crate) fn record(&self, ms: f64) {
        let ix = BUCKET_BOUNDS_MS
            .iter()
            .position(|&b| ms <= b)
            .unwrap_or(BUCKETS - 1);
        self.buckets[ix].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us
            .fetch_add((ms * 1000.0).max(0.0) as u64, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = self.count.load(Ordering::Relaxed);
        let mean_ms = if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0 / count as f64
        };
        let quantile = |p: f64| -> f64 {
            if count == 0 {
                return 0.0;
            }
            let rank = (p * count as f64).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return BUCKET_BOUNDS_MS.get(i).copied().unwrap_or(f64::INFINITY);
                }
            }
            f64::INFINITY
        };
        HistogramSnapshot {
            count,
            mean_ms,
            p50_ms: quantile(0.50),
            p95_ms: quantile(0.95),
            p99_ms: quantile(0.99),
            buckets,
        }
    }
}

/// Point-in-time view of one latency histogram.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Estimated median (upper bound of the covering bucket).
    pub p50_ms: f64,
    /// Estimated 95th percentile.
    pub p95_ms: f64,
    /// Estimated 99th percentile (`inf` ⇒ the overflow bucket).
    pub p99_ms: f64,
    /// Raw bucket counts (`BUCKET_BOUNDS_MS` + one overflow bucket).
    pub buckets: Vec<u64>,
}

/// The service's live counters. All recording is relaxed atomics — the
/// serving hot path never takes a metrics lock.
#[derive(Default)]
pub struct ServiceMetrics {
    pub(crate) submitted: AtomicU64,
    pub(crate) admitted: AtomicU64,
    pub(crate) shed: AtomicU64,
    /// Pre-admission rejections (invalid parameters, unservable
    /// method). `submitted == admitted + shed + rejected` always holds.
    pub(crate) rejected: AtomicU64,
    pub(crate) coalesced: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) degraded: AtomicU64,
    /// Engine computations actually executed (< admitted when
    /// coalescing merged identical in-flight queries).
    pub(crate) executed: AtomicU64,
    /// Computations whose distance table was already resident when the
    /// worker picked them up.
    pub(crate) warm_hits: AtomicU64,
    /// Worker wake-ups issued by the submit path. Batched submission
    /// (one wake per batch, however many requests it carries) keeps
    /// this far below `admitted` under pipelined load.
    pub(crate) wakes: AtomicU64,
    pub(crate) per_priority: [LatencyHistogram; 3],
}

impl ServiceMetrics {
    /// Records one answered waiter's end-to-end latency under its
    /// priority.
    pub(crate) fn record_latency(&self, priority: Priority, ms: f64) {
        self.per_priority[priority.index()].record(ms);
    }

    /// A consistent-enough point-in-time copy of every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let executed = self.executed.load(Ordering::Relaxed);
        let warm_hits = self.warm_hits.load(Ordering::Relaxed);
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            executed,
            warm_hits,
            wakes: self.wakes.load(Ordering::Relaxed),
            warm_hit_ratio: if executed == 0 {
                0.0
            } else {
                warm_hits as f64 / executed as f64
            },
            per_priority: [
                self.per_priority[0].snapshot(),
                self.per_priority[1].snapshot(),
                self.per_priority[2].snapshot(),
            ],
        }
    }
}

/// Point-in-time view of [`ServiceMetrics`].
#[derive(Clone, Debug)]
pub struct MetricsSnapshot {
    /// Requests offered to [`super::Service::submit`].
    pub submitted: u64,
    /// Requests admitted (queued or coalesced).
    pub admitted: u64,
    /// Requests shed with [`crate::engine::CsagError::Overloaded`].
    pub shed: u64,
    /// Requests rejected before admission (invalid parameters,
    /// unservable method) — `submitted == admitted + shed + rejected`.
    pub rejected: u64,
    /// Admitted requests that rode an identical in-flight computation.
    pub coalesced: u64,
    /// Waiters answered (success or typed failure).
    pub completed: u64,
    /// Waiters answered with a typed error.
    pub failed: u64,
    /// Waiters whose search returned at or after its tightest deadline.
    pub degraded: u64,
    /// Engine computations actually executed.
    pub executed: u64,
    /// Computations that found their distance table resident.
    pub warm_hits: u64,
    /// Worker wake-ups issued by the submit path — with batched
    /// submission ([`super::Service::submit_batch`] and the socket
    /// transport) this stays far below `admitted` under pipelined load.
    pub wakes: u64,
    /// `warm_hits / executed` (0 when nothing executed).
    pub warm_hit_ratio: f64,
    /// Per-priority end-to-end latency histograms, indexed like
    /// [`Priority::ALL`] (batch, standard, interactive).
    pub per_priority: [HistogramSnapshot; 3],
}

impl MetricsSnapshot {
    /// Serializes the snapshot as one JSON object
    /// (`schema: csag-service-metrics-v1`).
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.begin_object();
        w.key("schema").string("csag-service-metrics-v1");
        for (key, count) in [
            ("submitted", self.submitted),
            ("admitted", self.admitted),
            ("shed", self.shed),
            ("rejected", self.rejected),
            ("coalesced", self.coalesced),
            ("completed", self.completed),
            ("failed", self.failed),
            ("degraded", self.degraded),
            ("executed", self.executed),
            ("warm_hits", self.warm_hits),
            ("wakes", self.wakes),
        ] {
            w.key(key).uint(count);
        }
        w.key("warm_hit_ratio").float(self.warm_hit_ratio);
        w.key("per_priority").begin_object();
        for p in Priority::ALL {
            let h = &self.per_priority[p.index()];
            w.key(p.name()).begin_object();
            w.key("count").uint(h.count);
            w.key("mean_ms").float(h.mean_ms);
            w.key("p50_ms").float(h.p50_ms);
            w.key("p95_ms").float(h.p95_ms);
            w.key("p99_ms").float(h.p99_ms);
            w.key("buckets").begin_array();
            for &bucket in &h.buckets {
                w.uint(bucket);
            }
            w.end_array().end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_cover_the_recorded_band() {
        let h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(0.8); // ≤ 1 ms bucket
        }
        for _ in 0..10 {
            h.record(40.0); // ≤ 50 ms bucket
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p95_ms, 50.0);
        assert_eq!(s.p99_ms, 50.0);
        assert!(s.mean_ms > 0.8 && s.mean_ms < 40.0);
        // The overflow bucket catches the unbounded tail.
        h.record(60_000.0);
        let s = h.snapshot();
        assert_eq!(*s.buckets.last().unwrap(), 1);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = LatencyHistogram::default().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let m = ServiceMetrics::default();
        m.submitted.store(7, Ordering::Relaxed);
        m.executed.store(4, Ordering::Relaxed);
        m.warm_hits.store(2, Ordering::Relaxed);
        m.record_latency(Priority::Interactive, 3.0);
        let snap = m.snapshot();
        assert_eq!(snap.warm_hit_ratio, 0.5);
        let j = snap.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"schema\":\"csag-service-metrics-v1\"",
            "\"submitted\":7",
            "\"warm_hit_ratio\":0.5",
            "\"per_priority\":{\"batch\"",
            "\"interactive\":{\"count\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
