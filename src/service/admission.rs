//! Bounded admission control: every request is either *admitted* (it
//! will be answered) or *shed immediately* with
//! [`CsagError::Overloaded`] — the queue never grows without bound.
//!
//! The controller counts admitted-but-unanswered requests against one
//! bound, whatever their class; the `retry_after` hint it attaches to
//! sheds is derived from the observed per-computation service time (an
//! EWMA) and the current backlog, so well-behaved clients back off for
//! roughly one queue-drain interval instead of hammering a hot service.

use crate::engine::CsagError;
use std::time::Duration;

/// Floor/ceiling for the `retry_after` hint.
const MIN_RETRY_AFTER: Duration = Duration::from_millis(1);
const MAX_RETRY_AFTER: Duration = Duration::from_secs(5);

/// Seed for the service-time EWMA before anything has completed.
const INITIAL_SERVICE_MS: f64 = 2.0;

/// The admission state (guarded by the scheduler's mutex).
pub(crate) struct Admission {
    /// Bound on admitted-but-unanswered requests.
    capacity: usize,
    /// Worker count, for the drain-time estimate.
    workers: usize,
    /// Admitted-but-unanswered requests.
    pending: usize,
    /// EWMA of per-computation service time, in milliseconds.
    ewma_service_ms: f64,
}

impl Admission {
    pub(crate) fn new(capacity: usize, workers: usize) -> Self {
        Admission {
            capacity: capacity.max(1),
            workers: workers.max(1),
            pending: 0,
            ewma_service_ms: INITIAL_SERVICE_MS,
        }
    }

    /// Currently admitted-but-unanswered requests.
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Admits one request, or sheds it.
    ///
    /// # Errors
    /// [`CsagError::Overloaded`] when the bound is reached; nothing is
    /// counted in that case.
    pub(crate) fn try_admit(&mut self) -> Result<(), CsagError> {
        if self.pending >= self.capacity {
            return Err(CsagError::Overloaded {
                retry_after: self.retry_after(),
            });
        }
        self.pending += 1;
        Ok(())
    }

    /// Releases `answered` admitted requests.
    pub(crate) fn release(&mut self, answered: usize) {
        self.pending = self.pending.saturating_sub(answered);
    }

    /// Feeds one observed computation time into the EWMA.
    pub(crate) fn observe_service_ms(&mut self, ms: f64) {
        const ALPHA: f64 = 0.2;
        if ms.is_finite() && ms >= 0.0 {
            self.ewma_service_ms = ALPHA * ms + (1.0 - ALPHA) * self.ewma_service_ms;
        }
    }

    /// Estimated time until the current backlog drains: pending
    /// computations × EWMA service time ÷ workers, clamped to a sane
    /// band.
    pub(crate) fn retry_after(&self) -> Duration {
        let drain_ms = (self.pending.max(1) as f64) * self.ewma_service_ms / self.workers as f64;
        Duration::from_secs_f64(drain_ms.max(0.0) / 1000.0).clamp(MIN_RETRY_AFTER, MAX_RETRY_AFTER)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_bound_sheds_with_typed_error() {
        let mut a = Admission::new(2, 1);
        assert!(a.try_admit().is_ok());
        assert!(a.try_admit().is_ok());
        let err = a.try_admit().unwrap_err();
        let CsagError::Overloaded { retry_after } = err else {
            panic!("expected Overloaded, got {err:?}");
        };
        assert!(retry_after >= MIN_RETRY_AFTER && retry_after <= MAX_RETRY_AFTER);
        // Releasing frees a slot.
        a.release(1);
        assert!(a.try_admit().is_ok());
        assert_eq!(a.pending(), 2);
        a.release(2);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn retry_after_scales_with_backlog_and_service_time() {
        let mut a = Admission::new(100, 2);
        for _ in 0..10 {
            a.try_admit().unwrap();
        }
        let fast = a.retry_after();
        for _ in 0..5 {
            a.observe_service_ms(100.0);
        }
        let slow = a.retry_after();
        assert!(slow > fast, "{slow:?} vs {fast:?}");
        assert!(slow <= MAX_RETRY_AFTER);
    }
}
