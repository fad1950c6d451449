//! Replica health primitives: the lifecycle state machine
//! ([`ReplicaHealth`]) and the heartbeat/status cell the router probes.
//! (A member's high-watermark is the store's own
//! `engine::store::EpochCell`.)

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Lifecycle state of one replica in the read rotation.
///
/// Only [`ReplicaHealth::Healthy`] replicas serve reads. A replica that
/// fails to apply a log record (or stops heartbeating) becomes
/// [`ReplicaHealth::Degraded`] — drained out of the rotation, its
/// watermark frozen so no pinned read can land on stale state — until
/// the router queues a reseed ([`ReplicaHealth::Reseeding`]) and the
/// replica rebuilds from the primary's snapshot, returning to healthy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// In the read rotation, applying log records.
    Healthy,
    /// Out of the rotation; discarding log records until reseeded.
    Degraded,
    /// A reseed is queued or in progress; still out of the rotation.
    Reseeding,
}

impl ReplicaHealth {
    /// Stable lower-case name (the metrics JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Reseeding => "reseeding",
        }
    }

    fn from_u8(v: u8) -> ReplicaHealth {
        match v {
            0 => ReplicaHealth::Healthy,
            1 => ReplicaHealth::Degraded,
            _ => ReplicaHealth::Reseeding,
        }
    }

    fn to_u8(self) -> u8 {
        match self {
            ReplicaHealth::Healthy => 0,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Reseeding => 2,
        }
    }
}

/// Lock-free health + heartbeat cell, shared between the replica thread
/// (which beats) and the router (which probes and degrades).
pub(crate) struct StatusCell {
    health: AtomicU8,
    /// Milliseconds since `origin` at the last heartbeat.
    beat_ms: AtomicU64,
    origin: Instant,
    /// Transitions *into* `Degraded` (a monotonic incident counter).
    degraded_marks: AtomicU64,
}

impl StatusCell {
    pub(crate) fn new() -> Self {
        StatusCell {
            health: AtomicU8::new(ReplicaHealth::Healthy.to_u8()),
            beat_ms: AtomicU64::new(0),
            origin: Instant::now(),
            degraded_marks: AtomicU64::new(0),
        }
    }

    pub(crate) fn health(&self) -> ReplicaHealth {
        ReplicaHealth::from_u8(self.health.load(Ordering::Acquire))
    }

    pub(crate) fn set_health(&self, h: ReplicaHealth) {
        if h == ReplicaHealth::Degraded && self.health() != ReplicaHealth::Degraded {
            self.degraded_marks.fetch_add(1, Ordering::Relaxed);
        }
        self.health.store(h.to_u8(), Ordering::Release);
    }

    pub(crate) fn degraded_marks(&self) -> u64 {
        self.degraded_marks.load(Ordering::Relaxed)
    }

    /// Records "alive now" (called by the replica loop every iteration).
    pub(crate) fn beat(&self) {
        let ms = self.origin.elapsed().as_millis() as u64;
        self.beat_ms.store(ms, Ordering::Release);
    }

    /// Time since the last heartbeat.
    pub(crate) fn silence(&self) -> Duration {
        let last = Duration::from_millis(self.beat_ms.load(Ordering::Acquire));
        self.origin.elapsed().saturating_sub(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_names_and_transitions() {
        for h in [
            ReplicaHealth::Healthy,
            ReplicaHealth::Degraded,
            ReplicaHealth::Reseeding,
        ] {
            assert_eq!(ReplicaHealth::from_u8(h.to_u8()), h);
            assert!(!h.name().is_empty());
        }
        let cell = StatusCell::new();
        assert_eq!(cell.health(), ReplicaHealth::Healthy);
        cell.set_health(ReplicaHealth::Degraded);
        cell.set_health(ReplicaHealth::Degraded);
        assert_eq!(cell.degraded_marks(), 1, "re-marking is not an incident");
        cell.set_health(ReplicaHealth::Reseeding);
        cell.set_health(ReplicaHealth::Healthy);
        cell.set_health(ReplicaHealth::Degraded);
        assert_eq!(cell.degraded_marks(), 2);
    }
}
