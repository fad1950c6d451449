//! A member's published state: its lifecycle ([`ReplicaHealth`]) and
//! its watermark, one value (`MemberState`) read by one predicate
//! (`MemberState::serves`).

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
}

/// One member's health and watermark: one value, changed in one step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemberState {
    pub(crate) health: ReplicaHealth,
    /// The watermark: in process, the highest epoch the replica has
    /// published; across a socket, the highest the follower has acked.
    pub(crate) epoch: u64,
}

impl MemberState {
    /// The one readiness predicate: the member is in the rotation and
    /// its watermark has reached `epoch`, so it answers a read pinned
    /// there byte for byte like the primary.
    pub(crate) fn serves(self, epoch: u64) -> bool {
        self.health == ReplicaHealth::Healthy && self.epoch >= epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_names_and_transitions() {
        for health in [
            ReplicaHealth::Healthy,
            ReplicaHealth::Degraded,
            ReplicaHealth::Reseeding,
        ] {
            assert!(!health.name().is_empty());
            let state = MemberState { health, epoch: 7 };
            let healthy = health == ReplicaHealth::Healthy;
            assert_eq!((state.serves(0), state.serves(7)), (healthy, healthy));
            assert!(!state.serves(8), "never past the watermark");
        }
    }
}
