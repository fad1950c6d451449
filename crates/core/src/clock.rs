//! The one clock rule every searching method shares: a wall-clock budget
//! becomes a deadline once, through [`deadline_after`], and the method
//! polls [`expired`] at its loop head.

use std::time::{Duration, Instant};

/// The instant `budget` after `start`. `None` when there is no budget, or
/// when the deadline lies beyond what [`Instant`] can represent: a
/// deadline that far away never expires.
pub fn deadline_after(start: Instant, budget: Option<Duration>) -> Option<Instant> {
    budget.and_then(|b| start.checked_add(b))
}

/// Whether `deadline` has passed. Reads the clock only when there is one.
pub fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_deadline_too_far_to_represent_never_expires() {
        let now = Instant::now();
        assert_eq!(deadline_after(now, None), None);
        assert_eq!(deadline_after(now, Some(Duration::MAX)), None);
        assert!(!expired(deadline_after(now, Some(Duration::MAX))));
        assert_eq!(deadline_after(now, Some(Duration::ZERO)), Some(now));
        assert!(expired(deadline_after(now, Some(Duration::ZERO))));
    }
}
