//! The one stop rule every searching method shares: one [`Stop`] per
//! search, built from its time and step budgets and polled once at each
//! loop head.

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

/// One search's stop: its deadline, its step budget and the steps it has
/// passed. A search stopped at step `s`, by either limit, passed the same
/// heads as one with step budget `s` and no deadline, so every answer
/// replays from its step count.
#[derive(Clone, Debug)]
pub struct Stop {
    deadline: Option<Instant>,
    budget: u64,
    steps: u64,
    stopped: bool,
}

impl Stop {
    /// A stop `time_budget` from now or after `step_budget` steps,
    /// whichever comes first (`None` = no limit of that kind).
    pub fn new(time_budget: Option<Duration>, step_budget: Option<u64>) -> Self {
        Stop {
            deadline: deadline_after(Instant::now(), time_budget),
            budget: step_budget.unwrap_or(u64::MAX),
            steps: 0,
            stopped: false,
        }
    }

    /// The poll at one loop head: `true` when the search stops here, which
    /// it does only if it `may_stop` and its budget is spent or its
    /// deadline has passed; otherwise the head is one more step.
    pub fn poll(&mut self, may_stop: bool) -> bool {
        if may_stop && (self.stopped || self.steps >= self.budget || expired(self.deadline)) {
            self.stopped = true;
            return true;
        }
        self.steps += 1;
        false
    }

    /// The steps passed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Whether some poll has stopped the search.
    pub fn stopped(&self) -> bool {
        self.stopped
    }
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

    #[test]
    fn a_stop_counts_the_heads_it_passes_and_stays_stopped() {
        let mut stop = Stop::new(None, Some(2));
        assert!(!stop.poll(true) && !stop.poll(true));
        assert!(!stop.poll(false), "a head that may not stop counts");
        assert_eq!(stop.steps(), 3);
        assert!(stop.poll(true) && stop.stopped());
        assert_eq!(stop.steps(), 3, "the head that stops is not a step");

        let mut timed = Stop::new(Some(Duration::ZERO), None);
        assert!(!timed.poll(false));
        assert!(timed.poll(true) && timed.poll(true));
        assert_eq!(timed.steps(), 1);

        let mut zero = Stop::new(None, Some(0));
        assert!(zero.poll(true));
        assert_eq!(zero.steps(), 0);
    }
}
