//! The wall-clock timer heap both real runtimes fire `on_timer` from.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use iabc_runtime::TimerId;

/// Pending `SetTimer` requests of one node, earliest deadline first.
#[derive(Debug)]
pub(crate) struct TimerHeap {
    heap: BinaryHeap<Reverse<(Instant, TimerId)>>,
}

impl TimerHeap {
    pub(crate) fn new() -> TimerHeap {
        TimerHeap { heap: BinaryHeap::new() }
    }

    pub(crate) fn push(&mut self, due: Instant, timer: TimerId) {
        self.heap.push(Reverse((due, timer)));
    }

    /// Removes and returns the earliest timer if it is due at `now`.
    pub(crate) fn pop_due(&mut self, now: Instant) -> Option<TimerId> {
        if self.next_due()? > now {
            return None;
        }
        self.heap.pop().map(|Reverse((_, timer))| timer)
    }

    /// The earliest pending deadline: what bounds the owner's next wait.
    pub(crate) fn next_due(&self) -> Option<Instant> {
        self.heap.peek().map(|Reverse((due, _))| *due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_deadline_order_and_only_when_due() {
        let t0 = Instant::now();
        let mut timers = TimerHeap::new();
        timers.push(t0 + Duration::from_millis(30), TimerId::new(1, 30));
        timers.push(t0 + Duration::from_millis(10), TimerId::new(1, 10));
        timers.push(t0 + Duration::from_millis(20), TimerId::new(1, 20));
        assert_eq!(timers.next_due(), Some(t0 + Duration::from_millis(10)));
        assert_eq!(timers.pop_due(t0), None, "nothing is due yet");
        let at = t0 + Duration::from_millis(20);
        assert_eq!(timers.pop_due(at).map(|t| t.data()), Some(10));
        assert_eq!(timers.pop_due(at).map(|t| t.data()), Some(20));
        assert_eq!(timers.pop_due(at), None);
        assert_eq!(timers.next_due(), Some(t0 + Duration::from_millis(30)));
    }
}
