//! The deterministic event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use iabc_types::Time;

/// A pending entry in the event queue.
struct Scheduled<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
///
/// Events scheduled for the same instant pop in the order they were pushed,
/// making simulation runs reproducible regardless of hash seeds or
/// allocation order.
///
/// # Example
///
/// ```
/// use iabc_sim::queue::EventQueue;
/// use iabc_types::Time;
///
/// let mut q = EventQueue::new();
/// q.push(Time::from_nanos(10), "b");
/// q.push(Time::from_nanos(5), "a");
/// q.push(Time::from_nanos(10), "c");
/// assert_eq!(q.pop().unwrap(), (Time::from_nanos(5), "a"));
/// assert_eq!(q.pop().unwrap(), (Time::from_nanos(10), "b"));
/// assert_eq!(q.pop().unwrap(), (Time::from_nanos(10), "c"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `event` at time `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the earliest event, FIFO among ties.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|s| (s.at, s.event))
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[30u64, 10, 20, 5, 25] {
            q.push(Time::from_nanos(t), t);
        }
        let mut out = Vec::new();
        while let Some((_, e)) = q.pop() {
            out.push(e);
        }
        assert_eq!(out, vec![5, 10, 20, 25, 30]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(7);
        for i in 0..100 {
            q.push(t, i);
        }
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time::from_nanos(3), ());
        q.push(Time::from_nanos(1), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_nanos(1)));
    }
}
