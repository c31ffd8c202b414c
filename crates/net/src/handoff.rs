//! The two hand-offs between the application thread and the event loops:
//! each loop's command [`Inbox`], and the cluster's one output [`Outbox`].
//!
//! Both are a queue behind a mutex that the consuming side swaps out whole,
//! so a loop pass pays one lock per direction, not one per item, and the
//! two buffers of a hand-off stop allocating once they have grown: what
//! is swapped in is the empty buffer the last swap took out.
//!
//! A thread is only ever woken after every lock is dropped, so a woken
//! thread never finds the lock still held by the thread that woke it. The
//! loop side is woken by the caller through its [`crate::event_loop`]
//! waker; the application side parks in [`Collector::gather`] and is
//! unparked by the [`Producer`] whose append or drop it waits for.
//!
//! Every update under these locks is one push, append or swap, which
//! leaves the queue whole at every step, so a lock poisoned by a panic
//! elsewhere is recovered rather than passed on.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use crate::NetOutput;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One event loop's application commands, in send order.
pub(crate) struct Inbox<C> {
    queue: Mutex<VecDeque<C>>,
}

impl<C> Inbox<C> {
    pub(crate) fn new() -> Self {
        Inbox { queue: Mutex::new(VecDeque::new()) }
    }

    /// Application side: queues `cmd` behind every command sent before
    /// it. The caller then wakes the loop.
    pub(crate) fn push(&self, cmd: C) {
        lock(&self.queue).push_back(cmd);
    }

    /// Loop side: once `held` is empty, swaps the queue into it whole. A
    /// command still held was sent before anything queued here, so until
    /// then the queue waits.
    pub(crate) fn refill(&self, held: &mut VecDeque<C>) {
        if held.is_empty() {
            std::mem::swap(&mut *lock(&self.queue), held);
        }
    }
}

/// The outputs every loop of a cluster released and the application has
/// not collected yet, each loop's in its emission order.
pub(crate) struct Outbox<O> {
    state: Mutex<OutboxState<O>>,
}

struct OutboxState<O> {
    outputs: Vec<NetOutput<O>>,
    /// The consumer, once it found nothing to take and is about to park
    /// (or parked). Whoever appends or leaves next takes it and wakes it.
    waiter: Option<Thread>,
    /// Loops still running: with none left and nothing to take, a wait
    /// returns at once.
    producers: usize,
    /// Whether the [`Collector`] still exists. Without it nothing takes
    /// outputs any more, and appends drop them rather than pile them up.
    collected: bool,
}

impl<O> Outbox<O> {
    /// Takes the waiting consumer, if any, under the lock the change it
    /// must see was made under: the caller wakes it after the lock drops.
    fn update(&self, change: impl FnOnce(&mut OutboxState<O>)) -> Option<Thread> {
        let mut state = lock(&self.state);
        change(&mut state);
        state.waiter.take()
    }
}

/// One loop's end of the cluster's [`Outbox`]. Dropping it, as the loop
/// exits (or unwinds), tells the consumer one producer fewer is left.
pub(crate) struct Producer<O> {
    outbox: Arc<Outbox<O>>,
}

impl<O> Producer<O> {
    /// Moves `batch` to the outbox, leaving it empty with its capacity.
    pub(crate) fn hand_over(&self, batch: &mut Vec<NetOutput<O>>) {
        if batch.is_empty() {
            return;
        }
        let hand_over = |s: &mut OutboxState<O>| {
            if s.collected {
                Vec::append(&mut s.outputs, batch);
            } else {
                batch.clear();
            }
        };
        if let Some(consumer) = self.outbox.update(hand_over) {
            consumer.unpark();
        }
    }
}

impl<O> Drop for Producer<O> {
    fn drop(&mut self) {
        if let Some(consumer) = self.outbox.update(|s| s.producers -= 1) {
            consumer.unpark();
        }
    }
}

/// The application's end of the [`Outbox`]: hands outputs out one by
/// one, however the loops' appends fell.
pub(crate) struct Collector<O> {
    outbox: Arc<Outbox<O>>,
    /// Outputs taken from the outbox and not returned yet.
    received: VecDeque<NetOutput<O>>,
    /// The empty buffer the next take swaps into the outbox.
    spare: Vec<NetOutput<O>>,
}

impl<O> Collector<O> {
    /// The consumer of a new outbox, which has no producer yet.
    pub(crate) fn new() -> Self {
        let outbox = Outbox {
            state: Mutex::new(OutboxState {
                outputs: Vec::new(),
                waiter: None,
                producers: 0,
                collected: true,
            }),
        };
        Collector { outbox: Arc::new(outbox), received: VecDeque::new(), spare: Vec::new() }
    }

    /// A new producer for one loop.
    pub(crate) fn producer(&self) -> Producer<O> {
        lock(&self.outbox.state).producers += 1;
        Producer { outbox: Arc::clone(&self.outbox) }
    }

    /// Collects up to `count` outputs: first those already received, then
    /// from the outbox, until `count` are in hand, `timeout` elapses, or
    /// every producer is gone and nothing is left. What a take brings
    /// beyond `count` waits for the next call. A `timeout` too long to add
    /// to the clock means no deadline.
    pub(crate) fn gather(&mut self, count: usize, timeout: Duration) -> Vec<NetOutput<O>> {
        let mut out = Vec::new();
        let mut deadline = None;
        loop {
            let take = (count - out.len()).min(self.received.len());
            out.extend(self.received.drain(..take));
            if out.len() == count {
                return out;
            }
            // Nothing is left in hand: only now is the clock worth reading.
            let deadline = *deadline.get_or_insert_with(|| Instant::now().checked_add(timeout));
            if !self.wait_for_more(deadline) {
                return out;
            }
        }
    }

    /// Moves everything in the outbox to `received`, parking until there
    /// is something to move. `false`: `deadline` passed first, or every
    /// producer is gone with the outbox empty.
    fn wait_for_more(&mut self, deadline: Option<Instant>) -> bool {
        loop {
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            {
                let mut state = lock(&self.outbox.state);
                if !state.outputs.is_empty() {
                    std::mem::swap(&mut state.outputs, &mut self.spare);
                    state.waiter = None;
                    break;
                }
                if state.producers == 0 || left.is_some_and(|l| l.is_zero()) {
                    state.waiter = None;
                    return false;
                }
                // Registered under the lock every append takes: an append
                // after this check finds the registration and wakes us, and
                // an unpark that lands before the park makes it return.
                state.waiter = Some(thread::current());
            }
            match left {
                Some(left) => thread::park_timeout(left),
                None => thread::park(),
            }
        }
        self.received.extend(self.spare.drain(..));
        true
    }

    /// The next take whole, as the appends made it: waits for the outbox
    /// to fill, up to `timeout`, and returns everything in it.
    #[cfg(test)]
    pub(crate) fn next_take(&mut self, timeout: Duration) -> Vec<NetOutput<O>> {
        assert!(self.received.is_empty(), "outputs of an earlier take are still in hand");
        self.wait_for_more(Instant::now().checked_add(timeout));
        self.received.drain(..).collect()
    }
}

impl<O> Drop for Collector<O> {
    fn drop(&mut self) {
        let mut state = lock(&self.outbox.state);
        state.collected = false;
        state.outputs = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::{ProcessId, Time};

    fn output(process: u16, seq: u32) -> NetOutput<u32> {
        NetOutput { at: Time::ZERO, process: ProcessId::new(process), output: seq }
    }

    /// Spins until the consumer has registered to be woken, and returns
    /// the thread it registered.
    fn wait_for_waiter<O>(outbox: &Outbox<O>) -> Thread {
        loop {
            if let Some(t) = lock(&outbox.state).waiter.clone() {
                return t;
            }
            thread::yield_now();
        }
    }

    #[test]
    fn three_producers_lose_nothing_repeat_nothing_and_keep_each_order() {
        const EACH: u32 = 10_000;
        let mut collector = Collector::new();
        let producers: Vec<_> = (0..3).map(|_| collector.producer()).collect();
        let outbox = Arc::clone(&collector.outbox);
        thread::scope(|s| {
            for (p, producer) in producers.into_iter().enumerate() {
                let outbox = &outbox;
                s.spawn(move || {
                    let p = u16::try_from(p).unwrap();
                    let mut batch = Vec::new();
                    for seq in 0..EACH {
                        // Every 2,000 outputs, go on only once the consumer
                        // has found the outbox empty and parks.
                        if seq % 2_000 == 0 {
                            wait_for_waiter(outbox);
                        }
                        batch.push(output(p, seq));
                        // Batches of 1 to 7, as passes emit them.
                        if batch.len() > (seq as usize + usize::from(p)) % 7 {
                            producer.hand_over(&mut batch);
                            assert!(batch.is_empty());
                        }
                    }
                    producer.hand_over(&mut batch);
                });
            }
            let mut next = [0u32; 3];
            while next.iter().any(|&n| n < EACH) {
                let got = collector.gather(5, Duration::from_secs(10));
                assert!(!got.is_empty(), "a wait timed out");
                for o in got {
                    let p = o.process.as_usize();
                    assert_eq!(o.output, next[p], "p{p}: lost, repeated or reordered");
                    next[p] += 1;
                }
            }
        });
        // Every producer is gone and nothing is left: no wait, no extra.
        assert!(collector.gather(1, Duration::from_secs(10)).is_empty());
    }

    #[test]
    fn a_wait_without_deadline_returns_once_an_output_arrives() {
        let mut collector = Collector::new();
        let producer = collector.producer();
        let outbox = Arc::clone(&collector.outbox);
        thread::scope(|s| {
            s.spawn(move || {
                // Only once the consumer is parked (or about to park).
                wait_for_waiter(&outbox);
                producer.hand_over(&mut vec![output(0, 7)]);
            });
            let got = collector.gather(1, Duration::MAX);
            assert_eq!(got.iter().map(|o| o.output).collect::<Vec<_>>(), [7]);
        });
    }

    #[test]
    fn every_wait_returns_at_once_after_every_producer_is_gone() {
        let mut collector = Collector::new();
        let (first, last) = (collector.producer(), collector.producer());
        first.hand_over(&mut vec![output(0, 1)]);
        drop(first);
        // One producer left: a parked consumer wakes when it goes.
        let outbox = Arc::clone(&collector.outbox);
        let started = Instant::now();
        thread::scope(|s| {
            s.spawn(move || {
                wait_for_waiter(&outbox);
                drop(last);
            });
            // What the first producer left is still handed out.
            let got = collector.gather(usize::MAX, Duration::from_secs(30));
            assert_eq!(got.iter().map(|o| o.output).collect::<Vec<_>>(), [1]);
        });
        assert!(collector.gather(1, Duration::MAX).is_empty());
        assert!(collector.gather(usize::MAX, Duration::from_secs(30)).is_empty());
        assert!(started.elapsed() < Duration::from_secs(10), "a wait outlived every producer");
    }

    #[test]
    fn a_collector_moved_to_another_thread_after_its_first_wait_is_still_woken() {
        let mut collector = Collector::new();
        let producer = collector.producer();
        let outbox = Arc::clone(&collector.outbox);
        let here = thread::current().id();
        thread::scope(|s| {
            s.spawn(move || {
                assert_eq!(wait_for_waiter(&outbox).id(), here);
                producer.hand_over(&mut vec![output(0, 1)]);
                // The append took that registration: the next one is made
                // by the thread the collector moved to.
                assert_ne!(wait_for_waiter(&outbox).id(), here);
                producer.hand_over(&mut vec![output(0, 2)]);
            });
            assert_eq!(collector.gather(1, Duration::from_secs(30))[0].output, 1);
            let moved = s.spawn(move || {
                let started = Instant::now();
                let got = collector.gather(1, Duration::from_secs(30));
                (got[0].output, started.elapsed())
            });
            let (got, waited) = moved.join().unwrap();
            assert_eq!(got, 2);
            assert!(waited < Duration::from_secs(10), "the moved consumer slept to its deadline");
        });
    }

    #[test]
    fn outputs_handed_over_after_the_collector_is_gone_are_dropped() {
        let collector = Collector::new();
        let (producer, outbox) = (collector.producer(), Arc::clone(&collector.outbox));
        producer.hand_over(&mut vec![output(0, 1)]);
        drop(collector);
        let mut batch = vec![output(0, 2)];
        producer.hand_over(&mut batch);
        assert!(batch.is_empty());
        assert!(lock(&outbox.state).outputs.is_empty(), "nothing is kept for no one");
    }

    #[test]
    fn an_inbox_is_taken_whole_and_only_once_the_held_commands_ran() {
        let inbox = Inbox::new();
        let mut held = VecDeque::new();
        inbox.push(1);
        inbox.push(2);
        inbox.refill(&mut held);
        inbox.push(3);
        // 1 and 2 are still held: 3 must wait behind them.
        held.pop_front();
        inbox.refill(&mut held);
        assert_eq!(held, [2]);
        held.pop_front();
        inbox.refill(&mut held);
        assert_eq!(held, [3]);
    }
}
