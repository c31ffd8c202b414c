//! Per-peer reconnect state machine of the TCP event loop.
//!
//! When an outbound connection dies, the peer's [`crate::queue::Lanes`]
//! flip into down-mode and this machine schedules reconnect attempts:
//! the first one immediately, every later one after an exponentially
//! growing, jittered delay capped at [`RECONNECT_CAP`]. At most one
//! attempt is ever in flight per peer — [`Reconnector::due_attempt`]
//! hands an attempt out exactly once and nothing else is due until the
//! loop reports the outcome.
//!
//! The module is **clock-free**: every method takes `now` (time since the
//! loop started) as an explicit [`Duration`], so the whole schedule is a
//! pure function of its inputs and the proptests in this file can sweep
//! it without sleeping. Jitter is deterministic, keyed on
//! `(seed, peer, attempt)` through [`iabc_types::splitmix64`], the
//! finalizer the simulator's fault plan uses — two loops with the same
//! seed retry on the same schedule.

use iabc_types::{splitmix64, Duration, ProcessId};

/// Delay before the second attempt (the first is immediate); doubles per
/// failure up to [`RECONNECT_CAP`].
pub(crate) const RECONNECT_BASE: Duration = Duration::from_millis(25);

/// Ceiling on the backoff delay: a peer that stays down is probed about
/// once a second, forever, so a healed partition is noticed promptly
/// without hammering a dead address in the meantime.
pub(crate) const RECONNECT_CAP: Duration = Duration::from_millis(1000);

/// The raw (un-jittered) backoff before attempt `attempt` (0-based):
/// `0` for the immediate first try, then `base·2^(attempt-1)` capped.
pub(crate) fn raw_backoff(base: Duration, cap: Duration, attempt: u64) -> Duration {
    if attempt == 0 {
        return Duration::from_nanos(0);
    }
    let exp = attempt - 1;
    // Past 32 doublings the cap has long since won; guard the shift.
    if exp >= 32 {
        return cap;
    }
    let raw = Duration::from_nanos(base.as_nanos().saturating_mul(1u64 << exp));
    if raw.as_nanos() > cap.as_nanos() { cap } else { raw }
}

/// The jittered delay before attempt `attempt` against `peer`: uniform in
/// `[raw/2, raw]`, so concurrent loops desynchronize their probes while
/// the delay stays within the raw envelope (and therefore under the cap).
pub(crate) fn jittered_backoff(
    base: Duration,
    cap: Duration,
    seed: u64,
    peer: ProcessId,
    attempt: u64,
) -> Duration {
    let raw = raw_backoff(base, cap, attempt).as_nanos();
    if raw == 0 {
        return Duration::from_nanos(0);
    }
    let half = raw / 2;
    let key = splitmix64(seed ^ splitmix64(u64::from(peer.index()) ^ splitmix64(attempt)));
    Duration::from_nanos(half + key % (raw - half + 1))
}

/// Where one peer link stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    /// Connected; nothing scheduled.
    Up,
    /// Down, next attempt due at the stored loop time.
    Waiting { next_attempt: Duration },
    /// Down, an attempt has been handed out and not yet resolved.
    Attempting,
}

#[derive(Debug)]
struct PeerLink {
    state: LinkState,
    /// Attempts made since the link last went down (keys the jitter and
    /// the exponential growth; resets when the link comes up).
    attempts: u64,
}

/// Reconnect scheduling for every outbound link of one event loop.
#[derive(Debug)]
pub(crate) struct Reconnector {
    base: Duration,
    cap: Duration,
    seed: u64,
    links: Vec<PeerLink>,
}

impl Reconnector {
    /// A reconnector over `n` peer slots (indexed by peer id), all up.
    pub(crate) fn new(n: usize, seed: u64) -> Reconnector {
        Reconnector::with_timing(n, seed, RECONNECT_BASE, RECONNECT_CAP)
    }

    /// [`Reconnector::new`] with explicit backoff timing (tests).
    pub(crate) fn with_timing(n: usize, seed: u64, base: Duration, cap: Duration) -> Reconnector {
        let links = (0..n)
            .map(|_| PeerLink { state: LinkState::Up, attempts: 0 })
            .collect();
        Reconnector { base, cap, seed, links }
    }

    fn link(&mut self, peer: ProcessId) -> Option<&mut PeerLink> {
        self.links.get_mut(peer.as_usize())
    }

    /// The link died (write error, EOF, or a fault-plan severance): start
    /// the schedule with an immediate first attempt. No-op if the link is
    /// already down — a reader EOF and a writer error for the same peer
    /// must not double-schedule.
    pub(crate) fn mark_down(&mut self, peer: ProcessId, now: Duration) {
        let Some(l) = self.link(peer) else { return };
        if l.state != LinkState::Up {
            return;
        }
        l.attempts = 0;
        l.state = LinkState::Waiting { next_attempt: now };
    }

    /// A connection is live again: clear the schedule and reset backoff.
    pub(crate) fn mark_up(&mut self, peer: ProcessId) {
        if let Some(l) = self.link(peer) {
            l.state = LinkState::Up;
            l.attempts = 0;
        }
    }

    /// True exactly once per scheduled attempt: if the peer is down and
    /// its delay has elapsed, the attempt is handed to the caller and the
    /// link moves to `Attempting` until [`Reconnector::attempt_failed`]
    /// or [`Reconnector::mark_up`] resolves it — at most one attempt is
    /// in flight per peer.
    pub(crate) fn due_attempt(&mut self, peer: ProcessId, now: Duration) -> bool {
        let Some(l) = self.link(peer) else { return false };
        match l.state {
            LinkState::Waiting { next_attempt } if now.as_nanos() >= next_attempt.as_nanos() => {
                l.state = LinkState::Attempting;
                l.attempts += 1;
                true
            }
            _ => false,
        }
    }

    /// The handed-out attempt failed: schedule the next one after the
    /// next (jittered, capped) backoff step.
    pub(crate) fn attempt_failed(&mut self, peer: ProcessId, now: Duration) {
        let (base, cap, seed) = (self.base, self.cap, self.seed);
        let Some(l) = self.link(peer) else { return };
        if l.state != LinkState::Attempting {
            return;
        }
        let delay = jittered_backoff(base, cap, seed, peer, l.attempts);
        l.state = LinkState::Waiting { next_attempt: now + delay };
    }

    /// True while the link is down (waiting or attempting).
    #[cfg(test)]
    pub(crate) fn is_down(&self, peer: ProcessId) -> bool {
        self.links
            .get(peer.as_usize())
            .is_some_and(|l| l.state != LinkState::Up)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn first_attempt_is_immediate_then_backoff_doubles_to_the_cap() {
        let base = ms(25);
        let cap = ms(1000);
        assert_eq!(raw_backoff(base, cap, 0), ms(0));
        assert_eq!(raw_backoff(base, cap, 1), ms(25));
        assert_eq!(raw_backoff(base, cap, 2), ms(50));
        assert_eq!(raw_backoff(base, cap, 3), ms(100));
        assert_eq!(raw_backoff(base, cap, 7), ms(1000), "capped");
        assert_eq!(raw_backoff(base, cap, 60), ms(1000), "huge attempts stay capped");
    }

    #[test]
    fn down_link_hands_out_exactly_one_attempt_until_resolved() {
        let mut r = Reconnector::new(3, 7);
        assert!(!r.due_attempt(p(1), ms(0)), "an up link never schedules");
        r.mark_down(p(1), ms(10));
        assert!(r.is_down(p(1)));
        assert!(r.due_attempt(p(1), ms(10)), "first attempt is immediate");
        // In flight: nothing more is due no matter how much time passes.
        assert!(!r.due_attempt(p(1), ms(10_000)));
        r.attempt_failed(p(1), ms(10));
        // The retry is due only after the (jittered) base delay.
        assert!(!r.due_attempt(p(1), ms(10)));
        assert!(r.due_attempt(p(1), ms(10) + RECONNECT_BASE));
        r.mark_up(p(1));
        assert!(!r.is_down(p(1)));
        assert!(!r.due_attempt(p(1), ms(20_000)));
    }

    #[test]
    fn a_second_outage_restarts_from_the_base_delay() {
        let mut r = Reconnector::new(2, 3);
        r.mark_down(p(0), ms(0));
        for t in [0u64, 2000, 4000, 6000] {
            assert!(r.due_attempt(p(0), ms(t)));
            r.attempt_failed(p(0), ms(t));
        }
        r.mark_up(p(0));
        // Fresh outage: immediate first attempt again, not a capped wait.
        r.mark_down(p(0), ms(50_000));
        assert!(r.due_attempt(p(0), ms(50_000)));
    }

    #[test]
    fn mark_down_while_already_down_does_not_reset_the_schedule() {
        let mut r = Reconnector::new(2, 3);
        r.mark_down(p(0), ms(0));
        assert!(r.due_attempt(p(0), ms(0)));
        r.attempt_failed(p(0), ms(0));
        // A reader EOF arriving after the writer already died: no-op —
        // in particular it must not make another attempt due immediately.
        r.mark_down(p(0), ms(1));
        assert!(!r.due_attempt(p(0), ms(1)));
    }

    proptest! {
        /// Jittered delays stay inside `[raw/2, raw]` and never exceed
        /// the cap, for every attempt number.
        #[test]
        fn jittered_delay_respects_bounds_and_cap(
            seed in any::<u64>(),
            peer in 0u16..64,
            attempt in 0u64..80,
            base_ms in 1u64..200,
            cap_ms in 200u64..5000,
        ) {
            let base = ms(base_ms);
            let cap = ms(cap_ms);
            let raw = raw_backoff(base, cap, attempt);
            let j = jittered_backoff(base, cap, seed, ProcessId::new(peer), attempt);
            prop_assert!(j.as_nanos() <= raw.as_nanos(), "jitter above the raw envelope");
            prop_assert!(j.as_nanos() >= raw.as_nanos() / 2, "jitter below half the envelope");
            prop_assert!(j.as_nanos() <= cap.as_nanos(), "jitter above the cap");
            // Determinism: the same key yields the same delay.
            prop_assert_eq!(j, jittered_backoff(base, cap, seed, ProcessId::new(peer), attempt));
        }

        /// The raw backoff sequence is monotone nondecreasing and reaches
        /// the cap, after which it stays there.
        #[test]
        fn raw_backoff_is_monotone_and_saturates(
            base_ms in 1u64..200,
            cap_ms in 200u64..5000,
        ) {
            let base = ms(base_ms);
            let cap = ms(cap_ms);
            let mut prev = Duration::from_nanos(0);
            let mut capped = false;
            for attempt in 0..64u64 {
                let d = raw_backoff(base, cap, attempt);
                prop_assert!(d.as_nanos() >= prev.as_nanos(), "backoff shrank at {attempt}");
                prop_assert!(d.as_nanos() <= cap.as_nanos());
                if d == cap {
                    capped = true;
                }
                prev = d;
            }
            prop_assert!(capped, "64 doublings never reached the cap");
        }

        /// Whatever interleaving of downs, failures, and clock advances a
        /// schedule sees, at most one attempt is ever in flight: two
        /// `due_attempt` calls can never both return true without an
        /// intervening `attempt_failed`/`mark_up`.
        #[test]
        fn at_most_one_attempt_in_flight_per_peer(
            seed in any::<u64>(),
            script in proptest::collection::vec(0u8..4, 1..60),
        ) {
            let mut r = Reconnector::new(1, seed);
            let mut now = Duration::from_nanos(0);
            let mut in_flight = false;
            r.mark_down(p(0), now);
            for step in script {
                match step {
                    0 => now += RECONNECT_BASE,
                    1 => now += RECONNECT_CAP,
                    2 => {
                        if r.due_attempt(p(0), now) {
                            prop_assert!(!in_flight, "second attempt handed out while one was in flight");
                            in_flight = true;
                        }
                    }
                    _ => {
                        r.attempt_failed(p(0), now);
                        in_flight = false;
                    }
                }
            }
        }
    }
}
