//! A failure detector that replays a pre-programmed suspicion timeline.

use iabc_types::{Duration, ProcessSet, Time};

use crate::{FailureDetector, FdEvent, FdOut};

/// Replays `(delay-from-start, event)` entries, regardless of what actually
/// happens in the run.
///
/// This is the tool for reproducing the paper's counterexample executions:
/// ◇S is *unreliable*, so **any** finite suspicion pattern is a legal ◇S
/// behaviour, and a test may script exactly the pattern that exhibits a
/// protocol flaw.
///
/// # Example
///
/// ```
/// use iabc_fd::{FailureDetector, FdEvent, FdOut, ScriptedFd};
/// use iabc_types::{Duration, ProcessId, Time};
///
/// let mut fd = ScriptedFd::new(vec![
///     (Duration::from_millis(5), FdEvent::Suspect(ProcessId::new(0))),
/// ]);
/// let mut out = FdOut::new();
/// fd.on_start(Time::ZERO, &mut out);
/// assert_eq!(out.timers.len(), 1); // one timer per scripted entry
/// ```
#[derive(Debug)]
// lint:allow(U1): the tool for scripting a ◇S pattern in a counterexample test; its doc example is its caller
pub struct ScriptedFd {
    script: Vec<(Duration, FdEvent)>,
    suspected: ProcessSet,
}

impl ScriptedFd {
    /// Creates a detector replaying the given timeline.
    pub fn new(script: Vec<(Duration, FdEvent)>) -> Self {
        ScriptedFd { script, suspected: ProcessSet::new() }
    }

    fn apply(&mut self, event: FdEvent, out: &mut FdOut) {
        let changed = match event {
            FdEvent::Suspect(p) => self.suspected.insert(p),
            FdEvent::Trust(p) => self.suspected.remove(p),
        };
        if changed {
            out.changes.push(event);
        }
    }
}

impl FailureDetector for ScriptedFd {
    fn on_start(&mut self, _now: Time, out: &mut FdOut) {
        for (idx, (delay, _)) in self.script.iter().enumerate() {
            out.timers.push((*delay, idx as u64));
        }
    }

    fn on_timer(&mut self, _now: Time, data: u64, out: &mut FdOut) {
        if let Some(&(_, event)) = self.script.get(data as usize) {
            self.apply(event, out);
        }
    }

    fn suspected(&self) -> ProcessSet {
        self.suspected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iabc_types::ProcessId;

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn replays_script_in_timer_order() {
        let mut fd = ScriptedFd::new(vec![
            (Duration::from_millis(1), FdEvent::Suspect(p(2))),
            (Duration::from_millis(2), FdEvent::Trust(p(2))),
        ]);
        let mut out = FdOut::new();
        fd.on_start(Time::ZERO, &mut out);
        assert_eq!(out.timers, vec![(Duration::from_millis(1), 0), (Duration::from_millis(2), 1)]);

        let mut out = FdOut::new();
        fd.on_timer(Time::ZERO + Duration::from_millis(1), 0, &mut out);
        assert_eq!(out.changes, vec![FdEvent::Suspect(p(2))]);
        assert!(fd.suspects(p(2)));

        let mut out = FdOut::new();
        fd.on_timer(Time::ZERO + Duration::from_millis(2), 1, &mut out);
        assert_eq!(out.changes, vec![FdEvent::Trust(p(2))]);
        assert!(!fd.suspects(p(2)));
    }

    #[test]
    fn duplicate_events_are_not_rereported() {
        let mut fd = ScriptedFd::new(vec![
            (Duration::from_millis(1), FdEvent::Suspect(p(1))),
            (Duration::from_millis(2), FdEvent::Suspect(p(1))),
        ]);
        let mut out = FdOut::new();
        fd.on_start(Time::ZERO, &mut out);
        fd.on_timer(Time::ZERO, 0, &mut out);
        fd.on_timer(Time::ZERO, 1, &mut out);
        assert_eq!(out.changes.len(), 1);
    }

    #[test]
    fn silent_detector_never_suspects() {
        let mut fd = ScriptedFd::new(Vec::new());
        let mut out = FdOut::new();
        fd.on_start(Time::ZERO, &mut out);
        assert!(out.is_empty());
        assert!(fd.suspected().is_empty());
    }

    #[test]
    fn unknown_timer_payload_is_ignored() {
        let mut fd = ScriptedFd::new(Vec::new());
        let mut out = FdOut::new();
        fd.on_timer(Time::ZERO, 99, &mut out);
        assert!(out.is_empty());
    }
}
