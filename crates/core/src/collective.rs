//! The collective watermark, folded from the piggyback every frame rides
//! in ([`Envelope::WithFrontier`]). One minimum over all `n` processes
//! feeds lazy RB, which frees a copy every process has a-delivered
//! (`Broadcast::on_stable`), and the in-memory decided log, which drops an
//! instance every process has logged (`DecidedLog::release_through`). A
//! process never heard from counts as 0 here and nowhere else, so a
//! crashed one pins both; a policy for crashed processes belongs here.

use std::cmp::Reverse;

use iabc_types::ProcessId;

use crate::envelope::Envelope;

/// Per process `0..n`, the highest decided frontier and a-delivered vector
/// heard from it; this process's own row is its current state.
pub(crate) struct Collective {
    me: ProcessId,
    /// Catch-up (or learner mode) on: every frame carries the frontier.
    frontier_rides: bool,
    /// Empty until `n` is first known.
    rows: Vec<Row>,
    /// The last per-sender minimum of the vectors, reused.
    stable: Vec<u64>,
}

#[derive(Clone)]
struct Row {
    /// Every instance through this one is logged.
    frontier: u64,
    /// Per sender `s`: its messages `0..vector[s]` are a-delivered.
    vector: Vec<u64>,
}

impl Collective {
    pub(crate) fn new(me: ProcessId, frontier_rides: bool) -> Self {
        Collective { me, frontier_rides, rows: Vec::new(), stable: Vec::new() }
    }

    fn size(&mut self, n: usize) {
        if self.rows.len() != n {
            self.rows = vec![Row { frontier: 0, vector: vec![0; n] }; n];
        }
    }

    /// Sets the own row: the decided `frontier` and, per sender `s`,
    /// `prefix(s)` of its messages a-delivered — the a-delivered prefix, not
    /// the RB layer's R-delivered one, which a restart resets and which would
    /// then pin every peer. The node calls this wherever either moves.
    pub(crate) fn refresh_own(&mut self, n: usize, frontier: u64, prefix: impl Fn(ProcessId) -> u64) {
        self.size(n);
        if let Some(own) = self.rows.get_mut(self.me.as_usize()) {
            own.frontier = frontier;
            for (d, s) in own.vector.iter_mut().zip(ProcessId::all(n)) {
                *d = prefix(s);
            }
        }
    }

    /// The one builder of [`Envelope::WithFrontier`]: wraps `env` with the
    /// own frontier when it rides every frame (else 0) — riding every frame,
    /// it needs no schedule of its own and spreads even with the failure
    /// detector off — and with the own vector if `with_vector`. With
    /// neither, `env` goes bare: the wire is then byte for byte the one
    /// without catch-up.
    pub(crate) fn wrap<V>(&self, env: Envelope<V>, with_vector: bool, n: usize) -> Envelope<V> {
        if !self.frontier_rides && !with_vector {
            return env;
        }
        let own = self.rows.get(self.me.as_usize());
        let vector = || own.map_or_else(|| vec![0; n], |own| own.vector.clone());
        let delivered = if with_vector { vector() } else { Vec::new() };
        Envelope::WithFrontier { frontier: own.map_or(0, |own| own.frontier), delivered, inner: Box::new(env) }
    }

    /// Folds `from`'s piggyback into its row (element-wise max: frames
    /// overtake each other) and returns the minimum over all `n` rows: the
    /// instance every process has logged and, if `vector` was folded, per
    /// sender what every process has a-delivered. Remote input: an id
    /// outside `0..n` counts for no one, a vector of the wrong length
    /// changes no row, and a frame from this process trails its own row.
    ///
    /// Out of line: inlined, it grows the node's `on_message`.
    #[inline(never)]
    pub(crate) fn note(&mut self, from: ProcessId, frontier: u64, vector: &[u64], n: usize) -> (u64, Option<&[u64]>) {
        self.size(n);
        let folded = vector.len() == n && from.as_usize() < n;
        if let Some(row) = self.rows.get_mut(from.as_usize()).filter(|_| from != self.me) {
            row.frontier = row.frontier.max(frontier);
            for (known, &d) in row.vector.iter_mut().zip(vector).filter(|_| folded) {
                *known = (*known).max(d);
            }
        }
        let floor = self.rows.iter().map(|row| row.frontier).min().unwrap_or(0);
        if !folded {
            return (floor, None);
        }
        self.stable.clear();
        self.stable.resize(n, u64::MAX);
        for row in &self.rows {
            for (min, &d) in self.stable.iter_mut().zip(&row.vector) {
                *min = (*min).min(d);
            }
        }
        (floor, Some(&self.stable))
    }

    /// The peer to catch up from: the highest frontier at or past `from_k`,
    /// ties to the smallest id.
    pub(crate) fn best_peer(&self, from_k: u64) -> Option<(ProcessId, u64)> {
        ProcessId::all(self.rows.len())
            .zip(&self.rows)
            .map(|(p, row)| (p, row.frontier))
            .filter(|&(p, f)| p != self.me && f >= from_k)
            .max_by_key(|&(p, f)| (f, Reverse(p)))
    }
}

#[cfg(test)]
impl Collective {
    /// `p`'s row: its frontier and vector, if `p` is in `0..n`.
    pub(crate) fn row(&self, p: ProcessId) -> Option<(u64, &[u64])> {
        self.rows.get(p.as_usize()).map(|row| (row.frontier, row.vector.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    /// A process never heard from pins both minima at 0; the one row it
    /// sends releases both. A frame naming this process as its sender
    /// changes nothing.
    #[test]
    fn a_process_never_heard_from_pins_both_minima() {
        let (me, p1, p2) = (ProcessId::new(0), ProcessId::new(1), ProcessId::new(2));
        let mut c = Collective::new(me, true);
        c.refresh_own(3, 5, |_| 2);
        assert_eq!(c.note(p1, 5, &[2, 2, 2], 3), (0, Some(&[0, 0, 0][..])), "p2 pins both");
        assert_eq!(c.note(p1, 9, &[], 3), (0, None), "a frontier alone moves no vector");
        assert_eq!(c.note(p2, 4, &[2, 1, 3], 3), (4, Some(&[2, 1, 2][..])), "p2 heard: both move");
        assert_eq!(c.note(p2, 7, &[], 3), (5, None), "the own row is the minimum now");
        assert_eq!(c.note(me, 9, &[9, 9, 9], 3), (5, Some(&[2, 1, 2][..])), "only refresh_own moves it");
        assert_eq!(c.best_peer(6), Some((p1, 9)));
    }

    /// The two folds the Collective replaced, as they were: the a-delivered
    /// vectors in the node, the frontiers in recovery.
    struct TwoFolds {
        me: ProcessId,
        n: usize,
        own_frontier: u64,
        own_vector: Vec<u64>,
        known_delivered: Vec<Vec<u64>>,
        peer_frontiers: BTreeMap<ProcessId, u64>,
    }

    impl TwoFolds {
        /// `on_delivered_vector`: the stable vector handed to the broadcast
        /// layer, if any.
        fn on_delivered_vector(&mut self, from: ProcessId, delivered: &[u64]) -> Option<Vec<u64>> {
            let n = self.n;
            if delivered.len() != n || from.as_usize() >= n {
                return None;
            }
            self.known_delivered.resize(n, vec![0; n]);
            for (p, vector) in [(self.me, self.own_vector.clone()), (from, delivered.to_vec())] {
                for (known, &d) in self.known_delivered[p.as_usize()].iter_mut().zip(&vector) {
                    *known = (*known).max(d);
                }
            }
            Some((0..n).map(|s| self.known_delivered.iter().map(|row| row[s]).min().unwrap_or(0)).collect())
        }

        /// `note_frontier` + `release_collective_prefix`: the release floor.
        fn note_frontier(&mut self, from: ProcessId, frontier: u64) -> u64 {
            let known = self.peer_frontiers.entry(from).or_insert(0);
            *known = (*known).max(frontier);
            ProcessId::all(self.n)
                .filter(|&p| p != self.me)
                .map(|p| self.peer_frontiers.get(&p).copied().unwrap_or(0))
                .fold(self.own_frontier, u64::min)
        }

        /// `maybe_catch_up`'s peer choice. The one difference: the old fold
        /// also recorded ids outside `0..n` and could pick one, sending the
        /// request to a process no host has; the Collective keeps no row for
        /// it, as the old release already counted it for no one.
        fn best_peer(&self) -> Option<(ProcessId, u64)> {
            let from_k = self.own_frontier + 1;
            self.peer_frontiers
                .iter()
                .filter(|&(p, &f)| f >= from_k && p.as_usize() < self.n)
                .max_by_key(|&(&p, &f)| (f, Reverse(p)))
                .map(|(&p, &f)| (p, f))
        }
    }

    proptest! {
        /// Random frames — ids outside `0..n` and vectors of the wrong
        /// length included — interleaved with the own row moving on: at
        /// every step the Collective hands the broadcast layer the same
        /// vector, the log the same floor, and catch-up the same peer as
        /// the two folds it replaces. A frame from this process carries an
        /// earlier own row, as every frame it sent does.
        #[test]
        fn one_fold_matches_the_two_it_replaces(
            n in 1usize..5,
            me_pick in 0u16..4,
            steps in proptest::collection::vec(
                (0u8..4, 0u16..6, 0u64..12, proptest::collection::vec(0u64..6, 0..6)),
                1..60,
            ),
        ) {
            let me = ProcessId::new(me_pick % n as u16);
            let mut c = Collective::new(me, true);
            let mut model = TwoFolds {
                me,
                n,
                own_frontier: 0,
                own_vector: vec![0; n],
                known_delivered: Vec::new(),
                peer_frontiers: BTreeMap::new(),
            };
            for (kind, from, frontier, mut vector) in steps {
                let from = ProcessId::new(from);
                if kind == 0 {
                    // The own row moves on: a-deliveries, log appends.
                    model.own_frontier += frontier;
                    for (own, d) in model.own_vector.iter_mut().zip(vector.iter().chain(std::iter::repeat(&0))) {
                        *own += d;
                    }
                    let own = model.own_vector.clone();
                    c.refresh_own(n, model.own_frontier, |s| own[s.as_usize()]);
                    prop_assert_eq!(c.best_peer(model.own_frontier + 1), model.best_peer());
                    continue;
                }
                let frontier = if from == me { frontier.min(model.own_frontier) } else { frontier };
                if from == me {
                    for (d, own) in vector.iter_mut().zip(&model.own_vector) {
                        *d = (*d).min(*own);
                    }
                }
                let stable = model.on_delivered_vector(from, &vector);
                let floor = model.note_frontier(from, frontier);
                let (got_floor, got_stable) = c.note(from, frontier, &vector, n);
                prop_assert_eq!(got_stable.map(<[u64]>::to_vec), stable);
                prop_assert_eq!(got_floor, floor);
                prop_assert_eq!(c.best_peer(model.own_frontier + 1), model.best_peer());
            }
        }
    }
}
