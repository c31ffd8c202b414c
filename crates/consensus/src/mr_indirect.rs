//! **Algorithm 3**: the Mostéfaoui–Raynal ◇S *indirect consensus*
//! algorithm.
//!
//! The paper's §3.3.2 shows that the MR algorithm cannot be adapted to
//! message identifiers by a local check alone: a process may face two
//! indistinguishable executions, one where it must adopt the coordinator's
//! value (for Uniform agreement) and one where it must not (for No loss).
//! The resolution changes the quorum structure — and the resilience:
//!
//! * **Phase 1** (lines 16–19): forward the coordinator's estimate only if
//!   `rcv(v)` holds, else ⊥. A valid Phase 2 echo therefore *witnesses*
//!   that its sender holds `msgs(v)`.
//! * **Phase 2** (lines 21–22): wait for `⌈(2n+1)/3⌉` echoes instead of a
//!   majority.
//! * **Adoption rule** (lines 27–29): on a mixed `{v, ⊥}` view adopt `v`
//!   iff `rcv(v)` holds **or** `v` was echoed `⌈(n+1)/3⌉` times (at least
//!   one *correct* process holds `msgs(v)`, by quorum intersection —
//!   Figure 2).
//!
//! Resilience drops from `f < n/2` to **`f < n/3`** — the price of
//! indirectness for this algorithm family.

use iabc_types::quorum;

use crate::mr::{MrMachine, MrPolicy};
use crate::value::ConsensusValue;
use crate::{ConsEnv, ConsOut};

/// Policy implementing Algorithm 3's bold lines.
#[derive(Debug, Default, Clone, Copy)]
pub struct IndirectMr;

impl MrPolicy for IndirectMr {
    fn phase1_take<V: ConsensusValue>(
        v: V,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) -> Option<V> {
        // Lines 16–19: forward only what we can vouch for.
        if env.check_rcv(&v, out) {
            Some(v)
        } else {
            None
        }
    }

    fn phase2_adopt<V: ConsensusValue>(
        v: &V,
        count: usize,
        n: usize,
        env: &ConsEnv<'_, V>,
        out: &mut ConsOut<V>,
    ) -> bool {
        // Lines 28–29: rcv(v) or v received ⌈(n+1)/3⌉ times.
        count >= quorum::one_third(n) || env.check_rcv(v, out)
    }

    fn quorum(n: usize) -> usize {
        // Line 22: wait for ⌈(2n+1)/3⌉ echoes.
        quorum::two_thirds(n)
    }

    const NAME: &'static str = "mr-indirect";
}

/// The Mostéfaoui–Raynal-based ◇S indirect consensus algorithm
/// (Algorithm 3): `⌈(2n+1)/3⌉` quorum, resilience `f < n/3`, No loss
/// guaranteed through witnessing echoes.
pub type MrIndirect<V> = MrMachine<V, IndirectMr>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::LoopNet;
    use crate::value::{HeldIds, RcvOracle};
    use crate::SingleConsensus;
    use iabc_types::{Duration, IdSet, MsgId, ProcessId};

    fn p(i: u16) -> ProcessId {
        ProcessId::new(i)
    }

    fn ids(seqs: &[u64]) -> IdSet {
        IdSet::from_ids(seqs.iter().map(|&s| MsgId::new(p(0), s)))
    }

    fn held(seqs: &[u64]) -> Box<dyn RcvOracle<IdSet>> {
        Box::new(HeldIds { held: ids(seqs), cost_per_id: Duration::ZERO })
    }

    #[test]
    fn good_run_decides_in_one_round() {
        let n = 4; // f < n/3 needs n ≥ 4 for any resilience
        let mut net = LoopNet::new(n, |q| MrIndirect::<IdSet>::new(q, n), || held(&[0, 1, 2, 3]));
        for q in 0..4u16 {
            net.propose(p(q), ids(&[q as u64]));
        }
        net.run();
        // Round-1 coordinator p1: everyone holds msgs({1}) → unanimous echo.
        assert_eq!(net.common_decision(), ids(&[1]));
        assert_eq!(net.count_frames(|m| m.round().is_some_and(|r| r > 1)), 0, "no frame of a second round");
    }

    #[test]
    fn unheld_coordinator_value_is_echoed_as_bottom() {
        // Nobody but the coordinator holds message 9, so the coordinator's
        // estimate dies in round 1; a later round decides a held value.
        let n = 4;
        let mut net = LoopNet::new(n, |q| MrIndirect::<IdSet>::new(q, n), || held(&[1]));
        net.set_oracle(p(1), held(&[1, 9]));
        net.propose(p(0), ids(&[1]));
        net.propose(p(1), ids(&[9])); // round-1 coordinator, unheld value
        net.propose(p(2), ids(&[1]));
        net.propose(p(3), ids(&[1]));
        net.run();
        let d = net.common_decision();
        assert_eq!(d, ids(&[1]), "the unheld value must not be decided");
    }

    #[test]
    fn adoption_by_witness_count() {
        // Algorithm 3's condition (2): a process adopts v without holding
        // msgs(v) when ⌈(n+1)/3⌉ processes echoed v. n = 4 → threshold 2.
        // p3 lacks msgs({1}); p0/p1/p2 hold it. Everyone still decides {1}.
        let n = 4;
        let mut net = LoopNet::new(n, |q| MrIndirect::<IdSet>::new(q, n), || held(&[1]));
        net.set_oracle(p(3), held(&[])); // p3 holds nothing
        for q in 0..4u16 {
            net.propose(p(q), ids(&[1]));
        }
        net.run();
        // All processes (including p3) decide {1}: p3 saw ≥ 2 echoes of {1}.
        net.assert_all_decided(&ids(&[1]));
    }

    #[test]
    fn crashed_coordinator_is_survived_with_f_lt_n_over_3() {
        let n = 4;
        let mut net = LoopNet::new(n, |q| MrIndirect::<IdSet>::new(q, n), || held(&[0, 2, 3]));
        net.crash(p(1)); // round-1 coordinator
        net.propose(p(0), ids(&[0]));
        net.propose(p(2), ids(&[2]));
        net.propose(p(3), ids(&[3]));
        net.run();
        for q in [0usize, 2, 3] {
            assert!(net.decisions[q].is_none());
        }
        for q in [0u16, 2, 3] {
            net.suspect_at(p(q), p(1));
        }
        net.run();
        // quorum(4) = 3 echoes available from the three live processes.
        let d = net.common_decision();
        assert!([ids(&[0]), ids(&[2]), ids(&[3])].contains(&d));
    }

    #[test]
    fn quorum_is_two_thirds() {
        assert_eq!(<IndirectMr as MrPolicy>::quorum(3), 3);
        assert_eq!(<IndirectMr as MrPolicy>::quorum(4), 3);
        assert_eq!(<IndirectMr as MrPolicy>::quorum(7), 5);
    }

    #[test]
    fn rcv_cost_is_charged_in_phase1() {
        use crate::msg::ConsMsg;
        use crate::{ConsEnv, ConsOut};
        use iabc_types::ProcessSet;

        let n = 4;
        let oracle = HeldIds { held: ids(&[5]), cost_per_id: Duration::from_micros(4) };
        let mut algo = MrIndirect::<IdSet>::new(p(0), n);
        let env = ConsEnv::new(&oracle, ProcessSet::new());
        let mut out = ConsOut::new();
        algo.propose(ids(&[5]), &env, &mut out);
        let mut out = ConsOut::new();
        algo.on_message(
            p(1),
            ConsMsg::MrPhase1 { round: 1, estimate: ids(&[5]) },
            &env,
            &mut out,
        );
        assert_eq!(out.work, Duration::from_micros(4));
        // And the echo is valid since we hold msg 5.
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, ConsMsg::MrPhase2 { est: Some(_), .. })));
    }

    #[test]
    fn phase1_without_the_messages_echoes_bottom() {
        use crate::msg::ConsMsg;
        use crate::{ConsEnv, ConsOut};
        use iabc_types::ProcessSet;

        let n = 4;
        let oracle = HeldIds { held: IdSet::new(), cost_per_id: Duration::ZERO };
        let mut algo = MrIndirect::<IdSet>::new(p(0), n);
        let env = ConsEnv::new(&oracle, ProcessSet::new());
        let mut out = ConsOut::new();
        algo.propose(ids(&[5]), &env, &mut out);
        let mut out = ConsOut::new();
        algo.on_message(
            p(1),
            ConsMsg::MrPhase1 { round: 1, estimate: ids(&[7]) },
            &env,
            &mut out,
        );
        assert!(out
            .sends
            .iter()
            .any(|(_, m)| matches!(m, ConsMsg::MrPhase2 { est: None, .. })));
    }
}
