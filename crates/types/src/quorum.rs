//! Quorum arithmetic for the ◇S algorithms.
//!
//! The paper's algorithms wait for specific quorum sizes:
//!
//! * Chandra–Toueg (original and indirect): `⌈(n+1)/2⌉` estimates / acks,
//!   tolerating `f < n/2` crashes.
//! * Mostéfaoui–Raynal (original): a majority, `f < n/2`.
//! * Mostéfaoui–Raynal **indirect** (Algorithm 3): `⌈(2n+1)/3⌉` Phase-2
//!   echoes and an adoption threshold of `⌈(n+1)/3⌉`, tolerating only
//!   `f < n/3` — the resilience loss that is one of the paper's findings.
//!
//! The intersection argument of Figure 2 (two `n−f` quorums intersect in at
//! least `n−2f` processes, so `n−2f ≥ f+1 ⇔ f < n/3` guarantees `f+1`
//! common echoes) is captured by [`min_quorum_intersection`] and tested
//! property-style.

/// `⌈(n+1)/2⌉` — the majority quorum used by Chandra–Toueg.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn majority(n: usize) -> usize {
    assert!(n > 0, "system must have at least one process");
    n / 2 + 1
}

/// `⌈(2n+1)/3⌉` — the Phase-2 quorum of the indirect MR algorithm
/// (Algorithm 3, line 22).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn two_thirds(n: usize) -> usize {
    assert!(n > 0, "system must have at least one process");
    (2 * n + 1).div_ceil(3)
}

/// `⌈(n+1)/3⌉` — the adoption threshold of the indirect MR algorithm
/// (Algorithm 3, line 28): receiving `v` this many times proves a correct
/// process holds `msgs(v)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn one_third(n: usize) -> usize {
    assert!(n > 0, "system must have at least one process");
    (n + 1).div_ceil(3)
}

/// Maximum number of crash failures tolerated under a majority requirement
/// (`f < n/2`).
pub fn max_faults_majority(n: usize) -> usize {
    n.saturating_sub(1) / 2
}

/// Maximum number of crash failures tolerated under the indirect-MR
/// requirement (`f < n/3`).
pub fn max_faults_third(n: usize) -> usize {
    n.saturating_sub(1) / 3
}

/// Minimum size of the intersection of two quorums of size `q` out of `n`
/// processes: `max(0, 2q − n)`.
///
/// With `q = n − f` this is the paper's `n − 2f` (Figure 2).
pub fn min_quorum_intersection(n: usize, q: usize) -> usize {
    (2 * q).saturating_sub(n)
}

#[cfg(test)]
mod tests {
    use super::*;

/// Whether `f` failures are survivable by an algorithm that needs any two
/// `(n−f)`-quorums to intersect in at least `f+1` processes — the condition
/// `n − 2f ≥ f + 1` of §3.3.3, equivalent to `f < n/3`.
fn intersection_covers_correct_witness(n: usize, f: usize) -> bool {
    min_quorum_intersection(n, n - f) > f
}

    #[test]
    fn majority_matches_paper_examples() {
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
        assert_eq!(majority(7), 4);
    }

    #[test]
    fn two_thirds_matches_ceil_formula() {
        // ⌈(2n+1)/3⌉ spot checks.
        assert_eq!(two_thirds(3), 3); // ⌈7/3⌉
        assert_eq!(two_thirds(4), 3); // ⌈9/3⌉
        assert_eq!(two_thirds(5), 4); // ⌈11/3⌉
        assert_eq!(two_thirds(7), 5); // ⌈15/3⌉
    }

    #[test]
    fn one_third_matches_ceil_formula() {
        assert_eq!(one_third(3), 2); // ⌈4/3⌉
        assert_eq!(one_third(4), 2);
        assert_eq!(one_third(7), 3); // ⌈8/3⌉
    }

    #[test]
    fn max_faults() {
        assert_eq!(max_faults_majority(3), 1);
        assert_eq!(max_faults_majority(5), 2);
        assert_eq!(max_faults_third(3), 0);
        assert_eq!(max_faults_third(4), 1);
        assert_eq!(max_faults_third(7), 2);
    }

    #[test]
    fn figure_2_example() {
        // n = 7, f = 2: quorums of size 5 intersect in at least 3 = n − 2f
        // processes, and 3 ≥ f + 1, so the adoption rule is sound.
        assert_eq!(min_quorum_intersection(7, 5), 3);
        assert!(intersection_covers_correct_witness(7, 2));
        // f = 3 would break it (f < n/3 fails).
        assert!(!intersection_covers_correct_witness(7, 3));
    }

    #[test]
    fn two_majorities_always_intersect() {
        for n in 1..100 {
            assert!(min_quorum_intersection(n, majority(n)) >= 1, "n={n}");
        }
    }

    #[test]
    fn indirect_mr_condition_is_exactly_f_lt_n_over_3() {
        for n in 1..200usize {
            for f in 0..n {
                let lhs = intersection_covers_correct_witness(n, f);
                let rhs = 3 * f < n;
                assert_eq!(lhs, rhs, "n={n} f={f}");
            }
        }
    }

    #[test]
    fn quorums_fit_in_system() {
        for n in 1..100 {
            assert!(majority(n) <= n);
            assert!(two_thirds(n) <= n);
            assert!(one_third(n) <= n);
        }
    }
}
