"""Safety design machinery: run lengths, phase shifts, searches.

Oracles: an exhaustive enumeration of Bernoulli sequences for the run-length
distribution and the exact-rational evaluation of the knowledge-spread sum.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np
import pytest

from snowsim.analysis import (
    Infeasible,
    SafetyDesign,
    build_slush_chain,
    build_snowflake_chain,
    churn_adjusted_delta,
    early_commit_threshold,
    feasibility_search,
    find_point_of_no_return,
    hitting_prob_within,
    phase_shift_index,
    run_length_beta,
    run_length_tail,
)


class TestPhaseShift:
    def test_no_byzantine_upper_half_is_safe(self):
        # With b=0 drift favors the majority everywhere above the midpoint,
        # so the smallest admissible index (strictly above c/2) is returned.
        for c, k, a in [(20, 3, 2), (100, 10, 8), (601, 10, 8)]:
            assert phase_shift_index(build_slush_chain(c, k, a)) == c // 2 + 1

    def test_full_sampling_closed_form(self):
        # k=n with a bare majority threshold: the up/down supports cross at
        # i = c/2 + b/2 exactly.
        c, b = 40, 10
        n = c + b
        ch = build_snowflake_chain(c, b, n, n // 2 + 1)
        assert phase_shift_index(ch) == c // 2 + b // 2

    def test_approach_to_midpoint_in_k(self):
        # Larger samples shrink the Byzantine-controlled band.
        c, b = 1600, 400
        offsets = []
        for k in (10, 15, 20, 40):
            a = math.ceil(0.8 * k)
            s_ps = phase_shift_index(build_snowflake_chain(c, b, k, a))
            assert not isinstance(s_ps, Infeasible)
            offsets.append(s_ps - c // 2)
        assert offsets == sorted(offsets, reverse=True)

    def test_single_crossing_on_grid(self):
        # up - down changes sign at most once above the midpoint.
        for c, b, k, a in [(90, 10, 3, 3), (100, 20, 5, 4), (60, 6, 4, 3), (200, 40, 10, 8)]:
            ch = build_snowflake_chain(c, b, k, a)
            signs = [ch.up[i] >= ch.down[i] for i in range(c // 2 + 1, c)]
            flips = sum(1 for x, y in zip(signs, signs[1:]) if x != y)
            assert flips <= 1, (c, b, k, a)

    def test_overwhelmed_network_is_infeasible(self):
        # b ~ c: push-back wins even next to unanimity, for any k.
        for k, a in [(1, 1), (5, 4), (10, 8)]:
            res = phase_shift_index(build_snowflake_chain(51, 49, k, a))
            assert isinstance(res, Infeasible)


class TestPointOfNoReturn:
    def test_vacuous_bound_returns_first_state_past_shift(self):
        ch = build_snowflake_chain(90, 10, 3, 3)
        s_ps = phase_shift_index(ch)
        assert find_point_of_no_return(ch, 1.0, 100) == s_ps + 1 - 45

    def test_monotone_in_eps(self):
        ch = build_snowflake_chain(90, 10, 3, 3)
        deltas = [find_point_of_no_return(ch, e, 10**4) for e in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(not isinstance(d, Infeasible) for d in deltas)
        assert deltas == sorted(deltas)

    def test_definition_via_hitting_probability(self):
        ch = build_snowflake_chain(90, 10, 3, 3)
        eps, phi = 1e-6, 10**4
        delta = find_point_of_no_return(ch, eps, phi)
        s_ps = phase_shift_index(ch)
        start = 45 + delta
        assert hitting_prob_within(ch, start, s_ps, phi) <= eps
        if start - 1 > s_ps:
            assert hitting_prob_within(ch, start - 1, s_ps, phi) > eps


def oracle_run_tail(p: float, trials: int, beta: int) -> float:
    """Exhaustive enumeration over all 2^trials outcome sequences."""
    total = 0.0
    for bits in product([0, 1], repeat=trials):
        run = best = 0
        for bit in bits:
            run = run + 1 if bit else 0
            best = max(best, run)
        if best >= beta:
            total += p ** sum(bits) * (1 - p) ** (trials - sum(bits))
    return total


def array_run_tail(p: float, trials: int, beta: int) -> float:
    """The run-length recursion over a full array of g(0) .. g(trials)."""
    if beta > trials or p == 0.0:
        return 0.0
    p_run = p**beta
    g = np.zeros(trials + 1)
    g[beta] = p_run
    fail_start = (1.0 - p) * p_run
    for m in range(beta + 1, trials + 1):
        g[m] = g[m - 1] + fail_start * (1.0 - g[m - 1 - beta])
    return float(g[trials])


class TestRunLength:
    def test_full_run_identity(self):
        assert run_length_tail(0.5, 10, 10) == pytest.approx(2**-10)
        assert run_length_tail(0.9, 7, 7) == pytest.approx(0.9**7)

    def test_at_least_one_identity(self):
        for p, t in [(0.3, 12), (0.9, 40), (0.5, 1)]:
            assert run_length_tail(p, t, 1) == pytest.approx(1 - (1 - p) ** t, rel=1e-12)

    def test_matches_enumeration(self):
        for p in (0.3, 0.5, 0.8):
            for trials in (6, 10, 13):
                for beta in (1, 2, 4, trials):
                    got = run_length_tail(p, trials, beta)
                    want = oracle_run_tail(p, trials, beta)
                    assert got == pytest.approx(want, abs=1e-12), (p, trials, beta)

    def test_equals_the_full_array_recursion(self):
        for p in (1e-3, 0.3, 0.5, 0.77, 0.9, 0.999, 1.0):
            for trials in (1, 2, 7, 50, 301):
                for beta in sorted({1, 2, 3, trials // 3 + 1, trials // 2, trials - 1, trials, trials + 1}):
                    if beta >= 1:
                        assert run_length_tail(p, trials, beta) == array_run_tail(p, trials, beta), (
                            p, trials, beta,
                        )

    def test_memory_follows_beta_not_trials(self):
        # A long horizon with a short tail to walk: the full array would
        # hold 10^6 floats (7.6 MiB).
        tracemalloc.start()
        try:
            run_length_tail(0.5, 10**6, 10**6 - 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_beta_search(self):
        beta = run_length_beta(0.5, 100, 1e-3)
        assert not isinstance(beta, Infeasible)
        assert run_length_tail(0.5, 100, beta) <= 1e-3
        assert run_length_tail(0.5, 100, beta - 1) > 1e-3

    def test_degenerate_probabilities(self):
        assert run_length_beta(0.0, 50, 1e-9) == 1
        assert isinstance(run_length_beta(1.0, 50, 0.5), Infeasible)

    def test_beta_capped_at_trials(self):
        # p so high that even a full-length run is too likely.
        assert isinstance(run_length_beta(0.999, 20, 1e-12), Infeasible)


def oracle_early_commit(n: int, c: int, k: int) -> float:
    """Exact rational evaluation of the knowledge-spread sum, per node."""
    total = Fraction(0)
    for x in range(1, c):
        miss = Fraction(comb(n - x, k), comb(n, k)) if n - x >= k else Fraction(0)
        total += 1 / (Fraction(c - x, c) * (1 - miss))
    return float(total) / c


class TestEarlyCommit:
    def test_matches_exact_rational_oracle(self):
        # Frozen from the oracle: per-node rounds for n=2000, c=1600.
        assert early_commit_threshold(2000, 1600, 10) == pytest.approx(8.693055810, abs=1e-6)
        assert early_commit_threshold(2000, 1600, 40) == pytest.approx(8.093735437, abs=1e-6)
        for k in (10, 20):
            got = early_commit_threshold(2000, 1600, k)
            assert got == pytest.approx(oracle_early_commit(2000, 1600, k), rel=1e-10)

    def test_decreasing_in_k(self):
        vals = [early_commit_threshold(2000, 1600, k) for k in (10, 20, 30, 40)]
        assert vals == sorted(vals, reverse=True)

    def test_full_knowledge_start_is_zero(self):
        assert early_commit_threshold(100, 80, 5, start_known=80) == 0.0


class TestFeasibilitySearch:
    def test_small_network_design_frozen(self):
        # Regression anchor computed with a standalone prototype of the same
        # construction before this module existed.
        design = feasibility_search(100, 10, 1e-6, 10**4)
        assert isinstance(design, SafetyDesign)
        assert (design.k, design.a, design.beta, design.delta, design.s_ps) == (3, 3, 26, 26, 53)
        assert design.c1_prob <= 1e-6 and design.c2_prob <= 1e-6

    def test_loose_eps_allows_k1(self):
        design = feasibility_search(10, 0, 0.9, 100)
        assert isinstance(design, SafetyDesign)
        assert design.k == 1

    def test_excessive_byzantine_share_infeasible(self):
        assert isinstance(feasibility_search(100, 49, 1e-6, 10**4, max_k=16), Infeasible)

    @pytest.mark.parametrize(
        "phi, kw, match",
        [
            (0, {}, "phi"),
            (-5, {}, "phi"),
            (10**4, {"k": 0}, r"k=0 outside \[1, 100\]"),
            (10**4, {"k": 101}, r"k=101 outside \[1, 100\]"),
            (10**4, {"max_k": 0}, "max_k"),
        ],
    )
    def test_malformed_search_inputs_raise(self, phi, kw, match):
        # Malformed input is an error, not an infeasible design.
        with pytest.raises(ValueError, match=match):
            feasibility_search(100, 10, 1e-6, phi, **kw)

    def test_fewer_than_three_correct_nodes_rejected(self):
        # No state lies strictly between the phase shift and unanimity.
        with pytest.raises(ValueError, match=r"c = n - b >= 3 correct nodes; got c=2"):
            feasibility_search(2, 0, 0.1, 100)
        with pytest.raises(ValueError, match=r"c = n - b >= 3 correct nodes; got c=2"):
            feasibility_search(5, 3, 0.1, 100)
        with pytest.raises(ValueError, match=r"c = n - b >= 3 correct nodes; got c=2"):
            find_point_of_no_return(build_snowflake_chain(2, 0, 1, 1), 0.1, 100)
        d = feasibility_search(10, 0, 0.9, 100)
        assert isinstance(churn_adjusted_delta(d, 0, 8), Infeasible)

    def test_fixed_k_variant(self):
        design = feasibility_search(100, 10, 1e-6, 10**4, k=5)
        assert isinstance(design, SafetyDesign)
        assert design.k == 5
        free = feasibility_search(100, 10, 1e-6, 10**4)
        assert design.beta <= free.beta  # larger samples need shorter runs

    def test_fixed_beta_variant(self):
        free = feasibility_search(100, 10, 1e-6, 10**4)
        design = feasibility_search(100, 10, 1e-6, 10**4, beta=free.beta)
        assert isinstance(design, SafetyDesign)
        assert design.k <= free.k
        assert design.beta == free.beta

    def test_beta_decreases_with_k_trend(self):
        # Larger k, smaller run threshold: the qualitative feasibility shape.
        # Grid keeps a/k constant so sample strength grows smoothly with k;
        # mixed ratios (a unanimous sample at one k, a loose one at the next)
        # can locally invert the trend.
        betas = []
        for k in (10, 20, 30):
            d = feasibility_search(100, 10, 1e-6, 10**4, k=k)
            assert isinstance(d, SafetyDesign)
            betas.append(d.beta)
        assert betas == sorted(betas, reverse=True)


class TestChurn:
    def _base(self) -> SafetyDesign:
        d = feasibility_search(100, 10, 1e-6, 10**4)
        assert isinstance(d, SafetyDesign)
        return d

    def test_zero_churn_keeps_delta(self):
        d = self._base()
        assert churn_adjusted_delta(d, 0, 0) == d.delta

    def test_monotone_in_arrivals(self):
        d = self._base()
        deltas = [churn_adjusted_delta(d, g, 0) for g in (0, 2, 5, 10)]
        assert all(not isinstance(x, Infeasible) for x in deltas)
        assert deltas == sorted(deltas)

    def test_matches_exhaustive_shifted_search(self):
        d = self._base()
        gamma_in, gamma_out = 4, 2
        c_new = 100 - 10 + gamma_in - gamma_out
        chain = build_snowflake_chain(c_new, d.b, d.k, d.a)
        s_ps = phase_shift_index(chain)
        expected = None
        for delta in range(1, c_new):
            start = c_new // 2 + delta - gamma_in
            if start <= s_ps or start > c_new:
                continue
            if hitting_prob_within(chain, start, s_ps, d.phi) <= d.eps:
                expected = delta
                break
        assert churn_adjusted_delta(d, gamma_in, gamma_out) == expected
