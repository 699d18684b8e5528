"""Chain construction and absorption math against dense-matrix oracles.

The oracles here build the full (c+1)^2 transition matrix and use generic
linear algebra (or literal matrix powers), deliberately sharing no code with
the implementation's product-sum and banded-solve paths.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from snowsim.analysis import (
    BirthDeathChain,
    absorption_probability,
    build_slush_chain,
    build_snowflake_chain,
    ever_hit_probability,
    expected_absorption_time,
    hitting_prob_within,
    hitting_profile,
)
from snowsim.sampling import _tail_raw


def dense_matrix(chain: BirthDeathChain) -> np.ndarray:
    c = chain.c
    P = np.zeros((c + 1, c + 1))
    for i in range(c + 1):
        P[i, i] = 1.0 - chain.up[i] - chain.down[i]
        if i < c:
            P[i, i + 1] += chain.up[i]
        if i > 0:
            P[i, i - 1] += chain.down[i]
    return P


def oracle_absorption(chain: BirthDeathChain, start: int) -> float:
    """P(absorb at 0) via the generic transient-state linear system."""
    c = chain.c
    P = dense_matrix(chain)
    transient = list(range(1, c))
    Q = P[np.ix_(transient, transient)]
    to_zero = P[transient, 0]
    h = np.linalg.solve(np.eye(len(transient)) - Q, to_zero)
    full = np.zeros(c + 1)
    full[0] = 1.0
    full[1:c] = h
    return float(full[start])


def oracle_expected_steps(chain: BirthDeathChain, start: int) -> float:
    c = chain.c
    P = dense_matrix(chain)
    transient = list(range(1, c))
    Q = P[np.ix_(transient, transient)]
    u = np.linalg.solve(np.eye(len(transient)) - Q, np.ones(len(transient)))
    full = np.zeros(c + 1)
    full[1:c] = u
    return float(full[start])


def oracle_hitting_within(chain: BirthDeathChain, start: int, target: int, t: int) -> float:
    P = dense_matrix(chain)
    P[target, :] = 0.0
    P[target, target] = 1.0
    v = np.zeros(chain.c + 1)
    v[start] = 1.0
    for _ in range(t):
        v = v @ P
    return float(v[: target + 1].sum())


# The c <= 50 grid used throughout; includes a case with a zero up(1).
GRID = [
    (20, 0, 3, 2),
    (20, 0, 5, 4),
    (30, 0, 4, 3),
    (40, 4, 5, 4),
    (50, 5, 10, 8),
    (48, 8, 6, 5),
]


def chains_for(c, b, k, a):
    if b == 0:
        return build_slush_chain(c, k, a)
    return build_snowflake_chain(c, b, k, a)


class TestConstruction:
    def test_tiny_hand_values(self):
        # c=2, k=1, a=1: a mover is picked with prob 1/2 and its single
        # sample hits the opposite color with prob 1/2.
        ch = build_slush_chain(2, 1, 1)
        assert ch.up[1] == pytest.approx(0.25)
        assert ch.down[1] == pytest.approx(0.25)

    def test_endpoints_absorbing(self):
        for c, b, k, a in GRID:
            ch = chains_for(c, b, k, a)
            assert ch.up[0] == ch.down[0] == ch.up[c] == ch.down[c] == 0.0

    def test_slush_symmetry(self):
        ch = build_slush_chain(30, 4, 3)
        for i in range(31):
            assert ch.up[i] == pytest.approx(ch.down[30 - i], abs=1e-15)

    def test_snowflake_b0_degenerates_to_slush(self):
        a = build_slush_chain(25, 5, 4)
        b = build_snowflake_chain(25, 0, 5, 4)
        np.testing.assert_allclose(a.up, b.up)
        np.testing.assert_allclose(a.down, b.down)

    def test_byzantine_mass_breaks_midpoint_symmetry(self):
        ch = build_snowflake_chain(40, 8, 5, 4)
        assert ch.down[20] > ch.up[20]

    def test_population_override(self):
        # Self-exclusion: k sampled among the pop-1 other nodes.
        ch = build_snowflake_chain(20, 2, 3, 2, population=21)
        full = build_snowflake_chain(20, 2, 3, 2)
        assert ch.up[10] != full.up[10]  # convention visibly differs
        assert ch.up[10] == pytest.approx((10 / 20) * _tail_ref(21, 10, 3, 2))

    @pytest.mark.parametrize(
        "c, b, k, a, population",
        [(c, b, k, a, None) for c, b, k, a in GRID]
        + [(20, 2, 3, 2, 21), (90, 10, 3, 3, None), (2000, 200, 20, 16, 2199)],
    )
    def test_equals_per_state_loop(self, c, b, k, a, population):
        n = c + b if population is None else population
        up, down = np.zeros(c + 1), np.zeros(c + 1)
        for i in range(1, c):
            up[i] = ((c - i) / c) * _tail_raw(n, i, k, a)
            down[i] = (i / c) * _tail_raw(n, c - i + b, k, a)
        ch = build_snowflake_chain(c, b, k, a, population=population)
        assert np.array_equal(ch.up, up) and np.array_equal(ch.down, down)

    def test_build_memory_is_linear_in_states(self):
        # 10^4 states with 21-term supports: a states x support table of
        # log-terms and exponentials alone would take several megabytes.
        build_snowflake_chain(100, 0, 20, 18)  # warm up lazy allocations
        tracemalloc.start()
        try:
            build_snowflake_chain(10_000, 0, 200, 180)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            build_slush_chain(10, 4, 2)  # a = floor(k/2)
        with pytest.raises(ValueError):
            build_snowflake_chain(10, -1, 3, 2)
        with pytest.raises(ValueError):
            build_snowflake_chain(10, 2, 3, 2, population=9)  # can't hold c-1+b


def _tail_ref(n, x, k, a):
    from fractions import Fraction
    from math import comb

    total = Fraction(0)
    for j in range(max(a, k - (n - x)), min(k, x) + 1):
        total += Fraction(comb(x, j) * comb(n - x, k - j), comb(n, k))
    return float(total)


class TestAbsorption:
    def test_boundary_values(self):
        ch = build_slush_chain(20, 3, 2)
        assert absorption_probability(ch, 0) == 1.0
        assert absorption_probability(ch, 20) == 0.0

    def test_symmetric_midpoint_is_half(self):
        for c, k, a in [(20, 3, 2), (30, 4, 3), (50, 10, 8)]:
            ch = build_slush_chain(c, k, a)
            assert absorption_probability(ch, c // 2) == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_oracle(self):
        for c, b, k, a in GRID:
            ch = chains_for(c, b, k, a)
            for start in [1, c // 4, c // 2, 3 * c // 4, c - 1]:
                got = absorption_probability(ch, start)
                want = oracle_absorption(ch, start)
                assert got == pytest.approx(want, abs=1e-8), (c, b, k, a, start)

    def test_zero_transition_fallback(self):
        # c=20, k=3, a=2 has up(1) = 0 (one red cannot fill a 2-vote quorum),
        # which breaks the product form; the banded fallback must kick in.
        ch = build_slush_chain(20, 3, 2)
        assert ch.up[1] == 0.0
        got = absorption_probability(ch, 2)
        assert got == pytest.approx(oracle_absorption(ch, 2), abs=1e-10)


class TestExpectedTime:
    def test_two_state_hand_value(self):
        # E[steps] from the middle of c=2 is 1/(up+down) = 2; per-node = 1.
        ch = build_slush_chain(2, 1, 1)
        assert expected_absorption_time(ch, 1) == pytest.approx(1.0)

    def test_absorbing_starts_are_zero(self):
        ch = build_slush_chain(20, 3, 2)
        assert expected_absorption_time(ch, 0) == 0.0
        assert expected_absorption_time(ch, 20) == 0.0

    def test_matches_dense_oracle(self):
        for c, b, k, a in GRID:
            ch = chains_for(c, b, k, a)
            for start in [1, c // 2, c - 1]:
                got = expected_absorption_time(ch, start)
                want = oracle_expected_steps(ch, start) / c
                assert got == pytest.approx(want, abs=1e-8), (c, b, k, a, start)

    def test_frozen_interior_raises(self):
        # c=4, k=3, a=3: state 2 has zero probability either way (two reds
        # cannot produce three red votes, nor two blues three blue votes).
        ch = build_slush_chain(4, 3, 3)
        assert ch.up[2] == ch.down[2] == 0.0
        with pytest.raises(ValueError):
            expected_absorption_time(ch, 2)

    def test_slush_table_analytic_neighborhood(self):
        # The published 600-node per-node figure is 12.66; the analytic chain
        # lands within the table's Monte Carlo error.
        ch = build_slush_chain(600, 10, 8)
        assert expected_absorption_time(ch, 300) == pytest.approx(12.77, abs=0.05)


class TestHitting:
    def test_too_few_steps_is_zero(self):
        ch = build_slush_chain(30, 4, 3)
        assert hitting_prob_within(ch, 20, 10, 9) == 0.0

    def test_monotone_in_t(self):
        ch = build_snowflake_chain(30, 3, 4, 3)
        last = 0.0
        for t in (5, 10, 20, 40, 80):
            cur = hitting_prob_within(ch, 20, 12, t)
            assert cur >= last - 1e-15
            last = cur

    def test_matches_matrix_power_oracle(self):
        ch = build_snowflake_chain(30, 3, 4, 3)
        for start, target, t in [(20, 12, 15), (25, 10, 40), (16, 15, 3), (29, 20, 60)]:
            got = hitting_prob_within(ch, start, target, t)
            want = oracle_hitting_within(ch, start, target, t)
            assert got == pytest.approx(want, abs=1e-10), (start, target, t)

    def test_huge_horizon_uses_ever_hit_limit(self):
        ch = build_snowflake_chain(40, 4, 5, 4)
        capped = hitting_prob_within(ch, 30, 21, 10**9)
        ever = ever_hit_probability(ch, 30, 21)
        assert capped == pytest.approx(ever, rel=1e-12)
        # And the limit dominates any finite horizon.
        assert ever >= hitting_prob_within(ch, 30, 21, 2000) - 1e-12

    def test_ever_hit_against_absorption_identity(self):
        # With target = 0 the ever-hit probability IS absorption at 0.
        # k=1, a=1 keeps every interior transition positive, which the
        # product form needs.
        ch = build_snowflake_chain(25, 2, 1, 1)
        for start in (5, 12, 20):
            assert ever_hit_probability(ch, start, 0) == pytest.approx(
                absorption_probability(ch, start), rel=1e-10
            )

    def test_ever_hit_with_zero_transitions_matches_dense_oracle(self):
        # k=3, a=3 at b=0: up(1), up(2), down(28) and down(29) are 0, so the
        # product form is degenerate and the banded solve takes over.
        ch = build_snowflake_chain(30, 0, 3, 3)
        assert ch.down[28] == 0.0 and ch.down[29] == 0.0
        P = dense_matrix(ch)
        transient = list(range(11, 30))
        Q = P[np.ix_(transient, transient)]
        h = np.linalg.solve(np.eye(len(transient)) - Q, P[transient, 10])
        for start in (11, 20, 27, 28, 29):
            assert ever_hit_probability(ch, start, 10) == pytest.approx(
                h[start - 11], abs=1e-12
            ), start
        assert ever_hit_probability(ch, 28, 10) == 0.0

    def test_blocked_down_step_beyond_exact_budget_is_zero(self):
        # Past the exact-iteration budget the ever-hit limit answers; from
        # 1999 a state that can never step down blocks every path to 1001.
        ch = build_snowflake_chain(2000, 0, 3, 3)
        assert hitting_prob_within(ch, 1999, 1001, 400_000) == 0.0

    @pytest.mark.parametrize("t", [10_000, 200])
    def test_profile_equals_plain_step_loop(self, t):
        # At t = 10 000 the profile reaches its fixed point first and the
        # iteration stops early; at t = 200 it runs every step.
        ch = build_snowflake_chain(90, 10, 3, 3)
        c, target = ch.c, 53
        stay = 1.0 - ch.up - ch.down
        f = np.zeros(c + 1)
        f[: target + 1] = 1.0
        for _ in range(t):
            nxt = f.copy()
            for i in range(target + 1, c):
                nxt[i] = (ch.down[i] * f[i - 1] + stay[i] * f[i]) + ch.up[i] * f[i + 1]
            f = nxt
        assert np.array_equal(hitting_profile(ch, target, t), f)

    def test_argument_validation(self):
        ch = build_slush_chain(20, 3, 2)
        with pytest.raises(ValueError):
            hitting_prob_within(ch, 5, 10, 4)  # target above start
        with pytest.raises(ValueError):
            hitting_prob_within(ch, 10, 5, 0)  # no steps
