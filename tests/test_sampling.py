"""Tests for the probability kernel.

The load-bearing oracle here is exact: `_tail_exact` evaluates the
hypergeometric tail in `fractions.Fraction` arithmetic, so it is correct to
the last bit for any parameters where it finishes.  The float implementation
is then required to agree to high relative precision, including at magnitudes
around 1e-30 where naive summation would have died long ago.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowsim.sampling import (
    Rng,
    TailQuery,
    _tail_array,
    _tail_raw,
    hyper_tail,
)


def _tail_exact(n: int, x: int, k: int, a: int) -> Fraction:
    """Exact rational P(H(n,x,k) >= a); the oracle for hyper_tail."""
    total = Fraction(0)
    for j in range(max(a, k - (n - x)), min(k, x) + 1):
        total += Fraction(math.comb(x, j) * math.comb(n - x, k - j), math.comb(n, k))
    return total


def _tail(n: int, x: int, k: int, a: int) -> float:
    return hyper_tail(TailQuery(n, x, k, a))


class TestHyperTail:
    def test_enumeration_anchor(self):
        # All C(4,2)=6 unordered pairs from {r,r,b,b}: exactly one is {r,r}.
        assert _tail(4, 2, 2, 2) == pytest.approx(1 / 6, rel=1e-12)

    def test_full_support_is_certain(self):
        for n, k, a in [(10, 3, 2), (500, 50, 40), (7, 7, 7)]:
            assert _tail(n, n, k, a) == 1.0

    def test_published_large_tail(self):
        # n=10000, x=6250, k=200, a=180: a deep tail near 5.6e-19.
        got = _tail(10000, 6250, 200, 180)
        assert got == pytest.approx(5.616e-19, rel=1e-2)

    def test_matches_exact_rationals_moderate(self):
        for n, x, k, a in [
            (50, 20, 10, 6),
            (100, 55, 20, 11),
            (200, 90, 30, 16),
            (1000, 400, 50, 30),
        ]:
            exact = float(_tail_exact(n, x, k, a))
            assert _tail(n, x, k, a) == pytest.approx(exact, rel=1e-10)

    def test_six_sig_digits_down_to_1e30(self):
        # Parameters chosen so the exact tail sits between 1e-31 and 1e-18.
        cases = [(2000, 200, 60, 45), (1500, 150, 50, 40), (800, 100, 40, 35)]
        seen_tiny = False
        for n, x, k, a in cases:
            exact = _tail_exact(n, x, k, a)
            assert exact > 0
            got = _tail(n, x, k, a)
            rel = abs(got - float(exact)) / float(exact)
            assert rel < 5e-7, (n, x, k, a, got, float(exact))
            if exact < Fraction(1, 10**18):
                seen_tiny = True
        assert seen_tiny, "test grid never exercised the deep-tail regime"

    def test_invariant_violations_raise(self):
        with pytest.raises(ValueError):
            TailQuery(10, 11, 5, 3)  # x > n
        with pytest.raises(ValueError):
            TailQuery(10, 5, 0, 1)  # k < 1
        with pytest.raises(ValueError):
            TailQuery(10, 5, 6, 3)  # a = floor(k/2), not a majority
        with pytest.raises(ValueError):
            TailQuery(10, 5, 6, 7)  # a > k

    @given(
        n=st.integers(min_value=2, max_value=120),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_x_and_a(self, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n), label="k")
        a = data.draw(st.integers(min_value=k // 2 + 1, max_value=k), label="a")
        x = data.draw(st.integers(min_value=0, max_value=n - 1), label="x")
        # Monotonicity up to lgamma roundoff (~1e-14 near 1).
        assert _tail(n, x, k, a) <= _tail(n, x + 1, k, a) + 1e-12
        if a < k:
            assert _tail(n, x, k, a + 1) <= _tail(n, x, k, a) + 1e-12

    def test_tail_below_hoeffding_bound_on_grid(self):
        # P(H >= a) = P(k - H <= k - a); apply the Chernoff-Hoeffding bound
        # exp(-k D(p - psi || p)) to the complement color, whose ratio is
        # p = 1 - x/n, at deviation psi = (1-x/n) - (k-a)/k.  D is the
        # Bernoulli Kullback-Leibler divergence; 0 < p - psi < p < 1 here.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(10, 501))
            k = int(rng.integers(3, min(n, 50) + 1))
            if k // 2 + 1 >= k:
                continue
            a = int(rng.integers(k // 2 + 1, k))  # keep a < k so p-psi > 0
            x = int(rng.integers(1, n))
            p = 1.0 - x / n
            psi = p - (k - a) / k
            if not 0.0 < p - psi < p < 1.0:
                continue
            tail = _tail(n, x, k, a)
            q = p - psi
            kl = q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))
            assert tail <= math.exp(-k * kl) * (1 + 1e-9)
            checked += 1
        assert checked > 100


class TestTailArray:
    @pytest.mark.parametrize(
        "n, k, a",
        [(9999, 200, 180), (2399, 10, 8), (99, 3, 3), (7, 7, 4), (50, 50, 26), (40, 1, 1)],
    )
    def test_equals_scalar_tail_at_every_x(self, n, k, a):
        # Clipped supports (x near 0 or n), empty ones (x < a) and the full
        # sample (k = n) included; equal to the last bit, not approximately.
        xs = np.arange(n + 1)
        want = np.array([_tail_raw(n, int(x), k, a) for x in xs])
        assert np.array_equal(_tail_array(n, xs, k, a), want)


class TestRng:
    def test_same_seed_and_stream_reproduce_the_draws(self):
        a = Rng(9, 5).generator.integers(1 << 62, size=8)
        b = Rng(9, 5).generator.integers(1 << 62, size=8)
        assert a.tolist() == b.tolist()

    def test_distinct_stream_ids_give_distinct_draws(self):
        draws = {tuple(Rng(9, s).generator.integers(1 << 62, size=4).tolist()) for s in range(4)}
        assert len(draws) == 4
