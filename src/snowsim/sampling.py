"""Probability primitives shared by the simulator and the analysis layer.

Everything in this module answers one of two questions about subsampled
voting.  First: if ``x`` of ``n`` nodes currently hold a color and we query a
uniform sample of ``k`` nodes without replacement, what is the chance that at
least ``a`` of them answer with that color?  That is a hypergeometric tail,

    P(H(n, x, k) >= a) = sum_{j=a}^{k} C(x, j) C(n-x, k-j) / C(n, k),

and it is the transition kernel for every birth-death chain in
:mod:`snowsim.analysis`.  Second: how fast does that tail decay as the sample
size grows?  The Hoeffding bound in Kullback-Leibler form answers that and is
what the drift-rate analysis substitutes for the exact tail.

The tail shows up deep in safety arguments at magnitudes like 1e-19 (and the
design searches push it toward 1e-30), so plain summation of ``scipy.stats``
pmf values is not acceptable: the individual terms underflow long before the
sum does.  We therefore evaluate every term as a log-binomial via
``math.lgamma``, factor out the largest exponent (log-sum-exp), and run the
remaining, well-scaled summation through Kahan compensation.  The test suite
pins this implementation against exact ``fractions.Fraction`` arithmetic.

Scalar callers use ``_tail_raw``.  Callers that need the tail at every state
of a chain or outcome table use ``_tail_array``, which runs the same
arithmetic with one array lane per ``x`` and returns the same values bit for
bit (its exponentials come from ``math.exp`` too, as ``np.exp`` can differ in
the last bit).  Its memory is linear in the number of states; it never holds
a states x support table.

Randomness is provided by Philox, a counter-based bit generator: two ``Rng``
handles built from the same seed but different stream ids yield independent
streams, and the same (seed, stream_id) pair reproduces the same draws
bit for bit on any platform.  Monte Carlo trials each get their own stream,
which makes results independent of trial execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TailQuery",
    "Rng",
    "hyper_tail",
    "hoeffding_tail_bound",
    "chvatal_tail_bound",
]


@dataclass(frozen=True)
class TailQuery:
    """Arguments of one hypergeometric tail evaluation.

    ``threshold_a`` is the integer vote threshold.  Configs usually express it
    as a fraction ``alpha``; the canonical stored form is ``a = ceil(alpha*k)``
    because vote counts are integers.  The majority requirement
    ``floor(k/2) < a <= k`` is enforced here so that two colors can never both
    reach quorum in one sample.
    """

    population_n: int
    successes_x: int
    sample_k: int
    threshold_a: int

    def __post_init__(self) -> None:
        n, x, k, a = (
            self.population_n,
            self.successes_x,
            self.sample_k,
            self.threshold_a,
        )
        if not 0 <= x <= n:
            raise ValueError(f"successes_x={x} outside [0, {n}]")
        if not 1 <= k <= n:
            raise ValueError(f"sample_k={k} outside [1, {n}]")
        if not k // 2 < a <= k:
            raise ValueError(f"threshold_a={a} violates floor(k/2) < a <= k for k={k}")


@dataclass
class Rng:
    """One reproducible random stream, identified by (seed, stream_id).

    Streams with the same seed and distinct stream ids are statistically
    independent; Philox is counter-based, so independence holds by
    construction rather than by jump-ahead distance.  Instances are cheap and
    single-consumer: never share one across Monte Carlo trials.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy generator (created lazily, then reused)."""
        if self._gen is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
            self._gen = np.random.Generator(np.random.Philox(seq))
        return self._gen


def _log_choose(n: int, k: int) -> float:
    """log C(n, k), with -inf outside the support."""
    if k < 0 or k > n:
        return -math.inf
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _tail_raw(n: int, x: int, k: int, a: int) -> float:
    """P(H(n, x, k) >= a) without argument validation.

    Log-sum-exp over the support [max(a, k-(n-x)), min(k, x)] with Kahan
    compensation: after factoring out the largest log-term, every summand is
    in (0, 1] and the compensated loop keeps the relative error near machine
    epsilon even for thousands of terms.
    """
    if a <= 0:
        return 1.0
    lo = max(a, k - (n - x))
    hi = min(k, x)
    if lo > hi:
        return 0.0
    log_denom = _log_choose(n, k)
    logs = [_log_choose(x, j) + _log_choose(n - x, k - j) - log_denom for j in range(lo, hi + 1)]
    m = max(logs)
    if m == -math.inf:
        return 0.0
    total = 0.0
    carry = 0.0
    for lv in logs:
        term = math.exp(lv - m) - carry
        new_total = total + term
        carry = (new_total - total) - term
        total = new_total
    return min(1.0, math.exp(m) * total)


def _exp(values: np.ndarray) -> np.ndarray:
    """``math.exp`` of every entry; ``np.exp`` can differ from it in the last bit."""
    return np.fromiter(map(math.exp, values.tolist()), float, values.size)


def _tail_array(n: int, xs: np.ndarray, k: int, a: int) -> np.ndarray:
    """``_tail_raw(n, x, k, a)`` for every ``x`` in ``xs`` (each in 0..n), bit for bit.

    One lane per ``x`` runs ``_tail_raw``'s arithmetic in its order: the
    log-binomials read one ``math.lgamma`` table, each lane factors out the
    largest log-term over its own support, and the Kahan loop walks ``j``
    upward, a lane outside its support carrying its sum and compensation
    through unchanged. Two passes over ``j`` (the maximum, then the sum)
    keep every temporary the length of ``xs``.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if a <= 0:
        return np.ones(xs.shape)
    lo, hi = np.maximum(a, k - (n - xs)), np.minimum(k, xs)
    js = range(int(lo.min(initial=k + 1)), int(hi.max(initial=-1)) + 1)
    lg = np.array(list(map(math.lgamma, range(1, n + 2))))  # lg[m] = log m!
    lg_x, lg_rest = lg[xs], lg[n - xs]
    log_denom = _log_choose(n, k)

    def log_terms(j: int) -> np.ndarray:
        # _log_choose(x, j) + _log_choose(n - x, k - j) - log_denom; lanes
        # outside the support read clipped indices and are masked by callers.
        x_j, rest_j = np.clip(xs - j, 0, n), np.clip(n - xs - (k - j), 0, n)
        return ((lg_x - lg[j]) - lg[x_j] + ((lg_rest - lg[k - j]) - lg[rest_j])) - log_denom

    m = np.full(xs.shape, -math.inf)
    for j in js:
        valid = (lo <= j) & (j <= hi)
        m = np.where(valid, np.maximum(m, log_terms(j)), m)
    total, carry = np.zeros(xs.shape), np.zeros(xs.shape)
    for j in js:
        valid = (lo <= j) & (j <= hi)
        term = _exp(np.where(valid, log_terms(j) - m, 0.0)) - carry
        new_total = total + term
        carry = np.where(valid, (new_total - total) - term, carry)
        total = np.where(valid, new_total, total)
    return np.where(m == -math.inf, 0.0, np.minimum(1.0, _exp(m) * total))


def hyper_tail(q: TailQuery) -> float:
    """P(at least ``a`` of a ``k``-sample hold the color held by ``x`` of ``n``).

    Values down to 1e-30 retain at least six significant digits; see the
    module docstring for how.
    """
    return _tail_raw(q.population_n, q.successes_x, q.sample_k, q.threshold_a)


def _kl_bernoulli(alpha: float, q: float) -> float:
    """D(alpha || q) for Bernoulli parameters, the exponent of the Chernoff
    bound, with the alpha -> 0 and alpha -> 1 limits."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q={q} outside (0, 1)")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha={alpha} outside [0, 1]")
    terms = 0.0
    if alpha > 0.0:
        terms += alpha * math.log(alpha / q)
    if alpha < 1.0:
        terms += (1.0 - alpha) * math.log((1.0 - alpha) / (1.0 - q))
    return terms


def hoeffding_tail_bound(p: float, psi: float, k: int) -> float:
    """Upper bound on P(sample mean <= p - psi) for a mean-``p`` sample of size ``k``.

    Returns exp(-k * D(p - psi, p)) with D the Bernoulli Kullback-Leibler
    divergence.  Valid for sampling without replacement as well (the
    hypergeometric is more concentrated than the binomial).  ``psi -> 0``
    degenerates to 1 since D(p, p) = 0.
    """
    if not 0.0 < p - psi < p < 1.0:
        raise ValueError(f"require 0 < p - psi < p < 1; got p={p}, psi={psi}")
    if k < 1:
        raise ValueError(f"sample size k={k} must be positive")
    return math.exp(-k * _kl_bernoulli(p - psi, p))


def chvatal_tail_bound(psi: float, k: int) -> float:
    """The weaker quadratic form exp(-2 psi^2 k) of the same tail bound."""
    if k < 1:
        raise ValueError(f"sample size k={k} must be positive")
    return math.exp(-2.0 * psi * psi * k)
