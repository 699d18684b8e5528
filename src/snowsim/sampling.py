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
    "hypergeom_pmf",
    "sample_without_replacement",
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


def hyper_tail(q: TailQuery) -> float:
    """P(at least ``a`` of a ``k``-sample hold the color held by ``x`` of ``n``).

    Values down to 1e-30 retain at least six significant digits; see the
    module docstring for how.
    """
    return _tail_raw(q.population_n, q.successes_x, q.sample_k, q.threshold_a)


def hypergeom_pmf(n: int, x: int, k: int, j: int) -> float:
    """P(exactly ``j`` of the ``k``-sample hold the color), the exact ratio
    C(x, j) C(n-x, k-j) / C(n, k) rounded once; building block."""
    if not 0 <= x <= n or not 0 <= k <= n:
        raise ValueError(f"invalid hypergeometric parameters n={n}, x={x}, k={k}")
    if not 0 <= j <= k:
        return 0.0
    return math.comb(x, j) * math.comb(n - x, k - j) / math.comb(n, k)


def sample_without_replacement(pop_size: int, k: int, rng: Rng) -> set[int]:
    """A uniform ``k``-subset of ``range(pop_size)``, deterministic given rng."""
    if k > pop_size:
        raise ValueError(f"cannot sample {k} from population of {pop_size}")
    if k == 0:
        return set()
    idx = rng.generator.choice(pop_size, size=k, replace=False)
    return set(int(i) for i in idx)


def _kl_bernoulli(a: float, b: float) -> float:
    """D(a || b) for Bernoulli parameters, the exponent of the Chernoff bound."""
    return a * math.log(a / b) + (1.0 - a) * math.log((1.0 - a) / (1.0 - b))


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
