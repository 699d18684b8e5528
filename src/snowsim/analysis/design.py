"""Safety-parameter design: phase shift, point of no return, run lengths.

The safety argument for the counting protocols decomposes into two
conditions over the Snowflake chain.  C1: past some state ``s_{c/2+delta}``
the probability of ever falling back to the phase-shift point ``s_ps``
within the time horizon ``phi`` is at most ``eps`` -- a point of no return
exists.  C2: while the network has NOT yet passed that point, no individual
node should have seen ``beta`` consecutive winning rounds for the wrong
color; the longest success run in a node's ``phi/c`` queries is controlled
by the exact run-length distribution.  If both hold, a decision is wrong
only if one of two ``eps``-rare events happened, so parameters (k, a, beta)
satisfying C1 and C2 make conflicting decisions at most ~2*eps likely.

``feasibility_search`` walks the sample size upward exactly as a system
designer would: fix the vote fraction at its ceiling ``alpha = (n-b)/n``,
try k = 1, 2, ... and return the first (k, a, beta, delta) satisfying both
conditions.  Infeasibility (the Byzantine share too large, the horizon too
short) is an expected result of that search, not an exception, and is
returned as an ``Infeasible`` value carrying the reason.

The drift helpers quantify why the confidence variant outruns a balancing
adversary: at a split ``delta`` past the midpoint, the leading color's
expected confidence grows strictly faster, at a rate bounded below via the
Hoeffding/KL substitution, and the time for the accumulated gap to defeat
the adversary's correction budget scales like the cube root of ``ln eps``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from snowsim.analysis.chains import (
    BirthDeathChain,
    _EXACT_CELL_LIMIT,
    build_snowflake_chain,
    ever_hit_profile,
    hitting_profile,
)
from snowsim.sampling import _kl_bernoulli, _log_choose, _tail_raw

__all__ = [
    "Infeasible",
    "SafetyDesign",
    "DriftExpectation",
    "phase_shift_index",
    "find_point_of_no_return",
    "run_length_tail",
    "run_length_beta",
    "snowball_drift",
    "snowball_kappa_rate",
    "snowball_divergence_time",
    "early_commit_threshold",
    "churn_adjusted_delta",
    "feasibility_search",
]


@dataclass(frozen=True)
class Infeasible:
    """A search that found no satisfying parameters; carries the reason."""

    reason: str

    def __bool__(self) -> bool:
        return False


@dataclass(frozen=True)
class SafetyDesign:
    """A parameter set satisfying C1 and C2, plus the achieved bounds."""

    n: int
    b: int
    eps: float
    phi: int
    k: int
    a: int
    beta: int
    delta: int
    s_ps: int
    c1_prob: float  # achieved P(return to s_ps from s_{c/2+delta} within phi)
    c2_prob: float  # achieved P(a >= beta run at the worst pre-threshold state)

    def __post_init__(self) -> None:
        c = self.n - self.b
        if c // 2 + self.delta <= self.s_ps:
            raise ValueError("point of no return must lie past the phase shift")
        if self.c1_prob > self.eps or self.c2_prob > self.eps:
            raise ValueError("achieved failure bounds exceed the eps target")


def phase_shift_index(chain: BirthDeathChain) -> int | Infeasible:
    """Smallest i > c/2 with up(j) >= down(j) for every j in [i, c-1].

    Below this state the worst-case adversary can push the majority back;
    above it the drift toward unanimity dominates every round.  Compared as
    up >= down (never as a ratio) so vanishing transitions are handled.  For
    full sampling (k = n) with a bare-majority threshold this lands at
    c/2 + b/2, and for b = 0 the whole upper half qualifies.
    """
    c = chain.c
    up, down = chain.up, chain.down

    def drift_ok(i: int) -> bool:
        # Analytically equal transitions (exact symmetry at b=0) may differ
        # by an ulp of lgamma noise; compare with a relative slack far below
        # any meaningful safety margin.
        return up[i] >= down[i] - 1e-12 * (up[i] + down[i])

    j = c - 1
    if not drift_ok(j):
        return Infeasible("up(c-1) < down(c-1): no state is safe from push-back")
    while j - 1 > c // 2 and drift_ok(j - 1):
        j -= 1
    return max(j, c // 2 + 1)


def _no_return_state(
    chain: BirthDeathChain, eps: float, phi: int
) -> tuple[int, int, float] | Infeasible:
    """(start, s_ps, return probability) for the first state above the phase
    shift ``s_ps`` whose probability of returning to it within ``phi`` is <= eps.

    The probabilities come from one exact profile while iterating ``phi``
    steps over the states above ``s_ps`` is affordable (hitting_prob_within's
    budget rule), else from the infinite-horizon limit, which is
    conservative. Unanimity never returns, so some state always qualifies.
    """
    s_ps = phase_shift_index(chain)
    if isinstance(s_ps, Infeasible):
        return s_ps
    if phi * (chain.c - s_ps) <= _EXACT_CELL_LIMIT:
        probs = hitting_profile(chain, s_ps, phi)
    else:
        probs = ever_hit_profile(chain, s_ps)
    start = s_ps + 1 + int(np.argmax(probs[s_ps + 1 :] <= eps))
    return start, s_ps, float(probs[start])


def _require_three_correct(c: int) -> None:
    """A design needs a state strictly between the phase shift, which is
    at least c//2 + 1, and unanimity c; that takes c >= 3."""
    if c < 3:
        raise ValueError(f"a design needs c = n - b >= 3 correct nodes; got c={c}")


def find_point_of_no_return(chain: BirthDeathChain, eps: float, phi: int) -> int | Infeasible:
    """Smallest delta with s_{c/2+delta} past s_ps and return probability <= eps.

    The return probability is capped at the horizon ``phi`` (scheduler
    steps); when exact iteration is unaffordable the infinite-horizon limit
    is used, which is conservative.  Infeasibility (no state is safe from
    push-back) is a result, not an exception.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps={eps} outside (0, 1]")
    if phi < 1:
        raise ValueError("phi must be >= 1")
    _require_three_correct(chain.c)
    found = _no_return_state(chain, eps, phi)
    if isinstance(found, Infeasible):
        return found
    return found[0] - chain.c // 2


def run_length_tail(p: float, trials: int, beta: int) -> float:
    """P(longest success run in ``trials`` Bernoulli(p) trials >= ``beta``).

    The standard recursion g(m) = g(m-1) + (1-p) p^beta (1 - g(m-1-beta))
    with g(beta) = p^beta: a new qualifying run can only complete at trial m
    if trial m-beta failed and the following beta trials all succeeded.
    Every term is added, never subtracted, so deep tails keep full relative
    precision.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if beta > trials:
        return 0.0
    if p == 0.0:
        return 0.0
    p_run = p**beta
    g = np.zeros(trials + 1)
    g[beta] = p_run
    fail_start = (1.0 - p) * p_run
    for m in range(beta + 1, trials + 1):
        g[m] = g[m - 1] + fail_start * (1.0 - g[m - 1 - beta])
    return float(g[trials])


def run_length_beta(p: float, trials: int, eps: float) -> int | Infeasible:
    """Minimal beta with P(longest run >= beta) <= eps, or Infeasible.

    Only beta <= trials qualifies: a larger threshold can never be observed
    within the horizon, so returning one would trade a safety failure for a
    silent liveness failure.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    if run_length_tail(p, trials, trials) > eps:
        return Infeasible(f"even beta={trials} exceeds eps (p={p}, trials={trials})")
    lo, hi = 1, trials  # invariant: hi always satisfies the bound
    while lo < hi:
        mid = (lo + hi) // 2
        if run_length_tail(p, trials, mid) <= eps:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class DriftExpectation:
    """Expected confidences after t rounds for a red-leaning node u and a
    blue-leaning node v, at a frozen split of c/2 + delta red."""

    u_red: float
    u_blue: float
    v_red: float
    v_blue: float


def snowball_drift(c: int, b: int, k: int, a: int, delta: int, t: int) -> DriftExpectation:
    """Per-color expected confidence growth over ``t`` rounds at a fixed split.

    The four increments follow the worst-case envelope: each color's success
    probability for a given node is evaluated with the Byzantine mass added
    to whichever support the accumulated quantity tracks, and the node-side
    prefactors are the probabilities 1/2 +- delta/c of the scheduler picking
    a node from that side.  Growth is linear in t by construction.
    """
    if c % 2 != 0:
        raise ValueError("the split model needs an even number of correct nodes")
    if not 0 <= delta <= c // 2:
        raise ValueError(f"delta={delta} outside [0, c/2]")
    if t < 0:
        raise ValueError("t must be non-negative")
    n = c + b
    half = c // 2
    lead = 0.5 + delta / c
    trail = 0.5 - delta / c
    u_red = lead * _tail_raw(n, half + delta + b, k, a)
    u_blue = lead * _tail_raw(n, half - delta + b, k, a)
    v_red = trail * _tail_raw(n, half + delta, k, a)
    v_blue = trail * _tail_raw(n, half - delta + b, k, a)
    return DriftExpectation(t * u_red, t * u_blue, t * v_red, t * v_blue)


def snowball_kappa_rate(c: int, b: int, k: int, a: int, delta: int) -> float:
    """Lower bound on the per-round shrink rate of the adversary's margin.

    At a split of delta, a trailing-side node succeeds for the leading color
    with probability ~ exp(-k D(alpha, q+)) and for the trailing color with
    ~ exp(-k D(alpha, q-)), where q+- are the support ratios c/2 +- delta + b
    over the population.  Their difference, weighted by the probability of
    picking a trailing node, is the rate at which the confidence gap the
    adversary must keep correcting grows; it is 0 at delta = 0 and increases
    with the split.
    """
    if c % 2 != 0:
        raise ValueError("the split model needs an even number of correct nodes")
    if not 0 <= delta <= c // 2:
        raise ValueError(f"delta={delta} outside [0, c/2]")
    n = c + b
    alpha = a / k
    q_plus = (c // 2 + delta + b) / n
    q_minus = (c // 2 - delta + b) / n
    trail = 0.5 - delta / c
    return trail * (
        math.exp(-k * _kl_bernoulli(alpha, q_plus)) - math.exp(-k * _kl_bernoulli(alpha, q_minus))
    )


def snowball_divergence_time(c: int, b: int, delta: int, eps: float) -> float | Infeasible:
    """Rounds until the confidence gap at split delta exceeds the adversary's
    correction ability except with probability eps.

    Inverts the concentration bound exp(-2 t^3 (1/2 + delta/c)^2
    (2 delta/(c+b))^2) = eps.  A perfectly balanced split (delta = 0) never
    diverges in expectation, reported as Infeasible.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if delta == 0:
        return Infeasible("no drift at a perfectly balanced split")
    lead = 0.5 + delta / c
    gap = 2.0 * delta / (c + b)
    return (math.log(eps) / (-2.0 * lead**2 * gap**2)) ** (1.0 / 3.0)


def early_commit_threshold(n: int, c: int, k: int, start_known: int = 1) -> float:
    """Expected per-node rounds for one transaction to reach all c nodes.

    Knowledge spreads as a one-way birth process on x = nodes holding the
    transaction: progress happens when the scheduler picks one of the c - x
    others AND its k-sample hits at least one holder, i.e. with probability
    p(s_x) = ((c-x)/c) (1 - C(n-x,k)/C(n,k)).  The expected scheduler steps
    are the summed reciprocals; dividing by c converts to per-node rounds,
    the unit in which decision thresholds are expressed.  The value lower
    bounds any safe early-commit threshold: deciding faster than knowledge
    can spread is unsafe.
    """
    if not 1 <= k <= n:
        raise ValueError(f"sample size k={k} outside [1, {n}]")
    if not 2 <= c <= n:
        raise ValueError(f"correct count c={c} outside [2, {n}]")
    if not 1 <= start_known <= c:
        raise ValueError(f"start_known={start_known} outside [1, {c}]")
    steps = 0.0
    for x in range(start_known, c):
        miss = math.exp(_log_choose(n - x, k) - _log_choose(n, k))  # C(n-x,k)/C(n,k)
        steps += 1.0 / (((c - x) / c) * (1.0 - miss))
    return steps / c


def churn_adjusted_delta(
    design: SafetyDesign, gamma_in: int, gamma_out: int
) -> int | Infeasible:
    """The conservative no-return offset for the next epoch under churn.

    Worst case: all ``gamma_in`` joiners side with the trailing color and all
    ``gamma_out`` leavers came from the leading one, so the chain is rebuilt
    at the new correct count and the C1 start is shifted left by gamma_in.
    With zero churn this reproduces the design's delta.
    """
    if gamma_in < 0 or gamma_out < 0:
        raise ValueError("churn counts must be non-negative")
    c_new = design.n - design.b + gamma_in - gamma_out
    if c_new < 3:
        return Infeasible("churn leaves fewer than 3 correct nodes")
    chain = build_snowflake_chain(c_new, design.b, design.k, design.a)
    found = _no_return_state(chain, design.eps, design.phi)
    if isinstance(found, Infeasible):
        return found
    return found[0] - c_new // 2 + gamma_in


def feasibility_search(
    n: int,
    b: int,
    eps: float,
    phi: int,
    *,
    k: int | None = None,
    beta: int | None = None,
    max_k: int = 128,
) -> SafetyDesign | Infeasible:
    """Find (k, a, beta, delta) satisfying C1 and C2, scanning k upward.

    The vote fraction is pinned at its ceiling alpha = (n - b)/n, so
    a = ceil(alpha k).  Pass ``k`` to validate/complete a specific sample
    size, ``beta`` to search for the smallest k whose minimal run threshold
    fits under the given one.  C2's success probability is evaluated at the
    worst state below the point of no return, s_{c/2+delta-1}, with the
    Byzantine votes aiding the premature decision, over trials = floor(phi/c)
    queries per node.
    """
    if b < 0 or n <= b:
        raise ValueError(f"need 0 <= b < n; got n={n}, b={b}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps={eps} outside (0, 1)")
    if phi < 1:
        raise ValueError("phi must be >= 1")
    if k is not None and not 1 <= k <= n:
        raise ValueError(f"sample size k={k} outside [1, {n}]")
    if max_k < 1:
        raise ValueError(f"max_k={max_k} must be >= 1")
    c = n - b
    _require_three_correct(c)
    trials = phi // c
    if trials < 1:
        return Infeasible(f"horizon phi={phi} is shorter than one per-node round at c={c}")
    alpha = (n - b) / n
    candidates = [k] if k is not None else range(1, max_k + 1)
    last_reason = "no feasible sample size up to the search cap"
    for k_try in candidates:
        if k_try > n:
            break
        a = math.ceil(alpha * k_try)
        if not k_try // 2 < a <= k_try:
            last_reason = f"alpha={alpha:.4f} yields no majority threshold at k={k_try}"
            continue
        found = _no_return_state(build_snowflake_chain(c, b, k_try, a), eps, phi)
        if isinstance(found, Infeasible):
            last_reason = found.reason
            continue
        start, s_ps, c1 = found
        p_commit = _tail_raw(n, min(n, start - 1 + b), k_try, a)
        beta_found = run_length_beta(p_commit, trials, eps) if beta is None else beta
        if isinstance(beta_found, Infeasible):
            c2 = math.inf
        else:
            c2 = run_length_tail(p_commit, trials, beta_found)
        if c2 > eps:
            last_reason = f"C2 unsatisfiable at k={k_try}, delta={start - c // 2}"
            continue
        return SafetyDesign(
            n=n,
            b=b,
            eps=eps,
            phi=phi,
            k=k_try,
            a=a,
            beta=beta_found,
            delta=start - c // 2,
            s_ps=s_ps,
            c1_prob=c1,
            c2_prob=c2,
        )
    return Infeasible(last_reason)
