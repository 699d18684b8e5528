"""Birth-death chains over network color splits, and their absorption math.

The scheduler model admits a one-dimensional projection: the number ``i`` of
correct nodes preferring red fully determines the distribution of the next
state, because each round picks one correct node uniformly and its sample
outcome depends only on the current split.  That makes the protocol a
birth-death chain on states ``s_0 .. s_c`` with absorbing endpoints: one step
moves at most one node.

For Slush on ``c`` correct nodes the transition probabilities are

    up(i)   = ((c - i)/c) * P(H(pop, i,     k) >= a)   (a blue node flips red)
    down(i) = (i/c)       * P(H(pop, c - i, k) >= a)   (a red node flips blue)

and the Snowflake variant adds ``b`` Byzantine nodes that always vote for the
direction opposing progress, so the down-move support gains ``+b`` while the
population grows to ``n = c + b``.  The ``population`` override exists because
two sampling conventions are in use: the analysis equations sample from the
whole population (``pop = n``), while a simulator node samples the *other*
nodes (``pop = n - 1``); restricted views (a subnetwork smaller than the whole
system) are the same override.  Supports are unchanged in either case.
A chain's up and down arrays come from two array tail evaluations, one per
direction, equal bit for bit to evaluating each state alone.

Absorption and ever-hit probabilities share one gambler's-ruin profile: the
classic product-sum over down/up ratios, evaluated in log space because the
ratios span hundreds of orders of magnitude; chains with a vanishing interior
transition fall back to a tridiagonal linear solve.  Expected absorption times
always use that tridiagonal solve (scipy's banded solver), keeping
``c = 10^4`` tractable; no dense matrix is ever formed outside the test
oracles.  scipy is loaded on the first solve, not on import, so a run that
never solves a chain does not pay scipy's start-up time or memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from snowsim.sampling import _tail_array

__all__ = [
    "BirthDeathChain",
    "build_slush_chain",
    "build_snowflake_chain",
    "absorption_probability",
    "expected_absorption_time",
    "hitting_prob_within",
    "hitting_profile",
    "ever_hit_probability",
    "ever_hit_profile",
]

# Exact t-step iteration is used while t * (active states) stays below this;
# beyond it, ever-hit is the conservative limit. The limit also decides which
# of the two a design reads, so it is part of every design's output.
_EXACT_CELL_LIMIT = 50_000_000

# hitting_profile checks once per this many steps whether the last step
# changed the profile.
_FIXED_POINT_CHECK_EVERY = 64


@dataclass(frozen=True, eq=False)
class BirthDeathChain:
    """States 0..c with per-state up/down probabilities; endpoints absorbing.

    ``stay`` is implicit: 1 - up - down.  Instances are immutable; the arrays
    are owned by the chain and must not be written to.
    """

    up: np.ndarray
    down: np.ndarray

    def __post_init__(self) -> None:
        up, down = np.asarray(self.up, float), np.asarray(self.down, float)
        if up.shape != down.shape or up.ndim != 1 or up.size < 2:
            raise ValueError("up/down must be equal-length 1-d arrays over states 0..c")
        for edge in (0, -1):
            if up[edge] != 0.0 or down[edge] != 0.0:
                raise ValueError("endpoints must be absorbing (up = down = 0)")
        if (up < 0).any() or (down < 0).any() or (up + down > 1 + 1e-12).any():
            raise ValueError("need 0 <= up, down and up + down <= 1 per state")
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)
        up.setflags(write=False)
        down.setflags(write=False)

    @property
    def c(self) -> int:
        """The state count basis: states run 0..c inclusive."""
        return self.up.size - 1


def build_slush_chain(c: int, k: int, a: int, population: int | None = None) -> BirthDeathChain:
    """The Slush chain over ``c`` correct nodes (no Byzantine mass)."""
    return build_snowflake_chain(c, 0, k, a, population=population)


def build_snowflake_chain(
    c: int, b: int, k: int, a: int, population: int | None = None
) -> BirthDeathChain:
    """The Snowflake chain: ``b`` Byzantine nodes always aid the opposing move.

    ``population`` defaults to ``c + b``; pass ``c + b - 1`` for the
    self-exclusion sampling convention or a smaller value for restricted
    views.  Supports (``i`` up, ``c - i + b`` down) are unchanged.
    """
    if c < 2:
        raise ValueError(f"need at least 2 correct nodes, got c={c}")
    if b < 0:
        raise ValueError(f"b={b} must be non-negative")
    n = c + b if population is None else population
    if not 1 <= k <= n:
        raise ValueError(f"sample size k={k} outside [1, {n}]")
    if not k // 2 < a <= k:
        raise ValueError(f"threshold a={a} violates floor(k/2) < a <= k")
    if c - 1 + b > n:
        raise ValueError(f"population {n} cannot hold the largest support {c - 1 + b}")
    i = np.arange(1, c)
    up = np.zeros(c + 1)
    down = np.zeros(c + 1)
    up[1:c] = ((c - i) / c) * _tail_array(n, i, k, a)
    down[1:c] = (i / c) * _tail_array(n, c - i + b, k, a)
    return BirthDeathChain(up=up, down=down)


def _banded_solve(chain: BirthDeathChain, lo: int, rhs: np.ndarray) -> np.ndarray:
    """Solve the chain's tridiagonal first-step system with scipy's banded LU.

    Row i reads down_i x(i-1) - (up_i + down_i) x(i) + up_i x(i+1) = rhs_i.
    Rows at or below ``lo`` and rows with up = down = 0 (the absorbing
    endpoints and any frozen interior state) become x(i) = rhs_i.
    """
    from scipy.linalg import solve_banded

    up, down = chain.up.copy(), chain.down.copy()
    pinned = up + down == 0
    pinned[: lo + 1] = True
    up[pinned] = down[pinned] = 0.0
    ab = np.zeros((3, chain.c + 1))
    ab[0, 1:] = up[:-1]  # superdiagonal: up_i multiplies x(i+1)
    ab[1] = np.where(pinned, 1.0, -(up + down))
    ab[2, :-1] = down[1:]  # subdiagonal: down_i multiplies x(i-1)
    return solve_banded((1, 1), ab, rhs)


def ever_hit_profile(chain: BirthDeathChain, target: int) -> np.ndarray:
    """P(hit ``target`` before absorbing at c) for every start; 1 up to ``target``.

    Gambler's ruin on the restricted chain [target, c]: h(i) = sum_{j>=i}
    rho_j / sum_j rho_j with rho_j = prod_{l=target+1..j} down_l/up_l, in log
    space because the ratios span hundreds of orders of magnitude.  A zero
    interior transition makes a ratio degenerate; such chains use the banded
    solve, which gives exactly 0 for every start above a state that cannot
    step down.
    """
    c = chain.c
    up, down = chain.up[target + 1 : c], chain.down[target + 1 : c]
    if (up == 0).any() or (down == 0).any():
        rhs = np.zeros(c + 1)
        rhs[: target + 1] = 1.0
        h = _banded_solve(chain, target, rhs)
        return np.where(h > 0.0, h, 0.0)  # back substitution leaves -0.0 above a blocked state
    logr = np.concatenate([[0.0], np.cumsum(np.log(down) - np.log(up))])
    suffix = np.logaddexp.accumulate(logr[::-1])[::-1]  # logsumexp(logr[j:])
    h = np.ones(c + 1)
    h[target:c] = np.exp(suffix - suffix[0])
    h[c] = 0.0
    return h


def absorption_probability(chain: BirthDeathChain, start: int) -> float:
    """P(the chain started at ``start`` is absorbed at state 0)."""
    c = chain.c
    if not 0 <= start <= c:
        raise ValueError(f"start={start} outside states 0..{c}")
    return float(ever_hit_profile(chain, 0)[start])


def expected_absorption_time(chain: BirthDeathChain, start: int) -> float:
    """Expected per-node iterations until absorption from ``start``.

    Solves u(i) = 1 + down_i u(i-1) + stay_i u(i) + up_i u(i+1) with
    u(0) = u(c) = 0 (a tridiagonal system) and divides the resulting
    scheduler-step count by c, since each scheduler round advances one of the
    c nodes.  Chains with unreachable absorption raise a domain error.
    """
    c = chain.c
    if not 0 <= start <= c:
        raise ValueError(f"start={start} outside states 0..{c}")
    if start in (0, c):
        return 0.0
    if ((chain.up[1:c] == 0) & (chain.down[1:c] == 0)).any():
        raise ValueError("chain has a frozen interior state; absorption time is infinite")
    rhs = np.zeros(c + 1)
    rhs[1:c] = -1.0
    value = float(_banded_solve(chain, 0, rhs)[start])
    if not np.isfinite(value) or value < 0:
        raise ValueError("absorption time solve failed; chain may be ill-conditioned")
    return value / c


def hitting_profile(chain: BirthDeathChain, target: int, t: int) -> np.ndarray:
    """P(hit ``target`` within ``t`` steps) for every start in [target, c].

    One pass of the iterated transition operator yields the whole profile, so
    parameter searches evaluate all candidate starts at the cost of one.
    Entries for states below ``target`` are not meaningful and returned as 1
    (a birth-death path from above cannot pass ``target`` without hitting it).

    Each step computes ``(down f[i-1] + stay f[i]) + up f[i+1]`` from one of
    two buffers into the other.  Every ``_FIXED_POINT_CHECK_EVERY`` steps the
    iteration stops if that step left the profile bitwise unchanged: every
    later step would too, so the result is exactly that of all ``t`` steps.
    In floating point the designs' profiles reach such a fixed point well
    inside their horizons: they stop changing after step 50 179 of
    phi = 100 000 at (n, b) = (1000, 100), and after step 5 757 of 10 000
    at (100, 10).
    """
    c = chain.c
    if not 0 <= target < c:
        raise ValueError(f"target={target} must lie in [0, c)")
    if t < 0:
        raise ValueError("t must be non-negative")
    lo = target + 1
    up, down = chain.up[lo:c], chain.down[lo:c]
    coef = np.stack([down, 1.0 - up - down, up])  # row r weighs f[lo - 1 + r : c + r]
    prod = np.empty_like(coef)
    by_down, by_stay, by_up = prod
    f = np.zeros(c + 1)
    f[: target + 1] = 1.0  # reaching the target region counts as hit
    bufs = (f, f.copy())  # states outside lo..c-1 keep their values in both
    windows = [sliding_window_view(buf[lo - 1 :], c - lo) for buf in bufs]
    interiors = [buf[lo:c] for buf in bufs]
    done = 0
    for done in range(1, t + 1):
        np.multiply(coef, windows[(done - 1) & 1], out=prod)
        out = interiors[done & 1]
        np.add(by_down, by_stay, out=out)
        out += by_up
        if done % _FIXED_POINT_CHECK_EVERY == 0 and np.array_equal(
            bufs[0].view(np.int64), bufs[1].view(np.int64)
        ):
            break
    return bufs[done & 1]


def hitting_prob_within(chain: BirthDeathChain, start: int, target: int, t: int) -> float:
    """P(reach ``target`` from ``start`` within ``t`` steps), target absorbing.

    Exact while the iteration budget t*(c - target) is affordable; beyond
    that the closed-form probability of EVER hitting the target (the t -> inf
    limit) is returned, which can only overestimate: safety conclusions drawn
    from it are conservative.
    """
    c = chain.c
    if not (0 <= target < start <= c):
        raise ValueError(f"need 0 <= target < start <= c; got start={start}, target={target}")
    if t < 1:
        raise ValueError("t must be >= 1")
    if t < start - target:
        return 0.0  # not enough +-1 transitions to bridge the gap
    if t * (c - target) > _EXACT_CELL_LIMIT:
        return ever_hit_probability(chain, start, target)
    return float(hitting_profile(chain, target, t)[start])


def ever_hit_probability(chain: BirthDeathChain, start: int, target: int) -> float:
    """P(hit ``target`` before absorbing at c), the infinite-horizon limit."""
    c = chain.c
    if not (0 <= target < start <= c):
        raise ValueError(f"need 0 <= target < start <= c; got start={start}, target={target}")
    return float(ever_hit_profile(chain, target)[start])
