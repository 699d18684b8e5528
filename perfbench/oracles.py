"""Independent computations that the output checks compare snowsim against.

Nothing here imports snowsim. Transition probabilities come from
``scipy.stats.hypergeom``, absorption quantities from a sparse LU solve
(snowsim uses a banded LAPACK solve), finite-horizon hitting probabilities
from forward propagation of the state distribution (snowsim iterates the hit
function backward), and run-length tails from a Markov chain on the current
run length (snowsim uses the closed recursion).
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import spsolve
from scipy.stats import hypergeom


def tail(pop: int, x: int, k: int, a: int) -> float:
    """P(at least ``a`` of a ``k``-sample from ``pop`` hold a color held by ``x``)."""
    return float(hypergeom.sf(a - 1, pop, x, k))


def chain(c: int, b: int, k: int, a: int, pop: int) -> tuple[np.ndarray, np.ndarray]:
    """Up and down probabilities over red counts 0..c; the ends absorb.

    A blue node turns red when ``a`` of its ``k`` answers are red (support
    ``i``); a red node turns blue on ``a`` blue answers, and the ``b``
    Byzantine nodes join the blue support.
    """
    i = np.arange(1, c)
    up = np.zeros(c + 1)
    down = np.zeros(c + 1)
    up[1:c] = (c - i) / c * hypergeom.sf(a - 1, pop, i, k)
    down[1:c] = i / c * hypergeom.sf(a - 1, pop, c - i + b, k)
    return up, down


def _interior(up: np.ndarray, down: np.ndarray):
    """I - Q over the interior states 1..c-1, as a sparse matrix."""
    c = up.size - 1
    main = up[1:c] + down[1:c]
    return diags([main, -up[1 : c - 1], -down[2:c]], [0, 1, -1], format="csc")


def absorption(up: np.ndarray, down: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per state: P(absorbed at 0), mean and variance of the absorption time.

    Times are in scheduler steps. For an absorbing chain with fundamental
    matrix N = (I - Q)^-1 the mean is t = N 1 and E[T^2] = 2 N t - t.
    """
    c = up.size - 1
    m = _interior(up, down)
    rhs = np.zeros(c - 1)
    rhs[0] = down[1]
    p0 = np.concatenate([[1.0], spsolve(m, rhs), [0.0]])
    t = spsolve(m, np.ones(c - 1))
    second = 2.0 * spsolve(m, t) - t
    mean = np.concatenate([[0.0], t, [0.0]])
    var = np.concatenate([[0.0], second - t * t, [0.0]])
    return p0, mean, var


def hit_within(up: np.ndarray, down: np.ndarray, start: int, target: int, steps: int) -> float:
    """P(the chain from ``start`` reaches ``target`` within ``steps`` steps)."""
    c = up.size - 1
    u, d = up[target:c + 1].copy(), down[target:c + 1].copy()
    u[[0, -1]] = d[[0, -1]] = 0.0  # state index j is target + j; both ends absorb
    # Column j of the forward operator spreads the mass of state j.
    forward = diags([1.0 - u - d, d[1:], u[:-1]], [0, 1, -1], format="csr")
    p = np.zeros(c - target + 1)
    p[start - target] = 1.0
    for _ in range(steps):
        p = forward @ p
    return float(p[0])


def run_tail(p: float, trials: int, beta: int) -> float:
    """P(a run of at least ``beta`` successes among ``trials`` Bernoulli(p)).

    Iterates the distribution of the current run length, with ``beta``
    absorbing.
    """
    if beta > trials:
        return 0.0
    dist = np.zeros(beta + 1)
    dist[0] = 1.0
    for _ in range(trials):
        nxt = np.zeros_like(dist)
        nxt[0] = (1.0 - p) * dist[:beta].sum()
        nxt[1 : beta + 1] += p * dist[:beta]
        nxt[beta] += dist[beta]
        dist = nxt
    return float(dist[beta])


@functools.lru_cache(maxsize=None)
def design_bounds(n: int, b: int, phi: int, k: int, a: int, beta: int, delta: int, s_ps: int):
    """C1 and C2 of a design, with the chain used to test its phase shift.

    Cached: every round of a run reports the same designs, and the forward
    propagation at phi = 10^5 takes seconds. Callers must not change the
    returned arrays.

    C1 is P(return to s_ps within phi from c/2 + delta); C2 is the run-length
    tail over phi // c queries at the worst state below the point of no
    return, with the Byzantine votes helping the premature decision.
    """
    c = n - b
    up, down = chain(c, b, k, a, n)
    c1 = hit_within(up, down, c // 2 + delta, s_ps, phi)
    p_commit = tail(n, min(n, c // 2 + delta - 1 + b), k, a)
    trials = phi // c
    return up, down, c1, run_tail(p_commit, trials, beta), run_tail(p_commit, trials, beta - 1)


def recount_confidence(lines: list[str]) -> list[str]:
    """Problems in a DAG export: order, and confidence against a recount.

    Confidence is the number of chits in a vertex's reflexive progeny,
    recounted here from the exported parent edges with one bitset per vertex.
    """
    rows = [json.loads(line) for line in lines]
    pos = {row["id"]: i for i, row in enumerate(rows)}
    problems = []
    children: list[list[int]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for parent in row["parents"]:
            j = pos.get(parent)
            if j is None or j >= i:
                problems.append(f"{row['id']} is exported before its parent {parent}")
            else:
                children[j].append(i)
    if problems:
        return problems
    chits = sum(1 << i for i, row in enumerate(rows) if row["chit"])
    progeny = [0] * len(rows)
    for i in range(len(rows) - 1, -1, -1):
        mask = 1 << i
        for ch in children[i]:
            mask |= progeny[ch]
        progeny[i] = mask
        want = (mask & chits).bit_count()
        if rows[i]["confidence"] != want:
            problems.append(f"{rows[i]['id']}: confidence {rows[i]['confidence']}, recount {want}")
    return problems


def binomial_halfwidth(trials: int, z: float) -> float:
    """Half-width of a z-sigma band around a share of 1/2."""
    return z * math.sqrt(0.25 / trials)
