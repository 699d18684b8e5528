"""Acceptance gate: the numbered checks this package must satisfy, one
test per criterion, run in order.

Every test states its tolerance inline and carries a wall-clock guard
where the check is statistical. Reference values are frozen here; the
oracles behind the derived ones (dense linear solves, mechanical chain
simulation) are local to this file so the gate stays independent of the
code under test.

Criterion 9 covers results that need a geo-replicated deployment
(throughput, wide-area latency, signature-verification ceilings) and is
recorded as an explicit skip rather than silently dropped.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import solve_banded

from snowsim.analysis.chains import (
    absorption_probability,
    build_slush_chain,
    expected_absorption_time,
)
from snowsim.analysis.design import SafetyDesign, early_commit_threshold, feasibility_search
from snowsim.dag import GENESIS_ID, DagParams, DagState, Vertex
from snowsim.machines import ProtocolParams, Variant
from snowsim.sampling import Rng, TailQuery, hyper_tail
from snowsim.sim import (
    Adversary,
    AvalancheConfig,
    NetworkConfig,
    run_avalanche,
    run_snow_batch,
    run_slush_batch,
)

# ---------------------------------------------------------------------------
# Local oracles


def dense_quantities(chain, start: int) -> tuple[float, float]:
    """Absorption probability at 0 and per-node absorption time via a full
    transition-matrix solve; the brute-force reference for criterion 4."""
    c = chain.c
    P = np.zeros((c + 1, c + 1))
    for i in range(c + 1):
        P[i, i] = 1.0 - chain.up[i] - chain.down[i]
        if i > 0:
            P[i, i - 1] = chain.down[i]
        if i < c:
            P[i, i + 1] = chain.up[i]
    interior = np.arange(1, c)
    Q = P[np.ix_(interior, interior)]
    eye = np.eye(c - 1)
    absorb = np.linalg.solve(eye - Q, P[interior, 0])
    steps = np.linalg.solve(eye - Q, np.ones(c - 1))
    return float(absorb[start - 1]), float(steps[start - 1]) / c


def chain_mc(
    c: int, k: int, a: int, start: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mechanical simulation of the color-count walk under the default
    (self-inclusive) sampling convention the analytic chain encodes: one
    uniformly scheduled node per step, a k-sample from all c nodes."""
    gen = Rng(seed).generator
    reds = np.full(trials, start, dtype=np.int64)
    steps = np.zeros(trials, dtype=np.int64)
    active = (reds != 0) & (reds != c)
    while active.any():
        t = np.flatnonzero(active)
        r = reds[t]
        u_red = gen.random(t.size) < r / c
        in_sample = gen.hypergeometric(r, c - r, k)
        up = (in_sample >= a) & ~u_red
        down = ((k - in_sample) >= a) & u_red
        reds[t] = r + up.astype(np.int64) - down.astype(np.int64)
        steps[t] += 1
        active[t] = (reds[t] != 0) & (reds[t] != c)
    return reds, steps


NINE_TOPOLOGY = [
    ("T1", (GENESIS_ID,), "u1"),
    ("T2", ("T1",), "uA"),
    ("T3", ("T1",), "uA"),
    ("T4", ("T2",), "u4"),
    ("T5", ("T2",), "u5"),
    ("T6", ("T3",), "uB"),
    ("T7", ("T3",), "uB"),
    ("T8", ("T4", "T5"), "u8"),
    ("T9", ("T5",), "uB"),
]
NINE_VOTES = {"T1": 1, "T2": 1, "T3": 0, "T4": 1, "T5": 1, "T6": 0, "T7": 0, "T8": 1, "T9": 1}


# ---------------------------------------------------------------------------
# The gate


def test_1_slush_convergence_table():
    """Mean per-node iterations to unanimity from a 50/50 start at
    (k=10, a=8) within +-1.0 of the reference column, stddev <= 2.5,
    2000 trials per network size, under five minutes."""
    t0 = time.perf_counter()
    table = {600: 12.66, 1200: 14.39, 2400: 15.30}
    for idx, (c, expected) in enumerate(table.items()):
        cfg = NetworkConfig(
            n=c, params=ProtocolParams(k=10, a=8), phi=100 * c, seed=101 + idx
        )
        batch = run_slush_batch(cfg, initial_reds=c // 2, trials=2000)
        assert bool(batch.converged.all()), f"c={c}: some trials never converged"
        pni = batch.per_node_iterations
        mean, sd = float(pni.mean()), float(pni.std(ddof=1))
        assert abs(mean - expected) <= 1.0, f"c={c}: mean {mean:.3f} vs {expected}"
        assert sd <= 2.5, f"c={c}: stddev {sd:.3f} above 2.5"
    assert time.perf_counter() - t0 < 300


def test_1_chain_moments_meet_the_table_gates():
    """test_1's gates without simulation: on the Slush chain a simulated
    node sees (population c - 1), the absorption time's first two moments
    from a 50/50 start come from two banded solves, (I - Q) m1 = 1 and
    (I - Q) m2 = 2 m1 - 1. The per-node sd must be <= 2.5 and the mean
    within 1.0 of test_1's reference column."""
    k, a = 10, 8
    for c, expected in {600: 12.66, 1200: 14.39, 2400: 15.30}.items():
        i = np.arange(1, c)
        up = (c - i) / c * stats.hypergeom.sf(a - 1, c - 1, i, k)
        down = i / c * stats.hypergeom.sf(a - 1, c - 1, c - i, k)
        eye_minus_q = np.zeros((3, c - 1))
        eye_minus_q[0, 1:] = -up[:-1]
        eye_minus_q[1] = up + down
        eye_minus_q[2, :-1] = -down[1:]
        m1 = solve_banded((1, 1), eye_minus_q, np.ones(c - 1))
        m2 = solve_banded((1, 1), eye_minus_q, 2 * m1 - 1)
        start = c // 2 - 1  # the interior state c/2
        mean = m1[start] / c
        sd = math.sqrt(m2[start] - m1[start] ** 2) / c
        assert sd <= 2.5, f"c={c}: chain stddev {sd:.3f} above 2.5"
        assert abs(mean - expected) <= 1.0, f"c={c}: chain mean {mean:.3f} vs {expected}"


def test_2_tail_probability_anchor():
    """The (n=10000, x=6250, k=200, a=180) tail equals 5.616e-19 within 1%."""
    value = hyper_tail(TailQuery(10000, 6250, 200, 180))
    assert value == pytest.approx(5.616e-19, rel=0.01)


def test_3_early_commit_threshold_table():
    """Safe early-commitment thresholds at n=2000 for k in {10,20,30,40}
    against the reference row, 1e-3 absolute.

    The one-way birth process implemented here (scheduler picks a node,
    progress needs its sample to hit a holder) yields 8.764, 8.436,
    8.336, 8.289; no variant of the recurrence we found reproduces the
    reference row, so this check documents the gap rather than hiding it.
    """
    reference = {10: 10.87625, 20: 10.50125, 30: 10.37625, 40: 10.25125}
    got = {k: early_commit_threshold(2000, 2000, k) for k in reference}
    for k, expected in reference.items():
        assert got[k] == pytest.approx(expected, abs=1e-3), (
            f"k={k}: computed {got[k]:.6f}, reference {expected}"
        )


def test_4_chain_quantities_against_oracles():
    """Absorption probabilities and expected times on chains with c <= 50:
    dense-solve agreement within 1e-8, mechanical Monte Carlo within
    3 sigma, under two minutes."""
    t0 = time.perf_counter()
    for c, k, a in [(2, 1, 1), (5, 3, 2), (12, 3, 2), (20, 3, 2), (33, 5, 4), (50, 10, 8)]:
        chain = build_slush_chain(c, k, a)
        for start in range(1, c):
            h_dense, t_dense = dense_quantities(chain, start)
            assert absorption_probability(chain, start) == pytest.approx(h_dense, abs=1e-8)
            assert expected_absorption_time(chain, start) == pytest.approx(t_dense, abs=1e-8)

    trials = 4000
    for c, k, a, start in [(20, 3, 2, 10), (33, 5, 4, 13), (50, 10, 8, 25)]:
        chain = build_slush_chain(c, k, a)
        reds, steps = chain_mc(c, k, a, start, trials, seed=90 + c)
        p_blue = absorption_probability(chain, start)
        sigma_p = math.sqrt(max(p_blue * (1 - p_blue), 1e-12) / trials)
        assert abs(float((reds == 0).mean()) - p_blue) <= 3 * sigma_p, f"c={c} frequency"
        per_node = steps / c
        sem = float(per_node.std(ddof=1)) / math.sqrt(trials)
        expected = expected_absorption_time(chain, start)
        assert abs(float(per_node.mean()) - expected) <= 3 * sem, f"c={c} time"
    assert time.perf_counter() - t0 < 120


def test_5_safety_under_strategic_adversaries():
    """At (n=100, b=10) with the parameter design found for a 1e-6 failure
    target: 10^4 trials from a 50/50 start per adversary strategy and
    deciding variant produce zero conflicting decisions, and no node ever
    decides with fewer personal queries than the run threshold (which is
    what 'not earlier than the simpler variant's threshold' pins down,
    both variants sharing it). Under ten minutes."""
    t0 = time.perf_counter()
    design = feasibility_search(100, 10, 1e-6, 10_000)
    assert isinstance(design, SafetyDesign)
    assert (design.k, design.a, design.beta) == (3, 3, 26)

    params = ProtocolParams(k=design.k, a=design.a, beta=design.beta)
    for variant in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        for adv in (Adversary.BALANCE_KEEPER, Adversary.MINORITY_PUSH, Adversary.REFUSE):
            cfg = NetworkConfig(
                n=100, b=10, params=params, phi=design.phi, adversary=adv, seed=55
            )
            batch = run_snow_batch(cfg, variant, initial_reds=45, trials=10_000)
            label = f"{variant.value}/{adv.value}"
            assert int(batch.safety_violation.sum()) == 0, f"{label}: conflicting decisions"
            assert not bool(batch.early_decision.any()), f"{label}: premature decision"
    assert time.perf_counter() - t0 < 600


def test_6_liveness_properties():
    """Three liveness legs, under ten minutes total: unanimous starts
    decide every correct node under each adversary within 20*beta*c
    rounds; an all-virtuous DAG workload accepts every transaction; and
    rounds-to-unanimity grows logarithmically in n (fit residuals below
    10% of the mean) with b <= sqrt(n)."""
    t0 = time.perf_counter()

    params = ProtocolParams(k=3, a=3, beta=26)
    phi = 20 * params.beta * 90
    for variant in (Variant.SNOWFLAKE, Variant.SNOWBALL):
        for adv in Adversary:
            cfg = NetworkConfig(
                n=100, b=10, params=params, phi=phi, adversary=adv, seed=7
            )
            batch = run_snow_batch(cfg, variant, initial_reds=90, trials=50)
            label = f"{variant.value}/{adv.value}"
            assert bool(batch.all_decided.all()), f"{label}: undecided nodes"
            assert int(batch.blue_decisions.sum()) == 0, f"{label}: flipped a unanimous start"
            assert int(batch.safety_violation.sum()) == 0, label

    dag_params = DagParams.from_alpha(10, 0.8, beta1=11, beta2=150)
    cfg = AvalancheConfig(
        n=100, b=0, params=dag_params, rounds=100 * 110, seed=1, tx_count=40
    )
    out = run_avalanche(cfg)
    virtuous = out.virtuous_ids()
    assert len(virtuous) == 40
    missing = virtuous - set(out.accept_rounds)
    assert not missing, f"unaccepted virtuous transactions: {sorted(missing)}"
    assert out.violations == 0

    sizes = (128, 256, 512, 1024)
    per_node_rounds = []
    for n in sizes:
        b = math.isqrt(n)
        c = n - b
        cfg = NetworkConfig(
            n=n, b=b, params=ProtocolParams(k=10, a=6, beta=10**9), phi=60 * c, seed=n
        )
        batch = run_snow_batch(cfg, Variant.SNOWFLAKE, initial_reds=c // 2, trials=200)
        reached = batch.unanimity_round >= 0
        assert bool(reached.all()), f"n={n}: {int((~reached).sum())} trials never unanimous"
        per_node_rounds.append(float((batch.unanimity_round / c).mean()))
    design_matrix = np.vstack([np.log(sizes), np.ones(len(sizes))]).T
    coef, *_ = np.linalg.lstsq(design_matrix, np.array(per_node_rounds), rcond=None)
    residuals = np.array(per_node_rounds) - design_matrix @ coef
    mean_level = float(np.mean(per_node_rounds))
    assert coef[0] > 0, "unanimity time should grow with n"
    assert float(np.abs(residuals).max()) < 0.1 * mean_level, (
        f"log fit residuals {residuals} exceed 10% of mean {mean_level:.3f}"
    )
    assert time.perf_counter() - t0 < 600


def test_7_nine_vertex_replay():
    """Replaying the reference nine-vertex topology with its vote pattern
    reproduces confidences (6,5,0,2,3,0,0,1,1) exactly."""
    dag = DagState()
    unit = DagParams(k=1, a=1, beta1=2, beta2=3)
    for vid, parents, key in NINE_TOPOLOGY:
        dag.on_receive_tx(Vertex(vid, b"", parents, key))
    for vid, _, _ in NINE_TOPOLOGY:
        dag.record_query_result(vid, NINE_VOTES[vid], unit)
    got = tuple(dag.confidence(vid) for vid, _, _ in NINE_TOPOLOGY)
    assert got == (6, 5, 0, 2, 3, 0, 0, 1, 1)


def test_8_message_complexity_stays_flat():
    """In a steady-state DAG run at n=100 with arrivals inside the service
    capacity, messages per accepted transaction per node stays below 3k
    and shows no growth trend across acceptance-time windows (regression
    slope indistinguishable from zero at 95%). Under five minutes."""
    t0 = time.perf_counter()
    params = DagParams.from_alpha(10, 0.8, beta1=11, beta2=150)
    cfg = AvalancheConfig(
        n=100, b=0, params=params, rounds=100 * 330, seed=1, tx_interval=200
    )
    out = run_avalanche(cfg)
    per_node = out.messages_per_accepted_per_node(100)
    assert per_node <= 3 * params.k, f"messages/accepted/node {per_node:.2f}"

    accepted = [vid for vid in out.virtuous_ids() if vid in out.accept_rounds]
    assert len(accepted) >= 100
    windows = 10
    edges = np.linspace(0, cfg.rounds, windows + 1)
    counts = np.histogram([out.accept_rounds[v] for v in accepted], bins=edges)[0]
    msgs_per_window = out.messages_sent / cfg.rounds * np.diff(edges)
    metric = msgs_per_window / np.maximum(counts, 1) / 100
    usable = (np.arange(windows) >= 1) & (counts > 0)  # first window is ramp-up
    assert int(usable.sum()) >= 6
    fit = stats.linregress(np.arange(windows)[usable], metric[usable])
    assert fit.pvalue >= 0.05, (
        f"growth trend detected: slope {fit.slope:.4f}, p {fit.pvalue:.4f}"
    )
    assert time.perf_counter() - t0 < 300


def test_9_deployment_scale_results():
    """Throughput/latency numbers from geo-replicated deployments (and the
    signature-verification bottleneck they expose) need real clusters."""
    pytest.skip(
        "not reproducible at desk scale: wide-area throughput (thousands of "
        "tps), multi-second geo-replication latency, 2000-node scalability "
        "curves, and cryptographic verification ceilings require a real "
        "deployment; criteria 5-8 cover the protocol properties instead"
    )
