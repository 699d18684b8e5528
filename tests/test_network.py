"""Network runner tests: scalar engine against chain analytics, batch
engine against the scalar one, and structural invariants of outcomes.

The two engines share semantics but no sampling code (permutation walks
vs uniforms read off exact three-outcome tables), so statistical
agreement between them is a meaningful check, not a tautology.
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import linalg, stats

import snowsim
from snowsim.analysis import (
    absorption_probability,
    build_slush_chain,
    expected_absorption_time,
)
from snowsim.machines import Color, ProtocolParams, Variant
from snowsim.sampling import Rng
from snowsim.sim import (
    Adversary,
    NetworkConfig,
    SnowBatch,
    monte_carlo,
    run_slush,
    run_slush_batch,
    run_snow,
    run_snow_batch,
)
from snowsim.sim.network import _outcome_tables


def slush_cfg(c: int, k: int, a: int, phi: int = 200_000, seed: int = 0) -> NetworkConfig:
    return NetworkConfig(n=c, params=ProtocolParams(k=k, a=a), phi=phi, seed=seed)


class TestConfig:
    def test_rejects_bad_shapes(self):
        p = ProtocolParams(k=3, a=2)
        with pytest.raises(ValueError):
            NetworkConfig(n=1, params=p, phi=10)
        with pytest.raises(ValueError):
            NetworkConfig(n=10, b=10, params=p, phi=10)
        with pytest.raises(ValueError):
            NetworkConfig(n=10, b=-1, params=p, phi=10)
        with pytest.raises(ValueError):
            NetworkConfig(n=10, params=p, phi=0)
        with pytest.raises(ValueError):
            NetworkConfig(n=3, params=ProtocolParams(k=3, a=2), phi=10)

    def test_refusal_strategies_need_enough_correct_peers(self):
        # k answers must be obtainable from correct nodes alone.
        p = ProtocolParams(k=5, a=3)
        with pytest.raises(ValueError):
            NetworkConfig(n=8, b=3, params=p, phi=10, adversary=Adversary.REFUSE)
        NetworkConfig(n=9, b=3, params=p, phi=10, adversary=Adversary.REFUSE)
        with pytest.raises(ValueError):
            NetworkConfig(n=8, b=3, params=p, phi=10, adversary=Adversary.MINORITY_PUSH)

    def test_slush_requires_fully_correct_network(self):
        cfg = NetworkConfig(n=10, b=2, params=ProtocolParams(k=3, a=2), phi=10)
        with pytest.raises(ValueError):
            run_slush(cfg, 4)
        with pytest.raises(ValueError):
            run_slush_batch(cfg, 4, 4)

    def test_initial_reds_bounds(self):
        cfg = slush_cfg(10, 3, 2)
        with pytest.raises(ValueError):
            run_slush(cfg, 11)
        with pytest.raises(ValueError):
            run_slush(cfg, -1)


class TestScalarSlush:
    def test_unanimous_start_costs_nothing(self):
        cfg = slush_cfg(12, 3, 2)
        for reds in (0, 12):
            out = run_slush(cfg, reds)
            assert out.rounds_used == 0
            assert out.unanimity_round == 0
            assert out.messages_sent == 0

    def test_reaches_unanimity_and_reports_it(self):
        out = run_slush(slush_cfg(20, 3, 2, seed=5), 10)
        assert out.unanimity_round == out.rounds_used
        assert out.rounds_used > 0
        assert out.messages_sent == 3 * out.rounds_used
        assert out.per_node_iterations == out.rounds_used / 20

    def test_decisions_are_empty_and_safe(self):
        out = run_slush(slush_cfg(10, 3, 2, seed=1), 5)
        assert out.decisions == (None,) * 10
        assert out.safety_violation is False

    def test_same_seed_same_run(self):
        a = run_slush(slush_cfg(16, 5, 4, seed=77), 8)
        b = run_slush(slush_cfg(16, 5, 4, seed=77), 8)
        assert a == b

    def test_absorption_matches_chain_analysis(self):
        # The chain predicts where a leaning network lands and how long
        # it takes. Queries go to the other c-1 nodes, so the matching
        # chain uses the population that excludes the picker itself.
        c, k, a, start = 20, 3, 2, 13
        chain = build_slush_chain(c, k, a, population=c - 1)
        p_red = 1.0 - absorption_probability(chain, start)
        t_chain = expected_absorption_time(chain, start)

        def one(rng: Rng) -> float:
            cfg = NetworkConfig(
                n=c,
                params=ProtocolParams(k=k, a=a),
                phi=100_000,
                seed=int(rng.generator.integers(2**63)),
            )
            out = run_slush(cfg, start)
            assert out.unanimity_color is not None
            return out.rounds_used + (0.5 if out.unanimity_color is Color.RED else 0.0)

        trials = 240
        mc = monte_carlo(one, trials, base_seed=42)
        rounds = np.floor(np.array(mc.records))
        reds = np.array(mc.records) != rounds
        # absorption probability, 4 sigma binomial envelope
        sig_p = np.sqrt(p_red * (1 - p_red) / trials)
        assert abs(reds.mean() - p_red) < 4 * sig_p
        # per-node iterations to unanimity, 4 sigma of the sample mean
        iters = rounds / c
        sem = iters.std(ddof=1) / np.sqrt(trials)
        assert abs(iters.mean() - t_chain) < 4 * sem

    def test_batch_absorption_probability_matches_chain(self):
        c, k, a, start = 20, 3, 2, 13
        chain = build_slush_chain(c, k, a, population=c - 1)
        p_red = 1.0 - absorption_probability(chain, start)
        cfg = slush_cfg(c, k, a, phi=100_000, seed=9)
        bat = run_slush_batch(cfg, start, 4000)
        assert bat.converged.all()
        sig = np.sqrt(p_red * (1 - p_red) / 4000)
        assert abs(float(bat.all_red.mean()) - p_red) < 4 * sig


class TestBatchSlush:
    def test_matches_scalar_distribution(self):
        # Same protocol, disjoint engines: compare mean rounds to
        # unanimity over many runs, 4 sigma envelope.
        c, k, a, start = 12, 3, 2, 6
        scal = []
        for i in range(300):
            cfg = slush_cfg(c, k, a, seed=1000 + i)
            scal.append(run_slush(cfg, start).rounds_used)
        cfg = slush_cfg(c, k, a, seed=4)
        bat = run_slush_batch(cfg, start, 3000)
        assert bat.converged.all()
        m_s, m_b = float(np.mean(scal)), float(bat.rounds.mean())
        pooled = np.sqrt(np.var(scal, ddof=1) / len(scal) + bat.rounds.var(ddof=1) / 3000)
        assert abs(m_s - m_b) < 4 * pooled

    def test_expected_time_matches_chain(self):
        c, k, a, start = 24, 5, 4, 12
        chain = build_slush_chain(c, k, a, population=c - 1)
        t_per_node = expected_absorption_time(chain, start)
        cfg = slush_cfg(c, k, a, seed=8)
        bat = run_slush_batch(cfg, start, 6000)
        assert bat.converged.all()
        mean_iters = float(bat.per_node_iterations.mean())
        sem = float(bat.per_node_iterations.std(ddof=1)) / np.sqrt(6000)
        assert abs(mean_iters - t_per_node) < 4 * sem
        # The spread too: on the interior states, (I - Q) m1 = 1 and
        # (I - Q) m2 = 2 m1 - 1 give the absorption time's first two moments.
        up, down = chain.up[1:c], chain.down[1:c]
        eye_minus_q = np.diag(up + down) - np.diag(up[:-1], 1) - np.diag(down[1:], -1)
        m1 = linalg.solve(eye_minus_q, np.ones(c - 1))
        m2 = linalg.solve(eye_minus_q, 2 * m1 - 1)
        assert m1[start - 1] / c == pytest.approx(t_per_node, rel=1e-9)
        var_chain = (m2[start - 1] - m1[start - 1] ** 2) / c**2
        dev = bat.per_node_iterations - mean_iters
        var = float(dev.var(ddof=1))
        se_var = math.sqrt((float(np.mean(dev**4)) - var**2) / 6000)
        assert abs(var - var_chain) < 4 * se_var

    def test_certain_move_takes_exactly_one_round(self):
        # c=2, k=1, a=1 from 1 red: the scheduled node samples the other,
        # which holds the other color, so the first round always moves.
        # W = 1 + floor(E / lam) with lam = inf gives 1; ceil(E / lam) gives 0.
        bat = run_slush_batch(slush_cfg(2, 1, 1, seed=6), 1, 400)
        assert (bat.rounds == 1).all()
        assert bat.converged.all()
        assert (bat.messages == 1).all()
        assert abs(float(bat.all_red.mean()) - 0.5) < 4 * math.sqrt(0.25 / 400)

    def test_unanimous_start_is_zero_rounds(self):
        cfg = slush_cfg(10, 3, 2)
        bat = run_slush_batch(cfg, 10, 16)
        assert (bat.rounds == 0).all()
        assert bat.converged.all()
        assert (bat.messages == 0).all()

    def test_seed_determinism(self):
        cfg = slush_cfg(15, 3, 2, seed=21)
        a = run_slush_batch(cfg, 7, 50)
        b = run_slush_batch(cfg, 7, 50)
        assert (a.rounds == b.rounds).all()
        assert (a.messages == b.messages).all()

    def test_frozen_interior_state_runs_out_the_budget(self):
        # c=4, k=3, a=3 from 2 reds: each node samples the 3 others, which
        # never hold 3 of one color, so no node ever flips.
        cfg = slush_cfg(4, 3, 3, phi=700)
        bat = run_slush_batch(cfg, 2, 25)
        assert (bat.rounds == 700).all()
        assert not bat.converged.any()
        assert (bat.messages == 3 * 700).all()

    def test_vanishing_move_probability_ends_at_budget(self):
        # At c=600, k=200, a=199 from 300 reds a move has probability far
        # below 1e-19, so a wait dwarfs the budget and can pass the int64
        # maximum; the round counts must still stop exactly at phi.
        cfg = slush_cfg(600, 200, 199, phi=10**6)
        bat = run_slush_batch(cfg, 300, 40)
        assert (bat.rounds == 10**6).all()
        assert not bat.converged.any()
        assert (bat.messages == 200 * 10**6).all()

    def test_message_count_past_int64_is_an_error(self):
        # The same frozen-in-practice start with the largest budget: every
        # trial ends at phi, and 200 * phi does not fit an int64 count.
        cfg = slush_cfg(600, 200, 199, phi=2**63 - 1, seed=1)
        with pytest.raises(ValueError, match=r"messages: k=200 times rounds=9223372036854775807"):
            run_slush_batch(cfg, 300, 2)


ALL_ADVERSARIES = (
    Adversary.NONE,
    Adversary.REFUSE,
    Adversary.BALANCE_KEEPER,
    Adversary.MINORITY_PUSH,
)


class TestScalarSnow:
    def test_rejects_non_deciding_variant(self):
        cfg = NetworkConfig(n=10, params=ProtocolParams(k=3, a=2, beta=2), phi=10)
        with pytest.raises(ValueError):
            run_snow(cfg, Variant.SLUSH, 5)

    def test_unanimous_start_decides_under_every_adversary(self):
        # With every correct node already on one color, decisions must
        # come within the round budget for every built-in strategy.
        params = ProtocolParams(k=3, a=3, beta=6)
        for adv in ALL_ADVERSARIES:
            cfg = NetworkConfig(
                n=25, b=5, params=params, phi=20 * 6 * 20, adversary=adv, seed=13
            )
            for variant in (Variant.SNOWFLAKE, Variant.SNOWBALL):
                out = run_snow(cfg, variant, 20)
                assert all(d is Color.RED for d in out.decisions), (adv, variant)
                assert not out.safety_violation

    def test_safety_flag_recomputed_from_decisions(self):
        params = ProtocolParams(k=3, a=2, beta=2)
        for seed in range(6):
            cfg = NetworkConfig(n=14, params=params, phi=50_000, seed=seed)
            out = run_snow(cfg, Variant.SNOWFLAKE, 7)
            expect = Color.RED in out.decisions and Color.BLUE in out.decisions
            assert out.safety_violation == expect

    def test_scheduler_picks_all_correct_nodes_fairly(self):
        # Huge beta keeps everyone undecided, so every round is a real
        # pick; counts should be uniform within 4 sigma.
        c = 10
        cfg = NetworkConfig(
            n=c, params=ProtocolParams(k=3, a=2, beta=10**9), phi=40_000, seed=3
        )
        out = run_snow(cfg, Variant.SNOWFLAKE, 5)
        assert out.rounds_used == 40_000
        expected = 40_000 / c
        sigma = np.sqrt(40_000 * (1 / c) * (1 - 1 / c))
        for picks in out.pick_counts:
            assert abs(picks - expected) < 4 * sigma

    def test_same_seed_same_run(self):
        cfg = NetworkConfig(
            n=20, b=4, params=ProtocolParams(k=3, a=3, beta=4), phi=50_000,
            adversary=Adversary.BALANCE_KEEPER, seed=5,
        )
        a = run_snow(cfg, Variant.SNOWBALL, 8)
        b = run_snow(cfg, Variant.SNOWBALL, 8)
        assert a == b

    def test_messages_counted_per_active_round(self):
        cfg = NetworkConfig(n=10, params=ProtocolParams(k=4, a=3, beta=3), phi=50_000, seed=2)
        out = run_snow(cfg, Variant.SNOWFLAKE, 10)
        # Unanimous honest start: no refusals, every pre-decision pick
        # queries k peers; decided picks send nothing.
        assert out.messages_sent % 4 == 0
        assert out.messages_sent <= 4 * out.rounds_used


class TestBatchSnow:
    def test_seed_determinism(self):
        cfg = NetworkConfig(
            n=30, b=6, params=ProtocolParams(k=5, a=4, beta=5), phi=30_000,
            adversary=Adversary.BALANCE_KEEPER, seed=11,
        )
        a = run_snow_batch(cfg, Variant.SNOWBALL, 12, 40)
        b = run_snow_batch(cfg, Variant.SNOWBALL, 12, 40)
        for f in ("rounds", "all_decided", "safety_violation", "unanimity_round",
                  "early_decision", "messages", "red_decisions", "blue_decisions"):
            assert (getattr(a, f) == getattr(b, f)).all(), f

    def test_decisions_account_for_every_node(self):
        cfg = NetworkConfig(n=16, params=ProtocolParams(k=3, a=3, beta=4), phi=100_000, seed=6)
        bat = run_snow_batch(cfg, Variant.SNOWFLAKE, 16, 64)
        assert bat.all_decided.all()
        assert ((bat.red_decisions + bat.blue_decisions) == 16).all()
        # unanimous red start cannot decide blue under no adversary
        assert (bat.blue_decisions == 0).all()
        assert not bat.safety_violation.any()

    def test_early_decision_never_happens(self):
        # No node may decide before answering beta of its own queries.
        for adv in ALL_ADVERSARIES:
            cfg = NetworkConfig(
                n=25, b=5, params=ProtocolParams(k=3, a=3, beta=6),
                phi=60_000, adversary=adv, seed=19,
            )
            for variant in (Variant.SNOWFLAKE, Variant.SNOWBALL):
                bat = run_snow_batch(cfg, variant, 20, 32)
                assert not bat.early_decision.any(), (adv, variant)

    def test_matches_scalar_engine_distribution(self):
        # Disjoint implementations again: mean rounds to full decision
        # over independent runs, 4 sigma pooled envelope.
        params = ProtocolParams(k=3, a=2, beta=4)
        scal = []
        for i in range(200):
            cfg = NetworkConfig(n=10, params=params, phi=200_000, seed=7000 + i)
            out = run_snow(cfg, Variant.SNOWFLAKE, 10)
            assert all(d is not None for d in out.decisions)
            scal.append(out.rounds_used)
        cfg = NetworkConfig(n=10, params=params, phi=200_000, seed=71)
        bat = run_snow_batch(cfg, Variant.SNOWFLAKE, 10, 2000)
        assert bat.all_decided.all()
        m_s, m_b = float(np.mean(scal)), float(bat.rounds.mean())
        pooled = np.sqrt(np.var(scal, ddof=1) / len(scal) + bat.rounds.var(ddof=1) / 2000)
        assert abs(m_s - m_b) < 4 * pooled

    def test_scalar_and_batch_agree_under_balance_keeper(self):
        params = ProtocolParams(k=3, a=3, beta=4)
        scal = []
        for i in range(150):
            cfg = NetworkConfig(
                n=12, b=2, params=params, phi=300_000,
                adversary=Adversary.BALANCE_KEEPER, seed=9000 + i,
            )
            out = run_snow(cfg, Variant.SNOWBALL, 10)
            assert all(d is not None for d in out.decisions)
            scal.append(out.rounds_used)
        cfg = NetworkConfig(
            n=12, b=2, params=params, phi=300_000,
            adversary=Adversary.BALANCE_KEEPER, seed=91,
        )
        bat = run_snow_batch(cfg, Variant.SNOWBALL, 10, 1500)
        assert bat.all_decided.all()
        m_s, m_b = float(np.mean(scal)), float(bat.rounds.mean())
        pooled = np.sqrt(np.var(scal, ddof=1) / len(scal) + bat.rounds.var(ddof=1) / 1500)
        assert abs(m_s - m_b) < 4 * pooled

    @staticmethod
    def assert_engines_agree(adversary, variant, initial_reds, params, runs, trials):
        # Mean rounds to full decision and mean red decisions per run,
        # each within a 4 sigma pooled envelope.
        scal = []
        for i in range(runs):
            cfg = NetworkConfig(
                n=12, b=2, params=params, phi=300_000, adversary=adversary, seed=9500 + i
            )
            out = run_snow(cfg, variant, initial_reds)
            assert all(d is not None for d in out.decisions)
            scal.append((out.rounds_used, out.decisions.count(Color.RED)))
        cfg = NetworkConfig(n=12, b=2, params=params, phi=300_000, adversary=adversary, seed=95)
        bat = run_snow_batch(cfg, variant, initial_reds, trials)
        assert bat.all_decided.all()
        for s, b in zip(np.array(scal).T, (bat.rounds, bat.red_decisions)):
            pooled = np.sqrt(s.var(ddof=1) / len(s) + b.var(ddof=1) / len(b))
            assert abs(s.mean() - b.mean()) <= 4 * pooled

    @pytest.mark.parametrize(
        ("adversary", "variant", "initial_reds"),
        [
            (Adversary.REFUSE, Variant.SNOWFLAKE, 5),
            # An even split makes the tie coin pick the first pushes.
            (Adversary.MINORITY_PUSH, Variant.SNOWBALL, 5),
            # A unanimous start: blue was never proposed, so every push of
            # the minority color is a refusal replaced by correct answers.
            (Adversary.MINORITY_PUSH, Variant.SNOWBALL, 10),
        ],
    )
    def test_scalar_and_batch_agree_under_refusals(self, adversary, variant, initial_reds):
        params = ProtocolParams(k=3, a=3, beta=4)
        self.assert_engines_agree(adversary, variant, initial_reds, params, 150, 1500)

    @pytest.mark.parametrize("variant", [Variant.SNOWFLAKE, Variant.SNOWBALL])
    def test_scalar_and_batch_agree_while_balance_keeper_reassigns(self, variant):
        # From an even split nodes turn, so the balance keeper reassigns and
        # Snowball's turn rule decides when. beta = 2 keeps Snowball's
        # rounds light-tailed (at beta = 4 one to three of 1 500 trials
        # outlast 300 000 rounds). Turning Snowball on any single win, or
        # reassigning the most committed node of a side, moves mean rounds
        # by about a third of their sd: 7-10 sigma at these run counts.
        params = ProtocolParams(k=3, a=3, beta=2)
        self.assert_engines_agree(
            Adversary.BALANCE_KEEPER, variant, 5, params, 1000, 3000
        )

    @pytest.mark.parametrize("variant", [Variant.SNOWFLAKE, Variant.SNOWBALL])
    @pytest.mark.parametrize("adversary", [Adversary.MINORITY_PUSH, Adversary.BALANCE_KEEPER])
    def test_table_index_does_not_overflow_above_127_correct_nodes(self, adversary, variant):
        # Node colors are stored narrow; the table index must not be
        # computed in their dtype once it exceeds 127.
        cfg = NetworkConfig(
            n=140, b=10, params=ProtocolParams(k=5, a=4, beta=3), phi=20_000,
            adversary=adversary, seed=4,
        )
        bat = run_snow_batch(cfg, variant, 65, 3)
        assert bat.c == 130
        assert not bat.early_decision.any()
        assert ((bat.red_decisions + bat.blue_decisions)[bat.all_decided] == 130).all()

    def test_unanimity_round_sentinel(self):
        cfg = NetworkConfig(n=10, params=ProtocolParams(k=3, a=3, beta=3), phi=40_000, seed=2)
        bat = run_snow_batch(cfg, Variant.SNOWFLAKE, 10, 16)
        assert (bat.unanimity_round == 0).all()


class TestProposedColorsRule:
    """A Byzantine node answers only a color some correct node proposed.
    From a unanimous start every minority push is of a color nobody
    proposed, so it is a refusal and the run must equal one under refuse,
    draw for draw, in both engines."""

    def cfg(self, adversary: Adversary, seed: int) -> NetworkConfig:
        return NetworkConfig(
            n=13, b=3, params=ProtocolParams(k=3, a=3, beta=4), phi=2_000,
            adversary=adversary, seed=seed,
        )

    @pytest.mark.parametrize("variant", [Variant.SNOWFLAKE, Variant.SNOWBALL])
    @pytest.mark.parametrize("start", [0, 10])
    def test_scalar_minority_push_equals_refuse(self, variant, start):
        for seed in range(5):
            push = run_snow(self.cfg(Adversary.MINORITY_PUSH, seed), variant, start)
            refuse = run_snow(self.cfg(Adversary.REFUSE, seed), variant, start)
            assert push == refuse, seed

    @pytest.mark.parametrize("variant", [Variant.SNOWFLAKE, Variant.SNOWBALL])
    @pytest.mark.parametrize("start", [0, 10])
    def test_batch_minority_push_equals_refuse(self, variant, start):
        push = run_snow_batch(self.cfg(Adversary.MINORITY_PUSH, 3), variant, start, 200)
        refuse = run_snow_batch(self.cfg(Adversary.REFUSE, 3), variant, start, 200)
        for field in dataclasses.fields(SnowBatch):
            assert np.array_equal(getattr(push, field.name), getattr(refuse, field.name)), field.name


class TestOutcomeTables:
    """The batch engine's three-outcome tables, entry by entry, against the
    mechanical sample built here from scipy's hypergeometric pmf: j
    Byzantine nodes in the k-sample of the other n - 1 nodes, the red ones
    among them, then the red correct nodes among the other k - j. Refusals
    leave k answers from the c - 1 correct others."""

    @staticmethod
    def mechanical(n, b, k, a, r_excl, byz_reds):
        """(P(red win), P(red or blue win)) when ``byz_reds`` of the b
        Byzantine nodes answer red and the rest blue; None means all refuse."""
        c = n - b
        if byz_reds is None:
            pmf = stats.hypergeom.pmf(np.arange(k + 1), c - 1, r_excl, k)
        else:
            pmf = np.zeros(k + 1)
            for j in range(min(b, k) + 1):
                p_j = stats.hypergeom.pmf(j, n - 1, b, k)
                p_jr = stats.hypergeom.pmf(np.arange(j + 1), b, byz_reds, j)
                p_cr = stats.hypergeom.pmf(np.arange(k - j + 1), c - 1, r_excl, k - j)
                pmf += p_j * np.convolve(p_jr, p_cr)
        red = pmf[a:].sum()
        return red, red + pmf[: k - a + 1].sum()

    def check(self, cfg, initial_reds, size, expected):
        p_red, p_any = _outcome_tables(cfg, initial_reds)
        assert len(p_red) == len(p_any) == size
        for index, want in expected.items():
            assert abs(p_red[index] - want[0]) < 1e-12, (cfg.adversary, initial_reds, index)
            assert abs(p_any[index] - want[1]) < 1e-12, (cfg.adversary, initial_reds, index)

    # c = 10 has a tie state for minority push, c = 9 none.
    @pytest.mark.parametrize(("n", "b", "k", "a"), [(14, 4, 5, 3), (13, 4, 4, 3)])
    def test_tables_match_mechanical_sampling(self, n, b, k, a):
        c = n - b
        params = ProtocolParams(k=k, a=a, beta=3)

        def cfg(adversary):
            return NetworkConfig(n=n, b=b, params=params, phi=10, adversary=adversary)

        def oracle(r_excl, byz_reds):
            return self.mechanical(n, b, k, a, r_excl, byz_reds)

        self.check(cfg(Adversary.NONE), c // 2, c, {r: oracle(r, b // 2) for r in range(c)})
        self.check(cfg(Adversary.NONE), c, c, {r: oracle(r, b) for r in range(c)})
        self.check(cfg(Adversary.REFUSE), 1, c, {r: oracle(r, None) for r in range(c)})
        self.check(
            cfg(Adversary.BALANCE_KEEPER), c // 2, 2 * c,
            {assign * c + r: oracle(r, b * assign) for assign in (0, 1) for r in range(c)},
        )
        # Minority push, indexed by (own color, red count); a tie averages
        # the two pushes, and a push of a color nobody proposed is a refusal.
        for initial_reds in (c // 2, 0, c):
            valid = {1: initial_reds > 0, 0: initial_reds < c}

            def push(r_excl, color):
                return oracle(r_excl, b * color if valid[color] else None)

            expected = {}
            for own in (0, 1):
                for red in range(own, c + own):
                    if 2 * red == c:
                        both = np.array([push(red - own, 1), push(red - own, 0)])
                        expected[own * (c + 1) + red] = both.mean(axis=0)
                    else:
                        expected[own * (c + 1) + red] = push(red - own, int(2 * red < c))
            self.check(cfg(Adversary.MINORITY_PUSH), initial_reds, 2 * (c + 1), expected)


def test_package_never_imports_scipy_stats():
    # scipy.stats alone adds about 40 MB to a process; the package must not
    # pull it in, the tests above only use it as an oracle.
    code = (
        "import sys\n"
        "import snowsim.cli\n"
        "from snowsim.machines import ProtocolParams, Variant\n"
        "from snowsim.sim import Adversary, NetworkConfig, run_snow_batch\n"
        "params = ProtocolParams(k=3, a=2, beta=3)\n"
        "for adversary in Adversary:\n"
        "    for variant in (Variant.SNOWFLAKE, Variant.SNOWBALL):\n"
        "        cfg = NetworkConfig(n=12, b=2, params=params, phi=500, adversary=adversary)\n"
        "        run_snow_batch(cfg, variant, 5, 4)\n"
        "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'\n"
    )
    src = str(Path(snowsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestSnowflakePreDecisionChain:
    """Until a node decides, Snowflake with no adversary strategy is a
    birth-death chain on the red count: the Byzantine nodes answer a fixed
    split, b//2 red and the rest blue, and the querier samples the other
    n - 1 nodes. With beta out of reach, the first unanimity round is the
    chain's absorption time. The oracle is built here from scipy's
    hypergeometric tail and a dense solve, sharing no code with the engine
    or with ``snowsim.analysis``."""

    @pytest.mark.parametrize("n", [128, 256])
    def test_unanimity_time_matches_chain(self, n):
        # test_6's log-growth leg at its two smallest sizes.
        k, a, trials = 10, 6, 200
        b = math.isqrt(n)
        c = n - b
        i = np.arange(1, c)
        up = (c - i) / c * stats.hypergeom.sf(a - 1, n - 1, i + b // 2, k)
        down = i / c * stats.hypergeom.sf(a - 1, n - 1, c - i + b - b // 2, k)
        # (I - Q) t = 1 over the interior states; both endpoints pinned.
        eye_minus_q = np.diag(up + down) - np.diag(up[:-1], 1) - np.diag(down[1:], -1)
        expected = linalg.solve(eye_minus_q, np.ones(c - 1))[c // 2 - 1] / c

        cfg = NetworkConfig(
            n=n, b=b, params=ProtocolParams(k=k, a=a, beta=10**9), phi=60 * c, seed=n
        )
        batch = run_snow_batch(cfg, Variant.SNOWFLAKE, initial_reds=c // 2, trials=trials)
        assert bool((batch.unanimity_round >= 0).all())
        per_node = batch.unanimity_round / c
        sem = float(per_node.std(ddof=1)) / math.sqrt(trials)
        assert abs(float(per_node.mean()) - expected) <= 4 * sem


class TestMonteCarlo:
    def test_single_trial_has_zero_stddev(self):
        mc = monte_carlo(lambda rng: 3.5, 1, base_seed=0)
        assert mc.mean == 3.5
        assert mc.stddev == 0.0
        assert mc.records == (3.5,)

    def test_mean_and_stddev_recompute(self):
        mc = monte_carlo(lambda rng: float(rng.generator.random()), 40, base_seed=9)
        arr = np.array(mc.records)
        assert mc.mean == pytest.approx(float(arr.mean()))
        assert mc.stddev == pytest.approx(float(arr.std(ddof=1)))

    def test_streams_are_independent_of_trial_count(self):
        # Trial i sees the same stream no matter how many trials run.
        a = monte_carlo(lambda rng: float(rng.generator.random()), 5, base_seed=4)
        b = monte_carlo(lambda rng: float(rng.generator.random()), 9, base_seed=4)
        assert a.records == b.records[:5]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo(lambda rng: 0.0, 0, base_seed=0)


class TestCompositionBound:
    """The designed failure probability dominates observed conflict rates.

    A design found for a target eps guarantees (analytically) that two
    correct nodes decide different colors with probability at most eps
    within the design's horizon. Simulated frequency over 10^5 trials
    must stay below 10x that target; the factor absorbs Monte Carlo
    noise around small probabilities without weakening the point.
    """

    def test_observed_conflicts_stay_under_designed_bound(self):
        from snowsim.analysis import SafetyDesign, feasibility_search

        design = feasibility_search(20, 2, 1e-2, 2000)
        assert isinstance(design, SafetyDesign)
        params = ProtocolParams(k=design.k, a=design.a, beta=design.beta)
        for adversary in (Adversary.BALANCE_KEEPER, Adversary.REFUSE):
            cfg = NetworkConfig(
                n=20, b=2, params=params, phi=design.phi,
                adversary=adversary, seed=13,
            )
            batch = run_snow_batch(cfg, Variant.SNOWFLAKE, initial_reds=9, trials=100_000)
            freq = float(batch.safety_violation.mean())
            assert freq <= 10 * design.eps, f"{adversary.value}: {freq} over bound"
