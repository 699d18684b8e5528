"""DAG network runner tests: liveness, conflict safety, determinism, and
message accounting on small desk-scale networks.
"""

from __future__ import annotations

import dataclasses

import pytest

import snowsim.sim.avalanche as avalanche
from snowsim.dag import GENESIS_ID, DagParams, DagState, make_vertex
from snowsim.sim import AvalancheConfig, run_avalanche

SMALL = DagParams(k=3, a=3, beta1=3, beta2=6)


def small_cfg(**kw: object) -> AvalancheConfig:
    base: dict = dict(n=12, b=0, params=SMALL, rounds=12 * 60, seed=5, tx_count=8)
    base.update(kw)
    return AvalancheConfig(**base)


class TestConfig:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            AvalancheConfig(n=1, params=SMALL, rounds=10)
        with pytest.raises(ValueError):
            AvalancheConfig(n=10, b=10, params=SMALL, rounds=10)
        with pytest.raises(ValueError):
            AvalancheConfig(n=10, params=SMALL, rounds=0)
        with pytest.raises(ValueError):
            AvalancheConfig(n=3, params=DagParams(k=3, a=3, beta1=1, beta2=1), rounds=10)
        with pytest.raises(ValueError):
            AvalancheConfig(n=10, params=SMALL, rounds=10, tx_interval=0)
        with pytest.raises(ValueError):
            AvalancheConfig(n=10, params=SMALL, rounds=10, rogue_every=1)
        # k=10 fits n=12, but a=8 yes votes cannot come from c-1=6 peers.
        with pytest.raises(ValueError, match="quorum"):
            AvalancheConfig(n=12, b=5, params=DagParams(k=10, a=8, beta1=11, beta2=150), rounds=10)

    def test_quorum_of_every_correct_peer_is_allowed(self):
        cfg = AvalancheConfig(n=12, b=8, params=SMALL, rounds=10)
        assert cfg.params.a == cfg.c - 1

    def test_default_interval_is_one_sweep(self):
        assert small_cfg().effective_interval == 12
        assert small_cfg(tx_interval=5).effective_interval == 5


class TestVirtuousRuns:
    def test_every_virtuous_tx_is_accepted_everywhere(self):
        out = run_avalanche(small_cfg())
        virt = out.virtuous_ids()
        assert len(virt) == 8
        assert virt <= set(out.accept_rounds)
        assert out.violations == 0
        assert out.hostages == frozenset()

    def test_acceptance_never_precedes_issuance(self):
        out = run_avalanche(small_cfg())
        assert all(lag > 0 for lag in out.latencies().values())

    def test_same_seed_same_outcome(self):
        a = run_avalanche(small_cfg())
        b = run_avalanche(small_cfg())
        assert a == b

    def test_different_seed_changes_schedule(self):
        a = run_avalanche(small_cfg())
        b = run_avalanche(small_cfg(seed=6))
        assert a.accept_rounds != b.accept_rounds

    def test_message_accounting(self):
        out = run_avalanche(small_cfg())
        # Every query costs exactly k messages, and there is at most one
        # query per round.
        assert out.messages_sent % SMALL.k == 0
        assert out.messages_sent <= SMALL.k * out.rounds_used
        assert out.messages_per_accepted_per_node(12) > 0

    def test_tx_cap_is_respected(self):
        out = run_avalanche(small_cfg(tx_count=3))
        assert len(out.issued) == 3
        assert [tx.index for tx in out.issued] == [0, 1, 2]

    def test_uncapped_workload_fills_the_run(self):
        out = run_avalanche(small_cfg(tx_count=None, rounds=12 * 10))
        assert len(out.issued) == 10


class TestByzantineRuns:
    def test_small_byzantine_fraction_still_accepts(self):
        # Five percent withholding voters at a 0.8 quorum leave enough
        # slack for consecutive successes to accumulate.
        cfg = AvalancheConfig(
            n=20, b=1, params=SMALL, rounds=19 * 90, seed=7, tx_count=10
        )
        out = run_avalanche(cfg)
        assert out.virtuous_ids() <= set(out.accept_rounds)
        assert out.violations == 0

    def test_withholding_at_quorum_boundary_stalls_but_stays_safe(self):
        # One in three sampled peers silent at a unanimous quorum makes
        # consecutive successes rare; nothing commits, nothing conflicts.
        cfg = AvalancheConfig(
            n=12, b=4, params=SMALL, rounds=8 * 40, seed=11, tx_count=4
        )
        out = run_avalanche(cfg)
        assert out.violations == 0


class TestRogueRuns:
    def test_rogue_traffic_cannot_break_safety(self):
        cfg = small_cfg(rounds=12 * 120, seed=9, tx_count=9, rogue_every=3, tx_interval=24)
        out = run_avalanche(cfg)
        assert out.violations == 0
        rogue_ids = {v for tx in out.issued if tx.rogue for v in tx.vertex_ids}
        # At most one spend per conflicting pair may ever be accepted.
        for tx in out.issued:
            if tx.rogue:
                assert sum(v in out.accept_rounds for v in tx.vertex_ids) <= 1
        assert len(rogue_ids) == 6  # three pairs

    def test_unentangled_virtuous_txs_all_accept(self):
        cfg = small_cfg(rounds=12 * 120, seed=9, tx_count=9, rogue_every=3, tx_interval=24)
        out = run_avalanche(cfg)
        guaranteed = out.virtuous_ids() - out.hostages
        assert guaranteed <= set(out.accept_rounds)

    def test_hostages_only_exist_in_rogue_runs(self):
        out = run_avalanche(small_cfg())
        assert out.hostages == frozenset()


class TestSettledFrontier:
    def test_unsettled_vertices_are_the_recent_tail(self, monkeypatch):
        # Walks stop at settled vertices, so what a replica may still walk
        # must be what arrived within about one acceptance latency of the
        # end, not the history. Counted, not timed.
        replicas: list[DagState] = []

        class Recorded(DagState):
            def __init__(self, *args: object) -> None:
                super().__init__(*args)  # type: ignore[arg-type]
                replicas.append(self)

        monkeypatch.setattr(avalanche, "DagState", Recorded)
        interval = 60
        cfg = AvalancheConfig(
            n=30, params=DagParams(k=5, a=4, beta1=5, beta2=20),
            rounds=6000, seed=2, tx_interval=interval,
        )
        out = run_avalanche(cfg)
        latency = max(out.latencies().values())
        for tx in out.issued:
            if tx.round <= cfg.rounds - latency:
                assert set(tx.vertex_ids) <= set(out.accept_rounds), tx
        issued_at = {vid: tx.round for tx in out.issued for vid in tx.vertex_ids}
        assert len(replicas) == cfg.c
        for dag in replicas:
            unsettled = set(dag.vertices) - dag.settled
            assert all(issued_at[v] > cfg.rounds - latency for v in unsettled if v in issued_at)
            assert len(unsettled) <= latency // interval + 2
            assert len(dag.vertices) > 10 * len(unsettled)


class TestSharedVertices:
    def test_delivery_shares_vertices_but_not_chits(self):
        src, dst = DagState(), DagState()
        src.mint_utxo("coin")
        (a,) = src.on_generate_tx(b"a", ["coin"])
        src.record_query_result(a, SMALL.a, SMALL)
        src.mint_utxo("coin2")
        (b,) = src.on_generate_tx(b"b", ["coin2"])
        assert src.vertices[b].parents == (a,)
        avalanche._deliver_ancestry(src, dst, b)
        assert all(dst.vertices[v] is src.vertices[v] for v in (a, b))
        dst.record_query_result(b, SMALL.a, SMALL)
        assert a in src.chits and a not in dst.chits
        assert b in dst.chits and b not in src.chits
        assert (src.confidence(a), dst.confidence(a)) == (1, 1)

    def test_vertex_fields_cannot_be_assigned(self):
        v = make_vertex(b"x", (GENESIS_ID,), "coin")
        with pytest.raises(dataclasses.FrozenInstanceError):
            v.parents = ()  # type: ignore[misc]
