"""Golden fixed-seed outputs of ``run_avalanche``.

Each case pins the whole ``AvalancheOutcome`` of one configuration and
seed as the sha256 of a canonical JSON rendering: acceptance rounds,
message and no-op counts, hostages, the issued workload and replica 0's
export. The digests were recorded before the DAG runner's walks were
bounded by the unsettled frontier; any refactor of ``snowsim.dag`` or
``snowsim.sim.avalanche`` that claims to be exact must reproduce them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from snowsim.dag import DagParams
from snowsim.sim import AvalancheConfig, AvalancheOutcome, run_avalanche

SMALL = DagParams(k=3, a=3, beta1=3, beta2=6)
BENCH = DagParams(k=10, a=8, beta1=11, beta2=150)


def canonical(out: AvalancheOutcome) -> str:
    return json.dumps(
        {
            "rounds_used": out.rounds_used,
            "messages_sent": out.messages_sent,
            "issued": [[tx.index, list(tx.vertex_ids), tx.round, tx.rogue] for tx in out.issued],
            "accept_rounds": sorted(out.accept_rounds.items()),
            "violations": out.violations,
            "nops_issued": out.nops_issued,
            "hostages": sorted(out.hostages),
            "dag_export": list(out.dag_export),
        },
        separators=(",", ":"),
    )


def digest(out: AvalancheOutcome) -> str:
    return hashlib.sha256(canonical(out).encode()).hexdigest()


CASES = {
    "virtuous": (
        dict(n=12, params=SMALL, rounds=12 * 60, seed=5, tx_count=8),
        "b0d7b0a418aa7cc338fcac50d276d974b7a1c2ac7ddc52221208802ec5b3f8c3",
    ),
    "rogue": (
        dict(n=12, params=SMALL, rounds=12 * 120, seed=9, tx_count=9, rogue_every=3, tx_interval=24),
        "d8cadeec66da6348a604e1572dbdf27b713948da63ee0d2f5ab7382639b23d08",
    ),
    "withholding": (
        dict(n=20, b=1, params=SMALL, rounds=19 * 90, seed=7, tx_count=10),
        "24b167f6095b3d9a4324dd76f5694ae87312d7ee6c81349db2b975aac80a5b2c",
    ),
    "contested-small": (
        dict(n=12, params=SMALL, rounds=12 * 300, seed=3, tx_interval=12, rogue_every=4),
        "ded90242240abf1564a514407c3f27245d5957c89b8ce3dff4b986da972241b5",
    ),
    "bench-virtuous": (
        dict(n=100, params=BENCH, rounds=3000, seed=1, tx_interval=200),
        "60d39e21460af03022c902f35a43adabb6ad0df8e57448bbe314b13f9b8fd52d",
    ),
    "bench-contested": (
        dict(n=100, b=10, params=BENCH, rounds=3000, seed=1, tx_interval=200, rogue_every=5),
        "678e192d74d29f537c0c56400710a32412f883f70783a39ffddb79550e186767",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outcome_matches_golden_digest(name):
    kw, expected = CASES[name]
    out = run_avalanche(AvalancheConfig(export_replica=0, **kw))
    assert digest(out) == expected
