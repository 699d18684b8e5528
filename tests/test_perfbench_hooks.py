"""The benchmark's traced run wraps snowsim entry points by attribute name.

``perfbench/spans.install`` replaces ``DagState`` methods and module-level
functions with span-recording wrappers, and ``workloads.Capture`` replaces
the ``DagState`` name that ``snowsim.sim.avalanche`` looks up, both through
a ``workloads.Patches`` that puts the originals back. A rename or a call
path that bypasses those names would silently empty the per-layer figures
of ``--trace 1``. One test runs a small DAG network under both and checks
every wrapped DAG method records calls; another runs four small command-line
invocations and checks every other span records calls. Both check that
everything is restored.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import snowsim.analysis.design as design
import snowsim.cli as cli
import snowsim.sim as sim
import snowsim.sim.avalanche as avalanche
from snowsim.dag import DagParams, DagState
from snowsim.sim import AvalancheConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

DAG_METHODS = (
    "reflexive_ancestors",
    "is_strongly_preferred",
    "is_accepted",
    "emit_nops",
    "record_query_result",
    "parent_selection",
    "on_receive_tx",
)

# Module attributes the spans replace, and the span names the four
# invocations below must record.
MODULE_HOOKS = (
    (cli, "main"),
    (cli, "run_slush_batch"),
    (cli, "run_snow_batch"),
    (cli, "format_csv"),
    (cli, "format_jsonl"),
    (cli, "feasibility_search"),
    (cli, "build_slush_chain"),
    (cli, "build_snowflake_chain"),
    (cli, "absorption_probability"),
    (cli, "expected_absorption_time"),
    (design, "hitting_profile"),
    (design, "run_length_beta"),
    (design, "run_length_tail"),
    (design, "phase_shift_index"),
    (design, "build_snowflake_chain"),
    (sim, "run_avalanche"),
)
CLI_SPANS = (
    "cli",
    "slush_batch",
    "snow_batch",
    "reports.format",
    "design.feasibility_search",
    "design.hitting_profile",
    "design.run_length",
    "design.phase_shift",
    "chains.build",
    "chains.solve",
)
INVOCATIONS = (
    "slush-table --cells 20 --trials 3",
    "snow-run --n 20 --b 2 --k 3 --a 3 --beta 3 --adversary refuse --trials 3",
    "design --n 100 --b 10 --eps 1e-6 --phi 10000",
    "analyze-chain --c 40 --k 5 --a 4",
)


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import spans
    import workloads

    return spans, workloads


def test_traced_run_wraps_and_restores_every_dag_hook(perfbench):
    spans, workloads = perfbench
    originals = {name: DagState.__dict__[name] for name in DAG_METHODS}
    run_original = sim.run_avalanche
    cfg = AvalancheConfig(
        n=12, params=DagParams(k=3, a=3, beta1=3, beta2=6), rounds=12 * 120,
        seed=9, tx_count=9, rogue_every=3, tx_interval=24,
    )
    patches = workloads.Patches()
    tracer = spans.Tracer()
    capture = workloads.Capture()
    try:
        spans.install(tracer, patches)
        capture.install(patches)
        for name in DAG_METHODS:
            assert getattr(DagState, name).__wrapped__ is originals[name], name
        assert avalanche.DagState is not DagState
        out = sim.run_avalanche(cfg)
        tracer.end_round()
    finally:
        patches.restore()

    for name in DAG_METHODS:
        assert DagState.__dict__[name] is originals[name], name
    assert avalanche.DagState is DagState
    assert sim.run_avalanche is run_original

    replicas = capture.take()[1]
    assert len(replicas) == cfg.c
    assert all(type(dag) is DagState for dag in replicas)
    figures = tracer.rounds[-1]
    assert figures["avalanche.calls"] == 1
    for name in DAG_METHODS:
        assert figures.get(f"dag.{name}.calls", 0) > 0, name
    # One staleness sweep per scheduler round feeds the round-time deciles.
    assert figures["dag.emit_nops.calls"] == cfg.rounds
    assert figures["count.avalanche.nops"] == out.nops_issued
    assert tracer.counts == {}  # cleared for the next round


def test_command_line_runs_record_every_module_span(perfbench, capsys):
    spans, workloads = perfbench
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr in MODULE_HOOKS]
    patches = workloads.Patches()
    tracer = spans.Tracer()
    try:
        spans.install(tracer, patches)
        for owner, attr, fn in originals:
            assert getattr(owner, attr).__wrapped__ is fn, attr
        for line in INVOCATIONS:
            assert cli.main(line.split()) == 0, line
        tracer.end_round()
    finally:
        patches.restore()
    capsys.readouterr()

    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, attr
    figures = tracer.rounds[-1]
    assert figures["cli.calls"] == len(INVOCATIONS)
    for name in CLI_SPANS:
        assert figures.get(f"{name}.calls", 0) > 0, name
