"""Golden outputs of the command-line front end.

Each case runs ``snowsim.cli.main`` in-process on a small fixed
invocation and pins the sha256 of all it produced: the exit code,
standard output and every file written (report CSV and JSON lines,
design and chain JSON, DAG dumps). The digests were recorded before the
settings table, the report columns and the no-return scan were each
stated once; a refactor of ``snowsim.cli``, ``snowsim.reports`` or
``snowsim.analysis.design`` that claims to be exact must reproduce them.
Standard error and ``--help`` text are not pinned. The four ``snow-run``
cases that simulate (``snowflake-minority-push``, ``config-flag-beats-file``,
``refuse-env-stdout`` and ``defaults-small``) pin the snow batch engine on
exact three-outcome tables: they were re-recorded when it replaced the
per-round hypergeometric draws, which changed the draws for a given seed.
The four cases that run a simulation without ``--out``
(``slush-table-env-stdout``, ``snow-run-refuse-env-stdout``,
``snow-run-defaults-small`` and ``avalanche-run-contested-stdout``) were
re-recorded when the run summary moved to standard error there, leaving
standard output a bare CSV: the exit codes and files are unchanged, and
standard output lost exactly the summary line.
The nine cases that write a run report (``slush-table-out``,
``slush-table-env-stdout``, ``snow-run-snowflake-minority-push``,
``snow-run-config-flag-beats-file``, ``snow-run-refuse-env-stdout``,
``snow-run-defaults-small``, ``avalanche-run-dump``,
``avalanche-run-contested-stdout`` and ``avalanche-run-config-env``) were
re-recorded for report schema v2: the header comment reads ``v2``, every
row gains a last ``accepted`` column (empty for slush and snow rows), and
avalanche rows give ``per_node_iters`` as ``rounds / c``; their summary
counts accepted workload vertices. The two ``slush-table`` cases that
simulate (``slush-table-out`` and ``slush-table-env-stdout``) were
re-recorded when the Slush batch engine began drawing its waiting times by
inversion from block-drawn uniforms, which changed the draws for a given
seed but not their law. Every ``.json`` and ``.jsonl`` file a
case writes must also parse as strict JSON, with no ``NaN`` or
``Infinity``.
"""

from __future__ import annotations

import argparse
import hashlib
import json

import pytest

from snowsim.cli import _KEYS, ENV_SEED, EXIT_USAGE, build_parser, main

SNOW = ["--n", "14", "--b", "2", "--k", "3", "--a", "3", "--beta", "4", "--trials", "8"]
AVA = ["--n", "12", "--k", "3", "--a", "3", "--beta1", "3", "--beta2", "6"]

# name -> (argv, SNOWSIM_SEED or None, config file text or None, digest).
# "{tmp}" in argv is the case's own directory; the config file is {tmp}/run.cfg.
CASES = {
    "slush-table-out": (
        ["slush-table", "--cells", "20,30", "--k", "5", "--a", "4", "--trials", "12",
         "--seed", "4", "--out", "{tmp}/t"],
        None, None, "2745558d653f58c02b3d20d93c70b4a2bfda7b34147605af1f7c4426e0ded567",
    ),
    "slush-table-env-stdout": (
        ["slush-table", "--cells", "24", "--k", "5", "--alpha", "0.7", "--trials", "6",
         "--phi", "500"],
        "9", None, "ed43a20b84bb54955cecdba3839ed8663fbab0afc8943d20ddc781f3c9c23c91",
    ),
    "slush-table-garbage-env-with-flag": (
        ["slush-table", "--cells", "20", "--trials", "2", "--seed", "1"],
        "banana", None, "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "slush-table-bad-cells": (
        ["slush-table", "--cells", "20,slow"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "snow-run-snowflake-minority-push": (
        ["snow-run", "--variant", "snowflake", "--adversary", "minority-push", *SNOW,
         "--seed", "2", "--out", "{tmp}/s"],
        None, None, "d4c7e149102240386d01d30d4b231d48e6aa311f3a5e69837c5cb82c092b2cb6",
    ),
    "snow-run-config-flag-beats-file": (
        ["snow-run", "--config", "{tmp}/run.cfg", "--seed", "5", "--out", "{tmp}/s"],
        None,
        "variant = snowball\nadversary = balance-keeper  # strategy\nn = 12\nb = 2\n"
        "k = 3\na = 3\nbeta = 4\ntrials = 6\nseed = 3\ninitial-reds = 4\nphi = 3000\n",
        "64cce1c6df84920215b7c9884b431e1edf387dbeb2450036551bc22d75b4ab37",
    ),
    "snow-run-refuse-env-stdout": (
        ["snow-run", "--variant", "snowball", "--adversary", "refuse", "--n", "16", "--b", "3",
         "--k", "4", "--a", "3", "--beta", "3", "--trials", "5"],
        "7", None, "0b6d74515ce71f30ac986a8da7db45921bbffd9d389818c3e37fb5ad2f909985",
    ),
    "snow-run-defaults-small": (
        ["snow-run", "--n", "20", "--k", "4", "--alpha", "0.7", "--trials", "3"], None, None,
        "14a68b3f5a4a465d23ca44e5776df04533ee8dd734a16cd8d4bfc978b345806c",
    ),
    "snow-run-slush-variant-from-config": (
        ["snow-run", "--config", "{tmp}/run.cfg", "--trials", "2"], None, "variant = slush\n",
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "snow-run-sample-too-wide": (
        ["snow-run", "--n", "5", "--k", "10", "--trials", "2"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "avalanche-run-dump": (
        ["avalanche-run", *AVA, "--rounds", "720", "--tx-count", "8", "--seed", "5",
         "--trials", "2", "--dump-dag", "{tmp}/dag.jsonl", "--out", "{tmp}/ava"],
        None, None, "c6a612c434259e4f502446808da3be0dc11e3224339f911672d2a26a6eaceb7a",
    ),
    "avalanche-run-contested-stdout": (
        ["avalanche-run", *AVA, "--b", "1", "--rounds", "600", "--tx-interval", "12",
         "--rogue-every", "4", "--seed", "3"],
        None, None, "03d61ee32fe313faa1776054147d8bc608d83477224c17eb9d7e87e182e90b21",
    ),
    "avalanche-run-config-env": (
        ["avalanche-run", "--config", "{tmp}/run.cfg", "--out", "{tmp}/ava"],
        "11",
        "n = 8\nk = 2\na = 2\nbeta1 = 2\nbeta2 = 4\nrounds = 160\ntx-count = 3\ntrials = 2\n",
        "ee421056a6a9add0deda1c01ba1b431b42591cb563de58878af8470f91318be2",
    ),
    "avalanche-run-accepts-nothing": (
        ["avalanche-run", "--n", "12", "--rounds", "10", "--out", "{tmp}/x"], None, None,
        "9c60d5069c3323e87c7a8ed14c3d8ec72a6b9e43e14040995f393dd29d1ca7ed",
    ),
    "avalanche-run-unreachable-quorum": (
        ["avalanche-run", "--n", "12", "--b", "5", "--out", "{tmp}/x"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "design-feasible": (
        ["design", "--n", "100", "--b", "10", "--eps", "1e-6", "--phi", "10000",
         "--out", "{tmp}/d"],
        None, None, "c2c82093312b747cfc5f6e3be44b3350682d9a2855c0caaeba5084e995065a7a",
    ),
    "design-pinned-k": (
        ["design", "--n", "60", "--b", "6", "--eps", "1e-4", "--phi", "3000", "--k", "6"],
        None, None, "34da369bcd4c00f4f76bd21f5ddb1c77ae43625f1895e2c99d7ac00a7ec9bbac",
    ),
    "design-pinned-beta": (
        ["design", "--n", "60", "--b", "6", "--eps", "1e-4", "--phi", "3000", "--beta", "30"],
        None, None, "508c070bc83139017895b1c2cd6ec0249c1d5fd1b3b9f91bbea5718ef6025ea0",
    ),
    "design-infeasible": (
        ["design", "--n", "100", "--b", "49", "--eps", "1e-6", "--phi", "10000",
         "--max-k", "8"],
        None, None, "2a6057a4ea144ea032a3e7c9bcb2da0079e44a60c55783a05e6a2402d5c89c23",
    ),
    "design-c2-unsatisfiable": (
        ["design", "--n", "100", "--b", "10", "--eps", "1e-6", "--phi", "300", "--max-k", "6"],
        None, None, "dce23fadeb9ba2814c2a04737393b06d31f994b9ed34816c3513985b2f47bf0c",
    ),
    "design-pinned-beta-too-small": (
        ["design", "--n", "60", "--b", "6", "--eps", "1e-4", "--phi", "3000", "--beta", "2",
         "--max-k", "12"],
        None, None, "b71172f3d1ccb3309a10b3fc37991b97839a8f944cd0d0b95f4a0f50ccb6b86c",
    ),
    "design-infinite-horizon": (
        ["design", "--n", "40", "--b", "4", "--eps", "1e-3", "--phi", "5000000"], None, None,
        "b4f56db9c77a083489fb316c7a82556ae0acf0874ef9aa6c50d080c17ebbb4f7",
    ),
    "design-three-nodes": (
        ["design", "--n", "3", "--b", "0", "--eps", "0.1", "--phi", "100"], None, None,
        "684ab7ab02cf00d46fc43beb8070242f5ce871edbdee4653bfba27f23a703759",
    ),
    "design-two-nodes": (
        ["design", "--n", "2", "--b", "0", "--eps", "0.1", "--phi", "100"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "design-config-ignores-garbage-env": (
        ["design", "--config", "{tmp}/run.cfg"],
        "banana", "n = 50\nb = 5\neps = 1e-3\nphi = 2000\n",
        "597866f9f250d7f77411c57753c16ef3b7116701fcb1c8fa283a031cb1d72c69",
    ),
    "analyze-chain-slush": (
        ["analyze-chain", "--c", "20", "--k", "5", "--a", "4", "--start", "13",
         "--population", "19"],
        None, None, "25cc301575245f16d494f0c2933811b5b45493b3030478bf958061b9e419ba2f",
    ),
    "analyze-chain-snowflake-out": (
        ["analyze-chain", "--protocol", "snowflake", "--c", "20", "--b", "3", "--k", "5",
         "--alpha", "0.7", "--out", "{tmp}/ch"],
        None, None, "cfd458959c13062c1c9d44b48c4498ddcd3fad7fd9fca89bea8585a360bed406",
    ),
    "analyze-chain-config-defaults": (
        ["analyze-chain", "--config", "{tmp}/run.cfg", "--start", "150"],
        None, "c = 300\n", "0fddc7000a5487547a22d714ab7b9b19d9d575294e03061c9cc5250a0a88c72a",
    ),
    "analyze-chain-slush-with-byzantine": (
        ["analyze-chain", "--c", "20", "--b", "3"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "analyze-chain-unknown-protocol": (
        ["analyze-chain", "--config", "{tmp}/run.cfg"], None, "protocol = snowball\n",
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "unknown-config-key": (
        ["slush-table", "--config", "{tmp}/run.cfg"], None, "n = 30\nwibble = 3\n",
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "unknown-flag": (
        ["slush-table", "--warp", "9"], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
    "no-subcommand": (
        [], None, None,
        "cffbdb9b50e340063730101e2d24199fdb14fc4af8128a7d9a0961a757292a1e",
    ),
}


def _reject_constant(constant: str) -> None:
    raise ValueError(f"non-standard JSON constant {constant}")


def run_case(tmp_path, capsys, monkeypatch, name: str) -> str:
    argv, env, config, _ = CASES[name]
    monkeypatch.delenv(ENV_SEED, raising=False)
    if env is not None:
        monkeypatch.setenv(ENV_SEED, env)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
    code = main([arg.format(tmp=tmp_path) for arg in argv])
    for path in tmp_path.glob("*.json*"):
        text = path.read_text()
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=_reject_constant)
    files = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "run.cfg"
    }
    blob = {"code": code, "stdout": capsys.readouterr().out, "files": files}
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_invocation_matches_golden_digest(name, tmp_path, capsys, monkeypatch):
    assert run_case(tmp_path, capsys, monkeypatch, name) == CASES[name][3]


def test_every_setting_is_a_flag_of_some_subcommand():
    parser = build_parser()
    (subs,) = [act for act in parser._actions if isinstance(act, argparse._SubParsersAction)]
    dests = {act.dest for sub in subs.choices.values() for act in sub._actions}
    assert set(_KEYS) <= dests


@pytest.mark.parametrize(
    "argv", [["design", "--seed", "3"], ["analyze-chain", "--trials", "2"]]
)
def test_settings_a_subcommand_never_reads_are_not_its_flags(argv):
    assert main(argv) == EXIT_USAGE
