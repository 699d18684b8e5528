"""Command-line front end for simulations, designs, and chain analysis.

Subcommands
    slush-table     Monte Carlo convergence table over a list of network sizes
    snow-run        batch trials of a deciding protocol under an adversary
    avalanche-run   DAG consensus runs with an optional conflicting workload
    design          search (k, a, beta) for a target failure probability
    analyze-chain   absorption quantities of the matching birth-death chain

Each setting is stated once, with its parser and help text, in one
table; every subcommand's flags and every config-file key come from it,
and ``snowsim <subcommand> --help`` lists the settings a subcommand takes.
Settings resolve in priority order: command-line flag, then config file,
then the ``SNOWSIM_SEED`` environment variable (the seed only, for the
subcommands that take one), then built-in defaults. The config file is
plain ``key = value`` lines with ``#`` comments; its keys are the flag
names, and a key that is unknown or that the subcommand does not take is
an error, as the flag would be.

Run commands write ``<out>.csv`` (aggregate rows, versioned header) and
``<out>.jsonl`` (one lossless record per trial) and print a short
summary; without ``--out`` the CSV goes to standard output and
the summary to standard error. ``design`` and ``analyze-chain`` emit a
single JSON object. Exit codes: 0 success, 1 infeasible design, 2
malformed input, an output path that cannot be written or a run too
large for memory, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from snowsim.analysis.chains import (
    absorption_probability,
    build_slush_chain,
    build_snowflake_chain,
    expected_absorption_time,
)
from snowsim.analysis.design import Infeasible, feasibility_search
from snowsim.dag import DagParams
from snowsim.machines import ProtocolParams, Variant
from snowsim.reports import RunRecord, aggregate, config_digest, format_csv, format_jsonl
from snowsim.sim import (
    Adversary,
    AvalancheConfig,
    NetworkConfig,
    SlushBatch,
    SnowBatch,
    run_avalanche,
    run_slush_batch,
    run_snow_batch,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The evaluation's parameters serve as the built-in defaults.
DEFAULTS: dict[str, Any] = {
    "n": 2000,
    "b": 0,
    "k": 10,
    "alpha": 0.8,
    "beta1": 11,
    "beta2": 150,
}

ENV_SEED = "SNOWSIM_SEED"

# Every setting, stated once: its parser and its help text. Config-file keys
# are these names; each subcommand's flags are generated from the entries it
# takes (``_COMMANDS``), with hyphens for underscores.
_KEYS: dict[str, tuple[Callable[[str], Any], str]] = {
    "n": (int, "total nodes"),
    "b": (int, "byzantine nodes (avalanche-run: vote-withholding; analyze-chain: snowflake only)"),
    "c": (int, "correct nodes"),
    "k": (int, "sample size (design: pin it)"),
    "a": (int, "quorum size (default ceil(alpha*k))"),
    "alpha": (float, "quorum fraction"),
    "beta": (int, "decision threshold (design: pin it)"),
    "beta1": (int, "early-commit threshold for uncontested vertices"),
    "beta2": (int, "acceptance threshold for contested vertices"),
    "phi": (int, "round budget per trial (default 100*c in slush-table, 20*beta*c in snow-run), "
                 "time horizon in rounds in design (default 10000)"),
    "rounds": (int, "scheduler rounds (default 10*c)"),
    "trials": (int, "independent trials to run (default 100, avalanche-run 1)"),
    "seed": (int, f"base RNG seed (default ${ENV_SEED}, else 0)"),
    "start": (int, "initial red count (default c//2)"),
    "population": (int, "sampling universe override"),
    "initial_reds": (int, "red nodes at start (default c//2)"),
    "tx_count": (int, "workload cap"),
    "tx_interval": (int, "rounds between arrivals"),
    "rogue_every": (int, "every m-th tx conflicts"),
    "eps": (float, "failure probability target (default 1e-6)"),
    "max_k": (int, "search ceiling for k (default 128)"),
    "cells": (str, "comma-separated network sizes (default 600,1200,2400)"),
    "variant": (Variant, "protocol variant: snowflake or snowball (default snowball)"),
    "adversary": (Adversary, "byzantine strategy: " + ", ".join(adv.value for adv in Adversary)),
    "protocol": (str, "chain family: slush (default) or snowflake"),
    "dump_dag": (str, "write replica 0's DAG as JSON lines"),
    "out": (str, "output path prefix (suffixes added per format)"),
}


class ConfigError(ValueError):
    """Malformed config input; message carries line/field diagnostics."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, object]:
    seen: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip('"')
        if not sep or not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from exc
    return seen


def load_config(path: str) -> dict[str, object]:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(file.read_text(encoding="utf-8"), source=path)


def _resolve_settings(
    command: str, args: argparse.Namespace, file_cfg: Mapping[str, object]
) -> dict[str, Any]:
    """The typed settings of ``command`` that are set: flag, else config file,
    else (``seed`` only) ``SNOWSIM_SEED``. Callers supply the defaults.

    A config key the command does not take is rejected, as its flag would
    be. A malformed ``SNOWSIM_SEED`` is rejected even when a flag or the
    file sets the seed.
    """
    keys = _COMMANDS[command][2]
    stray = [key for key in file_cfg if key not in keys]
    if stray:
        raise ConfigError(f"{args.config}: {command} does not take key {stray[0]!r}")
    settings = dict(file_cfg)
    for name in keys:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    env = os.environ.get(ENV_SEED)
    if "seed" in keys and env is not None:
        try:
            settings.setdefault("seed", int(env))
        except ValueError as exc:
            raise ConfigError(f"environment {ENV_SEED}: {exc}") from exc
    return settings


def _quorum(cfg: Mapping[str, Any], k: int) -> int:
    if "a" in cfg:
        return cfg["a"]
    return ProtocolParams.from_alpha(k, cfg.get("alpha", DEFAULTS["alpha"])).a


def _trial_records(
    batch: SlushBatch | SnowBatch, violations: Sequence[int], **shared: Any
) -> list[RunRecord]:
    """One record per trial of a batch; ``shared`` holds the config fields."""
    if (longest := int(batch.rounds.max())) > 2**53:
        raise ValueError(f"rounds={longest} is past 2**53, the last a float holds exactly")
    return [
        RunRecord(
            **shared, rounds=float(rounds), per_node_iters=float(rounds) / batch.c,
            violations=int(bad), messages=int(messages),
        )
        for rounds, bad, messages in zip(batch.rounds, violations, batch.messages)
    ]


def _write_reports(
    out: str | None,
    summary: str,
    rows: Sequence[RunRecord],
    per_trial: Sequence[RunRecord],
) -> None:
    """Print the human summary and write the reports. Without ``out`` the CSV
    is standard output, so the summary goes to standard error."""
    csv_text = format_csv(rows)
    if out is None:
        print(summary, file=sys.stderr)
        sys.stdout.write(csv_text)
        return
    print(summary)
    Path(out + ".csv").write_text(csv_text, encoding="utf-8")
    Path(out + ".jsonl").write_text(format_jsonl(per_trial), encoding="utf-8")


def _emit_json(out: str | None, payload: Mapping[str, object]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out + ".json").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_slush_table(cfg: Mapping[str, Any]) -> int:
    cells_text = cfg.get("cells", "600,1200,2400")
    try:
        cells = [int(part) for part in cells_text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"field 'cells': {exc}") from exc
    if not cells:
        raise ConfigError("field 'cells': need at least one network size")
    k = cfg.get("k", DEFAULTS["k"])
    a = _quorum(cfg, k)
    trials = cfg.get("trials", 100)
    seed = cfg.get("seed", 0)

    rows: list[RunRecord] = []
    per_trial: list[RunRecord] = []
    lines = []
    for idx, c in enumerate(cells):
        phi = cfg.get("phi", 100 * c)
        net = NetworkConfig(n=c, params=ProtocolParams(k=k, a=a), phi=phi, seed=seed + idx)
        batch = run_slush_batch(net, initial_reds=c // 2, trials=trials)
        digest = config_digest(
            {"command": "slush-table", "c": c, "k": k, "a": a, "phi": phi,
             "seed": seed + idx, "trials": trials}
        )
        cell = _trial_records(
            batch, [0] * trials,
            config_hash=digest, n=c, c=c, b=0, k=k, a=a, beta=1, adversary="none",
        )
        row = aggregate(cell)
        rows.append(row)
        per_trial.extend(cell)
        mean = row.per_node_iters
        spread = sum((rec.per_node_iters - mean) ** 2 for rec in cell)
        stddev = math.sqrt(spread / (trials - 1)) if trials > 1 else 0.0
        lines.append(f"c={c} trials={trials} per_node_iters mean={mean:.4f} stddev={stddev:.4f}")
    _write_reports(cfg.get("out"), "\n".join(lines), rows, per_trial)
    return EXIT_OK


def cmd_snow_run(cfg: Mapping[str, Any]) -> int:
    n = cfg.get("n", DEFAULTS["n"])
    b = cfg.get("b", DEFAULTS["b"])
    k = cfg.get("k", DEFAULTS["k"])
    a = _quorum(cfg, k)
    beta = cfg.get("beta", DEFAULTS["beta1"])
    c = n - b
    phi = cfg.get("phi", 20 * beta * max(c, 1))
    trials = cfg.get("trials", 100)
    seed = cfg.get("seed", 0)
    variant = cfg.get("variant", Variant.SNOWBALL)
    adversary = cfg.get("adversary", Adversary.NONE)
    initial_reds = cfg.get("initial_reds", c // 2)
    if variant is Variant.SLUSH:
        raise ConfigError("field 'variant': snow-run covers the deciding variants")

    net = NetworkConfig(
        n=n, b=b, params=ProtocolParams(k=k, a=a, beta=beta), phi=phi,
        adversary=adversary, seed=seed,
    )
    batch = run_snow_batch(net, variant, initial_reds, trials)
    if bool(batch.early_decision.any()):
        print("internal error: a node decided before its run threshold", file=sys.stderr)
        return EXIT_INTERNAL

    digest = config_digest(
        {"command": "snow-run", "variant": variant.value, "n": n, "b": b, "k": k,
         "a": a, "beta": beta, "phi": phi, "adversary": adversary.value,
         "initial_reds": initial_reds, "seed": seed, "trials": trials}
    )
    per_trial = _trial_records(
        batch, batch.safety_violation,
        config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta, adversary=adversary.value,
    )
    row = aggregate(per_trial)
    decided = int(batch.all_decided.sum())
    summary = (
        f"{variant.value} n={n} b={b} adversary={adversary.value}: "
        f"decided {decided}/{trials}, violations {row.violations}, "
        f"mean rounds {row.rounds:.1f}"
    )
    _write_reports(cfg.get("out"), summary, [row], per_trial)
    return EXIT_OK


def cmd_avalanche_run(cfg: Mapping[str, Any]) -> int:
    n = cfg.get("n", DEFAULTS["n"])
    b = cfg.get("b", DEFAULTS["b"])
    k = cfg.get("k", DEFAULTS["k"])
    a = _quorum(cfg, k)
    beta1 = cfg.get("beta1", DEFAULTS["beta1"])
    beta2 = cfg.get("beta2", DEFAULTS["beta2"])
    c = n - b
    rounds = cfg.get("rounds", 10 * max(c, 1))
    trials = cfg.get("trials", 1)
    seed = cfg.get("seed", 0)
    tx_count = cfg.get("tx_count")
    tx_interval = cfg.get("tx_interval")
    rogue_every = cfg.get("rogue_every")
    dump_dag = cfg.get("dump_dag")
    if trials < 1:
        raise ConfigError("field 'trials': need at least one run")

    params = DagParams(k=k, a=a, beta1=beta1, beta2=beta2)
    digest = config_digest(
        {"command": "avalanche-run", "n": n, "b": b, "k": k, "a": a,
         "beta1": beta1, "beta2": beta2, "rounds": rounds, "seed": seed,
         "trials": trials, "tx_count": tx_count, "tx_interval": tx_interval,
         "rogue_every": rogue_every}
    )
    adversary = "none" if b == 0 else "withhold"
    per_trial: list[RunRecord] = []
    broken = False
    workload_total = 0
    hostage_total = 0
    for t in range(trials):
        run_cfg = AvalancheConfig(
            n=n, b=b, params=params, rounds=rounds, seed=seed + t,
            tx_count=tx_count, tx_interval=tx_interval, rogue_every=rogue_every,
            export_replica=0 if dump_dag is not None and t == 0 else None,
        )
        out = run_avalanche(run_cfg)
        broken = broken or out.violations > 0
        workload_total += sum(len(tx.vertex_ids) for tx in out.issued)
        hostage_total += len(out.hostages)
        per_trial.append(
            RunRecord(
                config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta1,
                adversary=adversary, rounds=float(out.rounds_used),
                per_node_iters=out.rounds_used / c,
                violations=out.violations, messages=out.messages_sent, accepted=out.accepted,
            )
        )
        if t == 0 and dump_dag is not None:
            Path(dump_dag).write_text("\n".join(out.dag_export) + "\n", encoding="utf-8")
    row = aggregate(per_trial)
    accepted = row.accepted
    per_node = f"{row.messages / (accepted * c):.2f}" if accepted else "n/a"
    summary = (
        f"avalanche n={n} b={b}: accepted {accepted}/{workload_total} workload vertices "
        f"({hostage_total} hostage), messages/accepted/node {per_node}"
    )
    _write_reports(cfg.get("out"), summary, [row], per_trial)
    if broken:
        print("internal error: a replica accepted two conflicting spends", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_design(cfg: Mapping[str, Any]) -> int:
    result = feasibility_search(
        cfg.get("n", DEFAULTS["n"]),
        cfg.get("b", DEFAULTS["b"]),
        cfg.get("eps", 1e-6),
        cfg.get("phi", 10_000),
        k=cfg.get("k"),
        beta=cfg.get("beta"),
        max_k=cfg.get("max_k", 128),
    )
    if isinstance(result, Infeasible):
        _emit_json(cfg.get("out"), {"infeasible": True, "reason": result.reason})
        return EXIT_INFEASIBLE
    _emit_json(cfg.get("out"), {"infeasible": False, **asdict(result)})
    return EXIT_OK


def cmd_analyze_chain(cfg: Mapping[str, Any]) -> int:
    protocol = cfg.get("protocol", "slush")
    if protocol not in ("slush", "snowflake"):
        raise ConfigError(f"field 'protocol': unknown chain family {protocol!r}")
    b = cfg.get("b", DEFAULTS["b"])
    c = cfg.get("c", DEFAULTS["n"] - b)
    k = cfg.get("k", DEFAULTS["k"])
    a = _quorum(cfg, k)
    start = cfg.get("start", c // 2)
    population = cfg.get("population")

    if protocol == "slush":
        if b != 0:
            raise ConfigError("field 'b': the slush chain has no byzantine mass")
        chain = build_slush_chain(c, k, a, population=population)
    else:
        chain = build_snowflake_chain(c, b, k, a, population=population)
    p_blue = absorption_probability(chain, start)
    payload = {
        "protocol": protocol,
        "c": c,
        "b": b,
        "k": k,
        "a": a,
        "start": start,
        "population": population,
        "p_red": 1.0 - p_blue,
        "p_blue": p_blue,
        "expected_per_node_iterations": expected_absorption_time(chain, start),
    }
    _emit_json(cfg.get("out"), payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser

_RUN = ("trials", "seed", "out")
_QUORUM = ("k", "a", "alpha")

# Each subcommand: its handler, its help line and the settings it takes.
_COMMANDS: dict[str, tuple[Callable[[Mapping[str, Any]], int], str, tuple[str, ...]]] = {
    "slush-table": (
        cmd_slush_table, "convergence table over network sizes",
        ("cells", *_QUORUM, "phi", *_RUN),
    ),
    "snow-run": (
        cmd_snow_run, "deciding-protocol batch under an adversary",
        ("variant", "adversary", "n", "b", *_QUORUM, "beta", "phi", "initial_reds", *_RUN),
    ),
    "avalanche-run": (
        cmd_avalanche_run, "DAG consensus over a replica network",
        ("n", "b", *_QUORUM, "beta1", "beta2", "rounds", "tx_count", "tx_interval",
         "rogue_every", "dump_dag", *_RUN),
    ),
    "design": (
        cmd_design, "parameter search for a failure target",
        ("n", "b", "eps", "phi", "k", "beta", "max_k", "out"),
    ),
    "analyze-chain": (
        cmd_analyze_chain, "absorption quantities of a chain",
        ("protocol", "c", "b", *_QUORUM, "start", "population", "out"),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="key = value settings file")
        for name in keys:
            parse, text = _KEYS[name]
            sub.add_argument("--" + name.replace("_", "-"), dest=name, type=parse, help=text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        file_cfg = load_config(args.config) if args.config else {}
        handler = _COMMANDS[args.command][0]
        return handler(_resolve_settings(args.command, args, file_cfg))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: not enough memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
