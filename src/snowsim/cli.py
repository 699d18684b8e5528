"""Command-line front end for simulations, designs, and chain analysis.

Subcommands
    slush-table     Monte Carlo convergence table over a list of network sizes
    snow-run        batch trials of a deciding protocol under an adversary
    avalanche-run   DAG consensus runs with an optional conflicting workload
    design          search (k, a, beta) for a target failure probability
    analyze-chain   absorption quantities of the matching birth-death chain

Settings resolve in priority order: command-line flag, then config file,
then the ``SNOWSIM_SEED`` environment variable (seed only), then built-in
defaults. The config file is plain ``key = value`` lines with ``#``
comments; keys mirror the flags one-to-one and unknown keys are errors.

Run commands write ``<out>.csv`` (aggregate rows, versioned header) and
``<out>.jsonl`` (one lossless record per trial); without ``--out`` the
CSV goes to standard output. ``design`` and ``analyze-chain`` emit a
single JSON object. Exit codes: 0 success, 1 infeasible design, 2
malformed input, 3 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

from snowsim.analysis.chains import (
    absorption_probability,
    build_slush_chain,
    build_snowflake_chain,
    expected_absorption_time,
)
from snowsim.analysis.design import Infeasible, feasibility_search
from snowsim.dag import DagParams
from snowsim.machines import ProtocolParams, Variant
from snowsim.reports import (
    RunRecord,
    config_digest,
    format_csv,
    format_jsonl,
    summarize,
)
from snowsim.sim import (
    Adversary,
    AvalancheConfig,
    NetworkConfig,
    run_avalanche,
    run_slush_batch,
    run_snow_batch,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The evaluation's parameters serve as the built-in defaults.
DEFAULTS: dict[str, object] = {
    "n": 2000,
    "b": 0,
    "k": 10,
    "alpha": 0.8,
    "beta1": 11,
    "beta2": 150,
}

ENV_SEED = "SNOWSIM_SEED"

# Every key a config file may carry, with its parser. Flags mirror these
# names (hyphens for underscores).
_KEYS: dict[str, type] = {
    "n": int,
    "b": int,
    "c": int,
    "k": int,
    "a": int,
    "alpha": float,
    "beta": int,
    "beta1": int,
    "beta2": int,
    "phi": int,
    "rounds": int,
    "trials": int,
    "seed": int,
    "start": int,
    "population": int,
    "initial_reds": int,
    "tx_count": int,
    "tx_interval": int,
    "rogue_every": int,
    "eps": float,
    "max_k": int,
    "cells": str,
    "variant": str,
    "adversary": str,
    "protocol": str,
    "dump_dag": str,
    "out": str,
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
            seen[key] = _KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: field {key!r}: {exc}") from exc
    return seen


def load_config(path: str) -> dict[str, object]:
    file = Path(path)
    if not file.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(file.read_text(encoding="utf-8"), source=path)


def _setting(args: argparse.Namespace, file_cfg: Mapping[str, object], name: str, default: object) -> object:
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    if name in file_cfg:
        return file_cfg[name]
    return default


def _resolve_seed(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    env = os.environ.get(ENV_SEED)
    fallback = 0
    if env is not None:
        try:
            fallback = int(env)
        except ValueError as exc:
            raise ConfigError(f"environment {ENV_SEED}: {exc}") from exc
    return int(_setting(args, file_cfg, "seed", fallback))  # type: ignore[arg-type]


def _quorum(args: argparse.Namespace, file_cfg: Mapping[str, object], k: int) -> int:
    a = _setting(args, file_cfg, "a", None)
    if a is not None:
        return int(a)  # type: ignore[arg-type]
    alpha = float(_setting(args, file_cfg, "alpha", DEFAULTS["alpha"]))  # type: ignore[arg-type]
    return ProtocolParams.from_alpha(k, alpha).a


def _write_reports(
    out: str | None,
    aggregate: Sequence[RunRecord],
    per_trial: Sequence[RunRecord],
) -> None:
    csv_text = format_csv(aggregate)
    if out is None:
        sys.stdout.write(csv_text)
        return
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


def cmd_slush_table(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    cells_raw = str(_setting(args, file_cfg, "cells", "600,1200,2400"))
    try:
        cells = [int(part) for part in cells_raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"field 'cells': {exc}") from exc
    if not cells:
        raise ConfigError("field 'cells': need at least one network size")
    k = int(_setting(args, file_cfg, "k", DEFAULTS["k"]))  # type: ignore[arg-type]
    a = _quorum(args, file_cfg, k)
    trials = int(_setting(args, file_cfg, "trials", 100))  # type: ignore[arg-type]
    seed = _resolve_seed(args, file_cfg)
    phi_override = _setting(args, file_cfg, "phi", None)

    aggregate: list[RunRecord] = []
    per_trial: list[RunRecord] = []
    lines = []
    for idx, c in enumerate(cells):
        phi = int(phi_override) if phi_override is not None else 100 * c  # type: ignore[arg-type]
        cfg = NetworkConfig(
            n=c, params=ProtocolParams(k=k, a=a), phi=phi, seed=seed + idx
        )
        batch = run_slush_batch(cfg, initial_reds=c // 2, trials=trials)
        digest = config_digest(
            {"command": "slush-table", "c": c, "k": k, "a": a, "phi": phi,
             "seed": seed + idx, "trials": trials}
        )
        cell = [
            RunRecord(
                config_hash=digest, n=c, c=c, b=0, k=k, a=a, beta=1,
                adversary="none", rounds=float(batch.rounds[i]),
                per_node_iters=float(batch.rounds[i]) / c, violations=0,
                messages=int(batch.messages[i]),
            )
            for i in range(trials)
        ]
        stats = summarize(cell)
        aggregate.append(
            RunRecord(
                config_hash=digest, n=c, c=c, b=0, k=k, a=a, beta=1,
                adversary="none", rounds=stats["mean_rounds"],
                per_node_iters=stats["mean_per_node_iters"],
                violations=0, messages=int(stats["messages"]),
            )
        )
        per_trial.extend(cell)
        lines.append(
            f"c={c} trials={trials} per_node_iters mean={stats['mean_per_node_iters']:.4f} "
            f"stddev={stats['stddev_per_node_iters']:.4f}"
        )
    print("\n".join(lines))
    _write_reports(getattr(args, "out", None), aggregate, per_trial)
    return EXIT_OK


def cmd_snow_run(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    n = int(_setting(args, file_cfg, "n", DEFAULTS["n"]))  # type: ignore[arg-type]
    b = int(_setting(args, file_cfg, "b", DEFAULTS["b"]))  # type: ignore[arg-type]
    k = int(_setting(args, file_cfg, "k", DEFAULTS["k"]))  # type: ignore[arg-type]
    a = _quorum(args, file_cfg, k)
    beta = int(_setting(args, file_cfg, "beta", DEFAULTS["beta1"]))  # type: ignore[arg-type]
    c = n - b
    phi = int(_setting(args, file_cfg, "phi", 20 * beta * max(c, 1)))  # type: ignore[arg-type]
    trials = int(_setting(args, file_cfg, "trials", 100))  # type: ignore[arg-type]
    seed = _resolve_seed(args, file_cfg)
    variant = Variant(str(_setting(args, file_cfg, "variant", "snowball")))
    adversary = Adversary(str(_setting(args, file_cfg, "adversary", "none")))
    initial_reds = int(_setting(args, file_cfg, "initial_reds", c // 2))  # type: ignore[arg-type]
    if variant is Variant.SLUSH:
        raise ConfigError("field 'variant': snow-run covers the deciding variants")

    cfg = NetworkConfig(
        n=n, b=b, params=ProtocolParams(k=k, a=a, beta=beta), phi=phi,
        adversary=adversary, seed=seed,
    )
    batch = run_snow_batch(cfg, variant, initial_reds, trials)
    if bool(batch.early_decision.any()):
        print("internal error: a node decided before its run threshold", file=sys.stderr)
        return EXIT_INTERNAL

    digest = config_digest(
        {"command": "snow-run", "variant": variant.value, "n": n, "b": b, "k": k,
         "a": a, "beta": beta, "phi": phi, "adversary": adversary.value,
         "initial_reds": initial_reds, "seed": seed, "trials": trials}
    )
    per_trial = [
        RunRecord(
            config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta,
            adversary=adversary.value, rounds=float(batch.rounds[i]),
            per_node_iters=float(batch.rounds[i]) / c,
            violations=int(batch.safety_violation[i]),
            messages=int(batch.messages[i]),
        )
        for i in range(trials)
    ]
    stats = summarize(per_trial)
    aggregate = RunRecord(
        config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta,
        adversary=adversary.value, rounds=stats["mean_rounds"],
        per_node_iters=stats["mean_per_node_iters"],
        violations=int(stats["violations"]), messages=int(stats["messages"]),
    )
    decided = int(batch.all_decided.sum())
    print(
        f"{variant.value} n={n} b={b} adversary={adversary.value}: "
        f"decided {decided}/{trials}, violations {int(stats['violations'])}, "
        f"mean rounds {stats['mean_rounds']:.1f}"
    )
    _write_reports(getattr(args, "out", None), [aggregate], per_trial)
    return EXIT_OK


def cmd_avalanche_run(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    n = int(_setting(args, file_cfg, "n", DEFAULTS["n"]))  # type: ignore[arg-type]
    b = int(_setting(args, file_cfg, "b", DEFAULTS["b"]))  # type: ignore[arg-type]
    k = int(_setting(args, file_cfg, "k", DEFAULTS["k"]))  # type: ignore[arg-type]
    a = _quorum(args, file_cfg, k)
    beta1 = int(_setting(args, file_cfg, "beta1", DEFAULTS["beta1"]))  # type: ignore[arg-type]
    beta2 = int(_setting(args, file_cfg, "beta2", DEFAULTS["beta2"]))  # type: ignore[arg-type]
    c = n - b
    rounds = int(_setting(args, file_cfg, "rounds", 10 * max(c, 1)))  # type: ignore[arg-type]
    trials = int(_setting(args, file_cfg, "trials", 1))  # type: ignore[arg-type]
    seed = _resolve_seed(args, file_cfg)
    tx_count = _setting(args, file_cfg, "tx_count", None)
    tx_interval = _setting(args, file_cfg, "tx_interval", None)
    rogue_every = _setting(args, file_cfg, "rogue_every", None)
    dump_dag = _setting(args, file_cfg, "dump_dag", None)
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
    accepted_total = 0
    virtuous_total = 0
    hostage_total = 0
    for t in range(trials):
        cfg = AvalancheConfig(
            n=n, b=b, params=params, rounds=rounds, seed=seed + t,
            tx_count=tx_count, tx_interval=tx_interval,  # type: ignore[arg-type]
            rogue_every=rogue_every,  # type: ignore[arg-type]
            export_replica=0 if dump_dag is not None and t == 0 else None,
        )
        out = run_avalanche(cfg)
        broken = broken or out.violations > 0
        virtuous = out.virtuous_ids()
        accepted_total += sum(vid in out.accept_rounds for vid in virtuous)
        virtuous_total += len(virtuous)
        hostage_total += len(out.hostages)
        per_trial.append(
            RunRecord(
                config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta1,
                adversary=adversary, rounds=float(out.rounds_used),
                per_node_iters=out.messages_per_accepted_per_node(c),
                violations=out.violations, messages=out.messages_sent,
            )
        )
        if t == 0 and dump_dag is not None:
            Path(str(dump_dag)).write_text(
                "\n".join(out.dag_export) + "\n", encoding="utf-8"
            )
    stats = summarize(per_trial)
    aggregate = RunRecord(
        config_hash=digest, n=n, c=c, b=b, k=k, a=a, beta=beta1,
        adversary=adversary, rounds=stats["mean_rounds"],
        per_node_iters=stats["mean_per_node_iters"],
        violations=int(stats["violations"]), messages=int(stats["messages"]),
    )
    print(
        f"avalanche n={n} b={b}: accepted {accepted_total}/{virtuous_total} virtuous "
        f"({hostage_total} hostage), messages/accepted/node "
        f"{stats['mean_per_node_iters']:.2f}"
    )
    _write_reports(getattr(args, "out", None), [aggregate], per_trial)
    if broken:
        print("internal error: a replica accepted two conflicting spends", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_design(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    n = int(_setting(args, file_cfg, "n", DEFAULTS["n"]))  # type: ignore[arg-type]
    b = int(_setting(args, file_cfg, "b", DEFAULTS["b"]))  # type: ignore[arg-type]
    eps = float(_setting(args, file_cfg, "eps", 1e-6))  # type: ignore[arg-type]
    phi = int(_setting(args, file_cfg, "phi", 10_000))  # type: ignore[arg-type]
    k = _setting(args, file_cfg, "k", None)
    beta = _setting(args, file_cfg, "beta", None)
    max_k = int(_setting(args, file_cfg, "max_k", 128))  # type: ignore[arg-type]
    out = getattr(args, "out", None)

    result = feasibility_search(
        n, b, eps, phi,
        k=None if k is None else int(k),  # type: ignore[arg-type]
        beta=None if beta is None else int(beta),  # type: ignore[arg-type]
        max_k=max_k,
    )
    if isinstance(result, Infeasible):
        _emit_json(out, {"infeasible": True, "reason": result.reason})
        return EXIT_INFEASIBLE
    _emit_json(out, {"infeasible": False, **asdict(result)})
    return EXIT_OK


def cmd_analyze_chain(args: argparse.Namespace, file_cfg: Mapping[str, object]) -> int:
    protocol = str(_setting(args, file_cfg, "protocol", "slush"))
    if protocol not in ("slush", "snowflake"):
        raise ConfigError(f"field 'protocol': unknown chain family {protocol!r}")
    b = int(_setting(args, file_cfg, "b", DEFAULTS["b"]))  # type: ignore[arg-type]
    c = int(_setting(args, file_cfg, "c", int(DEFAULTS["n"]) - b))  # type: ignore[arg-type]
    k = int(_setting(args, file_cfg, "k", DEFAULTS["k"]))  # type: ignore[arg-type]
    a = _quorum(args, file_cfg, k)
    start = int(_setting(args, file_cfg, "start", c // 2))  # type: ignore[arg-type]
    population = _setting(args, file_cfg, "population", None)
    population = None if population is None else int(population)  # type: ignore[arg-type]

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
    _emit_json(getattr(args, "out", None), payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value settings file")
    sub.add_argument("--seed", type=int, help="base RNG seed")
    sub.add_argument("--trials", type=int, help="independent trials to run")
    sub.add_argument("--out", help="output path prefix (suffixes added per format)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snowsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("slush-table", help="convergence table over network sizes")
    _add_common(p)
    p.add_argument("--cells", help="comma-separated network sizes (default 600,1200,2400)")
    p.add_argument("--k", type=int, help="sample size")
    p.add_argument("--a", type=int, help="quorum size (default ceil(alpha*k))")
    p.add_argument("--alpha", type=float, help="quorum fraction")
    p.add_argument("--phi", type=int, help="round budget per trial (default 100*c)")
    p.set_defaults(func=cmd_slush_table)

    p = subs.add_parser("snow-run", help="deciding-protocol batch under an adversary")
    _add_common(p)
    p.add_argument("--variant", choices=["snowflake", "snowball"], help="protocol variant")
    p.add_argument(
        "--adversary", choices=[adv.value for adv in Adversary], help="byzantine strategy"
    )
    p.add_argument("--n", type=int, help="total nodes")
    p.add_argument("--b", type=int, help="byzantine nodes")
    p.add_argument("--k", type=int, help="sample size")
    p.add_argument("--a", type=int, help="quorum size (default ceil(alpha*k))")
    p.add_argument("--alpha", type=float, help="quorum fraction")
    p.add_argument("--beta", type=int, help="decision threshold")
    p.add_argument("--phi", type=int, help="round budget (default 20*beta*c)")
    p.add_argument("--initial-reds", dest="initial_reds", type=int, help="red nodes at start")
    p.set_defaults(func=cmd_snow_run)

    p = subs.add_parser("avalanche-run", help="DAG consensus over a replica network")
    _add_common(p)
    p.add_argument("--n", type=int, help="total nodes")
    p.add_argument("--b", type=int, help="byzantine (vote-withholding) nodes")
    p.add_argument("--k", type=int, help="sample size")
    p.add_argument("--a", type=int, help="quorum size (default ceil(alpha*k))")
    p.add_argument("--alpha", type=float, help="quorum fraction")
    p.add_argument("--beta1", type=int, help="early-commit threshold for uncontested vertices")
    p.add_argument("--beta2", type=int, help="acceptance threshold for contested vertices")
    p.add_argument("--rounds", type=int, help="scheduler rounds (default 10*c)")
    p.add_argument("--tx-count", dest="tx_count", type=int, help="workload cap")
    p.add_argument("--tx-interval", dest="tx_interval", type=int, help="rounds between arrivals")
    p.add_argument("--rogue-every", dest="rogue_every", type=int, help="every m-th tx conflicts")
    p.add_argument("--dump-dag", dest="dump_dag", help="write replica 0's DAG as JSON lines")
    p.set_defaults(func=cmd_avalanche_run)

    p = subs.add_parser("design", help="parameter search for a failure target")
    _add_common(p)
    p.add_argument("--n", type=int, help="total nodes")
    p.add_argument("--b", type=int, help="byzantine nodes")
    p.add_argument("--eps", type=float, help="failure probability target")
    p.add_argument("--phi", type=int, help="time horizon in rounds")
    p.add_argument("--k", type=int, help="pin the sample size")
    p.add_argument("--beta", type=int, help="pin the decision threshold")
    p.add_argument("--max-k", dest="max_k", type=int, help="search ceiling for k")
    p.set_defaults(func=cmd_design)

    p = subs.add_parser("analyze-chain", help="absorption quantities of a chain")
    _add_common(p)
    p.add_argument("--protocol", choices=["slush", "snowflake"], help="chain family")
    p.add_argument("--c", type=int, help="correct nodes")
    p.add_argument("--b", type=int, help="byzantine pressure (snowflake only)")
    p.add_argument("--k", type=int, help="sample size")
    p.add_argument("--a", type=int, help="quorum size (default ceil(alpha*k))")
    p.add_argument("--alpha", type=float, help="quorum fraction")
    p.add_argument("--start", type=int, help="initial red count (default c//2)")
    p.add_argument("--population", type=int, help="sampling universe override")
    p.set_defaults(func=cmd_analyze_chain)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        file_cfg = load_config(args.config) if args.config else {}
        return args.func(args, file_cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
