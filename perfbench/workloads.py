"""The four workloads: inputs made from a seed, the timed call, the checks.

Each workload runs in rounds. A round's inputs depend only on the run's
seed and the round's index, every round attempts the same operations, and
the checks of a round decide which of its operations failed. The binary
workloads, design analysis included, call ``snowsim.cli.main`` in-process,
as a user's ``snowsim`` command would; the DAG workloads call
``snowsim.sim.run_avalanche``, whose outcome carries the acceptance rounds,
hostages and replica export that their checks read.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

Z = 5.0  # standard errors allowed by every statistical check
ANCHOR = ((10000, 6250, 200, 180), 5.616e-19)


@dataclass
class Checked:
    """What the checks of one round found."""

    attempted: int
    sim_rounds: float
    bad: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, problem: str, ops=None) -> None:
        """Fail ``ops`` (every operation of the round if None) unless ``ok``."""
        if not ok:
            self.problems.append(problem)
            self.bad.update(range(self.attempted) if ops is None else ops)


class Patches:
    """Replaces attributes by wrappers of their current value and puts the
    originals back, the last replaced first."""

    def __init__(self) -> None:
        self._undo: list = []

    def wrap(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def recorder(into: list):
    """A wrapper for ``Patches.wrap`` that keeps every result in ``into``."""

    def wrapper(fn):
        def record(*args, **kwargs):
            result = fn(*args, **kwargs)
            into.append(result)
            return result

        return record

    return wrapper


class Capture:
    """Keeps what the engines return, which the CLI does not print.

    It replaces the names the callers look up with thin recorders; the
    cost is one extra call per engine run or replica.
    """

    def __init__(self) -> None:
        self.batches: list = []
        self.replicas: list = []

    def install(self, patches: Patches) -> None:
        import snowsim.cli as cli
        import snowsim.sim.avalanche as avalanche

        for attr in ("run_slush_batch", "run_snow_batch"):
            patches.wrap(cli, attr, recorder(self.batches))
        patches.wrap(avalanche, "DagState", recorder(self.replicas))

    def take(self) -> tuple[list, list]:
        out = (self.batches[:], self.replicas[:])
        self.batches.clear()
        self.replicas.clear()
        return out


def cli_call(argv: list[str]) -> int:
    import snowsim.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def read_csv(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text().splitlines() if ln.strip()]


def close(x: float, y: float, rel: float = 1e-12) -> bool:
    return math.isclose(x, y, rel_tol=rel, abs_tol=1e-300)


# ----------------------------------------------------------------------
# shared checks


def check_report(chk: Checked, csv_row: dict, rows: list[dict], ops: range, c: int, k: int) -> None:
    """Per-trial rows against each other, and the aggregate row against them."""
    for op, row in zip(ops, rows):
        chk.expect(close(row["per_node_iters"], row["rounds"] / c), f"trial {op}: per-node iterations", [op])
        chk.expect(row["violations"] == 0, f"trial {op}: conflicting decisions", [op])
        chk.expect(
            row["messages"] % k == 0 and row["messages"] <= k * row["rounds"],
            f"trial {op}: {row['messages']} messages over {row['rounds']} rounds", [op],
        )
    mean_rounds = sum(r["rounds"] for r in rows) / len(rows)
    mean_iters = sum(r["per_node_iters"] for r in rows) / len(rows)
    chk.expect(
        close(float(csv_row["rounds"]), mean_rounds)
        and close(float(csv_row["per_node_iters"]), mean_iters)
        and int(csv_row["messages"]) == sum(r["messages"] for r in rows)
        and int(csv_row["violations"]) == sum(r["violations"] for r in rows),
        f"aggregate row {csv_row['config_hash']} is not the mean of its trials", ops,
    )


def check_design(chk: Checked, d: dict, n: int, b: int, eps: float, phi: int, ops=None) -> None:
    """A design's C1 and C2, recomputed; beta must be the smallest that fits."""
    import oracles

    c = n - b
    k, a, beta, delta, s_ps = d["k"], d["a"], d["beta"], d["delta"], d["s_ps"]
    chk.expect(a == math.ceil((n - b) / n * k), f"design n={n}: quorum {a} at k={k}", ops)
    up, down, c1, c2, c2_below = oracles.design_bounds(n, b, phi, k, a, beta, delta, s_ps)
    drift = up[s_ps:c] >= down[s_ps:c] * (1 - 1e-9)
    below = s_ps == c // 2 + 1 or up[s_ps - 1] < down[s_ps - 1] * (1 - 1e-9)
    chk.expect(bool(drift.all()) and below, f"design n={n}: s_ps={s_ps} is not the phase shift", ops)
    chk.expect(c1 <= eps and close(c1, d["c1_prob"], 1e-6),
               f"design n={n}: C1 {c1:.6e} vs reported {d['c1_prob']:.6e}", ops)
    chk.expect(c2 <= eps and close(c2, d["c2_prob"], 1e-6),
               f"design n={n}: C2 {c2:.6e} vs reported {d['c2_prob']:.6e}", ops)
    chk.expect(beta == 1 or c2_below > eps,
               f"design n={n}: beta={beta} is not the smallest, C2 at beta-1 is {c2_below:.3e}", ops)


# ----------------------------------------------------------------------


class SlushTable:
    """``snowsim slush-table`` over the paper's cells from a 50/50 start."""

    name = "slush-table"
    cells = (600, 1200, 2400)
    k, alpha, trials = 10, 0.8, 100

    def __init__(self) -> None:
        self._oracle: dict[int, tuple[float, float]] = {}

    def inputs(self, seed: int, index: int, out: Path) -> dict:
        prefix = out / f"slush-{index}"
        argv = [
            "slush-table", "--cells", ",".join(map(str, self.cells)), "--k", str(self.k),
            "--alpha", str(self.alpha), "--trials", str(self.trials),
            "--seed", str(seed * 1000 + 10 * index), "--out", str(prefix),
        ]
        return {"argv": argv, "prefix": prefix}

    def run(self, inp: dict, cap: Capture) -> dict:
        code = cli_call(inp["argv"])
        return {"code": code, "batches": cap.take()[0]}

    def oracle(self, c: int) -> tuple[float, float]:
        """Mean and variance of per-node iterations to unanimity from c/2."""
        import oracles

        if c not in self._oracle:
            a = math.ceil(self.alpha * self.k)
            up, down = oracles.chain(c, 0, self.k, a, pop=c - 1)
            _, mean, var = oracles.absorption(up, down)
            self._oracle[c] = (mean[c // 2] / c, var[c // 2] / c**2)
        return self._oracle[c]

    def check(self, inp: dict, raw: dict) -> Checked:
        import oracles

        T = self.trials
        chk = Checked(attempted=T * len(self.cells), sim_rounds=0.0)
        chk.expect(raw["code"] == 0 and len(raw["batches"]) == len(self.cells), f"exit code {raw['code']}")
        if chk.bad:
            return chk
        aggregate = read_csv(inp["prefix"].with_suffix(".csv"))
        per_trial = read_jsonl(inp["prefix"].with_suffix(".jsonl"))
        for idx, (c, row, batch) in enumerate(zip(self.cells, aggregate, raw["batches"])):
            ops = range(idx * T, (idx + 1) * T)
            rows = [r for r in per_trial if r["config_hash"] == row["config_hash"]]
            chk.expect(len(rows) == T, f"c={c}: {len(rows)} trial rows", ops)
            if len(rows) != T:
                continue
            chk.sim_rounds += sum(r["rounds"] for r in rows)
            for op, ok, r in zip(ops, batch.converged, rows):
                chk.expect(bool(ok), f"trial {op}: no unanimity", [op])
                chk.expect(r["messages"] == self.k * r["rounds"], f"trial {op}: messages", [op])
            check_report(chk, row, rows, ops, c, self.k)
            x = [r["per_node_iters"] for r in rows]
            m, s2 = statistics.fmean(x), statistics.variance(x)
            mu, sigma2 = self.oracle(c)
            chk.expect(abs(m - mu) <= Z * math.sqrt(s2 / T), f"c={c}: mean {m:.4f}, chain {mu:.4f}", ops)
            m4 = statistics.fmean((v - m) ** 4 for v in x)
            se = max(math.sqrt(max(m4 - s2 * s2 * (T - 3) / (T - 1), 0.0) / T), sigma2 * math.sqrt(2 / (T - 1)))
            chk.expect(
                abs(s2 - sigma2) <= Z * se and sigma2 <= 2.5**2,
                f"c={c}: sd {math.sqrt(s2):.4f}, chain {math.sqrt(sigma2):.4f}, gate 2.5", ops,
            )
            red = float(batch.all_red[batch.converged].mean())
            chk.expect(abs(red - 0.5) <= oracles.binomial_halfwidth(T, Z), f"c={c}: all-red share {red}", ops)
        return chk


class SnowAdversary:
    """The design analysis of ``DesignChain``, then ``snowsim design`` at the
    paper's point and ``snowsim snow-run`` at the returned parameters for
    both deciding variants under each strategic adversary. The snow trials
    are the round's first operations, the analysis invocations its last."""

    name = "snow-adversary"
    n, b, eps, phi, initial_reds, trials = 100, 10, 1e-6, 10_000, 45, 50
    runs = [(v, adv) for v in ("snowflake", "snowball") for adv in ("balance-keeper", "refuse", "minority-push")]

    def __init__(self) -> None:
        self.analysis = DesignChain()

    def inputs(self, seed: int, index: int, out: Path) -> dict:
        return {"seed": seed * 1000 + 10 * index, "out": out / f"snow-{index}",
                "analysis": self.analysis.inputs(seed, index, out)}

    def _design_argv(self, prefix: Path) -> list[str]:
        return ["design", "--n", str(self.n), "--b", str(self.b), "--eps", str(self.eps),
                "--phi", str(self.phi), "--out", str(prefix)]

    def run(self, inp: dict, cap: Capture) -> dict:
        out = inp["out"]
        raw: dict = {"analysis": self.analysis.run(inp["analysis"], cap)}
        raw["design_code"] = cli_call(self._design_argv(out.with_name(out.name + "-design")))
        if raw["design_code"] != 0:
            return raw
        d = json.loads(out.with_name(out.name + "-design.json").read_text())
        raw["design"] = d
        k, a, beta = d["k"], d["a"], d["beta"]
        if k > 1:
            raw["smaller_k"] = cli_call(self._design_argv(out.with_name(out.name + "-smaller"))
                                        + ["--k", str(k - 1)])
        raw["codes"] = []
        for idx, (variant, adversary) in enumerate(self.runs):
            raw["codes"].append(cli_call([
                "snow-run", "--variant", variant, "--adversary", adversary,
                "--n", str(self.n), "--b", str(self.b), "--k", str(k), "--a", str(a),
                "--beta", str(beta), "--phi", str(self.phi),
                "--initial-reds", str(self.initial_reds), "--trials", str(self.trials),
                "--seed", str(inp["seed"] + idx), "--out", str(out.with_name(f"{out.name}-{idx}")),
            ]))
        raw["batches"] = cap.take()[0]
        return raw

    def check(self, inp: dict, raw: dict) -> Checked:
        chk = self._check_snow(inp, raw)
        part = self.analysis.check(inp["analysis"], raw["analysis"])
        chk.bad.update(chk.attempted + op for op in part.bad)
        chk.problems += part.problems
        chk.attempted += part.attempted
        return chk

    def _check_snow(self, inp: dict, raw: dict) -> Checked:
        T = self.trials
        chk = Checked(attempted=T * len(self.runs), sim_rounds=0.0)
        chk.expect(raw["design_code"] == 0, f"design exit code {raw['design_code']}")
        if chk.bad:
            return chk
        d = raw["design"]
        check_design(chk, d, self.n, self.b, self.eps, self.phi)
        if d["k"] > 1:
            smaller = inp["out"].with_name(inp["out"].name + "-smaller.json")
            chk.expect(
                raw["smaller_k"] == 1 and json.loads(smaller.read_text())["infeasible"],
                f"design --k {d['k'] - 1} is not infeasible",
            )
        c, k = self.n - self.b, d["k"]
        for idx, ((variant, adversary), code) in enumerate(zip(self.runs, raw["codes"])):
            ops = range(idx * T, (idx + 1) * T)
            chk.expect(code == 0, f"{variant}/{adversary}: exit code {code}", ops)
            if code != 0:
                continue
            prefix = inp["out"].with_name(f"{inp['out'].name}-{idx}")
            rows = read_jsonl(prefix.with_suffix(".jsonl"))
            chk.expect(len(rows) == T, f"{variant}/{adversary}: {len(rows)} trial rows", ops)
            if len(rows) != T:
                continue
            chk.sim_rounds += sum(r["rounds"] for r in rows)
            check_report(chk, read_csv(prefix.with_suffix(".csv"))[0], rows, ops, c, k)
            batch = raw["batches"][idx]
            for op, reds, blues in zip(ops, batch.red_decisions, batch.blue_decisions):
                chk.expect(reds == 0 or blues == 0, f"trial {op}: {reds} red and {blues} blue decisions", [op])
            if adversary == "refuse":
                for op, r in zip(ops, rows):
                    chk.expect(r["rounds"] < self.phi, f"trial {op}: {variant}/refuse trial reaches phi", [op])
        return chk


class Avalanche:
    """``run_avalanche`` at n=100, k=10, a=8, beta1=11, beta2=150 with a
    transaction every 200 rounds; ``contested`` adds vote-withholding
    peers and makes every fifth transaction a conflicting pair."""

    k, a, beta1, beta2, interval = 10, 8, 11, 150, 200

    def __init__(self, name: str, n: int, b: int, rounds: int, rogue_every: int | None, margin: int = 0):
        self.name, self.n, self.b, self.rounds = name, n, b, rounds
        self.rogue_every, self.margin = rogue_every, margin

    def inputs(self, seed: int, index: int, out: Path) -> dict:
        from snowsim.dag import DagParams
        from snowsim.sim import AvalancheConfig

        return {"cfg": AvalancheConfig(
            n=self.n, b=self.b, params=DagParams(k=self.k, a=self.a, beta1=self.beta1, beta2=self.beta2),
            rounds=self.rounds, seed=seed * 1000 + index, tx_interval=self.interval,
            rogue_every=self.rogue_every, export_replica=0,
        )}

    def run(self, inp: dict, cap: Capture) -> dict:
        import snowsim.sim as sim

        outcome = sim.run_avalanche(inp["cfg"])
        return {"outcome": outcome, "replicas": cap.take()[1]}

    def check(self, inp: dict, raw: dict) -> Checked:
        import oracles

        out, replicas = raw["outcome"], raw["replicas"]
        c = self.n - self.b
        chk = Checked(attempted=len(out.issued), sim_rounds=float(self.rounds))
        chk.expect(out.violations == 0, f"{out.violations} violations reported")
        doubles = sum(
            sum(m in dag.accepted for m in cs.members) > 1
            for dag in replicas for cs in dag.conflict_sets.values()
        )
        chk.expect(doubles == 0, f"{doubles} conflict sets with two accepted members")
        queries = sum(len(dag.queried) for dag in replicas)
        chk.expect(len(replicas) == c and out.messages_sent == self.k * queries,
                   f"{out.messages_sent} messages for {queries} queries")
        for problem in oracles.recount_confidence(list(out.dag_export))[:5]:
            chk.expect(False, "export: " + problem)
        virtuous = {vid for tx in out.issued if not tx.rogue for vid in tx.vertex_ids}
        if self.rogue_every is None:
            accepted = 0
            for op, tx in enumerate(out.issued):
                done = [vid in out.accept_rounds for vid in tx.vertex_ids]
                accepted += sum(done)
                if tx.round <= self.rounds - self.margin:
                    chk.expect(
                        all(done) and all(out.accept_rounds[v] > tx.round for v in tx.vertex_ids),
                        f"tx{tx.index} issued at round {tx.round} is not accepted everywhere", [op],
                    )
            per = out.messages_sent / (accepted * c) if accepted else math.inf
            chk.expect(per <= 3 * self.k, f"{per:.2f} messages per accepted transaction per node")
        else:
            for op, tx in enumerate(out.issued):
                if tx.rogue:
                    both = sum(vid in out.accept_rounds for vid in tx.vertex_ids)
                    chk.expect(both <= 1, f"tx{tx.index}: both spends accepted", [op])
            chk.expect(out.hostages <= virtuous, "hostages outside the virtuous vertices")
        return chk


class DesignChain:
    """``snowsim design`` at points larger than the paper's with b = n/10,
    and ``snowsim analyze-chain`` from the README example up to c = 10^4,
    k = 200: the analysis part of the ``snow-adversary`` round. It simulates
    nothing, so its operations add no scheduler rounds."""

    designs = [(300, 30, 1e-6, 30_000), (1000, 100, 1e-6, 100_000)]

    def inputs(self, seed: int, index: int, out: Path) -> dict:
        start = random.Random(seed * 1000 + index).randint(900, 1300)
        chains = [(2000, 10, 8, start), (2400, 10, 8, 1200), (10000, 200, 180, 5000)]
        return {"chains": chains, "out": out / f"design-{index}"}

    def run(self, inp: dict, cap: Capture) -> dict:
        out = inp["out"]
        codes = []
        for i, (n, b, eps, phi) in enumerate(self.designs):
            codes.append(cli_call(["design", "--n", str(n), "--b", str(b), "--eps", str(eps),
                                   "--phi", str(phi), "--out", f"{out}-d{i}"]))
        for i, (c, k, a, start) in enumerate(inp["chains"]):
            codes.append(cli_call(["analyze-chain", "--c", str(c), "--k", str(k), "--a", str(a),
                                   "--start", str(start), "--out", f"{out}-c{i}"]))
        return {"codes": codes}

    def check(self, inp: dict, raw: dict) -> Checked:
        import oracles

        out = inp["out"]
        chk = Checked(attempted=len(raw["codes"]), sim_rounds=0.0)
        for op, code in enumerate(raw["codes"]):
            chk.expect(code == 0, f"invocation {op}: exit code {code}", [op])
        for op, (n, b, eps, phi) in enumerate(self.designs):
            if raw["codes"][op] == 0:
                check_design(chk, json.loads(Path(f"{out}-d{op}.json").read_text()), n, b, eps, phi, [op])
        base = len(self.designs)
        for i, (c, k, a, start) in enumerate(inp["chains"]):
            op = base + i
            if raw["codes"][op] != 0:
                continue
            got = json.loads(Path(f"{out}-c{i}.json").read_text())
            chk.expect(abs(got["p_red"] + got["p_blue"] - 1) <= 1e-12, f"c={c}: p_red + p_blue", [op])
            if 2 * start == c:
                chk.expect(abs(got["p_blue"] - 0.5) <= 1e-9, f"c={c}: P(blue) {got['p_blue']} at the midpoint", [op])
            if c <= 2400:
                up, down = oracles.chain(c, 0, k, a, pop=c)
                p0, mean, _ = oracles.absorption(up, down)
                chk.expect(abs(got["p_blue"] - p0[start]) <= 1e-8, f"c={c}: P(blue) {got['p_blue']} vs {p0[start]}", [op])
                t = got["expected_per_node_iterations"]
                chk.expect(close(t, mean[start] / c, 1e-8), f"c={c}: time {t} vs {mean[start] / c}", [op])
            if (c, k, a) == (10000, 200, 180):
                from snowsim.sampling import TailQuery, hyper_tail

                query, want = ANCHOR
                for name, value in (("snowsim", hyper_tail(TailQuery(*query))), ("scipy", oracles.tail(*query))):
                    chk.expect(abs(value / want - 1) <= 0.01, f"anchor tail from {name}: {value:.4e}", [op])
        return chk


WORKLOADS = {
    w.name: w
    for w in (
        SlushTable(),
        SnowAdversary(),
        Avalanche("avalanche-virtuous", n=100, b=0, rounds=11_000, rogue_every=None, margin=4_000),
        Avalanche("avalanche-contested", n=100, b=10, rounds=4_000, rogue_every=5),
    )
}
