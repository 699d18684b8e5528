"""Self-test of the output checks: real output passes, a corrupted copy fails.

    python3 perfbench/selftest.py

Each workload runs once at a reduced size; then every check is shown to
reject an output corrupted in the one way it guards against (a shifted cell
mean, one confidence changed by 1, a design with beta one below the minimum,
and so on). Exits 1 on the first check that lets a corruption through.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import run
import workloads as W

OUT = run.OUT / "selftest"
failures: list[str] = []


def verdict(label: str, chk: W.Checked, needle: str | None) -> None:
    """``needle`` None means the output must pass; otherwise some problem
    containing ``needle`` must have failed at least one operation."""
    if needle is None:
        ok = not chk.bad
    else:
        ok = bool(chk.bad) and any(needle in p for p in chk.problems)
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        failures.append(f"{label}: {chk.problems[:3]}")


class Files:
    """Report files of one run, restored to the real output after each case."""

    def __init__(self, *paths: Path) -> None:
        self.saved = {p: p.read_text() for p in paths}

    def restore(self) -> None:
        for p, text in self.saved.items():
            p.write_text(text)


def edit_jsonl(path: Path, fn) -> None:
    rows = W.read_jsonl(path)
    fn(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def edit_csv(path: Path, fn) -> None:
    lines = path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    rows = W.read_csv(path)
    fn(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text("\n".join(comments) + "\n" + buf.getvalue())


def reaggregate(prefix: Path) -> None:
    """Rewrite the aggregate rows as the means of the (edited) trial rows."""
    trials = W.read_jsonl(prefix.with_suffix(".jsonl"))

    def fix(rows):
        for row in rows:
            mine = [t for t in trials if t["config_hash"] == row["config_hash"]]
            row["rounds"] = repr(sum(t["rounds"] for t in mine) / len(mine))
            row["per_node_iters"] = repr(sum(t["per_node_iters"] for t in mine) / len(mine))
            row["messages"] = str(sum(t["messages"] for t in mine))

    edit_csv(prefix.with_suffix(".csv"), fix)


def slush(cap: W.Capture) -> None:
    w = W.SlushTable()
    w.cells, w.trials = (60, 120), 200
    inp = w.inputs(1, 0, OUT)
    raw = w.run(inp, cap)
    prefix = inp["prefix"]
    files = Files(prefix.with_suffix(".csv"), prefix.with_suffix(".jsonl"))
    verdict("slush-table: real output passes", w.check(inp, raw), None)
    c, k = w.cells[0], w.k
    first = W.read_csv(prefix.with_suffix(".csv"))[0]["config_hash"]

    def cell0(edit):
        def fn(rows):
            for r in rows:
                if r["config_hash"] == first:
                    edit(r)
        return fn

    def shift(r):
        r["rounds"] += 2 * c
        r["per_node_iters"] = r["rounds"] / c
        r["messages"] = k * int(r["rounds"])

    edit_jsonl(prefix.with_suffix(".jsonl"), cell0(shift))
    reaggregate(prefix)
    verdict("slush-table: cell mean shifted by 2 iterations", w.check(inp, raw), "mean")
    files.restore()

    mean = sum(r["rounds"] for r in W.read_jsonl(prefix.with_suffix(".jsonl")) if r["config_hash"] == first) / w.trials

    def widen(r):
        r["rounds"] = float(max(1, round(mean + 2 * (r["rounds"] - mean))))
        r["per_node_iters"] = r["rounds"] / c
        r["messages"] = k * int(r["rounds"])

    edit_jsonl(prefix.with_suffix(".jsonl"), cell0(widen))
    reaggregate(prefix)
    verdict("slush-table: cell spread doubled", w.check(inp, raw), "sd")
    files.restore()

    edit_csv(prefix.with_suffix(".csv"), lambda rows: rows[0].update(rounds=repr(float(rows[0]["rounds"]) + 1)))
    verdict("slush-table: aggregate row off its trials", w.check(inp, raw), "aggregate row")
    files.restore()

    edit_jsonl(prefix.with_suffix(".jsonl"), lambda rows: rows[0].update(messages=rows[0]["messages"] + k))
    verdict("slush-table: one trial's messages", w.check(inp, raw), "messages")
    files.restore()

    bad = copy.deepcopy(raw)
    bad["batches"][0].converged[3] = False
    verdict("slush-table: one trial not converged", w.check(inp, bad), "no unanimity")
    bad = copy.deepcopy(raw)
    bad["batches"][1].all_red[:] = True
    verdict("slush-table: every trial all red", w.check(inp, bad), "all-red share")


def snow(cap: W.Capture) -> None:
    w = W.SnowAdversary()
    w.trials = 10
    inp = w.inputs(1, 0, OUT)
    raw = w.run(inp, cap)
    verdict("snow-adversary: real output passes", w.check(inp, raw), None)

    bad = copy.deepcopy(raw)
    bad["design"]["beta"] -= 1
    verdict("snow-adversary: design with beta one below the minimum", w.check(inp, bad), "C2")
    bad = copy.deepcopy(raw)
    bad["design"]["c1_prob"] *= 1.01
    verdict("snow-adversary: design C1 off by 1%", w.check(inp, bad), "C1")
    bad = copy.deepcopy(raw)
    bad["design"]["s_ps"] += 1
    verdict("snow-adversary: phase shift one state late", w.check(inp, bad), "phase shift")
    bad = copy.deepcopy(raw)
    bad["smaller_k"] = 0
    verdict("snow-adversary: design feasible at k-1", w.check(inp, bad), "not infeasible")
    bad = copy.deepcopy(raw)
    bad["codes"][2] = 3
    verdict("snow-adversary: a run exits 3", w.check(inp, bad), "exit code")
    bad = copy.deepcopy(raw)
    bad["batches"][4].red_decisions[0] = 1
    bad["batches"][4].blue_decisions[0] = 1
    verdict("snow-adversary: conflicting decisions", w.check(inp, bad), "red and")
    bad = copy.deepcopy(raw)
    bad["analysis"]["codes"][-1] = 2
    chk = w.check(inp, bad)
    verdict("snow-adversary: an analysis invocation exits 2", chk, "exit code")
    if chk.bad != {chk.attempted - 1}:
        failures.append(f"snow-adversary: the analysis failure fails operations {sorted(chk.bad)}")

    refuse = w.runs.index(("snowball", "refuse"))
    prefix = inp["out"].with_name(f"{inp['out'].name}-{refuse}")
    files = Files(prefix.with_suffix(".csv"), prefix.with_suffix(".jsonl"))

    def stall(rows):
        rows[0]["rounds"] = float(w.phi)
        rows[0]["per_node_iters"] = rows[0]["rounds"] / (w.n - w.b)

    edit_jsonl(prefix.with_suffix(".jsonl"), stall)
    reaggregate(prefix)
    verdict("snow-adversary: one refuse trial reaches phi", w.check(inp, raw), "reaches phi")
    files.restore()
    edit_jsonl(prefix.with_suffix(".jsonl"), lambda rows: rows[0].update(violations=1))
    verdict("snow-adversary: a violation in the report", w.check(inp, raw), "conflicting decisions")
    files.restore()


def avalanche(cap: W.Capture) -> None:
    w = W.Avalanche("virtuous", n=20, b=0, rounds=4000, rogue_every=None, margin=2500)
    inp = w.inputs(1, 0, OUT)
    raw = w.run(inp, cap)
    out = raw["outcome"]
    verdict("avalanche-virtuous: real output passes", w.check(inp, raw), None)

    def with_outcome(**changes):
        return dict(raw, outcome=dataclasses.replace(out, **changes))

    export = list(out.dag_export)
    row = json.loads(export[1])
    row["confidence"] += 1
    verdict("avalanche: one confidence changed by 1",
            w.check(inp, with_outcome(dag_export=tuple(export[:1] + [json.dumps(row)] + export[2:]))), "recount")
    verdict("avalanche: a child exported before its parent",
            w.check(inp, with_outcome(dag_export=tuple([export[1], export[0]] + export[2:]))), "before its parent")
    first = out.issued[0].vertex_ids[0]
    verdict("avalanche-virtuous: an early transaction not accepted",
            w.check(inp, with_outcome(accept_rounds={v: r for v, r in out.accept_rounds.items() if v != first})),
            "not accepted everywhere")
    verdict("avalanche: a message not backed by a query",
            w.check(inp, with_outcome(messages_sent=out.messages_sent + 1)), "queries")
    verdict("avalanche: too many messages per accepted transaction",
            w.check(inp, with_outcome(messages_sent=out.messages_sent * 100)), "per accepted")
    verdict("avalanche: a violation reported", w.check(inp, with_outcome(violations=1)), "violations")

    w = W.Avalanche("contested", n=24, b=4, rounds=3000, rogue_every=5)
    inp = w.inputs(1, 0, OUT)
    raw = w.run(inp, cap)
    out = raw["outcome"]
    verdict("avalanche-contested: real output passes", w.check(inp, raw), None)
    rogue = next(tx for tx in out.issued if tx.rogue)
    both = dict(out.accept_rounds, **{v: 1 for v in rogue.vertex_ids})
    verdict("avalanche-contested: both spends accepted",
            w.check(inp, dict(raw, outcome=dataclasses.replace(out, accept_rounds=both))), "both spends")
    verdict("avalanche-contested: a rogue spend among the hostages",
            w.check(inp, dict(raw, outcome=dataclasses.replace(out, hostages=frozenset(rogue.vertex_ids)))),
            "hostages")
    replica = raw["replicas"][0]
    replica.accepted.update(rogue.vertex_ids)
    verdict("avalanche-contested: a replica accepts both spends", w.check(inp, raw), "two accepted members")


def design(cap: W.Capture) -> None:
    import snowsim.sampling as sampling

    w = W.DesignChain()
    inp = w.inputs(1, 0, OUT)
    raw = w.run(inp, cap)
    verdict("snow-adversary analysis: real output passes", w.check(inp, raw), None)

    def edit_json(path: Path, **changes):
        saved = path.read_text()
        path.write_text(json.dumps(dict(json.loads(saved), **changes)))
        return saved

    path = Path(f"{inp['out']}-d0.json")
    saved = edit_json(path, beta=json.loads(path.read_text())["beta"] - 1)
    verdict("snow-adversary analysis: design with beta one below the minimum", w.check(inp, raw), "C2")
    path.write_text(saved)

    path = Path(f"{inp['out']}-c0.json")
    got = json.loads(path.read_text())
    saved = edit_json(path, expected_per_node_iterations=got["expected_per_node_iterations"] * (1 + 1e-6))
    verdict("snow-adversary analysis: expected time off by 1e-6", w.check(inp, raw), "time")
    path.write_text(saved)
    saved = edit_json(path, p_blue=got["p_blue"] + 1e-6, p_red=got["p_red"] - 1e-6)
    verdict("snow-adversary analysis: absorption probability off by 1e-6", w.check(inp, raw), "P(blue)")
    path.write_text(saved)

    mid = next(i for i, (c, _, _, start) in enumerate(inp["chains"]) if 2 * start == c and c > 2400)
    path = Path(f"{inp['out']}-c{mid}.json")
    saved = edit_json(path, p_blue=0.5 + 1e-6, p_red=0.5 - 1e-6)
    verdict("snow-adversary analysis: symmetric chain off 1/2", w.check(inp, raw), "midpoint")
    path.write_text(saved)

    real = sampling.hyper_tail
    sampling.hyper_tail = lambda q: real(q) * 1.02
    try:
        verdict("snow-adversary analysis: anchor tail off by 2%", w.check(inp, raw), "anchor")
    finally:
        sampling.hyper_tail = real
    bad = dict(raw, codes=[2] + raw["codes"][1:])
    verdict("snow-adversary analysis: an invocation exits 2", w.check(inp, bad), "exit code")


def main() -> int:
    run.import_snowsim()
    OUT.mkdir(parents=True, exist_ok=True)
    patches = W.Patches()
    cap = W.Capture()
    cap.install(patches)
    try:
        for part in (slush, snow, avalanche, design):
            part(cap)
    finally:
        patches.restore()
    if failures:
        print("\n".join(["", "checks that let a corruption through:"] + failures))
        return 1
    print("\nevery check rejects its corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
