"""Check that the benchmark is steady on one commit.

    python3 perfbench/steady.py

Runs two sets of five untraced runs of every workload in BENCHMARK.json,
each run as long as its ``run_seconds`` and with its own seed (set A takes
seeds 1..5, set B seeds 6..10), then one traced run per workload with seed
1. For each end-to-end metric it prints each set's median and quartiles,
the spread (distance between the quartiles as a share of the median) of
each set and of all runs together, and whether the two sets agree: both
spreads within the metric's bound (``setup_s`` excepted), the second median
no worse than the first by more than the bound, and the same share of
failed operations. It also prints the tracing overhead, the traced run's
mean round time minus the untraced one at the same seed. Exits 1 if any
check disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    seconds = bench["run_seconds"]
    agree = True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[run(workload, seed, seconds, 0) for seed in range(1 + s * REPEATS, 1 + (s + 1) * REPEATS)]
                for s in range(2)]
        print(f"\n{workload}")
        shares = [Fraction(sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs)) for runs in sets]
        print(f"  failed share: A {float(shares[0]):.6g}  B {float(shares[1]):.6g}  all correct: "
              f"{all(r['correct'] for runs in sets for r in runs)}")
        agree &= shares[0] == shares[1]
        for metric in bench["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            (ma, qa1, qa3, sa), (mb, qb1, qb3, sb) = spread(vals[0]), spread(vals[1])
            pooled = spread(vals[0] + vals[1])[3]
            worse = (mb - ma) / ma if lower else (ma - mb) / ma
            ok = worse <= bound and (name == "setup_s" or max(sa, sb) <= bound)
            agree &= ok
            print(f"  {name:14s} A {ma:.6g} [{qa1:.6g}, {qa3:.6g}] spread {sa:.3f} | "
                  f"B {mb:.6g} [{qb1:.6g}, {qb3:.6g}] spread {sb:.3f} | all spread {pooled:.3f} "
                  f"| B worse by {worse:+.3f} | bound {bound} {'ok' if ok else 'DISAGREE'}")
        traced = run(workload, 1, seconds, 1)
        overhead = traced["metrics"]["traced.run_s"]["value"] - sets[0][0]["metrics"]["run_s"]["value"]
        print(f"  tracing overhead at seed 1: {overhead:+.4g} s per round "
              f"({overhead / sets[0][0]['metrics']['run_s']['value']:+.1%})")
    print("\nsteady" if agree else "\nNOT steady")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
