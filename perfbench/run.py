"""Run one snowsim workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: snowsim is imported from ``src/``
there and nowhere else. The run first starts fresh interpreters that only
import snowsim and build the first round's inputs (``setup_s``), then runs
whole rounds of the workload, at least one, starting another while at least
half a round's mean timed phase of ``--seconds`` is left, and checks each
round's outputs after its timed call. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it wraps the entry points of each
module in spans and reports the per-layer metrics instead. The last line of
standard output is one JSON object; problems found by the checks go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 3

# One process per workload, with no more threads than processors.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, str(len(os.sched_getaffinity(0))))


def import_snowsim():
    if not (SRC / "snowsim" / "__init__.py").is_file():
        sys.exit(f"error: no snowsim sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import snowsim
    import snowsim.cli  # noqa: F401  (the CLI imports every layer)

    if Path(snowsim.__file__).resolve().parent != SRC / "snowsim":
        sys.exit(f"error: imported snowsim from {snowsim.__file__}, not from {SRC}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh interpreter to import snowsim and build the
    first round's inputs, measured on the system-wide monotonic clock."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.setup_probe and (args.seconds is None or args.seconds < 1 or args.trace is None):
        parser.error("--seconds (at least 1) and --trace are required")
    import_snowsim()
    work = WORKLOADS[args.workload]
    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        work.inputs(args.seed, 0, out)
        print(time.monotonic())
        return 0

    setup = setup_seconds(args.workload, args.seed)
    import resource

    from workloads import Capture, Patches

    patches = Patches()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer, patches)
    cap = Capture()
    cap.install(patches)

    attempted = failed = 0
    timed = sim_rounds = 0.0
    peak_rss_mb = None
    start = time.perf_counter()
    index = 0
    # Start another round while at least half a round's mean timed phase is left.
    while index == 0 or time.perf_counter() - start + timed / index / 2 <= args.seconds:
        inp = work.inputs(args.seed, index, out)
        t0 = time.perf_counter()
        raw = work.run(inp, cap)
        t1 = time.perf_counter()
        timed += t1 - t0
        if tracer is not None:
            tracer.end_round()
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        chk = work.check(inp, raw)
        for problem in chk.problems:
            print(f"{args.workload} round {index}: {problem}", file=sys.stderr)
        attempted += chk.attempted
        failed += len(chk.bad)
        sim_rounds += chk.sim_rounds
        index += 1
    patches.restore()

    if tracer is not None:
        metrics = spans.layer_metrics(tracer)
        metrics["traced.run_s"] = timed / index
        tracer.write_spans(out / "last-round-spans.tsv.gz")
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    else:
        metrics = {
            "setup_s": setup,
            "run_s": timed / index,
            "rounds_per_s": sim_rounds / timed,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
