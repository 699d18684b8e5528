"""Spans around the public entry points of each snowsim module.

``install`` replaces the attribute each caller looks up (for example
``snowsim.cli.run_slush_batch`` or ``DagState.is_accepted``) with a wrapper
that records a span: name, parent span, start and end. Spans are kept in
compact arrays for one workload round at a time; ``end_round`` turns them
into per-layer figures. The spans of the last round are written out when the
run ends. A layer's self time is its span's duration minus the time its
direct child spans cover; a layer's time (``.s``) counts only spans that are
not nested in a span of the same name, so recursion is not counted twice.

Peak allocation of the batch engines is measured apart from their timing:
``tracemalloc`` slows numpy-heavy code several times over, so after each
round every batch call is repeated with ``phi`` capped at a few rounds under
``tracemalloc``. The engines allocate the same arrays whatever the round
budget, so the peak is that of the timed call.
"""

from __future__ import annotations

import dataclasses
import gzip
import inspect
import math
import statistics
import time
import tracemalloc
from array import array
from pathlib import Path
from typing import Callable

PROBE_PHI = 32
TAIL_REPLAY_CALLS = 2000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._open: list[int] = []  # per name id, spans of that name now open
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self._reset()
        self.rounds: list[dict[str, float]] = []
        self._last: tuple | None = None

    def _reset(self) -> None:
        # Cleared in place: the wrappers hold these arrays.
        for arr in (self.name_id, self.parent, self.start, self.end, self.outer):
            del arr[:]
        self.counts: dict[str, float] = {}
        self.probes: list[tuple[str, Callable, tuple, dict]] = []
        self.chains: list[tuple[int, int, int, int, int]] = []

    def count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``hook(tracer, fn, args,
        kwargs, result, seconds)`` may add counts after the call returns."""
        nid = self._id(name)
        perf = time.perf_counter
        name_id, parent, outer, start, end = self.name_id, self.parent, self.outer, self.start, self.end
        stack, open_ = self._stack, self._open

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth = open_[nid]
            outer.append(depth == 0)
            open_[nid] = depth + 1
            stack.append(idx)
            end.append(0.0)
            t0 = perf()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = t1 = perf()
                stack.pop()
                open_[nid] = depth
            if hook is not None:
                hook(self, fn, args, kwargs, result, t1 - t0)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------

    def end_round(self) -> None:
        """Turn the round's spans into figures, run the deferred probes."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        fig: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            fig[name + ".calls"] = fig.get(name + ".calls", 0.0) + 1
            fig[name + ".self"] = fig.get(name + ".self", 0.0) + dur[i] - child[i]
            if self.outer[i]:
                fig[name + ".s"] = fig.get(name + ".s", 0.0) + dur[i]
        for key, value in self.counts.items():
            fig["count." + key] = value
        emit = self._id("dag.emit_nops")
        starts = [self.start[i] for i in range(n) if self.name_id[i] == emit]
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        if gaps:
            tenth = max(1, len(gaps) // 10)
            fig["round_ms.first_decile"] = 1e3 * statistics.fmean(gaps[:tenth])
            fig["round_ms.last_decile"] = 1e3 * statistics.fmean(gaps[-tenth:])
        for key, fn, args, kwargs in self.probes:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            fig["peak." + key] = max(fig.get("peak." + key, 0.0), peak / 2**20)
        if self.chains:
            fig["tail.us_per_call"] = _replay_tails(self.chains)
        self.rounds.append(fig)
        self._last = tuple(array(a.typecode, a) for a in (self.name_id, self.parent, self.start, self.end))
        self._reset()

    def median(self, key: str) -> float:
        """The median over rounds of one round figure; 0 where never seen."""
        return statistics.median(r.get(key, 0.0) for r in self.rounds) if self.rounds else 0.0

    def write_spans(self, path: Path) -> None:
        """Write the last round's spans: name, parent index, start, duration."""
        if self._last is None:
            return
        name_id, parent, start, end = self._last
        t0 = start[0] if len(start) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart_us\tduration_us\n")
            for i in range(len(start)):
                out.write(
                    f"{i}\t{self.names[name_id[i]]}\t{parent[i]}\t"
                    f"{(start[i] - t0) * 1e6:.1f}\t{(end[i] - start[i]) * 1e6:.1f}\n"
                )


def _replay_tails(chains: list[tuple[int, int, int, int, int]]) -> float:
    """Microseconds per ``hyper_tail`` call over the queries the recorded
    chain builds made, taken at an even stride to bound the replay time."""
    from snowsim.sampling import TailQuery, hyper_tail

    queries = []
    for pop, c, b, k, a in chains:
        for i in range(1, c):
            queries.append(TailQuery(pop, i, k, a))
            queries.append(TailQuery(pop, c - i + b, k, a))
    stride = max(1, math.ceil(len(queries) / TAIL_REPLAY_CALLS))
    picked = queries[::stride]
    t0 = time.perf_counter()
    for q in picked:
        hyper_tail(q)
    return (time.perf_counter() - t0) * 1e6 / len(picked)


# ----------------------------------------------------------------------
# what gets wrapped


def _batch_hook(tr: Tracer, fn, args, kwargs, result, seconds):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    cfg = bound["cfg"]
    kind = "snow_batch" if "variant" in bound else "slush_batch"
    tr.count(kind + ".trial_rounds", bound["trials"] * int(result.rounds.max()))
    if kind == "snow_batch":
        tr.count(f"snow_batch.{bound['variant'].value}.{cfg.adversary.value}.s", seconds)
    probe = dict(bound, cfg=dataclasses.replace(cfg, phi=min(cfg.phi, PROBE_PHI)))
    tr.probes.append((kind, fn, (), probe))


def _chain_hook(tr: Tracer, fn, args, kwargs, result, seconds):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    c, b = result.c, bound.get("b", 0)
    pop = bound.get("population")
    tr.count("chains.states", c + 1)
    tr.chains.append((c + b if pop is None else pop, c, b, bound["k"], bound["a"]))


def _ancestors_hook(tr: Tracer, fn, args, kwargs, result, seconds):
    tr.count("dag.ancestor_len", len(result))


def _avalanche_hook(tr: Tracer, fn, args, kwargs, result, seconds):
    tr.count("avalanche.nops", result.nops_issued)


def install(tr: Tracer, patches) -> None:
    """Wrap each entry point in ``tr``'s spans through ``patches``
    (a ``workloads.Patches``), which puts the originals back."""
    import snowsim.analysis.design as design
    import snowsim.cli as cli
    import snowsim.sim as sim
    from snowsim.dag import DagState

    def patch(owner: object, attr: str, name: str, hook: Callable | None = None) -> None:
        patches.wrap(owner, attr, lambda fn: tr.wrap(name, fn, hook))

    patch(cli, "main", "cli")
    patch(cli, "run_slush_batch", "slush_batch", _batch_hook)
    patch(cli, "run_snow_batch", "snow_batch", _batch_hook)
    patch(cli, "format_csv", "reports.format")
    patch(cli, "format_jsonl", "reports.format")
    patch(cli, "feasibility_search", "design.feasibility_search")
    patch(design, "hitting_profile", "design.hitting_profile")
    patch(design, "run_length_beta", "design.run_length")
    patch(design, "run_length_tail", "design.run_length")
    patch(design, "phase_shift_index", "design.phase_shift")
    patch(design, "build_snowflake_chain", "chains.build", _chain_hook)
    patch(cli, "build_slush_chain", "chains.build", _chain_hook)
    patch(cli, "build_snowflake_chain", "chains.build", _chain_hook)
    patch(cli, "absorption_probability", "chains.solve")
    patch(cli, "expected_absorption_time", "chains.solve")
    patch(sim, "run_avalanche", "avalanche", _avalanche_hook)
    patch(DagState, "reflexive_ancestors", "dag.reflexive_ancestors", _ancestors_hook)
    for method in (
        "is_strongly_preferred",
        "is_accepted",
        "emit_nops",
        "record_query_result",
        "parent_selection",
        "on_receive_tx",
    ):
        patch(DagState, method, "dag." + method)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures, each the median over the traced run's rounds."""
    m = tr.median

    def per(num: str, den: str, scale: float) -> float:
        vals = [r.get(num, 0.0) * scale / r[den] if r.get(den) else 0.0 for r in tr.rounds]
        return statistics.median(vals) if vals else 0.0

    out = {
        "slush_batch.s": m("slush_batch.s"),
        "slush_batch.ns_per_trial_round": per("slush_batch.s", "count.slush_batch.trial_rounds", 1e9),
        "slush_batch.peak_alloc_mb": m("peak.slush_batch"),
        "snow_batch.s": m("snow_batch.s"),
        "snow_batch.ns_per_trial_round": per("snow_batch.s", "count.snow_batch.trial_rounds", 1e9),
        "snow_batch.peak_alloc_mb": m("peak.snow_batch"),
    }
    for variant in ("snowflake", "snowball"):
        for adversary in ("balance-keeper", "refuse", "minority-push"):
            key = f"snow_batch.{variant}.{adversary}.s"
            out[key] = m("count." + key)
    out.update(
        {
            "reports.format.s": m("reports.format.s"),
            "cli.self.s": m("cli.self"),
            "design.feasibility_search.s": m("design.feasibility_search.s"),
            "design.hitting_profile.s": m("design.hitting_profile.s"),
            "design.hitting_profile.calls": m("design.hitting_profile.calls"),
            "design.run_length.s": m("design.run_length.s"),
            "design.phase_shift.s": m("design.phase_shift.s"),
            "chains.build.s": m("chains.build.s"),
            "chains.build.us_per_state": per("chains.build.s", "count.chains.states", 1e6),
            "chains.solve.s": m("chains.solve.s"),
            "sampling.hyper_tail.us_per_call": m("tail.us_per_call"),
            "dag.reflexive_ancestors.s": m("dag.reflexive_ancestors.s"),
            "dag.reflexive_ancestors.calls": m("dag.reflexive_ancestors.calls"),
            "dag.reflexive_ancestors.mean_len": per(
                "count.dag.ancestor_len", "dag.reflexive_ancestors.calls", 1.0
            ),
            "dag.is_strongly_preferred.s": m("dag.is_strongly_preferred.s"),
            "dag.is_strongly_preferred.calls": m("dag.is_strongly_preferred.calls"),
            "dag.is_accepted.s": m("dag.is_accepted.s"),
            "dag.is_accepted.calls": m("dag.is_accepted.calls"),
            "dag.emit_nops.s": m("dag.emit_nops.s"),
            "dag.record_query_result.s": m("dag.record_query_result.s"),
            "dag.parent_selection.s": m("dag.parent_selection.s"),
            "dag.on_receive_tx.s": m("dag.on_receive_tx.s"),
            "avalanche.self.s": m("avalanche.self"),
            "avalanche.round_ms.first_decile": m("round_ms.first_decile"),
            "avalanche.round_ms.last_decile": m("round_ms.last_decile"),
            "avalanche.queries": m("dag.record_query_result.calls"),
            "avalanche.nops": m("count.avalanche.nops"),
        }
    )
    return out
