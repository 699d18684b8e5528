"""Round-based runner for DAG consensus over many replicas.

Each correct node keeps a ``DagState`` replica, built when the node
first acts or is queried; replicas share the immutable vertex objects
and keep their own votes. One round is one node's turn (round-robin): it
picks its oldest unresolved vertex, queries k peers sampled uniformly
from the rest of the network, and folds the votes in. Byzantine peers
withhold their votes, which counts as a no, the strongest move available
to them inside this model since conflicting spends cannot be forged for
outputs they do not own. Gossip is modelled as delivery-on-demand: a
queried peer first learns the vertex's whole ancestry, then votes.

A workload of fresh transactions arrives on a fixed schedule. Each one
spends a newly minted output; optionally every m-th becomes a pair of
conflicting spends issued at two different nodes. After its turn a node
gives a no-op child to each starved vertex: a virtuous one whose ancestry
is accepted, that no pending query will reach, and whose counter has been
quiet for beta1 rounds (``DagState.emit_nops``). No-ops hash identically
on every replica, so independent emissions converge to one shared vertex.

The cost of a round follows the unsettled part of the replicas, not
their history. A delivery walks back only to the vertices the receiver
already holds. The query's own walk and the commitment pass that ends it
(``DagState.is_accepted``, the one place the commitment rule is applied)
stop at settled vertices (accepted, alone in their conflict set, with
settled parents), as does the no-op sweep; strong preference is cached
per vertex until some preference flips; and the global tally only reads
each replica's log of new acceptances.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from snowsim.dag import DagParams, DagState
from snowsim.sampling import generator


@dataclass(frozen=True, kw_only=True)
class AvalancheConfig:
    """Network shape, workload schedule, and protocol knobs for one run.

    ``tx_interval`` rounds pass between transaction arrivals (default:
    one full scheduler sweep). ``tx_count`` caps the workload; None keeps
    issuing for the entire run. ``rogue_every`` of m turns every m-th
    transaction into a conflicting pair; None keeps all traffic virtuous.
    """

    n: int
    b: int = 0
    params: DagParams
    rounds: int
    seed: int = 0
    tx_interval: Optional[int] = None
    tx_count: Optional[int] = None
    rogue_every: Optional[int] = None
    export_replica: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("a network needs at least two nodes")
        if self.n > np.iinfo(np.int64).max:
            raise ValueError(f"n={self.n} must fit an int64 node index")
        if not 0 <= self.b < self.n:
            raise ValueError("byzantine count must satisfy 0 <= b < n")
        if self.c < 2:
            raise ValueError("need at least two correct nodes")
        if self.rounds < 1:
            raise ValueError("round budget must be positive")
        if self.params.k > self.n - 1:
            raise ValueError("sample size exceeds the rest of the network")
        if self.params.a > self.c - 1:
            raise ValueError(
                f"quorum a={self.params.a} exceeds the {self.c - 1} correct peers a sample "
                "can hold, so no query could succeed"
            )
        if self.tx_interval is not None and self.tx_interval < 1:
            raise ValueError("transaction interval must be at least 1 round")
        if self.tx_count is not None and self.tx_count < 0:
            raise ValueError("transaction cap cannot be negative")
        if self.rogue_every is not None and self.rogue_every < 2:
            raise ValueError("rogue cadence must leave room for virtuous traffic")
        if self.export_replica is not None and not 0 <= self.export_replica < self.c:
            raise ValueError("export replica must name a correct node")

    @property
    def c(self) -> int:
        return self.n - self.b

    @property
    def effective_interval(self) -> int:
        return self.c if self.tx_interval is None else self.tx_interval


@dataclass(frozen=True)
class IssuedTx:
    """One workload arrival: its vertices, issue round, and kind."""

    index: int
    vertex_ids: tuple[str, ...]
    round: int
    rogue: bool


@dataclass(frozen=True)
class AvalancheOutcome:
    """What one run produced.

    ``accept_rounds`` maps a vertex id to the round at which the last
    correct node accepted it (global acceptance). ``violations`` counts
    (node, conflict set) pairs holding more than one accepted member and
    must always be zero. ``hostages`` are virtuous vertices left with an
    uncommitted contested ancestor: they attached below a conflicting
    spend whose set never settled, and liveness does not extend to them.
    ``dag_export`` holds the serialized replica named by the config's
    ``export_replica``, empty when none was requested.
    """

    rounds_used: int
    messages_sent: int
    issued: tuple[IssuedTx, ...]
    accept_rounds: dict[str, int]
    violations: int
    nops_issued: int
    hostages: frozenset[str]
    dag_export: tuple[str, ...] = ()

    def virtuous_ids(self) -> set[str]:
        return {vid for tx in self.issued if not tx.rogue for vid in tx.vertex_ids}

    def latencies(self) -> dict[str, int]:
        """Issue-to-global-acceptance round counts for accepted workload."""
        issue_round = {vid: tx.round for tx in self.issued for vid in tx.vertex_ids}
        return {
            vid: self.accept_rounds[vid] - issue_round[vid]
            for vid in issue_round
            if vid in self.accept_rounds
        }

    @property
    def accepted(self) -> int:
        """Workload vertices that every correct node accepted."""
        return sum(vid in self.accept_rounds for tx in self.issued for vid in tx.vertex_ids)

    def messages_per_accepted_per_node(self, c: int) -> float:
        """Messages per accepted workload vertex per correct node; infinite
        when nothing was accepted."""
        accepted = self.accepted
        return self.messages_sent / (accepted * c) if accepted else float("inf")


def _deliver_ancestry(src: DagState, dst: DagState, tid: str) -> None:
    # Only what the receiver lacks, oldest first, which satisfies
    # parent-before-child on arrival.
    if tid not in dst.vertices:
        for aid in src.reflexive_ancestors(tid, dst.vertices):
            dst.on_receive_tx(src.vertices[aid])


def run_avalanche(cfg: AvalancheConfig) -> AvalancheOutcome:
    """Run the configured network for its round budget and tally results."""
    c, n, k = cfg.c, cfg.n, cfg.params.k
    p = cfg.params
    gen = generator(cfg.seed)
    # A replica is built when first looked up, so a node costs nothing until
    # it acts or is queried.
    dags: defaultdict[int, DagState] = defaultdict(DagState)
    issued: list[IssuedTx] = []
    accept_count: dict[str, int] = {}
    accept_rounds: dict[str, int] = {}
    messages = 0
    nops = 0
    next_index = 0
    interval = cfg.effective_interval

    for r in range(1, cfg.rounds + 1):
        if (cfg.tx_count is None or next_index < cfg.tx_count) and (r - 1) % interval == 0:
            rogue = cfg.rogue_every is not None and (next_index + 1) % cfg.rogue_every == 0
            utxo = f"w{next_index}"
            if rogue:
                first = int(gen.integers(c))
                second = (first + 1 + int(gen.integers(c - 1))) % c
                ids = []
                for who, tag in ((first, b"a"), (second, b"b")):
                    dags[who].mint_utxo(utxo)
                    ids += dags[who].on_generate_tx(b"tx%d/%s" % (next_index, tag), [utxo])
                issued.append(IssuedTx(next_index, tuple(ids), r, True))
            else:
                who = int(gen.integers(c))
                dags[who].mint_utxo(utxo)
                ids = dags[who].on_generate_tx(b"tx%d" % next_index, [utxo])
                issued.append(IssuedTx(next_index, tuple(ids), r, False))
            next_index += 1

        u = (r - 1) % c
        dag = dags[u]
        # Only a node's own turn accepts anything, so the global tally reads
        # its acceptance log from here; genesis, accepted at birth, is before.
        seen = len(dag.accept_log)
        tid = dag.next_unqueried()
        if tid is None:
            dag.advance_clock(1)
        else:
            vtx = dag.vertices[tid]
            yes = 0
            for raw in gen.choice(n - 1, size=k, replace=False):
                slot = int(raw)
                v = slot + (slot >= u)
                if v >= c:
                    continue  # a withheld vote is a no
                _deliver_ancestry(dag, dags[v], tid)
                yes += dags[v].on_query(vtx)
            messages += k
            dag.record_query_result(tid, yes, p)
        nops += len(dag.emit_nops(p))
        for vid in dag.accept_log[seen:]:
            got = accept_count.get(vid, 0) + 1
            accept_count[vid] = got
            if got == c:
                accept_rounds[vid] = r

    violations = 0
    for dag in dags.values():
        spent = Counter(dag.vertices[vid].conflict_key for vid in dag.accepted)
        violations += sum(count > 1 for count in spent.values())
    hostages: set[str] = set()
    virtuous = {vid for tx in issued if not tx.rogue for vid in tx.vertex_ids}
    in_order = [dags[v] for v in sorted(dags)]
    for vid in virtuous - set(accept_rounds):
        for dag in in_order:
            if vid not in dag.vertices:
                continue
            # A contested ancestor is never settled nor behind a settled one.
            for a in dag.reflexive_ancestors(vid, dag.settled):
                if a != vid and dag.is_contested(a) and a not in accept_rounds:
                    hostages.add(vid)
                    break
            break
    export: tuple[str, ...] = ()
    if cfg.export_replica is not None:
        export = tuple(dags[cfg.export_replica].export_json_lines())
    return AvalancheOutcome(
        rounds_used=cfg.rounds,
        messages_sent=messages,
        issued=tuple(issued),
        accept_rounds=accept_rounds,
        violations=violations,
        nops_issued=nops,
        hostages=frozenset(hostages),
        dag_export=export,
    )
