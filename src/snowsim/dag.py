"""Append-only transaction DAG with per-conflict-set voting state.

Multi-decree consensus here reuses the single-decree counter machinery,
spread over a growing graph. Every (transaction, consumed output) pair
becomes one vertex. Vertices spending the same output are grouped into a
conflict set, and each conflict set runs what amounts to one Snowball
contest: it tracks a preferred member, the member last worked on, and a
consecutive-success counter. Instead of per-color counters, a vertex
earns a single one-shot chit when its only query round succeeds, and its
confidence is the count of chits in its reflexive progeny. Parent edges
entangle contests, because a positive vote for a vertex endorses its
entire ancestry, so one query advances many contests at once.

A ``Vertex`` is immutable and shared between replicas. A ``DagState``
is single-owner and mutable. Operations mutate in place and raise on
misuse: unknown ids, missing parents, repeated queries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Container, Iterable, Optional, Sequence

GENESIS_ID = "genesis"

_ORIGIN_KEY = "origin"

# Parents a fresh transaction or no-op names.
FANIN = 2


class MissingDependencyError(ValueError):
    """A vertex arrived before some of its parents."""


class UnknownUtxoError(ValueError):
    """A generated transaction referenced an output nobody created."""


class RequeryError(RuntimeError):
    """A vertex was offered a second query result."""


@dataclass(frozen=True)
class DagParams:
    """Voting and commitment thresholds for DAG consensus.

    ``a`` is the yes-vote quorum out of ``k`` sampled peers and must be a
    strict majority of the sample. ``beta1`` commits a virtuous vertex
    early, and is also the number of quiet rounds after which a stuck
    virtuous vertex earns a no-op child; ``beta2`` commits the current
    streak owner of a contested set.
    """

    k: int
    a: int
    beta1: int
    beta2: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("sample size k must be at least 1")
        if not self.k // 2 < self.a <= self.k:
            raise ValueError(f"quorum a={self.a} must satisfy {self.k // 2} < a <= {self.k}")
        if self.beta1 < 1:
            raise ValueError("beta1 must be at least 1")
        if self.beta2 < self.beta1:
            raise ValueError("beta2 must be at least beta1")


@dataclass(frozen=True)
class Vertex:
    """One (transaction, consumed output) pair, immutable and fixed by its id.

    ``conflict_key`` names the consumed output; all spenders of that
    output share one conflict set. Replicas store the delivered object
    itself and record their own votes on it in ``DagState.chits``.
    """

    id: str
    data: bytes
    parents: tuple[str, ...]
    conflict_key: str


@dataclass
class ConflictSet:
    """Snowball-style bookkeeping for all spenders of one output."""

    members: list[str]
    pref: str
    last: str
    cnt: int = 0


def _digest(*fields: bytes) -> str:
    h = hashlib.sha256()
    for f in fields:
        h.update(len(f).to_bytes(4, "big"))
        h.update(f)
    return h.hexdigest()[:16]


def make_vertex(data: bytes, parents: Sequence[str], conflict_key: str) -> Vertex:
    """Construct a vertex whose id is a content hash of its fields."""
    vid = _digest(data, *(p.encode() for p in parents), conflict_key.encode())
    return Vertex(id=vid, data=data, parents=tuple(parents), conflict_key=conflict_key)


class DagState:
    """Single-owner DAG replica: vertices, conflict sets, and caches.

    ``vertices`` holds ``Vertex`` objects shared with other replicas;
    ``chits`` holds the ones this replica granted its chit. The genesis
    vertex has a chit from birth, so it is always confident, always
    preferred, and always an eligible parent of last resort. Its own id
    doubles as the first spendable output.

    Work is bounded by the unsettled part of the replica. A vertex is
    *settled* once it is accepted, alone in its conflict set and all its
    parents are settled; it stays so until another spend of its output
    arrives, which unsettles it and its settled progeny. Walks stop at
    settled vertices, so a settled vertex's counter and confidence are
    derived when read, from ``chits`` and the query order in ``queried``.
    Strong preference is remembered per vertex until some conflict set's
    preference flips. Commitment has one rule, applied at the end of each
    query result to the ancestry it updated and the children of each new
    acceptance (``is_accepted``), so ``accepted`` is always closed under it.
    """

    def __init__(self) -> None:
        self.vertices: dict[str, Vertex] = {}
        self._sets: dict[str, ConflictSet] = {}
        self.queried: dict[str, None] = {}  # in query order
        self.chits: set[str] = {GENESIS_ID}
        self._confidence: dict[str, int] = {}
        self.children: dict[str, list[str]] = {}
        self.accepted: set[str] = set()
        # Every acceptance in the order it happened, genesis first.
        self.accept_log: list[str] = []
        self.settled: set[str] = set()
        self._unsettled: dict[str, None] = {}  # kept in insertion order
        self._settled_tips: set[str] = set()  # settled, with no settled child
        self._strong: dict[str, bool] = {}
        self.minted: set[str] = set()
        self.clock: int = 0
        self._seq: dict[str, int] = {}
        self._order: list[str] = []
        self._query_cursor: int = 0
        # Round of the last counter progress or failed no-op check.
        self._quiet_since: dict[str, int] = {}
        # Next helper sequence number; a key means the vertex has had a helper.
        self._nop_seq: dict[str, int] = {}
        self._admit(Vertex(GENESIS_ID, b"", (), _ORIGIN_KEY))
        self._accept(GENESIS_ID)

    @property
    def conflict_sets(self) -> dict[str, ConflictSet]:
        """Every conflict set by its output, settled counters derived on read."""
        self._derive(self.settled)
        return self._sets

    # ------------------------------------------------------------------
    # insertion

    def _admit(self, v: Vertex) -> None:
        self.vertices[v.id] = v
        self._seq[v.id] = len(self._seq)
        self._order.append(v.id)
        self.children[v.id] = []
        for p in v.parents:
            self.children[p].append(v.id)
        self._confidence[v.id] = int(v.id in self.chits)
        self._quiet_since[v.id] = self.clock
        self._unsettled[v.id] = None
        cs = self._sets.get(v.conflict_key)
        if cs is None:
            self._sets[v.conflict_key] = ConflictSet([v.id], pref=v.id, last=v.id)
        else:
            if cs.members[0] in self.settled:  # settled means alone in its set
                self._unsettle(cs.members[0])
            cs.members.append(v.id)

    def on_receive_tx(self, v: Vertex) -> None:
        """Insert ``v`` if unknown. Idempotent; parents must already exist."""
        if v.id in self.vertices:
            return
        missing = [p for p in v.parents if p not in self.vertices]
        if missing:
            raise MissingDependencyError(f"parents not yet delivered: {missing}")
        self._admit(v)

    def mint_utxo(self, utxo: str) -> None:
        """Register an externally created spendable output."""
        self.minted.add(utxo)

    def on_generate_tx(self, data: bytes, inputs: Sequence[str]) -> list[str]:
        """Create one vertex per consumed output and insert them all.

        Every vertex of the transaction shares the payload and the parent
        list, since parents are named by the transaction itself. Returns
        the new vertex ids in input order.
        """
        if not inputs:
            raise UnknownUtxoError("a transaction must consume at least one output")
        if len(set(inputs)) != len(inputs):
            raise UnknownUtxoError("a transaction cannot consume one output twice")
        unknown = [u for u in inputs if u not in self.minted and u not in self.vertices]
        if unknown:
            raise UnknownUtxoError(f"unknown outputs: {unknown}")
        parents = tuple(sorted(self.parent_selection(FANIN), key=self._seq.__getitem__))
        ids = []
        for utxo in inputs:
            vtx = make_vertex(data, parents, utxo)
            self.on_receive_tx(vtx)
            ids.append(vtx.id)
        return ids

    # ------------------------------------------------------------------
    # walks and the settled cut

    def _climb(self, starts: Iterable[str], stop: Container[str]) -> set[str]:
        # starts plus every ancestor reachable without entering stop
        seen = set(starts)
        stack = list(seen)
        while stack:
            for p in self.vertices[stack.pop()].parents:
                if p not in seen and p not in stop:
                    seen.add(p)
                    stack.append(p)
        return seen

    def reflexive_ancestors(self, tid: str, stop: Container[str] = ()) -> list[str]:
        """``tid`` and every ancestor reachable from it through parent edges
        without entering ``stop``, ordered oldest-first by insertion.

        The default empty ``stop`` gives the whole reflexive ancestry.
        Ancestors of settled vertices are settled, so with ``stop`` the
        settled set no unsettled ancestor hides behind the cut; with
        another replica's vertex table it gives what that replica lacks.
        """
        return sorted(self._climb((tid,), stop), key=self._seq.__getitem__)

    def _descend(self, root: str, stop: Container[str] = ()) -> set[str]:
        # root plus every descendant reachable without entering stop
        seen = {root}
        stack = [root]
        while stack:
            for ch in self.children[stack.pop()]:
                if ch not in seen and ch not in stop:
                    seen.add(ch)
                    stack.append(ch)
        return seen

    def _accept(self, tid: str) -> None:
        self.accepted.add(tid)
        self.accept_log.append(tid)
        stack = [tid]
        while stack:
            t = stack.pop()
            v = self.vertices[t]
            if (
                t in self._unsettled
                and t in self.accepted
                and len(self._sets[v.conflict_key].members) == 1
                and all(p in self.settled for p in v.parents)
            ):
                del self._unsettled[t]
                self.settled.add(t)
                self._settled_tips.add(t)
                self._settled_tips.difference_update(v.parents)
                self._strong.pop(t, None)
                stack.extend(self.children[t])

    def _unsettle(self, root: str) -> None:
        # A second spend of a settled vertex's output: it and its settled
        # progeny become ordinary vertices again, with their derived values.
        # Their quiet clocks stay stale: no-op sweeps skip accepted vertices.
        gone = self._descend(root, self._unsettled)
        self._derive(gone)
        self.settled -= gone
        self._unsettled = dict.fromkeys(sorted([*self._unsettled, *gone], key=self._seq.__getitem__))
        self._settled_tips = {
            s for s in self.settled if not any(ch in self.settled for ch in self.children[s])
        }

    def _derive(self, targets: Iterable[str]) -> None:
        # A settled target is alone in its set and is its pref and last, so
        # store as its confidence the chits in its reflexive progeny and as its
        # counter the successes since the last failed query of that progeny.
        rank = {q: i for i, q in enumerate(self.queried)}
        for s in targets:
            progeny = self._descend(s)
            cnt = 0
            for q in sorted((q for q in progeny if q in rank), key=rank.__getitem__):
                cnt = cnt + 1 if q in self.chits else 0
            self._confidence[s] = sum(q in self.chits for q in progeny)
            self._sets[self.vertices[s].conflict_key].cnt = cnt

    # ------------------------------------------------------------------
    # confidence and preference

    def confidence(self, tid: str) -> int:
        """Chits collected across the reflexive progeny of ``tid``."""
        if tid in self.settled:
            self._derive((tid,))
        return self._confidence[tid]

    def is_preferred(self, tid: str) -> bool:
        v = self.vertices[tid]
        return self._sets[v.conflict_key].pref == tid

    def is_contested(self, tid: str) -> bool:
        """True when another vertex spends the same output as ``tid``."""
        return len(self._sets[self.vertices[tid].conflict_key].members) > 1

    def is_strongly_preferred(self, tid: str) -> bool:
        """True when ``tid`` and all its ancestors are preferred in their
        conflict sets. Settled vertices always are; other answers are kept
        until some preference flips."""
        if tid in self.settled:
            return True
        known = self._strong
        got = known.get(tid)
        if got is not None:
            return got
        # Depth first with all()'s short circuit over each parent list; a
        # vertex waits on the stack while an unknown parent is resolved.
        todo = [tid]
        while todo:
            t = todo[-1]
            v = self.vertices[t]
            answer: Optional[bool] = self._sets[v.conflict_key].pref == t
            if answer:
                for p in v.parents:
                    if p in self.settled:
                        continue
                    got = known.get(p)
                    if got is None:
                        todo.append(p)
                        answer = None
                        break
                    if not got:
                        answer = False
                        break
            if answer is not None:
                known[t] = answer
                todo.pop()
        return known[tid]

    def on_query(self, v: Vertex) -> int:
        """Answer a peer's query: insert if new, vote on strong preference."""
        self.on_receive_tx(v)
        return int(self.is_strongly_preferred(v.id))

    # ------------------------------------------------------------------
    # query resolution

    def record_query_result(self, tid: str, yes_votes: int, params: DagParams) -> None:
        """Apply the outcome of ``tid``'s one query round.

        At quorum the vertex joins ``chits`` and every reflexive ancestor's
        conflict set updates preference and its consecutive counter; below
        quorum it never earns a chit here and those counters reset. The walk
        stops at settled ancestors, whose values are derived when read. The
        commitment pass (``is_accepted``) then runs from ``tid``.
        """
        if tid not in self.vertices:
            raise KeyError(tid)
        if tid in self.queried:
            raise RequeryError(f"{tid} was already queried")
        self.queried[tid] = None
        self.clock += 1
        ancestors = self.reflexive_ancestors(tid, self.settled)
        if yes_votes >= params.a:
            self.chits.add(tid)
            for aid in ancestors:
                self._confidence[aid] += 1
                self._quiet_since[aid] = self.clock
            for aid in ancestors:
                cs = self._sets[self.vertices[aid].conflict_key]
                if self._confidence[aid] > self._confidence[cs.pref]:
                    cs.pref = aid
                    self._strong.clear()
                if aid != cs.last:
                    cs.last = aid
                    cs.cnt = 1
                else:
                    cs.cnt += 1
        else:
            for aid in ancestors:
                self._sets[self.vertices[aid].conflict_key].cnt = 0
        self.is_accepted(tid, params.beta1, params.beta2)

    def advance_clock(self, rounds: int = 1) -> None:
        """Let scheduler rounds pass without any query resolving."""
        if rounds < 0:
            raise ValueError("cannot rewind the clock")
        self.clock += rounds

    def next_unqueried(self) -> Optional[str]:
        """Oldest known vertex still waiting for its query round.

        Returns the same id until that vertex is resolved. Genesis never
        queries. None means this replica has no pending work.
        """
        while self._query_cursor < len(self._order):
            vid = self._order[self._query_cursor]
            if vid != GENESIS_ID and vid not in self.queried:
                return vid
            self._query_cursor += 1
        return None

    # ------------------------------------------------------------------
    # decisions

    def is_accepted(self, tid: str, beta1: int, beta2: int) -> bool:
        """Apply the commitment rule to ``tid`` and its unsettled ancestors,
        oldest first, then to the children of each vertex that commits,
        until nothing new commits; report whether ``tid`` is accepted.

        A virtuous vertex commits early once its whole parent set is
        accepted and its counter reaches ``beta1``. In a contested set
        only the current streak owner can commit, at ``beta2``; handing
        the counter to the set alone would commit every member at once.
        By the time a vertex is judged its parents have been, so the
        accepted set itself is the memo, and acceptance is permanent.
        ``record_query_result`` ends with this pass, so under its
        thresholds ``accepted`` is closed after every public call.
        """
        todo = self.reflexive_ancestors(tid, self.settled)
        for t in todo:  # grows by the children of each vertex that commits
            if t in self.accepted:
                continue
            v = self.vertices[t]
            cs = self._sets[v.conflict_key]
            if (cs.cnt >= beta2 and cs.last == t) or (
                len(cs.members) == 1
                and cs.cnt >= beta1
                and all(p in self.accepted for p in v.parents)
            ):
                self._accept(t)
                todo.extend(self.children[t])
        return tid in self.accepted

    # ------------------------------------------------------------------
    # growth

    def parent_selection(self, fanin: int) -> set[str]:
        """Pick up to ``fanin`` parents for a fresh transaction.

        Eligible vertices are strongly preferred with positive confidence;
        of those, only ones with no eligible child are used, so selection
        sits at the frontier and retreats toward genesis when the frontier
        is contested. Genesis itself always qualifies as a last resort.
        The newest eligible vertices win. Settled vertices are always
        eligible, so only those without a settled child can sit on the
        frontier.
        """
        if fanin < 1:
            raise ValueError("parent fan-in must be at least 1")

        def eligible(vid: str) -> bool:
            return vid in self.settled or (
                self._confidence[vid] > 0 and self.is_strongly_preferred(vid)
            )

        frontier = [
            vid
            for vid in (*self._unsettled, *self._settled_tips)
            if eligible(vid) and not any(eligible(ch) for ch in self.children[vid])
        ]
        frontier.sort(key=self._seq.__getitem__, reverse=True)
        return set(frontier[:fanin])

    def emit_nops(self, params: DagParams) -> list[Vertex]:
        """One no-op sweep over the unsettled vertices; returns the no-ops
        it inserted.

        A vertex earns a no-op child when it is virtuous real traffic, not
        yet accepted, its whole ancestry is accepted, no unresolved query
        will still reach it, and for ``beta1`` rounds neither has its
        counter moved nor has this check failed on it. Once it has had a
        helper it skips that quiet window, so each resolved helper is
        followed by another until the vertex is accepted. Helpers get
        normal parent selection, which lets one helper bump the whole
        unaccepted tail.
        """
        waiting = (v for v in self._order[self._query_cursor :] if v not in self.queried)
        pending = self._climb(waiting, self.settled) - self.accepted
        out: list[Vertex] = []
        for vid in list(self._unsettled):
            if vid in self.accepted or vid in pending:
                continue
            if vid not in self._nop_seq and self.clock - self._quiet_since[vid] < params.beta1:
                continue
            nop = self._nop_for(vid)
            if nop is None:
                self._quiet_since[vid] = self.clock
            else:
                out.append(nop)
                pending |= self._climb((nop.id,), self.settled) - self.accepted
        return out

    def _nop_for(self, tid: str) -> Optional[Vertex]:
        # Insert and return a no-op child for tid if it is starved, else None.
        v = self.vertices[tid]
        if v.conflict_key.startswith("nop:") or self.is_contested(tid):
            return None  # filler does not beget filler
        if not self.accepted.issuperset(self._climb(v.parents, self.settled)):
            return None
        # Fall back to a direct edge when the frontier would not cover tid.
        sel = self.parent_selection(FANIN)
        if not any(tid in self._climb((pp,), self.settled) for pp in sel):
            sel = {tid}
        parents = tuple(sorted(sel, key=self._seq.__getitem__))
        # The sequence number separates repeat helpers for one vertex
        # (a failed helper reuses the same parents); emissions that agree
        # on parents and sequence hash identically on every replica.
        seq = self._nop_seq.get(tid, 0)
        while True:
            key = "nop:" + _digest(tid.encode(), seq.to_bytes(4, "big"), *(p.encode() for p in parents))
            nop = make_vertex(b"nop", parents, key)
            if nop.id not in self.vertices:
                break
            seq += 1
        self._nop_seq[tid] = seq + 1
        self.on_receive_tx(nop)
        return nop

    # ------------------------------------------------------------------
    # bookkeeping and export

    def export_json_lines(self) -> list[str]:
        """Serialize every vertex, parents before children, one JSON object
        per line. Stable across runs for identical histories."""
        self._derive(self.settled)
        lines = []
        for vid in self._order:
            v = self.vertices[vid]
            lines.append(
                json.dumps(
                    {
                        "id": v.id,
                        "parents": list(v.parents),
                        "conflict_key": v.conflict_key,
                        "chit": int(vid in self.chits),
                        "confidence": self._confidence[vid],
                    },
                    separators=(",", ":"),
                )
            )
        return lines
