"""DAG ledger tests: golden nine-vertex replay, operation contracts, and
structure-level invariants driven by generated histories."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowsim.dag import (
    GENESIS_ID,
    DagParams,
    DagState,
    MissingDependencyError,
    RequeryError,
    UnknownUtxoError,
    Vertex,
    make_vertex,
)

UNIT = DagParams(k=1, a=1, beta1=2, beta2=3)

# The reference topology used across this file: nine vertices under
# genesis, two contested outputs (uA spent by T2/T3, uB by T6/T7/T9),
# queried in insertion order with T3, T6, T7 failing their round.
NINE_TOPOLOGY = [
    ("T1", (GENESIS_ID,), "u1"),
    ("T2", ("T1",), "uA"),
    ("T3", ("T1",), "uA"),
    ("T4", ("T2",), "u4"),
    ("T5", ("T2",), "u5"),
    ("T6", ("T3",), "uB"),
    ("T7", ("T3",), "uB"),
    ("T8", ("T4", "T5"), "u8"),
    ("T9", ("T5",), "uB"),
]
NINE_VOTES = {"T1": 1, "T2": 1, "T3": 0, "T4": 1, "T5": 1, "T6": 0, "T7": 0, "T8": 1, "T9": 1}
NINE_CONFIDENCE = {"T1": 6, "T2": 5, "T3": 0, "T4": 2, "T5": 3, "T6": 0, "T7": 0, "T8": 1, "T9": 1}


def replay_nine() -> DagState:
    dag = DagState()
    for vid, parents, key in NINE_TOPOLOGY:
        dag.on_receive_tx(Vertex(vid, b"", parents, key))
    for vid, _, _ in NINE_TOPOLOGY:
        dag.record_query_result(vid, NINE_VOTES[vid], UNIT)
    return dag


class TestNineVertexReplay:
    def test_confidences_exact(self):
        dag = replay_nine()
        got = {vid: dag.confidence(vid) for vid, _, _ in NINE_TOPOLOGY}
        assert got == NINE_CONFIDENCE

    def test_genesis_counts_every_chit_plus_its_own(self):
        dag = replay_nine()
        assert dag.confidence(GENESIS_ID) == 1 + sum(NINE_VOTES.values())

    def test_chits_match_votes(self):
        dag = replay_nine()
        assert {vid: int(vid in dag.chits) for vid in NINE_VOTES} == NINE_VOTES

    def test_preference_in_contested_sets(self):
        dag = replay_nine()
        assert dag.is_preferred("T2") and not dag.is_preferred("T3")
        assert dag.is_preferred("T9")
        assert not dag.is_preferred("T6") and not dag.is_preferred("T7")

    def test_strong_preference(self):
        dag = replay_nine()
        assert dag.is_strongly_preferred("T9")
        assert not dag.is_strongly_preferred("T6")
        # T6's failure is inherited by nothing, but T3's children are all
        # blocked by T3 losing its set to T2.
        assert not dag.is_strongly_preferred("T3")

    def test_parent_selection_hits_the_confident_frontier(self):
        dag = replay_nine()
        assert dag.parent_selection(2) == {"T8", "T9"}

    def test_export_is_topological_and_exact(self):
        dag = replay_nine()
        lines = dag.export_json_lines()
        rows = [json.loads(line) for line in lines]
        assert [r["id"] for r in rows[:1]] == [GENESIS_ID]
        seen: set[str] = set()
        for r in rows:
            assert all(p in seen for p in r["parents"])
            seen.add(r["id"])
        by_id = {r["id"]: r for r in rows}
        assert by_id["T8"] == {
            "id": "T8",
            "parents": ["T4", "T5"],
            "conflict_key": "u8",
            "chit": 1,
            "confidence": 1,
        }
        ordered = [by_id[vid]["confidence"] for vid, _, _ in NINE_TOPOLOGY]
        assert ordered == [6, 5, 0, 2, 3, 0, 0, 1, 1]


class TestReceive:
    def test_duplicate_insert_is_a_no_op(self):
        dag = DagState()
        v = Vertex("A", b"x", (GENESIS_ID,), "uA")
        dag.on_receive_tx(v)
        dag.record_query_result("A", 1, UNIT)
        before = (set(dag.chits), len(dag.vertices))
        dag.on_receive_tx(Vertex("A", b"x", (GENESIS_ID,), "uA"))
        assert dag.vertices["A"] is v
        assert (dag.chits, len(dag.vertices)) == before

    def test_missing_parent_rejected(self):
        dag = DagState()
        with pytest.raises(MissingDependencyError):
            dag.on_receive_tx(Vertex("B", b"", ("never-seen",), "uB"))

    def test_first_seen_keeps_preference(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"1", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("B", b"2", (GENESIS_ID,), "coin"))
        cs = dag.conflict_sets["coin"]
        assert cs.members == ["A", "B"]
        assert cs.pref == "A" and cs.last == "A" and cs.cnt == 0

    def test_inserted_chit_is_always_zero(self):
        # A chit granted on the sender does not travel with the vertex.
        sender, dag = DagState(), DagState()
        v = Vertex("A", b"", (GENESIS_ID,), "uA")
        sender.on_receive_tx(v)
        sender.record_query_result("A", 1, UNIT)
        dag.on_receive_tx(v)
        assert "A" in sender.chits and "A" not in dag.chits
        assert "A" not in dag.queried
        assert dag.confidence("A") == 0


class TestGenerate:
    def test_one_vertex_per_consumed_output(self):
        dag = DagState()
        dag.mint_utxo("in1")
        dag.mint_utxo("in2")
        ids = dag.on_generate_tx(b"pay", ["in1", "in2"])
        assert len(ids) == 2
        v1, v2 = (dag.vertices[i] for i in ids)
        assert v1.data == v2.data == b"pay"
        assert v1.parents == v2.parents == (GENESIS_ID,)
        assert {v1.conflict_key, v2.conflict_key} == {"in1", "in2"}
        assert all(len(dag.conflict_sets[v.conflict_key].members) == 1 for v in (v1, v2))

    def test_double_spend_shares_a_set(self):
        dag = DagState()
        dag.mint_utxo("coin")
        (a,) = dag.on_generate_tx(b"first", ["coin"])
        (b,) = dag.on_generate_tx(b"second", ["coin"])
        assert a != b
        assert set(dag.conflict_sets["coin"].members) == {a, b}
        assert dag.conflict_sets["coin"].pref == a

    def test_identical_transaction_is_idempotent(self):
        dag = DagState()
        dag.mint_utxo("coin")
        first = dag.on_generate_tx(b"pay", ["coin"])
        again = dag.on_generate_tx(b"pay", ["coin"])
        assert first == again
        assert len(dag.conflict_sets["coin"].members) == 1

    def test_vertex_ids_are_spendable(self):
        dag = DagState()
        (vid,) = dag.on_generate_tx(b"a", [GENESIS_ID])
        (child,) = dag.on_generate_tx(b"b", [vid])
        assert dag.vertices[child].conflict_key == vid

    def test_input_validation(self):
        dag = DagState()
        dag.mint_utxo("coin")
        with pytest.raises(UnknownUtxoError):
            dag.on_generate_tx(b"", [])
        with pytest.raises(UnknownUtxoError):
            dag.on_generate_tx(b"", ["coin", "coin"])
        with pytest.raises(UnknownUtxoError):
            dag.on_generate_tx(b"", ["nope"])

    def test_make_vertex_hash_is_stable_and_field_sensitive(self):
        base = make_vertex(b"d", ("p1", "p2"), "u")
        assert base.id == make_vertex(b"d", ("p1", "p2"), "u").id
        assert base.id != make_vertex(b"d2", ("p1", "p2"), "u").id
        assert base.id != make_vertex(b"d", ("p1",), "u").id
        assert base.id != make_vertex(b"d", ("p1", "p2"), "u2").id


class TestQueryResolution:
    def chain(self, dag: DagState, ids: list[str]) -> None:
        prev = GENESIS_ID
        for vid in ids:
            dag.on_receive_tx(Vertex(vid, b"", (prev,), f"u-{vid}"))
            prev = vid

    def test_success_bumps_every_ancestor_counter(self):
        dag = DagState()
        self.chain(dag, ["A", "B", "C"])
        for vid in ("A", "B", "C"):
            dag.record_query_result(vid, 1, UNIT)
        assert dag.conflict_sets["u-A"].cnt == 3
        assert dag.conflict_sets["u-B"].cnt == 2
        assert dag.conflict_sets["u-C"].cnt == 1
        assert [dag.confidence(v) for v in ("A", "B", "C")] == [3, 2, 1]

    def test_failure_resets_ancestors_and_freezes_chit(self):
        dag = DagState()
        self.chain(dag, ["A", "B", "C"])
        for vid in ("A", "B"):
            dag.record_query_result(vid, 1, UNIT)
        dag.record_query_result("C", 0, UNIT)
        assert "C" not in dag.chits
        assert dag.conflict_sets["u-A"].cnt == 0
        assert dag.conflict_sets["u-B"].cnt == 0
        with pytest.raises(RequeryError):
            dag.record_query_result("C", 1, UNIT)

    def test_requery_rejected_even_after_success(self):
        dag = DagState()
        self.chain(dag, ["A"])
        dag.record_query_result("A", 1, UNIT)
        with pytest.raises(RequeryError):
            dag.record_query_result("A", 1, UNIT)

    def test_below_quorum_counts_as_failure(self):
        params = DagParams(k=5, a=4, beta1=2, beta2=3)
        dag = DagState()
        self.chain(dag, ["A"])
        dag.record_query_result("A", 3, params)
        assert "A" not in dag.chits

    def test_preference_flips_when_confidence_overtakes(self):
        dag = DagState()
        dag.mint_utxo("coin")
        (a,) = dag.on_generate_tx(b"first", ["coin"])
        (b,) = dag.on_generate_tx(b"second", ["coin"])
        assert dag.conflict_sets["coin"].pref == a
        dag.record_query_result(b, 1, UNIT)
        cs = dag.conflict_sets["coin"]
        assert cs.pref == b and cs.last == b and cs.cnt == 1

    def test_on_query_votes_by_strong_preference(self):
        dag = replay_nine()
        fresh = Vertex("X1", b"", ("T9",), "uX")
        assert dag.on_query(fresh) == 1
        assert "X1" in dag.vertices
        blocked = Vertex("X2", b"", ("T6",), "uY")
        assert dag.on_query(blocked) == 0

    def test_unknown_vertex_lookups_raise(self):
        dag = DagState()
        with pytest.raises(KeyError):
            dag.confidence("missing")
        with pytest.raises(KeyError):
            dag.record_query_result("missing", 1, UNIT)


class TestAcceptance:
    def test_genesis_is_accepted_from_birth(self):
        dag = DagState()
        assert dag.is_accepted(GENESIS_ID, 10, 20)

    def test_early_commitment_needs_accepted_parents(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.record_query_result("A", 1, UNIT)
        dag.record_query_result("B", 1, UNIT)
        # cnt(A)=2 reaches beta1 and A's parent is genesis.
        assert dag.is_accepted("A", 2, 10)
        # cnt(B)=1 stays short of beta1.
        assert not dag.is_accepted("B", 2, 10)

    def test_unaccepted_parent_blocks_fast_path(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.on_receive_tx(Vertex("C", b"", ("B",), "uC"))
        dag.record_query_result("C", 1, UNIT)
        # cnt(B)=1 would meet beta1=1, but B's parent A (cnt=1 < 2) is not
        # accepted, so neither commits.
        assert not dag.is_accepted("B", 2, 10)
        assert dag.conflict_sets["uB"].cnt == 1

    def test_streak_owner_commits_in_contested_set(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("X", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("Y", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("Y1", b"", ("Y",), "u1"))
        dag.on_receive_tx(Vertex("Y2", b"", ("Y",), "u2"))
        for vid in ("Y", "Y1", "Y2"):
            dag.record_query_result(vid, 1, UNIT)
        cs = dag.conflict_sets["coin"]
        assert cs.cnt == 3 and cs.last == "Y"
        assert dag.is_accepted("Y", 2, 3)
        # The set counter alone must not commit the loser.
        assert not dag.is_accepted("X", 2, 3)

    def test_one_pass_accepts_ancestors_behind_a_streak_owner(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("X", b"", ("A",), "coin"))
        dag.on_receive_tx(Vertex("Y", b"", ("A",), "coin"))
        dag.on_receive_tx(Vertex("Y1", b"", ("Y",), "u1"))
        dag.on_receive_tx(Vertex("Y2", b"", ("Y",), "u2"))
        for vid in ("Y", "Y1", "Y2"):
            dag.record_query_result(vid, 1, UNIT)
        # Y owns its set's streak at beta2; A, alone in its set with
        # cnt 3 >= beta1 under accepted genesis, commits in the same pass.
        assert dag.is_accepted("Y", 2, 3)
        assert "A" in dag.accepted
        assert "X" not in dag.accepted

    def test_acceptance_is_sticky(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.record_query_result("A", 1, UNIT)
        dag.record_query_result("B", 1, UNIT)
        assert dag.is_accepted("A", 2, 10)
        dag.on_receive_tx(Vertex("C", b"", ("A",), "uC"))
        dag.record_query_result("C", 0, UNIT)
        assert dag.conflict_sets["uA"].cnt == 0
        assert dag.is_accepted("A", 2, 10)

    def test_deep_chain_does_not_recurse_out(self):
        dag = DagState()
        prev = GENESIS_ID
        for i in range(3000):
            vid = f"v{i}"
            dag.on_receive_tx(Vertex(vid, b"", (prev,), f"u{i}"))
            prev = vid
        assert not dag.is_accepted(prev, 2, 10)


class TestParentSelection:
    def test_fresh_dag_offers_genesis(self):
        dag = DagState()
        assert dag.parent_selection(2) == {GENESIS_ID}

    def test_contested_frontier_retreats(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.record_query_result("A", 1, UNIT)
        dag.mint_utxo("coin")
        dag.on_receive_tx(Vertex("D1", b"", ("A",), "coin"))
        dag.on_receive_tx(Vertex("D2", b"", ("A",), "coin"))
        # Both double-spends sit at the frontier with zero confidence, so
        # selection falls back to their parent.
        assert dag.parent_selection(2) == {"A"}

    def test_truncation_prefers_newer_vertices(self):
        dag = DagState()
        for vid in ("A", "B", "C"):
            dag.on_receive_tx(Vertex(vid, b"", (GENESIS_ID,), f"u{vid}"))
            dag.record_query_result(vid, 1, UNIT)
        assert dag.parent_selection(2) == {"B", "C"}
        assert dag.parent_selection(3) == {"A", "B", "C"}

    def test_fanin_validation(self):
        with pytest.raises(ValueError):
            DagState().parent_selection(0)


class TestNop:
    def stuck_vertex(self) -> DagState:
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.record_query_result("A", 1, UNIT)
        return dag

    def test_starved_virtuous_vertex_gets_a_child(self):
        dag = self.stuck_vertex()
        dag.advance_clock(UNIT.beta1)
        [nop] = dag.emit_nops(UNIT)
        assert nop.parents == ("A",)
        assert nop.id in dag.vertices
        assert len(dag.conflict_sets[nop.conflict_key].members) == 1

    def test_quiet_window_is_beta1_rounds(self):
        dag = self.stuck_vertex()
        dag.advance_clock(UNIT.beta1 - 1)
        assert dag.emit_nops(UNIT) == []
        dag.advance_clock(1)
        assert len(dag.emit_nops(UNIT)) == 1

    def test_no_second_helper_while_one_is_pending(self):
        dag = self.stuck_vertex()
        dag.advance_clock(10)
        assert len(dag.emit_nops(UNIT)) == 1
        dag.advance_clock(10)
        assert dag.emit_nops(UNIT) == []

    def test_catchup_continues_until_accepted(self):
        dag = self.stuck_vertex()
        dag.advance_clock(10)
        [first] = dag.emit_nops(UNIT)
        dag.record_query_result(first.id, 1, UNIT)
        # beta1 reached through the helper, so the vertex commits and the
        # catch-up pipeline shuts off; the helper itself is filler.
        assert dag.is_accepted("A", UNIT.beta1, UNIT.beta2)
        dag.advance_clock(10)
        assert dag.emit_nops(UNIT) == []

    def test_catchup_reissues_after_failed_helper(self):
        dag = self.stuck_vertex()
        dag.advance_clock(10)
        [first] = dag.emit_nops(UNIT)
        dag.record_query_result(first.id, 0, UNIT)
        # The failure reset the counter; a fresh distinct helper follows
        # immediately, with no second quiet wait.
        [second] = dag.emit_nops(UNIT)
        assert second.id != first.id
        assert second.parents == ("A",)

    def test_failed_check_waits_out_a_quiet_window(self):
        dag = DagState()
        dag.mint_utxo("coin")
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("X", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.record_query_result("A", 1, UNIT)
        dag.record_query_result("B", 1, UNIT)
        dag.advance_clock(2)
        # B is quiet but its parent A is undecided: the check fails at 4.
        assert dag.emit_nops(UNIT) == []
        dag.on_receive_tx(Vertex("C", b"", ("A",), "uC"))
        dag.record_query_result("C", 1, UNIT)
        # A's streak now commits it, but B waits a window from its check.
        assert dag.clock == 5
        assert dag.emit_nops(UNIT) == []
        dag.advance_clock(1)
        assert [nop.parents for nop in dag.emit_nops(UNIT)] == [("B", "C")]

    def test_fresh_vertex_is_not_stuck(self):
        dag = self.stuck_vertex()
        assert dag.emit_nops(UNIT) == []

    def test_accepted_vertex_never_nops(self):
        dag = self.stuck_vertex()
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.record_query_result("B", 1, UNIT)
        assert dag.is_accepted("A", 2, 3)
        dag.advance_clock(10)
        # The one helper is B's.
        assert [nop.parents for nop in dag.emit_nops(UNIT)] == [("B",)]

    def test_contested_vertex_never_nops(self):
        dag = DagState()
        dag.mint_utxo("coin")
        dag.on_receive_tx(Vertex("X", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("Y", b"", (GENESIS_ID,), "coin"))
        dag.record_query_result("X", 1, UNIT)
        dag.advance_clock(10)
        assert dag.emit_nops(UNIT) == []

    def test_undecided_ancestry_blocks_nop(self):
        dag = DagState()
        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        dag.record_query_result("B", 1, UNIT)
        dag.advance_clock(10)
        assert dag.emit_nops(UNIT) == []

    def test_pending_query_reaches_through_an_accepted_streak_owner(self):
        dag = DagState()
        dag.mint_utxo("coin")
        for vid, parents, key in [
            ("A", (GENESIS_ID,), "uA"),
            ("Y", ("A",), "coin"),
            ("Z", (GENESIS_ID,), "coin"),
            ("C1", ("Y",), "u1"),
            ("C2", ("Y",), "u2"),
            ("D", ("A",), "uD"),
            ("D2", ("A",), "uD2"),
        ]:
            dag.on_receive_tx(Vertex(vid, b"", parents, key))
        history = [("A", 0), ("Z", 0), ("Y", 1), ("D", 0), ("C1", 1), ("D2", 0), ("C2", 1)]
        for vid, yes in history:
            dag.record_query_result(vid, yes, UNIT)
        # Y commits as its set's streak owner; a failed query on A alone
        # between each pair of successes under Y kept A short of beta1.
        assert dag.is_accepted("Y", UNIT.beta1, UNIT.beta2)
        assert "A" not in dag.accepted
        dag.on_receive_tx(Vertex("W", b"", ("Y",), "uW"))
        dag.advance_clock(3)
        # W's query will walk through the unsettled Y and bump A.
        assert dag.emit_nops(UNIT) == []


# ---------------------------------------------------------------------------
# generated histories


def run_history(pool: int, ops: list[tuple[int, bool]], honest: bool = False) -> DagState:
    """Spend from a small output pool, querying each new vertex once.

    With ``honest`` the vote is the node's own answer to its query, which
    is the rule correct peers follow; otherwise the drawn bit stands in
    for an arbitrary network outcome.
    """
    dag = DagState()
    for u in range(pool):
        dag.mint_utxo(f"u{u}")
    for i, (u, vote) in enumerate(ops):
        ids = dag.on_generate_tx(f"tx{i}".encode(), [f"u{u}"])
        for vid in ids:
            if honest:
                yes = int(dag.is_strongly_preferred(vid))
            else:
                yes = int(vote)
            dag.record_query_result(vid, yes, UNIT)
    return dag


def recount_confidence(dag: DagState, vid: str) -> int:
    total = 0
    seen = {vid}
    stack = [vid]
    while stack:
        t = stack.pop()
        total += t in dag.chits
        for ch in dag.children[t]:
            if ch not in seen:
                seen.add(ch)
                stack.append(ch)
    return total


history_ops = st.lists(st.tuples(st.integers(0, 2), st.booleans()), max_size=40)


class TestGeneratedHistories:
    @given(ops=history_ops)
    @settings(max_examples=60, deadline=None)
    def test_cache_matches_recount_and_chits_never_regress(self, ops):
        dag = DagState()
        for u in range(3):
            dag.mint_utxo(f"u{u}")
        granted: set[str] = set()
        low_water = {GENESIS_ID: 1}
        for i, (u, vote) in enumerate(ops):
            ids = dag.on_generate_tx(f"tx{i}".encode(), [f"u{u}"])
            for vid in ids:
                low_water[vid] = 0
                dag.record_query_result(vid, int(vote), UNIT)
                if vote:
                    granted.add(vid)
            assert granted <= dag.chits
            for vid in dag.vertices:
                conf = dag.confidence(vid)
                assert conf == recount_confidence(dag, vid)
                assert conf >= low_water[vid]
                low_water[vid] = conf

    @given(ops=history_ops)
    @settings(max_examples=60, deadline=None)
    def test_conflict_sets_partition_the_vertices(self, ops):
        dag = run_history(3, ops)
        claimed: list[str] = []
        for key, cs in dag.conflict_sets.items():
            claimed.extend(cs.members)
            for m in cs.members:
                assert dag.vertices[m].conflict_key == key
            assert cs.pref in cs.members and cs.last in cs.members
        assert sorted(claimed) == sorted(dag.vertices)

    @given(ops=history_ops)
    @settings(max_examples=60, deadline=None)
    def test_acceptance_exclusive_per_set_under_honest_votes(self, ops):
        dag = DagState()
        for u in range(3):
            dag.mint_utxo(f"u{u}")
        for i, (u, _) in enumerate(ops):
            ids = dag.on_generate_tx(f"tx{i}".encode(), [f"u{u}"])
            for vid in ids:
                dag.record_query_result(vid, int(dag.is_strongly_preferred(vid)), UNIT)
            for cs in dag.conflict_sets.values():
                accepted = [m for m in cs.members if dag.is_accepted(m, 2, 3)]
                assert len(accepted) <= 1, cs

    @given(ops=history_ops)
    @settings(max_examples=40, deadline=None)
    def test_reinsertion_in_another_order_matches_structure(self, ops):
        dag = run_history(3, ops)
        depth = {GENESIS_ID: 0}
        order = sorted(dag.vertices, key=lambda v: dag._seq[v])
        for vid in order:
            if vid != GENESIS_ID:
                depth[vid] = 1 + max(depth[p] for p in dag.vertices[vid].parents)
        other = DagState()
        for vid in sorted(order, key=lambda v: (depth[v], v)):
            if vid != GENESIS_ID:
                src = dag.vertices[vid]
                other.on_receive_tx(Vertex(vid, src.data, src.parents, src.conflict_key))
        assert set(other.vertices) == set(dag.vertices)
        for vid, v in dag.vertices.items():
            assert other.vertices[vid].parents == v.parents
            assert sorted(other.children[vid]) == sorted(dag.children[vid])
        for key, cs in dag.conflict_sets.items():
            assert set(other.conflict_sets[key].members) == set(cs.members)

    @given(events=st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_flat_conflict_set_follows_snowball_bookkeeping(self, events):
        # Every spender hangs directly off genesis, so each query touches
        # exactly one interesting conflict set and the set's fields must
        # evolve like a Snowball machine whose colors are the members.
        dag = DagState()
        dag.mint_utxo("coin")
        spenders: dict[int, str] = {}
        d: dict[str, int] = {}
        pref = last = None
        cnt = 0
        for idx, (who, success) in enumerate(events):
            if who not in spenders:
                vid = f"m{who}"
                spenders[who] = vid
                dag.on_receive_tx(Vertex(vid, b"", (GENESIS_ID,), "coin"))
                d[vid] = 0
                if pref is None:
                    pref = last = vid
            vid = spenders[who]
            if vid in dag.queried:
                continue
            dag.record_query_result(vid, int(success), UNIT)
            if success:
                d[vid] += 1
                if d[vid] > d[pref]:
                    pref = vid
                if vid != last:
                    last, cnt = vid, 1
                else:
                    cnt += 1
            else:
                cnt = 0
            cs = dag.conflict_sets["coin"]
            assert (cs.pref, cs.last, cs.cnt) == (pref, last, cnt), idx


# ---------------------------------------------------------------------------
# caches and the settled cut against from-scratch walks

FAST = DagParams(k=1, a=1, beta1=1, beta2=2)


def walk_strongly_preferred(dag: DagState, vid: str) -> bool:
    return all(dag.is_preferred(a) for a in dag.reflexive_ancestors(vid))


def walk_settled(dag: DagState) -> set[str]:
    settled: set[str] = set()
    for vid in sorted(dag.vertices, key=lambda v: dag._seq[v]):
        v = dag.vertices[vid]
        alone = len(dag.conflict_sets[v.conflict_key].members) == 1
        if vid in dag.accepted and alone and all(p in settled for p in v.parents):
            settled.add(vid)
    return settled


def walk_parent_selection(dag: DagState, fanin: int) -> set[str]:
    eligible = {
        vid for vid in dag.vertices
        if dag.confidence(vid) > 0 and walk_strongly_preferred(dag, vid)
    }
    frontier = [v for v in eligible if not any(ch in eligible for ch in dag.children[v])]
    return set(sorted(frontier, key=lambda v: dag._seq[v], reverse=True)[:fanin])


class ShadowCounters:
    """Each conflict set's (last, cnt), updated by full-ancestry walks."""

    def __init__(self) -> None:
        self.state: dict[str, tuple[str, int]] = {}

    def sync_new_sets(self, dag: DagState) -> None:
        for key, cs in dag.conflict_sets.items():
            self.state.setdefault(key, (cs.members[0], 0))

    def record(self, dag: DagState, vid: str, success: bool) -> None:
        self.sync_new_sets(dag)
        for aid in dag.reflexive_ancestors(vid):
            key = dag.vertices[aid].conflict_key
            last, cnt = self.state[key]
            if not success:
                self.state[key] = (last, 0)
            elif aid != last:
                self.state[key] = (aid, 1)
            else:
                self.state[key] = (last, cnt + 1)


def assert_caches_exact(dag: DagState, shadow: ShadowCounters) -> None:
    for vid in dag.vertices:
        assert dag.is_strongly_preferred(vid) == walk_strongly_preferred(dag, vid), vid
        assert dag.confidence(vid) == recount_confidence(dag, vid), vid
    assert dag.parent_selection(2) == walk_parent_selection(dag, 2)
    assert dag.settled == walk_settled(dag)
    assert set(dag.vertices) - dag.settled == set(dag._unsettled)
    assert list(dag._unsettled) == sorted(dag._unsettled, key=lambda v: dag._seq[v])
    shadow.sync_new_sets(dag)
    got = {key: (cs.last, cs.cnt) for key, cs in dag.conflict_sets.items()}
    assert got == shadow.state
    # accepted is closed: no vertex outside it satisfies the commitment rule
    for vid in set(dag.vertices) - dag.accepted:
        v = dag.vertices[vid]
        cs = dag.conflict_sets[v.conflict_key]
        assert not (cs.cnt >= FAST.beta2 and cs.last == vid), vid
        assert not (
            len(cs.members) == 1
            and cs.cnt >= FAST.beta1
            and all(p in dag.accepted for p in v.parents)
        ), vid


oracle_ops = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 30), st.booleans()), max_size=45
)


class TestCachesAgainstWalks:
    @given(ops=oracle_ops)
    @settings(max_examples=120, deadline=None)
    def test_caches_match_full_walks_while_vertices_settle(self, ops):
        # Spends draw from a small minted pool and from earlier vertices,
        # so outputs are respent after their first spender has settled.
        dag = DagState()
        shadow = ShadowCounters()
        for u in range(2):
            dag.mint_utxo(f"u{u}")
        for i, (kind, pick, vote) in enumerate(ops):
            known = sorted(dag.vertices, key=lambda v: dag._seq[v])
            target = known[pick % len(known)]
            if kind <= 2:
                if kind == 2:
                    # Grafted under a losing spend when there is one, so
                    # that losers gather chits and preferences flip.
                    losers = [v for v in known if not dag.is_preferred(v)] or known
                    vid = f"g{i}"
                    dag.on_receive_tx(Vertex(vid, b"", (losers[pick % len(losers)],), f"k{i}"))
                else:
                    spend = f"u{pick % 2}" if pick < 12 else known[pick % len(known)]
                    (vid,) = dag.on_generate_tx(b"tx%d" % i, [spend])
                yes = int(dag.is_strongly_preferred(vid)) if kind == 0 else int(vote)
                dag.record_query_result(vid, yes, FAST)
                shadow.record(dag, vid, yes >= FAST.a)
            elif kind == 3:
                dag.is_accepted(target, FAST.beta1, FAST.beta2)
            elif kind == 4:
                # As a recorded query does, or from anywhere: the
                # commitment rule over the whole reflexive ancestry, oldest
                # first, with no settled cut.
                target = known[-1] if vote else target
                expected = set(dag.accepted)
                for aid in dag.reflexive_ancestors(target):
                    v = dag.vertices[aid]
                    cs = dag.conflict_sets[v.conflict_key]
                    if (cs.cnt >= FAST.beta2 and cs.last == aid) or (
                        len(cs.members) == 1
                        and cs.cnt >= FAST.beta1
                        and all(p in expected for p in v.parents)
                    ):
                        expected.add(aid)
                assert dag.is_accepted(target, FAST.beta1, FAST.beta2) == (target in expected)
                assert dag.accepted == expected
            else:
                dag.advance_clock(pick % 4)
                dag.emit_nops(FAST)
            assert_caches_exact(dag, shadow)

    def test_respending_a_settled_output_unsettles_its_progeny(self):
        dag = DagState()
        shadow = ShadowCounters()

        def query(vid: str, vote: int) -> None:
            dag.record_query_result(vid, vote, FAST)
            shadow.record(dag, vid, vote >= FAST.a)
            assert_caches_exact(dag, shadow)

        dag.mint_utxo("coin")
        (a,) = dag.on_generate_tx(b"a", ["coin"])
        query(a, 1)
        (b,) = dag.on_generate_tx(b"b", [a])
        query(b, 1)
        assert dag.vertices[b].parents == (a,)
        dag.is_accepted(b, FAST.beta1, FAST.beta2)
        assert dag.settled == {GENESIS_ID, a, b}
        # A result reaching only settled vertices is applied when read.
        (c,) = dag.on_generate_tx(b"c", [b])
        query(c, 0)
        dag.on_receive_tx(Vertex("rival", b"", (GENESIS_ID,), "coin"))
        assert dag.settled == {GENESIS_ID}
        assert dag.accepted >= {a, b}
        assert_caches_exact(dag, shadow)
        assert dag.is_strongly_preferred(c) and not dag.is_strongly_preferred("rival")
        # Three chits under the rival outweigh the two under a.
        query("rival", 1)
        dag.on_receive_tx(Vertex("r1", b"", ("rival",), "k1"))
        query("r1", 1)
        dag.on_receive_tx(Vertex("r2", b"", ("r1",), "k2"))
        query("r2", 1)
        assert dag.conflict_sets["coin"].pref == "rival"
        assert not dag.is_strongly_preferred(a) and not dag.is_strongly_preferred(c)

    def test_unsettling_catches_up_on_unread_results(self):
        # Results reach the settled chain with nothing read in between (the
        # shadow reads conflict_sets, so it is fed afterwards), and the
        # rival's arrival is the first time the chain's values are needed.
        dag = DagState()
        dag.mint_utxo("coin")
        (a,) = dag.on_generate_tx(b"a", ["coin"])
        dag.record_query_result(a, 1, FAST)
        history = [(a, True)]
        prev = a
        for i, vote in enumerate((1, 0, 1, 1)):
            dag.on_receive_tx(Vertex(f"v{i}", b"", (prev,), f"k{i}"))
            dag.record_query_result(f"v{i}", vote, FAST)
            history.append((f"v{i}", vote >= FAST.a))
            prev = f"v{i}"
        assert dag.settled == {GENESIS_ID, a, "v0", "v1", "v2", "v3"}
        dag.on_receive_tx(Vertex("rival", b"", (GENESIS_ID,), "coin"))
        dag.on_receive_tx(Vertex("w", b"", ("v3",), "kw"))
        dag.record_query_result("w", 0, FAST)
        shadow = ShadowCounters()
        for vid, success in [*history, ("w", False)]:
            shadow.record(dag, vid, success)
        assert_caches_exact(dag, shadow)

    def test_query_of_a_vertex_its_progeny_already_settled(self):
        dag = DagState()
        shadow = ShadowCounters()

        def query(vid: str, vote: int) -> None:
            dag.record_query_result(vid, vote, FAST)
            shadow.record(dag, vid, vote >= FAST.a)
            assert_caches_exact(dag, shadow)

        dag.on_receive_tx(Vertex("A", b"", (GENESIS_ID,), "uA"))
        dag.on_receive_tx(Vertex("B", b"", ("A",), "uB"))
        query("B", 1)
        assert {"A", "B"} <= dag.settled
        query("A", 0)
        assert "A" not in dag.chits and dag.conflict_sets["uA"].cnt == 0
        dag.on_receive_tx(Vertex("C", b"", ("B",), "uC"))
        query("C", 1)
        assert (dag.confidence("A"), dag.conflict_sets["uA"].cnt) == (2, 1)

    def test_settled_vertices_stay_on_the_frontier_until_they_have_a_settled_child(self):
        dag = DagState()
        dag.mint_utxo("coin")
        (a,) = dag.on_generate_tx(b"a", ["coin"])
        dag.record_query_result(a, 1, FAST)
        dag.is_accepted(a, FAST.beta1, FAST.beta2)
        assert a in dag.settled
        assert dag.parent_selection(2) == {a}
        (b,) = dag.on_generate_tx(b"b", [a])
        # b has no chit yet, so a stays the only eligible frontier vertex.
        assert dag.parent_selection(2) == {a}
        dag.record_query_result(b, 1, FAST)
        assert dag.parent_selection(2) == {b}
