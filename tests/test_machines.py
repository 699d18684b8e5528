"""State machine tests: golden traces computed by hand, then properties.

The traces pin every branch of the update rules (flip, same-color run,
failed round, confidence tie, decision) so that refactors cannot silently
change a reset convention; the analysis layer's run-length math depends on
these exact conventions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snowsim.machines import (
    Color,
    ProtocolParams,
    SnowState,
    Variant,
    fresh_state,
    handle_query,
    handle_sample_result,
)

R, B = Color.RED, Color.BLUE


def counts(r: int, b: int) -> dict[Color, int]:
    return {R: r, B: b}


class TestParams:
    def test_majority_threshold_enforced(self):
        ProtocolParams(k=10, a=6)  # floor(10/2)=5 < 6 <= 10
        with pytest.raises(ValueError):
            ProtocolParams(k=10, a=5)
        with pytest.raises(ValueError):
            ProtocolParams(k=10, a=11)
        with pytest.raises(ValueError):
            ProtocolParams(k=10, a=6, beta=0)

    def test_from_alpha_rounds_up(self):
        assert ProtocolParams.from_alpha(k=10, alpha=0.8).a == 8
        assert ProtocolParams.from_alpha(k=3, alpha=0.9).a == 3
        assert ProtocolParams.from_alpha(k=10, alpha=0.51).a == 6


class TestHandleQuery:
    def test_unset_adopts(self):
        s, resp = handle_query(fresh_state(Variant.SLUSH), R)
        assert s.col is R and resp is R

    def test_colored_keeps_color(self):
        s0 = fresh_state(Variant.SNOWFLAKE, col=B)
        s, resp = handle_query(s0, R)
        assert s is s0 and resp is B

    def test_idempotent_on_same_color(self):
        s0 = fresh_state(Variant.SNOWBALL, col=R)
        s, resp = handle_query(s0, R)
        assert s.col is R and resp is R

    def test_unset_query_rejected(self):
        with pytest.raises(ValueError):
            handle_query(fresh_state(Variant.SLUSH), Color.UNSET)


class TestSlush:
    def test_adopts_any_winner(self):
        p = ProtocolParams(k=3, a=2)
        s = fresh_state(Variant.SLUSH, col=R)
        s = handle_sample_result(s, p, counts(1, 2))
        assert s.col is B
        s = handle_sample_result(s, p, counts(3, 0))
        assert s.col is R

    def test_no_quorum_no_change(self):
        p = ProtocolParams(k=4, a=3)
        s = fresh_state(Variant.SLUSH, col=R)
        assert handle_sample_result(s, p, counts(2, 2)).col is R


class TestSnowflake:
    def test_golden_trace(self):
        # k=3, a=2, beta=2; branch coverage: run, flip (reset, success not
        # counted), run to decision.
        p = ProtocolParams(k=3, a=2, beta=2)
        s = fresh_state(Variant.SNOWFLAKE, col=R)
        s = handle_sample_result(s, p, counts(2, 1))
        assert (s.col, s.cnt, s.decided) == (R, 1, None)
        s = handle_sample_result(s, p, counts(0, 3))
        assert (s.col, s.cnt, s.decided) == (B, 0, None)
        s = handle_sample_result(s, p, counts(1, 2))
        assert (s.col, s.cnt, s.decided) == (B, 1, None)
        s = handle_sample_result(s, p, counts(1, 2))
        assert (s.col, s.cnt, s.decided) == (B, 2, B)

    def test_failed_round_resets_run(self):
        p = ProtocolParams(k=4, a=3, beta=3)
        s = fresh_state(Variant.SNOWFLAKE, col=R)
        s = handle_sample_result(s, p, counts(3, 1))
        s = handle_sample_result(s, p, counts(3, 1))
        assert s.cnt == 2
        s = handle_sample_result(s, p, counts(2, 2))  # no quorum
        assert s.cnt == 0 and s.col is R

    def test_flip_success_does_not_count(self):
        # After a flip the new color still needs beta full successes.
        p = ProtocolParams(k=3, a=2, beta=1)
        s = fresh_state(Variant.SNOWFLAKE, col=R)
        s = handle_sample_result(s, p, counts(0, 3))
        assert s.col is B and s.decided is None  # flip round did not decide
        s = handle_sample_result(s, p, counts(0, 3))
        assert s.decided is B

    def test_decided_rejects_further_samples(self):
        p = ProtocolParams(k=3, a=2, beta=1)
        s = fresh_state(Variant.SNOWFLAKE, col=R)
        s = handle_sample_result(s, p, counts(3, 0))
        assert s.decided is R
        with pytest.raises(ValueError):
            handle_sample_result(s, p, counts(3, 0))


class TestSnowball:
    def test_golden_trace(self):
        # k=3, a=2, beta=3. Covers: lastcol flip starting the run at 1,
        # confidence-dominance color flip, tie keeping the incumbent color,
        # and decision going to lastcol.
        p = ProtocolParams(k=3, a=2, beta=3)
        s = fresh_state(Variant.SNOWBALL, col=R)
        s = handle_sample_result(s, p, counts(1, 2))
        assert (s.col, s.lastcol, s.cnt, s.d) == (B, B, 1, (0, 1))
        s = handle_sample_result(s, p, counts(1, 2))
        assert (s.col, s.lastcol, s.cnt, s.d) == (B, B, 2, (0, 2))
        s = handle_sample_result(s, p, counts(2, 1))
        assert (s.col, s.lastcol, s.cnt, s.d) == (B, R, 1, (1, 2))
        s = handle_sample_result(s, p, counts(2, 1))
        # d ties at (2, 2): col stays B, the red run continues.
        assert (s.col, s.lastcol, s.cnt, s.d) == (B, R, 2, (2, 2))
        s = handle_sample_result(s, p, counts(3, 0))
        assert (s.col, s.lastcol, s.cnt, s.d) == (R, R, 3, (3, 2))
        assert s.decided is R  # decision goes to lastcol

    def test_confidence_dominance_flips_color(self):
        p = ProtocolParams(k=3, a=2, beta=10)
        s = SnowState(Variant.SNOWBALL, col=R, lastcol=R, cnt=0, d=(3, 3))
        s = handle_sample_result(s, p, counts(0, 3))
        assert s.col is B and s.d == (3, 4)

    def test_failed_round_resets_cnt_not_d(self):
        p = ProtocolParams(k=4, a=3, beta=5)
        s = SnowState(Variant.SNOWBALL, col=R, lastcol=R, cnt=4, d=(4, 1))
        s = handle_sample_result(s, p, counts(2, 2))
        assert s.cnt == 0 and s.d == (4, 1) and s.col is R

    def test_beta_one_decides_on_flip_round(self):
        p = ProtocolParams(k=3, a=2, beta=1)
        s = fresh_state(Variant.SNOWBALL, col=R)
        s = handle_sample_result(s, p, counts(1, 2))
        assert s.decided is B


# Random event sequences for the property tests: per element either a
# quorum for red/blue or a failed round, encoded as counts for k=5, a=4
# (a=4 leaves room for genuine no-quorum splits like 3/2).
def _counts_for(event: str) -> dict[Color, int]:
    return {"r": counts(4, 1), "b": counts(1, 4), "fail": counts(3, 2)}[event]


events = st.lists(st.sampled_from(["r", "b", "fail"]), min_size=0, max_size=60)
variants = st.sampled_from(list(Variant))
start_colors = st.sampled_from([R, B])


def _run(variant: Variant, start: Color, seq: list[str], beta: int = 4):
    p = ProtocolParams(k=5, a=4, beta=beta)
    s = fresh_state(variant, col=start)
    trace = [s]
    for e in seq:
        if s.decided is not None:
            break
        s = handle_sample_result(s, p, _counts_for(e))
        trace.append(s)
    return s, trace


class TestProperties:
    @given(variant=variants, start=start_colors, seq=events)
    @settings(max_examples=300, deadline=None)
    def test_decision_immutable_and_counter_sound(self, variant, start, seq):
        p = ProtocolParams(k=5, a=4, beta=4)
        s = fresh_state(variant, col=start)
        applied = []
        for e in seq:
            if s.decided is not None:
                # Decided state never changes through queries either.
                s2, _ = handle_query(s, R)
                assert s2.decided is s.decided
                break
            s = handle_sample_result(s, p, _counts_for(e))
            applied.append(e)
            if s.cnt >= p.beta:
                assert s.decided is not None, "cnt crossed beta without deciding"
        if variant is Variant.SNOWFLAKE and s.decided is not None:
            want = "r" if s.decided is R else "b"
            assert applied[-p.beta :] == [want] * p.beta

    @given(start=start_colors, seq=events)
    @settings(max_examples=300, deadline=None)
    def test_snowball_confidence_monotone(self, start, seq):
        _, trace = _run(Variant.SNOWBALL, start, seq)
        for before, after in zip(trace, trace[1:]):
            assert after.d[0] >= before.d[0]
            assert after.d[1] >= before.d[1]
            assert after.d[0] + after.d[1] <= before.d[0] + before.d[1] + 1

    @given(start=start_colors, seq=events)
    @settings(max_examples=300, deadline=None)
    def test_snowball_col_is_argmax_with_sticky_ties(self, start, seq):
        _, trace = _run(Variant.SNOWBALL, start, seq, beta=10**9)
        for s in trace:
            dr, db = s.d
            if dr > db:
                assert s.col is R
            elif db > dr:
                assert s.col is B
            # Ties: col may be either, stickiness checked by the golden trace.

    @given(start=start_colors, seq=events)
    @settings(max_examples=200, deadline=None)
    def test_beta_one_degeneration(self, start, seq):
        # With beta=1 and fresh confidences, a single step flips Snowball's
        # col exactly when it flips Snowflake's.
        p = ProtocolParams(k=5, a=4, beta=1)
        for e in ["r", "b", "fail"]:
            sf = handle_sample_result(fresh_state(Variant.SNOWFLAKE, col=start), p, _counts_for(e))
            sb = handle_sample_result(fresh_state(Variant.SNOWBALL, col=start), p, _counts_for(e))
            assert sf.col is sb.col

    @given(variant=variants, start=start_colors, seq=events)
    @settings(max_examples=200, deadline=None)
    def test_replay_determinism(self, variant, start, seq):
        a, _ = _run(variant, start, seq)
        b, _ = _run(variant, start, seq)
        assert a == b
