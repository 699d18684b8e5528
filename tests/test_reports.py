"""Round-trip and schema checks for the report serializers."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snowsim.reports import (
    SCHEMA_VERSION,
    ReportError,
    RunRecord,
    config_digest,
    format_csv,
    format_jsonl,
    parse_csv,
    parse_jsonl,
    summarize,
)


def record(**kw: object) -> RunRecord:
    base: dict = dict(
        config_hash="abc123def456",
        n=100,
        c=90,
        b=10,
        k=10,
        a=8,
        beta=15,
        adversary="balance",
        rounds=512.25,
        per_node_iters=14.390625,
        violations=0,
        messages=51200,
    )
    base.update(kw)
    return RunRecord(**base)


@st.composite
def records(draw: st.DrawFn) -> RunRecord:
    c = draw(st.integers(min_value=1, max_value=5000))
    b = draw(st.integers(min_value=0, max_value=500))
    return RunRecord(
        config_hash=draw(st.text(alphabet="0123456789abcdef", min_size=1, max_size=12)),
        n=c + b,
        c=c,
        b=b,
        k=draw(st.integers(min_value=1, max_value=100)),
        a=draw(st.integers(min_value=1, max_value=100)),
        beta=draw(st.integers(min_value=1, max_value=1000)),
        adversary=draw(st.sampled_from(["none", "refuse", "balance", "minority"])),
        rounds=draw(st.floats(min_value=0, max_value=1e9, allow_nan=False)),
        per_node_iters=draw(st.floats(min_value=0, max_value=1e6, allow_nan=False)),
        violations=draw(st.integers(min_value=0, max_value=10_000)),
        messages=draw(st.integers(min_value=0, max_value=10**12)),
        accepted=draw(st.none() | st.integers(min_value=0, max_value=10**9)),
    )


class TestRecord:
    def test_rejects_mismatched_network_split(self):
        with pytest.raises(ReportError):
            record(n=100, c=50, b=10)

    def test_rejects_negative_counts(self):
        with pytest.raises(ReportError):
            record(violations=-1)
        with pytest.raises(ReportError):
            record(accepted=-1)


class TestCsv:
    def test_header_carries_schema_version(self):
        text = format_csv([record()])
        assert text.startswith(f"# snowsim report schema v{SCHEMA_VERSION}\n")
        assert text.splitlines()[1].startswith("config_hash,")

    @given(st.lists(records(), max_size=8))
    def test_round_trip(self, recs: list[RunRecord]):
        assert parse_csv(format_csv(recs)) == recs

    def test_round_trip_preserves_float_bits(self):
        rec = record(per_node_iters=12.660000000000001, rounds=1.0 / 3.0)
        (back,) = parse_csv(format_csv([rec]))
        assert back.per_node_iters == rec.per_node_iters
        assert back.rounds == rec.rounds

    def test_rejects_missing_schema_comment(self):
        text = format_csv([record()])
        headerless = "\n".join(text.splitlines()[1:])
        with pytest.raises(ReportError, match="schema comment"):
            parse_csv(headerless)

    def test_rejects_future_schema_version(self):
        text = format_csv([record()]).replace(f"v{SCHEMA_VERSION}", f"v{SCHEMA_VERSION + 1}")
        with pytest.raises(ReportError):
            parse_csv(text)

    def test_rejects_short_row(self):
        text = format_csv([record()]) + "onlyonefield\n"
        with pytest.raises(ReportError, match="row"):
            parse_csv(text)

    def test_rejects_non_numeric_cell(self):
        text = format_csv([record()])
        for old, new, column in [(",100,", ",many,", "n"),
                                 (",512.25,", ",inf,", "rounds"),
                                 (",512.25,", ",nan,", "rounds"),
                                 (",14.390625,", ",inf,", "per_node_iters"),
                                 (",14.390625,", ",nan,", "per_node_iters")]:
            with pytest.raises(ReportError, match=f"row 2, column {column}:"):
                parse_csv(text.replace(old, new))

    def test_output_is_deterministic(self):
        recs = [record(), record(adversary="refuse", messages=7)]
        assert format_csv(recs) == format_csv(recs)


class TestJsonl:
    @given(st.lists(records(), max_size=8))
    def test_round_trip(self, recs: list[RunRecord]):
        assert parse_jsonl(format_jsonl(recs)) == recs

    def test_one_object_per_line(self):
        text = format_jsonl([record(), record(violations=3)])
        assert len(text.splitlines()) == 2

    def test_blank_lines_are_ignored(self):
        text = "\n" + format_jsonl([record()]) + "\n\n"
        assert len(parse_jsonl(text)) == 1

    def test_rejects_unknown_fields(self):
        text = format_jsonl([record()]).replace('"n":', '"extra":9,"n":')
        with pytest.raises(ReportError, match="unknown"):
            parse_jsonl(text)

    def test_rejects_missing_fields(self):
        with pytest.raises(ReportError, match="missing"):
            parse_jsonl('{"n": 100}\n')

    def test_rejects_garbage(self):
        with pytest.raises(ReportError):
            parse_jsonl("not json\n")

    @pytest.mark.parametrize(
        "name, value",
        [("rounds", "12"), ("n", 100.0), ("violations", True), ("rounds", False),
         ("config_hash", 7), ("adversary", None), ("accepted", 1.5), ("messages", None),
         ("rounds", math.inf), ("per_node_iters", math.nan)],
    )
    def test_rejects_a_value_of_the_wrong_type(self, name, value):
        obj = json.loads(format_jsonl([record(accepted=3)]))
        obj[name] = value
        with pytest.raises(ReportError, match=f"line 2, column {name}"):
            parse_jsonl(format_jsonl([record()]) + json.dumps(obj) + "\n")

    def test_integral_rounds_and_null_accepted_are_accepted(self):
        text = format_jsonl([record(rounds=12.0, per_node_iters=2.0)]).replace(".0,", ",")
        assert '"rounds":12,' in text and '"accepted":null' in text
        assert parse_jsonl(text) == [record(rounds=12.0, per_node_iters=2.0)]


class TestDigest:
    def test_insensitive_to_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_sensitive_to_values(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_short_hex(self):
        digest = config_digest({"n": 2000, "k": 10})
        assert len(digest) == 12
        int(digest, 16)


class TestSummarize:
    def test_matches_recomputation(self):
        recs = [
            record(per_node_iters=10.0, rounds=100.0, violations=1, messages=30),
            record(per_node_iters=14.0, rounds=140.0, violations=0, messages=50),
        ]
        summary = summarize(recs)
        assert summary["records"] == 2.0
        assert summary["mean_per_node_iters"] == pytest.approx(12.0)
        assert summary["mean_rounds"] == pytest.approx(120.0)
        assert summary["stddev_per_node_iters"] == pytest.approx(
            math.sqrt(((10 - 12) ** 2 + (14 - 12) ** 2) / 1)
        )
        assert summary["violations"] == 1.0
        assert summary["messages"] == 80.0

    def test_single_record_has_zero_spread(self):
        assert summarize([record()])["stddev_per_node_iters"] == 0.0

    def test_empty_input_is_an_error(self):
        with pytest.raises(ReportError):
            summarize([])
