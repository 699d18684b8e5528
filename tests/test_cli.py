"""End-to-end checks of the command-line front end.

Commands run in-process through ``main`` so exit codes and outputs are
asserted directly; files land in pytest tmp dirs.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import snowsim
from snowsim.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main, parse_config_text
from snowsim.reports import parse_csv, parse_jsonl, summarize

TINY_SLUSH = ["slush-table", "--cells", "20", "--k", "5", "--a", "4", "--trials", "10"]


class TestConfigFile:
    def test_empty_file_falls_back_to_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        rc = main(["analyze-chain", "--config", str(cfg), "--start", "1000"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["c"] == 2000
        assert payload["k"] == 10
        assert payload["a"] == 8

    def test_unknown_key_is_rejected_with_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n = 30\nwibble = 3\n")
        rc = main(TINY_SLUSH + ["--config", str(cfg)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert ":2:" in err and "wibble" in err

    @pytest.mark.parametrize(
        "argv, line, key",
        [
            (["design", "--n", "100"], "trials = 3", "trials"),
            (TINY_SLUSH, "variant = snowball", "variant"),
        ],
    )
    def test_key_the_subcommand_does_not_take_is_rejected(self, tmp_path, capsys, argv, line, key):
        cfg = tmp_path / "stray.cfg"
        cfg.write_text(line + "\n")
        assert main(argv + ["--config", str(cfg)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert repr(key) in err and argv[0] in err

    def test_duplicate_key_is_rejected(self, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("seed = 1\nseed = 2\n")
        assert main(TINY_SLUSH + ["--config", str(cfg)]) == EXIT_USAGE

    def test_malformed_line_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "oops.cfg"
        cfg.write_text("just some words\n")
        assert main(TINY_SLUSH + ["--config", str(cfg)]) == EXIT_USAGE
        assert "key = value" in capsys.readouterr().err

    def test_missing_file_is_rejected(self):
        assert main(TINY_SLUSH + ["--config", "/no/such/file.cfg"]) == EXIT_USAGE

    def test_comments_and_blanks_are_ignored(self):
        parsed = parse_config_text("# header\n\nn = 40  # inline\nk=5\n")
        assert parsed == {"n": 40, "k": 5}

    def test_hyphenated_keys_normalize(self):
        assert parse_config_text("tx-count = 7\n") == {"tx_count": 7}


class TestSeedPrecedence:
    def run_table(self, tmp_path, name, argv):
        out = tmp_path / name
        rc = main(TINY_SLUSH + ["--out", str(out)] + argv)
        assert rc == EXIT_OK
        return (out.parent / (out.name + ".csv")).read_bytes()

    def test_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 3\n")
        with_flag = self.run_table(tmp_path, "a", ["--config", str(cfg), "--seed", "7"])
        plain_seven = self.run_table(tmp_path, "b", ["--seed", "7"])
        plain_three = self.run_table(tmp_path, "c", ["--seed", "3"])
        assert with_flag == plain_seven
        assert with_flag != plain_three

    def test_file_beats_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWSIM_SEED", "9")
        cfg = tmp_path / "s.cfg"
        cfg.write_text("seed = 3\n")
        from_file = self.run_table(tmp_path, "a", ["--config", str(cfg)])
        plain_three = self.run_table(tmp_path, "b", ["--seed", "3"])
        assert from_file == plain_three

    def test_environment_is_lowest_priority_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWSIM_SEED", "9")
        from_env = self.run_table(tmp_path, "a", [])
        plain_nine = self.run_table(tmp_path, "b", ["--seed", "9"])
        assert from_env == plain_nine

    def test_garbage_environment_seed_is_rejected(self, monkeypatch):
        monkeypatch.setenv("SNOWSIM_SEED", "banana")
        assert main(TINY_SLUSH) == EXIT_USAGE


class TestSlushTable:
    def test_small_preset_lands_near_published_row(self, tmp_path):
        out = tmp_path / "table"
        rc = main(
            ["slush-table", "--cells", "600", "--trials", "80", "--seed", "11",
             "--out", str(out)]
        )
        assert rc == EXIT_OK
        (row,) = parse_csv((tmp_path / "table.csv").read_text())
        assert row.n == 600 and row.k == 10 and row.a == 8
        assert row.per_node_iters == pytest.approx(12.66, abs=1.0)

    def test_csv_rows_round_trip_and_match_trial_records(self, tmp_path):
        out = tmp_path / "t"
        assert main(TINY_SLUSH + ["--seed", "4", "--out", str(out)]) == EXIT_OK
        rows = parse_csv((tmp_path / "t.csv").read_text())
        trials = parse_jsonl((tmp_path / "t.jsonl").read_text())
        assert len(rows) == 1 and len(trials) == 10
        stats = summarize(trials)
        assert rows[0].per_node_iters == stats["mean_per_node_iters"]
        assert rows[0].rounds == stats["mean_rounds"]
        assert rows[0].messages == int(stats["messages"])

    def test_aggregate_totals_are_exact_past_float_precision(self, tmp_path):
        # A frozen chain (c=4, k=3, a=3 from 2 reds) ends every trial at phi,
        # so each trial sends 3 * phi messages; the total of seven such
        # counts needs more than a float's 53 bits.
        argv = ["slush-table", "--cells", "4", "--k", "3", "--a", "3",
                "--phi", "1000000000000001", "--trials", "7", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / "r")]) == EXIT_OK
        (row,) = parse_csv((tmp_path / "r.csv").read_text())
        trials = parse_jsonl((tmp_path / "r.jsonl").read_text())
        assert [t.messages for t in trials] == [3_000_000_000_000_003] * 7
        assert row.messages == sum(t.messages for t in trials) == 21_000_000_000_000_021

    def test_identical_invocations_are_byte_identical(self, tmp_path):
        argv = TINY_SLUSH + ["--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == EXIT_OK
        assert main(argv + ["--out", str(tmp_path / "y")]) == EXIT_OK
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
        assert (tmp_path / "x.jsonl").read_bytes() == (tmp_path / "y.jsonl").read_bytes()

    def test_stdout_carries_csv_without_out_flag(self, capsys):
        assert main(TINY_SLUSH + ["--seed", "5"]) == EXIT_OK
        captured = capsys.readouterr()
        (row,) = parse_csv(captured.out)
        assert row.c == 20
        assert captured.err.startswith("c=20 trials=10 ")

    def test_bad_cells_are_rejected(self):
        assert main(["slush-table", "--cells", "20,slow"]) == EXIT_USAGE


class TestSnowRun:
    ARGS = [
        "snow-run", "--variant", "snowflake", "--n", "20", "--b", "0",
        "--k", "3", "--a", "3", "--beta", "5", "--trials", "20", "--seed", "2",
    ]

    def test_honest_batch_decides_and_reports(self, tmp_path, capsys):
        out = tmp_path / "snow"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        assert "decided 20/20" in capsys.readouterr().out
        (row,) = parse_csv((tmp_path / "snow.csv").read_text())
        assert row.violations == 0
        assert row.adversary == "none"
        trials = parse_jsonl((tmp_path / "snow.jsonl").read_text())
        assert len(trials) == 20

    def test_adversary_flag_reaches_the_records(self, tmp_path):
        argv = [
            "snow-run", "--variant", "snowball", "--n", "12", "--b", "2",
            "--k", "3", "--a", "3", "--beta", "4", "--trials", "10",
            "--adversary", "balance-keeper", "--out", str(tmp_path / "adv"),
        ]
        assert main(argv) == EXIT_OK
        (row,) = parse_csv((tmp_path / "adv.csv").read_text())
        assert row.adversary == "balance-keeper"
        assert row.b == 2

    def test_stdout_carries_csv_without_out_flag(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        captured = capsys.readouterr()
        (row,) = parse_csv(captured.out)
        assert row.n == 20
        assert "decided 20/20" in captured.err

    def test_sample_wider_than_network_is_rejected(self):
        assert main(["snow-run", "--n", "5", "--k", "10", "--trials", "2"]) == EXIT_USAGE

    def test_slush_variant_is_rejected_here(self, tmp_path):
        cfg = tmp_path / "v.cfg"
        cfg.write_text("variant = slush\n")
        assert main(["snow-run", "--config", str(cfg), "--trials", "2"]) == EXIT_USAGE


class TestAvalancheRun:
    ARGS = [
        "avalanche-run", "--n", "12", "--k", "3", "--a", "3", "--beta1", "3",
        "--beta2", "6", "--rounds", "720", "--tx-count", "8", "--seed", "5",
    ]

    def test_run_reports_acceptance(self, tmp_path, capsys):
        out = tmp_path / "ava"
        assert main(self.ARGS + ["--out", str(out)]) == EXIT_OK
        assert "accepted 8/8" in capsys.readouterr().out
        (row,) = parse_csv((tmp_path / "ava.csv").read_text())
        assert row.violations == 0
        assert row.beta == 3

    def test_dag_dump_is_topologically_ordered_json_lines(self, tmp_path):
        dump = tmp_path / "dag.jsonl"
        assert main(self.ARGS + ["--dump-dag", str(dump)]) == EXIT_OK
        lines = [json.loads(ln) for ln in dump.read_text().splitlines()]
        assert lines[0]["id"] == "genesis"
        seen: set[str] = set()
        for obj in lines:
            assert set(obj) == {"id", "parents", "conflict_key", "chit", "confidence"}
            assert all(p in seen for p in obj["parents"])
            seen.add(obj["id"])

    def test_stdout_carries_csv_without_out_flag(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        captured = capsys.readouterr()
        (row,) = parse_csv(captured.out)
        assert row.n == 12
        assert "accepted 8/8" in captured.err

    def test_run_that_accepts_nothing_writes_strict_json(self, tmp_path):
        # Ten rounds issue one transaction and accept nothing.
        argv = ["avalanche-run", "--n", "12", "--rounds", "10", "--out", str(tmp_path / "x")]
        assert main(argv) == EXIT_OK

        def reject(constant: str) -> None:
            raise ValueError(f"non-standard JSON constant {constant}")

        lines = (tmp_path / "x.jsonl").read_text().splitlines()
        (row,) = [json.loads(ln, parse_constant=reject) for ln in lines]
        assert row["accepted"] == 0
        assert row["per_node_iters"] == 10 / 12

    def test_unreachable_quorum_is_a_usage_error(self, tmp_path):
        # Defaults k=10, a=8 with only c-1=6 correct peers to vote.
        out = tmp_path / "ava"
        rc = main(["avalanche-run", "--n", "12", "--b", "5", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not (tmp_path / "ava.jsonl").exists()

    def test_trials_fan_out_into_records(self, tmp_path):
        argv = [
            "avalanche-run", "--n", "8", "--k", "2", "--a", "2", "--beta1", "2",
            "--beta2", "4", "--rounds", "160", "--tx-count", "3", "--trials", "2",
            "--out", str(tmp_path / "multi"),
        ]
        assert main(argv) == EXIT_OK
        assert len(parse_jsonl((tmp_path / "multi.jsonl").read_text())) == 2


class TestDesign:
    def test_feasible_search_emits_full_design(self, tmp_path):
        out = tmp_path / "design"
        rc = main(
            ["design", "--n", "100", "--b", "10", "--eps", "1e-6",
             "--phi", "10000", "--out", str(out)]
        )
        assert rc == EXIT_OK
        payload = json.loads((tmp_path / "design.json").read_text())
        assert payload["infeasible"] is False
        assert payload["k"] >= 1 and payload["a"] > payload["k"] // 2
        assert payload["beta"] >= 1
        assert payload["c1_prob"] <= 1e-6 / 2 and payload["c2_prob"] <= 1e-6

    def test_blocked_down_steps_do_not_abort_the_search(self, capsys):
        # At b=0 and a=k the states next to unanimity can never step down;
        # the infinite-horizon return probability there is 0, not an error.
        rc = main(["design", "--n", "2000", "--b", "0", "--eps", "1e-9", "--phi", "400000"])
        assert rc in (EXIT_OK, EXIT_INFEASIBLE)
        json.loads(capsys.readouterr().out)

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--phi", "-5"], "phi"),
            (["--phi", "0"], "phi"),
            (["--k", "0"], "k=0"),
            (["--k", "101"], "k=101"),
            (["--max-k", "0"], "max_k"),
        ],
    )
    def test_malformed_input_is_a_usage_error(self, capsys, flags, word):
        rc = main(["design", "--n", "100", "--b", "10", *flags])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err

    def test_impossible_split_exits_one_with_reason(self, tmp_path, capsys):
        rc = main(
            ["design", "--n", "100", "--b", "49", "--eps", "1e-6",
             "--phi", "10000", "--max-k", "8"]
        )
        assert rc == EXIT_INFEASIBLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["infeasible"] is True
        assert payload["reason"]


class TestAnalyzeChain:
    def test_matches_library_quantities(self, capsys):
        rc = main(
            ["analyze-chain", "--c", "20", "--k", "5", "--a", "4",
             "--start", "13", "--population", "19"]
        )
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        from snowsim.analysis.chains import (
            absorption_probability,
            build_slush_chain,
            expected_absorption_time,
        )

        chain = build_slush_chain(20, 5, 4, population=19)
        assert payload["p_blue"] == absorption_probability(chain, 13)
        assert payload["p_red"] == 1.0 - payload["p_blue"]
        assert payload["expected_per_node_iterations"] == expected_absorption_time(chain, 13)

    def test_slush_chain_rejects_byzantine_mass(self):
        assert main(["analyze-chain", "--c", "20", "--b", "3"]) == EXIT_USAGE

    def test_snowflake_chain_accepts_byzantine_mass(self, capsys):
        rc = main(
            ["analyze-chain", "--protocol", "snowflake", "--c", "20", "--b", "3",
             "--k", "5", "--a", "4"]
        )
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["b"] == 3


BIG = "100000000000000000000"  # above the int64 counters' range


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, word",
        [
            (["snow-run", "--phi", BIG, "--trials", "2"], "phi"),
            (["slush-table", "--cells", "20", "--phi", BIG, "--trials", "2"], "phi"),
            (["snow-run", "--beta", BIG, "--trials", "2"], "beta"),
            (["slush-table", "--cells", "20", "--alpha", "inf"], "alpha"),
            (["snow-run", "--alpha", "inf"], "alpha"),
            (["analyze-chain", "--alpha", "inf"], "alpha"),
            (["avalanche-run", "--n", BIG, "--rounds", "10"], f"n={BIG}"),
            (["slush-table", "--cells", "600", "--k", "200", "--a", "199",
              "--phi", str(2**63 - 1), "--trials", "2"], "messages"),
            (["slush-table", "--cells", "4", "--k", "3", "--a", "3",
              "--phi", "3000000000000000001", "--trials", "1"], "rounds"),
        ],
    )
    def test_out_of_range_input_is_a_usage_error(self, capsys, argv, word):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert word in captured.err

    @pytest.mark.parametrize("command", ["slush-table", "snow-run", "analyze-chain"])
    def test_infinite_alpha_in_a_config_file_is_a_usage_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("alpha = inf\n")
        assert main([command, "--config", str(cfg)]) == EXIT_USAGE
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [TINY_SLUSH, ["snow-run", "--n", "10", "--k", "3", "--trials", "2"]]
    )
    def test_largest_int64_round_budget_still_runs(self, capsys, argv):
        assert main([*argv, "--phi", "9223372036854775807"]) == EXIT_OK

    def test_unknown_flag_is_usage_error(self):
        assert main(["slush-table", "--warp", "9"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (TINY_SLUSH, "--out"),
            (TestSnowRun.ARGS, "--out"),
            (TestAvalancheRun.ARGS, "--out"),
            (TestAvalancheRun.ARGS, "--dump-dag"),
            (["design", "--n", "40", "--b", "4", "--eps", "1e-3", "--phi", "2000"], "--out"),
            (["analyze-chain", "--c", "20", "--k", "5", "--a", "4"], "--out"),
        ],
        ids=["slush-table", "snow-run", "avalanche-run", "avalanche-dump-dag", "design",
             "analyze-chain"],
    )
    def test_unwritable_output_path_is_a_usage_error(self, tmp_path, capsys, argv, flag):
        path = str(tmp_path / "missing" / "out")
        assert main([*argv, flag, path]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and path in err

    def test_help_exits_clean(self):
        assert main(["--help"]) == EXIT_OK

    def test_avalanche_help_names_each_beta(self, capsys):
        assert main(["avalanche-run", "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "--beta1 BETA1 early-commit threshold for uncontested vertices" in text
        assert "--beta2 BETA2 acceptance threshold for contested vertices" in text


def test_scipy_is_loaded_only_to_solve_a_chain(tmp_path):
    # Importing scipy.linalg costs about 0.3 s and 20 MB, which every CLI run
    # would pay; only a chain solve needs it.
    code = (
        "import sys\n"
        "from snowsim.cli import main\n"
        "out = sys.argv[1] + '/'\n"
        "runs = [\n"
        "    ['slush-table', '--cells', '20', '--k', '5', '--a', '4', '--trials', '10'],\n"
        "    ['snow-run', '--n', '20', '--b', '4', '--k', '4', '--a', '3', '--beta', '4',\n"
        "     '--trials', '5', '--adversary', 'balance-keeper'],\n"
        "    ['avalanche-run', '--n', '12', '--rounds', '200'],\n"
        "    ['design', '--n', '100', '--b', '10', '--eps', '1e-6', '--phi', '10000'],\n"
        "]\n"
        "for argv in runs:\n"
        "    assert main(argv + ['--out', out + argv[0]]) == 0, argv\n"
        "    loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "    assert not loaded, (argv[0], loaded[:5])\n"
        "argv = ['analyze-chain', '--c', '20', '--k', '5', '--a', '4', '--out', out + 'chain']\n"
        "assert main(argv) == 0\n"
        "assert 'scipy.linalg' in sys.modules, 'analyze-chain did not solve a chain'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=_env_with_this_snowsim(),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _env_with_this_snowsim() -> dict[str, str]:
    src = str(Path(snowsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _cap_address_space() -> None:
    # 3 GiB, or less if the hard limit is already lower.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


@pytest.mark.parametrize(
    "argv",
    [
        ["snow-run", "--n", "2000", "--trials", "100000000"],  # asks for 186 GiB
        ["slush-table", "--cells", "20", "--trials", "1000000000"],  # asks for 7.45 GiB
    ],
    ids=["snow-run", "slush-table"],
)
def test_run_too_large_for_memory_is_a_usage_error(tmp_path, argv):
    # Run only in a child whose address space is capped, so the allocation
    # fails at once instead of taking the machine's memory.
    proc = subprocess.run(
        [sys.executable, "-m", "snowsim.cli", *argv, "--out", str(tmp_path / "out")],
        env=_env_with_this_snowsim(), preexec_fn=_cap_address_space,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: not enough memory")
    assert "Traceback" not in proc.stderr and proc.stdout == ""
