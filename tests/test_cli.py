import argparse
import hashlib
import io
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import patternkit
from patternkit.cli import build_parser, main
from patternkit.constructions import KNOWN_CHECKS, MAX_STAGES
from patternkit.core import constant_coloring
from patternkit.io import format_coloring, format_tree, parse_coloring, parse_record
from patternkit.stabilize import full_binary_tree
from conftest import random_coloring


def run_cli(capsys, *argv):
    # argparse rejects argv by raising SystemExit; main returns the other codes
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def coloring_file(tmp_path):
    path = tmp_path / "coloring.txt"
    path.write_text(format_coloring(constant_coloring(15)))
    return str(path)


class TestClassify:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "5:0111000101")
        assert code == 0
        assert "omega-hyp:   yes" in out
        assert "one-2dim:    yes" in out
        assert "omega-2dim:  no" in out

    def test_records_output(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "3:010", "--format", "records")
        rec = parse_record(out.strip())
        assert rec["pattern"] == "3:010"
        assert rec["divergent"] == "1" and rec["irreducible"] == "1"
        assert rec["omega_hyp"] == "1" and rec["omega_2dim"] == "0"

    def test_malformed_pattern_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "classify", "3:01")
        assert code == 2 and "error:" in err


# sha256 of census stdout, taken before census began yielding its rows; the
# size-6 records are pinned in test_classifier's test_size6_pinned
CENSUS_SHA256 = {
    "4": "4e36412e8ff417a015bd229cd1550abe55a057014a4f86c0c95e8ed70bba5e38",
    "5": "193fefe09147a1a00b095f527516dbc9afb99055825ea0cb3df3edad464d0331",
    "6": "405ff737ce6e4d219cbb2df337951157fe21cd7641d8d289c90fb161790ff16c",
    "4 --no-verdicts": "7eec5a83342be8856f93623eed0a3065fcbbf5840fe47be6431a48ed0c611869",
    "5 --no-verdicts": "39ff9b05fa1657ebca004ca4584d2c772b781d9b6628a2fe57f9471b373deec4",
    "6 --no-verdicts": "88d1db6f1c92eb22eac1fb20f24d3237dabeee809c4607baf28663b84ac8d864",
    "4 --format records": "71da17322af2f2a8977b436b37e8f1a1dc2cd7e378e18eb5bc0e2463d175372a",
    "5 --format records": "718697f3d9cc06a42b3da4ee4cc461a27370ee3f40557ff02baf90c73509fbc7",
}


class TestCensus:
    def test_size3_text(self, capsys):
        code, out, _ = run_cli(capsys, "census", "3")
        assert code == 0
        assert "divergent+irreducible:   2" in out
        assert "3:010 3:101" in out

    def test_records_one_per_pattern(self, capsys):
        code, out, _ = run_cli(capsys, "census", "3", "--format", "records")
        lines = out.strip().splitlines()
        assert len(lines) == 8
        recs = [parse_record(l) for l in lines]
        assert sum(int(r["divergent"]) & int(r["irreducible"]) for r in recs) == 2

    @pytest.mark.parametrize("argv", list(CENSUS_SHA256))
    def test_stdout_pinned(self, capsys, argv):
        code, out, _ = run_cli(capsys, "census", *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == CENSUS_SHA256[argv]


class TestMode:
    @pytest.mark.parametrize("argv", [("classify", "3:010"), ("census", "3")],
                             ids=["classify", "census"])
    def test_verdict_commands_reject_mode(self, capsys, argv):
        # the verdicts take no mode; only subpatterns does
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--mode", "monotone"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err


class TestAlgebraCommands:
    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "4:000101")
        assert code == 0 and "4:000101 = 2:0 + 3:101" in out

    def test_decompose_irreducible(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "3:010")
        assert "irreducible" in out

    @pytest.mark.parametrize("pattern, expected", [
        ("4:000101", "pattern:4:000101 left:2:0 right:3:101\n"),
        ("4:000000", "pattern:4:000000 left:2:0 right:3:000\n"
                     "pattern:4:000000 left:3:000 right:2:0\n"),
        ("3:010", "pattern:3:010 irreducible:1\n"),
    ])
    def test_decompose_records(self, capsys, pattern, expected):
        code, out, _ = run_cli(capsys, "decompose", pattern, "--format", "records")
        assert code == 0 and out == expected

    def test_join(self, capsys):
        code, out, _ = run_cli(capsys, "join", "3:010", "3:101")
        assert out.strip() == "5:0111000101"

    def test_join_many(self, capsys):
        code, out, _ = run_cli(capsys, "join", "2:0", "2:0", "2:0")
        assert out.strip() == "4:000000"

    def test_subpatterns(self, capsys):
        code, out, _ = run_cli(capsys, "subpatterns", "3:010", "--mode", "monotone")
        assert out.split() == ["1:", "2:0", "2:1", "3:010"]


class TestAvoidSearch:
    def test_full_window(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "avoid-search", coloring_file, "2:1")
        assert code == 0 and "size 15" in out

    def test_subset_and_records(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "avoid-search", coloring_file, "2:0",
                               "--elements", "3,4,5", "--format", "records")
        rec = parse_record(out.strip())
        assert rec["size"] == "1" and rec["elements"] == "3"

    def test_repeated_elements_count_once(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(format_coloring(constant_coloring(4)))
        code, out, _ = run_cli(capsys, "avoid-search", str(path), "3:000",
                               "--elements", "2,2,3")
        assert code == 0 and "(size 2): [2, 3]" in out


class TestSimulate:
    @pytest.mark.parametrize("oracle, stages", [
        # four stacked intervals of about 100 elements: 10^8 selections
        ("functional 4:000000\n- 100 100\n- 200 200\n- 300 300\n- 400 400\n", 410),
        # one 30-bit prefix among short ones: 2^30 strings below it
        ("functional 2:0\n1 1 1\n01 1 1\n001 1 1\n" + "0" * 30 + " 1 1\n- 5 5\n", 40),
    ], ids=["long-intervals", "long-prefix"])
    def test_measure_checks_finish(self, capsys, tmp_path, time_limit, oracle, stages):
        path = tmp_path / "oracle.txt"
        path.write_text(oracle)
        code, out, _ = run_cli(capsys, "simulate", "measure", str(path),
                               "--stages", str(stages))
        assert code == 0
        assert out.splitlines()[:5] == [f"check:{name} passed:1" for name in KNOWN_CHECKS]

    def test_dnc_with_outputs(self, capsys, tmp_path, fixtures):
        col = tmp_path / "c.txt"
        tr = tmp_path / "t.txt"
        code, out, _ = run_cli(capsys, "simulate", "dnc",
                               str(fixtures / "dnc_oracle.txt"),
                               "--stages", "150",
                               "--coloring-out", str(col),
                               "--trace-out", str(tr))
        assert code == 0
        recs = [parse_record(l) for l in out.strip().splitlines()]
        assert all(r["passed"] == "1" for r in recs)
        f = parse_coloring(col.read_text())
        assert f.window == 150
        assert "builder:dnc" in tr.read_text()

    def test_measure(self, capsys, tmp_path, fixtures):
        code, out, _ = run_cli(capsys, "simulate", "measure",
                               str(fixtures / "measure_oracle.txt"),
                               "--stages", "100",
                               "--coloring-out", str(tmp_path / "c"),
                               "--trace-out", str(tmp_path / "t"))
        assert code == 0

    def test_stable2dim(self, capsys, tmp_path, fixtures):
        code, out, _ = run_cli(capsys, "simulate", "stable2dim",
                               str(fixtures / "biarray_oracle.txt"),
                               "--stages", "100",
                               "--coloring-out", str(tmp_path / "c"),
                               "--trace-out", str(tmp_path / "t"))
        assert code == 0
        # stable coloring file carries the limit line
        text = Path(tmp_path / "c").read_text()
        assert len(text.splitlines()[-1]) == 100

    def test_failed_check_record(self, capsys, tmp_path, fixtures, monkeypatch):
        import patternkit.constructions as constructions

        failed = constructions.VerifyReport((
            constructions.CheckResult("restraints", False, 7, "R[0,0] overlaps R[1,0]"),
            constructions.CheckResult("p1", True, message="not applicable"),
        ))
        monkeypatch.setattr(constructions, "verify_trace", lambda trace, f: failed)
        code, out, _ = run_cli(capsys, "simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
                               "--stages", "20", "--coloring-out", str(tmp_path / "c"),
                               "--trace-out", str(tmp_path / "t"))
        assert code == 1
        assert out == ("check:restraints passed:0 stage:7 note:R[0,0]_overlaps_R[1,0]\n"
                       "check:p1 passed:1 note:not_applicable\n")

    def test_bad_oracle_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 3\n")
        code, _, err = run_cli(capsys, "simulate", "dnc", str(bad),
                               "--stages", "10")
        assert code == 2 and "error:" in err


class TestForceEval:
    def test_omega_verdict(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "force-eval", "omega", coloring_file,
                               "3:010", "true", "--reservoir", "1,2,3,4",
                               "--bound", "4")
        rec = parse_record(out.strip())
        assert rec["verdict"] == "1"

    def test_omega_failure_coloring(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "force-eval", "omega", coloring_file,
                               "3:010", "size>=40", "--reservoir", "1,2,3,4",
                               "--bound", "4")
        rec = parse_record(out.strip())
        assert rec["verdict"] == "0"
        assert len(rec["failing_g"]) == 5

    def test_i_question(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "force-eval", "i", coloring_file,
                               "3:010", "false", "--reservoir", "1,2,3",
                               "--bound", "3")
        rec = parse_record(out.strip())
        assert rec["verdict"] == "0"
        assert "failing_h0" in rec and "failing_h1" in rec

    def test_disjunctive(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "force-eval", "disjunctive", coloring_file,
                               "2:0", "contains:1", "--pattern1", "2:1",
                               "--predicate1", "contains:1",
                               "--reservoir", "1,2", "--bound", "2")
        rec = parse_record(out.strip())
        assert rec["verdict"] == "1"

    def test_least_bound(self, capsys, coloring_file):
        code, out, _ = run_cli(capsys, "force-eval", "omega", coloring_file,
                               "3:010", "size>=2", "--reservoir",
                               "1,2,3,4,5,6,7,8", "--least-bound", "10")
        rec = parse_record(out.strip())
        assert rec["least_bound"] == "3"


# force-eval stdout pinned before the evaluators tested colorings as masks
# with the realizer kernel: the omega worst case at k=12 (constant-0 coloring,
# reservoir 1..12), a false omega verdict at k=12 and a false i verdict at
# k=8, on the colorings random_coloring draws from Random(seed)
FORCE_EVAL_PINS = [
    (None, ["omega", "3:111", "size>=12", "--reservoir", "1,2,3,4,5,6,7,8,9,10,11,12",
            "--bound", "12"],
     "question:omega bound:12 verdict:1\n"),
    ((1, 13), ["omega", "3:010", "size>=7", "--stem", "0",
               "--reservoir", "1,2,3,4,5,6,7,8,9,10,11,12", "--bound", "12"],
     "question:omega bound:12 verdict:0 failing_g:0011001001000\n"),
    ((2, 10), ["i", "3:011", "size>=3", "--stem", "0", "--reservoir", "1,2,3,4,5,6,7,8",
               "--bound", "8"],
     "question:i bound:8 verdict:0 failing_h0:011100111 failing_h1:000101110\n"),
]


@pytest.mark.parametrize("drawn, argv, expected", FORCE_EVAL_PINS,
                         ids=["omega-k12", "omega-k12-false", "i-k8-false"])
def test_force_eval_pinned(capsys, tmp_path, time_limit, drawn, argv, expected):
    f = constant_coloring(16) if drawn is None else \
        random_coloring(random.Random(drawn[0]), drawn[1])
    path = tmp_path / "coloring.txt"
    path.write_text(format_coloring(f))
    kind, *rest = argv
    code, out, _ = run_cli(capsys, "force-eval", kind, str(path), *rest)
    assert code == 0 and out == expected


class TestTree2Col:
    def test_full_tree(self, capsys, tmp_path):
        path = tmp_path / "tree.txt"
        path.write_text(format_tree(full_binary_tree(4)))
        code, out, _ = run_cli(capsys, "tree2col", str(path), "--window", "5")
        f = parse_coloring(out)
        assert f.window == 5 and not any(f.rows)


class TestVerifyLemmas:
    def test_selected_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--count", "50",
                               "--suites", "join-associative,duality")
        assert code == 0
        recs = [parse_record(l) for l in out.strip().splitlines()]
        assert [r["suite"] for r in recs] == ["join-associative", "duality"]
        assert all(r["status"] == "pass" for r in recs)

    def test_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--suites", "nope")
        assert code == 2
        assert err == "error: unknown suites: 'nope'\n"

    def test_counterexample_records(self, capsys, monkeypatch):
        # a planted failure: no pattern merges, so default-merging fails twice
        # on each of its 33,866 patterns and reports the first five
        import patternkit.lemmas as lemmas

        monkeypatch.setattr(lemmas, "_i_merging", lambda rows, i: False)
        code, out, _ = run_cli(capsys, "verify-lemmas", "--suites", "default-merging")
        assert code == 1
        assert out == "".join(f"suite:default-merging {field}\n" for field in (
            "runs:33866 status:FAIL seed:0",
            "counterexample:2:0_color_1", "counterexample:2:0_color_0",
            "counterexample:2:1_color_0", "counterexample:2:1_color_1",
            "counterexample:3:000_color_1"))


# the options read through core.integer, and an argv for each with {} for the value
INTEGER_OPTIONS = {
    "size": ("census", "{}"),
    "--stages": ("simulate", "dnc", "{oracle}", "--stages={}"),
    "--bound": ("force-eval", "omega", "{coloring}", "2:0", "true", "--bound={}"),
    "--least-bound": ("force-eval", "omega", "{coloring}", "2:0", "true", "--least-bound={}"),
    "--window": ("tree2col", "{tree}", "--window={}"),
    "--seed": ("verify-lemmas", "--count=1", "--seed={}"),
    "--count": ("verify-lemmas", "--count={}"),
}


class TestInputErrors:
    """User errors exit 2 with one `error:` line; 1 means a failed check."""

    def assert_user_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("text", ["+3:010", "0_3:010", " 3:010", "3 :010", "\u0663:010"])
    def test_pattern_size_ascii_digits_only(self, capsys, text):
        err = self.assert_user_error(capsys, "classify", text)
        assert repr(text.partition(":")[0]) in err

    @pytest.mark.parametrize("suites, entry", [("", 1), ("duality,", 2), (",duality", 1),
                                               ("duality,,join-divergence", 2)])
    def test_empty_suite_entry(self, capsys, suites, entry):
        err = self.assert_user_error(capsys, "verify-lemmas", "--count", "1",
                                     "--suites", suites)
        assert f"empty entry {entry} in --suites {suites!r}" in err

    def test_missing_input_files(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.txt")
        self.assert_user_error(capsys, "avoid-search", missing, "2:0")
        self.assert_user_error(capsys, "simulate", "dnc", missing, "--stages", "5")
        self.assert_user_error(capsys, "force-eval", "omega", missing, "2:0", "true")
        self.assert_user_error(capsys, "tree2col", missing, "--window", "3")

    def test_unreadable_input_file(self, capsys, tmp_path):
        # a directory cannot be read as a file, whoever runs the test
        self.assert_user_error(capsys, "avoid-search", str(tmp_path), "2:0")
        binary = tmp_path / "binary.txt"
        binary.write_bytes(b"\xff\xfe\x00")
        self.assert_user_error(capsys, "avoid-search", str(binary), "2:0")

    def test_unwritable_output_file(self, capsys, tmp_path, fixtures):
        self.assert_user_error(capsys, "simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
                               "--stages", "5", "--coloring-out", str(tmp_path))

    def test_echoed_text_quoted(self, capsys, tmp_path, fixtures):
        # a newline in a path or a suite name stays inside the one error line
        missing = str(tmp_path / "no\nsuch")
        err = self.assert_user_error(capsys, "avoid-search", missing, "2:0")
        assert err.startswith(f"error: cannot read {missing!r}: ")
        err = self.assert_user_error(capsys, "simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
                                     "--stages", "5", "--coloring-out", missing + "/out.txt")
        assert err.startswith(f"error: cannot write {missing + '/out.txt'!r}: ")
        err = self.assert_user_error(capsys, "verify-lemmas", "--suites", "no\nsuch")
        assert err == "error: unknown suites: 'no\\nsuch'\n"

    @pytest.mark.parametrize("kind, oracle", [("dnc", "dnc_oracle.txt"),
                                              ("measure", "measure_oracle.txt"),
                                              ("stable2dim", "biarray_oracle.txt")])
    @pytest.mark.parametrize("stages", [MAX_STAGES + 1, 10**12])
    def test_stages_capped(self, capsys, fixtures, kind, oracle, stages):
        # 10**12 stages used to die allocating the rows, with a traceback
        err = self.assert_user_error(capsys, "simulate", kind, str(fixtures / oracle),
                                     "--stages", str(stages))
        assert err == f"error: builders capped at {MAX_STAGES} stages, got {stages}\n"

    def test_non_integer_lists(self, capsys, coloring_file):
        self.assert_user_error(capsys, "avoid-search", coloring_file, "2:0",
                               "--elements", "1,a")
        for option in ("--reservoir", "--stem"):
            self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                                   "2:0", "true", option, "1,,2")

    # int() would read all but the last as 0, 10, 1 and 1
    @pytest.mark.parametrize("value", ["\uff10,2", "1_0", "+1", " 1", "--1"])
    def test_integer_lists_ascii_digits_only(self, capsys, coloring_file, value):
        err = self.assert_user_error(capsys, "avoid-search", coloring_file, "2:0",
                                     f"--elements={value}")
        assert f"--elements must be comma-separated integers, got {value!r}" in err
        for option in ("--reservoir", "--stem", "--stem1"):
            err = self.assert_user_error(capsys, "force-eval", "disjunctive", coloring_file,
                                         "2:0", "true", f"{option}={value}")
            assert f"{option} must be comma-separated integers, got {value!r}" in err

    @pytest.mark.parametrize("spec", ["size>=x", "contains:q", "homogeneous:a",
                                      "homogeneous:0:z", "homogeneous:", "homogeneous:5",
                                      "size>=1_0", "size>=\uff12", "size>= 2",
                                      "homogeneous:+1", "contains:-1", "homogeneous:0:-2",
                                      "size>=-1"])
    def test_bad_predicate_parameters(self, capsys, coloring_file, spec):
        self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                               "2:0", spec, "--reservoir", "1,2", "--bound", "2")

    def test_stem_outside_window(self, capsys, coloring_file):
        self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                               "2:0", "homogeneous:0", "--stem=-1",
                               "--reservoir", "1,2", "--bound", "2")

    @pytest.mark.parametrize("kind, text, line", [
        ("dnc", "0 x 1,2\n", "0 x 1,2"),
        ("measure", "functional 3:010\n0 x 1\n", "0 x 1"),
        ("stable2dim", "functional\nE 0 x 1\n", "E 0 x 1"),
    ], ids=["dnc", "measure", "stable2dim"])
    def test_non_integer_oracle_fields(self, capsys, tmp_path, kind, text, line):
        path = tmp_path / "oracle.txt"
        path.write_text(text)
        err = self.assert_user_error(capsys, "simulate", kind, str(path), "--stages", "5")
        assert repr(line) in err

    @pytest.mark.parametrize("kind, text", [
        ("measure", "functional 3:010 extra\n- 1 1\n"),
        ("stable2dim", "functional junk here\nE 0 1 1\n"),
    ], ids=["measure", "stable2dim"])
    def test_functional_header_with_extra_fields(self, capsys, tmp_path, kind, text):
        path = tmp_path / "oracle.txt"
        path.write_text(text)
        err = self.assert_user_error(capsys, "simulate", kind, str(path), "--stages", "5")
        assert repr(text.splitlines()[0]) in err

    def test_negative_count(self, capsys):
        self.assert_user_error(capsys, "verify-lemmas", "--count", "-3")

    @pytest.mark.parametrize("seed", ["-1", "-2", "-3"])
    def test_negative_seed(self, capsys, seed):
        # -2 would replay seed 0's join-associative stream, -3 seed 3's
        # join-divergence stream
        err = self.assert_user_error(capsys, "verify-lemmas", "--count", "1",
                                     "--seed", seed)
        assert f"seed must be nonnegative, got {seed}" in err

    @pytest.mark.parametrize("suites, name", [
        ("duality,duality", "duality"),
        ("join-divergence,duality,join-divergence", "join-divergence"),
    ])
    def test_repeated_suite_entry(self, capsys, suites, name):
        err = self.assert_user_error(capsys, "verify-lemmas", "--count", "1",
                                     "--suites", suites)
        assert f"suite {name!r} named twice" in err

    @pytest.mark.parametrize("limit", [("--bound", "4"), ("--bound", "7"),
                                       ("--least-bound", "9")])
    @pytest.mark.parametrize("kind", ["omega", "i", "disjunctive"])
    def test_stem_below_the_whole_reservoir(self, capsys, tmp_path, kind, limit):
        # below bound 6 the reservoir's part in [0, n] is empty, and a check
        # against that part alone let stem 7 through: omega printed verdict:1
        # at --bound 4 and least_bound:0 under --least-bound 9
        path = tmp_path / "c10.txt"
        path.write_text(format_coloring(random_coloring(random.Random(0), 10)))
        err = self.assert_user_error(capsys, "force-eval", kind, str(path), "3:010", "true",
                                     "--stem", "7", "--reservoir", "6,8", *limit)
        assert err == "error: stem must lie entirely below the reservoir\n"

    @pytest.mark.parametrize("predicate", ["true", "false"])
    def test_least_bound_cap_checked_against_the_window(self, capsys, tmp_path, predicate):
        # the cap was checked against the window only when the scan reached
        # it: true printed least_bound:0, false failed with the bound's message
        path = tmp_path / "c10.txt"
        path.write_text(format_coloring(constant_coloring(10)))
        err = self.assert_user_error(capsys, "force-eval", "omega", str(path), "3:010",
                                     predicate, "--reservoir", "1,2,3", "--least-bound", "12")
        assert err == "error: cap 12 exceeds window [0,10)\n"

    @pytest.mark.parametrize("kind", ["omega", "i", "disjunctive"])
    def test_reservoir_element_outside_window(self, capsys, tmp_path, kind):
        # --reservoir 1,2,99 printed verdict:1 while --stem 99 exited 2
        path = tmp_path / "c10.txt"
        path.write_text(format_coloring(constant_coloring(10)))
        err = self.assert_user_error(capsys, "force-eval", kind, str(path), "3:010", "true",
                                     "--reservoir", "1,2,99", "--bound", "3")
        assert err == "error: reservoir element 99 outside window [0,10)\n"

    def test_negative_reservoir_element(self, capsys, coloring_file):
        err = self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                                     "2:0", "size>=2", "--reservoir=-3,1,2",
                                     "--bound", "2")
        assert "reservoir element -3 is negative" in err

    @pytest.mark.parametrize("kind, option, value", [
        ("omega", "--stem1", "1"),
        ("i", "--pattern1", "2:1"),
        ("omega", "--predicate1", "true"),
    ])
    def test_disjunctive_options_on_other_questions(self, capsys, coloring_file,
                                                    kind, option, value):
        err = self.assert_user_error(capsys, "force-eval", kind, coloring_file,
                                     "2:0", "true", "--reservoir", "1,2",
                                     "--bound", "2", option, value)
        assert option in err

    def test_bound_with_least_bound(self, capsys, coloring_file):
        err = self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                                     "2:0", "true", "--reservoir", "1,2",
                                     "--bound", "2", "--least-bound", "3")
        assert "--bound" in err

    def test_negative_least_bound(self, capsys, coloring_file):
        self.assert_user_error(capsys, "force-eval", "omega", coloring_file,
                               "2:0", "true", "--least-bound", "-1")

    def test_negative_window(self, capsys, tmp_path):
        tree = tmp_path / "tree.txt"
        tree.write_text("\n0\n1\n")
        err = self.assert_user_error(capsys, "tree2col", str(tree), "--window", "-1")
        assert err == "error: window must be >= 0\n"

    @pytest.mark.parametrize("argv", [("census", "x"), ("census",), ("nosuch",),
                                      ("census", "3", "--bogus"), ("classify", "3:010", "x\ny")],
                             ids=["bad-value", "missing-argument", "unknown-command",
                                  "unknown-option", "extra-argument-newline"])
    def test_parser_errors_one_line(self, capsys, argv):
        self.assert_user_error(capsys, *argv)

    # int() would read the first line as index 0 from stage 10 with elements {1, 2}
    @pytest.mark.parametrize("line", ["\uff10 1_0 1,\uff12", "0 +5 1", "0 0 1,,2"])
    def test_oracle_integers_ascii_digits_only(self, capsys, tmp_path, line):
        path = tmp_path / "oracle.txt"
        path.write_text(line + "\n")
        err = self.assert_user_error(capsys, "simulate", "dnc", str(path), "--stages", "5")
        assert err == f"error: non-integer field in oracle line {line!r}\n"

    @pytest.fixture
    def message_files(self, tmp_path, fixtures):
        files = {"measure": str(fixtures / "measure_oracle.txt"),
                 "biarray": str(fixtures / "biarray_oracle.txt")}
        for name, text in [("size1", "functional 1:\n- 0 1\n"), ("empty", ""),
                           ("window16", format_coloring(constant_coloring(16)))]:
            files[name] = str(tmp_path / name)
            Path(files[name]).write_text(text)
        return files

    @pytest.mark.parametrize("argv, message", [
        (("classify", "3"), "expected 'l:bits', got '3'"),
        (("simulate", "measure", "{measure}", "--stages", "0"), "need at least one stage"),
        (("simulate", "stable2dim", "{biarray}", "--stages", "0"),
         "need at least one stage"),
        (("simulate", "measure", "{size1}", "--stages", "5"),
         "patterns must have size >= 2"),
        (("force-eval", "omega", "{window16}", "2:0", "true", "--bound", "16"),
         "bound 16 exceeds window [0,16)"),
        (("force-eval", "omega", "{window16}", "2:0", "true", "--least-bound", "15"),
         "cap 15 exceeds the hard cap 14"),
        (("avoid-search", "{empty}", "2:0"), "empty coloring file"),
    ], ids=["classify-no-colon", "measure-no-stage", "stable2dim-no-stage",
            "measure-size-1", "bound-at-window", "cap-above-hard-cap", "empty-coloring"])
    def test_messages_pinned(self, capsys, message_files, argv, message):
        err = self.assert_user_error(capsys, *(a.format(**message_files) for a in argv))
        assert err == f"error: {message}\n"

    # each integer field and element position of the three oracle formats made
    # negative in an otherwise valid line, then lines with every field negative;
    # an index, a stage or an element cannot be
    @pytest.mark.parametrize("kind, header, line", [
        ("dnc", "", "-1 0 1,2"),
        ("dnc", "", "0 -5 1,2"),
        ("dnc", "", "0 0 -1,2"),
        ("dnc", "", "0 0 1,-2"),
        ("measure", "functional 3:010", "- -3 1,2"),
        ("measure", "functional 3:010", "0 0 -2,5"),
        ("measure", "functional 3:010", "0 0 2,-5"),
        ("stable2dim", "functional", "E -2 0 3,4"),
        ("stable2dim", "functional", "E 0 -1 1,3"),
        ("stable2dim", "functional", "E 0 1 -1,3"),
        ("stable2dim", "functional", "E 0 1 1,-3"),
        ("stable2dim", "functional", "F -5 0 1 2,4"),
        ("stable2dim", "functional", "F 0 -4 1 5,6"),
        ("stable2dim", "functional", "F 0 1 -3 2,4"),
        ("stable2dim", "functional", "F 0 1 2 -2,4"),
        ("stable2dim", "functional", "F 0 1 2 2,-4"),
        ("measure", "functional 3:010", "0 -3 -2,5"),
        ("stable2dim", "functional", "E -2 -1 -1,3"),
        ("stable2dim", "functional", "F -5 -4 -3 -2,4"),
    ])
    def test_negative_oracle_fields(self, capsys, tmp_path, kind, header, line):
        path = tmp_path / "oracle.txt"
        path.write_text(f"{header}\n{line}\n")
        err = self.assert_user_error(capsys, "simulate", kind, str(path), "--stages", "8")
        assert err == f"error: negative field in oracle line {line!r}\n"

    @pytest.mark.parametrize("window", ["+3", "\uff13", "3_0", " 3", "3 "])
    def test_coloring_window_ascii_digits_only(self, capsys, tmp_path, window):
        path = tmp_path / "coloring.txt"
        path.write_text(f"{window}\n00\n0\n")
        err = self.assert_user_error(capsys, "avoid-search", str(path), "2:0")
        assert repr(window) in err

    @pytest.fixture
    def option_files(self, tmp_path, fixtures, coloring_file):
        tree = tmp_path / "tree.txt"
        tree.write_text(format_tree(full_binary_tree(2)))
        return {"oracle": str(fixtures / "dnc_oracle.txt"), "coloring": coloring_file,
                "tree": str(tree)}

    def option_error(self, capsys, files, option, value):
        argv = [a.format(value, **files) for a in INTEGER_OPTIONS[option]]
        return self.assert_user_error(capsys, *argv)

    # int() would read all but the last as 3, 10, 5, 5 and 5
    @pytest.mark.parametrize("value", ["\uff13", "1_0", "+5", " 5", "5 ", ""])
    @pytest.mark.parametrize("option", list(INTEGER_OPTIONS))
    def test_integer_options_ascii_digits_only(self, capsys, option_files, option, value):
        err = self.option_error(capsys, option_files, option, value)
        assert err == f"error: argument {option}: invalid integer value: {value!r}\n"

    # a negative value is spelled right, so the option's own range check answers
    # (test_negative_seed and test_negative_window pin the other two)
    @pytest.mark.parametrize("option, value, message", [
        ("size", "-1", "pattern size must be >= 1"),
        ("--stages", "-1", "need at least one stage"),
        ("--bound", "-1", "bound must be nonnegative"),
        ("--least-bound", "-1", "cap must be nonnegative"),
        ("--count", "-3", "count must be nonnegative, got -3"),
    ])
    def test_negative_options_keep_range_messages(self, capsys, option_files, option, value,
                                                  message):
        err = self.option_error(capsys, option_files, option, value)
        assert err == f"error: {message}\n"

    def test_no_option_reads_with_bare_int(self):
        def parsers(parser):
            yield parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for sub in action.choices.values():
                        yield from parsers(sub)

        found = [(parser.prog, action.dest) for parser in parsers(build_parser())
                 for action in parser._actions if action.type is int]
        assert found == []


class TestDeterminism:
    @pytest.fixture
    def invocations(self, coloring_file, fixtures):
        return [
            ("census", "4", "--format", "records"),
            ("classify", "5:0111000101", "--format", "records"),
            ("verify-lemmas", "--count", "100", "--seed", "3"),
            ("simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
             "--stages", "120"),
            ("force-eval", "omega", coloring_file, "3:010", "size>=2",
             "--reservoir", "1,2,3,4,5", "--bound", "5"),
        ]

    def test_repeated_runs_byte_identical(self, capsys, invocations):
        for argv in invocations:
            _, first, _ = run_cli(capsys, *argv)
            _, second, _ = run_cli(capsys, *argv)
            assert first == second, argv

    def test_hash_seed_independent(self, invocations):
        # str hashes, and so set and dict orders, change with PYTHONHASHSEED;
        # the output must not
        path = str(Path(patternkit.__file__).parents[1])
        for argv in invocations:
            outs = []
            for hash_seed in ("0", "12345"):
                env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed}
                proc = subprocess.run([sys.executable, "-m", "patternkit.cli", *argv],
                                      capture_output=True, env=env, check=True)
                outs.append(proc.stdout)
            assert outs[0] and outs[0] == outs[1], argv


class TestClosedStdout:
    def test_reader_leaving_early_is_quiet(self):
        # census 6 prints more than a pipe buffer holds, so a write fails
        # once the reader has closed its end
        env = {**os.environ, "PYTHONPATH": str(Path(patternkit.__file__).parents[1])}
        proc = subprocess.Popen(
            [sys.executable, "-m", "patternkit.cli", "census", "6", "--format", "records"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(b"pattern:6:")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""

    def test_in_process(self, monkeypatch, capsys):
        # main itself: stdout a pipe whose reader has left, so the first
        # write raises BrokenPipeError, and the handler points the pipe's
        # descriptor, not this process's stdout, at devnull, and leaves no
        # descriptor of its own open
        r, w = os.pipe()
        os.close(r)
        open_fds = len(os.listdir("/proc/self/fd"))
        with open(w, "w") as out:
            monkeypatch.setattr(sys, "stdout", out)
            assert main(["census", "4", "--format", "records"]) == 1
            assert os.path.samestat(os.fstat(w), os.stat(os.devnull))
            assert len(os.listdir("/proc/self/fd")) == open_fds
        assert capsys.readouterr().err == ""


def test_stdout_without_a_byte_layer(monkeypatch, capsys):
    # io.StringIO has no buffer to write through: _write_out hands it the text
    _, expected, _ = run_cli(capsys, "census", "3")
    out = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["census", "3"]) == 0
    assert out.getvalue() == expected


class TestReaderLeavingMidWrite:
    # Under PYTHONUNBUFFERED, stdout writes through to a raw FileIO, and a
    # reader that left during a large write used to cost the rest of that
    # write silently: simulate dnc on the fixture oracle at 300 stages (244,756
    # bytes) exited 0 when the reader kept 100 or 120,000 bytes, and tree2col
    # of a 700-vertex window (245,353 bytes) when it kept 120,000
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("keep", [100, 120_000])
    @pytest.mark.parametrize("command", ["simulate", "census", "tree2col"])
    def test_exits_1_quietly(self, fixtures, tmp_path, command, keep, unbuffered):
        path = tmp_path / "path_tree.txt"
        path.write_text("\n" + "\n".join("0" * d for d in range(1, 700)) + "\n")
        argv = {"simulate": ["simulate", "dnc", str(fixtures / "dnc_oracle.txt"),
                             "--stages", "300"],
                "census": ["census", "6", "--format", "records"],
                "tree2col": ["tree2col", str(path), "--window", "700"]}[command]
        env = {**os.environ, "PYTHONPATH": str(Path(patternkit.__file__).parents[1])}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "patternkit.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert len(proc.stdout.read(keep)) == keep
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""
